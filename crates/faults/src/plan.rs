//! Seeded chaos fault plans.
//!
//! A [`FaultPlan`] is a deterministic, timed schedule of faults — process
//! crashes, infrastructure crashes, link partitions, message-loss bursts
//! and multi-replica leaks — generated from a seed, a [`PlanSpace`]
//! describing what the target topology can absorb, and a [`FaultMix`]
//! naming the fault families (loss bursts among them) that may be drawn.
//! A sweep
//! (`mead-repro sweep <scenario.toml>`; the chaos campaign is
//! `scenarios/chaos-campaign.toml`) runs hundreds of such plans through
//! the simulator and checks recovery invariants after each one.
//!
//! The generator keeps every plan inside the warm-passive `f = 1` fault
//! model the stack is built for:
//!
//! * **crash-like** events (replica / RM / daemon / naming crashes) are
//!   spaced at least [`MIN_CRASH_GAP`] apart, so recovery from one fault
//!   completes before the next lands;
//! * infrastructure restarts happen within [`MAX_RESTART`];
//! * partitions always heal within [`MAX_PARTITION`], and loss bursts end
//!   within [`MAX_BURST`] — they may *overlap* crashes (that is the
//!   interesting concurrency), but can never strand traffic forever;
//! * at most `PlanSpace::rm_crashes` Recovery-Manager crashes are drawn,
//!   since nothing relaunches the RM itself.

use std::fmt;

use rand::Rng;
use simnet::{SimDuration, SimRng, SimTime};

/// Minimum spacing between two crash-like events.
pub const MIN_CRASH_GAP: SimDuration = SimDuration::from_millis(600);
/// Upper bound on infrastructure restart delay.
pub const MAX_RESTART: SimDuration = SimDuration::from_millis(200);
/// Upper bound on a partition's lifetime.
pub const MAX_PARTITION: SimDuration = SimDuration::from_millis(500);
/// Upper bound on a loss burst's lifetime.
pub const MAX_BURST: SimDuration = SimDuration::from_millis(300);
/// Upper bound on a jittery link's per-delivery extra delay.
pub const MAX_JITTER_BOUND: SimDuration = SimDuration::from_millis(10);
/// Upper bound on a jittery link's lifetime.
pub const MAX_JITTER_SPAN: SimDuration = SimDuration::from_millis(600);
/// Upper bound on a flash crowd's size.
pub const MAX_CROWD: u32 = 64;
/// Upper bound on a flash crowd's arrival spread.
pub const MAX_CROWD_SPREAD: SimDuration = SimDuration::from_millis(400);

/// One injectable fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Kill the server replica currently bound to `slot`.
    CrashReplica {
        /// Replica slot index (0-based).
        slot: u32,
    },
    /// Kill the lowest-numbered live Recovery Manager instance.
    CrashRecoveryManager,
    /// Kill the GCS daemon on `node`; the executor restarts it after
    /// `restart_after`.
    CrashGcsDaemon {
        /// Node index hosting the daemon.
        node: u32,
        /// Delay before the daemon is respawned.
        restart_after: SimDuration,
    },
    /// Kill the Naming Service; the executor restarts it (empty — the
    /// paper's naming store is in-memory) after `restart_after`.
    CrashNaming {
        /// Delay before the naming service is respawned.
        restart_after: SimDuration,
    },
    /// Sever the link between two nodes; healed after `heal_after`.
    Partition {
        /// First node index.
        a: u32,
        /// Second node index.
        b: u32,
        /// Delay before the link heals.
        heal_after: SimDuration,
    },
    /// Delay-retransmit every message with probability `probability`
    /// for `duration`, then restore the configured loss model.
    LossBurst {
        /// Per-delivery retransmission probability in `[0, 1]`.
        probability: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// Kill several replica slots at the *same* instant — a correlated
    /// failure group (shared rack, shared bug). The group must leave at
    /// least one slot alive, so the warm-passive stack has a survivor to
    /// fail over to.
    CorrelatedCrash {
        /// Distinct slot indices to kill, sorted ascending.
        slots: Vec<u32>,
    },
    /// A flash crowd: `clients` short-lived read-only clients arrive,
    /// staggered uniformly over `spread`, each issuing `reads` read
    /// requests against the replicated counter before disconnecting.
    FlashCrowd {
        /// Number of crowd clients spawned.
        clients: u32,
        /// Read requests per crowd client.
        reads: u32,
        /// Window over which arrivals are staggered.
        spread: SimDuration,
    },
    /// Rolling-upgrade restart: kill slot `0, 1, … slots-1` in order,
    /// one every `gap` (`gap` ≥ [`MIN_CRASH_GAP`], so each slot's
    /// replacement is live before the next goes down).
    RollingRestart {
        /// Number of replica slots cycled (the full topology).
        slots: u32,
        /// Spacing between consecutive slot kills.
        gap: SimDuration,
    },
    /// Sever only the `from` → `to` direction of a link (asymmetric
    /// partition); healed after `heal_after`.
    AsymmetricPartition {
        /// Node whose outbound traffic is blocked.
        from: u32,
        /// Destination the blocked traffic was heading to.
        to: u32,
        /// Delay before the direction heals.
        heal_after: SimDuration,
    },
    /// Add seeded per-delivery jitter of up to `bound` on the `a` ↔ `b`
    /// link for `duration`, then clear it.
    JitteryLink {
        /// First node index.
        a: u32,
        /// Second node index.
        b: u32,
        /// Upper bound of the extra uniform per-delivery delay.
        bound: SimDuration,
        /// How long the link stays jittery.
        duration: SimDuration,
    },
    /// CPU-exhaustion ramp on the replica bound to `slot`: consumed CPU
    /// fraction grows by `ramp_per_sec` per second. The interceptor
    /// checks it against the two-step thresholds like the leak
    /// ([`crate::ResourceMonitor`] on the write path,
    /// [`crate::AdaptivePredictor`] on the timer), and the process
    /// crashes if it reaches 1.0 before the replica retires.
    CpuExhaustion {
        /// Replica slot index the pressure lands on.
        slot: u32,
        /// Consumed-fraction growth per second (> 0).
        ramp_per_sec: f64,
    },
    /// File-descriptor leak on the replica bound to `slot`: each client
    /// request leaks `per_request` of the fd table, feeding the same
    /// two-step thresholds.
    FdLeak {
        /// Replica slot index the pressure lands on.
        slot: u32,
        /// Consumed-fraction growth per client request (> 0).
        per_request: f64,
    },
}

impl FaultKind {
    /// Whether this fault kills a process (and therefore needs the
    /// [`MIN_CRASH_GAP`] spacing discipline).
    pub fn is_crash(&self) -> bool {
        matches!(
            self,
            FaultKind::CrashReplica { .. }
                | FaultKind::CrashRecoveryManager
                | FaultKind::CrashGcsDaemon { .. }
                | FaultKind::CrashNaming { .. }
                | FaultKind::CorrelatedCrash { .. }
                | FaultKind::RollingRestart { .. }
        )
    }

    /// Stable snake-case name of the fault model, used as the
    /// `fault_injected` trace tag and in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::CrashReplica { .. } => "crash_replica",
            FaultKind::CrashRecoveryManager => "crash_rm",
            FaultKind::CrashGcsDaemon { .. } => "crash_daemon",
            FaultKind::CrashNaming { .. } => "crash_naming",
            FaultKind::Partition { .. } => "partition",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::CorrelatedCrash { .. } => "correlated_crash",
            FaultKind::FlashCrowd { .. } => "flash_crowd",
            FaultKind::RollingRestart { .. } => "rolling_restart",
            FaultKind::AsymmetricPartition { .. } => "asymmetric_partition",
            FaultKind::JitteryLink { .. } => "jittery_link",
            FaultKind::CpuExhaustion { .. } => "cpu_exhaustion",
            FaultKind::FdLeak { .. } => "fd_leak",
        }
    }

    /// The instants this fault kills processes at, given its injection
    /// instant (empty for non-crash faults). A [`RollingRestart`]
    /// expands into one kill per slot.
    ///
    /// [`RollingRestart`]: FaultKind::RollingRestart
    pub fn crash_instants(&self, at: SimTime) -> Vec<SimTime> {
        match self {
            FaultKind::RollingRestart { slots, gap } => {
                (0..*slots).map(|i| at + *gap * u64::from(i)).collect()
            }
            k if k.is_crash() => vec![at],
            _ => Vec::new(),
        }
    }
}

/// A fault scheduled at an absolute simulation instant.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Injection instant.
    pub at: SimTime,
    /// What to inject.
    pub kind: FaultKind,
}

/// A complete seeded chaos schedule.
///
/// Fields are private so every plan in circulation has passed
/// [`FaultPlan::validate`]: construct plans with the generator
/// ([`FaultPlan::generate_with`]) or explicitly via
/// [`FaultPlanBuilder`], which refuses schedules the validator rejects.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// The seed this plan was generated from (also seeds the scenario).
    seed: u64,
    /// Events sorted by [`FaultEvent::at`].
    events: Vec<FaultEvent>,
    /// When `true`, every server replica runs the paper's memory leak —
    /// the multi-replica-leak composition from the campaign brief.
    leak_all: bool,
}

/// Checked constructor for [`FaultPlan`] — the only way code outside the
/// generator can assemble a plan, so [`FaultPlan::validate`] is
/// unavoidable.
///
/// ```
/// use faults::{FaultEvent, FaultKind, FaultPlanBuilder, PlanSpace};
/// use simnet::{SimDuration, SimTime};
///
/// let space = PlanSpace {
///     replica_slots: 3,
///     nodes: 5,
///     daemon_nodes: vec![],
///     naming: false,
///     rm_crashes: 0,
///     partition_pairs: vec![],
///     start: SimTime::from_millis(500),
///     end: SimTime::from_secs(9),
/// };
/// let plan = FaultPlanBuilder::new(42)
///     .event(FaultEvent {
///         at: SimTime::from_millis(900),
///         kind: FaultKind::LossBurst {
///             probability: 0.2,
///             duration: SimDuration::from_millis(150),
///         },
///     })
///     .build(&space)
///     .expect("schedule fits the space");
/// assert_eq!(plan.seed(), 42);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlanBuilder {
    seed: u64,
    events: Vec<FaultEvent>,
    leak_all: bool,
}

impl FaultPlanBuilder {
    /// Starts an empty plan for `seed` (no events, no leak).
    pub fn new(seed: u64) -> Self {
        FaultPlanBuilder {
            seed,
            events: Vec::new(),
            leak_all: false,
        }
    }

    /// Appends one fault event.
    pub fn event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Appends a batch of fault events.
    pub fn events(mut self, events: impl IntoIterator<Item = FaultEvent>) -> Self {
        self.events.extend(events);
        self
    }

    /// Sets the all-replica memory-leak composition flag.
    pub fn leak_all(mut self, leak_all: bool) -> Self {
        self.leak_all = leak_all;
        self
    }

    /// Sorts the schedule and runs [`FaultPlan::validate`] against
    /// `space`; only a plan the validator accepts is returned.
    pub fn build(mut self, space: &PlanSpace) -> Result<FaultPlan, PlanError> {
        self.events.sort_by_key(|e| e.at);
        let plan = FaultPlan {
            seed: self.seed,
            events: self.events,
            leak_all: self.leak_all,
        };
        plan.validate(space)?;
        Ok(plan)
    }
}

/// What the target topology can absorb; bounds the generator's draws.
#[derive(Clone, Debug)]
pub struct PlanSpace {
    /// Number of server replica slots (crash targets).
    pub replica_slots: u32,
    /// Number of nodes in the topology: node indices run `0..nodes`.
    pub nodes: u32,
    /// Node indices whose GCS daemon may be crashed (and restarted).
    pub daemon_nodes: Vec<u32>,
    /// Whether the Naming Service may be crashed (and restarted).
    pub naming: bool,
    /// Maximum Recovery-Manager crashes per plan (`0` = never; keep
    /// below the number of RM instances, nothing relaunches the RM).
    pub rm_crashes: u32,
    /// Node pairs whose link may be partitioned.
    pub partition_pairs: Vec<(u32, u32)>,
    /// Earliest injection instant (after boot/warm-up).
    pub start: SimTime,
    /// Latest instant a fault may *begin* (heals/restarts may run past).
    pub end: SimTime,
}

/// Which fault families [`FaultPlan::generate_with`] may draw from — the
/// declarative knob a scenario file's `[[mix]]` tables set. The chaos
/// campaign (`scenarios/chaos-campaign.toml`) is [`FaultMix::classic`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultMix {
    /// Single crash-like faults (replica / RM / daemon / naming, per the
    /// [`PlanSpace`]).
    pub crashes: bool,
    /// Correlated multi-slot crash groups.
    pub correlated: bool,
    /// Rolling-upgrade restarts across all slots.
    pub rolling: bool,
    /// Symmetric link partitions.
    pub partitions: bool,
    /// One-directional link cuts.
    pub asymmetric: bool,
    /// Jittery links (seeded per-delivery delay).
    pub jitter: bool,
    /// Message-loss bursts.
    pub loss: bool,
    /// Flash-crowd client arrival.
    pub flash_crowd: bool,
    /// CPU-exhaustion ramps.
    pub cpu: bool,
    /// File-descriptor leaks.
    pub fd: bool,
    /// Whether the every-replica memory leak may be drawn.
    pub leak: bool,
}

impl FaultMix {
    /// The classic PR-2 campaign families: crashes, partitions, loss
    /// bursts and multi-replica leaks.
    pub fn classic() -> Self {
        FaultMix {
            crashes: true,
            correlated: false,
            rolling: false,
            partitions: true,
            asymmetric: false,
            jitter: false,
            loss: true,
            flash_crowd: false,
            cpu: false,
            fd: false,
            leak: true,
        }
    }

    /// Every family enabled.
    pub fn all() -> Self {
        FaultMix {
            crashes: true,
            correlated: true,
            rolling: true,
            partitions: true,
            asymmetric: true,
            jitter: true,
            loss: true,
            flash_crowd: true,
            cpu: true,
            fd: true,
            leak: true,
        }
    }

    /// Nothing enabled (useful as a base for builder-style setup).
    pub fn none() -> Self {
        FaultMix {
            crashes: false,
            correlated: false,
            rolling: false,
            partitions: false,
            asymmetric: false,
            jitter: false,
            loss: false,
            flash_crowd: false,
            cpu: false,
            fd: false,
            leak: false,
        }
    }
}

/// Why a [`FaultPlan`] failed validation against its [`PlanSpace`].
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// Events are not sorted by injection instant.
    Unsorted {
        /// Index of the first out-of-order event.
        index: usize,
    },
    /// An event begins outside the `[space.start, space.end]` window.
    OutsideWindow {
        /// The offending injection instant (ns).
        at_ns: u64,
    },
    /// A `LossBurst` probability outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// The offending probability.
        probability: f64,
    },
    /// Two crash instants closer than [`MIN_CRASH_GAP`].
    CrashGap {
        /// Earlier crash instant (ns).
        first_ns: u64,
        /// Later crash instant (ns).
        second_ns: u64,
    },
    /// A slot index at or beyond `space.replica_slots`.
    BadSlot {
        /// The offending slot.
        slot: u32,
    },
    /// A correlated crash group that is empty, unsorted, has duplicate
    /// slots, or covers every slot (no survivor).
    BadCrashGroup {
        /// The offending group.
        slots: Vec<u32>,
    },
    /// A link fault whose two endpoints coincide.
    BadLink {
        /// The node on both ends.
        node: u32,
    },
    /// A node index at or beyond `space.nodes`.
    BadNode {
        /// The offending node.
        node: u32,
    },
    /// A daemon crash on a node outside `space.daemon_nodes` (such as the
    /// sequencer's, which the `f = 1` group stack cannot lose).
    BadDaemon {
        /// The node whose daemon may not be crashed.
        node: u32,
    },
    /// A duration outside its fault model's bounds (zero restarts, heals
    /// beyond [`MAX_PARTITION`], bursts beyond [`MAX_BURST`], …).
    BadDuration {
        /// The fault model whose duration is out of bounds.
        fault: &'static str,
        /// The offending duration (ns).
        duration_ns: u64,
    },
    /// A non-positive pressure rate, or a crowd with zero clients/reads
    /// or more than [`MAX_CROWD`].
    BadRate {
        /// The fault model whose rate is out of bounds.
        fault: &'static str,
    },
    /// More than one resource-pressure fault targeting one slot.
    DuplicatePressure {
        /// The doubly-pressured slot.
        slot: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Unsorted { index } => {
                write!(f, "events not sorted by instant (index {index})")
            }
            PlanError::OutsideWindow { at_ns } => {
                write!(f, "event at {at_ns} ns begins outside the fault window")
            }
            PlanError::ProbabilityOutOfRange { probability } => {
                write!(f, "loss probability {probability} outside [0, 1]")
            }
            PlanError::CrashGap {
                first_ns,
                second_ns,
            } => write!(
                f,
                "crashes at {first_ns} ns and {second_ns} ns violate MIN_CRASH_GAP"
            ),
            PlanError::BadSlot { slot } => write!(f, "slot {slot} beyond the topology"),
            PlanError::BadCrashGroup { slots } => {
                write!(f, "bad correlated crash group {slots:?}")
            }
            PlanError::BadLink { node } => {
                write!(f, "link fault with both endpoints on node {node}")
            }
            PlanError::BadNode { node } => write!(f, "node {node} beyond the topology"),
            PlanError::BadDaemon { node } => {
                write!(f, "the daemon on node {node} may not be crashed")
            }
            PlanError::BadDuration { fault, duration_ns } => {
                write!(f, "{fault} duration {duration_ns} ns out of bounds")
            }
            PlanError::BadRate { fault } => write!(f, "{fault} rate out of bounds"),
            PlanError::DuplicatePressure { slot } => {
                write!(f, "more than one pressure fault on slot {slot}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// The seed this plan was generated from (also seeds the scenario).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schedule, sorted by [`FaultEvent::at`].
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether every server replica runs the paper's memory leak.
    pub fn leak_all(&self) -> bool {
        self.leak_all
    }

    /// Deterministically generates a plan from `seed` within `space`,
    /// drawing only from the fault families `mix` enables.
    pub fn generate_with(seed: u64, space: &PlanSpace, mix: &FaultMix) -> FaultPlan {
        let mut rng = SimRng::for_kernel(seed, 0xC4A06);
        let window = space.end - space.start;
        let mut events = Vec::new();

        // Crash-like events share one forward walk so the MIN_CRASH_GAP
        // discipline holds across families.
        let mut rm_left = if mix.crashes { space.rm_crashes } else { 0 };
        let slots = space.replica_slots;
        let mut at = space.start + rand_duration(&mut rng, MIN_CRASH_GAP);
        while at <= space.end {
            // Encoded choice space: 0 = plain crash (sub-drawn below among
            // replica / RM / daemon / naming), 1 = correlated group,
            // 2 = rolling.
            let mut families = Vec::new();
            if mix.crashes {
                families.push(0u32);
                families.push(0); // plain crashes stay the common case
            }
            if mix.correlated && slots >= 3 {
                families.push(1);
            }
            if mix.rolling && slots >= 1 {
                families.push(2);
            }
            if families.is_empty() {
                break;
            }
            match families[rng.gen_range(0..families.len())] {
                0 => {
                    let mut choices: Vec<u32> = (0..slots.max(1)).collect();
                    if rm_left > 0 {
                        choices.push(slots);
                    }
                    if !space.daemon_nodes.is_empty() {
                        choices.push(slots + 1);
                    }
                    if space.naming {
                        choices.push(slots + 2);
                    }
                    let pick = choices[rng.gen_range(0..choices.len())];
                    let kind = if pick < slots {
                        FaultKind::CrashReplica { slot: pick }
                    } else if pick == slots {
                        rm_left -= 1;
                        FaultKind::CrashRecoveryManager
                    } else if pick == slots + 1 {
                        let node = space.daemon_nodes[rng.gen_range(0..space.daemon_nodes.len())];
                        FaultKind::CrashGcsDaemon {
                            node,
                            restart_after: rand_duration(&mut rng, MAX_RESTART),
                        }
                    } else {
                        FaultKind::CrashNaming {
                            restart_after: rand_duration(&mut rng, MAX_RESTART),
                        }
                    };
                    events.push(FaultEvent { at, kind });
                }
                1 => {
                    // Group of 2 ..= slots-1 distinct slots: draw by
                    // walking the slot list, guaranteeing the size.
                    let size = rng.gen_range(2..slots);
                    let mut pool: Vec<u32> = (0..slots).collect();
                    let mut group = Vec::new();
                    for _ in 0..size {
                        let i = rng.gen_range(0..pool.len());
                        group.push(pool.swap_remove(i));
                    }
                    group.sort_unstable();
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::CorrelatedCrash { slots: group },
                    });
                }
                _ => {
                    let gap = MIN_CRASH_GAP + rand_duration(&mut rng, MIN_CRASH_GAP);
                    events.push(FaultEvent {
                        at,
                        kind: FaultKind::RollingRestart { slots, gap },
                    });
                    // The walk resumes after the last slot's kill.
                    at += gap * u64::from(slots.saturating_sub(1));
                }
            }
            at = at + MIN_CRASH_GAP + rand_duration(&mut rng, MIN_CRASH_GAP);
        }

        // Recoverable network and load faults draw their instants
        // independently so they overlap the crash timeline.
        if mix.partitions && !space.partition_pairs.is_empty() {
            for _ in 0..rng.gen_range(0..=2u32) {
                let (a, b) = space.partition_pairs[rng.gen_range(0..space.partition_pairs.len())];
                events.push(FaultEvent {
                    at: space.start + rand_duration_u64(&mut rng, window),
                    kind: FaultKind::Partition {
                        a,
                        b,
                        heal_after: rand_duration(&mut rng, MAX_PARTITION),
                    },
                });
            }
        }
        if mix.asymmetric && !space.partition_pairs.is_empty() {
            for _ in 0..rng.gen_range(0..=2u32) {
                let (a, b) = space.partition_pairs[rng.gen_range(0..space.partition_pairs.len())];
                let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                events.push(FaultEvent {
                    at: space.start + rand_duration_u64(&mut rng, window),
                    kind: FaultKind::AsymmetricPartition {
                        from,
                        to,
                        heal_after: rand_duration(&mut rng, MAX_PARTITION),
                    },
                });
            }
        }
        if mix.jitter && !space.partition_pairs.is_empty() && rng.gen_bool(0.7) {
            let (a, b) = space.partition_pairs[rng.gen_range(0..space.partition_pairs.len())];
            events.push(FaultEvent {
                at: space.start + rand_duration_u64(&mut rng, window),
                kind: FaultKind::JitteryLink {
                    a,
                    b,
                    bound: rand_duration(&mut rng, MAX_JITTER_BOUND),
                    duration: rand_duration(&mut rng, MAX_JITTER_SPAN),
                },
            });
        }
        if mix.loss && rng.gen_bool(0.5) {
            events.push(FaultEvent {
                at: space.start + rand_duration_u64(&mut rng, window),
                kind: FaultKind::LossBurst {
                    probability: 0.1 + 0.4 * rng.gen::<f64>(),
                    duration: rand_duration(&mut rng, MAX_BURST),
                },
            });
        }
        if mix.flash_crowd && rng.gen_bool(0.7) {
            events.push(FaultEvent {
                at: space.start + rand_duration_u64(&mut rng, window),
                kind: FaultKind::FlashCrowd {
                    clients: rng.gen_range(8..=24),
                    reads: rng.gen_range(2..=5),
                    spread: rand_duration(&mut rng, MAX_CROWD_SPREAD),
                },
            });
        }
        let mut pressured: Vec<u32> = Vec::new();
        if mix.cpu && slots > 0 && rng.gen_bool(0.6) {
            let slot = rng.gen_range(0..slots);
            pressured.push(slot);
            events.push(FaultEvent {
                at: space.start + rand_duration_u64(&mut rng, window),
                kind: FaultKind::CpuExhaustion {
                    slot,
                    ramp_per_sec: 0.35 + 0.55 * rng.gen::<f64>(),
                },
            });
        }
        if mix.fd && slots > 0 && rng.gen_bool(0.6) {
            let slot = rng.gen_range(0..slots);
            if !pressured.contains(&slot) {
                events.push(FaultEvent {
                    at: space.start + rand_duration_u64(&mut rng, window),
                    kind: FaultKind::FdLeak {
                        slot,
                        per_request: 0.02 + 0.06 * rng.gen::<f64>(),
                    },
                });
            }
        }

        events.sort_by_key(|e| e.at);
        FaultPlan {
            seed,
            events,
            leak_all: mix.leak && rng.gen_bool(0.3),
        }
    }

    /// Validates the plan against `space`: every event inside the fault
    /// window, probabilities in `[0, 1]`, durations within their model
    /// bounds, slot and node indices that exist, daemon crashes only on
    /// `space.daemon_nodes`, the crash-gap discipline
    /// (including the kills a [`RollingRestart`] expands into), and at
    /// most one resource-pressure fault per slot.
    ///
    /// [`RollingRestart`]: FaultKind::RollingRestart
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found, in event order.
    pub fn validate(&self, space: &PlanSpace) -> Result<(), PlanError> {
        for (i, w) in self.events.windows(2).enumerate() {
            if w[0].at > w[1].at {
                return Err(PlanError::Unsorted { index: i + 1 });
            }
        }
        let slots = space.replica_slots;
        let known_node = |node: u32| {
            (node < space.nodes)
                .then_some(())
                .ok_or(PlanError::BadNode { node })
        };
        let mut crash_instants: Vec<SimTime> = Vec::new();
        let mut pressured: Vec<u32> = Vec::new();
        for e in &self.events {
            if e.at < space.start || e.at > space.end {
                return Err(PlanError::OutsideWindow {
                    at_ns: e.at.as_nanos(),
                });
            }
            crash_instants.extend(e.kind.crash_instants(e.at));
            let bad_duration = |d: SimDuration, lo_exclusive: bool, max: SimDuration| {
                (lo_exclusive && d.is_zero()) || d > max
            };
            match &e.kind {
                FaultKind::CrashReplica { slot } => {
                    if *slot >= slots {
                        return Err(PlanError::BadSlot { slot: *slot });
                    }
                }
                FaultKind::CrashRecoveryManager => {}
                FaultKind::CrashGcsDaemon { restart_after, .. }
                | FaultKind::CrashNaming { restart_after } => {
                    if let FaultKind::CrashGcsDaemon { node, .. } = e.kind {
                        known_node(node)?;
                        if !space.daemon_nodes.contains(&node) {
                            return Err(PlanError::BadDaemon { node });
                        }
                    }
                    if bad_duration(*restart_after, true, MAX_RESTART) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: restart_after.as_nanos(),
                        });
                    }
                }
                FaultKind::Partition { a, b, heal_after } => {
                    known_node(*a)?;
                    known_node(*b)?;
                    if a == b {
                        return Err(PlanError::BadLink { node: *a });
                    }
                    if bad_duration(*heal_after, true, MAX_PARTITION) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: heal_after.as_nanos(),
                        });
                    }
                }
                FaultKind::LossBurst {
                    probability,
                    duration,
                } => {
                    if !(0.0..=1.0).contains(probability) {
                        return Err(PlanError::ProbabilityOutOfRange {
                            probability: *probability,
                        });
                    }
                    if bad_duration(*duration, true, MAX_BURST) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: duration.as_nanos(),
                        });
                    }
                }
                FaultKind::CorrelatedCrash { slots: group } => {
                    let sorted_unique = group.windows(2).all(|w| w[0] < w[1]) && !group.is_empty();
                    if !sorted_unique || group.len() >= slots as usize {
                        return Err(PlanError::BadCrashGroup {
                            slots: group.clone(),
                        });
                    }
                    if let Some(&max_slot) = group.last() {
                        if max_slot >= slots {
                            return Err(PlanError::BadSlot { slot: max_slot });
                        }
                    }
                }
                FaultKind::FlashCrowd {
                    clients,
                    reads,
                    spread,
                } => {
                    if *clients == 0 || *clients > MAX_CROWD || *reads == 0 {
                        return Err(PlanError::BadRate {
                            fault: e.kind.name(),
                        });
                    }
                    if *spread > MAX_CROWD_SPREAD {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: spread.as_nanos(),
                        });
                    }
                }
                FaultKind::RollingRestart { slots: n, gap } => {
                    if *n == 0 || *n > slots {
                        return Err(PlanError::BadSlot { slot: *n });
                    }
                    if *gap < MIN_CRASH_GAP {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: gap.as_nanos(),
                        });
                    }
                }
                FaultKind::AsymmetricPartition {
                    from,
                    to,
                    heal_after,
                } => {
                    known_node(*from)?;
                    known_node(*to)?;
                    if from == to {
                        return Err(PlanError::BadLink { node: *from });
                    }
                    if bad_duration(*heal_after, true, MAX_PARTITION) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: heal_after.as_nanos(),
                        });
                    }
                }
                FaultKind::JitteryLink {
                    a,
                    b,
                    bound,
                    duration,
                } => {
                    known_node(*a)?;
                    known_node(*b)?;
                    if a == b {
                        return Err(PlanError::BadLink { node: *a });
                    }
                    if bad_duration(*bound, true, MAX_JITTER_BOUND) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: bound.as_nanos(),
                        });
                    }
                    if bad_duration(*duration, true, MAX_JITTER_SPAN) {
                        return Err(PlanError::BadDuration {
                            fault: e.kind.name(),
                            duration_ns: duration.as_nanos(),
                        });
                    }
                }
                FaultKind::CpuExhaustion { slot, ramp_per_sec } => {
                    if *slot >= slots {
                        return Err(PlanError::BadSlot { slot: *slot });
                    }
                    if !ramp_per_sec.is_finite() || *ramp_per_sec <= 0.0 {
                        return Err(PlanError::BadRate {
                            fault: e.kind.name(),
                        });
                    }
                    if pressured.contains(slot) {
                        return Err(PlanError::DuplicatePressure { slot: *slot });
                    }
                    pressured.push(*slot);
                }
                FaultKind::FdLeak { slot, per_request } => {
                    if *slot >= slots {
                        return Err(PlanError::BadSlot { slot: *slot });
                    }
                    if !per_request.is_finite() || *per_request <= 0.0 {
                        return Err(PlanError::BadRate {
                            fault: e.kind.name(),
                        });
                    }
                    if pressured.contains(slot) {
                        return Err(PlanError::DuplicatePressure { slot: *slot });
                    }
                    pressured.push(*slot);
                }
            }
        }
        crash_instants.sort();
        for w in crash_instants.windows(2) {
            if w[1] - w[0] < MIN_CRASH_GAP {
                return Err(PlanError::CrashGap {
                    first_ns: w[0].as_nanos(),
                    second_ns: w[1].as_nanos(),
                });
            }
        }
        Ok(())
    }

    /// The instant by which every fault has been injected *and* every
    /// restart / heal / burst-end it implies has fired.
    pub fn settled_by(&self) -> SimTime {
        let mut last = SimTime::ZERO;
        for e in &self.events {
            let done = match &e.kind {
                FaultKind::CrashGcsDaemon { restart_after, .. } => e.at + *restart_after,
                FaultKind::CrashNaming { restart_after } => e.at + *restart_after,
                FaultKind::Partition { heal_after, .. } => e.at + *heal_after,
                FaultKind::AsymmetricPartition { heal_after, .. } => e.at + *heal_after,
                FaultKind::LossBurst { duration, .. } => e.at + *duration,
                FaultKind::JitteryLink { duration, .. } => e.at + *duration,
                FaultKind::FlashCrowd { spread, .. } => e.at + *spread,
                FaultKind::RollingRestart { slots, gap } => {
                    e.at + *gap * u64::from(slots.saturating_sub(1))
                }
                FaultKind::CpuExhaustion { ramp_per_sec, .. } => {
                    // The ramp's implied exhaustion crash: usage reaches
                    // 1.0 after 1/ramp seconds (quantised to the pressure
                    // tick), and the relaunch it triggers follows that.
                    let secs = 1.0 / ramp_per_sec.max(f64::MIN_POSITIVE);
                    e.at
                        + SimDuration::from_nanos((secs * 1e9).min(1e15) as u64)
                        + SimDuration::from_millis(100)
                }
                FaultKind::CrashReplica { .. }
                | FaultKind::CrashRecoveryManager
                | FaultKind::CorrelatedCrash { .. }
                // An fd leak only grows while requests flow, so it can
                // only exhaust during the active phase, which the
                // executor's post-completion settling already covers.
                | FaultKind::FdLeak { .. } => e.at,
            };
            last = last.max(done);
        }
        last
    }
}

/// A uniform duration in `[1 ms, max]` (never zero — a zero restart
/// delay would race the crash it follows).
fn rand_duration(rng: &mut SimRng, max: SimDuration) -> SimDuration {
    let max_us = (max.as_nanos() / 1_000).max(1_000);
    SimDuration::from_micros(rng.gen_range(1_000..=max_us))
}

fn rand_duration_u64(rng: &mut SimRng, window: SimDuration) -> SimDuration {
    SimDuration::from_micros(rng.gen_range(0..=window.as_nanos() / 1_000))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> PlanSpace {
        PlanSpace {
            replica_slots: 3,
            nodes: 5,
            daemon_nodes: vec![1, 2, 3],
            naming: true,
            rm_crashes: 1,
            partition_pairs: vec![(0, 4), (1, 4), (2, 4)],
            start: SimTime::from_millis(700),
            end: SimTime::from_secs(5),
        }
    }

    fn classic(seed: u64) -> FaultPlan {
        FaultPlan::generate_with(seed, &space(), &FaultMix::classic())
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(classic(seed), classic(seed));
        }
    }

    #[test]
    fn events_are_sorted_and_in_window() {
        for seed in 0..200 {
            let plan = classic(seed);
            assert!(!plan.events.is_empty(), "seed {seed} drew no faults");
            for w in plan.events.windows(2) {
                assert!(w[0].at <= w[1].at);
            }
            for e in &plan.events {
                assert!(e.at >= space().start && e.at <= space().end);
            }
        }
    }

    #[test]
    fn crash_events_respect_min_gap() {
        for seed in 0..200 {
            let plan = classic(seed);
            let crashes: Vec<SimTime> = plan
                .events
                .iter()
                .filter(|e| e.kind.is_crash())
                .map(|e| e.at)
                .collect();
            for w in crashes.windows(2) {
                assert!(w[1] - w[0] >= MIN_CRASH_GAP, "seed {seed}");
            }
        }
    }

    #[test]
    fn recoverable_faults_are_bounded() {
        let mut rm = 0;
        for seed in 0..200 {
            let plan = classic(seed);
            for e in &plan.events {
                match &e.kind {
                    FaultKind::CrashGcsDaemon { restart_after, .. }
                    | FaultKind::CrashNaming { restart_after } => {
                        assert!(*restart_after <= MAX_RESTART);
                        assert!(*restart_after > SimDuration::ZERO);
                    }
                    FaultKind::Partition { heal_after, .. } => {
                        assert!(*heal_after <= MAX_PARTITION);
                    }
                    FaultKind::LossBurst {
                        probability,
                        duration,
                    } => {
                        assert!((0.1..=0.5).contains(probability));
                        assert!(*duration <= MAX_BURST);
                    }
                    FaultKind::CrashRecoveryManager => rm += 1,
                    FaultKind::CrashReplica { slot } => assert!(*slot < 3),
                    other => panic!("the classic mix drew a zoo fault: {other:?}"),
                }
            }
            assert!(plan.settled_by() >= plan.events.last().expect("nonempty").at);
        }
        assert!(rm > 0, "no seed ever drew an RM crash");
    }

    #[test]
    fn rm_crash_budget_is_respected() {
        for seed in 0..200 {
            let plan = classic(seed);
            let rms = plan
                .events
                .iter()
                .filter(|e| e.kind == FaultKind::CrashRecoveryManager)
                .count();
            assert!(rms <= 1, "seed {seed} drew {rms} RM crashes");
        }
    }

    #[test]
    fn generate_with_is_deterministic_on_the_full_zoo() {
        let mix = FaultMix::all();
        for seed in 0..50 {
            let a = FaultPlan::generate_with(seed, &space(), &mix);
            let b = FaultPlan::generate_with(seed, &space(), &mix);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn generate_with_honors_the_mix() {
        let net_only = FaultMix {
            asymmetric: true,
            jitter: true,
            partitions: true,
            ..FaultMix::none()
        };
        for seed in 0..100 {
            let plan = FaultPlan::generate_with(seed, &space(), &net_only);
            for e in &plan.events {
                assert!(
                    matches!(
                        e.kind,
                        FaultKind::Partition { .. }
                            | FaultKind::AsymmetricPartition { .. }
                            | FaultKind::JitteryLink { .. }
                    ),
                    "seed {seed} drew off-mix fault {:?}",
                    e.kind
                );
            }
        }
    }

    #[test]
    fn generated_zoo_plans_validate_clean() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..300 {
            let plan = FaultPlan::generate_with(seed, &space(), &FaultMix::all());
            plan.validate(&space())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for e in &plan.events {
                seen.insert(e.kind.name());
            }
        }
        for kind in [
            "correlated_crash",
            "flash_crowd",
            "rolling_restart",
            "asymmetric_partition",
            "jittery_link",
            "cpu_exhaustion",
            "fd_leak",
        ] {
            assert!(seen.contains(kind), "300 seeds never drew {kind}");
        }
    }

    #[test]
    fn validate_rejects_bad_probability() {
        for probability in [-0.1, 1.5, f64::NAN] {
            let plan = FaultPlan {
                seed: 0,
                leak_all: false,
                events: vec![FaultEvent {
                    at: SimTime::from_millis(800),
                    kind: FaultKind::LossBurst {
                        probability,
                        duration: SimDuration::from_millis(100),
                    },
                }],
            };
            assert!(matches!(
                plan.validate(&space()),
                Err(PlanError::ProbabilityOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn validate_rejects_out_of_window_and_unsorted() {
        let event = |ms: u64| FaultEvent {
            at: SimTime::from_millis(ms),
            kind: FaultKind::Partition {
                a: 0,
                b: 4,
                heal_after: SimDuration::from_millis(100),
            },
        };
        let early = FaultPlan {
            seed: 0,
            leak_all: false,
            events: vec![event(100)],
        };
        assert!(matches!(
            early.validate(&space()),
            Err(PlanError::OutsideWindow { .. })
        ));
        let unsorted = FaultPlan {
            seed: 0,
            leak_all: false,
            events: vec![event(900), event(800)],
        };
        assert!(matches!(
            unsorted.validate(&space()),
            Err(PlanError::Unsorted { index: 1 })
        ));
    }

    #[test]
    fn validate_rejects_crash_gap_violations_including_rolling_expansion() {
        let plan = FaultPlan {
            seed: 0,
            leak_all: false,
            events: vec![
                FaultEvent {
                    at: SimTime::from_millis(800),
                    kind: FaultKind::CrashReplica { slot: 0 },
                },
                FaultEvent {
                    at: SimTime::from_millis(900),
                    kind: FaultKind::CrashReplica { slot: 1 },
                },
            ],
        };
        assert!(matches!(
            plan.validate(&space()),
            Err(PlanError::CrashGap { .. })
        ));
        // A rolling restart expands into per-slot instants; a crash too
        // close to one of the *later* instants must also be rejected.
        let rolling = FaultPlan {
            seed: 0,
            leak_all: false,
            events: vec![
                FaultEvent {
                    at: SimTime::from_millis(800),
                    kind: FaultKind::RollingRestart {
                        slots: 3,
                        gap: MIN_CRASH_GAP,
                    },
                },
                FaultEvent {
                    at: SimTime::from_millis(800) + MIN_CRASH_GAP * 2 + SimDuration::from_millis(1),
                    kind: FaultKind::CrashReplica { slot: 0 },
                },
            ],
        };
        assert!(matches!(
            rolling.validate(&space()),
            Err(PlanError::CrashGap { .. })
        ));
    }

    #[test]
    fn validate_rejects_malformed_zoo_faults() {
        let at = SimTime::from_millis(800);
        let cases: Vec<(FaultKind, PlanError)> = vec![
            (
                FaultKind::CorrelatedCrash { slots: vec![2, 1] },
                PlanError::BadCrashGroup { slots: vec![2, 1] },
            ),
            (
                FaultKind::CorrelatedCrash { slots: vec![0, 7] },
                PlanError::BadSlot { slot: 7 },
            ),
            (
                FaultKind::FlashCrowd {
                    clients: MAX_CROWD + 1,
                    reads: 2,
                    spread: SimDuration::from_millis(100),
                },
                PlanError::BadRate {
                    fault: "flash_crowd",
                },
            ),
            (
                FaultKind::AsymmetricPartition {
                    from: 2,
                    to: 2,
                    heal_after: SimDuration::from_millis(100),
                },
                PlanError::BadLink { node: 2 },
            ),
            (
                FaultKind::JitteryLink {
                    a: 0,
                    b: 4,
                    bound: MAX_JITTER_BOUND + SimDuration::from_millis(1),
                    duration: SimDuration::from_millis(100),
                },
                PlanError::BadDuration {
                    fault: "jittery_link",
                    duration_ns: (MAX_JITTER_BOUND + SimDuration::from_millis(1)).as_nanos(),
                },
            ),
            (
                FaultKind::CpuExhaustion {
                    slot: 0,
                    ramp_per_sec: -1.0,
                },
                PlanError::BadRate {
                    fault: "cpu_exhaustion",
                },
            ),
            (
                FaultKind::FdLeak {
                    slot: 9,
                    per_request: 0.05,
                },
                PlanError::BadSlot { slot: 9 },
            ),
            (
                FaultKind::Partition {
                    a: 0,
                    b: 9,
                    heal_after: SimDuration::from_millis(100),
                },
                PlanError::BadNode { node: 9 },
            ),
            (
                FaultKind::AsymmetricPartition {
                    from: 5,
                    to: 1,
                    heal_after: SimDuration::from_millis(100),
                },
                PlanError::BadNode { node: 5 },
            ),
            (
                FaultKind::JitteryLink {
                    a: 1,
                    b: 7,
                    bound: SimDuration::from_millis(1),
                    duration: SimDuration::from_millis(100),
                },
                PlanError::BadNode { node: 7 },
            ),
            (
                FaultKind::CrashGcsDaemon {
                    node: 9,
                    restart_after: SimDuration::from_millis(100),
                },
                PlanError::BadNode { node: 9 },
            ),
            (
                FaultKind::CrashGcsDaemon {
                    node: 0,
                    restart_after: SimDuration::from_millis(100),
                },
                PlanError::BadDaemon { node: 0 },
            ),
        ];
        for (kind, want) in cases {
            let plan = FaultPlan {
                seed: 0,
                leak_all: false,
                events: vec![FaultEvent { at, kind }],
            };
            assert_eq!(plan.validate(&space()).expect_err("invalid"), want);
        }
        // At most one pressure fault per slot.
        let dup = FaultPlan {
            seed: 0,
            leak_all: false,
            events: vec![
                FaultEvent {
                    at,
                    kind: FaultKind::CpuExhaustion {
                        slot: 1,
                        ramp_per_sec: 0.5,
                    },
                },
                FaultEvent {
                    at: at + SimDuration::from_millis(50),
                    kind: FaultKind::FdLeak {
                        slot: 1,
                        per_request: 0.05,
                    },
                },
            ],
        };
        assert_eq!(
            dup.validate(&space()).expect_err("invalid"),
            PlanError::DuplicatePressure { slot: 1 }
        );
    }
}

//! The chaos plan executor: one seeded fault plan against the full MEAD
//! stack, with machine-verified recovery invariants. Campaigns are
//! scenario files run by [`crate::sweep`].
//!
//! Each [`run_chaos_plan`] builds the five-node counter topology
//! (`orb::CounterServant` with exactly-once `increment_once`,
//! commit-before-ack checkpointing, and the hardened `SlotClient` of
//! [`crate::counter`] doing the measured job), executes one
//! [`FaultPlan`] — process crashes, GCS-daemon crashes, Naming crashes,
//! link partitions, loss bursts, multi-replica leaks — and hands what it
//! harvested to `judge`, a function of the evidence and the config alone,
//! which checks the invariants below. The driver is two halves, divided
//! where the client starts: [`ChaosBoot::boot`] configures, assembles and
//! boots; [`ChaosBoot::finish_run`] spawns the client, unfolds the plan, runs,
//! settles, harvests and judges. A run is their composition; many runs
//! that differ only in their schedule boot once
//! ([`ChaosBoot::snapshot`]) and finish a copy each
//! ([`ChaosBoot::fork_and_finish`]).
//!
//! The invariants:
//!
//! 1. **No silent hang**: the client either completes all increments or
//!    records a typed give-up before the deadline.
//! 2. **Exactly-once increments**: the acknowledged values are exactly
//!    `1..=N` — no lost, duplicated or reordered increment survives
//!    fail-over — and no replica ever observed an operation-id gap.
//! 3. **Bounded recovery**: once the plan has settled, every replica
//!    slot has a live instance again (at most one migration in flight).
//! 4. **View convergence**: the final server-group membership view
//!    covers every slot.
//! 5. **Graceful degradation**: goodput never stays at zero longer than
//!    `GOODPUT_BUDGET` (3.5 s) while increments are outstanding.
//!
//! With `rm_instances >= 2` the Recovery Manager is replicated
//! warm-passively and every generated plan must pass; with the paper's
//! legacy single instance (`rm_instances = 1`, DESIGN §6.5) a plan that
//! kills the RM and then a replica reproduces the documented stall as an
//! invariant violation (`tests/rm_failover.rs`).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use faults::{FaultEvent, FaultKind, FaultPlan, PlanSpace, PressureConfig, PressureKind};
use groupcomm::{GcsClient, GcsDelivery};
use mead::{
    ClientInterceptor, MeadConfig, RecoveryScheme, ReplicaApp, ServerInterceptor, SERVER_GROUP,
};
use orb::{
    decode_counter_reply, decode_increment_once, encode_counter_reply, encode_increment_once,
    CounterServant, CounterState, Servant, SystemException, COUNTER_TYPE_ID,
};
use simnet::{
    DecisionTrace, Event, ExitReason, FifoScheduler, Fnv, ForkError, GateCfg, LossModel, Metrics,
    NodeId, NoiseModel, Process, ProcessId, ReplayScheduler, Scheduler, SimConfig, SimDuration,
    SimTime, Simulation, SysApi,
};

use crate::counter::{counter_key, Job, SlotClient, WATCHDOG};
use crate::testbed::{Harvest, Testbed, TestbedSpec};

/// One chaos scenario's parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Increments the client must get acknowledged exactly once.
    pub increments: u32,
    /// Recovery Manager instances (`1` = the paper's SPOF).
    pub rm_instances: u32,
    /// Replica slots (one server node each; the paper's topology is 3).
    /// Plans must come from a matching [`PlanSpace`]
    /// ([`chaos_plan_space_for`]).
    pub slots: u32,
    /// Recovery scheme deployed at the interceptors.
    pub scheme: RecoveryScheme,
    /// The client's in-flight invocation watchdog. The default (800 ms)
    /// is longer than any single honest delay a plan can impose; the
    /// schedule-space explorer shortens it towards the round-trip time
    /// so the reply-vs-watchdog race falls inside its reorder window.
    pub watchdog: SimDuration,
    /// Seeded protocol mutation ([`ServantMutation::Intact`] = the
    /// production protocol). Exists so the explorer can prove it catches
    /// and minimizes a real ordering bug.
    pub mutation: ServantMutation,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            increments: 300,
            rm_instances: 2,
            slots: 3,
            scheme: RecoveryScheme::MeadFailover,
            watchdog: WATCHDOG,
            mutation: ServantMutation::Intact,
        }
    }
}

/// An intentionally seeded protocol mutation, selectable per scenario.
/// Only the explorer's known-bug fixtures set anything but
/// [`Intact`](ServantMutation::Intact): the mutations exist to prove the
/// schedule search catches ordering bugs the FIFO schedule misses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServantMutation {
    /// The production protocol (deduplicating counter servant).
    #[default]
    Intact,
    /// Servant-side operation-id dedup removed: a retried increment
    /// whose first attempt actually committed applies twice. Invisible
    /// under the FIFO schedule (replies beat the watchdog); exposed when
    /// a scheduler fires the watchdog before the in-flight reply.
    DropDedup,
}

/// The [`ServantMutation::DropDedup`] bug: the intact servant with the
/// one arm it breaks overridden. Every well-formed `increment_once`
/// applies unconditionally; everything else — the other operations, a
/// malformed body, the checkpoint format — is the intact servant's, so
/// fail-over plumbing is unaffected and only the exactly-once invariant
/// can tell the difference.
struct DropDedup {
    intact: CounterServant,
}

impl Servant for DropDedup {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        match decode_increment_once(body) {
            // The bug: no `op_id <= last_op` check, so a retransmit of an
            // already-committed operation applies again.
            Ok((op_id, delta)) if operation == "increment_once" => Ok(encode_counter_reply(
                self.intact.state().apply(op_id, delta),
            )),
            _ => self.intact.invoke(sys, operation, body),
        }
    }

    fn type_id(&self) -> &str {
        self.intact.type_id()
    }

    fn fork(&self, state: Option<&Rc<CounterState>>) -> Option<Box<dyn Servant>> {
        let state = state
            .cloned()
            .unwrap_or_else(|| self.intact.state().duplicate());
        Some(Box::new(DropDedup {
            intact: CounterServant::new(state),
        }))
    }
}

/// The fault-plan space of the chaos topology — node 0 (infrastructure),
/// nodes `1..=slots` (one replica slot each; the paper has 3) and node
/// `slots + 1` (the client): crashable daemons on the server and client
/// nodes (node 0 hosts the sequencer, which the `f = 1` group stack
/// cannot lose), a crashable Naming Service, client-side link
/// partitions, and at most `rm_crashes` Recovery-Manager crashes.
pub fn chaos_plan_space_for(slots: u32, rm_crashes: u32) -> PlanSpace {
    let client = slots + 1;
    PlanSpace {
        replica_slots: slots,
        nodes: client + 1,
        daemon_nodes: (1..=client).collect(),
        naming: true,
        rm_crashes,
        partition_pairs: (0..=slots).map(|n| (n, client)).collect(),
        start: SimTime::from_millis(700),
        end: SimTime::from_millis(4_500),
    }
}

/// Results of one chaos plan run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// The plan's seed.
    pub seed: u64,
    /// All acknowledged counter values in acknowledgement order.
    pub values: Vec<u64>,
    /// Whether every increment was acknowledged.
    pub completed: bool,
    /// Whether the client exhausted its retry budget (typed give-up).
    pub gave_up: bool,
    /// Total reads acknowledged to flash-crowd clients (0 when the plan
    /// spawned no crowd).
    pub crowd_acked: u64,
    /// Longest observed zero-goodput stretch while the client had work
    /// left (the graceful-degradation measurement).
    pub worst_goodput_gap: SimDuration,
    /// Final server-group membership view seen by the observer.
    pub final_view: Vec<String>,
    /// Live `replica-s<slot>` process labels at the end of the run.
    pub live_replicas: Vec<String>,
    /// Invariant violations (empty = the plan passed).
    pub violations: Vec<String>,
    /// Kernel metrics.
    pub metrics: Metrics,
    /// Simulated end-of-run instant.
    pub finished_at: SimTime,
    /// Kernel events dispatched (deterministic).
    pub events_processed: u64,
    /// The observability trace of the run, in emission order.
    pub trace: Vec<obs::TraceEvent>,
}

impl ChaosOutcome {
    /// FNV-1a digest over every deterministic observable — what the
    /// sweep folds and compares across thread counts.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.seed);
        h.u64(self.values.len() as u64);
        for &v in &self.values {
            h.u64(v);
        }
        h.u64(self.completed as u64);
        h.u64(self.gave_up as u64);
        h.u64(self.crowd_acked);
        h.u64(self.worst_goodput_gap.as_nanos());
        for m in &self.final_view {
            h.bytes(m.as_bytes());
        }
        for l in &self.live_replicas {
            h.bytes(l.as_bytes());
        }
        for v in &self.violations {
            h.bytes(v.as_bytes());
        }
        for (name, value) in self.metrics.counters() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
        h.u64(self.finished_at.as_nanos());
        h.u64(self.events_processed);
        h.bytes(obs::jsonl::to_jsonl(&self.trace).as_bytes());
        h.finish()
    }
}

/// What the measured client shares with the executor: the evidence the
/// invariants are judged on.
#[derive(Default)]
struct ClientLog {
    values: RefCell<Vec<u64>>,
    ack_times: RefCell<Vec<SimTime>>,
    done: Cell<bool>,
    gave_up: Cell<bool>,
}

/// The measured client's think time between acknowledged increments.
const THINK_TIME: SimDuration = SimDuration::from_millis(10);

/// The measured chaos client's job: `increment_once` operations with
/// client-assigned operation ids (the acknowledged count plus one, so a
/// retry repeats the id), [`THINK_TIME`] between acknowledgements, and
/// every acknowledgement logged with its instant.
struct Measured {
    total: u32,
    log: Rc<ClientLog>,
}

impl Measured {
    fn acked(&self) -> u32 {
        self.log.ack_times.borrow().len() as u32
    }
}

impl Job for Measured {
    const TRACED: bool = true;

    fn next(&mut self) -> Option<(&'static str, Vec<u8>)> {
        let acked = self.acked();
        (acked < self.total).then(|| {
            let op_id = u64::from(acked) + 1;
            ("increment_once", encode_increment_once(op_id, 1))
        })
    }

    fn acknowledged(&mut self, sys: &mut dyn SysApi, payload: &[u8]) -> Option<SimDuration> {
        if let Ok(value) = decode_counter_reply(payload) {
            self.log.values.borrow_mut().push(value);
        }
        self.log.ack_times.borrow_mut().push(sys.now());
        (self.acked() < self.total).then_some(THINK_TIME)
    }

    fn complete(&mut self, _sys: &mut dyn SysApi) {
        self.log.done.set(true);
    }

    fn give_up(&mut self, _sys: &mut dyn SysApi) {
        self.log.gave_up.set(true);
        self.log.done.set(true);
    }
}

/// A flash-crowd arrival's job: `reads` back-to-back `get` operations (no
/// operation ids — the crowd must not perturb the main client's
/// dedup/op-gap bookkeeping), then a graceful exit.
struct Crowd {
    remaining: u32,
    acked: Rc<Cell<u64>>,
}

impl Job for Crowd {
    fn next(&mut self) -> Option<(&'static str, Vec<u8>)> {
        (self.remaining > 0).then(|| ("get", Vec::new()))
    }

    fn acknowledged(&mut self, _sys: &mut dyn SysApi, payload: &[u8]) -> Option<SimDuration> {
        if decode_counter_reply(payload).is_ok() {
            self.acked.set(self.acked.get() + 1);
        }
        self.remaining = self.remaining.saturating_sub(1);
        None
    }

    fn complete(&mut self, sys: &mut dyn SysApi) {
        sys.exit(ExitReason::Graceful);
    }

    fn give_up(&mut self, sys: &mut dyn SysApi) {
        // A crowd member giving up is shed load, not a recovery failure
        // or an invariant violation.
        sys.exit(ExitReason::Graceful);
    }
}

/// Passive member of the server group recording membership views, so the
/// convergence invariant can be checked from outside the stack: the
/// driver reads `view` off the process when the run is over.
#[derive(Clone)]
struct ChaosObserver {
    gcs: Option<GcsClient>,
    view: Vec<String>,
}

impl Process for ChaosObserver {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let mut gcs = GcsClient::new("obs/chaos", 1);
        gcs.start(sys);
        gcs.join(sys, SERVER_GROUP);
        self.gcs = Some(gcs);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        let Some(deliveries) = self.gcs.as_mut().and_then(|g| g.handle_event(sys, &ev)) else {
            return;
        };
        for d in deliveries {
            if let GcsDelivery::View { group, members, .. } = d {
                if group == SERVER_GROUP {
                    self.view = members;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "chaos-observer"
    }

    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }
}

/// A deferred executor action: an injection or the recovery it implies.
enum Action {
    Inject(FaultKind),
    RespawnDaemon(u32),
    RespawnNaming,
    Heal(u32, u32),
    HealOneway(u32, u32),
    ClearJitter(u32, u32),
    /// One unfolded rolling-restart kill (slots after the first).
    CrashSlot(u32),
    /// One flash-crowd arrival.
    SpawnCrowd {
        index: u32,
        reads: u32,
    },
    EndBurst,
}

/// Runs one fault plan against the chaos topology and checks the
/// invariants. Fully deterministic: a pure function of `(plan, cfg)`.
pub fn run_chaos_plan(plan: &FaultPlan, cfg: &ChaosConfig) -> ChaosOutcome {
    run_chaos_plan_with(plan, cfg, Box::new(FifoScheduler))
}

/// [`run_chaos_plan`] under an explicit event-ordering policy: boot, then
/// finish, on the one simulation. Deterministic for any deterministic
/// scheduler: a pure function of `(plan, cfg, scheduler)` — and so the
/// reference a run finished on a copy ([`ChaosBoot::fork_and_finish`])
/// is held to.
pub fn run_chaos_plan_with(
    plan: &FaultPlan,
    cfg: &ChaosConfig,
    scheduler: Box<dyn Scheduler>,
) -> ChaosOutcome {
    ChaosBoot::boot(plan, cfg, scheduler).finish_run()
}

/// When the infrastructure has booted and the replicas have registered:
/// the instant the measured client starts.
const BOOT_UNTIL: SimTime = SimTime::from_millis(650);

/// The first half of a chaos run: the world of `(plan, cfg)` configured,
/// assembled and booted up to the *split* — `BOOT_UNTIL`, or the last
/// instant before the scheduler's gate can open if that is earlier.
/// Until the split the kernel never consults the scheduler, so what has
/// happened is the same under every scheduler with that gate:
/// [`finish_run`](Self::finish_run) completes the one run, and
/// [`fork_and_finish`](Self::fork_and_finish) completes any number of
/// runs, each on its own copy and under its own scheduler.
pub struct ChaosBoot<'a> {
    plan: &'a FaultPlan,
    cfg: &'a ChaosConfig,
    testbed: Testbed,
    observer: ProcessId,
}

impl<'a> ChaosBoot<'a> {
    /// Configures, assembles and boots the world under `scheduler`.
    pub fn boot(
        plan: &'a FaultPlan,
        cfg: &'a ChaosConfig,
        scheduler: Box<dyn Scheduler>,
    ) -> ChaosBoot<'a> {
        let slots = cfg.slots.max(1);
        let mut mead_cfg = MeadConfig::builder(cfg.scheme).build();
        if !plan.leak_all() {
            mead_cfg.leak = None;
        }
        // Resource-pressure faults are armed declaratively: the replica
        // factory gives each pressured slot its config, and the
        // interceptor's activation timer (set only on instances started
        // before the activation instant) does the injection.
        let mut pressure_by_slot: BTreeMap<u32, PressureConfig> = BTreeMap::new();
        for FaultEvent { at, kind } in plan.events() {
            let (slot, kind) = match *kind {
                FaultKind::CpuExhaustion { slot, ramp_per_sec } => {
                    (slot, PressureKind::Cpu { ramp_per_sec })
                }
                FaultKind::FdLeak { slot, per_request } => (slot, PressureKind::Fd { per_request }),
                _ => continue,
            };
            pressure_by_slot.insert(
                slot,
                PressureConfig {
                    kind,
                    activate_at: *at,
                },
            );
        }
        // Strictly before the gate can open: a gate opening at instant 0
        // leaves nothing to share.
        let split = match scheduler.gate() {
            None => Some(BOOT_UNTIL),
            Some(gate) => gate
                .window_start
                .as_nanos()
                .checked_sub(1)
                .map(|ns| SimTime::from_nanos(ns).min(BOOT_UNTIL)),
        };
        let mutation = cfg.mutation;
        let mut testbed = Testbed::assemble(TestbedSpec {
            sim: SimConfig {
                seed: plan.seed(),
                noise: NoiseModel::none(),
                ..SimConfig::default()
            },
            scheduler,
            slots,
            client_nodes: 1,
            trace_level: mead_cfg.trace_level,
            factory: move |infra| {
                Rc::new(move |spec| {
                    let mut replica_cfg = mead_cfg.clone();
                    replica_cfg.pressure = pressure_by_slot.get(&spec.slot.0).cloned();
                    // One state, two handles: the servant's and the
                    // interceptor's, which checkpoints it.
                    let state = CounterState::new();
                    let intact = CounterServant::new(state.clone());
                    let servant: Box<dyn Servant> = match mutation {
                        ServantMutation::Intact => Box::new(intact),
                        ServantMutation::DropDedup => Box::new(DropDedup { intact }),
                    };
                    let app = ReplicaApp::time_server(spec.slot, spec.port, infra)
                        .with_servant(counter_key(), COUNTER_TYPE_ID, servant)
                        .with_rebind(SimDuration::from_millis(150));
                    Box::new(
                        ServerInterceptor::new(replica_cfg, spec.slot, Box::new(app))
                            .with_state(state),
                    )
                })
            },
            rm_instances: cfg.rm_instances,
            boot_until: BOOT_UNTIL,
        });
        let infra = testbed.infra();
        let observer = testbed.sim.spawn(
            infra,
            "chaos-observer",
            Box::new(ChaosObserver {
                gcs: None,
                view: Vec::new(),
            }),
        );
        if let Some(split) = split {
            testbed.sim.run_until(split);
        }
        ChaosBoot {
            plan,
            cfg,
            testbed,
            observer,
        }
    }

    /// [`boot`](Self::boot) for many runs under schedulers gated by
    /// `gate`: booted once under the default picks, then kept as a copy
    /// sized to what it holds (the simulation that did the booting, with
    /// its grown buffers, is dropped).
    ///
    /// # Errors
    ///
    /// [`ForkError::Unforkable`] when a process of the booted world
    /// cannot be copied — then no run could be forked from it either.
    pub fn snapshot(
        plan: &'a FaultPlan,
        cfg: &'a ChaosConfig,
        gate: GateCfg,
    ) -> Result<ChaosBoot<'a>, ForkError> {
        let default_picks = || Box::new(ReplayScheduler::from_trace(&DecisionTrace::empty(gate)));
        let booted = ChaosBoot::boot(plan, cfg, default_picks());
        let testbed = booted.testbed.fork(default_picks())?;
        Ok(ChaosBoot { testbed, ..booted })
    }

    /// Finishes a run on a copy of this boot, under `scheduler`; `self`
    /// is untouched, and the outcome is the one
    /// [`run_chaos_plan_with`]`(plan, cfg, scheduler)` computes from
    /// scratch.
    ///
    /// # Errors
    ///
    /// [`ForkError::GateMismatch`] when `scheduler`'s gate is not the one
    /// this world was booted under.
    pub fn fork_and_finish(
        &self,
        scheduler: Box<dyn Scheduler>,
    ) -> Result<ChaosOutcome, ForkError> {
        let copy = ChaosBoot {
            testbed: self.testbed.fork(scheduler)?,
            ..*self
        };
        Ok(copy.finish_run())
    }

    /// The second half of the run: finishes the boot, spawns the client,
    /// unfolds the plan into a timeline, runs, settles, harvests — and
    /// ends by handing the run's `Evidence` to `judge`.
    pub fn finish_run(self) -> ChaosOutcome {
        let ChaosBoot {
            plan,
            cfg,
            mut testbed,
            observer,
        } = self;
        let slots = cfg.slots.max(1);
        let infra = testbed.infra();
        let client_node = testbed.client_nodes()[0];

        // Boot, then start the client just before the fault window opens.
        testbed.boot();
        let client_start = testbed.sim.now();
        let log = Rc::new(ClientLog::default());
        let crowd_acked = Rc::new(Cell::new(0u64));
        let measured = Measured {
            total: cfg.increments,
            log: log.clone(),
        };
        testbed.sim.spawn(
            client_node,
            "chaos-client",
            Box::new(ClientInterceptor::new(
                cfg.scheme,
                Box::new(SlotClient::new(
                    "chaos-client",
                    measured,
                    infra,
                    slots,
                    0,
                    cfg.watchdog,
                )),
            )),
        );

        for (at, action) in timeline(plan) {
            testbed.sim.run_until(at);
            if let Action::Inject(kind) = &action {
                // Executor-side trace marker: every injection shows up in
                // the run's observability stream, attributable without
                // metrics.
                testbed
                    .sim
                    .emit(infra, obs::EventKind::FaultInjected { fault: kind.name() });
            }
            apply(&mut testbed, slots, action, &crowd_acked);
        }
        // Defensive settling: plans guarantee their own heals, but make
        // the post-plan world explicit before judging recovery.
        testbed.sim.heal_all();
        testbed.sim.set_loss(LossModel::none());

        let deadline =
            plan.settled_by().max(SimTime::from_millis(4_500)) + SimDuration::from_secs(5);
        testbed.run_until_done(|| log.done.get(), deadline);
        let active_end = testbed.sim.now();
        // Post-completion settling window: let the Recovery Manager finish
        // restoring the replication degree after the last fault.
        let settle_until = active_end.max(plan.settled_by()) + SimDuration::from_millis(1_500);
        testbed
            .sim
            .run_until(settle_until.min(deadline + SimDuration::from_secs(2)));

        let sim = &testbed.sim;
        let mut live_replicas: Vec<String> = sim
            .live_processes()
            .into_iter()
            .map(|pid| sim.process_label(pid).to_string())
            .filter(|l| l.starts_with("replica-s"))
            .collect();
        live_replicas.sort();
        let final_view = sim
            .process::<ChaosObserver>(observer)
            .map(|o| o.view.clone())
            .unwrap_or_default();
        let Harvest {
            metrics,
            trace,
            finished_at,
            events_processed,
            ..
        } = testbed.harvest();
        let evidence = Evidence {
            values: log.values.take(),
            ack_times: log.ack_times.take(),
            done: log.done.get(),
            gave_up: log.gave_up.get(),
            op_gaps: metrics.counter("counter.op_gap"),
            live_replicas,
            final_view,
            client_start,
            active_end,
        };
        let (violations, worst_goodput_gap) = judge(&evidence, cfg);

        ChaosOutcome {
            seed: plan.seed(),
            values: evidence.values,
            completed: evidence.done && !evidence.gave_up,
            gave_up: evidence.gave_up,
            crowd_acked: crowd_acked.get(),
            worst_goodput_gap,
            final_view: evidence.final_view,
            live_replicas: evidence.live_replicas,
            violations,
            metrics,
            finished_at,
            events_processed,
            trace,
        }
    }
}

/// Unfolds the plan into a single sorted timeline of injections and the
/// recoveries they imply.
fn timeline(plan: &FaultPlan) -> Vec<(SimTime, Action)> {
    let mut timeline: Vec<(SimTime, Action)> = Vec::new();
    for FaultEvent { at, kind } in plan.events() {
        match kind {
            FaultKind::CrashGcsDaemon {
                node,
                restart_after,
            } => timeline.push((*at + *restart_after, Action::RespawnDaemon(*node))),
            FaultKind::CrashNaming { restart_after } => {
                timeline.push((*at + *restart_after, Action::RespawnNaming));
            }
            FaultKind::Partition { a, b, heal_after } => {
                timeline.push((*at + *heal_after, Action::Heal(*a, *b)));
            }
            FaultKind::LossBurst { duration, .. } => {
                timeline.push((*at + *duration, Action::EndBurst));
            }
            FaultKind::AsymmetricPartition {
                from,
                to,
                heal_after,
            } => {
                timeline.push((*at + *heal_after, Action::HealOneway(*from, *to)));
            }
            FaultKind::JitteryLink { a, b, duration, .. } => {
                timeline.push((*at + *duration, Action::ClearJitter(*a, *b)));
            }
            FaultKind::RollingRestart { slots, gap } => {
                // The Inject action kills slot 0; later slots unfold here.
                for i in 1..*slots {
                    timeline.push((*at + *gap * i as u64, Action::CrashSlot(i)));
                }
            }
            FaultKind::FlashCrowd {
                clients,
                reads,
                spread,
            } => {
                for i in 0..*clients {
                    let offset = SimDuration::from_nanos(
                        spread.as_nanos().saturating_mul(i as u64) / (*clients).max(1) as u64,
                    );
                    timeline.push((
                        *at + offset,
                        Action::SpawnCrowd {
                            index: i,
                            reads: *reads,
                        },
                    ));
                }
            }
            _ => {}
        }
        timeline.push((*at, Action::Inject(kind.clone())));
    }
    timeline.sort_by_key(|(at, _)| *at);
    timeline
}

/// Everything the invariants are judged on, harvested from one finished
/// run: what the measured client got acknowledged and when, how it
/// ended, and what the world looked like after settling.
struct Evidence {
    /// Acknowledged counter values, in acknowledgement order.
    values: Vec<u64>,
    /// The instant of every acknowledgement.
    ack_times: Vec<SimTime>,
    /// Whether the client finished (completed or gave up) by the deadline.
    done: bool,
    /// Whether it finished by exhausting its retry budget.
    gave_up: bool,
    /// Operation-id gaps observed at replicas (`counter.op_gap`).
    op_gaps: u64,
    /// Sorted labels of the live replica processes after settling.
    live_replicas: Vec<String>,
    /// The observer's final server-group membership view.
    final_view: Vec<String>,
    /// When the client started.
    client_start: SimTime,
    /// When the client finished, or the deadline if it never did.
    active_end: SimTime,
}

/// Graceful-degradation budget: the longest the client's goodput may
/// stay at zero (no acknowledged increment) while it still has work to
/// do. Plan validation guarantees at least one replica slot stays
/// nominally live throughout (crash groups never cover every slot,
/// crashes are [`faults::MIN_CRASH_GAP`]-spaced), so a stall past this
/// budget means recovery — not the fault itself — was too slow.
const GOODPUT_BUDGET: SimDuration = SimDuration::from_millis(3_500);

/// The invariants: the violations `evidence` shows under `cfg` (empty =
/// the plan passed) and the worst zero-goodput stretch. Each arm is one
/// oracle; the `judge_names_each_violation_alone` table has a row per
/// message.
fn judge(evidence: &Evidence, cfg: &ChaosConfig) -> (Vec<String>, SimDuration) {
    let Evidence {
        values,
        ack_times,
        live_replicas,
        final_view,
        ..
    } = evidence;
    let (done, gave_up) = (evidence.done, evidence.gave_up);
    let slots = cfg.slots.max(1);
    let mut violations = Vec::new();
    if gave_up {
        violations.push("client exhausted its retry budget (typed give-up)".to_string());
    }
    if !done || (!gave_up && (values.len() as u32) < cfg.increments) {
        violations.push(format!(
            "client incomplete: {}/{} increments acknowledged by deadline",
            values.len(),
            cfg.increments
        ));
    }
    for (i, &v) in values.iter().enumerate() {
        if v != i as u64 + 1 {
            violations.push(format!(
                "increment {} acknowledged value {v} (lost or duplicated state)",
                i + 1
            ));
            break;
        }
    }
    if evidence.op_gaps > 0 {
        violations.push(format!(
            "{} operation-id gap(s) observed at replicas",
            evidence.op_gaps
        ));
    }
    for slot in 0..slots {
        let label = format!("replica-s{slot}");
        let n = live_replicas.iter().filter(|l| **l == label).count();
        if n == 0 {
            violations.push(format!("slot {slot} has no live replica after settling"));
        } else if n > 2 {
            violations.push(format!(
                "slot {slot} has {n} live replicas (runaway launch)"
            ));
        }
    }
    for slot in 0..slots {
        let prefix = format!("{}{slot}/", mead::REPLICA_PREFIX);
        if !final_view.iter().any(|m| m.starts_with(&prefix)) {
            violations.push(format!("final membership view missing slot {slot}"));
        }
    }
    // Graceful degradation: while the client still had increments to get
    // acknowledged, goodput may dip but never flatline longer than the
    // budget. Plan validation keeps at least one replica slot nominally
    // live at every instant (crash groups spare a survivor, crash-likes
    // are MIN_CRASH_GAP apart), so a longer stall indicts recovery, not
    // the fault load. The typed give-up is judged separately above.
    let mut worst_goodput_gap = SimDuration::ZERO;
    let mut worst_gap_end = evidence.client_start;
    let mut prev = evidence.client_start;
    let active = ack_times
        .iter()
        .copied()
        .chain((!done).then_some(evidence.active_end));
    for t in active {
        let gap = t.saturating_since(prev);
        if gap > worst_goodput_gap {
            worst_goodput_gap = gap;
            worst_gap_end = t;
        }
        prev = t;
    }
    if !gave_up && worst_goodput_gap > GOODPUT_BUDGET {
        violations.push(format!(
            "goodput stalled for {} ms (budget {} ms) ending at t={} ms",
            worst_goodput_gap.as_nanos() / 1_000_000,
            GOODPUT_BUDGET.as_nanos() / 1_000_000,
            worst_gap_end.as_nanos() / 1_000_000
        ));
    }
    (violations, worst_goodput_gap)
}

/// Applies one timeline action to the running simulation.
fn apply(testbed: &mut Testbed, slots: u32, action: Action, crowd_acked: &Rc<Cell<u64>>) {
    let Testbed { sim, nodes, .. } = testbed;
    match action {
        Action::Inject(FaultKind::CrashReplica { slot }) => {
            let label = format!("replica-s{slot}");
            kill_first_labeled(sim, &label, None);
        }
        Action::Inject(FaultKind::CorrelatedCrash { slots }) => {
            // One correlated failure group: every listed slot dies at the
            // same simulated instant.
            for slot in slots {
                kill_first_labeled(sim, &format!("replica-s{slot}"), None);
            }
        }
        Action::Inject(FaultKind::RollingRestart { .. }) => {
            kill_first_labeled(sim, "replica-s0", None);
        }
        Action::CrashSlot(slot) => {
            kill_first_labeled(sim, &format!("replica-s{slot}"), None);
        }
        Action::Inject(FaultKind::AsymmetricPartition { from, to, .. }) => {
            sim.partition_oneway(nodes[from as usize], nodes[to as usize]);
        }
        Action::HealOneway(from, to) => {
            sim.heal_oneway(nodes[from as usize], nodes[to as usize]);
        }
        Action::Inject(FaultKind::JitteryLink { a, b, bound, .. }) => {
            sim.set_link_jitter(nodes[a as usize], nodes[b as usize], bound);
        }
        Action::ClearJitter(a, b) => {
            sim.set_link_jitter(nodes[a as usize], nodes[b as usize], SimDuration::ZERO);
        }
        Action::Inject(FaultKind::FlashCrowd { .. }) => {
            // Arrivals are unfolded into `SpawnCrowd` entries; the inject
            // instant itself only carries the trace marker.
        }
        Action::Inject(FaultKind::CpuExhaustion { .. } | FaultKind::FdLeak { .. }) => {
            // Armed declaratively through the replica factory's pressure
            // config; the interceptor's activation timer fires at this
            // same instant.
        }
        Action::SpawnCrowd { index, reads } => {
            let client_node = *nodes.last().expect("topology has a client node");
            let infra = nodes[0];
            let label = format!("crowd-client-{index}");
            sim.spawn(
                client_node,
                &label,
                Box::new(SlotClient::new(
                    &label,
                    Crowd {
                        remaining: reads,
                        acked: crowd_acked.clone(),
                    },
                    infra,
                    slots,
                    index,
                    WATCHDOG,
                )),
            );
        }
        Action::Inject(FaultKind::CrashRecoveryManager) => {
            kill_first_labeled(sim, "recovery-manager", None);
        }
        Action::Inject(FaultKind::CrashGcsDaemon { node, .. }) => {
            // A daemon crash is a node-level membership event: the
            // sequencer evicts every member on the node, so replicas
            // there are stranded from the group and must die with the
            // daemon (their slots get relaunched by the RM). The RM
            // standbys survive: their client re-attaches after respawn.
            let node_id = nodes[node as usize];
            kill_first_labeled(sim, "gcs-daemon", Some(node_id));
            while kill_first_labeled(sim, "replica-s", Some(node_id)) {}
        }
        Action::Inject(FaultKind::CrashNaming { .. }) => {
            kill_first_labeled(sim, "naming", None);
        }
        Action::Inject(FaultKind::Partition { a, b, .. }) => {
            sim.partition(nodes[a as usize], nodes[b as usize]);
        }
        Action::Inject(FaultKind::LossBurst { probability, .. }) => {
            sim.set_loss(LossModel {
                probability,
                retransmit_delay: SimDuration::from_millis(20),
            });
        }
        Action::RespawnDaemon(node) => {
            let node = nodes[node as usize];
            testbed.spawn_daemon(node);
        }
        // The restarted instance comes back empty and relies on replica
        // re-binds.
        Action::RespawnNaming => testbed.spawn_naming(),
        Action::Heal(a, b) => sim.heal(nodes[a as usize], nodes[b as usize]),
        Action::EndBurst => sim.set_loss(LossModel::none()),
    }
}

/// Kills the lowest-numbered live process whose label starts with
/// `prefix` (optionally restricted to `node`). Returns whether a victim
/// was found.
fn kill_first_labeled(sim: &mut Simulation, prefix: &str, node: Option<NodeId>) -> bool {
    let victim = sim.live_processes().into_iter().find(|&pid| {
        sim.process_label(pid).starts_with(prefix)
            && node.is_none_or(|n| sim.process_node(pid) == Some(n))
    });
    match victim {
        Some(pid) => {
            sim.kill_process(pid, "chaos");
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faults::{FaultMix, FaultPlanBuilder};

    #[test]
    fn fault_free_plan_completes_cleanly() {
        let plan = FaultPlanBuilder::new(1)
            .event(FaultEvent {
                at: SimTime::from_millis(900),
                kind: FaultKind::LossBurst {
                    probability: 0.2,
                    duration: SimDuration::from_millis(100),
                },
            })
            .build(&chaos_plan_space_for(3, 0))
            .expect("valid plan");
        let cfg = ChaosConfig {
            increments: 60,
            ..ChaosConfig::default()
        };
        let out = run_chaos_plan(&plan, &cfg);
        assert!(
            out.violations.is_empty(),
            "violations: {:?}",
            out.violations
        );
        assert_eq!(out.values, (1..=60).collect::<Vec<u64>>());
    }

    /// A run that holds every invariant: three increments acknowledged in
    /// order, one live replica per slot, every slot in the final view.
    fn clean_evidence() -> Evidence {
        let ms = SimTime::from_millis;
        Evidence {
            values: vec![1, 2, 3],
            ack_times: vec![ms(700), ms(710), ms(720)],
            done: true,
            gave_up: false,
            op_gaps: 0,
            live_replicas: (0..3).map(|slot| format!("replica-s{slot}")).collect(),
            final_view: (0..3)
                .map(|slot| mead::replica_member_name(mead::Slot(slot), 40).to_string())
                .collect(),
            client_start: ms(650),
            active_end: ms(720),
        }
    }

    #[test]
    fn judge_names_each_violation_alone() {
        const MS: fn(u64) -> SimTime = SimTime::from_millis;
        // (what is wrong with the run, the violations it must produce, the
        // worst goodput gap in ms)
        type Row = (fn(&mut Evidence), &'static [&'static str], u64);
        let table: [Row; 9] = [
            (|_| {}, &[], 50),
            (
                |e| {
                    e.gave_up = true;
                    e.values.pop();
                    e.ack_times.pop();
                },
                &["client exhausted its retry budget (typed give-up)"],
                50,
            ),
            (
                |e| {
                    e.done = false;
                    e.values.pop();
                    e.ack_times.pop();
                    e.active_end = MS(2_710);
                },
                &["client incomplete: 2/3 increments acknowledged by deadline"],
                2_000,
            ),
            (
                |e| e.values[1] = 1,
                &["increment 2 acknowledged value 1 (lost or duplicated state)"],
                50,
            ),
            (
                |e| e.op_gaps = 1,
                &["1 operation-id gap(s) observed at replicas"],
                50,
            ),
            (
                |e| {
                    e.live_replicas.remove(1);
                },
                &["slot 1 has no live replica after settling"],
                50,
            ),
            (
                |e| {
                    e.live_replicas
                        .extend(["replica-s2".into(), "replica-s2".into()])
                },
                &["slot 2 has 3 live replicas (runaway launch)"],
                50,
            ),
            (
                |e| {
                    e.final_view.remove(0);
                },
                &["final membership view missing slot 0"],
                50,
            ),
            (
                |e| e.ack_times[1..].copy_from_slice(&[MS(4_300), MS(4_310)]),
                &["goodput stalled for 3600 ms (budget 3500 ms) ending at t=4300 ms"],
                3_600,
            ),
        ];
        let cfg = ChaosConfig {
            increments: 3,
            ..ChaosConfig::default()
        };
        for (spoil, expected, gap_ms) in table {
            let mut evidence = clean_evidence();
            spoil(&mut evidence);
            let (violations, worst_gap) = judge(&evidence, &cfg);
            assert_eq!(violations, expected);
            assert_eq!(worst_gap, SimDuration::from_millis(gap_ms), "{expected:?}");
        }
    }

    /// What the processes of a booted world hold that a run writes to:
    /// per replica the counter, the dedup id and the directory of the
    /// group, and the observer's view.
    fn mutable_state(boot: &ChaosBoot<'_>) -> Vec<String> {
        let sim = &boot.testbed.sim;
        let of = |pid| {
            if let Some(replica) = sim.process::<ServerInterceptor>(pid) {
                let state = replica.state().expect("replicas have state");
                return Some(format!(
                    "{pid}: value {} last_op {} directory {:?}",
                    state.value(),
                    state.last_op(),
                    replica.directory()
                ));
            }
            let observer = sim.process::<ChaosObserver>(pid)?;
            Some(format!("{pid}: view {:?}", observer.view))
        };
        sim.live_processes().into_iter().filter_map(of).collect()
    }

    fn default_picks(gate: GateCfg) -> Box<dyn Scheduler> {
        Box::new(ReplayScheduler::from_trace(&DecisionTrace::empty(gate)))
    }

    /// The aliasing trap: a replica's servant and its interceptor share
    /// one `Rc<CounterState>`, and a field-by-field clone of the
    /// replica would hand that same state to the copy. Drive increments
    /// through a copy and nothing in the world it was copied from may
    /// have moved.
    #[test]
    fn a_run_on_a_copy_moves_nothing_in_the_booted_world() {
        let plan = FaultPlanBuilder::new(7)
            .build(&chaos_plan_space_for(2, 0))
            .expect("empty plan is valid");
        let cfg = ChaosConfig {
            increments: 6,
            slots: 2,
            ..ChaosConfig::default()
        };
        let gate = GateCfg {
            window_start: BOOT_UNTIL,
            ..GateCfg::default()
        };
        let boot = ChaosBoot::snapshot(&plan, &cfg, gate).expect("forks");
        let before = mutable_state(&boot);
        // Two replicas that have found each other and counted nothing,
        // and an observer that has seen them.
        assert_eq!(before.len(), 3, "{before:#?}");
        for line in &before {
            assert!(
                line.contains("replica/0/") && line.contains("replica/1/"),
                "{line}"
            );
        }
        let untouched = |l: &&String| l.contains(": value 0 last_op 0 ");
        assert_eq!(before.iter().filter(untouched).count(), 2);

        for _ in 0..2 {
            let out = boot.fork_and_finish(default_picks(gate)).expect("forks");
            assert!(out.violations.is_empty(), "{:?}", out.violations);
            assert_eq!(out.values, (1..=6).collect::<Vec<u64>>());
            assert_eq!(mutable_state(&boot), before);
        }
    }

    /// Every kind of process a chaos world has spawned by the time its
    /// client starts can be copied — under every shape of world the
    /// sweep and the explorer build (1–3 slots, a single or a replicated
    /// Recovery Manager, the intact and the mutated servant, a leaking
    /// and a resource-pressured replica). A process added to the testbed
    /// without a `fork` fails here, not as an explorer that cannot run.
    #[test]
    fn every_process_of_a_booted_world_forks() {
        let pressured = |slots| {
            FaultPlanBuilder::new(3)
                .leak_all(true)
                .event(FaultEvent {
                    at: SimTime::from_millis(900),
                    kind: FaultKind::CpuExhaustion {
                        slot: 0,
                        ramp_per_sec: 0.5,
                    },
                })
                .build(&chaos_plan_space_for(slots, 0))
                .expect("valid plan")
        };
        let worlds = [
            (1, 1, ServantMutation::DropDedup),
            (2, 2, ServantMutation::Intact),
            (3, 2, ServantMutation::Intact),
        ];
        for (slots, rm_instances, mutation) in worlds {
            let plan = pressured(slots);
            let cfg = ChaosConfig {
                slots,
                rm_instances,
                mutation,
                ..ChaosConfig::default()
            };
            let boot = ChaosBoot::boot(&plan, &cfg, Box::new(FifoScheduler));
            let sim = &boot.testbed.sim;
            let mut kinds: Vec<&str> = sim
                .live_processes()
                .into_iter()
                .map(|pid| sim.process_label(pid))
                .map(|l| l.trim_end_matches(|c: char| c.is_ascii_digit()))
                .collect();
            kinds.dedup();
            let expected = [
                "gcs-daemon",
                "naming",
                "recovery-manager-",
                "chaos-observer",
                "replica-s",
            ];
            assert_eq!(kinds, expected, "{slots} slot(s)");
            let copy = boot.testbed.fork(Box::new(FifoScheduler));
            assert_eq!(copy.err(), None, "{slots} slot(s), {mutation:?}");
        }
    }

    #[test]
    fn chaos_plan_is_deterministic() {
        let space = chaos_plan_space_for(3, 1);
        let plan = FaultPlan::generate_with(7, &space, &FaultMix::classic());
        let cfg = ChaosConfig {
            increments: 40,
            ..ChaosConfig::default()
        };
        let a = run_chaos_plan(&plan, &cfg);
        let b = run_chaos_plan(&plan, &cfg);
        assert_eq!(a.digest(), b.digest());
    }
}

//! Canned exploration scenarios: the small configurations the `explore`
//! command (and CI's `explore-smoke`) enumerate, plus the seeded-bug
//! fixture that proves the search catches and minimizes a real ordering
//! bug.
//!
//! The fixtures gate decisions to a window opening no earlier than the
//! client's start (the chaos executor boots the infrastructure for
//! 650 ms first), so the search spends its budget on the
//! request/reply/fault phase instead of the deterministic boot — which
//! the kernel, owning the gate, runs at FIFO cost, and which a search,
//! every run of it being the same until the window opens, runs once and
//! copies per schedule (`engine::World`).

use experiments::{chaos_plan_space_for, ChaosConfig, ServantMutation};
use faults::{FaultEvent, FaultKind, FaultPlan, FaultPlanBuilder};
use simnet::{GateCfg, SimDuration, SimTime};

/// One ready-to-explore scenario.
#[derive(Clone, Debug)]
pub struct Fixture {
    /// Short label used in reports and CI output.
    pub name: &'static str,
    /// The fault schedule (validated at construction).
    pub plan: FaultPlan,
    /// The chaos scenario configuration.
    pub chaos: ChaosConfig,
    /// Decision gating for every run of this fixture.
    pub gate: GateCfg,
}

/// The decision window `pair` and `trio` use: from the client's start to
/// past the last fault, bounded per run (`relaunch` opens it later).
fn gate(max_steps: u64, slack_us: u64) -> GateCfg {
    GateCfg {
        window_start: SimTime::from_millis(650),
        window_end: SimTime::from_millis(2_500),
        max_steps,
        slack: SimDuration::from_micros(slack_us),
    }
}

/// Two replica slots, one client, a single mid-run loss burst: the
/// smallest interesting schedule space, sized for exhaustive
/// enumeration.
pub fn pair() -> Fixture {
    let plan = FaultPlanBuilder::new(11)
        .event(FaultEvent {
            at: SimTime::from_millis(800),
            kind: FaultKind::LossBurst {
                probability: 0.3,
                duration: SimDuration::from_millis(120),
            },
        })
        .build(&chaos_plan_space_for(2, 0))
        .expect("pair fixture plan fits its space");
    Fixture {
        name: "pair",
        plan,
        chaos: ChaosConfig {
            increments: 6,
            slots: 2,
            ..ChaosConfig::default()
        },
        gate: gate(10, 400),
    }
}

/// Two replica slots, one client, and slot 0's replica crashing: the
/// Recovery Manager relaunches it, and while the new replica is still
/// busy starting up, three frames reach it on one connection, parking
/// three `data_readable` notifies due at one instant (~836.8 ms). That
/// re-drain is what the conflict relation declares independent, so this
/// is the fixture on which it has something to prune; the window opens
/// just before it.
pub fn relaunch() -> Fixture {
    let plan = FaultPlanBuilder::new(11)
        .event(FaultEvent {
            at: SimTime::from_millis(800),
            kind: FaultKind::CrashReplica { slot: 0 },
        })
        .build(&chaos_plan_space_for(2, 0))
        .expect("relaunch fixture plan fits its space");
    Fixture {
        name: "relaunch",
        plan,
        chaos: ChaosConfig {
            increments: 6,
            slots: 2,
            ..ChaosConfig::default()
        },
        gate: GateCfg {
            window_start: SimTime::from_millis(835),
            ..gate(10, 400)
        },
    }
}

/// Three replica slots and a second (flash-crowd) client overlapping a
/// replica crash: wider interference surface, still small enough to
/// sweep within [`MAX_RUNS`](crate::MAX_RUNS).
pub fn trio() -> Fixture {
    let plan = FaultPlanBuilder::new(23)
        .event(FaultEvent {
            at: SimTime::from_millis(750),
            kind: FaultKind::FlashCrowd {
                clients: 2,
                reads: 3,
                spread: SimDuration::from_millis(40),
            },
        })
        .event(FaultEvent {
            at: SimTime::from_millis(900),
            kind: FaultKind::CrashReplica { slot: 1 },
        })
        .build(&chaos_plan_space_for(3, 0))
        .expect("trio fixture plan fits its space");
    Fixture {
        name: "trio",
        plan,
        chaos: ChaosConfig {
            increments: 8,
            slots: 3,
            ..ChaosConfig::default()
        },
        gate: gate(12, 400),
    }
}

/// The seeded protocol mutation ([`ServantMutation::DropDedup`]) under a
/// watchdog tightened towards the round-trip time: the FIFO schedule
/// passes (replies beat the watchdog), but an interleaving that fires
/// the client's watchdog ahead of the already-committed reply makes the
/// client retry an applied increment — and without servant dedup the
/// increment commits twice, breaking the exactly-once values sequence.
pub fn seeded_bug() -> Fixture {
    let plan = FaultPlanBuilder::new(7)
        .build(&chaos_plan_space_for(1, 0))
        .expect("empty plan is valid");
    Fixture {
        name: "seeded-bug",
        plan,
        chaos: ChaosConfig {
            increments: 5,
            // One replica slot: the watchdog's fail-over rotation wraps
            // back to the same replica, so a retried-but-committed
            // increment re-applies on the state that already absorbed
            // it (a second slot's fresh state would mask the bug).
            slots: 1,
            // Just above the first increment's FIFO round trip
            // (~7.6 ms: resolve + connect + commit-acked invoke), so the
            // in-flight reply and the watchdog timer land within one
            // reorder window instead of 800 ms apart.
            watchdog: SimDuration::from_micros(7_600),
            mutation: ServantMutation::DropDedup,
            ..ChaosConfig::default()
        },
        // The boot, registration and resolve phases (650–690 ms) are
        // pure noise for this bug; open the decision window once the
        // first increment is in flight against a live watchdog (its
        // reply and the watchdog fall together at ~695 ms) so the budget
        // covers the reply-vs-watchdog races instead of naming-service
        // chatter — and the minimized witness stays a handful of
        // decisions.
        gate: GateCfg {
            window_start: SimTime::from_millis(690),
            window_end: SimTime::from_millis(2_500),
            max_steps: 12,
            slack: SimDuration::from_micros(900),
        },
    }
}

//! Recovery-Manager crash coverage: the paper's single RM is a single
//! point of failure (the stall is pinned here; the campaign's `spof`
//! plan space cannot kill the only RM), while the warm-passive
//! replicated RM elects a new leader and finishes the run.

use experiments::{chaos_plan_space_for, run_chaos_plan, ChaosConfig};
use faults::{FaultEvent, FaultKind, FaultPlan, FaultPlanBuilder};
use simnet::{SimDuration, SimTime};

/// Kill the RM, then a replica: recovery of slot 0 now depends entirely
/// on whoever manages the group after the RM is gone.
fn rm_then_replica_crash() -> FaultPlan {
    FaultPlanBuilder::new(42)
        .event(FaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(900),
            kind: FaultKind::CrashRecoveryManager,
        })
        .event(FaultEvent {
            at: SimTime::ZERO + SimDuration::from_millis(1_600),
            kind: FaultKind::CrashReplica { slot: 0 },
        })
        .build(&chaos_plan_space_for(3, 1))
        .expect("schedule fits the chaos space")
}

#[test]
fn legacy_single_rm_stalls_after_rm_crash() {
    let cfg = ChaosConfig {
        rm_instances: 1,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos_plan(&rm_then_replica_crash(), &cfg);
    assert!(
        !outcome.violations.is_empty(),
        "legacy SPOF mode should stall once the lone RM is dead"
    );
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("slot 0 has no live replica")),
        "slot 0 should stay dead with no RM to relaunch it: {:?}",
        outcome.violations
    );
}

#[test]
fn replicated_rm_elects_new_leader_and_recovers() {
    let cfg = ChaosConfig {
        rm_instances: 2,
        ..ChaosConfig::default()
    };
    let outcome = run_chaos_plan(&rm_then_replica_crash(), &cfg);
    assert!(
        outcome.violations.is_empty(),
        "replicated RM should mask the crash: {:?}",
        outcome.violations
    );
    assert!(
        outcome.completed,
        "client workload should run to completion"
    );
    assert!(
        outcome.metrics.counter("rm.leader_elections") >= 1,
        "the backup RM instance should have taken over leadership"
    );
}

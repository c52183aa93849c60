//! Warm-passive state transfer (extension, DESIGN.md §8): a replica with
//! state commits each increment to its backups before it acknowledges
//! it, so the replicated counter survives proactive rejuvenations
//! exactly — nothing lost, nothing applied twice.

use mead_repro::experiments::{chaos_plan_space_for, run_chaos_plan, ChaosConfig, ChaosOutcome};
use mead_repro::faults::FaultPlanBuilder;

/// The default chaos client against three replica slots, with or without
/// the memory leak on every replica and no other fault.
fn run(seed: u64, leak: bool) -> (ChaosOutcome, ChaosConfig) {
    let cfg = ChaosConfig::default();
    let plan = FaultPlanBuilder::new(seed)
        .leak_all(leak)
        .build(&chaos_plan_space_for(cfg.slots, 0))
        .expect("a plan without events is valid");
    (run_chaos_plan(&plan, &cfg), cfg)
}

#[test]
fn counter_state_survives_rejuvenations_exactly_once() {
    let (out, cfg) = run(5, true);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(
        out.values,
        (1..=u64::from(cfg.increments)).collect::<Vec<_>>()
    );
    let rejuvenations = out.metrics.counter("mead.graceful_rejuvenations");
    assert!(
        rejuvenations >= 3,
        "the leak must force several rejuvenations, got {rejuvenations}"
    );
    assert!(
        out.metrics.counter("mead.state_restored") > 0,
        "backups must apply checkpoints"
    );
}

#[test]
fn fault_free_counter_loses_nothing() {
    let (out, cfg) = run(5, false);
    assert!(out.violations.is_empty(), "{:?}", out.violations);
    assert_eq!(
        out.values,
        (1..=u64::from(cfg.increments)).collect::<Vec<_>>()
    );
    assert_eq!(out.metrics.counter("mead.graceful_rejuvenations"), 0);
}

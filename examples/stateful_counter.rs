//! Warm-passive replication with *real* state: a replicated counter whose
//! value is checkpointed to the backups over group communication, so a
//! proactively migrated client continues against exactly the same state.
//!
//! The paper's test application (time-of-day) is stateless; this example
//! exercises the state-transfer half of warm-passive replication that the
//! paper's infrastructure provides but its evaluation never stresses.
//! Every replica leaks memory and is rejuvenated again and again. A
//! replica with state commits before it acknowledges: each reply waits
//! until the checkpoint covering it has reached the backups, so no
//! hand-off loses or repeats an acknowledged increment.
//!
//! Run with `cargo run --release --example stateful_counter`.

use mead_repro::experiments::{chaos_plan_space_for, run_chaos_plan, ChaosConfig};
use mead_repro::faults::FaultPlanBuilder;

fn main() {
    let cfg = ChaosConfig::default();
    // The leak on every replica is the plan's only fault.
    let plan = FaultPlanBuilder::new(5)
        .leak_all(true)
        .build(&chaos_plan_space_for(cfg.slots, 0))
        .expect("a leak-only plan is valid");
    let outcome = run_chaos_plan(&plan, &cfg);

    let acked = outcome.values.len();
    let rejuvenations = outcome.metrics.counter("mead.graceful_rejuvenations");
    let restores = outcome.metrics.counter("mead.state_restored");
    println!("increments acknowledged : {acked}");
    println!(
        "final counter value     : {}",
        outcome.values.last().unwrap_or(&0)
    );
    println!("rejuvenations           : {rejuvenations}");
    println!("checkpoint restores     : {restores}");
    println!(
        "\ncommit-before-ack: every acknowledged increment was durable at the \
         backups first, so the acknowledged values are exactly 1..={acked}."
    );
    assert!(
        outcome.violations.is_empty(),
        "invariant violations: {:?}",
        outcome.violations
    );
    assert_eq!(
        outcome.values,
        (1..=u64::from(cfg.increments)).collect::<Vec<_>>(),
        "every increment acknowledged exactly once, in order"
    );
}

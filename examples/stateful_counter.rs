//! Warm-passive replication with *real* state: a replicated counter whose
//! value is checkpointed to the backups over group communication, so a
//! proactively migrated client continues against (almost) the same state.
//!
//! The paper's test application (time-of-day) is stateless; this example
//! exercises the state-transfer half of warm-passive replication that the
//! paper's infrastructure provides but its evaluation never stresses.
//! It also demonstrates warm-passive's fundamental trade-off: increments
//! applied after the last checkpoint are lost at fail-over — bounded by
//! the checkpoint interval.
//!
//! Run with `cargo run --release --example stateful_counter`.

use mead_repro::experiments::{run_counter_scenario, CounterConfig};

fn main() {
    let increments: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3000);
    // Checkpoint every 50 ms (the default): with a rejuvenation every
    // ~400 ms, each hand-off then loses at most ~50 ms of increments.
    let outcome = run_counter_scenario(&CounterConfig {
        increments,
        ..CounterConfig::default()
    });

    let final_value = outcome.final_value();
    let sent = outcome.values.len() as u64;
    let rejuvenations = outcome.metrics.counter("mead.graceful_rejuvenations");
    let restores = outcome.metrics.counter("mead.state_restored");
    // A value not increasing between consecutive replies is a fail-over
    // onto a slightly stale backup.
    let regressions = outcome.regressions();

    println!("increments acknowledged : {sent}");
    println!("final counter value     : {final_value}");
    println!(
        "state carried over      : {:.1}%",
        final_value as f64 * 100.0 / sent as f64
    );
    println!("rejuvenations           : {rejuvenations}");
    println!("checkpoint restores     : {restores}");
    println!("visible state regressions at fail-over: {regressions}");
    println!(
        "\nwarm-passive semantics: increments since the last checkpoint are \
         lost at each hand-off (bounded by the 50 ms checkpoint interval), \
         so the final value trails the {sent} acknowledged increments."
    );
    assert!(
        final_value > sent * 2 / 3,
        "state must substantially survive fail-overs: {final_value}/{sent}"
    );
    assert!(
        final_value <= sent,
        "the counter can never exceed the increments sent"
    );
}

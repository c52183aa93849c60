//! When should proactive recovery fire? The paper's section 5.2.4 answer:
//! not too early (wasted migrations, group-communication chatter), not too
//! late (no time left to hand clients off). This example sweeps the
//! rejuvenation threshold for the MEAD scheme and prints the trade-off.
//!
//! Run with `cargo run --release --example threshold_tuning`.

use mead_repro::experiments::{run_scenario, ScenarioConfig, Summary};
use mead_repro::groupcomm::MESH_TAG;
use mead_repro::mead::RecoveryScheme;
use mead_repro::simnet::SimTime;

fn main() {
    println!("MEAD-message scheme, 3,000 invocations per threshold:\n");
    println!(
        "{:>9} | {:>8} | {:>14} | {:>13} | {:>9}",
        "threshold", "restarts", "gcs bandwidth", "client fails", "p99 (ms)"
    );
    for pct in [20u32, 40, 60, 80, 95] {
        let out = run_scenario(&ScenarioConfig {
            invocations: 3000,
            threshold: Some(pct as f64 / 100.0),
            ..ScenarioConfig::paper(RecoveryScheme::MeadFailover)
        });
        let bw = out
            .metrics
            .bandwidth(MESH_TAG, SimTime::from_millis(1000), out.finished_at);
        let rtts = out.report().rtts_ms();
        let p99 = Summary::of(&rtts).map(|s| s.p99).unwrap_or(f64::NAN);
        println!(
            "{:>8}% | {:>8} | {:>10.0} B/s | {:>13} | {:>9.2}",
            pct,
            out.server_failures(),
            bw,
            out.report().client_failures(),
            p99,
        );
    }
    println!(
        "\nlow thresholds restart servers constantly and burn group-communication \
         bandwidth; very high thresholds risk crashing before clients are moved. \
         The sweet spot is 'just enough time to redirect clients' (section 5.2.4)."
    );
}

//! Proactive fail-over in action: a full MEAD deployment — three
//! warm-passively replicated servers under a memory-leak fault, the
//! Recovery Manager, group communication, and a client whose connections
//! are transparently migrated away from failing replicas.
//!
//! The client application never sees a single exception, even though the
//! primary replica is rejuvenated every few hundred invocations.
//!
//! Run with `cargo run --release --example proactive_failover`.

use mead_repro::experiments::{failover_episodes_ms, run_scenario, ScenarioConfig, Summary};
use mead_repro::mead::RecoveryScheme;
use mead_repro::obs::{self, Phase};

fn main() {
    let cfg = ScenarioConfig {
        invocations: 3000,
        ..ScenarioConfig::paper(RecoveryScheme::MeadFailover)
    };
    println!("running 3,000 invocations against leaky replicas (MEAD fail-over messages)...");
    let out = run_scenario(&cfg);

    let rtts = out.report().rtts_ms();
    let s = Summary::of(&rtts).expect("invocations ran");
    let episodes = failover_episodes_ms(&out, RecoveryScheme::MeadFailover);
    let mean_failover = episodes.iter().sum::<f64>() / episodes.len().max(1) as f64;

    println!("\ninvocations completed : {}", rtts.len());
    println!("median RTT            : {:.3} ms", s.p50);
    println!("max RTT               : {:.3} ms", s.max);
    println!("server-side failures  : {}", out.server_failures());
    println!(
        "  of which graceful rejuvenations: {}",
        out.metrics.counter("mead.graceful_rejuvenations")
    );
    println!(
        "  of which hard crashes          : {}",
        out.metrics.counter("mead.crash_exhaustion")
    );
    println!(
        "client-visible failures: {} COMM_FAILURE, {} TRANSIENT",
        out.report().comm_failures,
        out.report().transients
    );
    println!(
        "connection redirects   : {} (dup2-style, invisible to the ORB)",
        obs::count_phase(&out.trace, Phase::ClientRedirect)
    );
    println!(
        "fail-over episodes     : {} (mean {:.2} ms)",
        episodes.len(),
        mean_failover
    );
    println!(
        "replicas launched      : {} (initial 3 + proactive replacements)",
        obs::count_phase(&out.trace, Phase::ReplicaLaunch)
    );

    assert_eq!(
        out.report().client_failures(),
        0,
        "proactive migration must mask every failure from the application"
    );
    println!("\nno exception ever reached the client application.");
}

//! Message-loss faults (the last class in the paper's fault model,
//! section 3): lost segments manifest as retransmission delays on the
//! reliable streams. The recovery schemes must keep working — slower, but
//! without spurious failures.

use mead_repro::experiments::{run_scenario, steady_state_rtt_ms, ScenarioConfig, Summary};
use mead_repro::mead::RecoveryScheme;

#[test]
fn mead_scheme_tolerates_one_percent_loss() {
    let out = run_scenario(&ScenarioConfig {
        message_loss: 0.01,
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1000)
    });
    assert!(out.report().completed, "loss must not wedge the workload");
    assert_eq!(
        out.report().client_failures(),
        0,
        "retransmission delays are not failures"
    );
    // The retransmit delays show up as a heavier tail, not a shifted median.
    let rtts = out.report().rtts_ms();
    let s = Summary::of(&rtts).expect("samples");
    assert!(s.p99 > s.p50 * 2.0, "loss should fatten the tail: {s:?}");
}

#[test]
fn loss_raises_tail_latency_not_steady_state() {
    let clean = run_scenario(&ScenarioConfig {
        fault_free: true,
        ..ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 800)
    });
    let lossy = run_scenario(&ScenarioConfig {
        fault_free: true,
        message_loss: 0.02,
        ..ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 800)
    });
    assert!(lossy.report().completed);
    let clean_median = steady_state_rtt_ms(&clean);
    let lossy_median = steady_state_rtt_ms(&lossy);
    assert!(
        (lossy_median - clean_median).abs() / clean_median < 0.10,
        "median barely moves: {clean_median} vs {lossy_median}"
    );
    let lossy_rtts = lossy.report().rtts_ms();
    let s = Summary::of(&lossy_rtts).expect("samples");
    assert!(
        s.max >= 20.0,
        "some invocation must have eaten a retransmission delay, max {}",
        s.max
    );
}

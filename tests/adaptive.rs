//! Adaptive thresholds (the paper's future work): the rate-estimating
//! predictor must handle fault speeds the preset thresholds cannot.

use mead_repro::experiments::{run_adaptive_comparison, run_scenario, ScenarioConfig};
use mead_repro::mead::{MeadConfig, RecoveryScheme, Trigger};

fn fast_leak_preset(cfg: &mut MeadConfig) {
    if let Some(leak) = cfg.leak.as_mut() {
        leak.chunk_unit_bytes = 19 * 6;
    }
}

fn fast_leak_adaptive(cfg: &mut MeadConfig) {
    fast_leak_preset(cfg);
    cfg.trigger = Trigger::Adaptive;
}

#[test]
fn preset_thresholds_fail_on_fast_leaks_adaptive_does_not() {
    let preset = run_scenario(&ScenarioConfig {
        tweak: Some(fast_leak_preset),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1500)
    });
    let adaptive = run_scenario(&ScenarioConfig {
        tweak: Some(fast_leak_adaptive),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1500)
    });
    // At 6x leak speed the 90% preset trigger leaves only ~12ms before
    // exhaustion — not enough to hand clients off.
    assert!(
        preset.metrics.counter("mead.crash_exhaustion") > 5,
        "preset must crash often on a fast leak, got {}",
        preset.metrics.counter("mead.crash_exhaustion")
    );
    assert!(preset.report().client_failures() > 0);
    // The adaptive trigger fires early enough in fraction terms.
    assert!(
        adaptive.metrics.counter("mead.crash_exhaustion") <= 1,
        "adaptive must avoid exhaustion, got {}",
        adaptive.metrics.counter("mead.crash_exhaustion")
    );
    assert_eq!(adaptive.report().client_failures(), 0);
}

#[test]
fn adaptive_matches_preset_on_the_calibrated_leak() {
    // Two worker threads: exercises the parallel runner path while
    // asserting the same calibrated results as a sequential run.
    let cells = run_adaptive_comparison(800, 9, 2);
    let at = |speed: f64, strategy: &str| {
        cells
            .iter()
            .map(|(row, _)| row)
            .find(|r| r.speed == speed && r.strategy == strategy)
            .expect("row exists")
            .clone()
    };
    // At the paper's leak rate both strategies behave equivalently.
    let preset = at(1.0, "preset");
    let adaptive = at(1.0, "adaptive");
    assert!(preset.completed && adaptive.completed);
    assert_eq!(preset.client_failures, 0);
    assert_eq!(adaptive.client_failures, 0);
    // And on the slow leak, adaptive does not restart more often than
    // preset (it waits longer in fraction terms).
    let slow_preset = at(0.5, "preset");
    let slow_adaptive = at(0.5, "adaptive");
    assert!(slow_adaptive.restarts <= slow_preset.restarts + 1);
}

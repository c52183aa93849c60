//! Determinism regression: the parallel runner must be a pure
//! reordering of work, never of results. For a fixed batch of scenario
//! configurations, the outcomes — compared via [`ScenarioOutcome::digest`],
//! which folds in every per-invocation record, metric counter, byte-record
//! series and simulated timestamp — must be bit-identical whether the
//! batch runs sequentially or on 1, 2 or 4 workers.

use experiments::{run_batch, run_scenario, ScenarioConfig, ScenarioOutcome};
use mead::RecoveryScheme;

/// A mixed batch covering every scheme plus threshold/fault variants, at
/// a size small enough to run repeatedly.
fn batch() -> Vec<ScenarioConfig> {
    let mut configs: Vec<ScenarioConfig> = RecoveryScheme::ALL
        .into_iter()
        .map(|scheme| ScenarioConfig::quick(scheme, 300))
        .collect();
    configs.push(ScenarioConfig {
        threshold: Some(0.2),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 300)
    });
    configs.push(ScenarioConfig {
        fault_free: true,
        ..ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 300)
    });
    configs.push(ScenarioConfig {
        seed: 7,
        os_noise: true,
        ..ScenarioConfig::quick(RecoveryScheme::LocationForward, 300)
    });
    configs
}

#[test]
fn runner_is_bit_identical_at_every_thread_count() {
    let configs = batch();
    let sequential: Vec<u64> = configs.iter().map(|c| run_scenario(c).digest()).collect();
    for threads in [1, 2, 4] {
        let parallel: Vec<u64> = run_batch(&configs, threads)
            .iter()
            .map(ScenarioOutcome::digest)
            .collect();
        assert_eq!(
            sequential, parallel,
            "outcome digests diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn digest_is_sensitive_to_the_seed() {
    let base = run_scenario(&ScenarioConfig::quick(RecoveryScheme::MeadFailover, 200));
    let other = run_scenario(&ScenarioConfig {
        seed: 43,
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 200)
    });
    assert_ne!(
        base.digest(),
        other.digest(),
        "different seeds must produce different outcomes"
    );
    // And rerunning the same config reproduces the digest exactly.
    let again = run_scenario(&ScenarioConfig::quick(RecoveryScheme::MeadFailover, 200));
    assert_eq!(base.digest(), again.digest());
}

#[test]
fn wall_clock_accounting_is_populated_but_excluded_from_digests() {
    let out = run_scenario(&ScenarioConfig::quick(RecoveryScheme::MeadFailover, 200));
    assert!(out.events_processed > 0, "a run dispatches events");
    assert!(out.wall.as_nanos() > 0, "dispatching takes wall time");
    assert!(out.events_per_sec() > 0.0);
}

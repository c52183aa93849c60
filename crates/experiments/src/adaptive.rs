//! Adaptive-threshold evaluation — the paper's future work, implemented
//! and measured.
//!
//! Preset thresholds (80 %/90 %) assume the operator knows how fast the
//! resource will be consumed. The sweep here varies the leak speed and
//! compares the preset against [`faults::AdaptivePredictor`], which
//! estimates the consumption rate online and fires when the *predicted
//! time to exhaustion* crosses its safety margins.
//!
//! Expected shape: on fast leaks the preset's 90 % trigger leaves too
//! little time to hand clients off (crashes and client-visible failures
//! appear), while the adaptive trigger fires earlier in fraction terms and
//! keeps masking; on slow leaks the adaptive trigger fires *later* than
//! 90 %, wringing more useful life out of each replica (fewer restarts).

use mead::{MeadConfig, RecoveryScheme, Trigger};

use crate::runner::run_batch;
use crate::scenario::{ScenarioConfig, ScenarioOutcome};

/// One row of the adaptive-vs-preset comparison.
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Leak speed multiplier (1.0 = the calibrated paper rate).
    pub speed: f64,
    /// `"preset"` or `"adaptive"`.
    pub strategy: &'static str,
    /// Server restarts over the run (rejuvenations + crashes).
    pub restarts: u64,
    /// Crashes that beat the migration (exhaustion).
    pub crashes: u64,
    /// Exceptions that reached the client.
    pub client_failures: u32,
    /// Invocations completed.
    pub completed: bool,
}

fn set_speed(cfg: &mut MeadConfig, mult: f64) {
    if let Some(leak) = cfg.leak.as_mut() {
        leak.chunk_unit_bytes = ((19.0 * mult).round() as u64).max(1);
    }
}

fn set_adaptive(cfg: &mut MeadConfig, mult: f64) {
    set_speed(cfg, mult);
    cfg.trigger = Trigger::Adaptive;
}

/// A configuration tweak applied to the scenario's [`MeadConfig`].
type Tweak = fn(&mut MeadConfig);

/// The (speed, preset tweak, adaptive tweak) sweep points.
const SWEEP: [(f64, Tweak, Tweak); 4] = [
    (0.5, |c| set_speed(c, 0.5), |c| set_adaptive(c, 0.5)),
    (1.0, |c| set_speed(c, 1.0), |c| set_adaptive(c, 1.0)),
    (3.0, |c| set_speed(c, 3.0), |c| set_adaptive(c, 3.0)),
    (6.0, |c| set_speed(c, 6.0), |c| set_adaptive(c, 6.0)),
];

fn row(speed: f64, strategy: &'static str, outcome: &ScenarioOutcome) -> AdaptiveRow {
    AdaptiveRow {
        speed,
        strategy,
        restarts: outcome.server_failures(),
        crashes: outcome.metrics.counter("mead.crash_exhaustion"),
        client_failures: outcome.report().client_failures(),
        completed: outcome.report().completed,
    }
}

/// Runs the full comparison (MEAD-message scheme throughout) on up to
/// `threads` worker threads. Returns each row alongside its source
/// outcome (for trace dumps and digests).
pub fn run_adaptive_comparison(
    invocations: u32,
    seed: u64,
    threads: usize,
) -> Vec<(AdaptiveRow, ScenarioOutcome)> {
    let mut cells: Vec<(f64, &'static str, Tweak)> = Vec::new();
    for (speed, preset, adaptive) in SWEEP {
        cells.push((speed, "preset", preset));
        cells.push((speed, "adaptive", adaptive));
    }
    let configs: Vec<ScenarioConfig> = cells
        .iter()
        .map(|&(_, _, tweak)| ScenarioConfig {
            seed,
            tweak: Some(tweak),
            ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, invocations)
        })
        .collect();
    cells
        .into_iter()
        .zip(run_batch(&configs, threads))
        .map(|((speed, strategy, _), out)| (row(speed, strategy, &out), out))
        .collect()
}

/// Formats the comparison as an aligned table.
pub fn format_adaptive(rows: &[AdaptiveRow]) -> String {
    let mut out =
        String::from("Leak speed | Strategy  | Restarts | Crashes | Client failures | Completed\n");
    out.push_str("-----------+-----------+----------+---------+-----------------+----------\n");
    for r in rows {
        out.push_str(&format!(
            "{:>9.1}x | {:<9} | {:>8} | {:>7} | {:>15} | {}\n",
            r.speed, r.strategy, r.restarts, r.crashes, r.client_failures, r.completed,
        ));
    }
    out
}

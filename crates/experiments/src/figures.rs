//! Drivers for the paper's figures.
//!
//! * **Figure 3** — RTT traces of the two reactive schemes over 10 000
//!   invocations: ~10 ms spikes at every server failure plus the initial
//!   naming-resolution spike.
//! * **Figure 4** — RTT traces of the three proactive schemes (threshold
//!   80 %): LOCATION_FORWARD spikes ≈8.8 ms, NEEDS_ADDRESSING ≈9.4 ms,
//!   MEAD messages ≈2.7 ms ("reduced jitter").
//! * **Figure 5** — inter-server group-communication bandwidth versus the
//!   rejuvenation threshold (20–80 %) for the GIOP LOCATION_FORWARD and
//!   MEAD-message schemes: lower thresholds restart servers more often and
//!   spend more bandwidth reaching group consensus.

use groupcomm::MESH_TAG;
use mead::RecoveryScheme;
use simnet::SimTime;

use crate::runner::run_batch;
use crate::scenario::{ScenarioConfig, ScenarioOutcome};

/// One labelled trace for Figures 3/4.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Strategy the trace belongs to.
    pub scheme: RecoveryScheme,
    /// Full scenario outcome (records carry the RTT series).
    pub outcome: ScenarioOutcome,
}

/// Runs one paper scenario per scheme (optionally at a fixed migrate
/// threshold) on up to `threads` worker threads.
fn run_traces(
    schemes: &[RecoveryScheme],
    threshold: Option<f64>,
    invocations: u32,
    seed: u64,
    threads: usize,
) -> Vec<Trace> {
    let configs: Vec<ScenarioConfig> = schemes
        .iter()
        .map(|&scheme| ScenarioConfig {
            seed,
            invocations,
            threshold,
            ..ScenarioConfig::paper(scheme)
        })
        .collect();
    schemes
        .iter()
        .zip(run_batch(&configs, threads))
        .map(|(&scheme, outcome)| Trace { scheme, outcome })
        .collect()
}

/// Runs the Figure 3 traces (both reactive schemes).
pub fn run_fig3(invocations: u32, seed: u64, threads: usize) -> Vec<Trace> {
    let schemes = [
        RecoveryScheme::ReactiveNoCache,
        RecoveryScheme::ReactiveCache,
    ];
    run_traces(&schemes, None, invocations, seed, threads)
}

/// Runs the Figure 4 traces (the three proactive schemes at the 80 %
/// threshold, as in the figure's captions).
pub fn run_fig4(invocations: u32, seed: u64, threads: usize) -> Vec<Trace> {
    let schemes = [
        RecoveryScheme::NeedsAddressing,
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ];
    run_traces(&schemes, Some(0.8), invocations, seed, threads)
}

/// One point of Figure 5.
#[derive(Clone, Debug)]
pub struct Fig5Point {
    /// Strategy.
    pub scheme: RecoveryScheme,
    /// Rejuvenation (migrate) threshold, in percent.
    pub threshold_pct: u32,
    /// Mean inter-server GCS bandwidth over the steady window, bytes/s.
    pub bandwidth_bytes_per_sec: f64,
    /// Server restarts observed (rejuvenations + crashes).
    pub restarts: u64,
    /// Largest RTT spike observed by the client, ms (section 5.2.5).
    pub max_spike_ms: f64,
}

/// Runs the Figure 5 sweep — thresholds 20–80 % for the two GIOP/MEAD
/// proactive schemes — on up to `threads` worker threads. Returns each
/// point alongside its source outcome (for trace dumps and digests).
pub fn run_fig5(
    invocations: u32,
    seed: u64,
    thresholds_pct: &[u32],
    threads: usize,
) -> Vec<(Fig5Point, ScenarioOutcome)> {
    let cells: Vec<(RecoveryScheme, u32)> = [
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ]
    .into_iter()
    .flat_map(|scheme| thresholds_pct.iter().map(move |&pct| (scheme, pct)))
    .collect();
    let configs: Vec<ScenarioConfig> = cells
        .iter()
        .map(|&(scheme, pct)| ScenarioConfig {
            seed,
            invocations,
            threshold: Some(pct as f64 / 100.0),
            ..ScenarioConfig::paper(scheme)
        })
        .collect();
    cells
        .into_iter()
        .zip(run_batch(&configs, threads))
        .map(|((scheme, pct), outcome)| (fig5_point(scheme, pct, &outcome), outcome))
        .collect()
}

/// Extracts one Figure 5 point from an outcome.
pub fn fig5_point(
    scheme: RecoveryScheme,
    threshold_pct: u32,
    outcome: &ScenarioOutcome,
) -> Fig5Point {
    // Steady measurement window: skip the boot second, stop at the end of
    // the run.
    let from = SimTime::from_millis(1000);
    let to = outcome.finished_at;
    let bandwidth = outcome.metrics.bandwidth(MESH_TAG, from, to);
    let max_spike = crate::stats::max_f64(
        outcome
            .report()
            .records
            .iter()
            .skip(1) // initial naming spike is reported separately by the paper
            .map(crate::workload::InvocationRecord::rtt_ms),
    );
    Fig5Point {
        scheme,
        threshold_pct,
        bandwidth_bytes_per_sec: bandwidth,
        restarts: outcome.server_failures(),
        max_spike_ms: max_spike,
    }
}

/// Formats Figure 5 points as an aligned table.
pub fn format_fig5(points: &[Fig5Point]) -> String {
    let mut out = String::from(
        "Scheme                   | Threshold | Bandwidth (B/s) | Restarts | Max spike (ms)\n",
    );
    out.push_str(
        "-------------------------+-----------+-----------------+----------+---------------\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:<24} | {:>8}% | {:>15.0} | {:>8} | {:>13.2}\n",
            p.scheme.name(),
            p.threshold_pct,
            p.bandwidth_bytes_per_sec,
            p.restarts,
            p.max_spike_ms,
        ));
    }
    out
}

/// Figure 5 points as CSV (`scheme,threshold_pct,bytes_per_sec`).
pub fn fig5_csv(points: &[Fig5Point]) -> String {
    let mut out = String::from("scheme,threshold_pct,bytes_per_sec,restarts,max_spike_ms\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{:.1},{},{:.3}\n",
            p.scheme.name().replace(' ', "_"),
            p.threshold_pct,
            p.bandwidth_bytes_per_sec,
            p.restarts,
            p.max_spike_ms,
        ));
    }
    out
}

//! Figure 5 — inter-server group-communication bandwidth versus the
//! rejuvenation threshold (20–80 %) for the GIOP LOCATION_FORWARD and
//! MEAD-message schemes: lower thresholds restart servers more often and
//! spend more bandwidth reaching group consensus. One [`Fig5Point`] per
//! `fig5/*` cell of [`paper_workload`](crate::scenario::paper_workload),
//! rendered as a table and as `results/fig5.csv`. (The RTT traces of
//! Figures 3 and 4 render with [`trace_csv`](crate::report::trace_csv)
//! and [`trace_ascii`](crate::report::trace_ascii).)

use groupcomm::MESH_TAG;
use mead::RecoveryScheme;
use simnet::SimTime;

use crate::scenario::ScenarioOutcome;

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
            .map(|r| r.rtt_ms()),
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

//! Jitter analysis (section 5.2.5).
//!
//! The paper reports: spikes exceeding the mean by 3σ in 1–2.5 % of
//! invocations for all schemes; a fault-free maximum spike of 2.3 ms; one
//! ~30 ms spike (0.01 % of runs) in the GIOP proactive schemes below the
//! 80 % threshold (a client reaching a newly restarted server that is
//! still updating its group membership); and a 6.9 ms maximum for MEAD
//! messages at the 20 % threshold.

use crate::scenario::ScenarioOutcome;
use crate::stats::Summary;

/// Jitter statistics for one run.
#[derive(Clone, Debug)]
pub struct JitterStats {
    /// Label for the row (scheme + condition).
    pub label: String,
    /// Mean RTT, ms.
    pub mean_ms: f64,
    /// Standard deviation, ms.
    pub std_ms: f64,
    /// Fraction of invocations above mean + 3σ.
    pub outlier_fraction: f64,
    /// Largest spike, ms (excluding the initial naming spike).
    pub max_spike_ms: f64,
}

/// Computes jitter stats from an outcome.
pub fn jitter_stats(label: impl Into<String>, outcome: &ScenarioOutcome) -> JitterStats {
    let rtts: Vec<f64> = outcome
        .report()
        .records
        .iter()
        .skip(1) // the initial resolution spike is reported separately
        .map(crate::workload::InvocationRecord::rtt_ms)
        .collect();
    let summary = Summary::of(&rtts).unwrap_or(Summary {
        n: 0,
        mean: f64::NAN,
        std_dev: f64::NAN,
        min: f64::NAN,
        max: f64::NAN,
        p50: f64::NAN,
        p99: f64::NAN,
    });
    let (_, fraction) = summary.three_sigma_outliers(&rtts);
    JitterStats {
        label: label.into(),
        mean_ms: summary.mean,
        std_ms: summary.std_dev,
        outlier_fraction: fraction,
        max_spike_ms: summary.max,
    }
}

/// Formats jitter rows as an aligned table.
pub fn format_jitter(rows: &[JitterStats]) -> String {
    let mut out = String::from(
        "Condition                     | mean (ms) | std (ms) | >3-sigma | max spike (ms)\n",
    );
    out.push_str(
        "------------------------------+-----------+----------+----------+---------------\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<29} | {:>9.3} | {:>8.3} | {:>7.2}% | {:>13.2}\n",
            r.label,
            r.mean_ms,
            r.std_ms,
            r.outlier_fraction * 100.0,
            r.max_spike_ms,
        ));
    }
    out
}

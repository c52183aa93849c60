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

/// The jitter table: for each `(label, outcome)` row, the mean and
/// standard deviation of its round trips, the share of invocations above
/// mean + 3σ and the largest spike, the initial naming spike excluded.
pub fn format_jitter(rows: &[(String, &ScenarioOutcome)]) -> String {
    let mut out = String::from(
        "Condition                     | mean (ms) | std (ms) | >3-sigma | max spike (ms)\n\
         ------------------------------+-----------+----------+----------+---------------\n",
    );
    for (label, outcome) in rows {
        let records = outcome.report().records.iter();
        // The initial resolution spike is reported separately.
        let rtts: Vec<f64> = records.skip(1).map(|r| r.rtt_ms()).collect();
        let (mean, std, outliers, max) = Summary::of(&rtts)
            .map_or((f64::NAN, f64::NAN, 0.0, f64::NAN), |s| {
                (s.mean, s.std_dev, s.three_sigma_outliers(&rtts).1, s.max)
            });
        out += &format!(
            "{label:<29} | {mean:>9.3} | {std:>8.3} | {:>7.2}% | {max:>13.2}\n",
            outliers * 100.0
        );
    }
    out
}

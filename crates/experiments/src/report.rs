//! Turning raw scenario outcomes into the paper's tables and figures.
//!
//! The extraction rules mirror section 5.2:
//!
//! * **Overhead** ("increase in RTT") is steady-state: the median RTT of
//!   undisrupted invocations, relative to the reactive-without-cache
//!   baseline.
//! * **Client failures** are exceptions that reached the application, as a
//!   percentage of server-side failures (crashes + rejuvenations).
//! * **Fail-over time** is the elevated round-trip of each failure
//!   episode. Episodes are found from the client's own exception/redirect
//!   bookkeeping, plus — for the schemes whose recovery is invisible to
//!   the application — the client interceptor's recovery phases in the
//!   run's trace.

use std::collections::BTreeSet;

use mead::RecoveryScheme;
use obs::jsonl::push_json_str;
use obs::{EventKind, Phase};
use simnet::{SimDuration, SimTime};

use crate::scenario::ScenarioOutcome;
use crate::stats::Summary;
use crate::workload::InvocationRecord;

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Strategy.
    pub scheme: RecoveryScheme,
    /// Steady-state RTT increase over the baseline scheme, in percent.
    pub rtt_increase_pct: f64,
    /// Client-visible failures per server-side failure, in percent.
    pub client_failures_pct: f64,
    /// Mean fail-over time across episodes, in milliseconds.
    pub failover_ms: f64,
    /// Fail-over change vs. the baseline scheme, in percent (negative =
    /// faster).
    pub failover_change_pct: f64,
    /// Number of fail-over episodes measured.
    pub episodes: usize,
    /// Number of server-side failures.
    pub server_failures: u64,
    /// Steady-state median RTT, in milliseconds.
    pub steady_rtt_ms: f64,
}

/// Median RTT over undisrupted invocations (steady state). Skips the
/// initial naming-resolution spike by dropping the first record.
pub fn steady_state_rtt_ms(outcome: &ScenarioOutcome) -> f64 {
    let rtts: Vec<f64> = outcome
        .report()
        .records
        .iter()
        .skip(1)
        .filter(|r| !r.disrupted())
        .map(InvocationRecord::rtt_ms)
        .collect();
    Summary::of(&rtts).map(|s| s.p50).unwrap_or(f64::NAN)
}

/// Extracts per-episode fail-over times (elevated episode RTTs), in ms.
pub fn failover_episodes_ms(outcome: &ScenarioOutcome, scheme: RecoveryScheme) -> Vec<f64> {
    let records = &outcome.report().records;
    let mut indices: BTreeSet<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.disrupted())
        .map(|(i, _)| i)
        .collect();
    // Disruptions invisible to the application: the client
    // interceptor's redirect (MEAD) or suppressed EOF (NEEDS_ADDRESSING).
    let invisible = match scheme {
        RecoveryScheme::MeadFailover => Some(EventKind::Phase(Phase::ClientRedirect)),
        RecoveryScheme::NeedsAddressing => Some(EventKind::Phase(Phase::FaultDetected)),
        _ => None,
    };
    let window_before = SimDuration::from_millis(1);
    let window_after = SimDuration::from_millis(5);
    let instants = outcome
        .trace
        .iter()
        .filter(|e| invisible.as_ref() == Some(&e.kind))
        .map(|e| SimTime::from_nanos(e.at_ns));
    for at in instants {
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in records.iter().enumerate() {
            // Does [start, end] intersect [at - before, at + after]?
            let before_ok = r.end + window_before >= at;
            let after_ok = r.start <= at + window_after;
            if before_ok && after_ok {
                let rtt = r.rtt_ms();
                if best.map(|(_, b)| rtt > b).unwrap_or(true) {
                    best = Some((i, rtt));
                }
            }
            if r.start > at + window_after {
                break;
            }
        }
        if let Some((i, _)) = best {
            indices.insert(i);
        }
    }
    // Merge adjacent records into one episode, keeping the episode max.
    let mut episodes = Vec::new();
    let mut prev: Option<usize> = None;
    for &i in &indices {
        let rtt = records[i].rtt_ms();
        match prev {
            Some(p) if i == p + 1 => {
                let last: &mut f64 = episodes.last_mut().expect("episode open");
                *last = last.max(rtt);
            }
            _ => episodes.push(rtt),
        }
        prev = Some(i);
    }
    episodes
}

/// Builds a Table 1 row for `outcome`, relative to the baseline scheme's
/// steady RTT and fail-over time.
pub fn table1_row(
    outcome: &ScenarioOutcome,
    scheme: RecoveryScheme,
    baseline_steady_ms: f64,
    baseline_failover_ms: f64,
) -> Table1Row {
    let steady = steady_state_rtt_ms(outcome);
    let episodes = failover_episodes_ms(outcome, scheme);
    let failover = if episodes.is_empty() {
        f64::NAN
    } else {
        crate::stats::mean_f64(&episodes)
    };
    Table1Row {
        scheme,
        rtt_increase_pct: (steady - baseline_steady_ms) / baseline_steady_ms * 100.0,
        client_failures_pct: outcome.client_failure_pct(),
        failover_ms: failover,
        failover_change_pct: (failover - baseline_failover_ms) / baseline_failover_ms * 100.0,
        episodes: episodes.len(),
        server_failures: outcome.server_failures(),
        steady_rtt_ms: steady,
    }
}

/// Formats rows as the paper's Table 1.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "Recovery Strategy        | RTT incr | Client Fail | Failover (ms) | change  | episodes | srv fails\n",
    );
    out.push_str(
        "-------------------------+----------+-------------+---------------+---------+----------+----------\n",
    );
    for row in rows {
        out.push_str(&format!(
            "{:<24} | {:>7.1}% | {:>10.0}% | {:>13.3} | {:>+6.1}% | {:>8} | {:>8}\n",
            row.scheme.name(),
            row.rtt_increase_pct,
            row.client_failures_pct,
            row.failover_ms,
            row.failover_change_pct,
            row.episodes,
            row.server_failures,
        ));
    }
    out
}

/// Writes an RTT trace as CSV (`run,rtt_ms`) for the Figure 3/4 plots.
pub fn trace_csv(outcome: &ScenarioOutcome) -> String {
    let mut out = String::from("run,rtt_ms,disrupted\n");
    for r in &outcome.report().records {
        out.push_str(&format!(
            "{},{:.6},{}\n",
            r.index,
            r.rtt_ms(),
            u8::from(r.disrupted())
        ));
    }
    out
}

/// A coarse ASCII rendering of an RTT trace (for terminal inspection of
/// the Figure 3/4 shapes): one row per bucket of invocations, bar length
/// proportional to the bucket's max RTT.
pub fn trace_ascii(outcome: &ScenarioOutcome, buckets: usize, full_scale_ms: f64) -> String {
    let records = &outcome.report().records;
    if records.is_empty() || buckets == 0 {
        return String::new();
    }
    let per = records.len().div_ceil(buckets);
    let mut out = String::new();
    for (b, chunk) in records.chunks(per).enumerate() {
        let max = crate::stats::max_f64(chunk.iter().map(|r| r.rtt_ms()));
        let width = ((max / full_scale_ms) * 60.0).round().min(60.0) as usize;
        out.push_str(&format!(
            "{:>6} |{}{} {:.2}ms\n",
            b * per,
            "█".repeat(width),
            " ".repeat(60 - width),
            max
        ));
    }
    out
}

/// Schema tag stamped into every [`ViolationReport`] document; bump the
/// suffix when the shape of the JSON changes.
pub const VIOLATION_REPORT_SCHEMA: &str = "violation-report/1";

/// One run's invariant violations, labelled for machine consumption.
///
/// `cell` names where the run came from — a sweep matrix cell or an
/// explorer interleaving — and `seed` identifies
/// the plan, so a violated run can be reproduced from the report alone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationRecord {
    /// The matrix cell / interleaving the run belongs to.
    pub cell: String,
    /// The plan's seed.
    pub seed: u64,
    /// The violated invariants, verbatim from the chaos executor.
    pub violations: Vec<String>,
}

/// The versioned machine-readable violation report the chaos-family
/// commands (`sweep`, `explore`) emit behind `--violations`: one
/// JSON object carrying the schema tag, the scenario label, the violated
/// run count and one [`ViolationRecord`] per violated run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViolationReport {
    /// Scenario label (`"chaos"`, the sweep's name, `"explore"`, ...).
    pub scenario: String,
    /// One record per violated run, in run order.
    pub records: Vec<ViolationRecord>,
}

impl ViolationReport {
    /// Assembles a report for `scenario` from per-run records.
    pub fn new(scenario: impl Into<String>, records: Vec<ViolationRecord>) -> Self {
        ViolationReport {
            scenario: scenario.into(),
            records,
        }
    }

    /// Renders the report as its single-object JSON document (trailing
    /// newline included), the exact bytes written to `--violations`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":");
        push_json_str(&mut out, VIOLATION_REPORT_SCHEMA);
        out.push_str(",\"scenario\":");
        push_json_str(&mut out, &self.scenario);
        out.push_str(&format!(
            ",\"violated_plans\":{},\"violations\":[",
            self.records.len()
        ));
        for (i, v) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"cell\":");
            push_json_str(&mut out, &v.cell);
            out.push_str(&format!(",\"seed\":{},\"violations\":[", v.seed));
            for (j, msg) in v.violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, msg);
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod violation_tests {
    use super::*;

    #[test]
    fn violation_report_json_is_well_formed() {
        let report = ViolationReport::new(
            "smoke",
            vec![ViolationRecord {
                cell: "paper/mead_failover/classic".to_string(),
                seed: 7,
                violations: vec!["client \"gave\tup\"".to_string()],
            }],
        );
        let json = report.to_json();
        assert!(json.starts_with("{\"schema\":\"violation-report/1\",\"scenario\":\"smoke\""));
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\\\"gave\\tup\\\""));
        let empty = ViolationReport::new("smoke", Vec::new()).to_json();
        assert_eq!(
            empty,
            "{\"schema\":\"violation-report/1\",\"scenario\":\"smoke\",\
             \"violated_plans\":0,\"violations\":[]}\n"
        );
    }
}

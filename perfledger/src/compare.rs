//! `ledger --compare A B`: two sets of saved reports, side by side.
//!
//! A set is a directory of full reports as `--out` writes them: any
//! number of runs (seeds) per workload and mode. For every workload and
//! end-to-end metric the comparison prints each side's median over its
//! runs with the run-to-run spread (the distance between the quartiles
//! as a share of the median), the ratio of the medians with its base, the
//! bound, and a verdict: `within`, `worse`, or `unresolved` when either
//! side's spread is wider than the bound (a difference that small cannot
//! be told from noise). One run a side has no spread; the line says so
//! and the values are judged as they stand.
//!
//! What must not move at all is held to that, and fails the comparison
//! like a `worse`: the share of failed operations may not rise, no run of
//! `B` may be incorrect, and at every seed both sides ran, the exact
//! per-layer metrics — counts and simulated results — must be bit-equal.
//! Digests that differ are named but do not fail: a deliberate re-pin
//! must stay measurable.

use std::path::Path;

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END, PER_LAYER};
use crate::stats::Quartiles;
use crate::workloads::NAMES;

/// Per-layer metrics that are simulated results, exact like the counts.
const SIMULATED: [&str; 4] = [
    "paper.failover_err_pct",
    "paper.rtt_overhead_err_pts",
    "sweep.worst_goodput_gap_ms",
    "bench.fail_share",
];

/// The verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// The run-to-run spread of a side is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a` for a metric with the given direction and
/// bound; `spread` is the wider of the two sides' run-to-run spreads, if
/// either side has more than one run.
pub fn judge(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > bound) {
        return Verdict::Unresolved;
    }
    let worse = match better {
        Better::Lower => b > a * (1.0 + bound),
        Better::Higher => b < a * (1.0 - bound),
    };
    if worse {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// Six significant digits, whatever the magnitude (`setup_s` is in the
/// microseconds, `ns_per_op` of `sweep` in the millions).
fn digits(v: f64) -> String {
    let magnitude = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (5 - magnitude).max(0) as usize)
}

fn seed(report: &Value) -> u64 {
    report.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64
}

/// The `mode` reports of `workload` under `dir`, in seed order.
fn load(dir: &Path, workload: &str, mode: &str) -> Result<Vec<Value>, String> {
    let (prefix, suffix) = (format!("{workload}.seed"), format!(".{mode}.json"));
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut reports = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with(&prefix) && name.ends_with(&suffix) {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            reports.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
    }
    reports.sort_by_key(seed);
    Ok(reports)
}

fn metric(report: &Value, name: &str) -> Option<f64> {
    report.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `name` over every run of a set; `None` if a run lacks it.
fn values(runs: &[Value], name: &str) -> Option<Vec<f64>> {
    runs.iter().map(|run| metric(run, name)).collect()
}

/// What identifies a run's behaviour: its digests and the client fold.
fn identity(report: &Value) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = report
        .get("digests")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(label, digest)| (label.clone(), digest.as_str().unwrap_or("").to_string()))
        .collect();
    if let Some(fold) = report.get("client_fold").and_then(Value::as_str) {
        out.push(("client_fold".to_string(), fold.to_string()));
    }
    out
}

/// Runs of `a` and `b` at the same seed, paired.
fn same_seed<'v>(a: &'v [Value], b: &'v [Value]) -> Vec<(&'v Value, &'v Value)> {
    a.iter()
        .filter_map(|ra| Some((ra, b.iter().find(|rb| seed(rb) == seed(ra))?)))
        .collect()
}

/// Failed and attempted operations over a set's runs, and whether every
/// run called its outputs correct.
fn failures(runs: &[Value]) -> (f64, f64, bool) {
    let sum = |key: &str| -> f64 {
        runs.iter()
            .filter_map(|run| run.get(key)?.as_f64())
            .sum::<f64>()
    };
    let correct = runs
        .iter()
        .all(|run| run.get("correct") == Some(&Value::Bool(true)));
    (sum("failed"), sum("attempted"), correct)
}

/// One line on failed operations; `false` if `b` fails a larger share
/// than `a` or has a run that is not correct.
fn failures_line(workload: &str, mode: &str, a: &[Value], b: &[Value]) -> (String, bool) {
    let (failed_a, attempted_a, _) = failures(a);
    let (failed_b, attempted_b, correct_b) = failures(b);
    let share = |failed: f64, attempted: f64| failed / attempted.max(1.0);
    let ok = correct_b && share(failed_b, attempted_b) <= share(failed_a, attempted_a);
    let line = format!(
        "{workload:<13} failed ({mode})  a={failed_a} of {attempted_a}  b={failed_b} of {attempted_b}{}  {}",
        if correct_b { "" } else { ", a run of b is not correct" },
        if ok { "within" } else { "worse" }
    );
    (line, ok)
}

/// Compares the reports under `a` with those under `b`, one line per
/// workload × end-to-end metric and one each for failures, exact metrics
/// and digests. Returns `true` when nothing is `worse`, no more
/// operations fail and every exact metric is equal.
///
/// # Errors
///
/// When a directory or report cannot be read or parsed, or the two sets
/// share no workload.
pub fn compare(a: &Path, b: &Path, out: &mut impl std::io::Write) -> Result<bool, String> {
    let mut ok = true;
    let mut compared = 0;
    let mut emit =
        |line: String| writeln!(out, "{line}").map_err(|e| format!("writing the comparison: {e}"));
    for workload in NAMES {
        let (ta, tb) = (load(a, workload, "timed")?, load(b, workload, "timed")?);
        if !ta.is_empty() && !tb.is_empty() {
            compared += 1;
            for m in END_TO_END {
                let (Some(va), Some(vb)) = (values(&ta, m.name), values(&tb, m.name)) else {
                    emit(format!("{workload:<13} {:<14} missing from a run", m.name))?;
                    ok = false;
                    continue;
                };
                let (qa, qb) = (Quartiles::of(&va), Quartiles::of(&vb));
                let spread = (qa.n > 1 || qb.n > 1).then(|| f64::max(qa.rel_iqr(), qb.rel_iqr()));
                let verdict = judge(qa.p50, qb.p50, m.better, m.bound, spread);
                ok &= verdict != Verdict::Worse;
                let side = |q: Quartiles| {
                    if q.n > 1 {
                        format!(
                            "{} (n={}, spread {:.1}%)",
                            digits(q.p50),
                            q.n,
                            q.rel_iqr() * 100.0
                        )
                    } else {
                        format!("{} (n=1, spread unknown)", digits(q.p50))
                    }
                };
                emit(format!(
                    "{workload:<13} {:<14} a={}  b={}  {}  b/a={:.4} (base a)  bound {:.0}%  {}",
                    m.name,
                    side(qa),
                    side(qb),
                    m.unit,
                    qb.p50 / qa.p50,
                    m.bound * 100.0,
                    verdict.word()
                ))?;
            }
            let (line, no_more_fail) = failures_line(workload, "timed", &ta, &tb);
            ok &= no_more_fail;
            emit(line)?;
            for (ra, rb) in same_seed(&ta, &tb) {
                let differing: Vec<String> = identity(ra)
                    .into_iter()
                    .zip(identity(rb))
                    .filter(|(x, y)| x != y)
                    .map(|(x, _)| x.0)
                    .collect();
                if !differing.is_empty() {
                    emit(format!(
                        "{workload:<13} seed {}: digests differ (not a failure): {}",
                        seed(ra),
                        differing.join(", ")
                    ))?;
                }
            }
        }
        let (ra, rb) = (load(a, workload, "traced")?, load(b, workload, "traced")?);
        if !ra.is_empty() && !rb.is_empty() {
            compared += 1;
            let (line, no_more_fail) = failures_line(workload, "traced", &ra, &rb);
            ok &= no_more_fail;
            emit(line)?;
            let exact: Vec<&str> = PER_LAYER
                .iter()
                .filter(|m| m.unit == "count" || SIMULATED.contains(&m.name))
                .map(|m| m.name)
                .collect();
            let pairs = same_seed(&ra, &rb);
            if pairs.is_empty() {
                emit(format!(
                    "{workload:<13} exact metrics: no seed ran on both sides, not compared"
                ))?;
            }
            for (ra, rb) in pairs {
                let differing: Vec<&str> = exact
                    .iter()
                    .copied()
                    .filter(|name| metric(ra, name) != metric(rb, name))
                    .collect();
                ok &= differing.is_empty();
                emit(if differing.is_empty() {
                    format!(
                        "{workload:<13} seed {}: exact metrics: all {} bit-equal",
                        seed(ra),
                        exact.len()
                    )
                } else {
                    format!(
                        "{workload:<13} seed {}: exact metrics differ: {}  worse",
                        seed(ra),
                        differing.join(", ")
                    )
                })?;
            }
        }
    }
    if compared == 0 {
        return Err(format!(
            "{} and {} share no <workload>.seed<n>.timed.json or <workload>.seed<n>.traced.json",
            a.display(),
            b.display()
        ));
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_significant_digits() {
        assert_eq!(digits(0.000002854321), "0.00000285432");
        assert_eq!(digits(4104337.73622), "4104338");
        assert_eq!(digits(13.299787), "13.2998");
        assert_eq!(digits(0.0), "0.00000");
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            judge(100.0, 109.0, Better::Lower, 0.10, Some(0.02)),
            Verdict::Within
        );
        assert_eq!(
            judge(100.0, 111.0, Better::Lower, 0.10, Some(0.02)),
            Verdict::Worse
        );
        assert_eq!(
            judge(100.0, 111.0, Better::Lower, 0.10, Some(0.12)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(100.0, 50.0, Better::Lower, 0.10, None),
            Verdict::Within
        );
        assert_eq!(
            judge(100.0, 89.0, Better::Higher, 0.10, None),
            Verdict::Worse
        );
    }
}

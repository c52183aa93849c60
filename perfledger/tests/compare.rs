//! `ledger --compare` on written reports: what passes it and what it
//! fails on.

use std::path::{Path, PathBuf};

use perfledger::compare::compare;
use perfledger::json::Value;
use perfledger::run::{Metric, Report};
use perfledger::spec::{END_TO_END, PER_LAYER};
use perfledger::workloads::{PassOut, Size};

fn report(mode: &'static str, seed: u64, metrics: Vec<Metric>) -> Report {
    Report {
        workload: "explore".to_string(),
        seed,
        mode,
        size: Size::Full,
        correct: true,
        attempted: 318,
        failed: 0,
        metrics,
        pass: PassOut::default(),
        spread: None,
        samples: Vec::new(),
        digests: vec![("pair".to_string(), 7)],
        client_fold: 9,
        problems: Vec::new(),
        trace: None,
    }
}

fn timed(seed: u64, ns_per_op: f64) -> Report {
    let values = [ns_per_op, 1e-6, 0.3];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            unit: m.unit,
            value,
        })
        .collect();
    report("timed", seed, metrics)
}

fn traced(seed: u64) -> Report {
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: 1.0,
        })
        .collect();
    report("traced", seed, metrics)
}

/// A fresh directory holding `reports`.
fn set(name: &str, reports: &[Report]) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    for report in reports {
        perfledger::write_report(&dir, report, &Value::Null).expect("the report is written");
    }
    dir
}

/// Three seeds 2 % either side of `base`, and one traced run.
fn steady(name: &str, base: f64) -> PathBuf {
    set(
        name,
        &[
            timed(1, base),
            timed(2, base * 1.02),
            timed(3, base * 0.98),
            traced(1),
        ],
    )
}

fn verdict(a: &Path, b: &Path) -> (bool, String) {
    let mut out = Vec::new();
    let ok = compare(a, b, &mut out).expect("both sets load");
    (ok, String::from_utf8(out).expect("text"))
}

#[test]
fn the_same_numbers_are_within() {
    let (ok, text) = verdict(&steady("same-a", 1000.0), &steady("same-b", 1010.0));
    assert!(ok, "{text}");
    assert!(
        text.contains("ns_per_op") && text.contains("n=3, spread 4.0%"),
        "{text}"
    );
    assert!(
        !text.contains("worse") && !text.contains("unresolved"),
        "{text}"
    );
    assert!(text.contains("exact metrics: all"), "{text}");
}

#[test]
fn a_slower_median_is_worse() {
    let (ok, text) = verdict(&steady("slow-a", 1000.0), &steady("slow-b", 1300.0));
    assert!(!ok, "{text}");
    assert!(text.contains("b/a=1.3000 (base a)"), "{text}");
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let noisy = set(
        "noisy-b",
        &[timed(1, 1000.0), timed(2, 1300.0), timed(3, 1600.0)],
    );
    let (ok, text) = verdict(&steady("noisy-a", 1000.0), &noisy);
    assert!(ok, "unresolved is not worse: {text}");
    assert!(text.contains("unresolved"), "{text}");
}

#[test]
fn more_failed_operations_fail_the_comparison() {
    let mut failing = timed(1, 1000.0);
    failing.failed = 1;
    failing.correct = false;
    let (ok, text) = verdict(&steady("fail-a", 1000.0), &set("fail-b", &[failing]));
    assert!(!ok, "{text}");
    assert!(
        text.contains("b=1 of 318, a run of b is not correct  worse"),
        "{text}"
    );
}

#[test]
fn an_exact_metric_that_moved_fails_and_a_digest_does_not() {
    let mut moved = traced(1);
    moved
        .metrics
        .iter_mut()
        .find(|m| m.name == "explore.runs")
        .expect("declared")
        .value = 2.0;
    let mut repinned = timed(1, 1000.0);
    repinned.digests[0].1 = 8;
    let a = steady("exact-a", 1000.0);
    let (ok, text) = verdict(&a, &set("exact-b", &[repinned.clone(), moved]));
    assert!(!ok, "{text}");
    assert!(
        text.contains("exact metrics differ: explore.runs"),
        "{text}"
    );
    assert!(
        text.contains("digests differ (not a failure): pair"),
        "{text}"
    );

    let (ok, text) = verdict(&a, &set("repin-b", &[repinned, traced(1)]));
    assert!(ok, "a re-pin alone passes: {text}");
}

//! `ledger --check`: the benchmark checking itself, at sizes small enough
//! for a debug build.
//!
//! It holds `BENCHMARK.json` to the names in [`crate::spec`], runs every
//! workload once timed and once traced at [`Size::Check`], and asserts
//! that each result line parses and carries exactly the declared metrics
//! with their units, that the run is correct — no failed operation, the
//! same digests from pass to pass, every per-layer metric declared for
//! the workload produced and nothing else, every kernel above zero — and
//! that the trace's self times add up to the pass.

use std::path::Path;

use crate::json::{self, Value};
use crate::run::{run, Report, RunArgs};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::{Size, GATED, NAMES, REFERENCE_SEED};

const TOP_LEVEL_KEYS: [&str; 6] = [
    "command",
    "paths",
    "run_seconds",
    "workloads",
    "end_to_end",
    "per_layer",
];

fn text<'a>(value: &'a Value, key: &str) -> &'a str {
    value.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Holds `BENCHMARK.json` to the spec; returns what disagrees.
pub fn check_manifest(root: &Path) -> Vec<String> {
    let path = root.join("BENCHMARK.json");
    let manifest = match std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
    {
        Ok(manifest) => manifest,
        Err(e) => return vec![format!("BENCHMARK.json: {e}")],
    };
    let mut errors = Vec::new();
    for (key, _) in manifest.members() {
        if !TOP_LEVEL_KEYS.contains(&key.as_str()) {
            errors.push(format!("BENCHMARK.json: unexpected key `{key}`"));
        }
    }
    for key in TOP_LEVEL_KEYS {
        if manifest.get(key).is_none() {
            errors.push(format!("BENCHMARK.json: missing key `{key}`"));
        }
    }
    let listed = |key: &str| -> Vec<&Value> {
        manifest
            .get(key)
            .map(Value::items)
            .unwrap_or_default()
            .iter()
            .collect()
    };
    let workloads: Vec<&str> = listed("workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    if workloads != GATED {
        errors.push(format!(
            "BENCHMARK.json: workloads are {workloads:?}, the ledger gates on {GATED:?}"
        ));
    }
    if listed("workloads")
        .iter()
        .any(|w| text(w, "why").is_empty())
    {
        errors.push("BENCHMARK.json: a workload has no `why`".to_string());
    }
    let end_to_end: Vec<(String, String, String, f64)> = listed("end_to_end")
        .iter()
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
                m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.word().to_string(),
                m.bound,
            )
        })
        .collect();
    if end_to_end != expected {
        errors.push(format!(
            "BENCHMARK.json: end_to_end is {end_to_end:?}, the ledger reports {expected:?}"
        ));
    }
    let per_layer: Vec<(&str, &str, &str)> = listed("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(&str, &str, &str)> = PER_LAYER
        .iter()
        .map(|m| (m.name, m.unit, m.better.word()))
        .collect();
    for missing in expected.iter().filter(|m| !per_layer.contains(m)) {
        errors.push(format!("BENCHMARK.json: per_layer lacks {missing:?}"));
    }
    for extra in per_layer.iter().filter(|m| !expected.contains(m)) {
        errors.push(format!(
            "BENCHMARK.json: per_layer has {extra:?}, which the ledger does not report"
        ));
    }
    errors
}

/// Asserts one report's result line against the declared metric list.
fn check_report(report: &Report, declared: &[(&str, &str)], errors: &mut Vec<String>) {
    let at = format!("{} ({})", report.workload, report.mode);
    let line = report.result_line();
    let parsed = match json::parse(&line) {
        Ok(parsed) => parsed,
        Err(e) => {
            errors.push(format!("{at}: result line does not parse: {e}"));
            return;
        }
    };
    let keys: Vec<&str> = parsed.members().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        errors.push(format!("{at}: result line has keys {keys:?}"));
    }
    if parsed
        .get("attempted")
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
        < 1.0
    {
        errors.push(format!("{at}: nothing was attempted"));
    }
    if parsed.get("failed").and_then(Value::as_f64) != Some(0.0) {
        errors.push(format!(
            "{at}: {} of {} failed",
            report.failed, report.attempted
        ));
    }
    if !report.correct {
        errors.push(format!(
            "{at}: outputs are not correct: {}",
            report.problems.join("; ")
        ));
    }
    let got: Vec<(&str, &str)> = parsed
        .get("metrics")
        .map(Value::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| (name.as_str(), text(m, "unit")))
        .collect();
    for missing in declared.iter().filter(|m| !got.contains(m)) {
        errors.push(format!(
            "{at}: metric {missing:?} is declared but not reported"
        ));
    }
    for extra in got.iter().filter(|m| !declared.contains(m)) {
        errors.push(format!(
            "{at}: metric {extra:?} is reported but not declared"
        ));
    }
    for metric in &report.metrics {
        if !metric.value.is_finite() {
            errors.push(format!("{at}: {} is {}", metric.name, metric.value));
        }
    }
}

/// The share by which the self times in a trace miss the root span.
fn trace_gap(trace: &Value) -> Option<f64> {
    let events = trace.get("traceEvents")?.items();
    let root = events
        .iter()
        .find(|e| e.get("args").and_then(|a| a.get("parent")) == Some(&Value::Null))?;
    let root_us = root.get("dur")?.as_f64()?;
    let own_us: f64 = events
        .iter()
        .filter_map(|e| e.get("args")?.get("self_us")?.as_f64())
        .sum();
    Some((own_us - root_us).abs() / root_us)
}

/// Runs the whole self-check from `root`; returns every failure found.
pub fn check(root: &Path) -> Vec<String> {
    let mut errors = check_manifest(root);
    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for workload in NAMES {
        let mut args = RunArgs {
            workload: workload.to_string(),
            seed: REFERENCE_SEED,
            // One timed pass and the counted one, or one plain and one
            // traced: two either way, so "digests repeat" is tested.
            seconds: 0.0,
            traced: false,
            size: Size::Check,
        };
        match run(&args, root) {
            Ok(report) => {
                check_report(&report, &end_to_end, &mut errors);
                for metric in &report.metrics {
                    if metric.value == 0.0 {
                        errors.push(format!("{workload}: end-to-end {} is 0", metric.name));
                    }
                }
            }
            Err(e) => errors.push(format!("{workload} (timed): {e}")),
        }
        args.traced = true;
        match run(&args, root) {
            Ok(report) => {
                check_report(&report, &per_layer, &mut errors);
                if report.metric("bench.fail_share") != Some(0.0) {
                    errors.push(format!("{workload}: bench.fail_share is not 0"));
                }
                let reparsed = report
                    .trace
                    .as_ref()
                    .ok_or_else(|| "no trace".to_string())
                    .and_then(|trace| json::parse(&trace.to_json()));
                match reparsed.as_ref().map(trace_gap) {
                    Ok(Some(gap)) if gap <= 0.02 => {}
                    Ok(gap) => errors.push(format!(
                        "{workload}: trace self times miss the pass by {gap:?} (allowed 0.02)"
                    )),
                    Err(e) => errors.push(format!("{workload}: trace does not load: {e}")),
                }
            }
            Err(e) => errors.push(format!("{workload} (traced): {e}")),
        }
    }
    errors
}

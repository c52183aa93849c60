//! # perfledger — the repository's performance ledger
//!
//! Seven workloads measured in host time, end to end (`ns_per_op`,
//! `setup_s`, `peak_heap_mib`) and layer by layer (counts the program
//! already exposes, spans around the benchmark's own calls, and
//! micro-kernels on fixed inputs). Everything is measured from outside:
//! this package calls the public functions of the crates under
//! `../crates` and `../vendor` and changes none of them.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to read the output.

#![warn(missing_docs)]
// The repository's `clippy.toml` bans `Instant::now` because simulation
// code must run on simulated time. Measuring host time is what this crate
// is for; nothing it reads from the clock reaches the program under test.
#![allow(clippy::disallowed_methods)]

pub mod alloc;
pub mod check;
pub mod compare;
pub mod json;
pub mod kernels;
pub mod pins;
pub mod run;
pub mod span;
pub mod spec;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};

use json::{obj, s, Value};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The repository root: the nearest directory at or above `start` that
/// holds both `BENCHMARK.json` and `crates/simnet`.
///
/// # Errors
///
/// When no such directory exists — the benchmark cannot run outside a
/// checkout of the repository.
pub fn repo_root(start: &Path) -> Result<PathBuf, String> {
    start
        .ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join("crates/simnet").is_dir())
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "no repository root (BENCHMARK.json beside crates/simnet) at or above {}",
                start.display()
            )
        })
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

/// Where the numbers were taken: core count, CPU model, compiler and
/// commit. Every field degrades to `"unknown"` rather than failing.
pub fn host_descriptor(root: &Path) -> Value {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| first_line(&String::from_utf8_lossy(&out.stdout)))
        .unwrap_or_else(unknown);
    // A benchmark checkout need not be a git repository; read the ref
    // files directly rather than asking a `git` that may not be there.
    let commit = std::fs::read_to_string(root.join(".git/HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
                .ok()
                .map(|hash| first_line(&hash)),
            None => Some(first_line(&head)),
        })
        .unwrap_or_else(unknown);
    obj(vec![
        ("nproc", Value::Num(nproc as f64)),
        ("cpu", s(cpu)),
        ("rustc", s(rustc)),
        ("commit", s(commit)),
        ("threads_used", Value::Num(1.0)),
    ])
}

/// Writes `report` under `dir` as `<workload>.seed<seed>.<mode>.json`, so
/// that one directory can hold a set of runs for `--compare`, and its
/// trace, if it has one, as `<workload>.trace.json`.
///
/// # Errors
///
/// When the directory or a file cannot be written.
pub fn write_report(dir: &Path, report: &run::Report, host: &Value) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}.seed{}.{}.json",
        report.workload, report.seed, report.mode
    ));
    std::fs::write(&path, report.to_value(host).to_json_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if let Some(trace) = &report.trace {
        let trace_path = dir.join(format!("{}.trace.json", report.workload));
        std::fs::write(&trace_path, trace.to_json())
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    }
    Ok(path)
}

//! The counter census: every counter name written under `crates/*/src`
//! exists because something reads it (DESIGN §10 "Metrics"). An
//! occurrence is a trace event, malformed input is a `ProtocolError`
//! trace event, and the kernel counts nothing of its own.
//!
//! The table below pairs each written name with one file that reads it.
//! The census fails when a written name is missing from the table, when
//! a table entry is written nowhere or its reader never names it, when a
//! counter records malformed input, or when the kernel writes a counter
//! outside `Ctx::count`.

use std::fs;
use std::path::{Path, PathBuf};

/// `(counter name, a file that reads it)`, paths from the repository
/// root. The ledger (`perfledger/src/workloads.rs`) reads seven of them.
const READERS: &[(&str, &str)] = &[
    ("counter.op_gap", "crates/experiments/src/chaos.rs"),
    ("gcs.node_crash_leave", "tests/node_crash.rs"),
    (
        "mead.acks_committed",
        "crates/mead/tests/interceptor_unit.rs",
    ),
    ("mead.checkpoint_bytes", "perfledger/src/workloads.rs"),
    ("mead.client.fabricated_needs_addr", "tests/mechanisms.rs"),
    ("mead.client.query_timeout", "tests/mechanisms.rs"),
    ("mead.client.redirects_started", "tests/mechanisms.rs"),
    (
        "mead.crash_exhaustion",
        "crates/experiments/src/scenario.rs",
    ),
    ("mead.forwards_sent", "tests/mechanisms.rs"),
    (
        "mead.graceful_rejuvenations",
        "crates/experiments/src/scenario.rs",
    ),
    ("mead.ior_captured", "tests/mechanisms.rs"),
    (
        "mead.launch_requests",
        "crates/mead/tests/interceptor_unit.rs",
    ),
    ("mead.migrations", "perfledger/src/workloads.rs"),
    (
        "mead.nonprimary_refusals",
        "crates/mead/tests/interceptor_unit.rs",
    ),
    ("mead.piggybacks_sent", "tests/mechanisms.rs"),
    ("mead.state_restored", "tests/state_transfer.rs"),
    ("naming.bind", "crates/orb/tests/naming_store.rs"),
    ("naming.resolve", "crates/orb/tests/orb_e2e.rs"),
    ("orb.connections_opened", "perfledger/src/workloads.rs"),
    ("orb.exception.comm_failure", "perfledger/src/workloads.rs"),
    ("orb.exception.transient", "perfledger/src/workloads.rs"),
    ("orb.forward_loop", "crates/orb/tests/orb_e2e.rs"),
    ("orb.forwarded", "tests/mechanisms.rs"),
    ("orb.needs_addressing_resend", "tests/mechanisms.rs"),
    ("orb.server.requests", "perfledger/src/workloads.rs"),
    ("rm.fallback_placements", "tests/node_crash.rs"),
    (
        "rm.leader_elections",
        "crates/experiments/tests/rm_failover.rs",
    ),
    ("rm.proactive_notices", "tests/mechanisms.rs"),
    ("rm.views", "perfledger/src/workloads.rs"),
];

/// Name parts that mark malformed input: such input is an
/// `EventKind::ProtocolError`, never a counter.
const MALFORMED: &[&str] = &[
    "protocol_error",
    "alien_frame",
    "bad_group_msg",
    "bad_notice",
    "desync",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The program part of a source file: its unit-test module (from
/// `#[cfg(test)]` on) counts scratch names like `"x"`.
fn program(path: &Path) -> String {
    let text = fs::read_to_string(path).unwrap();
    text.split("#[cfg(test)]").next().unwrap().to_string()
}

/// `(path from the root, program text)` of every file under
/// `crates/*/src`.
fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let rel = path.strip_prefix(root()).unwrap().display().to_string();
            (rel, program(&path))
        })
        .collect()
}

/// The function whose body holds byte offset `at`: the last `fn` before
/// it.
fn enclosing_fn(text: &str, at: usize) -> &str {
    let start = text[..at].rfind("fn ").map_or(0, |i| i + 3);
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    &rest[..end]
}

/// `(file, name)` pairs.
type Sites = Vec<(String, String)>;

/// What `.count(…)` calls write: `(file, name)` for each literal name,
/// and `(file, function)` for each call that passes on a name it was
/// handed. An argument-less `.count()` is an iterator's, not a counter.
fn writes() -> (Sites, Sites) {
    let mut literal = Vec::new();
    let mut passed_on = Vec::new();
    for (file, text) in sources() {
        for (at, call) in text.match_indices(".count(") {
            let arg = text[at + call.len()..].trim_start();
            if let Some(quoted) = arg.strip_prefix('"') {
                let name = &quoted[..quoted.find('"').unwrap()];
                literal.push((file.clone(), name.to_string()));
            } else if !arg.starts_with(')') {
                passed_on.push((file.clone(), enclosing_fn(&text, at).to_string()));
            }
        }
    }
    (literal, passed_on)
}

#[test]
fn every_counter_written_has_a_reader() {
    let (written, _) = writes();
    let mut problems = Vec::new();
    for (file, name) in &written {
        if !READERS.iter().any(|(n, _)| n == name) {
            problems.push(format!(
                "{file}: `{name}` is written but has no reader in the table"
            ));
        }
        if let Some(m) = MALFORMED.iter().find(|m| name.contains(*m)) {
            problems.push(format!(
                "{file}: `{name}` counts malformed input ({m}); emit \
                 `EventKind::ProtocolError` instead"
            ));
        }
    }
    for (name, reader) in READERS {
        if !written.iter().any(|(_, n)| n == name) {
            problems.push(format!("`{name}` is in the table but written nowhere"));
        }
        let text = fs::read_to_string(root().join(reader))
            .unwrap_or_else(|e| panic!("reader {reader} of `{name}`: {e}"));
        if !text.contains(&format!("\"{name}\"")) {
            problems.push(format!(
                "{reader} is listed as reading `{name}` but never names it"
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "counter census:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_kernel_writes_no_counter_of_its_own() {
    let (_, passed_on) = writes();
    let strays: Vec<_> = passed_on.iter().filter(|(_, f)| f != "count").collect();
    assert!(
        strays.is_empty(),
        "a counter name that is not a literal escapes the census: {strays:?}"
    );
    // The kernel's one write is `Ctx::count`, on a process's behalf.
    let sim = program(&root().join("crates/simnet/src/sim.rs"));
    let kernel: Vec<_> = sim
        .match_indices("metrics.count(")
        .map(|(at, _)| enclosing_fn(&sim, at))
        .collect();
    assert_eq!(kernel, ["count"], "the kernel writes a counter of its own");
}

//! The command-line plumbing every `mead-repro` command shares.
//!
//! A command owns its arguments and takes from them exactly the flags it
//! reads — [`take_threads`], [`take_flag`], [`take_number`],
//! [`take_switch`] — then ends with [`no_args_left`] or
//! [`positional_or`], so a flag it does not read is a usage error that
//! names it; a count of runs, invocations or clients goes through
//! [`nonzero`], so asking for none is one too. Nothing in this module
//! exits the process: parsing and artifact writing return [`CliError`],
//! and [`run_command`] turns a command's result into the exit status the
//! binary leaves with, from the one place it exits — 0 passed, 1 failed
//! check or unwritable output, 2 usage error or unreadable/invalid input
//! file.

use std::path::Path;

use crate::report::{ViolationRecord, ViolationReport};
use crate::runner::default_threads;

/// Why a command stopped early (the message is ready to print).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// Malformed command line, or an input file that cannot be read or
    /// parsed: exit status 2.
    Usage(String),
    /// An output file could not be written: exit status 1.
    Failed(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for CliError {}

/// Removes `--threads N` from `args` and returns the worker-thread
/// count: [`default_threads`] when the flag is absent or `0`.
///
/// # Errors
///
/// [`CliError::Usage`] for a `--threads` without a whole-number value.
pub fn take_threads(args: &mut Vec<String>) -> Result<usize, CliError> {
    Ok(match take_number(args, "--threads")? {
        None | Some(0) => default_threads(),
        Some(n) => n,
    })
}

/// Removes a `--flag VALUE` / `--flag=VALUE` pair from `args` and returns
/// the value, or `None` when the flag is absent.
///
/// # Errors
///
/// [`CliError::Usage`] when the flag is present without a value.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    let eq_prefix = format!("{flag}=");
    for i in 0..args.len() {
        if let Some(v) = args[i].strip_prefix(&eq_prefix) {
            let v = v.to_string();
            args.remove(i);
            return Ok(Some(v));
        }
        if args[i] == flag {
            if i + 1 >= args.len() {
                return Err(CliError::Usage(format!("{flag} requires a value")));
            }
            args.remove(i);
            return Ok(Some(args.remove(i)));
        }
    }
    Ok(None)
}

/// [`take_flag`] for a flag whose value is a whole number.
///
/// # Errors
///
/// [`CliError::Usage`] when the flag is present without a value or with
/// one that is not a whole number.
pub fn take_number(args: &mut Vec<String>, flag: &str) -> Result<Option<usize>, CliError> {
    take_flag(args, flag)?
        .map(|v| {
            v.parse()
                .map_err(|_| CliError::Usage(format!("{flag} expects a whole number, got `{v}`")))
        })
        .transpose()
}

/// Removes every occurrence of the value-less `flag` from `args` and
/// returns whether there was one.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Checks that nothing is left of a command line that takes no
/// positional argument once every flag the command knows has been taken.
///
/// # Errors
///
/// [`CliError::Usage`] naming a leftover `--flag`, or else the first
/// leftover argument.
pub fn no_args_left(args: &[String]) -> Result<(), CliError> {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
    }
    match args.first() {
        None => Ok(()),
        Some(extra) => Err(CliError::Usage(format!("unexpected argument `{extra}`"))),
    }
}

/// Parses what is left of a command line once every flag the command
/// knows has been taken: at most one positional argument, a `T`, with
/// `default` when there is none.
///
/// # Errors
///
/// [`CliError::Usage`] for a value that does not parse as a `T`, a
/// leftover `--flag` or a second positional argument.
pub fn positional_or<T: std::str::FromStr>(args: &[String], default: T) -> Result<T, CliError> {
    match args {
        [value, rest @ ..] if !value.starts_with("--") => {
            no_args_left(rest)?;
            value
                .parse()
                .map_err(|_| CliError::Usage(format!("expected a whole number, got `{value}`")))
        }
        _ => no_args_left(args).map(|()| default),
    }
}

/// Passes `count` through unless it is zero: a run of nothing is a usage
/// error, not an empty report.
///
/// # Errors
///
/// [`CliError::Usage`] naming `what` when `count` is zero.
pub fn nonzero<T: PartialEq + From<u8>>(what: &str, count: T) -> Result<T, CliError> {
    if count == T::from(0) {
        return Err(CliError::Usage(format!("{what} must be at least 1, got 0")));
    }
    Ok(count)
}

/// Runs one command: hands it its arguments (it takes the flags it
/// reads and returns whether every check it made passed) and maps the
/// result to the process exit status, printing any error to stderr.
pub fn run_command(
    args: &[String],
    command: impl FnOnce(Vec<String>) -> Result<bool, CliError>,
) -> i32 {
    match command(args.to_vec()) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            1
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("usage: mead-repro <command> [args...]  (see `mead-repro help`)");
            2
        }
    }
}

/// Writes `body` to `path`; `what` names the artifact in the stderr
/// confirmation and in the error.
///
/// # Errors
///
/// [`CliError::Failed`] when the file cannot be written.
pub fn write_artifact(what: &str, path: &Path, body: &str) -> Result<(), CliError> {
    std::fs::write(path, body)
        .map_err(|e| CliError::Failed(format!("cannot write {what} to {}: {e}", path.display())))?;
    eprintln!("{what} written to {}", path.display());
    Ok(())
}

/// Writes the labelled run traces to `path` (a `--trace` value), if one
/// was given.
///
/// # Errors
///
/// [`CliError::Failed`] when the file cannot be written.
pub fn write_trace(
    path: Option<impl AsRef<Path>>,
    sections: &[(String, &[obs::TraceEvent])],
) -> Result<(), CliError> {
    match path {
        Some(path) => write_artifact("trace", path.as_ref(), &render_trace_sections(sections)),
        None => Ok(()),
    }
}

/// Writes `records` as a `violation-report/1` document to `path` (a
/// `--violations` value), if one was given.
///
/// # Errors
///
/// [`CliError::Failed`] when the file cannot be written.
pub fn write_violations(
    path: Option<impl AsRef<Path>>,
    source: &str,
    records: Vec<ViolationRecord>,
) -> Result<(), CliError> {
    match path {
        Some(path) => {
            let body = ViolationReport::new(source, records).to_json();
            write_artifact("violations", path.as_ref(), &body)
        }
        None => Ok(()),
    }
}

/// Serialises labelled run traces into one JSONL document: a
/// `{"run":...}` header line per run followed by that run's events.
/// Deterministic — equal traces produce equal bytes.
pub fn render_trace_sections(sections: &[(String, &[obs::TraceEvent])]) -> String {
    let mut out = String::new();
    for (label, events) in sections {
        out.push_str("{\"run\":");
        obs::jsonl::push_json_str(&mut out, label);
        out.push_str(",\"events\":");
        out.push_str(&events.len().to_string());
        out.push_str("}\n");
        out.push_str(&obs::jsonl::to_jsonl(events));
    }
    out
}

/// The thread-independence self-check: computes `digest_at(t)` for every
/// count in `threads`, prints the one `determinism:` line and returns
/// whether all digests agreed. `what` names the digested batch
/// (`"24-plan"`, `"fleet"`).
pub fn check_thread_independence(
    what: &str,
    threads: &[usize],
    digest_at: impl FnMut(usize) -> u64,
) -> bool {
    let digests: Vec<u64> = threads.iter().copied().map(digest_at).collect();
    let first = digests.first().copied().unwrap_or(0);
    match digests.iter().position(|&d| d != first) {
        None => {
            println!(
                "determinism: {what} digest {first:016x} identical at {threads:?} threads — PASS"
            );
            true
        }
        Some(i) => {
            println!(
                "determinism: FAIL — {what} digest {first:016x} at {} thread(s) vs {:016x} at {}",
                threads[0], digests[i], threads[i]
            );
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn threads_parse_in_both_forms_and_leave_the_rest() {
        let mut args = argv(&["--threads", "4", "100"]);
        assert_eq!(take_threads(&mut args), Ok(4));
        assert_eq!(args, argv(&["100"]));
        let mut args = argv(&["100", "--threads=8"]);
        assert_eq!(take_threads(&mut args), Ok(8));
        assert_eq!(args, argv(&["100"]));
        let mut args = argv(&["500", "extra"]);
        assert_eq!(take_threads(&mut args), Ok(default_threads()));
        assert_eq!(args, argv(&["500", "extra"]));
        assert_eq!(
            take_threads(&mut argv(&["--threads", "0"])),
            Ok(default_threads())
        );
    }

    #[test]
    fn malformed_flag_is_an_error_not_a_panic() {
        for bad in [&["--threads"][..], &["--threads", "many"], &["--threads=x"]] {
            assert!(
                matches!(take_threads(&mut argv(bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
        for bad in [&["--trace"][..], &["12", "--trace"]] {
            assert!(
                matches!(
                    take_flag(&mut argv(bad), "--trace"),
                    Err(CliError::Usage(_))
                ),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn a_flag_nobody_took_is_named() {
        let unknown = |args: &[&str]| no_args_left(&argv(args)).unwrap_err().to_string();
        assert_eq!(unknown(&["x", "--smoke"]), "unknown flag `--smoke`");
        assert_eq!(unknown(&["extra"]), "unexpected argument `extra`");
        assert_eq!(
            positional_or(&argv(&["--violations", "v.json"]), 1),
            Err(CliError::Usage("unknown flag `--violations`".into()))
        );
        assert_eq!(positional_or(&argv(&["7"]), 1), Ok(7));
    }

    #[test]
    fn a_zero_count_is_named() {
        assert_eq!(nonzero("clients", 3u32), Ok(3));
        assert_eq!(
            nonzero("--runs", 0usize),
            Err(CliError::Usage("--runs must be at least 1, got 0".into()))
        );
    }

    #[test]
    fn take_flag_handles_both_forms_and_absence() {
        let mut args = argv(&["--report", "r.txt", "24"]);
        assert_eq!(
            take_flag(&mut args, "--report").unwrap().as_deref(),
            Some("r.txt")
        );
        assert_eq!(args, argv(&["24"]));
        let mut args = argv(&["24", "--report=out/r.txt"]);
        assert_eq!(
            take_flag(&mut args, "--report").unwrap().as_deref(),
            Some("out/r.txt")
        );
        assert_eq!(args, argv(&["24"]));
        assert_eq!(take_flag(&mut args, "--report"), Ok(None));
        assert_eq!(args, argv(&["24"]));
    }

    #[test]
    fn exit_codes_follow_the_result() {
        assert_eq!(run_command(&[], |_| Ok(true)), 0);
        assert_eq!(run_command(&[], |_| Ok(false)), 1);
        assert_eq!(run_command(&[], |_| Err(CliError::Failed("x".into()))), 1);
        assert_eq!(run_command(&[], |_| Err(CliError::Usage("x".into()))), 2);
        assert_eq!(
            run_command(&argv(&["--threads"]), |mut args| take_threads(&mut args)
                .map(|_| true)),
            2
        );
    }

    #[test]
    fn thread_independence_check_compares_every_count() {
        assert!(check_thread_independence("t", &[1, 2, 4], |_| 7));
        assert!(!check_thread_independence("t", &[1, 2, 4], |t| u64::from(
            t == 4
        )));
    }
}

//! The command-line plumbing every `mead-repro` command shares.
//!
//! The flags more than one command takes — `--threads N`, `--trace PATH`,
//! `--smoke`, `--violations PATH` — are parsed once, here
//! ([`cli_from_args`]); a command-specific `--flag VALUE` is lifted out of
//! the remainder with [`take_flag`]. Nothing in this module exits the
//! process: parsing and artifact writing return [`CliError`], and
//! [`run_command`] turns a command's result into the exit status the
//! binary leaves with, from the one place it exits — 0 passed, 1 failed
//! check or unwritable output, 2 usage error or unreadable/invalid input
//! file.

use std::path::{Path, PathBuf};

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

/// The shared command line of one `mead-repro` command.
#[derive(Clone, Debug)]
pub struct Cli {
    /// Worker threads to use ([`default_threads`] when `--threads` is
    /// absent or `0`).
    pub threads: usize,
    /// Where to write the JSONL trace, if `--trace` was given.
    pub trace: Option<PathBuf>,
    /// `--smoke`: the short fixed-shape CI configuration.
    pub smoke: bool,
    /// Where to write the `violation-report/1` document, if
    /// `--violations` was given.
    pub violations: Option<PathBuf>,
    /// Everything else, in order: positional arguments and the flags
    /// only one command takes.
    pub args: Vec<String>,
}

/// Parses a command's arguments (command name already stripped). Flags
/// take either the `--flag value` or the `--flag=value` form.
///
/// # Errors
///
/// [`CliError::Usage`] for a flag without its value or a non-numeric
/// `--threads`.
pub fn cli_from_args(args: &[String]) -> Result<Cli, CliError> {
    let mut rest = args.to_vec();
    let threads = match take_flag(&mut rest, "--threads")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--threads expects a number, got `{v}`")))?,
    };
    let trace = take_flag(&mut rest, "--trace")?.map(PathBuf::from);
    let violations = take_flag(&mut rest, "--violations")?.map(PathBuf::from);
    let smoke = take_switch(&mut rest, "--smoke");
    Ok(Cli {
        threads: if threads == 0 {
            default_threads()
        } else {
            threads
        },
        trace,
        smoke,
        violations,
        args: rest,
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

/// Removes every occurrence of the value-less `flag` from `args` and
/// returns whether there was one.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
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
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
    }
    match args {
        [] => Ok(default),
        [value] => value
            .parse()
            .map_err(|_| CliError::Usage(format!("expected a whole number, got `{value}`"))),
        [_, extra, ..] => Err(CliError::Usage(format!("unexpected argument `{extra}`"))),
    }
}

/// Runs one command: parses the shared flags, hands them to `command`
/// (which returns whether every check it made passed) and maps the
/// result to the process exit status, printing any error to stderr.
pub fn run_command(args: &[String], command: impl FnOnce(Cli) -> Result<bool, CliError>) -> i32 {
    match cli_from_args(args).and_then(command) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            1
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: mead-repro <command> [--threads N] [--trace out.jsonl] [--smoke] \
                 [--violations out.json] [args...]  (see `mead-repro help`)"
            );
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

impl Cli {
    /// Writes the labelled run traces to the `--trace` path, if one was
    /// given.
    ///
    /// # Errors
    ///
    /// [`CliError::Failed`] when the file cannot be written.
    pub fn write_trace(&self, sections: &[(String, &[obs::TraceEvent])]) -> Result<(), CliError> {
        match &self.trace {
            Some(path) => write_artifact("trace", path, &render_trace_sections(sections)),
            None => Ok(()),
        }
    }

    /// Writes `records` as a `violation-report/1` document to the
    /// `--violations` path, if one was given.
    ///
    /// # Errors
    ///
    /// [`CliError::Failed`] when the file cannot be written.
    pub fn write_violations(
        &self,
        source: &str,
        records: Vec<ViolationRecord>,
    ) -> Result<(), CliError> {
        match &self.violations {
            Some(path) => {
                let body = ViolationReport::new(source, records).to_json();
                write_artifact("violations", path, &body)
            }
            None => Ok(()),
        }
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
    fn no_flag_leaves_positionals_untouched() {
        let cli = cli_from_args(&argv(&["500", "extra"])).unwrap();
        assert_eq!(cli.threads, default_threads());
        assert_eq!(cli.trace, None);
        assert_eq!(cli.violations, None);
        assert!(!cli.smoke);
        assert_eq!(cli.args, argv(&["500", "extra"]));
    }

    #[test]
    fn separate_and_equals_forms_parse() {
        let cli = cli_from_args(&argv(&["--threads", "4", "100"])).unwrap();
        assert_eq!(cli.threads, 4);
        assert_eq!(cli.args, argv(&["100"]));
        let cli = cli_from_args(&argv(&["100", "--threads=8"])).unwrap();
        assert_eq!(cli.threads, 8);
        assert_eq!(cli.args, argv(&["100"]));
    }

    #[test]
    fn shared_flags_parse_in_any_order_and_leave_the_rest() {
        let cli = cli_from_args(&argv(&[
            "--smoke",
            "--trace=t.jsonl",
            "--runs",
            "9",
            "--violations",
            "v.json",
            "--threads=2",
        ]))
        .unwrap();
        assert_eq!(cli.trace.as_deref(), Some(Path::new("t.jsonl")));
        assert_eq!(cli.violations.as_deref(), Some(Path::new("v.json")));
        assert_eq!(cli.threads, 2);
        assert!(cli.smoke);
        assert_eq!(cli.args, argv(&["--runs", "9"]));
    }

    #[test]
    fn malformed_flag_is_an_error_not_a_panic() {
        for bad in [
            &["--threads"][..],
            &["--threads", "many"],
            &["--threads=x"],
            &["--trace"],
            &["12", "--violations"],
        ] {
            assert!(
                matches!(cli_from_args(&argv(bad)), Err(CliError::Usage(_))),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn zero_threads_resolves_to_default() {
        let cli = cli_from_args(&argv(&["--threads", "0"])).unwrap();
        assert_eq!(cli.threads, default_threads());
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
        assert_eq!(run_command(&argv(&["--threads"]), |_| Ok(true)), 2);
    }

    #[test]
    fn thread_independence_check_compares_every_count() {
        assert!(check_thread_independence("t", &[1, 2, 4], |_| 7));
        assert!(!check_thread_independence("t", &[1, 2, 4], |t| u64::from(
            t == 4
        )));
    }
}

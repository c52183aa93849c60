//! `ledger`: run one workload of the performance ledger, check the
//! ledger against itself, or compare two sets of saved reports.
//!
//! ```text
//! ledger --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--out DIR]
//! ledger --check
//! ledger --compare A B
//! ```
//!
//! A run prints progress on standard error and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). The full report — host descriptor, spread,
//! digests — and the Chrome trace of a traced run are written under
//! `--out` (default `perfledger/out` in the repository).

use std::path::PathBuf;
use std::process::ExitCode;

use perfledger::run::{run, RunArgs};
use perfledger::workloads::{Size, NAMES, REFERENCE_SEED};

const USAGE: &str = "usage: ledger --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                     [--out DIR]\n       ledger --check\n       ledger --compare A B";

enum Command {
    Run { args: RunArgs, out: Option<PathBuf> },
    Check,
    Compare(PathBuf, PathBuf),
}

fn parse(argv: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = REFERENCE_SEED;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| format!("{flag}: `{text}` is not a number\n{USAGE}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let text = value()?;
                seed = text.parse().map_err(|_| number(text))?;
            }
            "--seconds" => {
                let text = value()?;
                seconds = text
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| number(text))?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`\n{USAGE}")),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--check" => return Ok(Command::Check),
            "--compare" => {
                let a = PathBuf::from(value()?);
                let b = PathBuf::from(value()?);
                return Ok(Command::Compare(a, b));
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            NAMES.join(", ")
        ));
    }
    Ok(Command::Run {
        args: RunArgs {
            workload,
            seed,
            seconds,
            traced,
            size: Size::Full,
        },
        out,
    })
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let root = || {
        let cwd = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        perfledger::repo_root(&cwd)
    };
    match parse(&argv)? {
        Command::Compare(a, b) => {
            perfledger::compare::compare(&a, &b, &mut std::io::stdout().lock())
        }
        Command::Check => {
            let errors = perfledger::check::check(&root()?);
            for error in &errors {
                eprintln!("ledger --check: {error}");
            }
            if errors.is_empty() {
                println!(
                    "ledger --check: {} workloads, every declared metric reported, no failures",
                    NAMES.len()
                );
            }
            Ok(errors.is_empty())
        }
        Command::Run { args, out } => {
            let root = root()?;
            let report = run(&args, &root)?;
            let host = perfledger::host_descriptor(&root);
            let dir = out.unwrap_or_else(|| root.join("perfledger/out"));
            let path = perfledger::write_report(&dir, &report, &host)?;
            for problem in &report.problems {
                eprintln!("ledger: {}: {problem}", report.workload);
            }
            if let Some(q) = report.spread {
                eprintln!(
                    "ledger: {} seed {}: whole passes ran at median {:.1} ns/op, IQR {:.2}% over {} passes",
                    report.workload,
                    report.seed,
                    q.p50,
                    q.rel_iqr() * 100.0,
                    q.n
                );
            }
            eprintln!("ledger: full report in {}", path.display());
            println!("{}", report.result_line());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

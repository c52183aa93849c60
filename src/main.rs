//! `mead-repro <command>` — the repository's one binary.
//!
//! This file is glue: the command table, `help` (generated from the
//! table), the unknown-command error, the `lint` command, and the one
//! place the process exits. Every other command is a library function
//! `fn(&[String]) -> i32` in the crate that owns the computation, where
//! the determinism contract (DESIGN §9) covers it. `lint` lives here
//! because this is the one crate that sees both the lint library and the
//! shared command-line plumbing of `experiments::cli`, and because it
//! needs the wall clock for `--timings`, which no library may read.

use std::path::PathBuf;
use std::time::Instant;

use experiments::{no_args_left, run_command, take_flag, take_switch, write_artifact, CliError};

/// One row of the command table: `(name, args, about, entry point)`;
/// `args` is the synopsis of every flag the command reads, and the entry
/// point takes the arguments after the name and returns the exit status.
type Command = (
    &'static str,
    &'static str,
    &'static str,
    fn(&[String]) -> i32,
);

const COMMANDS: [Command; 7] = [
    (
        "paper",
        "[--threads N] [--trace F] [invocations, default 10000]",
        "section 5 in one batch: Table 1, Figures 3-5, the 5.2.3 fail-over breakdown and the \
         5.2.5 jitter table -> results/",
        experiments::paper::cli_main,
    ),
    (
        "adaptive",
        "[--threads N] [--trace F] [invocations, default 3000]",
        "future work: preset 80/90 % thresholds vs the adaptive predictor, by leak speed \
         -> results/adaptive.txt",
        experiments::adaptive::cli_main,
    ),
    (
        "sweep",
        "[--threads N] [--trace F] [--smoke] [--violations F] [--report F] [scenario.toml]",
        "run a scenario file's fault-plan matrix under the chaos invariants (default \
         scenarios/sweep-full.toml; scenarios/chaos-campaign.toml is the chaos campaign)",
        experiments::sweep::cli_main,
    ),
    (
        "fleet",
        "[--threads N] [--smoke] [--scheme KEY] [clients]",
        "fleet-scale kernel throughput; the fleet digest must agree at 1, 2 and N threads",
        experiments::fleet::cli_main,
    ),
    (
        "explore",
        "[--threads N] [--seeded-bug [--trace F]] [--conflict-relation F] [--violations F]",
        "enumerate event interleavings of the pair and relaunch fixtures under every invariant",
        explore::cli_main,
    ),
    (
        "lint",
        "[--format text|json|sarif] [--timings] [--fsm-report F] [--conflict-report F] [--root D] \
         [--allow F]",
        "detlint: check the workspace against the determinism contract (R1-R12)",
        lint,
    ),
    (
        "digest-probe",
        "[--trace F]",
        "print the digests of a small fixed batch (compared across 32 fresh processes)",
        experiments::paper::digest_probe,
    ),
];

/// `mead-repro lint`: the lint library over the tree at `--root`
/// (default `.`), the allowlist at `--allow` (default
/// `<root>/lint-allow.toml`) and the protocol spec under the root. Exit
/// status 0 clean, 1 unsuppressed findings or an unwritable report, 2 a
/// bad flag or a configuration error: a malformed or stale allowlist, an
/// unreadable tree, a missing or malformed protocol spec.
fn lint(args: &[String]) -> i32 {
    // Wall-clock is fine here: the timings are diagnostics about the lint
    // run itself and never feed simulated behaviour or a digest.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let now_nanos = move || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    run_command(args, |mut args| {
        let render: fn(&lint::Report) -> String = match take_flag(&mut args, "--format")?.as_deref()
        {
            None | Some("text") => lint::Report::to_text,
            Some("json") => lint::Report::to_json,
            Some("sarif") => lint::sarif::render,
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "unknown --format `{other}` (expected text|json|sarif)"
                )))
            }
        };
        let timings = take_switch(&mut args, "--timings");
        let fsm_report = take_flag(&mut args, "--fsm-report")?;
        let conflict_report = take_flag(&mut args, "--conflict-report")?;
        let root = PathBuf::from(take_flag(&mut args, "--root")?.unwrap_or_else(|| ".".into()));
        let allow_path = take_flag(&mut args, "--allow")?
            .map_or_else(|| root.join("lint-allow.toml"), PathBuf::from);
        no_args_left(&args)?;

        let config = |e: lint::EngineError| CliError::Usage(e.to_string());
        let allow = lint::load_allow(&allow_path).map_err(config)?;
        let sources = lint::collect_sources(&root).map_err(config)?;
        let contract = lint::load_spec(&root, &lint::Contract::default()).map_err(config)?;
        let (ws, spent) = lint::Workspace::parse_timed(&sources, &now_nanos).map_err(config)?;
        let report = lint::lint_parsed(&ws, &contract, &allow).map_err(config)?;
        if !report.stale_allows.is_empty() {
            let stale: Vec<String> = report
                .stale_allows
                .iter()
                .map(|s| format!("{}:{s}", allow_path.display()))
                .collect();
            return Err(CliError::Usage(stale.join("\n")));
        }
        if let Some(path) = fsm_report {
            let json = lint::fsm_report(&ws, &contract).map_err(config)?;
            write_artifact("fsm report", path.as_ref(), &json)?;
        }
        if let Some(path) = conflict_report {
            let json = lint::conflict_report(&ws, &contract).map_err(config)?;
            write_artifact("conflict relation", path.as_ref(), &json)?;
        }
        if timings {
            eprint!(
                "{}",
                lint::timings(&sources, &ws, spent, &contract, &now_nanos)
            );
        }
        print!("{}", render(&report));
        Ok(report.findings.is_empty())
    })
}

fn help() -> String {
    let mut out = String::from(
        "usage: mead-repro <command> [args...]\n\
         A command rejects any flag it does not list. Flags take `--flag V` or `--flag=V`.\n\
         \x20 --threads N      worker threads (0/default = all cores)\n\
         \x20 --trace F        write the per-run observability traces (JSONL)\n\
         \x20 --smoke          the short fixed-shape CI configuration\n\
         \x20 --violations F   write the violation-report/1 document\n\n\
         commands:\n",
    );
    let rows = COMMANDS
        .iter()
        .map(|&(name, args, about, _)| (name, args, about))
        .chain([("help", "", "print this list")]);
    for (name, args, about) in rows {
        out.push_str(format!("  {name} {args}").trim_end());
        out.push_str(&format!("\n      {about}\n"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((name, _)) if name == "help" => {
            print!("{}", help());
            0
        }
        Some((name, rest)) => match COMMANDS.iter().find(|c| c.0 == name) {
            Some(&(.., run)) => run(rest),
            None => {
                eprintln!("error: unknown command `{name}`\n{}", help());
                2
            }
        },
        None => {
            eprintln!("error: no command given\n{}", help());
            2
        }
    };
    std::process::exit(code);
}

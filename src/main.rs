//! `mead-repro <command>` — the repository's one binary.
//!
//! This file is glue: the command table, `help` (generated from the
//! table), the unknown-command error, the wall clock `lint --timings`
//! needs, and the one place the process exits. Every command is a
//! library function `fn(&[String]) -> i32` in the crate that owns the
//! computation, where the determinism contract (DESIGN §9) covers it.

use std::time::Instant;

/// A command's entry point: the arguments after its name in, the exit
/// status out.
type Run = Box<dyn Fn(&[String]) -> i32>;

/// One row of the command table.
struct Command {
    name: &'static str,
    /// Synopsis of the arguments besides `--threads` and `--trace`.
    args: String,
    about: &'static str,
    run: Run,
}

/// A non-experiment command: `(name, args, about, entry point)`.
type Tool = (
    &'static str,
    &'static str,
    &'static str,
    fn(&[String]) -> i32,
);

const TOOLS: [Tool; 5] = [
    (
        "sweep",
        "[--smoke] [--violations F] [--report F] [scenario.toml]",
        "run a scenario file's fault-plan matrix under the chaos invariants (default \
         scenarios/sweep-full.toml; scenarios/chaos-campaign.toml is the chaos campaign)",
        experiments::sweep::cli_main,
    ),
    (
        "fleet",
        "[--smoke] [--scheme KEY] [clients]",
        "fleet-scale kernel throughput; the fleet digest must agree at 1, 2 and N threads",
        experiments::fleet::cli_main,
    ),
    (
        "explore",
        "[--smoke] [--seeded-bug] [--runs N] [--depth N] [--conflict-relation F] [--violations F]",
        "enumerate event interleavings of the pair and trio fixtures under every invariant",
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
        "",
        "print the digests of a small fixed batch (compared across 32 fresh processes)",
        experiments::paper::digest_probe,
    ),
];

/// The table: the eight paper experiments, then the tools.
fn commands() -> Vec<Command> {
    let experiments = experiments::EXPERIMENTS.iter().map(|exp| Command {
        name: exp.name,
        args: format!("[invocations, default {}]", exp.default_invocations),
        about: exp.about,
        run: Box::new(move |args| experiments::run_experiment(exp, args)),
    });
    let tools = TOOLS.into_iter().map(|(name, args, about, run)| Command {
        name,
        args: args.to_string(),
        about,
        run: Box::new(run),
    });
    experiments.chain(tools).collect()
}

/// `lint::cli_main_with_clock` on a monotonic wall clock. The lint
/// library is itself inside the determinism contract (R2 bans ambient
/// clocks in `crates/lint/src`), so the clock `--timings` needs lives
/// here and is injected.
fn lint(args: &[String]) -> i32 {
    // Wall-clock is fine here: the timings are diagnostics about the lint
    // run itself and never feed simulated behaviour or a digest.
    #[allow(clippy::disallowed_methods)]
    let start = Instant::now();
    let now_nanos = move || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    lint::cli_main_with_clock(args, &now_nanos)
}

fn help(table: &[Command]) -> String {
    let mut out = String::from(
        "usage: mead-repro <command> [--threads N] [--trace out.jsonl] [args...]\n\
         \x20 --threads N        worker threads (0/default = all cores)\n\
         \x20 --trace out.jsonl  dump the per-run observability traces\n\n\
         commands:\n",
    );
    let rows = table
        .iter()
        .map(|c| (c.name, c.args.as_str(), c.about))
        .chain([("help", "", "print this list")]);
    for (name, args, about) in rows {
        out.push_str(format!("  {name} {args}").trim_end());
        out.push_str(&format!("\n      {about}\n"));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let table = commands();
    let code = match args.split_first() {
        Some((name, _)) if name == "help" => {
            print!("{}", help(&table));
            0
        }
        Some((name, rest)) => match table.iter().find(|c| c.name == name) {
            Some(command) => (command.run)(rest),
            None => {
                eprintln!("error: unknown command `{name}`\n{}", help(&table));
                2
            }
        },
        None => {
            eprintln!("error: no command given\n{}", help(&table));
            2
        }
    };
    std::process::exit(code);
}

//! The paper's evaluation as one command. `mead-repro paper` runs the
//! simulations behind `results/` once, in one batch: the 13 cells of
//! [`paper_workload`] and the jitter table's fault-free baseline
//! ([`paper_runs`]). Table 1, the RTT traces of Figures 3 and 4,
//! Figure 5, the section 5.2.3 fail-over breakdown and the section 5.2.5
//! jitter table are renderers that pick their runs from that one
//! outcome list by pin key; [`paper_report`] writes them all. `adaptive`
//! ([`crate::adaptive::cli_main`]) is the other command that writes
//! `results/`, through the same driver.

use mead::RecoveryScheme;

use crate::cli::{
    no_args_left, nonzero, positional_or, run_command, take_flag, take_threads, write_artifact,
    write_trace, CliError,
};
use crate::failover::{format_failover, format_stages};
use crate::figures::{fig5_csv, fig5_point, format_fig5};
use crate::report::{
    failover_episodes_ms, format_table1, steady_state_rtt_ms, table1_row, trace_ascii, trace_csv,
};
use crate::runner::run_batch;
use crate::scenario::{paper_workload, run_scenario, ScenarioConfig, ScenarioOutcome};
use crate::stats::{mean_f64, Summary};

/// `paper`'s invocations per simulation when no count is given: the
/// paper's 10 000.
pub const DEFAULT_INVOCATIONS: u32 = 10_000;

/// What `paper` and `adaptive` render: the files they write and the
/// traces behind `--trace`.
#[derive(Debug)]
pub struct Report {
    /// `(path, contents)` of every `results/` file, in the order they
    /// are written; the `.txt` ones are also printed, in that order.
    pub files: Vec<(String, String)>,
    /// One observability trace per simulation, under its label, in run
    /// order.
    pub traces: Vec<(String, Vec<obs::TraceEvent>)>,
}

/// Runs a results command, `[--threads N] [--trace out.jsonl]
/// [invocations]`: writes every file of `build(invocations, threads)`,
/// prints its `.txt` files and writes its traces. Returns the process
/// exit status.
pub(crate) fn run_results_command(
    args: &[String],
    default_invocations: u32,
    build: fn(u32, usize) -> Report,
) -> i32 {
    run_command(args, |mut args| {
        let threads = take_threads(&mut args)?;
        let trace = take_flag(&mut args, "--trace")?;
        let invocations = nonzero("invocations", positional_or(&args, default_invocations)?)?;
        let report = build(invocations, threads);
        std::fs::create_dir_all("results")
            .map_err(|e| CliError::Failed(format!("cannot create results/: {e}")))?;
        for (path, body) in &report.files {
            write_artifact("results", path.as_ref(), body)?;
        }
        for (path, body) in &report.files {
            if path.ends_with(".txt") {
                print!("{body}");
            }
        }
        let sections: Vec<_> = report
            .traces
            .iter()
            .map(|(label, events)| (label.clone(), events.as_slice()))
            .collect();
        write_trace(trace, &sections)?;
        Ok(true)
    })
}

/// `mead-repro paper [--threads N] [--trace out.jsonl] [invocations]`.
pub fn cli_main(args: &[String]) -> i32 {
    run_results_command(args, DEFAULT_INVOCATIONS, paper_report)
}

/// Every simulation `paper` runs, under its `pins.toml` key: each
/// [`paper_workload`] cell as `paper/<label>`, then its first cell, the
/// baseline (reactive without cache), without faults (OS noise only) as
/// `jitter/fault-free`.
pub fn paper_runs(invocations: u32) -> Vec<(String, ScenarioConfig)> {
    let mut runs: Vec<_> = paper_workload(invocations)
        .into_iter()
        .map(|(label, cfg)| (format!("paper/{label}"), cfg))
        .collect();
    let fault_free = ScenarioConfig {
        fault_free: true,
        ..runs[0].1.clone()
    };
    runs.push(("jitter/fault-free".to_string(), fault_free));
    runs
}

/// Table 1's cells, in `RecoveryScheme::ALL` order: the baseline
/// (reactive without cache) first, then the other reactive scheme and
/// the three that migrate clients. Figure 3 is the first two.
const TABLE1: &str = "paper/table1/";

/// Figure 5's threshold sweep, LOCATION_FORWARD and then MEAD, each from
/// 20 % to 80 %.
const FIG5: &str = "paper/fig5/";

/// Figure 4's three proactive schemes at the 80 % threshold of its
/// captions. NEEDS_ADDRESSING migrates nobody and acts only at its
/// launch threshold, which is 80 % in its Table 1 cell: that cell is
/// its run.
const FIG4: [&str; 3] = [
    "paper/table1/NEEDS_ADDRESSING_Mode",
    "paper/fig5/LOCATION_FORWARD@80",
    "paper/fig5/MEAD_Message@80",
];

/// The section 5.2.5 rows: the fault-free baseline, each scheme at the
/// default threshold, and the MEAD scheme at the aggressive 20 %.
const JITTER: [&str; 3] = ["jitter/fault-free", TABLE1, "paper/fig5/MEAD_Message@20"];

/// `paper`'s outcomes, each beside its pin key and config.
struct Runs(Vec<(String, ScenarioConfig, ScenarioOutcome)>);

impl Runs {
    /// For each of `prefixes` in turn, the runs whose key starts with
    /// it, in run order. Panics on a prefix of no run (the prefixes are
    /// constants of this module).
    fn pick(&self, prefixes: &[&str]) -> Vec<(&ScenarioConfig, &ScenarioOutcome)> {
        let mut picked = Vec::new();
        for prefix in prefixes {
            let under = self.0.iter().filter(|(key, ..)| key.starts_with(prefix));
            let before = picked.len();
            picked.extend(under.map(|(_, cfg, out)| (cfg, out)));
            assert!(picked.len() > before, "no paper run under `{prefix}`");
        }
        picked
    }
}

/// Runs [`paper_runs`] on up to `threads` worker threads and renders
/// every `results/` file of section 5 from the outcomes.
pub fn paper_report(invocations: u32, threads: usize) -> Report {
    let runs = paper_runs(invocations);
    let configs: Vec<_> = runs.iter().map(|(_, cfg)| cfg.clone()).collect();
    let runs = Runs(
        runs.into_iter()
            .zip(run_batch(&configs, threads))
            .map(|((key, cfg), out)| (key, cfg, out))
            .collect(),
    );
    let mut files = vec![("results/table1.txt".into(), table1(&runs))];
    files.extend(rtt_figure(3, &runs.pick(&[TABLE1])[..2]));
    files.extend(rtt_figure(4, &runs.pick(&FIG4)));
    files.extend(fig5(&runs));
    files.extend([
        ("results/failover.txt".into(), failover(&runs, invocations)),
        ("results/jitter.txt".into(), jitter(&runs)),
    ]);
    let traces = runs.0.into_iter().map(|(key, _, out)| (key, out.trace));
    Report {
        files,
        traces: traces.collect(),
    }
}

fn table1(runs: &Runs) -> String {
    let cells = runs.pick(&[TABLE1]);
    let (baseline_cfg, baseline) = cells[0];
    let baseline_steady = steady_state_rtt_ms(baseline);
    let baseline_failover = mean_f64(&failover_episodes_ms(baseline, baseline_cfg.scheme));
    let rows: Vec<_> = cells
        .iter()
        .map(|(cfg, out)| table1_row(out, cfg.scheme, baseline_steady, baseline_failover))
        .collect();
    format!(
        "\nTable 1: overhead and fail-over times (paper values in DESIGN/EXPERIMENTS docs)\n\n{}\n",
        format_table1(&rows)
    )
}

/// Figures 3 and 4 share a shape: one CSV per trace, then one ASCII
/// preview of them all.
fn rtt_figure(figure: u32, cells: &[(&ScenarioConfig, &ScenarioOutcome)]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    let mut preview = String::new();
    for (cfg, outcome) in cells {
        let name = cfg.scheme.name();
        let file = name.replace(' ', "_").to_lowercase();
        let path = format!("results/fig{figure}_{file}.csv");
        preview += &format!(
            "\n=== Figure {figure}: {name} (RTT, 0-20ms scale) -> {path} ===\n{}\n",
            trace_ascii(outcome, 40, 20.0)
        );
        files.push((path, trace_csv(outcome)));
    }
    files.push((format!("results/fig{figure}_preview.txt"), preview));
    files
}

fn fig5(runs: &Runs) -> [(String, String); 2] {
    let pct = |cfg: &ScenarioConfig| threshold_pct(cfg).expect("a fig5 cell sets its threshold");
    let points: Vec<_> = runs
        .pick(&[FIG5])
        .iter()
        .map(|(cfg, out)| fig5_point(cfg.scheme, pct(cfg), out))
        .collect();
    let text = format!(
        "\nFigure 5: effect of varying the rejuvenation threshold\n\n{}\n\
         (paper: ~6,000 B/s at 80% rising to ~10,000 B/s at 20%)\n",
        format_fig5(&points)
    );
    [
        ("results/fig5.csv".into(), fig5_csv(&points)),
        ("results/fig5.txt".into(), text),
    ]
}

/// Episodes measured from every scheme's invocation records, then the
/// stages of the migrating schemes' episodes, rebuilt from their traces.
fn failover(runs: &Runs, invocations: u32) -> String {
    let cells = runs.pick(&[TABLE1]);
    // The reactive schemes never migrate a client, so they have no
    // episodes to decompose.
    format!(
        "\nFail-over decomposition (section 5.2.3)\n\n{}\n\
         Fail-over stages from traces (seed 42, {invocations} invocations)\n\n{}",
        format_failover(&cells),
        format_stages(&cells[2..])
    )
}

/// A cell's migrate threshold in percent (`None`: the paper's default).
fn threshold_pct(cfg: &ScenarioConfig) -> Option<u32> {
    cfg.threshold.map(|t| (t * 100.0).round() as u32)
}

/// The jitter table (section 5.2.5): for each row, the mean and standard
/// deviation of its round trips, the share of invocations above mean +
/// 3σ and the largest spike, the initial naming spike excluded.
///
/// The paper reports spikes exceeding the mean by 3σ in 1–2.5 % of
/// invocations for all schemes; a fault-free maximum spike of 2.3 ms;
/// one ~30 ms spike (0.01 % of runs) in the GIOP proactive schemes below
/// the 80 % threshold (a client reaching a newly restarted server that
/// is still updating its group membership); and a 6.9 ms maximum for
/// MEAD messages at the 20 % threshold.
fn jitter(runs: &Runs) -> String {
    let mut table = String::from(
        "Condition                     | mean (ms) | std (ms) | >3-sigma | max spike (ms)\n\
         ------------------------------+-----------+----------+----------+---------------\n",
    );
    for (cfg, outcome) in runs.pick(&JITTER) {
        let name = cfg.scheme.name();
        let label = match threshold_pct(cfg) {
            _ if cfg.fault_free => "fault-free".to_string(),
            Some(pct) => format!("{name} @ {pct}% threshold"),
            None => name.to_string(),
        };
        // The initial resolution spike is reported separately.
        let rtts: Vec<f64> = outcome
            .report()
            .records
            .iter()
            .skip(1)
            .map(|r| r.rtt_ms())
            .collect();
        let (mean, std, outliers, max) = Summary::of(&rtts)
            .map_or((f64::NAN, f64::NAN, 0.0, f64::NAN), |s| {
                (s.mean, s.std_dev, s.three_sigma_outliers(&rtts).1, s.max)
            });
        table += &format!(
            "{label:<29} | {mean:>9.3} | {std:>8.3} | {:>7.2}% | {max:>13.2}\n",
            outliers * 100.0
        );
    }
    format!(
        "\nJitter (section 5.2.5): paper reports 1-2.5% outliers, 2.3ms fault-free max\n\n{table}\n"
    )
}

/// `mead-repro digest-probe [--trace out.jsonl]`: prints the outcome
/// digests of a small fixed scenario batch, one hex line per scenario.
///
/// Each OS process gets a different `HashMap` seed, so running the probe
/// in N fresh processes and comparing stdout catches any hash-order
/// dependence anywhere in the stack — the failure mode detlint R1 guards
/// against statically. `tests/digest_stability.rs` spawns it 32 times
/// and asserts bit-identical output.
pub fn digest_probe(args: &[String]) -> i32 {
    run_command(args, |mut args| {
        let trace = take_flag(&mut args, "--trace")?;
        no_args_left(&args)?;
        let configs = [
            ScenarioConfig::quick(RecoveryScheme::MeadFailover, 200),
            ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 200),
            ScenarioConfig {
                seed: 11,
                ..ScenarioConfig::quick(RecoveryScheme::LocationForward, 200)
            },
        ];
        let outcomes: Vec<_> = configs.iter().map(run_scenario).collect();
        for out in &outcomes {
            println!("{:016x}", out.digest());
        }
        let sections: Vec<_> = configs
            .iter()
            .zip(&outcomes)
            .map(|(c, out)| {
                (
                    format!("{}/seed{}", c.scheme.name(), c.seed),
                    out.trace.as_slice(),
                )
            })
            .collect();
        write_trace(trace, &sections)?;
        Ok(true)
    })
}

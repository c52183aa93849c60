//! The paper's evaluation as one table: each [`Experiment`] row names a
//! `mead-repro` command, its default invocation count and the function
//! that turns `(invocations, threads)` into a [`Report`] — the text to
//! print, the `results/` files to write and the labelled traces behind
//! `--trace`. [`run_experiment`] is the one driver for all eight rows.
//! The seven section-5 rows run cells of
//! [`paper_workload`](crate::scenario::paper_workload), named by label;
//! only `jitter` adds a run of its own, a fault-free copy of the baseline
//! cell.

use mead::RecoveryScheme;

use crate::adaptive::{format_adaptive, run_adaptive_comparison};
use crate::cli::{
    no_args_left, nonzero, positional_or, run_command, take_flag, take_threads, write_artifact,
    write_trace, CliError,
};
use crate::failover::{failover_row_from, format_failover};
use crate::figures::{fig5_csv, fig5_point, format_fig5};
use crate::jitter::{format_jitter, jitter_stats};
use crate::report::{
    failover_episodes_ms, format_table1, steady_state_rtt_ms, table1_row, trace_ascii, trace_csv,
};
use crate::runner::run_batch;
use crate::scenario::{paper_cells, run_scenario, ScenarioConfig, ScenarioOutcome};
use crate::stats::mean_f64;

/// Everything one experiment run hands back to the driver.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The stdout text, trailing newline included.
    pub text: String,
    /// `(path, contents)` of every `results/` file the run regenerates.
    pub files: Vec<(String, String)>,
    /// One labelled observability trace per simulation, in run order.
    pub traces: Vec<(String, Vec<obs::TraceEvent>)>,
}

/// One row of the experiment table.
#[derive(Clone, Copy, Debug)]
pub struct Experiment {
    /// Command name (`mead-repro <name>`).
    pub name: &'static str,
    /// One-line description for `mead-repro help`.
    pub about: &'static str,
    /// Invocations per simulation when no positional count is given.
    pub default_invocations: u32,
    /// Runs the experiment at `(invocations, threads)`, seed 42.
    pub run: fn(u32, usize) -> Report,
}

/// The eight experiments of section 5, in paper order.
pub const EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "table1",
        about: "Table 1: overhead, client failures and fail-over time of all five schemes",
        default_invocations: 10_000,
        run: table1,
    },
    Experiment {
        name: "fig3",
        about: "Figure 3: RTT traces of the reactive schemes -> results/fig3_*.csv",
        default_invocations: 10_000,
        run: fig3,
    },
    Experiment {
        name: "fig4",
        about: "Figure 4: RTT traces of the proactive schemes at 80 % -> results/fig4_*.csv",
        default_invocations: 10_000,
        run: fig4,
    },
    Experiment {
        name: "fig5",
        about: "Figure 5: group-communication bandwidth vs threshold -> results/fig5.csv",
        default_invocations: 10_000,
        run: fig5,
    },
    Experiment {
        name: "failover",
        about: "section 5.2.3: measured fail-over episodes next to the cost-model budget",
        default_invocations: 10_000,
        run: failover,
    },
    Experiment {
        name: "breakdown",
        about: "section 5.2.3 from traces alone: per-stage fail-over tables and RTT jitter",
        default_invocations: 10_000,
        run: breakdown,
    },
    Experiment {
        name: "jitter",
        about: "section 5.2.5: 3-sigma outlier rates and maximum spikes per scheme",
        default_invocations: 10_000,
        run: jitter,
    },
    Experiment {
        name: "adaptive",
        about: "future work: preset 80/90 % thresholds vs the adaptive predictor, by leak speed",
        default_invocations: 3000,
        run: adaptive,
    },
];

/// Runs `exp` as a command: `[--threads N] [--trace out.jsonl]
/// [invocations]`. Returns the process exit status.
pub fn run_experiment(exp: &Experiment, args: &[String]) -> i32 {
    run_command(args, |mut args| {
        let threads = take_threads(&mut args)?;
        let trace = take_flag(&mut args, "--trace")?;
        let invocations = nonzero(
            "invocations",
            positional_or(&args, exp.default_invocations)?,
        )?;
        let report = (exp.run)(invocations, threads);
        if !report.files.is_empty() {
            std::fs::create_dir_all("results")
                .map_err(|e| CliError::Failed(format!("cannot create results/: {e}")))?;
        }
        for (path, body) in &report.files {
            write_artifact("results", path.as_ref(), body)?;
        }
        print!("{}", report.text);
        let sections: Vec<_> = report
            .traces
            .iter()
            .map(|(label, events)| (label.clone(), events.as_slice()))
            .collect();
        write_trace(trace, &sections)?;
        Ok(true)
    })
}

impl Report {
    /// A report with no `results/` files: `text`, and the trace of every
    /// `(row, outcome)` cell under `label(row)`.
    fn of<R>(
        text: String,
        cells: Vec<(R, ScenarioOutcome)>,
        label: impl Fn(&R) -> String,
    ) -> Report {
        Report {
            text,
            files: Vec::new(),
            traces: cells
                .into_iter()
                .map(|(row, out)| (label(&row), out.trace))
                .collect(),
        }
    }
}

/// Table 1's cells, the baseline (reactive without cache) first, then the
/// other reactive scheme and the three that migrate clients.
const TABLE1: [&str; 5] = [
    "table1/Reactive_Without_Cache",
    "table1/Reactive_With_Cache",
    "table1/NEEDS_ADDRESSING_Mode",
    "table1/LOCATION_FORWARD",
    "table1/MEAD_Message",
];

/// Figure 5's threshold sweep.
const FIG5: [&str; 8] = [
    "fig5/LOCATION_FORWARD@20",
    "fig5/LOCATION_FORWARD@40",
    "fig5/LOCATION_FORWARD@60",
    "fig5/LOCATION_FORWARD@80",
    "fig5/MEAD_Message@20",
    "fig5/MEAD_Message@40",
    "fig5/MEAD_Message@60",
    "fig5/MEAD_Message@80",
];

/// Figure 4's three proactive schemes at the 80 % threshold of its
/// captions. NEEDS_ADDRESSING migrates nobody and acts only at its
/// launch threshold, which is 80 % in its Table 1 cell: that cell is
/// its run.
const FIG4: [&str; 3] = [
    "table1/NEEDS_ADDRESSING_Mode",
    "fig5/LOCATION_FORWARD@80",
    "fig5/MEAD_Message@80",
];

/// Runs `configs` on up to `threads` worker threads; each outcome stays
/// next to its config.
fn run_cells(
    configs: Vec<ScenarioConfig>,
    threads: usize,
) -> Vec<(ScenarioConfig, ScenarioOutcome)> {
    let outcomes = run_batch(&configs, threads);
    configs.into_iter().zip(outcomes).collect()
}

fn scheme_name(cfg: &ScenarioConfig) -> String {
    cfg.scheme.name().to_string()
}

/// A cell's migrate threshold in percent (`None`: the paper's default).
fn threshold_pct(cfg: &ScenarioConfig) -> Option<u32> {
    cfg.threshold.map(|t| (t * 100.0).round() as u32)
}

fn table1(invocations: u32, threads: usize) -> Report {
    let cells = run_cells(paper_cells(&TABLE1, invocations), threads);
    let (baseline_cfg, baseline) = &cells[0];
    let baseline_steady = steady_state_rtt_ms(baseline);
    let baseline_failover = mean_f64(&failover_episodes_ms(baseline, baseline_cfg.scheme));
    let rows: Vec<_> = cells
        .iter()
        .map(|(cfg, out)| table1_row(out, cfg.scheme, baseline_steady, baseline_failover))
        .collect();
    let text = format!(
        "\nTable 1: overhead and fail-over times (paper values in DESIGN/EXPERIMENTS docs)\n\n{}\n",
        format_table1(&rows)
    );
    Report::of(text, cells, scheme_name)
}

/// Figures 3 and 4 share a shape: one CSV and one ASCII preview per trace.
fn rtt_figure(figure: u32, labels: &[&str], invocations: u32, threads: usize) -> Report {
    let mut report = Report::default();
    for (cfg, outcome) in run_cells(paper_cells(labels, invocations), threads) {
        let name = cfg.scheme.name();
        let file = name.replace(' ', "_").to_lowercase();
        let path = format!("results/fig{figure}_{file}.csv");
        report.text += &format!(
            "\n=== Figure {figure}: {name} (RTT, 0-20ms scale) -> {path} ===\n{}\n",
            trace_ascii(&outcome, 40, 20.0)
        );
        report.files.push((path, trace_csv(&outcome)));
        report.traces.push((name.to_string(), outcome.trace));
    }
    report
}

fn fig3(invocations: u32, threads: usize) -> Report {
    rtt_figure(3, &TABLE1[..2], invocations, threads)
}

fn fig4(invocations: u32, threads: usize) -> Report {
    rtt_figure(4, &FIG4, invocations, threads)
}

fn fig5(invocations: u32, threads: usize) -> Report {
    let cells = run_cells(paper_cells(&FIG5, invocations), threads);
    let pct = |cfg: &ScenarioConfig| threshold_pct(cfg).expect("a fig5 cell sets its threshold");
    let points: Vec<_> = cells
        .iter()
        .map(|(cfg, out)| fig5_point(cfg.scheme, pct(cfg), out))
        .collect();
    let text = format!(
        "\nFigure 5: effect of varying the rejuvenation threshold\n\n{}\n\
         (paper: ~6,000 B/s at 80% rising to ~10,000 B/s at 20%)\n",
        format_fig5(&points)
    );
    let label = |cfg: &ScenarioConfig| format!("{}@{}%", cfg.scheme.name(), pct(cfg));
    Report {
        files: vec![("results/fig5.csv".to_string(), fig5_csv(&points))],
        ..Report::of(text, cells, label)
    }
}

fn failover(invocations: u32, threads: usize) -> Report {
    let cells = run_cells(paper_cells(&TABLE1, invocations), threads);
    let rows: Vec<_> = cells
        .iter()
        .map(|(cfg, out)| failover_row_from(cfg.scheme, out))
        .collect();
    let text = format!(
        "\nFail-over decomposition (section 5.2.3)\n\n{}\n",
        format_failover(&rows)
    );
    Report::of(text, cells, scheme_name)
}

/// Unlike [`failover`] (which measures episodes from the workload's
/// invocation records), every number here is derived from the
/// observability trace alone — the same events `--trace` dumps — so the
/// report is reproducible from a trace file without re-running anything.
fn breakdown(invocations: u32, threads: usize) -> Report {
    // The three schemes that actually migrate clients (the reactive
    // schemes never recover, so they have no episodes to decompose).
    let cells = run_cells(paper_cells(&TABLE1[2..], invocations), threads);
    let ms = |ns: u64| ns as f64 / 1_000_000.0;

    let mut text = format!(
        "\nFail-over breakdown from traces (section 5.2.3, seed 42, {invocations} invocations)\n\n"
    );
    for (cfg, out) in &cells {
        let eps = out.episodes();
        text += &format!(
            "{} — {} episodes\n\
             \x20 stage         | samples | mean (ms) |  min (ms) |  max (ms)\n\
             \x20 --------------+---------+-----------+-----------+----------\n",
            cfg.scheme.name(),
            eps.len()
        );
        for (name, s) in obs::STAGE_NAMES.iter().zip(&obs::stage_table(&eps)) {
            text += &format!(
                "  {name:<13} | {:>7} | {:>9.3} | {:>9.3} | {:>9.3}\n",
                s.samples,
                ms(s.mean_ns),
                ms(s.min_ns),
                ms(s.max_ns),
            );
        }
        text.push('\n');
    }
    text += "Round-trip jitter (steady state, first invocation excluded)\n\n\
             \x20 scheme                   | mean (ms) |  std (ms) | >3-sigma | max spike (ms)\n\
             \x20 -------------------------+-----------+-----------+----------+---------------\n";
    for (cfg, out) in &cells {
        let j = jitter_stats(cfg.scheme.name(), out);
        text += &format!(
            "  {:<24} | {:>9.3} | {:>9.3} | {:>7.2}% | {:>14.3}\n",
            j.label,
            j.mean_ms,
            j.std_ms,
            j.outlier_fraction * 100.0,
            j.max_spike_ms,
        );
    }
    Report::of(text, cells, scheme_name)
}

fn jitter_label(cfg: &ScenarioConfig) -> String {
    let name = cfg.scheme.name();
    match threshold_pct(cfg) {
        _ if cfg.fault_free => "fault-free".to_string(),
        Some(pct) => format!("{name} @ {pct}% threshold"),
        None => name.to_string(),
    }
}

/// A fault-free run of the baseline (OS noise only), each scheme at the
/// default threshold, and the MEAD scheme at the aggressive 20 %.
fn jitter(invocations: u32, threads: usize) -> Report {
    let mut configs = paper_cells(
        &[&TABLE1[..], &["fig5/MEAD_Message@20"]].concat(),
        invocations,
    );
    configs.insert(
        0,
        ScenarioConfig {
            fault_free: true,
            ..configs[0].clone()
        },
    );
    let cells = run_cells(configs, threads);
    let rows: Vec<_> = cells
        .iter()
        .map(|(cfg, out)| jitter_stats(jitter_label(cfg), out))
        .collect();
    let text = format!(
        "\nJitter (section 5.2.5): paper reports 1-2.5% outliers, 2.3ms fault-free max\n\n{}\n",
        format_jitter(&rows)
    );
    Report::of(text, cells, jitter_label)
}

fn adaptive(invocations: u32, threads: usize) -> Report {
    let cells = run_adaptive_comparison(invocations, 42, threads);
    let text = format!(
        "\nAdaptive vs preset thresholds (MEAD scheme, {invocations} invocations per cell)\n\n{}\n\
         preset thresholds assume a known fault speed; the adaptive trigger\n\
         fires on predicted time-to-exhaustion and handles all speeds.\n",
        format_adaptive(&cells.iter().map(|(row, _)| row.clone()).collect::<Vec<_>>())
    );
    Report::of(text, cells, |row| {
        format!("{}@{}x", row.strategy, row.speed)
    })
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

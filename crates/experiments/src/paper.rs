//! The paper's evaluation as one table: each [`Experiment`] row names a
//! `mead-repro` command, its default invocation count and the function
//! that turns `(invocations, threads)` into a [`Report`] — the text to
//! print, the `results/` files to write and the labelled traces behind
//! `--trace`. [`run_experiment`] is the one driver for all eight rows.

use mead::RecoveryScheme;

use crate::adaptive::{format_adaptive, run_adaptive_comparison};
use crate::cli::{positional_or, run_command, write_artifact, CliError};
use crate::failover::{failover_rows, format_failover};
use crate::figures::{fig5_csv, format_fig5, run_fig3, run_fig4, run_fig5, Fig5Point, Trace};
use crate::jitter::{format_jitter, jitter_stats, run_jitter_suite};
use crate::report::{format_table1, run_table1, trace_ascii, trace_csv};
use crate::runner::run_batch;
use crate::scenario::{run_scenario, ScenarioConfig, ScenarioOutcome};

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
    run_command(args, |cli| {
        let invocations = positional_or(&cli.args, 0, exp.default_invocations);
        let report = (exp.run)(invocations, cli.threads);
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
            .map(|(label, trace)| (label.clone(), trace.as_slice()))
            .collect();
        cli.write_trace(&sections)?;
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

fn rows<R: Clone>(cells: &[(R, ScenarioOutcome)]) -> Vec<R> {
    cells.iter().map(|(row, _)| row.clone()).collect()
}

fn table1(invocations: u32, threads: usize) -> Report {
    let cells = run_table1(invocations, 42, threads);
    let text = format!(
        "\nTable 1: overhead and fail-over times (paper values in DESIGN/EXPERIMENTS docs)\n\n{}\n",
        format_table1(&rows(&cells))
    );
    Report::of(text, cells, |row| row.scheme.name().to_string())
}

/// Figures 3 and 4 share a shape: one CSV and one ASCII preview per trace.
fn rtt_figure(figure: u32, traces: Vec<Trace>) -> Report {
    let mut report = Report::default();
    for trace in traces {
        let name = trace.scheme.name();
        let file = name.replace(' ', "_").to_lowercase();
        let path = format!("results/fig{figure}_{file}.csv");
        report.text += &format!(
            "\n=== Figure {figure}: {name} (RTT, 0-20ms scale) -> {path} ===\n{}\n",
            trace_ascii(&trace.outcome, 40, 20.0)
        );
        report.files.push((path, trace_csv(&trace.outcome)));
        report.traces.push((name.to_string(), trace.outcome.trace));
    }
    report
}

fn fig3(invocations: u32, threads: usize) -> Report {
    rtt_figure(3, run_fig3(invocations, 42, threads))
}

fn fig4(invocations: u32, threads: usize) -> Report {
    rtt_figure(4, run_fig4(invocations, 42, threads))
}

fn fig5(invocations: u32, threads: usize) -> Report {
    let cells = run_fig5(invocations, 42, &[20, 40, 60, 80], threads);
    let points = rows(&cells);
    let text = format!(
        "\nFigure 5: effect of varying the rejuvenation threshold\n\n{}\n\
         (paper: ~6,000 B/s at 80% rising to ~10,000 B/s at 20%)\n",
        format_fig5(&points)
    );
    let label = |p: &Fig5Point| format!("{}@{}%", p.scheme.name(), p.threshold_pct);
    Report {
        files: vec![("results/fig5.csv".to_string(), fig5_csv(&points))],
        ..Report::of(text, cells, label)
    }
}

fn failover(invocations: u32, threads: usize) -> Report {
    let cells = failover_rows(invocations, 42, threads);
    let text = format!(
        "\nFail-over decomposition (section 5.2.3)\n\n{}\n",
        format_failover(&rows(&cells))
    );
    Report::of(text, cells, |row| row.scheme.name().to_string())
}

/// Unlike [`failover`] (which measures episodes from the workload's
/// invocation records), every number here is derived from the
/// observability trace alone — the same events `--trace` dumps — so the
/// report is reproducible from a trace file without re-running anything.
fn breakdown(invocations: u32, threads: usize) -> Report {
    // The three schemes that actually migrate clients (the reactive
    // schemes never recover, so they have no episodes to decompose).
    const SCHEMES: [RecoveryScheme; 3] = [
        RecoveryScheme::NeedsAddressing,
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ];
    let ms = |ns: u64| ns as f64 / 1_000_000.0;
    let configs = SCHEMES.map(|scheme| ScenarioConfig {
        invocations,
        ..ScenarioConfig::paper(scheme)
    });
    let cells: Vec<_> = SCHEMES
        .into_iter()
        .zip(run_batch(&configs, threads))
        .collect();

    let mut text = format!(
        "\nFail-over breakdown from traces (section 5.2.3, seed 42, {invocations} invocations)\n\n"
    );
    for (scheme, out) in &cells {
        let eps = out.episodes();
        text += &format!(
            "{} — {} episodes\n\
             \x20 stage         | samples | mean (ms) |  min (ms) |  max (ms)\n\
             \x20 --------------+---------+-----------+-----------+----------\n",
            scheme.name(),
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
    for (scheme, out) in &cells {
        let j = jitter_stats(scheme.name(), out);
        text += &format!(
            "  {:<24} | {:>9.3} | {:>9.3} | {:>7.2}% | {:>14.3}\n",
            j.label,
            j.mean_ms,
            j.std_ms,
            j.outlier_fraction * 100.0,
            j.max_spike_ms,
        );
    }
    Report::of(text, cells, |scheme| scheme.name().to_string())
}

fn jitter(invocations: u32, threads: usize) -> Report {
    let cells = run_jitter_suite(invocations, 42, threads);
    let text = format!(
        "\nJitter (section 5.2.5): paper reports 1-2.5% outliers, 2.3ms fault-free max\n\n{}\n",
        format_jitter(&rows(&cells))
    );
    Report::of(text, cells, |row| row.label.clone())
}

fn adaptive(invocations: u32, threads: usize) -> Report {
    let cells = run_adaptive_comparison(invocations, 42, threads);
    let text = format!(
        "\nAdaptive vs preset thresholds (MEAD scheme, {invocations} invocations per cell)\n\n{}\n\
         preset thresholds assume a known fault speed; the adaptive trigger\n\
         fires on predicted time-to-exhaustion and handles all speeds.\n",
        format_adaptive(&rows(&cells))
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
    run_command(args, |cli| {
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
        cli.write_trace(&sections)?;
        Ok(true)
    })
}

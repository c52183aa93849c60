//! # experiments — regenerating the paper's evaluation
//!
//! Drivers for every table and figure of *Proactive Recovery in
//! Distributed CORBA Applications* (DSN 2004); see `DESIGN.md` for the
//! experiment index. The private `testbed` module assembles, boots and
//! drives the five-node topology for every simulation; [`scenario`] runs
//! the paper's experiment on it and defines its 13 cells once, in
//! [`paper_workload`]; [`workload`] is the measuring client. Each paper
//! command selects its cells from `paper_workload` by label and turns
//! the outcomes into rows with the builders of [`report`], [`figures`],
//! [`failover`] and [`jitter`]. The
//! command-line surface is [`paper::EXPERIMENTS`] (eight rows run by
//! [`run_experiment`]) plus [`sweep::cli_main`], [`fleet::cli_main`] and
//! [`paper::digest_probe`], each taking the flags it reads through
//! [`cli`]; the one
//! binary that dispatches to them is the root package's `mead-repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod cli;
pub mod counter;
pub mod failover;
pub mod figures;
pub mod fleet;
pub mod jitter;
pub mod paper;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod sweep;
mod testbed;
pub mod workload;

pub use adaptive::{format_adaptive, run_adaptive_comparison, AdaptiveRow};
pub use chaos::{
    chaos_plan_space_for, run_chaos_plan, run_chaos_plan_with, ChaosBoot, ChaosConfig,
    ChaosOutcome, ServantMutation,
};
pub use cli::{
    check_thread_independence, no_args_left, nonzero, positional_or, render_trace_sections,
    run_command, take_flag, take_number, take_switch, take_threads, write_artifact, write_trace,
    write_violations, CliError,
};
pub use counter::{counter_key, run_counter_scenario, CounterConfig, CounterOutcome};
pub use failover::{failover_row_from, format_failover, model_budget, FailoverRow};
pub use figures::{fig5_csv, fig5_point, format_fig5, Fig5Point};
pub use fleet::{group_configs, run_fleet, FleetConfig, FleetOutcome};
pub use jitter::{format_jitter, jitter_stats, JitterStats};
pub use paper::{run_experiment, Experiment, Report, EXPERIMENTS};
pub use report::{
    failover_episodes_ms, format_table1, steady_state_rtt_ms, table1_row, trace_ascii, trace_csv,
    Table1Row, ViolationRecord, ViolationReport, VIOLATION_REPORT_SCHEMA,
};
pub use runner::{default_threads, run_batch, run_batch_with};
pub use scenario::{
    paper_workload, run_scenario, ScenarioConfig, ScenarioOutcome, CLIENTS_PER_NODE,
};
pub use stats::{percentile, Summary};
pub use sweep::{
    expand_sweep, format_sweep, parse_sweep, run_sweep, CellError, SweepOutcome, SweepSpec,
    SweepUnit, TopologySpec,
};
pub use workload::{
    ClientPolicy, ClientWorkload, InvocationRecord, ReportHandle, WorkloadConfig, WorkloadReport,
};

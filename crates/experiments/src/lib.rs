//! # experiments — regenerating the paper's evaluation
//!
//! Drivers for every table and figure of *Proactive Recovery in
//! Distributed CORBA Applications* (DSN 2004); see `DESIGN.md` for the
//! experiment index. The private `testbed` module assembles, boots and
//! drives the five-node topology for every simulation; [`scenario`] runs
//! the paper's experiment on it and defines its 13 cells once, in
//! [`paper_workload`]; [`workload`] is the measuring client. The `paper`
//! command ([`paper::cli_main`]) runs those cells and the jitter table's
//! fault-free baseline once, in one batch ([`paper_runs`]), and renders
//! every `results/` file of section 5 from the outcomes with the
//! builders of [`report`], [`figures`] and [`failover`]. The rest of the
//! command-line surface is [`adaptive::cli_main`], [`sweep::cli_main`],
//! [`fleet::cli_main`] and [`paper::digest_probe`], each taking the flags
//! it reads through [`cli`]; the one binary that dispatches to them is
//! the root package's `mead-repro`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod chaos;
pub mod cli;
pub mod counter;
pub mod failover;
pub mod figures;
pub mod fleet;
pub mod paper;
pub mod pins;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod stats;
pub mod sweep;
mod testbed;
pub mod workload;

pub use adaptive::{run_adaptive_comparison, AdaptiveRow};
pub use chaos::{
    chaos_plan_space_for, run_chaos_plan, run_chaos_plan_with, ChaosBoot, ChaosConfig,
    ChaosOutcome, ServantMutation,
};
pub use cli::{
    check_thread_independence, no_args_left, nonzero, positional_or, render_trace_sections,
    run_command, take_flag, take_number, take_switch, take_threads, write_artifact, write_trace,
    write_violations, CliError,
};
pub use counter::counter_key;
pub use figures::{fig5_point, format_fig5, Fig5Point};
pub use fleet::{group_configs, run_fleet, FleetConfig, FleetOutcome};
pub use paper::{paper_runs, Report};
pub use report::{
    failover_episodes_ms, format_table1, steady_state_rtt_ms, table1_row, Table1Row,
    ViolationRecord, ViolationReport, VIOLATION_REPORT_SCHEMA,
};
pub use runner::{default_threads, run_batch, run_batch_with};
pub use scenario::{
    paper_workload, run_scenario, ScenarioConfig, ScenarioOutcome, CLIENTS_PER_NODE,
};
pub use stats::{percentile, Summary};
pub use sweep::{
    expand_sweep, format_sweep, parse_sweep, read_sweep, run_sweep, sample_is_thread_independent,
    CellError, SweepOutcome, SweepSpec, SweepUnit, TopologySpec,
};
pub use workload::{
    ClientPolicy, ClientWorkload, InvocationRecord, RecordLog, Records, ReportHandle,
    WorkloadConfig, WorkloadReport,
};

//! # faults — fault injection and resource monitoring
//!
//! Implements the paper's fault-injection strategy (section 5.1) and the
//! two-step threshold scheme of the Proactive Fault-Tolerance Manager
//! (section 3.2):
//!
//! * [`Weibull`] — the distribution driving the leak (scale 64, shape 2),
//! * [`MemoryLeak`] — the 32 KB-buffer memory-exhaustion fault, activated
//!   on the first client request and stepped every 150 ms,
//! * [`ResourceMonitor`] — the 80 %/90 % two-step thresholds with
//!   fire-once semantics,
//! * [`AdaptivePredictor`] — rate-estimating adaptive thresholds (the
//!   paper's stated future work), and
//! * [`FaultPlan`] — seeded chaos schedules composing crashes,
//!   partitions, loss bursts and multi-replica leaks for the chaos
//!   sweeps (`mead-repro sweep`), plus the expanded zoo
//!   ([`FaultKind::CorrelatedCrash`], [`FaultKind::FlashCrowd`],
//!   [`FaultKind::RollingRestart`], [`FaultKind::AsymmetricPartition`],
//!   [`FaultKind::JitteryLink`], [`FaultKind::CpuExhaustion`],
//!   [`FaultKind::FdLeak`]) selected per-plan by a [`FaultMix`] and
//!   checked by [`FaultPlan::validate`], and
//! * [`ResourcePressure`] — deterministic CPU-exhaustion / fd-leak
//!   models feeding the two-step thresholds, and
//! * [`config`] — the scenario-file (`tomlite`) schema for mixes and
//!   explicit fault events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
pub mod config;
mod memleak;
mod plan;
mod pressure;
mod resource;
mod weibull;

pub use adaptive::AdaptivePredictor;
pub use config::{ConfigError, NamedMix};
pub use memleak::{LeakConfig, MemoryLeak};
pub use plan::{
    FaultEvent, FaultKind, FaultMix, FaultPlan, FaultPlanBuilder, PlanError, PlanSpace, MAX_BURST,
    MAX_CROWD, MAX_CROWD_SPREAD, MAX_JITTER_BOUND, MAX_JITTER_SPAN, MAX_PARTITION, MAX_RESTART,
    MIN_CRASH_GAP,
};
pub use pressure::{PressureConfig, PressureKind, ResourcePressure};
pub use resource::{ResourceMonitor, ThresholdAction, ThresholdError};
pub use weibull::Weibull;

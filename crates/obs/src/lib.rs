//! # obs — deterministic, sim-time-keyed observability
//!
//! The paper's evidence is timing: round-trip jitter under proactive
//! recovery and the fail-over breakdown (fault detection → notification →
//! reconnection → first successful reply) for each migration scheme. This
//! crate turns every simulated run into an attributable latency story:
//!
//! * [`span`] — typed recovery phases ([`Phase`]), the vocabulary shared
//!   by the simnet kernel, both MEAD interceptors, the Recovery Manager
//!   and the ORB retry path;
//! * [`Recorder`] — the levelled, ordered log of [`TraceEvent`]s, and
//!   [`count_phase`], the fold that counts an occurrence in it (the few
//!   counters a report reads live in `simnet::Metrics`);
//! * [`Histogram`] — an HDR-style fixed-bucket histogram;
//! * [`jsonl`] — a hand-rolled (dependency-free) JSON-lines sink;
//! * [`breakdown`] — reconstruction of the paper's per-scheme fail-over
//!   stage table from a trace.
//!
//! Every timestamp is simulated nanoseconds ([`TraceEvent::at_ns`]); the
//! crate never consults a wall clock, so traces are bit-identical across
//! host thread counts and fresh processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breakdown;
mod event;
mod hist;
pub mod jsonl;
mod record;
pub mod span;

pub use breakdown::{episodes, stage_table, Episode, StageStats, STAGE_NAMES};
pub use event::{count_phase, EventKind, TraceEvent};
pub use hist::Histogram;
pub use record::{Recorder, TraceLevel};
pub use span::Phase;

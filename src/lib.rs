//! # mead-repro — Proactive Recovery in Distributed CORBA Applications
//!
//! A from-scratch Rust reproduction of Pertet & Narasimhan's DSN 2004
//! paper: the MEAD proactive-recovery framework, together with every
//! substrate it depends on (a deterministic network/OS simulator, the GIOP
//! wire protocol, a minimal ORB and Naming Service, totally-ordered group
//! communication, and fault injection), plus the full evaluation harness
//! that regenerates the paper's Table 1 and Figures 3-5.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`simnet`] — discrete-event network/OS substrate,
//! * [`giop`] — CDR/GIOP/IOR wire protocol,
//! * [`obs`] — the run's trace of typed events and its fail-over
//!   breakdown,
//! * [`groupcomm`] — Spread-like group communication,
//! * [`orb`] — client/server ORB and Naming Service,
//! * [`faults`] — Weibull memory leaks, thresholds, crash schedules,
//! * [`mead`] — the paper's contribution: interceptors, PFTM, Recovery
//!   Manager, and the five recovery schemes,
//! * [`experiments`] — scenario builder, the `paper` and `adaptive`
//!   commands that write `results/`, and `sweep` and `fleet`.
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for paper-vs-measured
//! results. Everything runnable is a command of this package's one
//! binary (`cargo run --release -- help`); the examples are in
//! `examples/`.

#![forbid(unsafe_code)]

pub use experiments;
pub use faults;
pub use giop;
pub use groupcomm;
pub use mead;
pub use obs;
pub use orb;
pub use simnet;

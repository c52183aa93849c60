//! # explore — schedule-space exploration for the chaos scenarios
//!
//! The simulation kernel dispatches events in one deterministic total
//! order; `simnet::sched` exposes the near-ties in that order as choice
//! points. This crate searches the space of alternative resolutions:
//!
//! * [`ExploreScheduler`] follows a choice *prefix*, records every gated
//!   decision, and collects the DPOR-lite branch set — the eligible
//!   candidates that **conflict** with the pick (same target process or
//!   same connection; commuting pairs are never branched on).
//! * [`explore`] runs a bounded novel-prefix frontier BFS over the
//!   resulting tree, checking the chaos executor's full invariant set on
//!   every interleaving and folding a thread-count-independent digest.
//! * [`minimize`] shrinks a violating choice vector to a minimal
//!   verified reproducer: trace-prefix bisection, then greedy deviation
//!   deletion.
//! * [`fixtures`] are the canned small configurations (2–3 replicas,
//!   1–2 clients) that `mead-repro explore` ([`cli_main`]) and CI
//!   enumerate, including the seeded-bug fixture
//!   ([`fixtures::seeded_bug`]) that the search must catch and minimize.
//!
//! Every discovered schedule is a replayable
//! [`DecisionTrace`](simnet::DecisionTrace): feeding it to a
//! [`ReplayScheduler`](simnet::ReplayScheduler) reproduces the run bit
//! for bit, digests included.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cli;
mod engine;
pub mod fixtures;
mod minimize;
pub mod relation;
mod sched;

pub use cli::cli_main;
pub use engine::{
    explore, run_prefix, run_prefix_with, try_explore, ExploreConfig, ExploreOutcome, RunResult,
    World,
};
pub use minimize::{minimize, try_minimize, Minimized};
pub use relation::{ConflictRelation, IndependentPair, RelationError, When, RELATION_SCHEMA};
pub use sched::{conflicts, conflicts_under, ExploreScheduler, RunRecord};

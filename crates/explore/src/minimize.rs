//! Failing-schedule minimization: shrink a violating choice vector to a
//! minimal reproducer.
//!
//! Two phases, both standard delta-debugging specialised to the choice
//! encoding (a vector is a valid schedule after *any* truncation, and
//! setting an entry to 0 removes that deviation while keeping the rest
//! aligned — gating, not position, pairs decisions with choice points):
//!
//! 1. **Prefix bisection** — binary-search the shortest failing prefix
//!    of the vector (everything past it replays as the kernel default).
//! 2. **Greedy deviation deletion** — walk the surviving prefix from the
//!    back, zeroing each non-default pick that the failure does not
//!    need.
//!
//! Every candidate is re-executed for real — on a copy of the one world
//! the minimization boots — so the result is always a verified failing
//! schedule, never an extrapolation.

use experiments::ChaosConfig;
use faults::FaultPlan;
use simnet::{DecisionTrace, ForkError, GateCfg};

use crate::engine::{RunResult, World};

/// A verified minimal failing schedule.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The minimal choice vector (trailing defaults trimmed).
    pub choices: Vec<u64>,
    /// The full decision trace of the final verification run — the
    /// replayable artifact.
    pub trace: DecisionTrace,
    /// The violations the minimal schedule still triggers.
    pub violations: Vec<String>,
    /// Outcome digest of the final verification run.
    pub outcome_digest: u64,
    /// Simulation runs the minimization spent (verification included).
    pub runs_used: usize,
}

struct Shrinker<'a> {
    world: World<'a>,
    used: usize,
    budget: usize,
}

impl Shrinker<'_> {
    /// Runs `choices`; returns the run when it still violates an
    /// invariant, `None` when it passes (or the run budget is spent).
    fn failing_run(&mut self, choices: &[u64]) -> Result<Option<RunResult>, ForkError> {
        if self.used >= self.budget {
            return Ok(None);
        }
        self.used += 1;
        let run = self.world.run(choices)?;
        Ok((!run.violations.is_empty()).then_some(run))
    }
}

/// Shrinks `failing` to a minimal choice vector that still violates an
/// invariant, spending at most `budget` simulation runs. Returns `None`
/// when `failing` does not actually fail (or the budget is too small to
/// even verify it).
///
/// # Panics
///
/// When a process of the booted world cannot be forked (see
/// [`explore`](crate::explore)); [`try_minimize`] reports it as an error
/// instead.
pub fn minimize(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    gate: GateCfg,
    failing: &[u64],
    budget: usize,
) -> Option<Minimized> {
    try_minimize(plan, chaos, gate, failing, budget)
        .expect("every process a chaos world boots is forkable")
}

/// [`minimize`], with a world that cannot be forked reported as the
/// [`ForkError`] naming why.
///
/// # Errors
///
/// The [`ForkError`] of the first copy the kernel refused.
pub fn try_minimize(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    gate: GateCfg,
    failing: &[u64],
    budget: usize,
) -> Result<Option<Minimized>, ForkError> {
    let mut shrinker = Shrinker {
        world: World::boot(plan, chaos, gate, None)?,
        used: 0,
        budget,
    };
    if shrinker.failing_run(failing)?.is_none() {
        return Ok(None);
    }

    // Phase 1: shortest failing prefix by bisection. The predicate is
    // monotone for single-cause failures; when it is not, the guard
    // below falls back to the full vector and phase 2 still applies.
    let mut lo = 0usize;
    let mut hi = failing.len();
    while lo < hi && shrinker.used < shrinker.budget {
        let mid = lo + (hi - lo) / 2;
        if shrinker.failing_run(&failing[..mid])?.is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut best: Vec<u64> = if shrinker.failing_run(&failing[..hi])?.is_some() {
        failing[..hi].to_vec()
    } else {
        failing.to_vec()
    };

    // Phase 2: zero unnecessary deviations, last first (later picks
    // depend on earlier ones, so freeing the tail first preserves more
    // structure per attempt).
    for i in (0..best.len()).rev() {
        if best.get(i).copied().unwrap_or(0) == 0 {
            continue;
        }
        let mut candidate = best.clone();
        if let Some(slot) = candidate.get_mut(i) {
            *slot = 0;
        }
        if shrinker.failing_run(&candidate)?.is_some() {
            best = candidate;
        }
    }
    while best.last() == Some(&0) {
        best.pop();
    }

    // The final verification always runs, even when shrinking spent the
    // whole budget: the returned schedule must be a witnessed failure.
    shrinker.budget = shrinker.used + 1;
    Ok(shrinker.failing_run(&best)?.map(|run| Minimized {
        choices: best,
        trace: run.trace,
        violations: run.violations,
        outcome_digest: run.outcome_digest,
        runs_used: shrinker.used,
    }))
}

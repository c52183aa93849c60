//! Bounded schedule-space search: novel-prefix frontier BFS over the
//! choice tree a chaos scenario exposes.
//!
//! Every node of the tree is a *choice prefix* — the vector of picks for
//! the first `k` gated decisions; the run continues with the kernel
//! default (candidate 0) past the prefix. One run evaluates one prefix
//! completely: it yields the outcome (invariant violations included),
//! the full [`DecisionTrace`], and the DPOR-lite branch set at every
//! decision at or past the prefix — each branch becomes a child prefix.
//! Children extend their parent strictly at new ordinals with
//! non-default picks, so no prefix is ever enqueued twice and the walk
//! needs no visited set.
//!
//! No two runs of a search differ before the gate opens, so the search
//! boots the world once (a `World`: once per worker thread, because the
//! booted world holds `Rc`s) and finishes every prefix on a copy of it
//! (`ChaosBoot::fork_and_finish`). The one-shot [`run_prefix`] and every
//! `ReplayScheduler` replay boot from scratch instead, which makes them
//! the independent reference the forked runs are tested against
//! (`tests/fork_equivalence.rs`).
//!
//! The search is deterministic for a fixed configuration: results are
//! folded in frontier order whatever the worker-thread count, and
//! children are expanded in that order.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

use experiments::{run_chaos_plan_with, ChaosBoot, ChaosConfig, ChaosOutcome};
use faults::FaultPlan;
use simnet::{DecisionTrace, Fnv, ForkError, GateCfg, Scheduler};

use crate::relation::ConflictRelation;
use crate::sched::{ExploreScheduler, RunRecord};

/// Search budgets and gating for one exploration.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Gating shared by every run: decision window, per-run decision
    /// budget, and the reorder slack.
    pub gate: GateCfg,
    /// Total simulation runs the search may spend.
    pub max_runs: usize,
    /// Longest choice prefix the search may extend (tree depth cap).
    pub max_depth: usize,
    /// Worker threads for each BFS wave.
    pub threads: usize,
    /// A loaded `conflict-relation/1` artifact refining the syntactic
    /// conflict test (see [`crate::sched::conflicts_under`]); `None`
    /// reproduces the pure DPOR-lite tree.
    pub relation: Option<Arc<ConflictRelation>>,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            gate: GateCfg::default(),
            max_runs: 256,
            max_depth: 32,
            threads: 1,
            relation: None,
        }
    }
}

/// One evaluated prefix: the complete run it induced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// The prefix this run evaluated.
    pub prefix: Vec<u64>,
    /// Every gated decision the run made (prefix picks, then defaults).
    pub trace: DecisionTrace,
    /// Per-decision DPOR-lite branch sets (see [`RunRecord`]).
    pub branches: Vec<Vec<u64>>,
    /// Per-decision alternatives the conflict relation pruned (empty
    /// without a loaded relation; see [`RunRecord::pruned`]).
    pub pruned: Vec<Vec<u64>>,
    /// Invariant violations the chaos executor reported, if any.
    pub violations: Vec<String>,
    /// The chaos outcome digest — two runs with this digest equal are
    /// behaviourally identical.
    pub outcome_digest: u64,
}

/// Evaluates one choice prefix: runs the scenario, booted from scratch,
/// under an [`ExploreScheduler`] and packages the recorded schedule.
pub fn run_prefix(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    gate: GateCfg,
    prefix: &[u64],
) -> RunResult {
    run_prefix_with(plan, chaos, gate, None, prefix)
}

/// [`run_prefix`] under a conflict-relation artifact: branch sets are
/// refined by `relation`, and alternatives it proves independent are
/// reported in [`RunResult::pruned`].
pub fn run_prefix_with(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    gate: GateCfg,
    relation: Option<Arc<ConflictRelation>>,
    prefix: &[u64],
) -> RunResult {
    let Ok(run) = recorded(gate, relation, prefix, |scheduler| {
        Ok::<_, Infallible>(run_chaos_plan_with(plan, chaos, scheduler))
    });
    run
}

/// Runs `prefix` through `run` under a fresh [`ExploreScheduler`] and
/// packages what the scheduler recorded with what the run came to.
fn recorded<E>(
    gate: GateCfg,
    relation: Option<Arc<ConflictRelation>>,
    prefix: &[u64],
    run: impl FnOnce(Box<dyn Scheduler>) -> Result<ChaosOutcome, E>,
) -> Result<RunResult, E> {
    let record = Rc::new(RefCell::new(RunRecord::default()));
    let scheduler =
        ExploreScheduler::with_relation(gate, prefix.to_vec(), relation, Rc::clone(&record));
    let outcome = run(Box::new(scheduler))?;
    let record = record.take();
    Ok(RunResult {
        prefix: prefix.to_vec(),
        trace: DecisionTrace {
            gate,
            decisions: record.decisions,
        },
        branches: record.branches,
        pruned: record.pruned,
        outcome_digest: outcome.digest(),
        violations: outcome.violations,
    })
}

/// The world of `(plan, chaos)` booted once, for any number of runs that
/// differ only in their choice prefix: what [`explore`] and
/// [`minimize`](crate::minimize) evaluate prefixes on.
pub struct World<'a> {
    boot: ChaosBoot<'a>,
    gate: GateCfg,
    relation: Option<Arc<ConflictRelation>>,
}

impl<'a> World<'a> {
    /// Boots the world up to the last instant before `gate` can open;
    /// branch sets are refined by `relation` as in [`run_prefix_with`].
    ///
    /// # Errors
    ///
    /// [`ForkError::Unforkable`] when a process of the booted world
    /// cannot be copied.
    pub fn boot(
        plan: &'a FaultPlan,
        chaos: &'a ChaosConfig,
        gate: GateCfg,
        relation: Option<Arc<ConflictRelation>>,
    ) -> Result<World<'a>, ForkError> {
        Ok(World {
            boot: ChaosBoot::snapshot(plan, chaos, gate)?,
            gate,
            relation,
        })
    }

    /// Evaluates `prefix` on a copy of the booted world: the
    /// [`RunResult`] that [`run_prefix_with`] computes from scratch.
    ///
    /// # Errors
    ///
    /// The [`ForkError`] of a copy the kernel refused.
    pub fn run(&self, prefix: &[u64]) -> Result<RunResult, ForkError> {
        recorded(self.gate, self.relation.clone(), prefix, |scheduler| {
            self.boot.fork_and_finish(scheduler)
        })
    }
}

/// What a bounded exploration found.
#[derive(Clone, Debug)]
pub struct ExploreOutcome {
    /// Prefixes evaluated (simulation runs spent).
    pub executed: usize,
    /// `true` when the frontier drained with no budget cap hit: every
    /// schedule reachable under the gate (up to DPOR-lite equivalence)
    /// was enumerated.
    pub exhausted: bool,
    /// Distinct chaos-outcome digests observed across all runs.
    pub outcome_digests: BTreeSet<u64>,
    /// Runs whose outcome violated at least one invariant, in discovery
    /// order.
    pub failures: Vec<RunResult>,
    /// FNV-1a fold of every run's schedule and outcome digest, in
    /// execution order — thread-count independent.
    pub digest: u64,
}

/// The state of one search: the frontier still to run and everything
/// folded from the runs so far.
struct Search {
    max_runs: usize,
    max_depth: usize,
    frontier: Vec<Vec<u64>>,
    executed: usize,
    truncated: bool,
    outcome_digests: BTreeSet<u64>,
    failures: Vec<RunResult>,
    digest: Fnv,
}

impl Search {
    fn new(cfg: &ExploreConfig) -> Search {
        Search {
            max_runs: cfg.max_runs,
            max_depth: cfg.max_depth,
            frontier: vec![Vec::new()],
            executed: 0,
            truncated: false,
            outcome_digests: BTreeSet::new(),
            failures: Vec::new(),
            digest: Fnv::new(),
        }
    }

    /// The next BFS wave — the frontier, as far as the run budget goes —
    /// or `None` when the frontier or the budget is spent.
    fn next_wave(&mut self) -> Option<Vec<Vec<u64>>> {
        if self.frontier.is_empty() || self.executed >= self.max_runs {
            return None;
        }
        let take = self.frontier.len().min(self.max_runs - self.executed);
        if take < self.frontier.len() {
            self.truncated = true;
        }
        Some(self.frontier.drain(..take).collect())
    }

    /// Folds one run, in wave order: digests, outcome set, the children
    /// its branch sets open, and the run itself if it violates.
    fn absorb(&mut self, run: RunResult) {
        self.executed += 1;
        self.digest.u64(run.trace.digest());
        self.digest.u64(run.outcome_digest);
        self.outcome_digests.insert(run.outcome_digest);
        for (d, alternatives) in run.branches.iter().enumerate().skip(run.prefix.len()) {
            if d >= self.max_depth {
                if !alternatives.is_empty() {
                    self.truncated = true;
                }
                continue;
            }
            for &branch in alternatives {
                let mut child: Vec<u64> = run
                    .trace
                    .decisions
                    .iter()
                    .take(d)
                    .map(|dec| dec.chosen)
                    .collect();
                child.push(branch);
                self.frontier.push(child);
            }
        }
        if !run.violations.is_empty() {
            self.failures.push(run);
        }
    }

    fn into_outcome(self) -> ExploreOutcome {
        ExploreOutcome {
            executed: self.executed,
            exhausted: !self.truncated && self.frontier.is_empty(),
            outcome_digests: self.outcome_digests,
            failures: self.failures,
            digest: self.digest.finish(),
        }
    }
}

/// Explores the schedule space of `(plan, chaos)` under the budgets in
/// `cfg`. See the module docs for the search structure.
///
/// # Panics
///
/// When a process of the booted world cannot be forked — a bug in that
/// process, which `tests/fork_equivalence.rs` guards against;
/// [`try_explore`] reports it as an error instead.
pub fn explore(plan: &FaultPlan, chaos: &ChaosConfig, cfg: &ExploreConfig) -> ExploreOutcome {
    try_explore(plan, chaos, cfg).expect("every process a chaos world boots is forkable")
}

/// [`explore`], with a world that cannot be forked reported as the
/// [`ForkError`] naming why.
///
/// # Errors
///
/// The [`ForkError`] of the first copy the kernel refused.
pub fn try_explore(
    plan: &FaultPlan,
    chaos: &ChaosConfig,
    cfg: &ExploreConfig,
) -> Result<ExploreOutcome, ForkError> {
    let mut search = Search::new(cfg);
    let boot = || World::boot(plan, chaos, cfg.gate, cfg.relation.clone());
    if cfg.threads <= 1 {
        // Each run is folded as it is produced, so what is alive at once
        // is the booted world, one copy of it and the frontier.
        let world = boot()?;
        while let Some(wave) = search.next_wave() {
            for prefix in wave {
                search.absorb(world.run(&prefix)?);
            }
        }
        return Ok(search.into_outcome());
    }

    // Workers live for the whole search and boot at their first job — one
    // boot per worker thread, not per wave. A worker's panic travels to
    // this thread with the job it struck, rather than leaving the wave
    // waiting for a result that will not come.
    type Done = (usize, thread::Result<Result<RunResult, ForkError>>);
    let (job_tx, job_rx) = mpsc::channel::<(usize, Vec<u64>)>();
    let (done_tx, done_rx) = mpsc::channel::<Done>();
    let job_rx = Mutex::new(job_rx);
    thread::scope(|scope| {
        // Dropped when this closure returns, which is what ends the
        // workers the scope then joins.
        let job_tx = job_tx;
        for _ in 0..cfg.threads {
            let (job_rx, done_tx, boot) = (&job_rx, done_tx.clone(), &boot);
            scope.spawn(move || {
                let mut world = None;
                loop {
                    let job = job_rx.lock().expect("job queue lock").recv();
                    let Ok((i, prefix)) = job else { break };
                    let result = panic::catch_unwind(AssertUnwindSafe(|| {
                        let world = match world.as_ref() {
                            Some(world) => world,
                            None => world.insert(boot()?),
                        };
                        world.run(&prefix)
                    }));
                    if done_tx.send((i, result)).is_err() {
                        break;
                    }
                }
            });
        }
        while let Some(wave) = search.next_wave() {
            let mut results: Vec<Option<RunResult>> = wave.iter().map(|_| None).collect();
            for job in wave.into_iter().enumerate() {
                job_tx.send(job).expect("workers outlive the job queue");
            }
            for _ in 0..results.len() {
                let (i, result) = done_rx.recv().expect("a job is out, so a worker is alive");
                results[i] = Some(result.unwrap_or_else(|panic| panic::resume_unwind(panic))?);
            }
            for run in results.into_iter().flatten() {
                search.absorb(run);
            }
        }
        Ok(())
    })?;
    Ok(search.into_outcome())
}

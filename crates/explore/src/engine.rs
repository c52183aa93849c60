//! Bounded schedule-space search: novel-prefix frontier BFS over the
//! choice tree a chaos scenario exposes.
//!
//! Every node of the tree is a *choice prefix* — the vector of picks for
//! the first `k` gated decisions; the run continues with the kernel
//! default (candidate 0) past the prefix. One run of the simulation
//! evaluates one prefix completely: it yields the outcome (invariant
//! violations included), the full [`DecisionTrace`], and the DPOR-lite
//! branch set at every decision at or past the prefix — each branch
//! becomes a child prefix. Children extend their parent strictly at new
//! ordinals with non-default picks, so no prefix is ever enqueued twice
//! and the walk needs no visited set.
//!
//! The search is deterministic for a fixed configuration: waves are
//! executed with [`run_batch_with`], which returns results in input
//! order regardless of worker-thread count, and children are expanded in
//! result order.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use experiments::{run_batch_with, run_chaos_plan_with, ChaosConfig};
use faults::FaultPlan;
use simnet::{DecisionTrace, Fnv, GateCfg};

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
#[derive(Clone, Debug)]
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

/// Evaluates one choice prefix: runs the scenario under an
/// [`ExploreScheduler`] and packages the recorded schedule.
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
    let record = Rc::new(RefCell::new(RunRecord::default()));
    let scheduler =
        ExploreScheduler::with_relation(gate, prefix.to_vec(), relation, Rc::clone(&record));
    let outcome = run_chaos_plan_with(plan, chaos, Box::new(scheduler));
    let record = record.borrow();
    RunResult {
        prefix: prefix.to_vec(),
        trace: DecisionTrace {
            gate,
            decisions: record.decisions.clone(),
        },
        branches: record.branches.clone(),
        pruned: record.pruned.clone(),
        violations: outcome.violations.clone(),
        outcome_digest: outcome.digest(),
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

/// Explores the schedule space of `(plan, chaos)` under the budgets in
/// `cfg`. See the module docs for the search structure.
pub fn explore(plan: &FaultPlan, chaos: &ChaosConfig, cfg: &ExploreConfig) -> ExploreOutcome {
    let mut frontier: Vec<Vec<u64>> = vec![Vec::new()];
    let mut executed = 0usize;
    let mut truncated = false;
    let mut outcome_digests = BTreeSet::new();
    let mut failures = Vec::new();
    let mut digest = Fnv::new();

    while !frontier.is_empty() && executed < cfg.max_runs {
        let take = frontier.len().min(cfg.max_runs - executed);
        if take < frontier.len() {
            truncated = true;
        }
        let wave: Vec<Vec<u64>> = frontier.drain(..take).collect();
        let results = run_batch_with(&wave, cfg.threads, |prefix| {
            run_prefix_with(plan, chaos, cfg.gate, cfg.relation.clone(), prefix)
        });
        executed += results.len();
        for run in results {
            digest.u64(run.trace.digest());
            digest.u64(run.outcome_digest);
            outcome_digests.insert(run.outcome_digest);
            for (d, alternatives) in run.branches.iter().enumerate().skip(run.prefix.len()) {
                if d >= cfg.max_depth {
                    if !alternatives.is_empty() {
                        truncated = true;
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
                    frontier.push(child);
                }
            }
            if !run.violations.is_empty() {
                failures.push(run);
            }
        }
    }
    if !frontier.is_empty() {
        truncated = true;
    }
    ExploreOutcome {
        executed,
        exhausted: !truncated,
        outcome_digests,
        failures,
        digest: digest.finish(),
    }
}

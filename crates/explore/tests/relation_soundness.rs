//! Dynamic soundness cross-check for the `conflict-relation/1` artifact
//! (DESIGN §13): every alternative the relation prunes must be
//! behaviourally redundant, not merely claimed so by the static
//! analysis.
//!
//! For each pruned site — a choice stem, the pick the scheduler kept,
//! and the simultaneous alternative the artifact declared independent —
//! the test replays the two events *adjacently in both orders with
//! everything else fixed* and asserts exact outcome-digest equality.
//! That is the commutativity claim the artifact makes, and nothing
//! stronger: comparing whole subtree outcome sets instead would be
//! unsound near the gate's decision horizon, where picking the pruned
//! event first also transposes it past later *conflicting* events that
//! the truncated kept-side subtree can no longer branch on.
//!
//! A second test pins the coverage claim end to end: the relation-pruned
//! tree reaches the full DPOR-lite tree's outcome set in strictly fewer
//! runs. Both checks run at one and four worker threads.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

use experiments::{run_batch_with, run_chaos_plan_with};
use explore::{fixtures, run_prefix_with, ConflictRelation};
use simnet::{ChoicePoint, GateCfg, Scheduler};

/// The twin data-readable entry the real workspace artifact carries
/// (`mead-repro lint --conflict-report`), inlined so the test does not depend
/// on a generated file.
const ARTIFACT: &str = r#"{
  "schema": "conflict-relation/1",
  "independent": [
    {"a": "notify:data_readable", "b": "notify:data_readable", "when": "same_touch_conn"}
  ]
}"#;

/// What one frontier walk of the choice tree observed.
struct Walk {
    /// Distinct outcome digests across every run of the walk.
    digests: BTreeSet<u64>,
    /// Deduplicated pruned sites: (stem before the decision, kept pick,
    /// pruned alternative).
    pruned_sites: BTreeSet<(Vec<u64>, u64, u64)>,
    /// Simulation runs spent.
    executed: usize,
}

/// Exhaustively explores the choice tree — the same frontier BFS as
/// [`explore::explore`], unbudgeted but with a safety backstop —
/// additionally recording every site the relation pruned.
fn walk(
    fixture: &fixtures::Fixture,
    relation: Option<&Arc<ConflictRelation>>,
    threads: usize,
) -> Walk {
    let mut frontier = vec![Vec::new()];
    let mut out = Walk {
        digests: BTreeSet::new(),
        pruned_sites: BTreeSet::new(),
        executed: 0,
    };
    while !frontier.is_empty() {
        out.executed += frontier.len();
        assert!(out.executed <= 4000, "soundness walk exceeded its backstop");
        let wave: Vec<Vec<u64>> = std::mem::take(&mut frontier);
        let results = run_batch_with(&wave, threads, |prefix| {
            run_prefix_with(
                &fixture.plan,
                &fixture.chaos,
                fixture.gate,
                relation.map(Arc::clone),
                prefix,
            )
        });
        for run in results {
            out.digests.insert(run.outcome_digest);
            for (d, alts) in run.branches.iter().enumerate().skip(run.prefix.len()) {
                let stem = || -> Vec<u64> {
                    run.trace
                        .decisions
                        .iter()
                        .take(d)
                        .map(|x| x.chosen)
                        .collect()
                };
                for &b in alts {
                    let mut child = stem();
                    child.push(b);
                    frontier.push(child);
                }
                if let Some(pruned) = run.pruned.get(d) {
                    let kept = run.trace.decisions[d].chosen;
                    for &p in pruned {
                        out.pruned_sites.insert((stem(), kept, p));
                    }
                }
            }
        }
    }
    out
}

/// Plays `stem`, then at the next two decisions dispatches the kernel
/// events with the given sequence numbers, then defaults. The gate keeps
/// the fixture's window start (so decision ordinals line up with the
/// walk that found the site) but lifts the end/budget just far enough to
/// control the swapped pair.
struct SeqPick {
    gate: GateCfg,
    stem: Vec<u64>,
    seqs: [u64; 2],
    found: Rc<RefCell<[bool; 2]>>,
}

impl Scheduler for SeqPick {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        let ordinal = cp.step as usize;
        if ordinal < self.stem.len() {
            let want = self.stem[ordinal] as usize;
            return match cp.candidates.get(want) {
                Some(c) if c.eligible => want,
                _ => 0,
            };
        }
        let Some(&seq) = self.seqs.get(ordinal - self.stem.len()) else {
            return 0;
        };
        match cp
            .candidates
            .iter()
            .position(|c| c.seq == seq && c.eligible)
        {
            Some(i) => {
                self.found.borrow_mut()[ordinal - self.stem.len()] = true;
                i
            }
            None => 0,
        }
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
    }
}

/// Runs `stem`, then the events `first` and `second` (kernel seqs) in
/// that order, then FIFO defaults; returns the outcome digest. Panics
/// if either event is not dispatchable at its slot — an event the other
/// order consumed or cancelled is itself an independence violation.
fn swap_run(fixture: &fixtures::Fixture, stem: &[u64], first: u64, second: u64) -> u64 {
    let mut gate = fixture.gate;
    gate.window_end = simnet::SimTime::from_nanos(u64::MAX);
    gate.max_steps = stem.len() as u64 + 2;
    let found = Rc::new(RefCell::new([false; 2]));
    let sched = SeqPick {
        gate,
        stem: stem.to_vec(),
        seqs: [first, second],
        found: Rc::clone(&found),
    };
    let outcome = run_chaos_plan_with(&fixture.plan, &fixture.chaos, Box::new(sched));
    assert_eq!(
        *found.borrow(),
        [true; 2],
        "event pair (seq {first}, seq {second}) not dispatchable after stem {stem:?}"
    );
    outcome.digest()
}

/// Captures the candidate seqs at decision `stem.len()` while playing
/// `stem` and defaulting afterwards.
struct Capture {
    gate: GateCfg,
    stem: Vec<u64>,
    seqs: Rc<RefCell<Vec<u64>>>,
}

impl Scheduler for Capture {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        let ordinal = cp.step as usize;
        if ordinal == self.stem.len() {
            *self.seqs.borrow_mut() = cp.candidates.iter().map(|c| c.seq).collect();
        }
        let want = self.stem.get(ordinal).copied().unwrap_or(0) as usize;
        match cp.candidates.get(want) {
            Some(c) if c.eligible => want,
            _ => 0,
        }
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
    }
}

/// The candidate seq numbers at the decision right after `stem`.
fn seqs_after(fixture: &fixtures::Fixture, stem: &[u64]) -> Vec<u64> {
    let seqs = Rc::new(RefCell::new(Vec::new()));
    let sched = Capture {
        gate: fixture.gate,
        stem: stem.to_vec(),
        seqs: Rc::clone(&seqs),
    };
    run_chaos_plan_with(&fixture.plan, &fixture.chaos, Box::new(sched));
    let out = seqs.borrow().clone();
    assert!(!out.is_empty(), "stem {stem:?} reached no further decision");
    out
}

/// Every site the artifact pruned on the `pair` fixture is replayed
/// with the declared-independent events adjacent in both orders; the
/// outcomes must be identical. No site is sampled away — the walk
/// enumerates all of them.
#[test]
fn pruned_pairs_commute_in_both_orders() {
    let relation = Arc::new(ConflictRelation::parse(ARTIFACT).expect("artifact parses"));
    let fixture = fixtures::pair();
    let sites: Vec<(Vec<u64>, u64, u64)> = walk(&fixture, Some(&relation), 1)
        .pruned_sites
        .into_iter()
        .collect();
    assert!(
        !sites.is_empty(),
        "the relation pruned nothing on the pair fixture — the check is vacuous"
    );
    for threads in [1usize, 4] {
        let verdicts = run_batch_with(&sites, threads, |(stem, kept, alt)| {
            let seqs = seqs_after(&fixture, stem);
            let kept_seq = seqs[*kept as usize];
            let alt_seq = seqs[*alt as usize];
            let forward = swap_run(&fixture, stem, kept_seq, alt_seq);
            let swapped = swap_run(&fixture, stem, alt_seq, kept_seq);
            (stem.clone(), forward, swapped)
        });
        for (stem, forward, swapped) in verdicts {
            assert_eq!(
                forward, swapped,
                "declared-independent pair does not commute after stem {stem:?} \
                 ({threads} threads)"
            );
        }
    }
}

/// The pruned tree must be a genuine optimisation, not a different
/// search: strictly fewer runs than the full DPOR-lite tree, same set
/// of reachable outcomes, at both thread counts.
#[test]
fn pruned_tree_covers_the_full_dpor_outcome_set() {
    let relation = Arc::new(ConflictRelation::parse(ARTIFACT).expect("artifact parses"));
    let fixture = fixtures::pair();
    for threads in [1usize, 4] {
        let pruned = walk(&fixture, Some(&relation), threads);
        let full = walk(&fixture, None, threads);
        assert!(
            pruned.executed < full.executed,
            "relation saved nothing: {} pruned vs {} full runs",
            pruned.executed,
            full.executed
        );
        assert_eq!(
            pruned.digests, full.digests,
            "pruning lost outcomes ({threads} threads)"
        );
        assert!(full.pruned_sites.is_empty(), "no relation, nothing pruned");
    }
}

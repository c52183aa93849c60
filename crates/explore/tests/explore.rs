//! End-to-end coverage of the exploration pipeline: the empty prefix is
//! FIFO-equivalent, every recorded [`DecisionTrace`] replays bit for bit
//! (as a property, over arbitrary choice vectors), the search digest is
//! pinned and thread-count independent, the scheduler is asked exactly
//! `max_steps` times a run, and the seeded known-bug fixture is caught,
//! minimized to a handful of decisions, and replayable by digest.

use std::cell::Cell;
use std::rc::Rc;

use experiments::{run_chaos_plan, run_chaos_plan_with};
use explore::{explore, fixtures, minimize, run_prefix, ExploreConfig};
use proptest::strategy::Strategy;
use simnet::{ChoicePoint, DecisionTrace, GateCfg, ReplayScheduler, Scheduler};

/// An empty choice prefix must reproduce the FIFO schedule exactly: the
/// choosing dispatch path with all-default picks and the FIFO fast path
/// are two implementations of the same total order.
#[test]
fn empty_prefix_is_fifo_equivalent() {
    for fixture in [fixtures::pair(), fixtures::trio(), fixtures::seeded_bug()] {
        let fifo = run_chaos_plan(&fixture.plan, &fixture.chaos);
        let run = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &[]);
        assert_eq!(
            fifo.digest(),
            run.outcome_digest,
            "fixture {}: all-default exploration diverged from FIFO",
            fixture.name
        );
        assert_eq!(
            run.trace.deviations(),
            0,
            "fixture {}: empty prefix recorded a deviation",
            fixture.name
        );
    }
}

/// Counts the choice points it is shown; always the default pick.
struct Probe {
    gate: GateCfg,
    asked: Rc<Cell<u64>>,
}

impl Scheduler for Probe {
    fn choose(&mut self, _cp: &ChoicePoint) -> usize {
        self.asked.set(self.asked.get() + 1);
        0
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
    }
}

/// A run asks its scheduler exactly `gate.max_steps` times — 10, 12 and
/// 12 — out of the 654, 1 142 and 334 multi-candidate ties the three
/// fixtures' runs hold: the kernel builds a choice point only while the
/// gate is open, so the boot before the window and everything after the
/// budget cost what they cost under FIFO.
#[test]
fn a_run_builds_exactly_max_steps_choice_points() {
    for fixture in [fixtures::pair(), fixtures::trio(), fixtures::seeded_bug()] {
        let asked = Rc::new(Cell::new(0));
        let probe = Probe {
            gate: fixture.gate,
            asked: Rc::clone(&asked),
        };
        run_chaos_plan_with(&fixture.plan, &fixture.chaos, Box::new(probe));
        assert_eq!(
            asked.get(),
            fixture.gate.max_steps,
            "fixture {}: choice points built",
            fixture.name
        );
    }
}

/// The exhaustive `pair` search at the smoke budget, pinned: run count,
/// outcome count and the search digest (every run's schedule and outcome
/// folded in execution order). A kernel or scheduler change that moves
/// any schedule moves this digest.
#[test]
fn pair_exhausts_to_the_pinned_digest() {
    let fixture = fixtures::pair();
    let outcome = explore(
        &fixture.plan,
        &fixture.chaos,
        &ExploreConfig {
            gate: fixture.gate,
            max_runs: 384,
            max_depth: 12,
            threads: 2,
            relation: None,
        },
    );
    assert_eq!(outcome.executed, 318);
    assert_eq!(outcome.outcome_digests.len(), 8);
    assert!(outcome.exhausted);
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.digest, 0x71f6_b871_f17c_dbfb);
}

/// The frontier search must not depend on worker-thread count: same
/// budget, same digest (the one the search had before the kernel took
/// the gate over), same failure set.
#[test]
fn explore_digest_is_thread_count_independent() {
    let fixture = fixtures::pair();
    let outcome = |threads: usize| {
        explore(
            &fixture.plan,
            &fixture.chaos,
            &ExploreConfig {
                gate: fixture.gate,
                max_runs: 48,
                max_depth: 8,
                threads,
                relation: None,
            },
        )
    };
    let one = outcome(1);
    let four = outcome(4);
    assert_eq!(one.digest, 0xfb02_e83a_905c_254d);
    assert_eq!(one.digest, four.digest);
    assert_eq!(one.executed, four.executed);
    assert_eq!(one.outcome_digests, four.outcome_digests);
    assert_eq!(one.failures.len(), four.failures.len());
}

/// Any choice vector — in range, out of range (clamped to default), long
/// or empty — yields a trace that (a) survives the JSONL round trip and
/// (b) replays through the independent [`ReplayScheduler`] to a
/// bit-identical outcome digest. Cases are generated from the vendored
/// proptest strategy API with an explicit small case count (each case
/// costs two full simulation runs).
#[test]
fn decision_trace_replays_bit_identically() {
    let strat = proptest::collection::vec(0u64..4, 0..10usize);
    let fixture = fixtures::pair();
    for case in 0..8u32 {
        let mut rng = proptest::test_runner::new_rng("decision_trace_replays", case);
        let choices: Vec<u64> = Strategy::generate(&strat, &mut rng);
        let run = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &choices);

        let parsed = DecisionTrace::parse(&run.trace.to_jsonl())
            .expect("recorded trace round-trips through JSONL");
        assert_eq!(parsed, run.trace, "JSONL round trip for {choices:?}");

        let replayed = run_chaos_plan_with(
            &fixture.plan,
            &fixture.chaos,
            Box::new(ReplayScheduler::from_trace(&run.trace)),
        );
        assert_eq!(
            replayed.digest(),
            run.outcome_digest,
            "replay diverged for choices {choices:?}"
        );
    }
}

/// The acceptance pipeline for the seeded protocol mutation
/// ([`fixtures::seeded_bug`]): dormant under FIFO, caught by the search,
/// minimized to at most ten decisions, and the minimal trace replays by
/// digest with the violation intact.
#[test]
fn seeded_bug_is_caught_minimized_and_replayable() {
    let fixture = fixtures::seeded_bug();

    let fifo = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &[]);
    assert!(
        fifo.violations.is_empty(),
        "mutation must stay dormant under FIFO: {:?}",
        fifo.violations
    );

    let outcome = explore(
        &fixture.plan,
        &fixture.chaos,
        &ExploreConfig {
            gate: fixture.gate,
            max_runs: 256,
            max_depth: 12,
            threads: 2,
            relation: None,
        },
    );
    let first = outcome
        .failures
        .first()
        .expect("the search must expose the seeded mutation");
    let witness: Vec<u64> = first.trace.decisions.iter().map(|d| d.chosen).collect();

    let minimal = minimize(&fixture.plan, &fixture.chaos, fixture.gate, &witness, 200)
        .expect("the witness must minimize to a verified failing schedule");
    assert!(
        minimal.choices.len() <= 10,
        "minimal schedule keeps {} decisions",
        minimal.choices.len()
    );
    assert!(!minimal.violations.is_empty());

    let replayed = run_chaos_plan_with(
        &fixture.plan,
        &fixture.chaos,
        Box::new(ReplayScheduler::from_trace(&minimal.trace)),
    );
    assert_eq!(replayed.digest(), minimal.outcome_digest);
    assert_eq!(replayed.violations, minimal.violations);
}

//! End-to-end coverage of the exploration pipeline: the empty prefix is
//! FIFO-equivalent, every recorded [`DecisionTrace`] replays bit for bit
//! (as a property, over arbitrary choice vectors), the search digests are
//! pinned (`pins.toml`) and thread-count independent, the scheduler is
//! asked exactly `max_steps` times a run, and the seeded known-bug fixture
//! is caught, minimized to a handful of decisions, and replayable by
//! digest.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use experiments::pins::{hold, Run};
use experiments::{run_chaos_plan, run_chaos_plan_with, ChaosOutcome};
use explore::{explore, fixtures, minimize, run_prefix, ConflictRelation, ExploreConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::sched::Decision;
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

/// A [`ReplayScheduler`] that records each choice point it is shown and
/// its pick, as the explorer records a decision.
struct Probe {
    replay: ReplayScheduler,
    seen: Rc<RefCell<Vec<Decision>>>,
}

impl Scheduler for Probe {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        let chosen = self.replay.choose(cp);
        self.seen.borrow_mut().push(Decision {
            step: cp.step,
            at_ns: cp.now.as_nanos(),
            n: cp.candidates.len() as u64,
            chosen: chosen as u64,
        });
        chosen
    }

    fn gate(&self) -> Option<GateCfg> {
        self.replay.gate()
    }
}

/// Runs `fixture` replaying `trace`: its outcome and the decisions made.
fn replay(fixture: &fixtures::Fixture, trace: &DecisionTrace) -> (ChaosOutcome, Vec<Decision>) {
    let seen = Rc::new(RefCell::new(Vec::new()));
    let probe = Probe {
        replay: ReplayScheduler::from_trace(trace),
        seen: Rc::clone(&seen),
    };
    let outcome = run_chaos_plan_with(&fixture.plan, &fixture.chaos, Box::new(probe));
    (outcome, seen.take())
}

/// A run asks its scheduler exactly `gate.max_steps` times — 10, 12 and
/// 12 — out of the 654, 1 142 and 334 multi-candidate ties the three
/// fixtures' runs hold: the kernel builds a choice point only while the
/// gate is open, so the boot before the window and everything after the
/// budget cost what they cost under FIFO.
#[test]
fn a_run_builds_exactly_max_steps_choice_points() {
    for fixture in [fixtures::pair(), fixtures::trio(), fixtures::seeded_bug()] {
        let (_, seen) = replay(&fixture, &DecisionTrace::empty(fixture.gate));
        assert_eq!(
            seen.len() as u64,
            fixture.gate.max_steps,
            "fixture {}: choice points built",
            fixture.name
        );
    }
}

/// The fixture's search at the smoke budget (384 runs, depth 12) on
/// `threads` workers: its counts and its digest (every run's schedule and
/// outcome folded in execution order), which any change to a schedule
/// moves.
fn search(
    fixture: &fixtures::Fixture,
    relation: Option<Arc<ConflictRelation>>,
    threads: usize,
) -> Run {
    let outcome = explore(
        &fixture.plan,
        &fixture.chaos,
        &ExploreConfig {
            gate: fixture.gate,
            max_runs: 384,
            max_depth: 12,
            threads,
            relation,
        },
    );
    Run::digest(outcome.digest)
        .count("runs", outcome.executed as u64)
        .count("outcomes", outcome.outcome_digests.len() as u64)
        .count("violating", outcome.failures.len() as u64)
        .count("exhausted", u64::from(outcome.exhausted))
}

#[test]
fn pair_exhausts_to_its_pin() {
    hold([("explore/pair", search(&fixtures::pair(), None, 2))]);
}

/// The independence relation `mead-repro lint --conflict-report` derives
/// from this workspace's sources.
fn derived_relation() -> Arc<ConflictRelation> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("workspace sources");
    let contract = lint::load_spec(&root, &lint::Contract::default()).expect("spec loads");
    let ws = lint::Workspace::parse(&sources).expect("workspace parses");
    let json = lint::conflict_report(&ws, &contract).expect("conflict report renders");
    Arc::new(ConflictRelation::parse(&json).expect("a conflict relation"))
}

/// `trio`, and `pair` pruned by the derived relation, at 1 and 4 worker
/// threads against one pin.
#[test]
#[ignore = "three searches and a lint pass; CI runs them in release"]
fn trio_and_the_relation_pruned_pair_match_their_pins() {
    let relation = derived_relation();
    let pruned = |threads| search(&fixtures::pair(), Some(Arc::clone(&relation)), threads);
    hold([
        ("explore/trio", search(&fixtures::trio(), None, 2)),
        ("explore/pair+relation", pruned(1)),
        ("explore/pair+relation", pruned(4)),
    ]);
}

/// The frontier search must not depend on worker-thread count: same
/// budget, same digest (pinned as `explore/pair-48`), same failure set.
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
    assert_eq!(one.digest, four.digest);
    assert_eq!(one.executed, four.executed);
    assert_eq!(one.outcome_digests, four.outcome_digests);
    assert_eq!(one.failures.len(), four.failures.len());
    let run = Run::digest(one.digest).count("runs", one.executed as u64);
    hold([("explore/pair-48", run)]);
}

/// Any choice vector — in range, out of range (clamped to default), long
/// or empty — yields a trace that (a) survives the JSONL round trip and
/// (b) replays through the independent [`ReplayScheduler`] to the same
/// decisions and a bit-identical outcome digest. The decisions are
/// compared too: on `pair` every schedule has the one outcome. A small
/// case count: each case costs two full simulation runs.
#[test]
fn decision_trace_replays_bit_identically() {
    let fixture = fixtures::pair();
    for seed in 0..8 {
        let rng = &mut StdRng::seed_from_u64(seed);
        let choices: Vec<u64> = (0..rng.gen_range(0..10))
            .map(|_| rng.gen_range(0..4))
            .collect();
        let run = run_prefix(&fixture.plan, &fixture.chaos, fixture.gate, &choices);

        let parsed = DecisionTrace::parse(&run.trace.to_jsonl())
            .expect("recorded trace round-trips through JSONL");
        assert_eq!(
            parsed, run.trace,
            "seed {seed}: JSONL round trip for {choices:?}"
        );

        let (replayed, decisions) = replay(&fixture, &run.trace);
        assert_eq!(
            decisions, run.trace.decisions,
            "seed {seed}: replay decided otherwise for choices {choices:?}"
        );
        assert_eq!(
            replayed.digest(),
            run.outcome_digest,
            "seed {seed}: replay diverged for choices {choices:?}"
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
    let trace = Run::digest(minimal.trace.digest());
    hold([
        ("explore/seeded-bug/trace", trace),
        ("explore/seeded-bug/replay", Run::of(replayed.components())),
    ]);
}

//! A run finished on a copy of a booted world is the run booted from
//! scratch.
//!
//! The search ([`explore::explore`], [`explore::minimize`]) boots a
//! fixture's world once ([`World::boot`]) and evaluates every choice
//! prefix on a copy of it; the one-shot [`run_prefix_with`] assembles and
//! boots a world of its own per prefix, as every run did before worlds
//! could be copied. Here one `World` per fixture serves a few hundred
//! generated prefixes in a row, and each [`RunResult`] — outcome digest
//! (every counter, `finished_at` and the whole trace, boot included),
//! decision trace, branch sets, pruned sets and violations — must equal
//! the from-scratch one. A copy that missed a piece of state shows up as
//! a mismatch; a copy that shares a piece of state with the world it was
//! taken from shows up one run later, because that world has then moved.
//!
//! The fixtures are the three canned ones and a variant of `pair` whose
//! window opens at 300 ms: inside the boot, so that the world is
//! snapshotted early and every copy finishes the boot under its own
//! scheduler, decisions included.
//!
//! What a copy must not share is pinned directly in
//! `experiments::chaos`'s unit tests (replica state, dedup id, directory,
//! observer view), the kernel's side of the bargain in
//! `crates/simnet/tests/fork_prop.rs`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use experiments::{chaos_plan_space_for, run_chaos_plan_with, ChaosBoot};
use explore::fixtures::{self, Fixture};
use explore::{run_prefix_with, ConflictRelation, World};
use faults::{FaultEvent, FaultKind, FaultPlanBuilder};
use simnet::{DecisionTrace, FifoScheduler, ForkError, ReplayScheduler, SimTime};

/// The workspace's conflict relation (`mead-repro lint
/// --conflict-report`), inlined as in `relation_soundness.rs`.
const ARTIFACT: &str = r#"{
  "schema": "conflict-relation/1",
  "independent": [
    {"a": "notify:data_readable", "b": "notify:data_readable", "when": "same_touch_conn"}
  ]
}"#;

/// `pair` with a window that opens while the infrastructure is still
/// booting.
fn pair_early() -> Fixture {
    let mut fixture = fixtures::pair();
    fixture.name = "pair-early";
    fixture.gate.window_start = SimTime::from_millis(300);
    fixture
}

/// `pair` with more increments and its acting primary (slot 1 under this
/// seed: the first replica to join) crashed among them: the backup takes
/// over from the state the primary's checkpoints carried. Without a fail-over nothing reads that state, so this is the
/// fixture that tells a copy whose servant and checkpointing hooks have
/// come apart — each on a state of its own — from a faithful one.
fn pair_failover() -> Fixture {
    let mut fixture = fixtures::pair();
    fixture.name = "pair-failover";
    fixture.chaos.increments = 14;
    fixture.plan = FaultPlanBuilder::new(11)
        .event(FaultEvent {
            at: SimTime::from_millis(720),
            kind: FaultKind::CrashReplica { slot: 1 },
        })
        .build(&chaos_plan_space_for(2, 0))
        .expect("plan fits its space");
    fixture
}

/// Prefixes a world serves.
const CASES: u64 = 256;

/// A choice prefix as the search produces them and worse: up to ten
/// picks, some beyond any pool (the scheduler clamps those).
fn prefix(seed: u64) -> Vec<u64> {
    let rng = &mut StdRng::seed_from_u64(seed);
    (0..rng.gen_range(0..=10))
        .map(|_| rng.gen_range(0..5))
        .collect()
}

/// Every generated prefix, evaluated on a copy of one booted world,
/// equals its evaluation from scratch — and so does the first prefix
/// again once the world has served them all.
fn forked_runs_equal_scratch_runs(name: &str, fixture: &Fixture, relation: Option<&str>) {
    let relation =
        relation.map(|src| Arc::new(ConflictRelation::parse(src).expect("artifact parses")));
    let world = World::boot(
        &fixture.plan,
        &fixture.chaos,
        fixture.gate,
        relation.clone(),
    )
    .expect("every process of a booted chaos world forks");
    let scratch = |prefix: &[u64]| {
        run_prefix_with(
            &fixture.plan,
            &fixture.chaos,
            fixture.gate,
            relation.clone(),
            prefix,
        )
    };
    let first = world.run(&[1, 0, 2]).expect("forks");
    assert_eq!(first, scratch(&[1, 0, 2]), "{name}: first copy");

    let mut decisions = 0;
    for seed in 0..CASES {
        let prefix = prefix(seed);
        let forked = world.run(&prefix).expect("forks");
        decisions += forked.trace.decisions.len();
        assert!(
            forked == scratch(&prefix),
            "{name}, seed {seed}: the forked run of {prefix:?} differs from the from-scratch run"
        );
    }
    assert!(decisions > 0, "{name}: no run reached a choice point");

    let last = world.run(&[1, 0, 2]).expect("forks");
    assert_eq!(first, last, "{name}: the world moved under its copies");
}

#[test]
fn pair_forks_as_it_boots() {
    forked_runs_equal_scratch_runs("pair", &fixtures::pair(), None);
}

#[test]
fn pair_forks_as_it_boots_under_the_relation() {
    forked_runs_equal_scratch_runs("pair+relation", &fixtures::pair(), Some(ARTIFACT));
}

#[test]
fn trio_forks_as_it_boots() {
    forked_runs_equal_scratch_runs("trio", &fixtures::trio(), None);
}

#[test]
fn seeded_bug_forks_as_it_boots() {
    forked_runs_equal_scratch_runs("seeded-bug", &fixtures::seeded_bug(), None);
}

#[test]
fn a_window_inside_the_boot_forks_early_and_finishes_the_boot_per_copy() {
    let fixture = pair_early();
    forked_runs_equal_scratch_runs(fixture.name, &fixture, None);
    // The early window is what this test is about: decisions fall where
    // the other fixtures are still booting.
    let run = run_prefix_with(&fixture.plan, &fixture.chaos, fixture.gate, None, &[]);
    let first = run.trace.decisions.first().expect("a decision");
    assert!(first.at_ns < SimTime::from_millis(650).as_nanos());
}

#[test]
fn a_failover_on_a_copy_serves_what_the_copy_checkpointed() {
    let fixture = pair_failover();
    forked_runs_equal_scratch_runs(fixture.name, &fixture, None);
    // Not vacuously: the crash lands among the increments, the backup
    // restores checkpointed state, and the values run on from it.
    let scratch = run_chaos_plan_with(
        &fixture.plan,
        &fixture.chaos,
        Box::new(ReplayScheduler::from_trace(&DecisionTrace::empty(
            fixture.gate,
        ))),
    );
    assert!(scratch.violations.is_empty(), "{:?}", scratch.violations);
    assert_eq!(scratch.values, (1..=14).collect::<Vec<u64>>());
    // The crash took the replica that was serving the client, and the
    // one that took over had restored checkpointed state.
    assert_eq!(scratch.metrics.counter("orb.exception.comm_failure"), 1);
    assert!(scratch.metrics.counter("mead.state_restored") > 0);
}

/// A copy finished under a `ReplayScheduler` equals the from-scratch
/// replay of the same trace: the violation a search finds on a copy is
/// the one its decision trace reproduces.
#[test]
fn a_replay_on_a_copy_equals_the_replay_from_scratch() {
    let fixture = fixtures::seeded_bug();
    let world = World::boot(&fixture.plan, &fixture.chaos, fixture.gate, None).expect("forks");
    let witness = world.run(&[0, 0, 0, 1]).expect("forks");
    let replay = || Box::new(ReplayScheduler::from_trace(&witness.trace));
    let scratch = run_chaos_plan_with(&fixture.plan, &fixture.chaos, replay());
    let boot = ChaosBoot::snapshot(&fixture.plan, &fixture.chaos, fixture.gate).expect("forks");
    let forked = boot.fork_and_finish(replay()).expect("same gate");
    assert_eq!(forked.digest(), scratch.digest());
    assert_eq!(forked.digest(), witness.outcome_digest);
}

/// Hostile use at the chaos level: a scheduler with another gate than
/// the world was booted under is refused with the typed error.
#[test]
fn a_copy_under_another_gate_is_refused() {
    let fixture = fixtures::pair();
    let boot = ChaosBoot::snapshot(&fixture.plan, &fixture.chaos, fixture.gate).expect("forks");
    let refused = boot.fork_and_finish(Box::new(FifoScheduler)).err();
    assert_eq!(refused, Some(ForkError::GateMismatch));
    let other = pair_early().gate;
    let other = ReplayScheduler::from_trace(&DecisionTrace::empty(other));
    let refused = boot.fork_and_finish(Box::new(other)).err();
    assert_eq!(refused, Some(ForkError::GateMismatch));
}

//! Boot once, copy per schedule — as an exact count.
//!
//! A search over one fixture boots the fixture's world once and finishes
//! every choice prefix on a copy of it. A run's boot is some 2 000
//! allocator calls and a copy of the booted world a few hundred, so how
//! many worlds a search booted is legible in its allocation count —
//! which, unlike wall time on a shared host, repeats exactly.
//!
//! The counting allocator is `tests/common`'s, which counts per thread,
//! so the harness running the other test in parallel does not disturb it.

mod common;

use explore::{explore, fixtures, minimize, run_prefix, ExploreConfig, World};

/// Allocator calls `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, spent) = common::tally(f);
    (out, spent.calls)
}

/// Exhausting `pair` on one thread allocates what one boot and its
/// copied runs allocate (how many is pin `explore/pair`'s to say). When
/// every run assembled and booted a world of its own this was 4 604 calls
/// a run.
#[test]
fn exhausting_pair_boots_one_world() {
    /// Ten per cent above the 2 963 calls a run this measured when
    /// written.
    const BUDGET_PER_RUN: u64 = 3_259;

    let pair = fixtures::pair();
    let cfg = ExploreConfig {
        gate: pair.gate,
        max_runs: 384,
        max_depth: 12,
        threads: 1,
        relation: None,
    };
    let (outcome, search) = allocs_of(|| explore(&pair.plan, &pair.chaos, &cfg));
    assert!(outcome.exhausted);
    let runs = outcome.executed as u64;
    let per_run = search / runs;
    assert!(
        per_run <= BUDGET_PER_RUN,
        "{per_run} allocations a run (budget {BUDGET_PER_RUN})"
    );

    // The same count, taken apart: a run from scratch is a boot and a
    // continuation, a run on a copy is a copy and the same continuation,
    // and the search paid for one boot and its runs at the second rate.
    let (_, scratch_run) = allocs_of(|| run_prefix(&pair.plan, &pair.chaos, pair.gate, &[]));
    let (world, boot) = allocs_of(|| World::boot(&pair.plan, &pair.chaos, pair.gate, None));
    let world = world.expect("forks");
    let (_, copied_run) = allocs_of(|| world.run(&[]).expect("forks"));
    // A copy costs about a third of a boot, so a copied run saves at
    // least 66 % of one: 1 130 calls of a 1 702-call boot when measured.
    assert!(
        copied_run + boot * 66 / 100 < scratch_run,
        "a copied run ({copied_run}) should cost most of a boot ({boot}) less than one \
         from scratch ({scratch_run})"
    );
    assert!(
        search < boot + runs * (copied_run + copied_run / 10),
        "search {search}, boot {boot}, copied run {copied_run}"
    );
}

/// Minimizing the seeded-bug witness boots one world for all its
/// candidate schedules: fewer allocations than the 22 648 its 8 runs
/// cost when each booted its own (16 719 when written).
#[test]
fn minimizing_the_seeded_bug_boots_one_world() {
    const AT_THE_PARENT: u64 = 22_648;

    let bug = fixtures::seeded_bug();
    let cfg = ExploreConfig {
        gate: bug.gate,
        max_runs: 64,
        max_depth: 12,
        threads: 1,
        relation: None,
    };
    let found = explore(&bug.plan, &bug.chaos, &cfg);
    let first = found.failures.first().expect("the search catches the bug");
    let witness: Vec<u64> = first.trace.decisions.iter().map(|d| d.chosen).collect();

    let (minimal, allocs) = allocs_of(|| minimize(&bug.plan, &bug.chaos, bug.gate, &witness, 200));
    let minimal = minimal.expect("the witness fails");
    assert_eq!(minimal.runs_used, 8);
    assert!(
        allocs < AT_THE_PARENT,
        "{allocs} allocations (at the parent: {AT_THE_PARENT})"
    );
}

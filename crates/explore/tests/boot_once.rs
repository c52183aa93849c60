//! Boot once, copy per schedule — as an exact count.
//!
//! A search over one fixture boots the fixture's world once and finishes
//! every choice prefix on a copy of it. A run's boot is some 2 000
//! allocator calls and a copy of the booted world a few hundred, so how
//! many worlds a search booted is legible in its allocation count —
//! which, unlike wall time on a shared host, repeats exactly.
//!
//! The counting allocator lives in this test binary only (the pattern of
//! `crates/simnet/tests/alloc_gate.rs`) and counts per thread, so the
//! harness running the other test in parallel does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use explore::{explore, fixtures, minimize, run_prefix, ExploreConfig, World};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn book() {
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Exhausting `pair` — 318 runs — on one thread allocates what one boot
/// and 318 copied runs allocate. When every run assembled and booted a
/// world of its own this was 4 604 calls a run.
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
    assert_eq!(outcome.executed, 318);
    let per_run = search / 318;
    assert!(
        per_run <= BUDGET_PER_RUN,
        "{per_run} allocations a run (budget {BUDGET_PER_RUN})"
    );

    // The same count, taken apart: a run from scratch is a boot and a
    // continuation, a run on a copy is a copy and the same continuation,
    // and the search paid for one boot and 318 runs at the second rate.
    let (_, scratch_run) = allocs_of(|| run_prefix(&pair.plan, &pair.chaos, pair.gate, &[]));
    let (world, boot) = allocs_of(|| World::boot(&pair.plan, &pair.chaos, pair.gate, None));
    let world = world.expect("forks");
    let (_, copied_run) = allocs_of(|| world.run(&[]).expect("forks"));
    assert!(
        copied_run + 1_200 < scratch_run,
        "a copied run ({copied_run}) should cost a boot less than one from scratch ({scratch_run})"
    );
    assert!(
        search < boot + 318 * (copied_run + copied_run / 10),
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

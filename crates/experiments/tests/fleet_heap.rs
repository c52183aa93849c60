//! What a fleet costs in memory, as exact byte counts.
//!
//! A fleet client is meant to cost what it holds: per-connection tables
//! sized to their one or two entries, no receive buffer while nothing is
//! queued, one shared MEAD configuration, and no bookkeeping left behind
//! by a refused connection. A fleet is meant to cost one group: each group
//! is folded into a few numbers the moment its simulation ends. Neither
//! shows in any digest or functional test when it regresses, so the live
//! heap is pinned here — and, unlike wall time on a shared host, it
//! repeats exactly at a given seed.
//!
//! The counting allocator lives in this test binary only (the pattern of
//! `crates/giop/tests/alloc_budget.rs`) and counts per thread, so the
//! harness running the other test in parallel does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use experiments::{run_fleet, FleetConfig, FleetOutcome};
use mead::RecoveryScheme;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Books `freed` bytes released and `grown` bytes obtained.
fn book(freed: usize, grown: usize) {
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are gone.
    let _ = LIVE.try_with(|live| {
        let now = live.get() - freed as i64 + grown as i64;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches two
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(0, layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(layout.size(), 0);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(layout.size(), new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CLIENTS: u32 = 200;

/// A one-thread fleet of `groups` groups of [`CLIENTS`] clients at seed
/// 42, and how far it grew this thread's live heap at its highest.
fn peak_of(groups: u32) -> (FleetOutcome, u64) {
    let cfg = FleetConfig {
        groups,
        ..FleetConfig::new(RecoveryScheme::MeadFailover, CLIENTS)
    };
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = run_fleet(&cfg, 1);
    let peak = PEAK.with(Cell::get) - start;
    assert_eq!(out.groups_completed, groups, "every group completes");
    (out, peak.max(0) as u64)
}

/// A client of a 200-client group costs what it holds. The parent of the
/// change that wrote this test peaked at 14 897 bytes a client: B-tree
/// leaves with room for eleven streams, connections and requests where a
/// client holds one or two, a 128-byte deque in every receive queue ever
/// used, a B-tree set per one-name GCS group and a copy of the MEAD
/// configuration per client.
#[test]
fn a_fleet_client_costs_what_it_holds() {
    /// Ten per cent above the 8 762 bytes a client this measured when
    /// written.
    const BUDGET_PER_CLIENT: u64 = 9_638;

    let (_, peak) = peak_of(1);
    let per_client = peak / u64::from(CLIENTS);
    assert!(
        per_client <= BUDGET_PER_CLIENT,
        "a {CLIENTS}-client group peaked at {peak} live bytes, {per_client} a client \
         (budget {BUDGET_PER_CLIENT})"
    );
}

/// Four groups cost about one: a finished group leaves its rollup behind
/// and nothing else. The parent of the change that wrote this test kept
/// every group's full outcome until the last group ended, and peaked at
/// 1.152 times one group (1.0003 when this was written).
#[test]
fn a_fleet_costs_one_group() {
    let (one, one_peak) = peak_of(1);
    let (four, four_peak) = peak_of(4);
    assert_eq!(one.group_digests[0], four.group_digests[0]);
    assert!(
        four_peak * 100 <= one_peak * 115,
        "four groups peaked at {four_peak} live bytes, one at {one_peak} \
         (allowed: 1.15 times)"
    );
}

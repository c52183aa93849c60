//! Allocation budget of the detlint front-end.
//!
//! Tokens borrow the source and a `fn` body is shared with the tree it
//! was lexed into, so lexing allocates per *group*, never per identifier
//! or literal, and a whole pass allocates a small multiple of the source
//! size. A `to_string()` per token or a deep clone per `fn` costs host
//! time on every pass without failing any functional test — wall time is
//! too noisy on a shared host to gate on — so the counts are pinned here.
//!
//! The counting allocator lives in this test binary only and counts per
//! thread, so the harness running other tests in parallel does not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use lint::{AllowList, Contract};

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

/// Runs `f`, returning its result and the allocator calls (a `realloc`
/// counts as one) this thread made meanwhile.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The doublings of one `Vec` holding 10 000 tokens, with slack.
const FLAT_STREAM_BUDGET: u64 = 32;

#[test]
fn lexing_allocates_nothing_per_identifier_or_literal() {
    let idents: String = (0..10_000).map(|i| format!("name_{i} ")).collect();
    let literals: String = (0..10_000).map(|i| format!("\"s{i}\" ")).collect();
    for (what, src) in [("identifiers", idents), ("string literals", literals)] {
        let (trees, allocs) = count(|| synlite::parse_file(&src));
        assert_eq!(trees.expect("lexes").len(), 10_000);
        assert!(
            allocs <= FLAT_STREAM_BUDGET,
            "lexing 10 000 flat {what} made {allocs} allocations (budget {FLAT_STREAM_BUDGET})"
        );
    }
}

/// Allocations one full `lint_files` pass may make per KiB of source:
/// 10 % above the 107.8 measured when the borrowed front-end landed
/// (171 858 over 1 594 KiB; the `String`-owning one made 517 per KiB).
const PASS_BUDGET_PER_KIB: u64 = 118;

#[test]
fn a_full_pass_stays_within_its_allocation_budget() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let sources = lint::collect_sources(&root).expect("workspace sources");
    let contract = lint::load_spec(&root, &Contract::default()).expect("spec loads");
    let allow_text =
        std::fs::read_to_string(root.join("lint-allow.toml")).expect("workspace allowlist");
    let allow = AllowList::parse(&allow_text).expect("valid workspace allowlist");
    let kib = (sources.iter().map(|(_, src)| src.len()).sum::<usize>() as u64).div_ceil(1024);

    let (report, allocs) = count(|| lint::lint_files(&sources, &contract, &allow));
    let report = report.expect("the workspace lints");
    assert!(report.findings.is_empty() && report.stale_allows.is_empty());
    assert!(
        allocs <= PASS_BUDGET_PER_KIB * kib,
        "a full pass over {kib} KiB made {allocs} allocations: {} per KiB, budget \
         {PASS_BUDGET_PER_KIB}",
        allocs / kib
    );
}

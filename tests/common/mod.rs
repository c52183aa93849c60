//! The counting allocator of the allocation tests: per thread, the
//! allocator calls, the bytes requested, the largest single request, and
//! the live heap with its peak.
//!
//! A test binary that declares `mod common;` runs on it. It counts per
//! thread, so the harness running other tests in parallel does not
//! disturb a measurement; each binary reads the part of [`Tally`] it
//! pins.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread allocated while a closure ran ([`tally`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Allocator calls; an `alloc`, `alloc_zeroed` or `realloc` is one.
    pub calls: u64,
    /// Bytes requested in all (a `realloc` requests its new size).
    pub bytes: usize,
    /// The largest single request.
    pub largest: usize,
    /// The highest the live heap rose above where it started.
    pub peak: u64,
    /// How far the live heap ended above where it started: what the
    /// closure left allocated, its result included.
    pub live: i64,
}

/// One thread's running books. `live` is signed: a thread may free what
/// another allocated.
#[derive(Clone, Copy)]
struct Books {
    calls: u64,
    bytes: usize,
    largest: usize,
    live: i64,
    peak: i64,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static BOOKS: Cell<Books> = const {
        Cell::new(Books { calls: 0, bytes: 0, largest: 0, live: 0, peak: 0 })
    };
}

fn update(f: impl FnOnce(&mut Books)) {
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are gone.
    let _ = BOOKS.try_with(|books| {
        let mut now = books.get();
        f(&mut now);
        books.set(now);
    });
}

/// Books a request for `size` bytes that releases `freed` (a `realloc`'s
/// old block).
fn request(freed: usize, size: usize) {
    update(|b| {
        b.calls += 1;
        b.bytes = b.bytes.saturating_add(size);
        b.largest = b.largest.max(size);
        b.live += size as i64 - freed as i64;
        b.peak = b.peak.max(b.live);
    });
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        request(0, layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        update(|b| b.live -= layout.size() as i64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        request(0, layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        request(layout.size(), new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and what this thread allocated
/// meanwhile.
pub fn tally<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    let before = BOOKS.with(Cell::get);
    BOOKS.with(|b| {
        b.set(Books {
            largest: 0,
            peak: before.live,
            ..before
        })
    });
    let out = f();
    let after = BOOKS.with(Cell::get);
    let spent = Tally {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        largest: after.largest,
        peak: (after.peak - before.live).max(0) as u64,
        live: after.live - before.live,
    };
    (out, spent)
}

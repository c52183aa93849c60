//! A counting global allocator, switched on only around the passes that
//! report heap figures.
//!
//! The counters are per thread and plain `Cell`s: every workload runs on
//! the thread that calls [`start`], so nothing is lost, and counting
//! costs a few unlocked adds per allocation instead of locked ones
//! (locked counters made a traced `paper` pass half again as slow as a
//! plain one). While off, an allocation pays one thread-local load.
//!
//! While on, the allocator counts calls and bytes and tracks how far the
//! live heap has grown above its level at [`start`]; the high-water mark
//! of that growth is what `peak_heap_mib` reports. Memory allocated
//! before `start` and freed after it lowers the level, which is correct
//! for a pass that only borrows its inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The allocator type; `lib.rs` installs one as the global allocator.
pub struct Counting;

struct Counters {
    on: Cell<bool>,
    allocs: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<i64>,
}

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static COUNTERS: Counters = const {
        Counters {
            on: Cell::new(false),
            allocs: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

/// Books a change of `freed` bytes released and `grown` bytes obtained,
/// if counting is on for this thread. `try_with` because a thread's last
/// deallocations can come after its thread-locals are gone.
fn book(freed: usize, grown: Option<usize>) {
    let _ = COUNTERS.try_with(|c| {
        if !c.on.get() {
            return;
        }
        let mut live = c.live.get() - freed as i64;
        if let Some(size) = grown {
            c.allocs.set(c.allocs.get() + 1);
            c.bytes.set(c.bytes.get() + size as u64);
            live += size as i64;
            if live > c.peak.get() {
                c.peak.set(live);
            }
        }
        c.live.set(live);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// thread-local `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(0, Some(layout.size()));
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(layout.size(), None);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(0, Some(layout.size()));
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(layout.size(), Some(new_size));
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What was counted between [`start`] and [`stop`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Allocation calls (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// High-water mark of live-heap growth above the level at `start`.
    pub peak_bytes: u64,
}

/// Zeroes this thread's counters and switches counting on.
pub fn start() {
    COUNTERS.with(|c| {
        c.allocs.set(0);
        c.bytes.set(0);
        c.live.set(0);
        c.peak.set(0);
        c.on.set(true);
    });
}

/// Switches counting off and returns what this thread counted.
pub fn stop() -> HeapStats {
    COUNTERS.with(|c| {
        c.on.set(false);
        HeapStats {
            allocs: c.allocs.get(),
            bytes: c.bytes.get(),
            peak_bytes: c.peak.get().max(0) as u64,
        }
    })
}

/// Runs `f` with counting switched off, restoring the previous state:
/// the span recorder uses it so its own buffer is not charged to the
/// pass it observes.
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was_on = COUNTERS.with(|c| c.on.replace(false));
    let out = f();
    COUNTERS.with(|c| c.on.set(was_on));
    out
}

/// Counts the allocations of one call to `f`.
pub fn count<T>(f: impl FnOnce() -> T) -> (T, HeapStats) {
    start();
    let out = f();
    (out, stop())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_bytes_and_peak_growth() {
        let (kept, stats) = count(|| {
            let scratch = vec![0u8; 4096];
            drop(std::hint::black_box(scratch));
            std::hint::black_box(vec![0u8; 1024])
        });
        assert_eq!(stats.allocs, 2);
        assert_eq!(stats.bytes, 4096 + 1024);
        assert_eq!(stats.peak_bytes, 4096);
        drop(kept);
        let (_, stats) = count(|| uncounted(|| std::hint::black_box(vec![0u8; 64])));
        assert_eq!(stats, HeapStats::default());
    }
}

//! Hierarchical timing-wheel event scheduler (DESIGN §11).
//!
//! Replaces the kernel's former `BinaryHeap<Scheduled>` with a
//! six-level, 64-slot-per-level timing wheel while preserving the exact
//! `(at, seq)` total order the heap provided — the bit-identity of every
//! scenario digest depends on it.
//!
//! # Layout
//!
//! Timestamps are bucketed into *ticks* of `2^16` ns (≈ 65.5 µs). Level
//! `l` groups `64^l` ticks per slot, so the wheel spans `64^6 = 2^36`
//! ticks (≈ 52 simulated days); entries beyond the horizon overflow into
//! the unsorted `far` list and are re-bucketed on demand. The slot of an
//! entry is chosen tokio-style by the highest 6-bit digit group in which
//! its tick differs from the cursor, which guarantees two structural
//! invariants used below:
//!
//! 1. every occupied slot of level `l` lies strictly *ahead* of the
//!    cursor's digit at that level, and
//! 2. all entries of one slot share their tick digits above level `l`
//!    with the cursor, so a slot never mixes ticks from different wheel
//!    rotations.
//!
//! # Ordering
//!
//! Entries whose tick equals the cursor live in `current`, a small
//! binary heap ordered by exact `(at, seq)`. [`TimingWheel::pop_due`]
//! serves strictly from `current`; when it drains, the cursor advances
//! to the earliest occupied slot (always the lowest occupied level — a
//! higher level's first slot starts strictly later, because it differs
//! from the cursor in a more significant digit) and that slot cascades:
//! level-0 entries join `current`, higher-level entries re-bucket into
//! strictly lower levels (their tick now agrees with the cursor on the
//! old level's digit), so each cascade terminates. Since in-slot entries
//! all have ticks strictly greater than the cursor, the head of
//! `current` is always the global `(at, seq)` minimum.
//!
//! The cursor only ever advances to (a) the tick of a popped entry's
//! slot or (b) the deadline tick when nothing is due — both strictly
//! below every pending slot start, which preserves invariants 1 and 2.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem;

/// log2 of the tick granularity in nanoseconds (2^16 ns ≈ 65.5 µs).
const TICK_SHIFT: u32 = 16;
/// log2 of the slots per level.
const LEVEL_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Digit mask for one level.
const SLOT_MASK: u64 = (SLOTS as u64) - 1;
/// Wheel depth; `LEVELS * LEVEL_BITS` bits of tick are representable.
const LEVELS: usize = 6;

/// One scheduled item: full-resolution timestamp, tie-break sequence
/// number, payload.
#[derive(Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // Reversed so the `current` BinaryHeap pops the earliest (at, seq).
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Clone)]
struct Level<T> {
    /// Bit `s` set iff `slots[s]` is non-empty.
    occupied: u64,
    slots: [Vec<Entry<T>>; SLOTS],
}

impl<T> Level<T> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// A hierarchical timing wheel ordered by `(at, seq)`.
///
/// Drop-in replacement for a `BinaryHeap` keyed on `(at, seq)` with
/// amortised O(1) push and pop-due instead of O(log n):
///
/// ```
/// use simnet::TimingWheel;
///
/// let mut q = TimingWheel::new();
/// q.push(2_000_000, 1, "later");
/// q.push(5, 0, "first");
/// assert_eq!(q.pop_due(u64::MAX), Some((5, 0, "first")));
/// assert_eq!(q.pop_due(1_000_000), None); // nothing due yet
/// assert_eq!(q.pop_due(u64::MAX), Some((2_000_000, 1, "later")));
/// assert!(q.is_empty());
/// ```
///
/// A clone holds the same entries at the same cursor, in buffers sized to
/// what they hold.
#[derive(Clone)]
pub struct TimingWheel<T> {
    /// Entries whose tick is at (or, defensively, behind) the cursor.
    /// `sorted[head..]` is an ascending `(at, seq)` run consumed from the
    /// front without shifting; `spill` catches the rare pushes that land
    /// out of order mid-tick. Together they always hold the global
    /// minimum when non-empty — the hot requeue pattern (same `at`,
    /// rising `seq`) appends to `sorted` in O(1) instead of sifting a
    /// binary heap.
    sorted: VecDeque<Entry<T>>,
    spill: BinaryHeap<Entry<T>>,
    levels: Vec<Level<T>>,
    /// Overflow beyond the wheel horizon, unsorted.
    far: Vec<Entry<T>>,
    /// Minimum `at` in `far` (`u64::MAX` when empty).
    far_min: u64,
    /// The tick the wheel is positioned at; no pending slot starts at or
    /// before it.
    cursor: u64,
    len: usize,
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimingWheel<T> {
    /// Creates an empty wheel positioned at tick 0.
    pub fn new() -> Self {
        TimingWheel {
            sorted: VecDeque::new(),
            spill: BinaryHeap::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            far: Vec::new(),
            far_min: u64::MAX,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `value` at time `at` with tie-break `seq`. Scheduling in
    /// the past (relative to the last `pop_due` position) is tolerated:
    /// the entry lands in `current` and still pops in `(at, seq)` order.
    pub fn push(&mut self, at: u64, seq: u64, value: T) {
        self.len += 1;
        self.place(Entry { at, seq, value });
    }

    /// Pops the earliest `(at, seq)` entry if its time is `<= deadline`.
    /// Returns `None` when the queue is empty ([`is_empty`] distinguishes
    /// the cases) or when the earliest entry lies beyond the deadline —
    /// the entry stays queued, unlike a heap's pop-then-push-back.
    ///
    /// [`is_empty`]: Self::is_empty
    pub fn pop_due(&mut self, deadline: u64) -> Option<(u64, u64, T)> {
        let deadline_tick = deadline >> TICK_SHIFT;
        loop {
            if let Some(key) = self.current_min() {
                if key.0 > deadline {
                    return None;
                }
                if let Some(entry) = self.current_pop(key) {
                    self.len -= 1;
                    return Some((entry.at, entry.seq, entry.value));
                }
            }
            // `current` drained: advance to the earliest occupied slot.
            let wheel_next = self.next_slot();
            let far_tick = if self.far.is_empty() {
                None
            } else {
                Some(self.far_min >> TICK_SHIFT)
            };
            let target = match (wheel_next, far_tick) {
                (Some((_, _, start)), Some(far)) => Some(start.min(far)),
                (Some((_, _, start)), None) => Some(start),
                (None, far) => far,
            };
            let Some(target_tick) = target else {
                // Queue fully empty; park at the deadline.
                self.cursor = self.cursor.max(deadline_tick);
                return None;
            };
            if target_tick > deadline_tick {
                // Nothing can be due. The deadline tick is strictly below
                // every pending slot start, so parking there keeps every
                // slot strictly ahead of the cursor.
                self.cursor = self.cursor.max(deadline_tick);
                return None;
            }
            match wheel_next {
                Some((level, slot, start)) if start <= target_tick => {
                    self.cascade_slot(level, slot, start);
                }
                _ => self.cascade_far(),
            }
        }
    }

    /// Key of the earliest current-tick entry, across the sorted run and
    /// the spill heap.
    fn current_min(&self) -> Option<(u64, u64)> {
        let run = self.sorted.front().map(|e| (e.at, e.seq));
        let spill = self.spill.peek().map(|e| (e.at, e.seq));
        match (run, spill) {
            (Some(r), Some(s)) => Some(r.min(s)),
            (r, s) => r.or(s),
        }
    }

    /// Removes and returns the entry whose key `current_min` reported.
    fn current_pop(&mut self, key: (u64, u64)) -> Option<Entry<T>> {
        if let Some(e) = self.sorted.front() {
            if (e.at, e.seq) == key {
                return self.sorted.pop_front();
            }
        }
        self.spill.pop()
    }

    /// Admits an entry whose tick is at or behind the cursor: appended to
    /// the sorted run when it keeps the run ascending (the overwhelmingly
    /// common requeue pattern — same `at`, globally rising `seq`), spilled
    /// to the small heap otherwise.
    fn push_current(&mut self, entry: Entry<T>) {
        match self.sorted.back() {
            Some(back) if (back.at, back.seq) > (entry.at, entry.seq) => self.spill.push(entry),
            _ => self.sorted.push_back(entry),
        }
    }

    /// Earliest occupied slot: `(level, slot index, slot start tick)`.
    /// The lowest occupied level always holds the earliest start, because
    /// a higher level's candidate differs from the cursor in a more
    /// significant digit.
    fn next_slot(&self) -> Option<(usize, usize, u64)> {
        for (level, lvl) in self.levels.iter().enumerate() {
            if lvl.occupied == 0 {
                continue;
            }
            let group = (LEVEL_BITS * level) as u32;
            let c = ((self.cursor >> group) & SLOT_MASK) as u32;
            // Invariant 1: occupied slots lie strictly ahead of the
            // cursor digit; the mask is defensive.
            let bits = if c >= 63 {
                0
            } else {
                (lvl.occupied >> (c + 1)) << (c + 1)
            };
            debug_assert_eq!(bits, lvl.occupied, "slot at or behind the cursor");
            if bits == 0 {
                continue;
            }
            let slot = bits.trailing_zeros() as usize;
            let above = group + LEVEL_BITS as u32;
            let top = if above >= 64 {
                0
            } else {
                (self.cursor >> above) << above
            };
            let start = top | ((slot as u64) << group);
            return Some((level, slot, start));
        }
        None
    }

    /// Advances the cursor to `start` and cascades that slot: level-0
    /// entries enter `current`, higher-level entries re-bucket strictly
    /// lower (their tick shares the old level's digit with the new
    /// cursor), so repeated cascades terminate.
    fn cascade_slot(&mut self, level: usize, slot: usize, start: u64) {
        debug_assert!(start > self.cursor, "cascade must move forward");
        self.cursor = start;
        let mut drained = Vec::new();
        if let Some(lvl) = self.levels.get_mut(level) {
            lvl.occupied &= !(1u64 << (slot as u32 & 63));
            if let Some(bucket) = lvl.slots.get_mut(slot) {
                drained = mem::take(bucket);
            }
        }
        if level == 0 {
            // A level-0 slot spans exactly one tick, now equal to the
            // cursor, so every entry belongs to `current`. `current` is
            // empty here (a cascade only runs once it drains), so one
            // bulk sort replaces per-entry heap sifting.
            debug_assert!(self.sorted.is_empty() && self.spill.is_empty());
            drained.sort_unstable_by_key(|e| (e.at, e.seq));
            self.sorted.extend(drained.drain(..));
        } else {
            for entry in drained.drain(..) {
                self.place(entry);
            }
        }
        // Hand the allocation back so hot slots stop reallocating. A
        // re-bucketed entry always lands on a *lower* level, so the slot
        // just drained is still empty.
        if let Some(bucket) = self
            .levels
            .get_mut(level)
            .and_then(|lvl| lvl.slots.get_mut(slot))
        {
            if bucket.is_empty() {
                *bucket = drained;
            }
        }
    }

    /// Advances the cursor to the earliest far entry's tick and re-buckets
    /// the whole overflow list; entries still beyond the horizon return to
    /// `far`. Rare: only reached when the wheel proper is empty or the
    /// cursor crossed into far territory.
    fn cascade_far(&mut self) {
        self.cursor = self.cursor.max(self.far_min >> TICK_SHIFT);
        let mut stale = mem::take(&mut self.far);
        self.far_min = u64::MAX;
        for entry in stale.drain(..) {
            self.place(entry);
        }
    }

    /// Buckets one entry relative to the current cursor.
    fn place(&mut self, entry: Entry<T>) {
        let tick = entry.at >> TICK_SHIFT;
        if tick <= self.cursor {
            self.push_current(entry);
            return;
        }
        let xor = tick ^ self.cursor;
        let level = (63 - xor.leading_zeros()) as usize / LEVEL_BITS;
        if level >= LEVELS {
            self.far_min = self.far_min.min(entry.at);
            self.far.push(entry);
            return;
        }
        let group = (LEVEL_BITS * level) as u32;
        let slot = ((tick >> group) & SLOT_MASK) as usize;
        let misplaced = match self.levels.get_mut(level) {
            Some(lvl) => match lvl.slots.get_mut(slot) {
                Some(bucket) => {
                    bucket.push(entry);
                    lvl.occupied |= 1u64 << (slot as u32 & 63);
                    None
                }
                None => Some(entry),
            },
            None => Some(entry),
        };
        // Structurally unreachable (level < LEVELS, slot < 64); keep the
        // entry ordered correctly via the overflow list rather than panic.
        if let Some(entry) = misplaced {
            self.far_min = self.far_min.min(entry.at);
            self.far.push(entry);
        }
    }
}

//! Generation-tagged slab storage for kernel state tables (DESIGN §11).
//!
//! The kernel keys processes, listeners and timers by dense, monotonic
//! external ids (`ProcessId`, `ListenerId`, `TimerId` — never reused, so
//! trace output and digests are stable), while the hot-path storage
//! behind them is a [`Slab`] that *does* reuse slots. Every slot carries
//! a generation counter, bumped on free, so a stale [`SlotKey`] — or a
//! stale external id routed through an [`IdTable`] directory — can never
//! resurrect a freed entry: the generation check fails and the lookup
//! returns `None`, exactly as a map miss did.

/// A generation-tagged handle to a [`Slab`] slot.
///
/// A key is valid only while the entry it was issued for is live; after
/// [`Slab::remove`] the slot's generation moves on and the key dangles
/// harmlessly (`get` returns `None`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotKey {
    index: u32,
    generation: u32,
}

impl SlotKey {
    /// A key no slot ever matches (generation 0 is never issued).
    pub const DEAD: SlotKey = SlotKey {
        index: 0,
        generation: 0,
    };
}

#[derive(Clone)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab allocator whose slots are recycled under generation tags.
///
/// ```
/// use simnet::{Slab, SlotKey};
///
/// let mut slab: Slab<&str> = Slab::new();
/// let key = slab.insert("alpha");
/// assert_eq!(slab.get(key), Some(&"alpha"));
/// assert_eq!(slab.remove(key), Some("alpha"));
/// let reused = slab.insert("beta");
/// assert_eq!(slab.get(key), None); // stale key cannot alias the new entry
/// assert_eq!(slab.get(reused), Some(&"beta"));
/// assert_eq!(slab.slot_count(), 1); // the slot was reused, not regrown
/// ```
#[derive(Clone)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    live: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the slab holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Physical slots allocated (live + free); stays bounded by the peak
    /// live count no matter how many entries have churned through.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value`, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotKey {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            if let Some(slot) = self.slots.get_mut(index as usize) {
                slot.value = Some(value);
                return SlotKey {
                    index,
                    generation: slot.generation,
                };
            }
            // A free-list index beyond the slot vector is structurally
            // impossible; fall through and grow instead of panicking.
        }
        let index = self.slots.len() as u32;
        self.slots.push(Slot {
            generation: 1,
            value: Some(value),
        });
        SlotKey {
            index,
            generation: 1,
        }
    }

    /// The entry behind `key`, unless the key is stale or dead.
    pub fn get(&self, key: SlotKey) -> Option<&T> {
        let slot = self.slots.get(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the entry behind `key`, if the key is current.
    pub fn get_mut(&mut self, key: SlotKey) -> Option<&mut T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// A structural copy — the same slots, generations and free list, so
    /// every outstanding [`SlotKey`] means in the copy what it means here —
    /// with each live value replaced by `f` of it.
    pub fn map<U>(&self, mut f: impl FnMut(&T) -> U) -> Slab<U> {
        Slab {
            slots: self
                .slots
                .iter()
                .map(|slot| Slot {
                    generation: slot.generation,
                    value: slot.value.as_ref().map(&mut f),
                })
                .collect(),
            free: self.free.clone(),
            live: self.live,
        }
    }

    /// Frees the entry behind `key` and recycles its slot under the next
    /// generation; `None` if the key was already stale.
    pub fn remove(&mut self, key: SlotKey) -> Option<T> {
        let slot = self.slots.get_mut(key.index as usize)?;
        if slot.generation != key.generation {
            return None;
        }
        let value = slot.value.take()?;
        // Skip generation 0 on wrap so `SlotKey::DEAD` stays dead.
        slot.generation = slot.generation.checked_add(1).unwrap_or(1);
        self.free.push(key.index);
        self.live -= 1;
        Some(value)
    }
}

/// A table keyed by the kernel's dense, monotonic u64 ids.
///
/// The directory maps each ever-issued id to the [`SlotKey`] it was
/// stored under; the slab behind it recycles storage as entries are
/// removed. Ids are allocated by [`IdTable::insert`] in issue order
/// (0, 1, 2, …) and never reused, so external identifiers keep the exact
/// numbering the old `BTreeMap` kernel produced.
#[derive(Clone)]
pub struct IdTable<T> {
    directory: Vec<SlotKey>,
    slab: Slab<T>,
}

impl<T> Default for IdTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdTable<T> {
    /// Creates an empty table; the first inserted id is 0.
    pub fn new() -> Self {
        IdTable {
            directory: Vec::new(),
            slab: Slab::new(),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the table holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Total ids ever issued (the next id to be returned by `insert`).
    pub fn ids_issued(&self) -> u64 {
        self.directory.len() as u64
    }

    /// Physical slots backing the table (bounded by peak concurrency).
    pub fn slot_count(&self) -> usize {
        self.slab.slot_count()
    }

    /// Stores `value` under the next dense id and returns that id.
    pub fn insert(&mut self, value: T) -> u64 {
        let id = self.directory.len() as u64;
        let key = self.slab.insert(value);
        self.directory.push(key);
        id
    }

    /// The live entry for `id`, if any.
    pub fn get(&self, id: u64) -> Option<&T> {
        let key = *self.directory.get(usize::try_from(id).ok()?)?;
        self.slab.get(key)
    }

    /// Mutable access to the live entry for `id`, if any.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let key = *self.directory.get(usize::try_from(id).ok()?)?;
        self.slab.get_mut(key)
    }

    /// Removes and returns the entry for `id`; its slab slot is recycled
    /// while the directory entry goes permanently stale.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let key = *self.directory.get(usize::try_from(id).ok()?)?;
        self.slab.remove(key)
    }
}

//! Run-wide measurement infrastructure.
//!
//! The experiments need two kinds of measurement:
//!
//! * named counters — each one kept because a report, an invariant, a
//!   test or the ledger reads it (exception counts, restarts, messages),
//!   and
//! * tagged byte accounting over time (Figure 5's group-communication
//!   bandwidth).
//!
//! Both live in [`Metrics`], which the kernel owns and a driver reads
//! through [`Simulation::metrics`](crate::Simulation::metrics) or takes
//! when the run is over. Occurrences — when something happened — are
//! not measurements but trace events (`obs`), and so is malformed input
//! (`obs::EventKind::ProtocolError`); the kernel writes no counter of its
//! own. [`Fnv`] is the fold that turns a run's observables into a
//! digest.

use std::collections::BTreeMap;

use crate::time::{SimDuration, SimTime};

/// One tagged byte-transfer record: `len` bytes entered the wire at `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ByteRecord {
    /// Departure time of the segment.
    pub at: SimTime,
    /// Payload length in bytes.
    pub len: u64,
}

/// Aggregated measurements for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    bytes: BTreeMap<&'static str, Vec<ByteRecord>>,
}

impl Metrics {
    /// Creates an empty metrics store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Records `len` bytes sent at `at` under `tag`.
    pub fn record_bytes(&mut self, tag: &'static str, at: SimTime, len: u64) {
        self.bytes
            .entry(tag)
            .or_default()
            .push(ByteRecord { at, len });
    }

    /// Total bytes recorded under `tag`.
    pub fn total_bytes(&self, tag: &str) -> u64 {
        self.bytes
            .get(tag)
            .map(|v| v.iter().map(|r| r.len).sum())
            .unwrap_or(0)
    }

    /// Bytes recorded under `tag` within `[from, to)`.
    pub fn bytes_in_window(&self, tag: &str, from: SimTime, to: SimTime) -> u64 {
        self.bytes
            .get(tag)
            .map(|v| {
                v.iter()
                    .filter(|r| r.at >= from && r.at < to)
                    .map(|r| r.len)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Mean throughput in bytes/second for `tag` over `[from, to)`.
    ///
    /// Returns 0.0 for an empty window. This is the quantity plotted on the
    /// y-axis of the paper's Figure 5.
    pub fn bandwidth(&self, tag: &str, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let window: SimDuration = to - from;
        self.bytes_in_window(tag, from, to) as f64 / window.as_secs_f64()
    }

    /// The raw per-segment records for `tag`, in send order.
    pub fn byte_records(&self, tag: &str) -> &[ByteRecord] {
        self.bytes.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All tags that have byte records, sorted by name.
    pub fn byte_tags(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.bytes.keys().copied()
    }

    /// Gives back the room the record lists grew ahead of their contents:
    /// for a store that is done recording and will be kept.
    pub fn shrink_to_fit(&mut self) {
        for records in self.bytes.values_mut() {
            records.shrink_to_fit();
        }
    }
}

/// The 64-bit FNV-1a fold behind every digest in the workspace (outcome
/// digests, decision-trace and exploration fingerprints): deterministic
/// observables go in as bytes or little-endian `u64`s, and equal runs
/// come out as equal fingerprints on any machine.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// A fold over nothing yet (the FNV offset basis).
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds `v` as eight little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_published_fnv1a_vectors() {
        let of = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.bytes(bytes);
            h.finish()
        };
        assert_eq!(of(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(of(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::new();
        h.u64(0x0807_0605_0403_0201);
        assert_eq!(h.finish(), of(&[1, 2, 3, 4, 5, 6, 7, 8]));
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.count("x", 1);
        m.count("x", 2);
        assert_eq!(m.counter("x"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn counters_iterate_sorted() {
        let mut m = Metrics::new();
        m.count("b", 1);
        m.count("a", 1);
        let names: Vec<_> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn byte_windows() {
        let mut m = Metrics::new();
        m.record_bytes("gcs", SimTime::from_millis(100), 50);
        m.record_bytes("gcs", SimTime::from_millis(200), 70);
        m.record_bytes("gcs", SimTime::from_millis(300), 90);
        assert_eq!(m.total_bytes("gcs"), 210);
        assert_eq!(
            m.bytes_in_window("gcs", SimTime::from_millis(150), SimTime::from_millis(301)),
            160
        );
        // Window end is exclusive.
        assert_eq!(
            m.bytes_in_window("gcs", SimTime::from_millis(100), SimTime::from_millis(300)),
            120
        );
    }

    #[test]
    fn bandwidth_bytes_per_second() {
        let mut m = Metrics::new();
        m.record_bytes("gcs", SimTime::from_millis(500), 3000);
        let bw = m.bandwidth("gcs", SimTime::ZERO, SimTime::from_secs(1));
        assert!((bw - 3000.0).abs() < 1e-9);
        assert_eq!(
            m.bandwidth("gcs", SimTime::from_secs(1), SimTime::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn unknown_tag_is_empty() {
        let m = Metrics::new();
        assert_eq!(m.total_bytes("nope"), 0);
        assert!(m.byte_records("nope").is_empty());
    }
}

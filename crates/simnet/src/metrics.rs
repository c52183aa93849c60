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

/// One byte series as an append-only log: per record, the LEB128 varint
/// of its departure's gap since the previous record's and the varint of
/// its length, with the record count and byte total kept beside them.
/// A Figure 5 mesh record costs about 3.2 bytes here where a
/// [`ByteRecord`] costs 16. Readers decode it in send order
/// ([`ByteLog::records`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct ByteLog {
    encoded: Vec<u8>,
    count: usize,
    total: u64,
    last: SimTime,
}

impl ByteLog {
    /// Appends `len` bytes sent at `at`.
    pub fn push(&mut self, at: SimTime, len: u64) {
        // Departures are in send order per process, not per tag: one
        // that steps back (a still-busy sender's) wraps, and still
        // decodes exactly in ten bytes. 111 of a sweep's 577 823 do.
        let gap = at.as_nanos().wrapping_sub(self.last.as_nanos());
        push_varint(&mut self.encoded, gap);
        push_varint(&mut self.encoded, len);
        self.count += 1;
        self.total += len;
        self.last = at;
    }

    /// Bytes over every record.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The records in send order.
    pub fn records(&self) -> ByteRecords<'_> {
        ByteRecords {
            encoded: &self.encoded,
            left: self.count,
            at: 0,
        }
    }

    /// Gives back the room the log grew ahead of its contents.
    pub fn shrink_to_fit(&mut self) {
        self.encoded.shrink_to_fit();
    }
}

/// The records of one byte series ([`Metrics::byte_records`]), decoded
/// in send order.
#[derive(Clone, Debug, Default)]
pub struct ByteRecords<'a> {
    encoded: &'a [u8],
    left: usize,
    at: u64,
}

impl Iterator for ByteRecords<'_> {
    type Item = ByteRecord;

    fn next(&mut self) -> Option<ByteRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.at = self.at.wrapping_add(take_varint(&mut self.encoded));
        let len = take_varint(&mut self.encoded);
        Some(ByteRecord {
            at: SimTime::from_nanos(self.at),
            len,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ByteRecords<'_> {}

/// Appends `v` to `out` as a LEB128 varint: seven bits a byte, low
/// bits first, the high bit set on every byte but the last. A `u64`
/// takes one to ten bytes.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint [`push_varint`] wrote, off the front of `input`.
///
/// # Panics
///
/// Panics when `input` ends inside the varint: a log that wrote it
/// holds whole varints only.
pub fn take_varint(input: &mut &[u8]) -> u64 {
    let mut v = 0;
    for (i, &b) in input.iter().enumerate() {
        v |= u64::from(b & 0x7f) << (7 * i);
        if b < 0x80 {
            *input = &input[i + 1..];
            return v;
        }
    }
    panic!("input ends inside a varint")
}

/// Aggregated measurements for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    bytes: BTreeMap<&'static str, ByteLog>,
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
        self.bytes.entry(tag).or_default().push(at, len);
    }

    /// Total bytes recorded under `tag`.
    pub fn total_bytes(&self, tag: &str) -> u64 {
        self.bytes.get(tag).map_or(0, ByteLog::total)
    }

    /// Bytes recorded under `tag` within `[from, to)`.
    pub fn bytes_in_window(&self, tag: &str, from: SimTime, to: SimTime) -> u64 {
        self.byte_records(tag)
            .filter(|r| r.at >= from && r.at < to)
            .map(|r| r.len)
            .sum()
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

    /// The per-segment records for `tag`, in send order.
    pub fn byte_records(&self, tag: &str) -> ByteRecords<'_> {
        self.bytes
            .get(tag)
            .map_or_else(ByteRecords::default, ByteLog::records)
    }

    /// All tags that have byte records, sorted by name.
    pub fn byte_tags(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.bytes.keys().copied()
    }

    /// Gives back the room the byte logs grew ahead of their contents:
    /// for a store that is done recording and will be kept.
    pub fn shrink_to_fit(&mut self) {
        for log in self.bytes.values_mut() {
            log.shrink_to_fit();
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

    /// The log against the plain record list it replaces, over seeded
    /// series with zero gaps, gaps of 2³² ns and more, departures that
    /// step back, and zero lengths.
    #[test]
    fn the_byte_log_reads_back_what_a_record_list_holds() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut rng = StdRng::seed_from_u64(46);
        for _ in 0..200 {
            let mut m = Metrics::new();
            let mut model: BTreeMap<&'static str, Vec<ByteRecord>> = BTreeMap::new();
            let mut at = rng.gen_range(0..1u64 << 40);
            for _ in 0..rng.gen_range(0..300) {
                at = match rng.gen_range(0..5) {
                    0 => at,
                    1 => at + rng.gen_range(1u64 << 32..1 << 45),
                    2 => at.saturating_sub(rng.gen_range(1..1_000_000)),
                    _ => at + rng.gen_range(1..200_000_000),
                };
                let len = match rng.gen_range(0..4) {
                    0 => 0,
                    1 => rng.gen_range(1..1 << 40),
                    _ => rng.gen_range(1..2_000),
                };
                let tag = if rng.gen_bool(0.8) { "mesh" } else { "other" };
                m.record_bytes(tag, SimTime::from_nanos(at), len);
                model.entry(tag).or_default().push(ByteRecord {
                    at: SimTime::from_nanos(at),
                    len,
                });
            }
            if rng.gen_bool(0.5) {
                m.shrink_to_fit();
            }
            let copy = m.clone();
            for tag in ["mesh", "other", "none"] {
                let want = model.get(tag).map_or(&[][..], Vec::as_slice);
                let total: u64 = want.iter().map(|r| r.len).sum();
                for store in [&m, &copy] {
                    assert_eq!(store.byte_records(tag).len(), want.len());
                    assert_eq!(store.byte_records(tag).collect::<Vec<_>>(), want);
                    assert_eq!(store.total_bytes(tag), total);
                    let from = SimTime::from_nanos(rng.gen_range(0..1u64 << 41));
                    let to = SimTime::from_nanos(rng.gen_range(from.as_nanos()..1u64 << 42));
                    let in_window: u64 = want
                        .iter()
                        .filter(|r| r.at >= from && r.at < to)
                        .map(|r| r.len)
                        .sum();
                    assert_eq!(store.bytes_in_window(tag, from, to), in_window);
                    let bandwidth = if to > from {
                        in_window as f64 / (to - from).as_secs_f64()
                    } else {
                        0.0
                    };
                    assert_eq!(store.bandwidth(tag, from, to), bandwidth);
                }
            }
            assert!(m.byte_tags().eq(model.keys().copied()));
        }
    }

    #[test]
    fn unknown_tag_is_empty() {
        let m = Metrics::new();
        assert_eq!(m.total_bytes("nope"), 0);
        assert_eq!(m.byte_records("nope").len(), 0);
    }
}

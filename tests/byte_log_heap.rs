//! What a byte series costs in memory, as an exact byte count.
//!
//! Figure 5's `gcs.mesh` series gets one record per inter-daemon message,
//! and a sweep keeps the metrics of every one of its runs: at 16 bytes a
//! record that was the largest part of its peak heap. No digest or
//! functional test sees the store's size, so it is pinned here.
//!
//! The counting allocator is `tests/common`'s, which counts per thread.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{Metrics, SimTime};

/// A stored mesh-like record costs at most six bytes. Gaps of 50 µs to
/// 150 ms take four varint bytes, lengths of 60 to 300 bytes one or
/// two. The parent of the change that wrote this test kept a 16-byte
/// record apiece.
#[test]
fn a_stored_byte_record_costs_at_most_six_bytes() {
    const RECORDS: u64 = 10_000;
    const BUDGET_PER_RECORD: u64 = 6;

    let mut rng = StdRng::seed_from_u64(5);
    let (metrics, spent) = common::tally(|| {
        let mut metrics = Metrics::new();
        let mut at = SimTime::ZERO;
        for _ in 0..RECORDS {
            at = SimTime::from_nanos(at.as_nanos() + rng.gen_range(50_000..=150_000_000));
            metrics.record_bytes("gcs.mesh", at, rng.gen_range(60..=300));
        }
        metrics.shrink_to_fit();
        metrics
    });
    assert_eq!(metrics.byte_records("gcs.mesh").len() as u64, RECORDS);
    let held = spent.live as u64;
    assert!(
        held <= BUDGET_PER_RECORD * RECORDS,
        "{RECORDS} records hold {held} live bytes, {:.2} a record (budget {BUDGET_PER_RECORD})",
        held as f64 / RECORDS as f64
    );
}

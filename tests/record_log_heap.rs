//! What a run's invocation record log holds, and what it costs in memory
//! as an exact byte count.
//!
//! A run keeps every client invocation's record
//! (`WorkloadReport::records`), and the paper's thirteen cells keep ten
//! thousand each: at 40 bytes an `InvocationRecord` they were the largest
//! part of the run's peak heap. No digest or functional test sees the
//! log's size, so it is pinned here, next to the model test of what the
//! log reads back.
//!
//! The counting allocator is `tests/common`'s, which counts per thread.

mod common;

use experiments::{InvocationRecord, RecordLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::SimTime;

/// A counter as a run may book it: mostly 0, now and then a few, and at
/// the edge `u32::MAX`.
fn counter(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0..8) {
        0 => u32::MAX,
        1 => rng.gen_range(1..1_000),
        _ => 0,
    }
}

/// The log against the plain record list it replaces, over seeded runs
/// with starts that step back before the previous end, gaps and round
/// trips of 2³² ns and more, indices out of sequence, counters at
/// `u32::MAX`, the empty log and a clone.
#[test]
fn the_record_log_reads_back_what_a_record_list_holds() {
    let mut rng = StdRng::seed_from_u64(52);
    for case in 0..300 {
        let mut log = RecordLog::default();
        let mut model: Vec<InvocationRecord> = Vec::new();
        let mut at = rng.gen_range(0..1u64 << 40);
        let mut index = rng.gen_range(0..3u32);
        for _ in 0..rng.gen_range(0..200) {
            index = match rng.gen_range(0..6) {
                0 => rng.gen(),
                1 => index.wrapping_sub(rng.gen_range(0..3)),
                _ => index.wrapping_add(1),
            };
            let start = match rng.gen_range(0..5) {
                0 => at.saturating_sub(rng.gen_range(1..10_000_000)),
                1 => at + rng.gen_range(1u64 << 32..1 << 45),
                _ => at + rng.gen_range(0..2_000_000),
            };
            let end = start
                + match rng.gen_range(0..4) {
                    0 => 0,
                    1 => rng.gen_range(1u64 << 32..1 << 44),
                    _ => rng.gen_range(1..3_000_000),
                };
            let record = InvocationRecord {
                index,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
                comm_failures: counter(&mut rng),
                transients: counter(&mut rng),
                forwards: counter(&mut rng),
                resents: counter(&mut rng),
            };
            log.push(record.clone());
            model.push(record);
            at = end;
        }
        if rng.gen_bool(0.5) {
            log.shrink_to_fit();
        }
        let copy = log.clone();
        for store in [&log, &copy] {
            assert_eq!(
                (store.len(), store.is_empty()),
                (model.len(), model.is_empty())
            );
            assert_eq!(store.iter().collect::<Vec<_>>(), model, "case {case}");
            let mut read = store.into_iter();
            let first = read.next();
            assert_eq!(first.as_ref(), model.first());
            assert_eq!(read.len(), model.len().saturating_sub(1));
        }
    }
}

/// A paper-like record costs at most eight bytes once the log is shrunk:
/// a mask byte, three varint bytes of a gap of about 1 ms, three or four
/// of a round trip of 1 to 3 ms, and one more for each non-zero counter.
/// The parent of the change that wrote this test kept a 40-byte record
/// apiece.
#[test]
fn a_stored_invocation_record_costs_at_most_eight_bytes() {
    const RECORDS: u32 = 10_000;
    const BUDGET_PER_RECORD: u64 = 8;

    let mut rng = StdRng::seed_from_u64(5);
    let (log, spent) = common::tally(|| {
        let mut log = RecordLog::default();
        let mut end = 0;
        for index in 0..RECORDS {
            let start = end + rng.gen_range(1_000_000..1_100_000);
            let rtt = if rng.gen_bool(0.005) {
                10_000_000
            } else {
                rng.gen_range(1_000_000..3_000_000)
            };
            end = start + rtt;
            log.push(InvocationRecord {
                index,
                start: SimTime::from_nanos(start),
                end: SimTime::from_nanos(end),
                comm_failures: u32::from(rng.gen_bool(0.005)),
                transients: 0,
                forwards: u32::from(rng.gen_bool(0.005)),
                resents: 0,
            });
        }
        log.shrink_to_fit();
        log
    });
    assert_eq!(log.len(), RECORDS as usize);
    let held = spent.live as u64;
    assert!(
        held <= BUDGET_PER_RECORD * u64::from(RECORDS),
        "{RECORDS} records hold {held} live bytes, {:.2} a record (budget {BUDGET_PER_RECORD})",
        held as f64 / f64::from(RECORDS)
    );
}

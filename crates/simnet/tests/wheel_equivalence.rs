//! Property-based equivalence of the hierarchical timing wheel against a
//! reference `BinaryHeap` model: under arbitrary interleavings of
//! schedules and deadline-bounded pops — with deliberately colliding
//! timestamps — both structures must serve the exact same `(time, seq)`
//! sequence, including the seq tie-break among equal times. The 13
//! pinned scenario digests rest on this total order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::TimingWheel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cases a property runs.
const CASES: u64 = 256;

const TICK: u64 = 1 << 16; // wheel tick granularity in ns
const HORIZON: u64 = TICK << 36; // first time past the wheel's range

#[derive(Clone, Debug)]
enum Op {
    /// Schedule at `base + jitter`; many pushes share a base so equal
    /// timestamps (tie-broken by seq) are common, not accidental.
    Push { base: u64, jitter: u64 },
    /// Pop everything due up to the deadline, one entry at a time.
    PopDue { deadline: u64 },
}

fn op(rng: &mut StdRng) -> Op {
    // Three pushes to two pops, so the wheel stays populated.
    if rng.gen_range(0..5) < 3 {
        // Bases collide across five buckets; jitter spans sub-tick
        // offsets, a few slots, a level boundary, and the far-overflow
        // horizon.
        let base = rng.gen_range(0..5) * 40_000;
        let jitter = match rng.gen_range(0..6) {
            0 => 0,
            1 => rng.gen_range(1..3),
            2 => TICK,
            3 => TICK * 64,
            4 => TICK * 64 * 64 * 3,
            _ => HORIZON + 17,
        };
        Op::Push { base, jitter }
    } else {
        let deadline = match rng.gen_range(0..5) {
            0 => 0,
            1 => rng.gen_range(40_000..200_000),
            2 => TICK * 128,
            3 => HORIZON * 2,
            _ => u64::MAX,
        };
        Op::PopDue { deadline }
    }
}

#[test]
fn wheel_matches_heap_model() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ops: Vec<Op> = (0..rng.gen_range(1..250)).map(|_| op(rng)).collect();
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // The kernel never schedules into the past; track its clock.
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Push { base, jitter } => {
                    let at = now.max(base.saturating_add(jitter));
                    wheel.push(at, seq, seq);
                    model.push(Reverse((at, seq)));
                    seq += 1;
                }
                Op::PopDue { deadline } => {
                    let deadline = now.max(deadline);
                    loop {
                        let expected = match model.peek() {
                            Some(&Reverse((at, _))) if at <= deadline => model.pop(),
                            _ => None,
                        };
                        let got = wheel.pop_due(deadline);
                        match (expected, got) {
                            (None, None) => break,
                            (Some(Reverse((at, s))), Some((gat, gseq, gval))) => {
                                assert_eq!((at, s, s), (gat, gseq, gval), "seed {seed}");
                                now = now.max(gat);
                            }
                            (e, g) => {
                                panic!("seed {seed}: model/wheel diverged: model={e:?} wheel={g:?}")
                            }
                        }
                    }
                    // After a bounded pop the kernel clock stands at the
                    // deadline (Idle and DeadlineReached both land there).
                    now = now.max(deadline);
                }
            }
            assert_eq!(wheel.len(), model.len(), "seed {seed}");
            assert_eq!(wheel.is_empty(), model.is_empty(), "seed {seed}");
        }
        // Full drain must agree to the last entry, ties included.
        while let Some(Reverse((at, s))) = model.pop() {
            let got = wheel.pop_due(u64::MAX);
            assert_eq!(Some((at, s, s)), got, "seed {seed}");
        }
        assert!(wheel.is_empty(), "seed {seed}");
        assert_eq!(wheel.pop_due(u64::MAX).map(|e| e.0), None, "seed {seed}");
    }
}

/// Same-timestamp bursts must come back in exact seq (FIFO) order —
/// the tie-break the notify-requeue storm depends on.
#[test]
fn equal_timestamps_pop_in_seq_order() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..200u64);
        let at = [0, 123_456, TICK * 7 + 3, HORIZON + 1][rng.gen_range(0..4)];
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        for seq in 0..n {
            wheel.push(at, seq, seq);
        }
        for seq in 0..n {
            assert_eq!(wheel.pop_due(u64::MAX), Some((at, seq, seq)), "seed {seed}");
        }
        assert!(wheel.is_empty(), "seed {seed}");
    }
}

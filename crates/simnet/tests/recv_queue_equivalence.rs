//! Observational equivalence of the segmented [`RecvQueue`] with the
//! original `VecDeque<u8>` byte queue it replaced on the kernel's delivery
//! path.
//!
//! The model below is the pre-optimisation implementation, verbatim in
//! behaviour: delivery appended every byte individually, and a read
//! drained up to `max` bytes into a fresh buffer. For every interleaving
//! of pushes, bounded reads, clears and EOF checks, the two must return
//! the same bytes, the same lengths and the same emptiness — that is the
//! contract that lets the zero-copy queue slot into `read()`/EOF handling
//! unchanged.
//!
//! The queue keeps its front segment inline and the rest behind it, so
//! two interleavings get built on purpose rather than left to chance: a
//! read that drains the inline head partway through and carries on into
//! the segments behind it, and a push that lands while the head is partly
//! read.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::RecvQueue;

/// Cases a property runs.
const CASES: u64 = 256;

/// The original byte-at-a-time receive buffer.
#[derive(Default)]
struct ByteQueue {
    bytes: VecDeque<u8>,
}

impl ByteQueue {
    fn push(&mut self, data: &[u8]) {
        for &b in data {
            self.bytes.push_back(b);
        }
    }

    fn read(&mut self, max: usize) -> Vec<u8> {
        let take = max.min(self.bytes.len());
        self.bytes.drain(..take).collect()
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }

    fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn clear(&mut self) {
        self.bytes.clear();
    }
}

/// One step of an interleaving.
#[derive(Clone, Debug)]
enum Op {
    Push(Vec<u8>),
    Read(usize),
    Clear,
}

fn bytes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    (0..rng.gen_range(len)).map(|_| rng.gen()).collect()
}

fn op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..3) {
        0 => Op::Push(bytes(rng, 0..48)),
        // Read bounds straddle every interesting case: zero, mid-segment,
        // exact segment, spanning, and far beyond the buffered total.
        1 => Op::Read(rng.gen_range(0..128)),
        _ => Op::Clear,
    }
}

fn ops(rng: &mut StdRng, count: std::ops::Range<usize>) -> Vec<Op> {
    (0..rng.gen_range(count)).map(|_| op(rng)).collect()
}

/// Applies `op` to both queues and compares what they return and hold.
fn step(seed: u64, model: &mut ByteQueue, queue: &mut RecvQueue, op: &Op) {
    match op {
        Op::Push(data) => {
            model.push(data);
            queue.push(Bytes::copy_from_slice(data));
        }
        Op::Read(max) => {
            let want = model.read(*max);
            let got = queue.read(*max);
            assert_eq!(&got[..], &want[..], "seed {seed}: {op:?}");
        }
        Op::Clear => {
            model.clear();
            queue.clear();
        }
    }
    assert_eq!(queue.len(), model.len(), "seed {seed}: {op:?}");
    assert_eq!(queue.is_empty(), model.is_empty(), "seed {seed}: {op:?}");
}

/// Drains whatever is left and compares the tail too (EOF is gated on
/// `is_empty`, so the tail must agree byte for byte).
fn drain(seed: u64, model: &mut ByteQueue, queue: &mut RecvQueue) {
    step(seed, model, queue, &Op::Read(usize::MAX));
    assert!(queue.is_empty(), "seed {seed}");
}

#[test]
fn segmented_queue_matches_byte_queue() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut model = ByteQueue::default();
        let mut queue = RecvQueue::new();
        for op in &ops(rng, 0..60) {
            step(seed, &mut model, &mut queue, op);
        }
        drain(seed, &mut model, &mut queue);
    }
}

/// Nibble at the head, push behind it while it is partly read, then
/// read past its end into the segments behind, so that it drains
/// mid-read. A second round pushes the same segments again behind
/// whatever that read left — most often a split segment — and reads
/// on.
#[test]
fn the_inline_head_drains_mid_read_and_takes_pushes_while_partly_read() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let head = bytes(rng, 1..24);
        let behind: Vec<Vec<u8>> = (0..rng.gen_range(1..5))
            .map(|_| bytes(rng, 1..24))
            .collect();
        // Strictly inside the head.
        let nibble = rng.gen_range(0..head.len());
        let past = rng.gen_range(1..48);
        let rounds = rng.gen_range(1..3);

        let mut model = ByteQueue::default();
        let mut queue = RecvQueue::new();
        step(seed, &mut model, &mut queue, &Op::Push(head.clone()));
        step(seed, &mut model, &mut queue, &Op::Read(nibble));
        let mut read = head.len() - nibble + past;
        for _ in 0..rounds {
            for segment in &behind {
                step(seed, &mut model, &mut queue, &Op::Push(segment.clone()));
            }
            step(seed, &mut model, &mut queue, &Op::Read(read));
            read = past;
        }
        drain(seed, &mut model, &mut queue);
    }
}

#[test]
fn reads_never_exceed_max() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ops = ops(rng, 0..40);
        let max = rng.gen_range(0..64);
        let mut queue = RecvQueue::new();
        for op in &ops {
            match op {
                Op::Push(data) => queue.push(Bytes::copy_from_slice(data)),
                Op::Read(_) | Op::Clear => {
                    let before = queue.len();
                    let out = queue.read(max);
                    assert!(out.len() <= max, "seed {seed}");
                    assert_eq!(out.len(), before.min(max), "seed {seed}");
                    assert_eq!(queue.len(), before - out.len(), "seed {seed}");
                }
            }
        }
    }
}

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
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simnet::RecvQueue;

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

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48).prop_map(Op::Push),
        // Read bounds straddle every interesting case: zero, mid-segment,
        // exact segment, spanning, and far beyond the buffered total.
        (0usize..128).prop_map(Op::Read),
        Just(Op::Clear),
    ]
}

/// Applies `op` to both queues and compares what they return and hold.
fn step(model: &mut ByteQueue, queue: &mut RecvQueue, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::Push(data) => {
            model.push(data);
            queue.push(Bytes::copy_from_slice(data));
        }
        Op::Read(max) => {
            let want = model.read(*max);
            let got = queue.read(*max);
            prop_assert_eq!(&got[..], &want[..]);
        }
        Op::Clear => {
            model.clear();
            queue.clear();
        }
    }
    prop_assert_eq!(queue.len(), model.len());
    prop_assert_eq!(queue.is_empty(), model.is_empty());
    Ok(())
}

/// Drains whatever is left and compares the tail too (EOF is gated on
/// `is_empty`, so the tail must agree byte for byte).
fn drain(model: &mut ByteQueue, queue: &mut RecvQueue) -> Result<(), TestCaseError> {
    step(model, queue, &Op::Read(usize::MAX))?;
    prop_assert!(queue.is_empty());
    Ok(())
}

proptest! {
    #[test]
    fn segmented_queue_matches_byte_queue(ops in prop::collection::vec(arb_op(), 0..60)) {
        let mut model = ByteQueue::default();
        let mut queue = RecvQueue::new();
        for op in &ops {
            step(&mut model, &mut queue, op)?;
        }
        drain(&mut model, &mut queue)?;
    }

    /// Nibble at the head, push behind it while it is partly read, then
    /// read past its end into the segments behind, so that it drains
    /// mid-read. A second round pushes the same segments again behind
    /// whatever that read left — most often a split segment — and reads
    /// on.
    #[test]
    fn the_inline_head_drains_mid_read_and_takes_pushes_while_partly_read(
        head in prop::collection::vec(any::<u8>(), 1..24),
        behind in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..24), 1..5),
        nibble in 0usize..24,
        past in 1usize..48,
        rounds in 1usize..3,
    ) {
        let mut model = ByteQueue::default();
        let mut queue = RecvQueue::new();
        step(&mut model, &mut queue, &Op::Push(head.clone()))?;
        // Strictly inside the head.
        let nibble = nibble % head.len();
        step(&mut model, &mut queue, &Op::Read(nibble))?;
        let mut read = head.len() - nibble + past;
        for _ in 0..rounds {
            for segment in &behind {
                step(&mut model, &mut queue, &Op::Push(segment.clone()))?;
            }
            step(&mut model, &mut queue, &Op::Read(read))?;
            read = past;
        }
        drain(&mut model, &mut queue)?;
    }

    #[test]
    fn reads_never_exceed_max(ops in prop::collection::vec(arb_op(), 0..40), max in 0usize..64) {
        let mut queue = RecvQueue::new();
        for op in &ops {
            match op {
                Op::Push(data) => queue.push(Bytes::copy_from_slice(data)),
                Op::Read(_) | Op::Clear => {
                    let before = queue.len();
                    let out = queue.read(max);
                    prop_assert!(out.len() <= max);
                    prop_assert_eq!(out.len(), before.min(max));
                    prop_assert_eq!(queue.len(), before - out.len());
                }
            }
        }
    }
}

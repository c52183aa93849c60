//! Segmented, zero-copy receive buffering.
//!
//! The simulator's original endpoint receive buffer was a `VecDeque<u8>`:
//! every delivered segment was appended **byte by byte** and every `read`
//! drained into a fresh `Vec` before wrapping it in [`Bytes`] — two full
//! copies (plus per-byte overhead) on the hottest path in the kernel.
//!
//! [`RecvQueue`] keeps the delivered [`Bytes`] segments themselves.
//! Delivery is an O(1) enqueue of an already-refcounted buffer; a read
//! that consumes a whole segment (the overwhelmingly common case — the
//! interceptors read with `max` far larger than a GIOP frame) pops it
//! back out without touching the payload, and a partial read is an O(1)
//! [`Bytes::split_to`]. Only a read spanning multiple segments copies,
//! and then exactly once into a buffer sized up front.
//!
//! Observational equivalence with the old byte queue — same bytes, same
//! order, same lengths returned for every `push`/`read(max)`/`clear`
//! interleaving — is pinned down by a property test in
//! `crates/simnet/tests/recv_queue_equivalence.rs`.
//!
//! A queue almost always holds at most one segment: a frame arrives and
//! is read whole before the next one lands. So the front segment lives
//! inline in the queue, and the segments behind it go to a deque that is
//! allocated the first time a segment arrives while another is unread.
//! The queue is then no larger than the deque and length it replaced, and
//! an idle endpoint — a fleet has tens of thousands — costs no heap.

use std::collections::VecDeque;

use bytes::Bytes;

/// A FIFO of received byte segments supporting zero-copy bulk reads.
#[derive(Debug, Default, Clone)]
pub struct RecvQueue {
    /// The front segment; empty exactly when the whole queue is.
    head: Bytes,
    /// Segments queued behind `head`, in arrival order. Boxed so that a
    /// queue that never needed it pays one word for it, not four.
    #[allow(clippy::box_collection)]
    rest: Option<Box<VecDeque<Bytes>>>,
}

impl RecvQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total buffered bytes across all segments.
    pub fn len(&self) -> usize {
        let rest = self.rest.iter().flat_map(|rest| rest.iter());
        rest.fold(self.head.len(), |len, segment| {
            len.saturating_add(segment.len())
        })
    }

    /// `true` when no bytes are buffered.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    /// Enqueues a delivered segment without copying it. Empty segments
    /// are dropped so they can never stall EOF detection.
    pub fn push(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        if self.head.is_empty() {
            self.head = data;
        } else {
            self.rest.get_or_insert_with(Box::default).push_back(data);
        }
    }

    /// Takes the whole front segment, moving the next one up.
    fn pop_head(&mut self) -> Bytes {
        let next = self.rest.as_mut().and_then(|rest| rest.pop_front());
        std::mem::replace(&mut self.head, next.unwrap_or_default())
    }

    /// Dequeues up to `max` bytes, preserving arrival order.
    ///
    /// Fast paths return a view of an existing segment (no copy); a read
    /// spanning segments copies once into an exactly-sized buffer.
    pub fn read(&mut self, max: usize) -> Bytes {
        let take = max.min(self.len());
        if take == 0 {
            return Bytes::new();
        }
        if take < self.head.len() {
            // Partial read of the front segment: O(1) split.
            return self.head.split_to(take);
        }
        if take == self.head.len() {
            // Whole-segment read: O(1) pop.
            return self.pop_head();
        }

        // Spanning read: one copy into a buffer reserved up front.
        let mut out = Vec::with_capacity(take);
        while out.len() < take && !self.head.is_empty() {
            let want = take - out.len();
            if self.head.len() > want {
                out.extend_from_slice(&self.head.split_to(want));
            } else {
                out.extend_from_slice(&self.pop_head());
            }
        }
        Bytes::from(out)
    }

    /// Discards all buffered bytes.
    pub fn clear(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_then_whole_segment_read_is_the_same_buffer() {
        let mut q = RecvQueue::new();
        q.push(Bytes::from_static(b"hello"));
        assert_eq!(q.len(), 5);
        let out = q.read(64);
        assert_eq!(&out[..], b"hello");
        assert!(q.is_empty());
    }

    #[test]
    fn partial_read_splits_front_segment() {
        let mut q = RecvQueue::new();
        q.push(Bytes::from_static(b"abcdef"));
        assert_eq!(&q.read(2)[..], b"ab");
        assert_eq!(q.len(), 4);
        assert_eq!(&q.read(2)[..], b"cd");
        assert_eq!(&q.read(100)[..], b"ef");
        assert!(q.is_empty());
    }

    #[test]
    fn spanning_read_concatenates_in_order() {
        let mut q = RecvQueue::new();
        q.push(Bytes::from_static(b"ab"));
        q.push(Bytes::from_static(b"cd"));
        q.push(Bytes::from_static(b"ef"));
        assert_eq!(&q.read(5)[..], b"abcde");
        assert_eq!(q.len(), 1);
        assert_eq!(&q.read(5)[..], b"f");
    }

    #[test]
    fn zero_and_empty_reads() {
        let mut q = RecvQueue::new();
        assert_eq!(q.read(10).len(), 0);
        q.push(Bytes::from_static(b"x"));
        assert_eq!(q.read(0).len(), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_segments_are_dropped() {
        let mut q = RecvQueue::new();
        q.push(Bytes::new());
        assert!(q.is_empty());
        q.push(Bytes::from_static(b"a"));
        q.push(Bytes::new());
        q.push(Bytes::from_static(b"b"));
        assert_eq!(&q.read(10)[..], b"ab");
    }

    #[test]
    fn clear_discards_everything() {
        let mut q = RecvQueue::new();
        q.push(Bytes::from_static(b"abc"));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.read(10).len(), 0);
    }

    #[test]
    fn interleaved_push_read_preserves_fifo() {
        let mut q = RecvQueue::new();
        q.push(Bytes::from_static(b"123"));
        assert_eq!(&q.read(1)[..], b"1");
        q.push(Bytes::from_static(b"45"));
        assert_eq!(&q.read(4)[..], b"2345");
        assert!(q.is_empty());
    }
}

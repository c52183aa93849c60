//! Reassembly buffer shared by the stream splitters.
//!
//! A splitter is fed the segments a connection delivers and hands out
//! the frames inside them. Almost every segment is exactly one frame
//! (one `write` on the sending side), so [`SegmentBuf`] keeps the
//! delivered [`Bytes`] itself and hands frames out as O(1) sub-views of
//! it; no byte is copied. Only when a segment arrives while an earlier
//! one is still unconsumed (a frame split across deliveries) do the
//! pieces move into one contiguous spill buffer, which grows amortised
//! and is frozen back into a `Bytes` once it holds a complete frame — so
//! a frame trickling in a byte at a time still costs time linear in its
//! length.

use bytes::Bytes;

/// A FIFO of stream bytes readable as one contiguous slice.
///
/// Invariant: the logical content is `head ++ spill`, and `spill` is
/// non-empty only while there is no `head` — so [`peek`](Self::peek)
/// never has to join anything. `head` is an `Option` so that taking a
/// segment in and handing it back out whole are plain moves, with no
/// reference count touched.
#[derive(Clone, Debug, Default)]
pub struct SegmentBuf {
    head: Option<Bytes>,
    spill: Vec<u8>,
}

impl SegmentBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a delivered segment, taking over its buffer.
    pub fn push(&mut self, segment: Bytes) {
        if segment.is_empty() {
            return;
        }
        if self.spill.is_empty() {
            match self.head.take() {
                None => {
                    self.head = Some(segment);
                    return;
                }
                Some(head) => self.spill.extend_from_slice(&head),
            }
        }
        self.spill.extend_from_slice(&segment);
    }

    /// Bytes buffered.
    pub fn len(&self) -> usize {
        self.peek().len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.peek().is_empty()
    }

    /// Everything buffered, in arrival order.
    pub fn peek(&self) -> &[u8] {
        match &self.head {
            Some(head) => head,
            None => &self.spill,
        }
    }

    /// Removes and returns the first `n` bytes, or `None` (removing
    /// nothing) when fewer are buffered.
    pub fn split_to(&mut self, n: usize) -> Option<Bytes> {
        if n > self.len() {
            return None;
        }
        if !self.spill.is_empty() {
            self.head = Some(Bytes::from(std::mem::take(&mut self.spill)));
        }
        match &mut self.head {
            Some(head) if n < head.len() => Some(head.split_to(n)),
            // All of it: the segment itself moves out.
            Some(_) => self.head.take(),
            None => Some(Bytes::new()), // n == 0 of nothing
        }
    }

    /// Removes and returns everything buffered.
    pub fn take(&mut self) -> Bytes {
        let all = self.len();
        self.split_to(all).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_segment_comes_back_as_the_same_bytes() {
        let mut b = SegmentBuf::new();
        b.push(Bytes::from_static(b"abcdef"));
        assert_eq!(b.peek(), b"abcdef");
        assert_eq!(b.split_to(4).unwrap(), b"abcd"[..]);
        assert_eq!(b.peek(), b"ef");
        assert_eq!(b.split_to(3), None);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn segments_pushed_behind_a_remainder_are_joined_in_order() {
        let mut b = SegmentBuf::new();
        for chunk in [&b"ab"[..], b"", b"c", b"def"] {
            b.push(Bytes::copy_from_slice(chunk));
        }
        assert_eq!(b.len(), 6);
        assert_eq!(b.peek(), b"abcdef");
        assert_eq!(b.split_to(5).unwrap(), b"abcde"[..]);
        b.push(Bytes::from_static(b"gh"));
        assert_eq!(b.take(), b"fgh"[..]);
        assert!(b.is_empty());
        assert_eq!(b.take().len(), 0);
    }
}

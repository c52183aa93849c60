//! Shared interceptor plumbing: staged streams, timer-token namespaces and
//! the one CPU charge both interceptor halves pay.
//!
//! The interceptor sits between the kernel and the application process the
//! way the paper's `LD_PRELOAD` library sits between libc and the ORB: it
//! sees every read and write first. Incoming bytes are drained from the
//! real connection into a per-stream [`giop::FrameSplitter`]; control
//! frames are consumed, application frames are re-staged byte-identically
//! for the application's own `read()` to pick up. A [`Stream`] is only
//! that scanning and staging; each interceptor half wraps it in its own
//! per-connection record with what that half alone tracks (the client's
//! redirect, the server's harvested object keys).
//!
//! Nothing on this path copies a message: the splitter holds the segment
//! the kernel delivered, a frame is a reference-counted view of it, and
//! staging a frame (or holding a write during a redirect) keeps that view.

use bytes::Bytes;
use giop::{Frame, FrameSplitter, GiopError};
use simnet::{ReadOutcome, RecvQueue, SimDuration};

/// Timer tokens at or above this value belong to the interceptor (and its
/// embedded GCS client); application code must keep its tokens below.
pub const TOKEN_BASE: u64 = 1 << 62;
/// GCS client retry timer.
pub const TOKEN_GCS: u64 = TOKEN_BASE;
/// Post-migration drain timer.
pub const TOKEN_DRAIN: u64 = TOKEN_BASE + 2;
/// Warm-passive checkpoint timer.
pub const TOKEN_CHECKPOINT: u64 = TOKEN_BASE + 3;
/// Address-query timeout timer (client side, 10 ms).
pub const TOKEN_QUERY_TIMEOUT: u64 = TOKEN_BASE + 4;
/// Base for resource-fault timers (server side); the offset is the
/// fault's index in the replica's list, and the one timer both arms a
/// fault armed at an instant and ticks it.
pub const TOKEN_RESOURCE_BASE: u64 = TOKEN_BASE + 5;
/// Base for redirect-completion timers (client side); the offset is the
/// raw application id of the connection whose redirect is finishing.
pub const TOKEN_REDIRECT_DONE_BASE: u64 = TOKEN_BASE + 1000;

/// Fabricating a reply or rewriting a message, charged by either
/// interceptor half (calibrated with the other interceptor costs,
/// DESIGN §7).
pub const FABRICATE_CPU: SimDuration = SimDuration::from_micros(80);

/// `true` when a timer token belongs to interceptor infrastructure.
pub fn is_intercept_token(token: u64) -> bool {
    token >= TOKEN_BASE
}

/// What a [`Scanner`] found next in its direction of a stream.
#[derive(Debug)]
pub enum Scanned {
    /// A complete GIOP or MEAD frame.
    Frame(Frame),
    /// The stream no longer frames: everything buffered, to be passed on
    /// untouched. Carries the error the first time only.
    Raw(Bytes, Option<GiopError>),
}

/// One direction of an intercepted stream: a frame splitter that turns
/// into a pass-through once the stream desynchronises. A splitter that
/// met bad bytes can never frame anything behind them, so instead of
/// buffering the rest of the connection's traffic behind the poison the
/// scanner hands it on raw — the ORB above then sees the corrupt stream
/// and tears the connection down itself.
#[derive(Clone, Debug, Default)]
pub struct Scanner {
    split: FrameSplitter,
    desynced: bool,
}

impl Scanner {
    /// Appends a segment, taking over its buffer.
    pub fn push(&mut self, data: Bytes) {
        self.split.push_bytes(data);
    }

    /// The next complete frame, or the unframeable rest; `None` when
    /// nothing more can be taken yet.
    pub fn scan(&mut self) -> Option<Scanned> {
        let mut error = None;
        if !self.desynced {
            match self.split.next_frame() {
                Ok(frame) => return frame.map(Scanned::Frame),
                Err(e) => {
                    self.desynced = true;
                    error = Some(e);
                }
            }
        }
        let raw = self.split.take_buffered();
        (!raw.is_empty()).then_some(Scanned::Raw(raw, error))
    }
}

/// One intercepted byte stream: what both interceptor halves scan and
/// stage for it. Each half keeps its streams inside its own
/// per-connection record, next to what only that half tracks.
#[derive(Clone, Debug, Default)]
pub struct Stream {
    /// Scanner over incoming real bytes.
    pub incoming: Scanner,
    /// Scanner over outgoing application bytes.
    pub outgoing: Scanner,
    /// Bytes staged for the application to read. Segmented so staging a
    /// frame is a zero-copy enqueue of its refcounted bytes.
    stage: RecvQueue,
    /// EOF reached (after `stage` drains).
    pub stage_eof: bool,
}

impl Stream {
    /// Re-stages a frame byte-identically for the application to read.
    /// Zero-copy: the frame's refcounted bytes are enqueued as a segment.
    pub fn stage_frame(&mut self, frame: Frame) {
        self.stage.push(frame.bytes);
    }

    /// Stages raw bytes (fabricated replies, a desynchronised stream).
    pub fn stage_bytes(&mut self, bytes: Bytes) {
        self.stage.push(bytes);
    }

    /// Bytes currently staged.
    pub fn staged_len(&self) -> usize {
        self.stage.len()
    }

    /// Serves the application's `read()` from the stage.
    pub fn read(&mut self, max: usize) -> ReadOutcome {
        let data = self.stage.read(max);
        ReadOutcome {
            data,
            eof: self.stage.is_empty() && self.stage_eof,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use giop::{Endian, Message};

    #[test]
    fn token_namespace() {
        assert!(is_intercept_token(TOKEN_GCS));
        assert!(is_intercept_token(TOKEN_QUERY_TIMEOUT));
        assert!(!is_intercept_token(0));
        assert!(!is_intercept_token(TOKEN_BASE - 1));
    }

    #[test]
    fn stage_and_read_roundtrip() {
        let mut s = Stream::default();
        let wire = Message::CloseConnection.encode(Endian::Big);
        s.incoming.push(wire.clone());
        let Some(Scanned::Frame(frame)) = s.incoming.scan() else {
            panic!("one complete frame was pushed");
        };
        assert!(s.incoming.scan().is_none());
        s.stage_frame(frame);
        assert_eq!(s.staged_len(), wire.len());
        let out = s.read(usize::MAX);
        assert_eq!(&out.data[..], &wire[..]);
        assert!(!out.eof);
        s.stage_eof = true;
        assert!(s.read(usize::MAX).eof);
    }

    #[test]
    fn partial_reads_respect_max() {
        let mut s = Stream::default();
        s.stage_bytes(Bytes::from_static(&[1, 2, 3, 4, 5]));
        let first = s.read(2);
        assert_eq!(&first.data[..], &[1, 2]);
        let rest = s.read(usize::MAX);
        assert_eq!(&rest.data[..], &[3, 4, 5]);
    }

    #[test]
    fn a_desynchronised_scanner_passes_everything_on_raw() {
        let good = Message::CloseConnection.encode(Endian::Big);
        let mut sc = Scanner::default();
        sc.push(good.clone());
        sc.push(Bytes::from_static(b"NOT A FRAME HEADER"));
        assert!(matches!(sc.scan(), Some(Scanned::Frame(f)) if f.bytes == good));
        match sc.scan() {
            Some(Scanned::Raw(raw, Some(GiopError::BadMagic(_)))) => {
                assert_eq!(&raw[..], b"NOT A FRAME HEADER");
            }
            other => panic!("expected the poisoned bytes raw, got {other:?}"),
        }
        assert!(sc.scan().is_none());
        // Later traffic — even well-formed — is no longer framed.
        sc.push(good.clone());
        assert!(matches!(sc.scan(), Some(Scanned::Raw(raw, None)) if raw == good));
        assert!(sc.scan().is_none());
    }
}

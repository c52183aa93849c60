//! GIOP message types, encoding and decoding.
//!
//! The General Inter-ORB Protocol rides on a connection-oriented transport
//! and frames every message with a fixed 12-byte header: the magic
//! `"GIOP"`, a protocol version, a flags octet (bit 0 = little-endian), a
//! message type and the body length. We implement GIOP 1.0 framing with
//! the 1.2 `NEEDS_ADDRESSING_MODE` reply status, which the paper's second
//! scheme fabricates at the client-side interceptor.
//!
//! MEAD's own proactive fail-over messages (crate `mead`) reuse the same
//! 12-byte header layout with the magic `"MEAD"`, so one stream splitter
//! ([`FrameSplitter`]) can carve both kinds of frame out of an intercepted
//! byte stream — that is exactly what the paper's interceptor does when it
//! filters "custom MEAD messages that we piggyback onto regular GIOP
//! messages" (section 3.1).

use bytes::Bytes;
use core::fmt;

use crate::cdr::{CdrError, CdrReader, CdrWriter, Endian};
use crate::ior::Ior;
use crate::key::ObjectKey;
use crate::segbuf::SegmentBuf;

/// Magic bytes opening every GIOP message.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";
/// Magic bytes opening every MEAD control message (see crate `mead`).
pub const MEAD_MAGIC: [u8; 4] = *b"MEAD";
/// Fixed header length shared by GIOP and MEAD frames.
pub const HEADER_LEN: usize = 12;

/// Bounds-checked 4-byte read at `at` (frames are untrusted wire bytes;
/// the decode paths are a detlint R3 no-panic zone).
fn read4(bytes: &[u8], at: usize) -> Result<[u8; 4], GiopError> {
    bytes
        .get(at..at.saturating_add(4))
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or(GiopError::Truncated)
}

/// Bounds-checked single-byte read at `at`.
fn read_u8_at(bytes: &[u8], at: usize) -> Result<u8, GiopError> {
    bytes.get(at).copied().ok_or(GiopError::Truncated)
}

/// Decodes the 4-byte body length at header offset 8 in `endian` order.
fn read_len(bytes: &[u8], little: bool) -> Result<usize, GiopError> {
    let raw = read4(bytes, 8)?;
    let len = if little {
        u32::from_le_bytes(raw)
    } else {
        u32::from_be_bytes(raw)
    };
    Ok(len as usize)
}

/// GIOP message type octet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Client request.
    Request = 0,
    /// Server reply.
    Reply = 1,
    /// Cancels an outstanding request.
    CancelRequest = 2,
    /// Object-location query.
    LocateRequest = 3,
    /// Object-location answer.
    LocateReply = 4,
    /// Orderly connection shutdown.
    CloseConnection = 5,
    /// Protocol error notification.
    MessageError = 6,
}

impl MsgType {
    /// The wire octet for this message type (inverse of `from_u8`).
    pub fn code(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CancelRequest => 2,
            MsgType::LocateRequest => 3,
            MsgType::LocateReply => 4,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    fn from_u8(v: u8) -> Result<Self, GiopError> {
        Ok(match v {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            2 => MsgType::CancelRequest,
            3 => MsgType::LocateRequest,
            4 => MsgType::LocateReply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            other => return Err(GiopError::UnknownMsgType(other)),
        })
    }
}

/// GIOP reply status, including the two statuses the paper's proactive
/// schemes hinge on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ReplyStatus {
    /// Normal completion; body holds results.
    NoException = 0,
    /// Application-defined exception.
    UserException = 1,
    /// ORB/system exception (`COMM_FAILURE`, `TRANSIENT`, ...).
    SystemException = 2,
    /// "Retry this request at the object denoted by the enclosed IOR" —
    /// scheme 4.1.
    LocationForward = 3,
    /// "Supply more addressing information and resend" — scheme 4.2.
    NeedsAddressingMode = 5,
}

impl ReplyStatus {
    /// The wire discriminant for this status (inverse of `from_u32`).
    pub fn code(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::UserException => 1,
            ReplyStatus::SystemException => 2,
            ReplyStatus::LocationForward => 3,
            ReplyStatus::NeedsAddressingMode => 5,
        }
    }

    fn from_u32(v: u32) -> Result<Self, GiopError> {
        Ok(match v {
            0 => ReplyStatus::NoException,
            1 => ReplyStatus::UserException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::LocationForward,
            5 => ReplyStatus::NeedsAddressingMode,
            other => {
                return Err(GiopError::Cdr(CdrError::InvalidEnum {
                    what: "ReplyStatus",
                    value: other,
                }))
            }
        })
    }
}

/// Errors raised while decoding GIOP frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GiopError {
    /// The frame does not start with a known magic.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message-type octet.
    UnknownMsgType(u8),
    /// Marshalling error in header or body.
    Cdr(CdrError),
    /// Frame is shorter than its header claims.
    Truncated,
    /// A header declares a body longer than [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
}

impl fmt::Display for GiopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GiopError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            GiopError::BadVersion(ma, mi) => write!(f, "unsupported GIOP version {ma}.{mi}"),
            GiopError::UnknownMsgType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::Cdr(e) => write!(f, "marshalling error: {e}"),
            GiopError::Truncated => write!(f, "truncated frame"),
            GiopError::FrameTooLarge(len) => {
                write!(f, "declared body length {len} exceeds {MAX_FRAME_LEN}")
            }
        }
    }
}

impl std::error::Error for GiopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GiopError::Cdr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> Self {
        GiopError::Cdr(e)
    }
}

/// A client request message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestMessage {
    /// Matches the reply to the request on this connection.
    pub request_id: u32,
    /// `false` for oneway operations.
    pub response_expected: bool,
    /// Target object's persistent key.
    pub object_key: ObjectKey,
    /// Operation name, e.g. `"time_of_day"`.
    pub operation: String,
    /// CDR-encoded in-parameters.
    pub body: Vec<u8>,
}

/// The payload of a reply, by status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplyBody {
    /// Results (CDR-encoded out-parameters).
    NoException(Vec<u8>),
    /// Application exception (repository id).
    UserException(String),
    /// System exception.
    SystemException {
        /// Exception repository id, e.g. `"IDL:omg.org/CORBA/COMM_FAILURE:1.0"`.
        repo_id: String,
        /// Vendor minor code.
        minor: u32,
        /// Completion status (0 = YES, 1 = NO, 2 = MAYBE).
        completed: u32,
    },
    /// Redirect: retry at the object named by this IOR.
    LocationForward(Ior),
    /// Resend with more addressing information (addressing disposition).
    NeedsAddressingMode(u16),
}

impl ReplyBody {
    /// The wire status corresponding to this body.
    pub fn status(&self) -> ReplyStatus {
        match self {
            ReplyBody::NoException(_) => ReplyStatus::NoException,
            ReplyBody::UserException(_) => ReplyStatus::UserException,
            ReplyBody::SystemException { .. } => ReplyStatus::SystemException,
            ReplyBody::LocationForward(_) => ReplyStatus::LocationForward,
            ReplyBody::NeedsAddressingMode(_) => ReplyStatus::NeedsAddressingMode,
        }
    }
}

/// A server reply message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyMessage {
    /// Matches [`RequestMessage::request_id`].
    pub request_id: u32,
    /// Status-discriminated payload.
    pub body: ReplyBody,
}

/// Any GIOP message we produce or consume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Client request.
    Request(RequestMessage),
    /// Server reply.
    Reply(ReplyMessage),
    /// Orderly shutdown notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
}

impl Message {
    /// Encodes the message as a complete wire frame (header + body) in
    /// `endian` byte order. Header and body are written into one buffer.
    pub fn encode(&self, endian: Endian) -> Bytes {
        match self {
            Message::Request(req) => encode_request(
                req.request_id,
                req.response_expected,
                req.object_key.as_bytes(),
                &req.operation,
                &req.body,
                endian,
            ),
            Message::Reply(rep) => {
                // Results are sized exactly; the rare bodies may regrow.
                let hint = match &rep.body {
                    ReplyBody::NoException(out) => out.len().saturating_add(12),
                    _ => 128,
                };
                let mut w = frame_writer(GIOP_MAGIC, MsgType::Reply.code(), endian, hint);
                w.write_u32(0); // empty service context sequence
                w.write_u32(rep.request_id);
                w.write_u32(rep.body.status().code());
                match &rep.body {
                    ReplyBody::NoException(out) => w.write_raw(out),
                    ReplyBody::UserException(repo_id) => w.write_string(repo_id),
                    ReplyBody::SystemException {
                        repo_id,
                        minor,
                        completed,
                    } => {
                        w.write_string(repo_id);
                        w.write_u32(*minor);
                        w.write_u32(*completed);
                    }
                    ReplyBody::LocationForward(ior) => ior.write_into(&mut w),
                    ReplyBody::NeedsAddressingMode(disposition) => w.write_u16(*disposition),
                }
                w.finish()
            }
            Message::CloseConnection => {
                frame_writer(GIOP_MAGIC, MsgType::CloseConnection.code(), endian, 0).finish()
            }
            Message::MessageError => {
                frame_writer(GIOP_MAGIC, MsgType::MessageError.code(), endian, 0).finish()
            }
        }
    }

    /// Decodes a complete frame previously produced by a [`FrameSplitter`]
    /// into owned fields: [`MessageView::parse`], then
    /// [`MessageView::to_owned`].
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] on malformed input; never panics on hostile bytes.
    pub fn decode(frame: &[u8]) -> Result<Message, GiopError> {
        MessageView::parse(frame).map(|view| view.to_owned())
    }
}

/// Encodes a Request frame straight from borrowed parts — what
/// [`Message::encode`] does for a [`RequestMessage`], without first
/// collecting the parts into one.
pub fn encode_request(
    request_id: u32,
    response_expected: bool,
    object_key: &[u8],
    operation: &str,
    body: &[u8],
    endian: Endian,
) -> Bytes {
    // Fixed fields, three length words and alignment padding come to at
    // most 36 bytes, so the buffer never regrows.
    let hint = object_key
        .len()
        .saturating_add(operation.len())
        .saturating_add(body.len())
        .saturating_add(36);
    let mut w = frame_writer(GIOP_MAGIC, MsgType::Request.code(), endian, hint);
    w.write_u32(0); // empty service context sequence
    w.write_u32(request_id);
    w.write_bool(response_expected);
    w.write_octets(object_key);
    w.write_string(operation);
    w.write_octets(&[]); // principal (deprecated)
    w.write_raw(body);
    w.finish()
}

/// A [`CdrWriter`] positioned behind a 12-byte frame header (shared by
/// GIOP and MEAD messages); its `finish` fills in the body length.
/// `body_hint` sizes the buffer.
pub fn frame_writer(magic: [u8; 4], msg_type: u8, endian: Endian, body_hint: usize) -> CdrWriter {
    let [m0, m1, m2, m3] = magic;
    let flags = match endian {
        Endian::Big => 0,
        Endian::Little => 1,
    };
    // magic, major 1, minor 0, flags, type, length placeholder.
    let header: [u8; HEADER_LEN] = [m0, m1, m2, m3, 1, 0, flags, msg_type, 0, 0, 0, 0];
    CdrWriter::framed(endian, &header, 8, body_hint)
}

/// A Request read in place: every field is a view into the frame it was
/// parsed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestView<'a> {
    /// See [`RequestMessage::request_id`].
    pub request_id: u32,
    /// See [`RequestMessage::response_expected`].
    pub response_expected: bool,
    /// The target object's key bytes.
    pub object_key: &'a [u8],
    /// Operation name.
    pub operation: &'a str,
    /// CDR-encoded in-parameters.
    pub body: &'a [u8],
}

impl RequestView<'_> {
    /// Copies the viewed fields into a [`RequestMessage`].
    pub fn to_owned(&self) -> RequestMessage {
        RequestMessage {
            request_id: self.request_id,
            response_expected: self.response_expected,
            object_key: ObjectKey::from_slice(self.object_key),
            operation: self.operation.to_owned(),
            body: self.body.to_vec(),
        }
    }
}

/// The payload of a reply read in place. A forwarded [`Ior`] is decoded
/// eagerly (it is rare, and validating it is part of parsing the reply).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplyBodyView<'a> {
    /// See [`ReplyBody::NoException`].
    NoException(&'a [u8]),
    /// See [`ReplyBody::UserException`].
    UserException(&'a str),
    /// See [`ReplyBody::SystemException`].
    SystemException {
        /// Exception repository id.
        repo_id: &'a str,
        /// Vendor minor code.
        minor: u32,
        /// Completion status.
        completed: u32,
    },
    /// See [`ReplyBody::LocationForward`].
    LocationForward(Ior),
    /// See [`ReplyBody::NeedsAddressingMode`].
    NeedsAddressingMode(u16),
}

/// A Reply read in place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplyView<'a> {
    /// See [`ReplyMessage::request_id`].
    pub request_id: u32,
    /// Status-discriminated payload.
    pub body: ReplyBodyView<'a>,
}

impl ReplyView<'_> {
    /// Copies the viewed fields into a [`ReplyMessage`].
    pub fn to_owned(&self) -> ReplyMessage {
        let body = match &self.body {
            ReplyBodyView::NoException(out) => ReplyBody::NoException(out.to_vec()),
            ReplyBodyView::UserException(repo_id) => {
                ReplyBody::UserException((*repo_id).to_owned())
            }
            ReplyBodyView::SystemException {
                repo_id,
                minor,
                completed,
            } => ReplyBody::SystemException {
                repo_id: (*repo_id).to_owned(),
                minor: *minor,
                completed: *completed,
            },
            ReplyBodyView::LocationForward(ior) => ReplyBody::LocationForward(ior.clone()),
            ReplyBodyView::NeedsAddressingMode(d) => ReplyBody::NeedsAddressingMode(*d),
        };
        ReplyMessage {
            request_id: self.request_id,
            body,
        }
    }
}

/// Any GIOP message, read in place. This is the only GIOP parser:
/// [`Message::decode`] goes through it.
///
/// A view borrows the frame, so it cannot outlive the handler that
/// parsed it; whatever must be kept is copied out with `to_owned`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MessageView<'a> {
    /// Client request.
    Request(RequestView<'a>),
    /// Server reply.
    Reply(ReplyView<'a>),
    /// Orderly shutdown notice.
    CloseConnection,
    /// Protocol error notice.
    MessageError,
}

impl<'a> MessageView<'a> {
    /// Parses a complete frame without copying any of it.
    ///
    /// # Errors
    ///
    /// Any [`GiopError`] on malformed input; never panics on hostile bytes.
    pub fn parse(frame: &'a [u8]) -> Result<Self, GiopError> {
        let magic = read4(frame, 0)?;
        if magic != GIOP_MAGIC {
            return Err(GiopError::BadMagic(magic));
        }
        let (major, minor) = (read_u8_at(frame, 4)?, read_u8_at(frame, 5)?);
        if major != 1 {
            return Err(GiopError::BadVersion(major, minor));
        }
        let little = read_u8_at(frame, 6)? & 1 == 1;
        let endian = if little { Endian::Little } else { Endian::Big };
        let msg_type = MsgType::from_u8(read_u8_at(frame, 7)?)?;
        let declared = read_len(frame, little)?;
        let body = frame.get(HEADER_LEN..).unwrap_or(&[]);
        let body = body.get(..declared).ok_or(GiopError::Truncated)?;
        let mut r = CdrReader::new(body, endian);
        match msg_type {
            MsgType::Request => {
                let _svc = r.read_u32()?;
                let request_id = r.read_u32()?;
                let response_expected = r.read_bool()?;
                let object_key = r.read_octet_slice()?;
                let operation = r.read_str()?;
                let _principal = r.read_octet_slice()?;
                Ok(MessageView::Request(RequestView {
                    request_id,
                    response_expected,
                    object_key,
                    operation,
                    body: r.rest(),
                }))
            }
            MsgType::Reply => {
                let _svc = r.read_u32()?;
                let request_id = r.read_u32()?;
                let status = ReplyStatus::from_u32(r.read_u32()?)?;
                let body = match status {
                    ReplyStatus::NoException => ReplyBodyView::NoException(r.rest()),
                    ReplyStatus::UserException => ReplyBodyView::UserException(r.read_str()?),
                    ReplyStatus::SystemException => ReplyBodyView::SystemException {
                        repo_id: r.read_str()?,
                        minor: r.read_u32()?,
                        completed: r.read_u32()?,
                    },
                    ReplyStatus::LocationForward => {
                        ReplyBodyView::LocationForward(Ior::read_from(&mut r)?)
                    }
                    ReplyStatus::NeedsAddressingMode => {
                        ReplyBodyView::NeedsAddressingMode(r.read_u16()?)
                    }
                };
                Ok(MessageView::Reply(ReplyView { request_id, body }))
            }
            MsgType::CloseConnection => Ok(MessageView::CloseConnection),
            MsgType::MessageError => Ok(MessageView::MessageError),
            other => Err(GiopError::UnknownMsgType(other.code())),
        }
    }

    /// Copies the viewed fields into an owned [`Message`].
    pub fn to_owned(&self) -> Message {
        match self {
            MessageView::Request(req) => Message::Request(req.to_owned()),
            MessageView::Reply(rep) => Message::Reply(rep.to_owned()),
            MessageView::CloseConnection => Message::CloseConnection,
            MessageView::MessageError => Message::MessageError,
        }
    }
}

/// Which protocol a split frame belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// Ordinary GIOP traffic.
    Giop,
    /// MEAD control traffic piggybacked on the same stream.
    Mead,
}

/// A complete frame carved from a byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol discriminator (by magic).
    pub kind: FrameKind,
    /// The full frame bytes, header included.
    pub bytes: Bytes,
}

impl Frame {
    /// The frame's message-type octet (header byte 7). Frames produced by
    /// [`FrameSplitter`] always carry a full header; a hand-built short
    /// `Frame` reads as [`MsgType::MessageError`] rather than panicking.
    pub fn msg_type(&self) -> u8 {
        self.bytes
            .get(7)
            .copied()
            .unwrap_or(MsgType::MessageError.code())
    }

    /// The frame's body (everything after the fixed header).
    pub fn body(&self) -> &[u8] {
        self.bytes.get(HEADER_LEN..).unwrap_or(&[])
    }
}

/// Largest body length a frame header may declare. The biggest frames
/// this system exchanges are a few hundred bytes; a header claiming more
/// than this is a desynchronised or hostile stream, and buffering until
/// the claimed length arrived would let a peer pin memory indefinitely.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Incremental stream splitter: feed it the segments a connection
/// delivers, pull out complete GIOP/MEAD frames.
///
/// A frame that arrived inside one segment is handed out as a view of
/// that segment — no copy (see [`SegmentBuf`]).
///
/// ```
/// use giop::{Endian, FrameKind, FrameSplitter, Message};
///
/// let frame = Message::CloseConnection.encode(Endian::Big);
/// let mut s = FrameSplitter::new();
/// s.push(&frame[..5]); // partial delivery
/// assert!(s.next_frame().unwrap().is_none());
/// s.push(&frame[5..]);
/// let got = s.next_frame().unwrap().unwrap();
/// assert_eq!(got.kind, FrameKind::Giop);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FrameSplitter {
    buf: SegmentBuf,
}

impl FrameSplitter {
    /// Creates an empty splitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received segment, taking over its buffer.
    pub fn push_bytes(&mut self, segment: Bytes) {
        self.buf.push(segment);
    }

    /// Appends a copy of newly received bytes, for callers that hold only
    /// a slice.
    pub fn push(&mut self, data: &[u8]) {
        self.push_bytes(Bytes::copy_from_slice(data));
    }

    /// Bytes buffered but not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Removes and returns every buffered byte, framed or not — how a
    /// caller that gives up on a desynchronised stream passes the rest
    /// on raw.
    pub fn take_buffered(&mut self) -> Bytes {
        self.buf.take()
    }

    /// Extracts the next complete frame, if one is buffered.
    ///
    /// # Errors
    ///
    /// [`GiopError::BadMagic`] if the stream is out of sync and
    /// [`GiopError::FrameTooLarge`] if a header declares a body above
    /// [`MAX_FRAME_LEN`]. Either way the offending bytes stay buffered and
    /// every later call fails the same way: the connection should be torn
    /// down, as a real ORB would.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, GiopError> {
        let buffered = self.buf.peek();
        if buffered.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = read4(buffered, 0)?;
        let kind = match &magic {
            m if *m == GIOP_MAGIC => FrameKind::Giop,
            m if *m == MEAD_MAGIC => FrameKind::Mead,
            _ => return Err(GiopError::BadMagic(magic)),
        };
        let little = read_u8_at(buffered, 6)? & 1 == 1;
        let body_len = read_len(buffered, little)?;
        if body_len > MAX_FRAME_LEN {
            return Err(GiopError::FrameTooLarge(body_len));
        }
        let total = HEADER_LEN.saturating_add(body_len);
        // `split_to` would answer the same; the explicit comparison is
        // what detlint R10 proves the split in bounds from.
        if self.buf.len() < total {
            return Ok(None);
        }
        Ok(self.buf.split_to(total).map(|bytes| Frame { kind, bytes }))
    }

    /// Drains every complete frame currently buffered.
    ///
    /// # Errors
    ///
    /// Propagates the first error [`next_frame`](Self::next_frame) meets.
    pub fn drain_frames(&mut self) -> Result<Vec<Frame>, GiopError> {
        let mut out = Vec::new();
        while let Some(f) = self.next_frame()? {
            out.push(f);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestMessage {
        RequestMessage {
            request_id: 42,
            response_expected: true,
            object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
            operation: "time_of_day".into(),
            body: vec![1, 2, 3, 4],
        }
    }

    #[test]
    fn request_roundtrip_both_endians() {
        for endian in [Endian::Big, Endian::Little] {
            let msg = Message::Request(sample_request());
            let wire = msg.encode(endian);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn reply_bodies_roundtrip() {
        let bodies = vec![
            ReplyBody::NoException(vec![9, 9, 9]),
            ReplyBody::UserException("IDL:App/Oops:1.0".into()),
            ReplyBody::SystemException {
                repo_id: "IDL:omg.org/CORBA/COMM_FAILURE:1.0".into(),
                minor: 2,
                completed: 1,
            },
            ReplyBody::LocationForward(Ior::singleton(
                "IDL:TimeOfDay:1.0",
                "node2",
                2810,
                ObjectKey::persistent("TimePOA", "TimeOfDay"),
            )),
            ReplyBody::NeedsAddressingMode(2),
        ];
        for body in bodies {
            let msg = Message::Reply(ReplyMessage {
                request_id: 7,
                body,
            });
            let wire = msg.encode(Endian::Big);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in [Message::CloseConnection, Message::MessageError] {
            let wire = msg.encode(Endian::Big);
            assert_eq!(Message::decode(&wire).unwrap(), msg);
        }
    }

    #[test]
    fn splitter_handles_partial_and_coalesced_delivery() {
        let m1 = Message::Request(sample_request()).encode(Endian::Big);
        let m2 = Message::Reply(ReplyMessage {
            request_id: 42,
            body: ReplyBody::NoException(vec![5]),
        })
        .encode(Endian::Big);
        let mut all = m1.to_vec();
        all.extend_from_slice(&m2);
        // Feed one byte at a time.
        let mut s = FrameSplitter::new();
        let mut frames = Vec::new();
        for b in &all {
            s.push(std::slice::from_ref(b));
            while let Some(f) = s.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(
            Message::decode(&frames[0].bytes).unwrap(),
            Message::Request(sample_request())
        );
        assert_eq!(s.buffered(), 0);
    }

    #[test]
    fn splitter_distinguishes_mead_frames() {
        let giop = Message::CloseConnection.encode(Endian::Big);
        let mut w = frame_writer(MEAD_MAGIC, 1, Endian::Big, 20);
        w.write_raw(&[0xAA; 20]);
        let mead = w.finish();
        let mut s = FrameSplitter::new();
        s.push(&mead);
        s.push(&giop);
        let frames = s.drain_frames().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].kind, FrameKind::Mead);
        assert_eq!(frames[0].body().len(), 20);
        assert_eq!(frames[1].kind, FrameKind::Giop);
    }

    #[test]
    fn splitter_rejects_garbage() {
        let mut s = FrameSplitter::new();
        s.push(b"NOTAPROTOCOLFRAME");
        assert!(matches!(s.next_frame(), Err(GiopError::BadMagic(_))));
    }

    #[test]
    fn decode_rejects_bad_version_and_type() {
        let mut wire = Message::CloseConnection.encode(Endian::Big).to_vec();
        wire[4] = 9;
        assert!(matches!(
            Message::decode(&wire),
            Err(GiopError::BadVersion(9, 0))
        ));
        let mut wire = Message::CloseConnection.encode(Endian::Big).to_vec();
        wire[7] = 99;
        assert!(matches!(
            Message::decode(&wire),
            Err(GiopError::UnknownMsgType(99))
        ));
    }

    #[test]
    fn decode_never_panics_on_truncation() {
        let wire = Message::Request(sample_request()).encode(Endian::Big);
        for cut in 0..wire.len() {
            let _ = Message::decode(&wire[..cut]);
        }
    }

    #[test]
    fn oneway_request_flag_survives() {
        let mut req = sample_request();
        req.response_expected = false;
        let wire = Message::Request(req.clone()).encode(Endian::Big);
        match Message::decode(&wire).unwrap() {
            Message::Request(r) => assert!(!r.response_expected),
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn frame_header_size_matches_spec() {
        let wire = Message::CloseConnection.encode(Endian::Big);
        assert_eq!(wire.len(), HEADER_LEN);
        assert_eq!(&wire[0..4], b"GIOP");
    }
}

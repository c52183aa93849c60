//! # giop — the CORBA wire protocol subset used by MEAD
//!
//! The paper's proactive recovery schemes are defined in terms of GIOP
//! (General Inter-ORB Protocol) semantics: `LOCATION_FORWARD` replies that
//! redirect clients to another replica's IOR, fabricated
//! `NEEDS_ADDRESSING_MODE` replies that make the client ORB resend its last
//! request, and GIOP request parsing to recover `request_id`s and object
//! keys at the interceptor. This crate implements that wire protocol from
//! scratch:
//!
//! * [`CdrWriter`]/[`CdrReader`] — Common Data Representation marshalling
//!   with natural alignment and both byte orders,
//! * [`Message`] and friends — GIOP framing, Request/Reply and the reply
//!   statuses of the paper's schemes, encoded into one buffer and parsed
//!   in place as [`MessageView`]s,
//! * [`Ior`]/[`IiopProfile`] — Interoperable Object References,
//! * [`CodecError`] — the one decode error the non-GIOP protocols
//!   (`mead::messages`, groupcomm framing) share,
//! * [`ObjectKey`] — persistent object keys with the 16-bit lookup hash of
//!   section 4.1, and
//! * [`FrameSplitter`] — an incremental splitter that separates GIOP frames
//!   from piggybacked MEAD control frames in an intercepted byte stream.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdr;
mod codec;
mod ior;
mod key;
mod message;
mod segbuf;

pub use cdr::{wire_len, CdrError, CdrReader, CdrWriter, Endian};
pub use codec::CodecError;
pub use ior::{IiopProfile, Ior, TAG_INTERNET_IOP};
pub use key::ObjectKey;
pub use message::{
    encode_request, frame_writer, Frame, FrameKind, FrameSplitter, GiopError, Message, MessageView,
    MsgType, ReplyBody, ReplyBodyView, ReplyMessage, ReplyStatus, ReplyView, RequestMessage,
    RequestView, GIOP_MAGIC, HEADER_LEN, MAX_FRAME_LEN, MEAD_MAGIC,
};
pub use segbuf::SegmentBuf;

/// Well-known repository id for the `COMM_FAILURE` system exception.
pub const EX_COMM_FAILURE: &str = "IDL:omg.org/CORBA/COMM_FAILURE:1.0";
/// Well-known repository id for the `TRANSIENT` system exception.
pub const EX_TRANSIENT: &str = "IDL:omg.org/CORBA/TRANSIENT:1.0";
/// Well-known repository id for the `OBJECT_NOT_EXIST` system exception.
pub const EX_OBJECT_NOT_EXIST: &str = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0";

//! The shared wire-codec contract.
//!
//! `mead::messages::{FailoverNotice, GroupMsg}` and groupcomm's `GcsWire`
//! each grew a hand-rolled `encode()/decode()` pair with its own error
//! enum. [`WireCodec`] unifies them behind one trait with one error type,
//! so a frame can be named and sized without knowing its protocol.

use core::fmt;

use bytes::Bytes;

use crate::cdr::CdrError;

/// Errors shared by every wire codec in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// CDR-level decode failure (truncation, bad string, bad enum...).
    Cdr(CdrError),
    /// The frame's kind/discriminant byte is not defined by the protocol.
    UnknownKind(u8),
    /// The bytes do not start with the protocol's magic / framing.
    BadMagic,
    /// A declared frame length exceeds the protocol's maximum.
    Oversize(u32),
}

impl From<CdrError> for CodecError {
    fn from(e: CdrError) -> CodecError {
        CodecError::Cdr(e)
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Cdr(e) => write!(f, "CDR decode error: {e}"),
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::BadMagic => write!(f, "frame does not carry the protocol magic"),
            CodecError::Oversize(len) => write!(f, "declared frame length {len} exceeds maximum"),
        }
    }
}

impl std::error::Error for CodecError {}

/// One encode/decode contract for every protocol frame in the workspace.
///
/// `encode_wire` produces the protocol's canonical wire form (including
/// any magic or length framing) and `decode_wire` accepts exactly those
/// bytes back, so `decode_wire(&m.encode_wire()) == Ok(m)` for every
/// message `m`.
pub trait WireCodec: Sized {
    /// Protocol family name, e.g. `"mead"` or `"gcs"`.
    const PROTOCOL: &'static str;

    /// Stable name of this frame's type, for generic logging.
    fn frame_name(&self) -> &'static str;

    /// Encodes the full wire form.
    fn encode_wire(&self) -> Bytes;

    /// Decodes the full wire form produced by [`WireCodec::encode_wire`].
    fn decode_wire(bytes: &[u8]) -> Result<Self, CodecError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u8);

    impl WireCodec for Ping {
        const PROTOCOL: &'static str = "test";
        fn frame_name(&self) -> &'static str {
            "ping"
        }
        fn encode_wire(&self) -> Bytes {
            Bytes::copy_from_slice(&[0x50, self.0])
        }
        fn decode_wire(bytes: &[u8]) -> Result<Ping, CodecError> {
            match bytes {
                [0x50, v] => Ok(Ping(*v)),
                [k, ..] if *k != 0x50 => Err(CodecError::UnknownKind(*k)),
                _ => Err(CodecError::Cdr(CdrError::UnexpectedEof { what: "ping" })),
            }
        }
    }

    #[test]
    fn round_trip_through_the_trait() {
        let p = Ping(7);
        assert_eq!(Ping::decode_wire(&p.encode_wire()), Ok(Ping(7)));
        assert_eq!(Ping::PROTOCOL, "test");
        assert_eq!(p.frame_name(), "ping");
    }

    #[test]
    fn cdr_error_converts() {
        let e: CodecError = CdrError::InvalidString.into();
        assert_eq!(e, CodecError::Cdr(CdrError::InvalidString));
        assert!(e.to_string().contains("CDR"));
    }
}

//! The one error type of the workspace's non-GIOP wire codecs:
//! `mead::messages::{FailoverNotice, GroupMsg}` and groupcomm's `GcsWire`
//! each decode through an inherent `decode` returning [`CodecError`].

use core::fmt;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdr_error_converts() {
        let e: CodecError = CdrError::InvalidString.into();
        assert_eq!(e, CodecError::Cdr(CdrError::InvalidString));
        assert!(e.to_string().contains("CDR"));
    }
}

//! Common Data Representation (CDR) marshalling.
//!
//! CDR is CORBA's on-the-wire encoding: primitives are aligned to their
//! natural size and may be little- or big-endian, with the sender's byte
//! order flagged in the GIOP header. This module implements the subset the
//! test application and the MEAD infrastructure exchange: fixed-size
//! integers, booleans, octet sequences and strings.
//!
//! Alignment is computed relative to the start of the encapsulation (the
//! GIOP message body), which is itself 8-byte aligned by the fixed 12-byte
//! header in GIOP 1.0's layout convention.

use core::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// Byte order of a CDR stream, carried in the GIOP header flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Endian {
    /// Big-endian ("network order"); flag bit 0 clear.
    #[default]
    Big,
    /// Little-endian; flag bit 0 set.
    Little,
}

/// Errors raised while decoding a CDR stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CdrError {
    /// The stream ended inside a value.
    UnexpectedEof {
        /// What was being decoded.
        what: &'static str,
    },
    /// A string was not NUL-terminated or not valid UTF-8.
    InvalidString,
    /// An enum discriminant had no defined meaning.
    InvalidEnum {
        /// The enum being decoded.
        what: &'static str,
        /// The offending discriminant.
        value: u32,
    },
    /// A declared length exceeds the remaining bytes (corrupt or hostile).
    LengthOverrun {
        /// The declared length.
        declared: u32,
        /// Bytes actually remaining.
        remaining: usize,
    },
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::UnexpectedEof { what } => write!(f, "unexpected end of stream in {what}"),
            CdrError::InvalidString => write!(f, "malformed CDR string"),
            CdrError::InvalidEnum { what, value } => {
                write!(f, "invalid {what} discriminant {value}")
            }
            CdrError::LengthOverrun {
                declared,
                remaining,
            } => {
                write!(
                    f,
                    "declared length {declared} exceeds remaining {remaining} bytes"
                )
            }
        }
    }
}

impl std::error::Error for CdrError {}

/// Converts a buffer length to its `unsigned long` wire representation.
///
/// CDR sequence/string lengths are `u32` on the wire while Rust lengths
/// are `usize`. Every buffer the simulator marshals is orders of
/// magnitude below `u32::MAX`, so the saturation can never change an
/// encoding; it exists so the narrowing is explicit and a silent
/// wrap-around is impossible even on hostile input sizes.
pub fn wire_len(len: usize) -> u32 {
    u32::try_from(len).unwrap_or(u32::MAX)
}

/// A CDR encoder.
///
/// ```
/// use giop::{CdrReader, CdrWriter, Endian};
///
/// let mut w = CdrWriter::new(Endian::Little);
/// w.write_u32(7);
/// w.write_string("tick");
/// let bytes = w.finish();
/// let mut r = CdrReader::new(&bytes, Endian::Little);
/// assert_eq!(r.read_u32().unwrap(), 7);
/// assert_eq!(r.read_string().unwrap(), "tick");
/// ```
#[derive(Debug)]
pub struct CdrWriter {
    buf: BytesMut,
    endian: Endian,
    /// Where the encapsulation starts in `buf`: 0, or the length of the
    /// header a [`framed`](Self::framed) writer sits behind.
    base: usize,
    /// Header offset of the `u32` body length [`finish`](Self::finish)
    /// patches in (framed writers only).
    len_at: Option<usize>,
}

impl CdrWriter {
    /// Creates an encoder producing `endian`-ordered output.
    pub fn new(endian: Endian) -> Self {
        CdrWriter {
            buf: BytesMut::with_capacity(64),
            endian,
            base: 0,
            len_at: None,
        }
    }

    /// Creates an encoder whose body follows `header` in the same buffer,
    /// so a whole frame is one allocation: `header` is copied verbatim,
    /// alignment stays relative to the body start, and
    /// [`finish`](Self::finish) overwrites the four header bytes at
    /// `len_at` with the body length (a `u32` in `endian` order).
    /// `body_hint` sizes the buffer; a body that outgrows it reallocates.
    pub fn framed(endian: Endian, header: &[u8], len_at: usize, body_hint: usize) -> Self {
        let mut buf = BytesMut::with_capacity(header.len().saturating_add(body_hint));
        buf.put_slice(header);
        CdrWriter {
            buf,
            endian,
            base: header.len(),
            len_at: Some(len_at),
        }
    }

    /// Pads with zero bytes so the next value starts `align`-aligned.
    fn align(&mut self, align: usize) {
        let align = align.max(1);
        let pos = self.len();
        let pad = (align - pos % align) % align;
        for _ in 0..pad {
            self.buf.put_u8(0);
        }
    }

    /// Writes a single octet.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Writes a boolean as one octet (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(u8::from(v));
    }

    /// Writes an unsigned short, 2-aligned.
    pub fn write_u16(&mut self, v: u16) {
        self.align(2);
        match self.endian {
            Endian::Big => self.buf.put_u16(v),
            Endian::Little => self.buf.put_u16_le(v),
        }
    }

    /// Writes an unsigned long, 4-aligned.
    pub fn write_u32(&mut self, v: u32) {
        self.align(4);
        match self.endian {
            Endian::Big => self.buf.put_u32(v),
            Endian::Little => self.buf.put_u32_le(v),
        }
    }

    /// Writes an unsigned long long, 8-aligned.
    pub fn write_u64(&mut self, v: u64) {
        self.align(8);
        match self.endian {
            Endian::Big => self.buf.put_u64(v),
            Endian::Little => self.buf.put_u64_le(v),
        }
    }

    /// Writes an IEEE double, 8-aligned.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a CDR string: u32 length *including* the terminating NUL,
    /// then the bytes, then NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(wire_len(s.len()).saturating_add(1));
        self.buf.put_slice(s.as_bytes());
        self.buf.put_u8(0);
    }

    /// Writes `sequence<octet>`: u32 length then raw bytes.
    pub fn write_octets(&mut self, bytes: &[u8]) {
        self.write_u32(wire_len(bytes.len()));
        self.buf.put_slice(bytes);
    }

    /// Appends already-encoded bytes as they are: no length prefix, no
    /// alignment (a request's in-parameters, a reply's results).
    pub fn write_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Encoded body length so far (a framed writer's header not counted).
    pub fn len(&self) -> usize {
        self.buf.len().saturating_sub(self.base)
    }

    /// `true` when no body byte has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills in a framed writer's length field.
    fn seal(&mut self) {
        if let Some(at) = self.len_at {
            let len = wire_len(self.len());
            let raw = match self.endian {
                Endian::Big => len.to_be_bytes(),
                Endian::Little => len.to_le_bytes(),
            };
            if let Some(field) = self.buf.get_mut(at..at.saturating_add(raw.len())) {
                field.copy_from_slice(&raw);
            }
        }
    }

    /// Finalises and returns the encoded bytes — for a
    /// [`framed`](Self::framed) writer the header, its length field now
    /// filled in, followed by the body.
    pub fn finish(mut self) -> Bytes {
        self.seal();
        self.buf.freeze()
    }

    /// [`finish`](Self::finish) for a caller that wants a `Vec` (a
    /// servant's results, an encapsulation to embed): the writer's own
    /// buffer, not a copy of it.
    pub fn into_vec(mut self) -> Vec<u8> {
        self.seal();
        Vec::from(self.buf)
    }
}

/// A CDR decoder borrowing the bytes it reads.
///
/// See [`CdrWriter`] for a round-trip example.
#[derive(Debug)]
pub struct CdrReader<'a> {
    buf: &'a [u8],
    pos: usize,
    endian: Endian,
}

impl<'a> CdrReader<'a> {
    /// Creates a decoder over `buf` in `endian` order.
    pub fn new(buf: &'a [u8], endian: Endian) -> Self {
        CdrReader {
            buf,
            pos: 0,
            endian,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn align(&mut self, align: usize) {
        let align = align.max(1);
        let pad = (align - self.pos % align) % align;
        self.pos = self.pos.saturating_add(pad);
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or(&[])
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CdrError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CdrError::UnexpectedEof { what })?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(CdrError::UnexpectedEof { what })?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one octet.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        let s = self.take(1, "octet")?;
        Ok(s.first().copied().unwrap_or(0))
    }

    /// Reads a boolean octet.
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        Ok(self.read_u8()? != 0)
    }

    /// Reads an unsigned short (2-aligned).
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        self.align(2);
        let endian = self.endian;
        let s = self.take(2, "ushort")?;
        let raw: [u8; 2] = s.try_into().unwrap_or([0; 2]);
        Ok(match endian {
            Endian::Big => u16::from_be_bytes(raw),
            Endian::Little => u16::from_le_bytes(raw),
        })
    }

    /// Reads an unsigned long (4-aligned).
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        self.align(4);
        let endian = self.endian;
        let s = self.take(4, "ulong")?;
        let raw: [u8; 4] = s.try_into().unwrap_or([0; 4]);
        Ok(match endian {
            Endian::Big => u32::from_be_bytes(raw),
            Endian::Little => u32::from_le_bytes(raw),
        })
    }

    /// Reads an unsigned long long (8-aligned).
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        self.align(8);
        let endian = self.endian;
        let s = self.take(8, "ulonglong")?;
        let raw: [u8; 8] = s.try_into().unwrap_or([0; 8]);
        Ok(match endian {
            Endian::Big => u64::from_be_bytes(raw),
            Endian::Little => u64::from_le_bytes(raw),
        })
    }

    /// Reads an IEEE double (8-aligned).
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a CDR string as a view into the buffer.
    ///
    /// # Errors
    ///
    /// [`CdrError::InvalidString`] if the terminator is missing or the bytes
    /// are not UTF-8; [`CdrError::LengthOverrun`] on a hostile length.
    pub fn read_str(&mut self) -> Result<&'a str, CdrError> {
        let len = self.read_u32()?;
        if len == 0 {
            return Err(CdrError::InvalidString);
        }
        if len as usize > self.remaining() {
            return Err(CdrError::LengthOverrun {
                declared: len,
                remaining: self.remaining(),
            });
        }
        let raw = self.take(len as usize, "string")?;
        let Some((nul, body)) = raw.split_last() else {
            return Err(CdrError::InvalidString);
        };
        if *nul != 0 {
            return Err(CdrError::InvalidString);
        }
        core::str::from_utf8(body).map_err(|_| CdrError::InvalidString)
    }

    /// Reads a CDR string into an owned `String`; errors as
    /// [`read_str`](Self::read_str).
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        self.read_str().map(str::to_owned)
    }

    /// Reads `sequence<octet>` as a view into the buffer.
    pub fn read_octet_slice(&mut self) -> Result<&'a [u8], CdrError> {
        let len = self.read_u32()?;
        if len as usize > self.remaining() {
            return Err(CdrError::LengthOverrun {
                declared: len,
                remaining: self.remaining(),
            });
        }
        self.take(len as usize, "octet sequence")
    }

    /// Reads `sequence<octet>` into an owned `Vec`.
    pub fn read_octets(&mut self) -> Result<Vec<u8>, CdrError> {
        self.read_octet_slice().map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(endian: Endian) {
        let mut w = CdrWriter::new(endian);
        w.write_u8(0xAB);
        w.write_bool(true);
        w.write_u16(0x1234);
        w.write_u32(0xDEADBEEF);
        w.write_u64(0x0102030405060708);
        w.write_f64(3.5);
        w.write_string("hello");
        w.write_octets(&[9, 8, 7]);
        let b = w.finish();
        let mut r = CdrReader::new(&b, endian);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0102030405060708);
        assert_eq!(r.read_f64().unwrap(), 3.5);
        assert_eq!(r.read_string().unwrap(), "hello");
        assert_eq!(r.read_octets().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_big_endian() {
        roundtrip(Endian::Big);
    }

    #[test]
    fn roundtrip_little_endian() {
        roundtrip(Endian::Little);
    }

    #[test]
    fn alignment_is_padded() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u8(1); // pos 1
        w.write_u32(2); // pads to 4
        assert_eq!(w.len(), 8);
        let b = w.finish();
        assert_eq!(&b[1..4], &[0, 0, 0]);
    }

    #[test]
    fn u64_aligns_to_eight() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u8(1);
        w.write_u64(2);
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn eof_is_detected() {
        let mut r = CdrReader::new(&[1, 2], Endian::Big);
        assert!(matches!(
            r.read_u32(),
            Err(CdrError::UnexpectedEof { what: "ulong" })
        ));
    }

    #[test]
    fn hostile_string_length_is_rejected() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u32(1_000_000); // declared length
        let b = w.finish();
        let mut r = CdrReader::new(&b, Endian::Big);
        assert!(matches!(
            r.read_string(),
            Err(CdrError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn string_missing_nul_is_rejected() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u32(3);
        w.write_u8(b'a');
        w.write_u8(b'b');
        w.write_u8(b'c'); // should be NUL
        let wire = w.finish();
        let mut r = CdrReader::new(&wire, Endian::Big);
        assert_eq!(r.read_string(), Err(CdrError::InvalidString));
    }

    #[test]
    fn big_endian_wire_layout() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u32(0x01020304);
        assert_eq!(&w.finish()[..], &[1, 2, 3, 4]);
        let mut w = CdrWriter::new(Endian::Little);
        w.write_u32(0x01020304);
        assert_eq!(&w.finish()[..], &[4, 3, 2, 1]);
    }

    #[test]
    fn empty_octets_roundtrip() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_octets(&[]);
        let wire = w.finish();
        let mut r = CdrReader::new(&wire, Endian::Big);
        assert_eq!(r.read_octets().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_display() {
        let e = CdrError::InvalidEnum {
            what: "ReplyStatus",
            value: 9,
        };
        assert_eq!(e.to_string(), "invalid ReplyStatus discriminant 9");
    }
}

//! Observational equivalence of the copy-free message path with the code
//! it replaced.
//!
//! Three pieces were rewritten so that a message lives in one buffer from
//! encoder to decoder, and each is held here against a model that is the
//! replaced implementation, verbatim in behaviour:
//!
//! * the single-buffer encoder (`Message::encode`, `encode_request`)
//!   against the encoder that marshalled the body into one buffer, copied
//!   it into a `Vec` and copied that behind a freshly built header;
//! * the in-place parser (`MessageView::parse`, which `Message::decode`
//!   now goes through) against the decoder that copied the body and every
//!   field out of it — same message on valid frames, same `GiopError` on
//!   every truncation and every single-bit flip;
//! * the segment-holding `FrameSplitter` against the splitter that copied
//!   every delivery into one growing byte buffer — same frames, in the
//!   same order, for any segmentation of a mixed GIOP + MEAD stream.

use bytes::Bytes;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use giop::*;

// ------------------------------------------------------------- models

/// The replaced `encode_frame`: a new buffer, the header, a copy of the
/// body.
fn model_encode_frame(magic: [u8; 4], msg_type: u8, endian: Endian, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&magic);
    out.push(1); // major
    out.push(0); // minor
    out.push(match endian {
        Endian::Big => 0,
        Endian::Little => 1,
    });
    out.push(msg_type);
    let len = wire_len(body.len());
    out.extend_from_slice(&match endian {
        Endian::Big => len.to_be_bytes(),
        Endian::Little => len.to_le_bytes(),
    });
    out.extend_from_slice(body);
    out
}

/// The replaced `Message::encode`: body marshalled on its own (so CDR
/// alignment is relative to the body start), then framed.
fn model_encode(msg: &Message, endian: Endian) -> Vec<u8> {
    let (msg_type, body) = match msg {
        Message::Request(req) => {
            let mut w = CdrWriter::new(endian);
            w.write_u32(0); // empty service context sequence
            w.write_u32(req.request_id);
            w.write_bool(req.response_expected);
            w.write_octets(req.object_key.as_bytes());
            w.write_string(&req.operation);
            w.write_octets(&[]); // principal (deprecated)
            let mut b = w.finish().to_vec();
            b.extend_from_slice(&req.body);
            (MsgType::Request, b)
        }
        Message::Reply(rep) => {
            let mut w = CdrWriter::new(endian);
            w.write_u32(0); // empty service context sequence
            w.write_u32(rep.request_id);
            w.write_u32(rep.body.status().code());
            match &rep.body {
                ReplyBody::NoException(out) => {
                    let mut b = w.finish().to_vec();
                    b.extend_from_slice(out);
                    (MsgType::Reply, b)
                }
                ReplyBody::UserException(repo_id) => {
                    w.write_string(repo_id);
                    (MsgType::Reply, w.finish().to_vec())
                }
                ReplyBody::SystemException {
                    repo_id,
                    minor,
                    completed,
                } => {
                    w.write_string(repo_id);
                    w.write_u32(*minor);
                    w.write_u32(*completed);
                    (MsgType::Reply, w.finish().to_vec())
                }
                ReplyBody::LocationForward(ior) => {
                    ior.write_into(&mut w);
                    (MsgType::Reply, w.finish().to_vec())
                }
                ReplyBody::NeedsAddressingMode(disposition) => {
                    w.write_u16(*disposition);
                    (MsgType::Reply, w.finish().to_vec())
                }
            }
        }
        Message::CloseConnection => (MsgType::CloseConnection, Vec::new()),
        Message::MessageError => (MsgType::MessageError, Vec::new()),
    };
    model_encode_frame(GIOP_MAGIC, msg_type.code(), endian, &body)
}

fn model_read4(bytes: &[u8], at: usize) -> Result<[u8; 4], GiopError> {
    bytes
        .get(at..at.saturating_add(4))
        .and_then(|s| <[u8; 4]>::try_from(s).ok())
        .ok_or(GiopError::Truncated)
}

fn model_u8_at(bytes: &[u8], at: usize) -> Result<u8, GiopError> {
    bytes.get(at).copied().ok_or(GiopError::Truncated)
}

fn model_len(bytes: &[u8], little: bool) -> Result<usize, GiopError> {
    let raw = model_read4(bytes, 8)?;
    Ok(if little {
        u32::from_le_bytes(raw)
    } else {
        u32::from_be_bytes(raw)
    } as usize)
}

fn model_msg_type(v: u8) -> Result<MsgType, GiopError> {
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

/// The replaced `Message::decode`: the body is copied before it is read
/// and every field is copied out of it.
fn model_decode(frame: &[u8]) -> Result<Message, GiopError> {
    let magic = model_read4(frame, 0)?;
    if magic != GIOP_MAGIC {
        return Err(GiopError::BadMagic(magic));
    }
    let (major, minor) = (model_u8_at(frame, 4)?, model_u8_at(frame, 5)?);
    if major != 1 {
        return Err(GiopError::BadVersion(major, minor));
    }
    let little = model_u8_at(frame, 6)? & 1 == 1;
    let endian = if little { Endian::Little } else { Endian::Big };
    let msg_type = model_msg_type(model_u8_at(frame, 7)?)?;
    let declared = model_len(frame, little)?;
    let body = frame.get(HEADER_LEN..).unwrap_or(&[]);
    let body = body.get(..declared).ok_or(GiopError::Truncated)?;
    let copy = body.to_vec();
    match msg_type {
        MsgType::Request => {
            let mut r = CdrReader::new(&copy, endian);
            let _svc = r.read_u32()?;
            let request_id = r.read_u32()?;
            let response_expected = r.read_bool()?;
            let object_key = ObjectKey::from_slice(r.read_octet_slice()?);
            let operation = r.read_string()?;
            let _principal = r.read_octets()?;
            let consumed = body.len().saturating_sub(r.remaining());
            Ok(Message::Request(RequestMessage {
                request_id,
                response_expected,
                object_key,
                operation,
                body: body.get(consumed..).unwrap_or(&[]).to_vec(),
            }))
        }
        MsgType::Reply => {
            let mut r = CdrReader::new(&copy, endian);
            let _svc = r.read_u32()?;
            let request_id = r.read_u32()?;
            let status = match r.read_u32()? {
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
            };
            let reply_body = match status {
                ReplyStatus::NoException => {
                    let consumed = body.len().saturating_sub(r.remaining());
                    ReplyBody::NoException(body.get(consumed..).unwrap_or(&[]).to_vec())
                }
                ReplyStatus::UserException => ReplyBody::UserException(r.read_string()?),
                ReplyStatus::SystemException => ReplyBody::SystemException {
                    repo_id: r.read_string()?,
                    minor: r.read_u32()?,
                    completed: r.read_u32()?,
                },
                ReplyStatus::LocationForward => ReplyBody::LocationForward(Ior::read_from(&mut r)?),
                ReplyStatus::NeedsAddressingMode => ReplyBody::NeedsAddressingMode(r.read_u16()?),
            };
            Ok(Message::Reply(ReplyMessage {
                request_id,
                body: reply_body,
            }))
        }
        MsgType::CloseConnection => Ok(Message::CloseConnection),
        MsgType::MessageError => Ok(Message::MessageError),
        other => Err(GiopError::UnknownMsgType(other.code())),
    }
}

/// The replaced `FrameSplitter`: one byte buffer every delivery is copied
/// into, frames copied back out of its front.
#[derive(Default)]
struct ByteSplitter {
    buf: Vec<u8>,
}

impl ByteSplitter {
    fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    fn next_frame(&mut self) -> Result<Option<(FrameKind, Vec<u8>)>, GiopError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = model_read4(&self.buf, 0)?;
        let kind = if magic == GIOP_MAGIC {
            FrameKind::Giop
        } else if magic == MEAD_MAGIC {
            FrameKind::Mead
        } else {
            return Err(GiopError::BadMagic(magic));
        };
        let little = model_u8_at(&self.buf, 6)? & 1 == 1;
        let total = HEADER_LEN + model_len(&self.buf, little)?;
        if self.buf.len() < total {
            return Ok(None);
        }
        Ok(Some((kind, self.buf.drain(..total).collect())))
    }
}

// --------------------------------------------------------- strategies

fn arb_endian() -> impl Strategy<Value = Endian> {
    prop_oneof![Just(Endian::Big), Just(Endian::Little)]
}

fn arb_ior() -> impl Strategy<Value = Ior> {
    (
        "[A-Za-z0-9:/._-]{1,30}",
        prop::collection::vec(
            (
                "[a-z0-9.-]{1,20}",
                any::<u16>(),
                prop::collection::vec(any::<u8>(), 1..60),
            ),
            0..3,
        ),
    )
        .prop_map(|(type_id, profiles)| Ior {
            type_id,
            profiles: profiles
                .into_iter()
                .map(|(host, port, key)| IiopProfile {
                    version_major: 1,
                    version_minor: 0,
                    host,
                    port,
                    object_key: ObjectKey::from_slice(&key),
                })
                .collect(),
        })
}

/// Every `ReplyBody` variant, with arbitrary contents.
fn arb_reply_body() -> impl Strategy<Value = ReplyBody> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..80).prop_map(ReplyBody::NoException),
        "[ -~]{0,40}".prop_map(ReplyBody::UserException),
        ("[ -~]{0,40}", any::<u32>(), any::<u32>()).prop_map(|(repo_id, minor, completed)| {
            ReplyBody::SystemException {
                repo_id,
                minor,
                completed,
            }
        }),
        arb_ior().prop_map(ReplyBody::LocationForward),
        any::<u16>().prop_map(ReplyBody::NeedsAddressingMode),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..60),
            "[ -~]{0,24}",
            prop::collection::vec(any::<u8>(), 0..80),
        )
            .prop_map(|(request_id, response_expected, key, operation, body)| {
                Message::Request(RequestMessage {
                    request_id,
                    response_expected,
                    object_key: ObjectKey::from_slice(&key),
                    operation,
                    body,
                })
            }),
        (any::<u32>(), arb_reply_body())
            .prop_map(|(request_id, body)| Message::Reply(ReplyMessage { request_id, body })),
        Just(Message::CloseConnection),
        Just(Message::MessageError),
    ]
}

/// A stream element: a GIOP message or a MEAD control frame with an
/// opaque body, as the server-side interceptor piggybacks them.
#[derive(Clone, Debug)]
enum Element {
    Giop(Message, Endian),
    Mead(u8, Vec<u8>, Endian),
}

impl Element {
    fn wire(&self) -> Vec<u8> {
        match self {
            Element::Giop(msg, endian) => msg.encode(*endian).to_vec(),
            Element::Mead(msg_type, body, endian) => {
                let mut w = frame_writer(MEAD_MAGIC, *msg_type, *endian, body.len());
                w.write_raw(body);
                w.finish().to_vec()
            }
        }
    }
}

fn arb_element() -> impl Strategy<Value = Element> {
    prop_oneof![
        (arb_message(), arb_endian()).prop_map(|(m, e)| Element::Giop(m, e)),
        (
            any::<u8>(),
            prop::collection::vec(any::<u8>(), 0..150),
            arb_endian()
        )
            .prop_map(|(t, b, e)| Element::Mead(t, b, e)),
    ]
}

/// Runs `stream`, cut at `cuts`, through both splitters, pulling frames
/// after every delivery, and checks they agree at every step.
fn splitters_agree(stream: &[u8], cuts: &[usize]) -> Result<usize, TestCaseError> {
    let mut model = ByteSplitter::default();
    let mut splitter = FrameSplitter::new();
    let mut frames = 0;
    let mut from = 0;
    for &to in cuts.iter().chain(std::iter::once(&stream.len())) {
        let Some(piece) = stream.get(from..to) else {
            continue; // unsorted or out-of-range cut: not a new segment
        };
        from = to;
        model.push(piece);
        // Whole segments go in by value, as the kernel hands them over.
        splitter.push_bytes(Bytes::copy_from_slice(piece));
        loop {
            let want = model.next_frame();
            let got = splitter.next_frame();
            match (want, got) {
                (Ok(Some((kind, bytes))), Ok(Some(frame))) => {
                    prop_assert_eq!(frame.kind, kind);
                    prop_assert_eq!(&frame.bytes[..], &bytes[..]);
                    frames += 1;
                }
                (Ok(None), Ok(None)) => break,
                (want, got) => prop_assert!(false, "model {want:?} but splitter {got:?}"),
            }
        }
        prop_assert_eq!(splitter.buffered(), model.buf.len());
    }
    Ok(frames)
}

proptest! {
    // (a) ------------------------------------------------------ encoder

    #[test]
    fn single_buffer_encoder_is_byte_identical(msg in arb_message(), endian in arb_endian()) {
        let want = model_encode(&msg, endian);
        prop_assert_eq!(&msg.encode(endian)[..], &want[..]);
        if let Message::Request(req) = &msg {
            let borrowed = encode_request(
                req.request_id,
                req.response_expected,
                req.object_key.as_bytes(),
                &req.operation,
                &req.body,
                endian,
            );
            prop_assert_eq!(&borrowed[..], &want[..]);
        }
    }

    #[test]
    fn frame_writer_matches_the_copying_framer(
        mead in any::<bool>(),
        msg_type in any::<u8>(),
        body in prop::collection::vec(any::<u8>(), 0..200),
        hint in 0usize..64,
        endian in arb_endian(),
    ) {
        let magic = if mead { MEAD_MAGIC } else { GIOP_MAGIC };
        // A hint that is too small costs a reallocation, never a byte.
        let mut w = frame_writer(magic, msg_type, endian, hint);
        w.write_raw(&body);
        prop_assert_eq!(w.len(), body.len());
        prop_assert_eq!(&w.finish()[..], &model_encode_frame(magic, msg_type, endian, &body)[..]);
    }

    // (b) ------------------------------------------------------- parser

    #[test]
    fn views_own_what_the_copying_decoder_returned(msg in arb_message(), endian in arb_endian()) {
        let wire = msg.encode(endian);
        let want = model_decode(&wire);
        prop_assert_eq!(want.as_ref(), Ok(&msg));
        let view = MessageView::parse(&wire);
        prop_assert_eq!(view.map(|v| v.to_owned()), want.clone());
        prop_assert_eq!(Message::decode(&wire), want);
    }

    #[test]
    fn truncation_fails_with_the_same_error(msg in arb_message(), endian in arb_endian()) {
        let wire = msg.encode(endian);
        for cut in 0..wire.len() {
            let want = model_decode(&wire[..cut]);
            prop_assert!(want.is_err());
            prop_assert_eq!(
                MessageView::parse(&wire[..cut]).map(|v| v.to_owned()),
                want
            );
        }
    }

    #[test]
    fn every_single_bit_flip_decodes_or_fails_alike(msg in arb_message(), endian in arb_endian()) {
        let mut wire = msg.encode(endian).to_vec();
        for bit in 0..wire.len() * 8 {
            wire[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(
                MessageView::parse(&wire).map(|v| v.to_owned()),
                model_decode(&wire)
            );
            wire[bit / 8] ^= 1 << (bit % 8);
        }
    }

    // (c) ----------------------------------------------------- splitter

    #[test]
    fn any_segmentation_yields_the_same_frames(
        elements in prop::collection::vec(arb_element(), 1..8),
        cuts in prop::collection::vec(any::<usize>(), 0..24),
        partial in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        for e in &elements {
            stream.extend_from_slice(&e.wire());
        }
        // End on an incomplete frame as often as not.
        let last = elements.last().map(Element::wire).unwrap_or_default();
        stream.extend_from_slice(&last[..partial % last.len()]);

        let mut cuts: Vec<usize> = cuts.iter().map(|cut| cut % (stream.len() + 1)).collect();
        cuts.sort_unstable();
        prop_assert_eq!(splitters_agree(&stream, &cuts)?, elements.len());

        // The two extremes: one byte at a time, and everything at once.
        let every_byte: Vec<usize> = (1..stream.len()).collect();
        prop_assert_eq!(splitters_agree(&stream, &every_byte)?, elements.len());
        prop_assert_eq!(splitters_agree(&stream, &[])?, elements.len());
    }

    #[test]
    fn garbage_desynchronises_both_at_the_same_frame(
        elements in prop::collection::vec(arb_element(), 0..4),
        garbage in prop::collection::vec(any::<u8>(), 12..40),
        chunk in 1usize..32,
    ) {
        let mut stream = Vec::new();
        for e in &elements {
            stream.extend_from_slice(&e.wire());
        }
        stream.extend_from_slice(&garbage);
        let mut model = ByteSplitter::default();
        let mut splitter = FrameSplitter::new();
        'feed: for piece in stream.chunks(chunk) {
            model.push(piece);
            splitter.push(piece);
            loop {
                let want = model.next_frame();
                let got = splitter.next_frame();
                match (want, got) {
                    (Ok(Some((kind, bytes))), Ok(Some(frame))) => {
                        prop_assert_eq!(frame.kind, kind);
                        prop_assert_eq!(&frame.bytes[..], &bytes[..]);
                    }
                    (Ok(None), Ok(None)) => break,
                    // Only the length bound is new; every other verdict
                    // is the model's.
                    (_, Err(GiopError::FrameTooLarge(_))) => break 'feed,
                    (Err(want), Err(got)) => {
                        prop_assert_eq!(got, want);
                        // What is given up on is still there to pass on.
                        prop_assert_eq!(&splitter.take_buffered()[..], &model.buf[..]);
                        prop_assert_eq!(splitter.buffered(), 0);
                        break 'feed;
                    }
                    (want, got) => prop_assert!(false, "model {want:?} but splitter {got:?}"),
                }
            }
        }
    }
}

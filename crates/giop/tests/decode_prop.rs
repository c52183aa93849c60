//! Panic-freedom fuzzing for the GIOP decode paths (detlint R3's dynamic
//! counterpart): every decoder entry point must return a typed error —
//! never panic — on truncated, bit-flipped, or outright arbitrary input.

use proptest::prelude::*;

use giop::*;

fn arb_endian() -> impl Strategy<Value = Endian> {
    prop_oneof![Just(Endian::Big), Just(Endian::Little)]
}

/// A representative well-formed message of every shape the simulator
/// sends, to serve as the mutation baseline.
fn arb_valid_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 1..40),
            "[a-z_][a-z0-9_]{0,20}",
            prop::collection::vec(any::<u8>(), 0..40),
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
        (any::<u32>(), prop::collection::vec(any::<u8>(), 0..40)).prop_map(|(request_id, body)| {
            Message::Reply(ReplyMessage {
                request_id,
                body: ReplyBody::NoException(body),
            })
        }),
        (
            any::<u32>(),
            "[A-Za-z0-9:/._-]{1,30}",
            any::<u32>(),
            0u32..3
        )
            .prop_map(|(request_id, repo_id, minor, completed)| Message::Reply(
                ReplyMessage {
                    request_id,
                    body: ReplyBody::SystemException {
                        repo_id,
                        minor,
                        completed,
                    },
                }
            )),
        Just(Message::CloseConnection),
        Just(Message::MessageError),
    ]
}

/// One tagged profile of an encoded IOR: IIOP, or a tag this ORB skips.
#[derive(Clone, Debug)]
enum WireProfile {
    Iiop(IiopProfile),
    Foreign(u32, Vec<u8>),
}

fn arb_wire_profile() -> impl Strategy<Value = WireProfile> {
    prop_oneof![
        (
            "[a-z0-9.-]{1,20}",
            any::<u16>(),
            prop::collection::vec(any::<u8>(), 0..40),
        )
            .prop_map(|(host, port, key)| WireProfile::Iiop(IiopProfile {
                version_major: 1,
                version_minor: 0,
                host,
                port,
                object_key: ObjectKey::from_slice(&key),
            })),
        (1u32..=u32::MAX, prop::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(tag, body)| WireProfile::Foreign(tag, body)),
    ]
}

/// A well-formed encoded IOR, foreign profiles included.
fn arb_ior_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        "[A-Za-z0-9:/._-]{1,30}",
        prop::collection::vec(arb_wire_profile(), 0..4),
    )
        .prop_map(|(type_id, profiles)| {
            let mut w = CdrWriter::new(Endian::Big);
            w.write_string(&type_id);
            w.write_u32(profiles.len() as u32);
            for p in profiles {
                match p {
                    WireProfile::Iiop(p) => {
                        let alone = Ior {
                            type_id: String::new(),
                            profiles: vec![p],
                        }
                        .encode();
                        // Its encapsulation follows the empty type id
                        // (4 + 1 bytes, 3 of padding), the count, the tag
                        // and the body length.
                        w.write_u32(TAG_INTERNET_IOP);
                        w.write_octets(&alone[20..]);
                    }
                    WireProfile::Foreign(tag, body) => {
                        w.write_u32(tag);
                        w.write_octets(&body);
                    }
                }
            }
            w.into_vec()
        })
}

/// `Ior::validate` answers exactly what `Ior::decode` does.
fn validate_agrees(bytes: &[u8]) -> bool {
    Ior::validate(bytes) == Ior::decode(bytes).map(drop)
}

proptest! {
    /// Every prefix of a valid frame decodes to a typed error (or, for the
    /// full frame, the original message) without panicking.
    #[test]
    fn truncation_at_every_length_is_a_typed_error(
        msg in arb_valid_message(),
        endian in arb_endian(),
    ) {
        let wire = msg.encode(endian);
        for cut in 0..wire.len() {
            prop_assert!(
                Message::decode(&wire[..cut]).is_err(),
                "truncated frame ({cut}/{} bytes) decoded successfully",
                wire.len()
            );
        }
        prop_assert!(Message::decode(&wire).is_ok());
    }

    /// Flipping any single byte of a valid frame never panics the decoder.
    /// (It may still decode: most body bytes are opaque payload.)
    #[test]
    fn single_byte_mutation_never_panics(
        msg in arb_valid_message(),
        endian in arb_endian(),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let wire = msg.encode(endian).to_vec();
        let pos = pos_seed % wire.len();
        let mut mutated = wire;
        mutated[pos] ^= xor;
        let _ = Message::decode(&mutated);
    }

    /// The frame splitter survives arbitrary garbage pushed in arbitrary
    /// chunks: it either yields frames or a typed error, and any yielded
    /// frame feeds into `Message::decode` without panicking.
    #[test]
    fn splitter_never_panics_on_garbage(
        stream in prop::collection::vec(any::<u8>(), 0..512),
        chunk_sizes in prop::collection::vec(1usize..48, 1..32),
    ) {
        let mut splitter = FrameSplitter::new();
        let mut offset = 0;
        let mut chunks = chunk_sizes.iter().cycle();
        'outer: while offset < stream.len() {
            let n = (*chunks.next().unwrap()).min(stream.len() - offset);
            splitter.push(&stream[offset..offset + n]);
            offset += n;
            loop {
                match splitter.next_frame() {
                    Ok(Some(frame)) => {
                        let _ = frame.msg_type();
                        let _ = frame.body();
                        let _ = Message::decode(&frame.bytes);
                    }
                    Ok(None) => break,
                    // A corrupt stream is fatal for the connection; the
                    // splitter must not be pumped further.
                    Err(_) => break 'outer,
                }
            }
        }
    }

    /// A header declaring a body above `MAX_FRAME_LEN` is refused as soon
    /// as the header is complete, whatever follows it and however it is
    /// chunked — the splitter never sits waiting for (and buffering) 4 GiB.
    /// The largest allowed length is still just an incomplete frame.
    #[test]
    fn oversized_declared_length_is_a_typed_error(
        mead in any::<bool>(),
        endian in arb_endian(),
        msg_type in any::<u8>(),
        excess in 1u32..=(u32::MAX - MAX_FRAME_LEN as u32),
        tail in prop::collection::vec(any::<u8>(), 0..64),
        chunk in 1usize..20,
    ) {
        let header = |declared: u32| {
            let mut h = if mead { MEAD_MAGIC.to_vec() } else { GIOP_MAGIC.to_vec() };
            h.extend_from_slice(&[1, 0, u8::from(endian == Endian::Little), msg_type]);
            h.extend_from_slice(&match endian {
                Endian::Big => declared.to_be_bytes(),
                Endian::Little => declared.to_le_bytes(),
            });
            h
        };
        let declared = MAX_FRAME_LEN as u32 + excess;
        let mut stream = header(declared);
        stream.extend_from_slice(&tail);
        let mut splitter = FrameSplitter::new();
        let mut fed = 0;
        for piece in stream.chunks(chunk) {
            splitter.push(piece);
            fed += piece.len();
            let got = splitter.next_frame();
            if fed < HEADER_LEN {
                prop_assert_eq!(got, Ok(None));
            } else {
                prop_assert_eq!(got, Err(GiopError::FrameTooLarge(declared as usize)));
            }
        }
        // The error is sticky and nothing was thrown away.
        prop_assert_eq!(splitter.next_frame(), Err(GiopError::FrameTooLarge(declared as usize)));
        prop_assert_eq!(splitter.buffered(), stream.len());

        let mut at_limit = FrameSplitter::new();
        at_limit.push(&header(MAX_FRAME_LEN as u32));
        prop_assert_eq!(at_limit.next_frame(), Ok(None));
    }

    /// The CDR reader never panics under an arbitrary sequence of read
    /// operations over arbitrary bytes.
    #[test]
    fn cdr_reader_never_panics(
        buf in prop::collection::vec(any::<u8>(), 0..128),
        ops in prop::collection::vec(0u8..10, 1..24),
        endian in arb_endian(),
    ) {
        let mut r = CdrReader::new(&buf, endian);
        for op in ops {
            match op {
                0 => { let _ = r.read_u8(); }
                1 => { let _ = r.read_bool(); }
                2 => { let _ = r.read_u16(); }
                3 => { let _ = r.read_u32(); }
                4 => { let _ = r.read_u64(); }
                5 => { let _ = r.read_f64(); }
                6 => { let _ = r.read_string(); }
                7 => { let _ = r.read_octets(); }
                8 => { let _ = r.read_str(); }
                _ => { let _ = r.read_octet_slice(); }
            }
            prop_assert_eq!(r.rest().len(), r.remaining());
        }
    }

    /// IOR decoding never panics on arbitrary bytes, and always errors on
    /// strict prefixes of a valid encoding.
    #[test]
    fn ior_decode_never_panics(
        type_id in "[A-Za-z0-9:/._-]{1,30}",
        host in "[a-z0-9.-]{1,20}",
        port in any::<u16>(),
        key in prop::collection::vec(any::<u8>(), 1..40),
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let ior = Ior {
            type_id,
            profiles: vec![IiopProfile {
                version_major: 1,
                version_minor: 0,
                host,
                port,
                object_key: ObjectKey::from_slice(&key),
            }],
        };
        let wire = ior.encode();
        for cut in 0..wire.len() {
            prop_assert!(Ior::decode(&wire[..cut]).is_err());
        }
        prop_assert!(Ior::decode(&wire).is_ok());
        let _ = Ior::decode(&garbage);
    }

    /// `Ior::validate` accepts and rejects what `Ior::decode` does, with
    /// the same error: on arbitrary bytes, and on every truncation and
    /// every single-byte flip of a valid IOR.
    #[test]
    fn ior_validate_agrees_with_decode(
        wire in arb_ior_bytes(),
        xor in 1u8..=255,
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assert_eq!(Ior::validate(&wire), Ok(()));
        prop_assert!(validate_agrees(&garbage), "garbage {:?}", garbage);
        for cut in 0..wire.len() {
            prop_assert!(validate_agrees(&wire[..cut]), "{:?} cut at {}", wire, cut);
        }
        for pos in 0..wire.len() {
            let mut flipped = wire.clone();
            flipped[pos] ^= xor;
            prop_assert!(validate_agrees(&flipped), "{:?} flipped at {}", wire, pos);
        }
    }
}

//! Property-based tests for the GIOP wire protocol: round-trips hold for
//! arbitrary well-formed messages, and the decoder never panics on
//! arbitrary bytes.

use proptest::prelude::*;

use giop::*;

fn arb_object_key() -> impl Strategy<Value = ObjectKey> {
    prop::collection::vec(any::<u8>(), 1..80).prop_map(|k| ObjectKey::from_slice(&k))
}

fn arb_ior() -> impl Strategy<Value = Ior> {
    (
        "[A-Za-z0-9:/._-]{1,40}",
        prop::collection::vec(("[a-z0-9.-]{1,20}", any::<u16>(), arb_object_key()), 1..4),
    )
        .prop_map(|(type_id, profiles)| Ior {
            type_id,
            profiles: profiles
                .into_iter()
                .map(|(host, port, object_key)| IiopProfile {
                    version_major: 1,
                    version_minor: 0,
                    host,
                    port,
                    object_key,
                })
                .collect(),
        })
}

fn arb_reply_body() -> impl Strategy<Value = ReplyBody> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..64).prop_map(ReplyBody::NoException),
        "[A-Za-z0-9:/._-]{1,40}".prop_map(ReplyBody::UserException),
        ("[A-Za-z0-9:/._-]{1,40}", any::<u32>(), 0u32..3).prop_map(
            |(repo_id, minor, completed)| {
                ReplyBody::SystemException {
                    repo_id,
                    minor,
                    completed,
                }
            }
        ),
        arb_ior().prop_map(ReplyBody::LocationForward),
        any::<u16>().prop_map(ReplyBody::NeedsAddressingMode),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (
            any::<u32>(),
            any::<bool>(),
            arb_object_key(),
            "[a-z_][a-z0-9_]{0,30}",
            prop::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(
                |(request_id, response_expected, object_key, operation, body)| {
                    Message::Request(RequestMessage {
                        request_id,
                        response_expected,
                        object_key,
                        operation,
                        body,
                    })
                }
            ),
        (any::<u32>(), arb_reply_body())
            .prop_map(|(request_id, body)| { Message::Reply(ReplyMessage { request_id, body }) }),
        Just(Message::CloseConnection),
        Just(Message::MessageError),
    ]
}

fn arb_endian() -> impl Strategy<Value = Endian> {
    prop_oneof![Just(Endian::Big), Just(Endian::Little)]
}

proptest! {
    #[test]
    fn message_roundtrip(msg in arb_message(), endian in arb_endian()) {
        let wire = msg.encode(endian);
        let back = Message::decode(&wire).expect("well-formed message decodes");
        prop_assert_eq!(back, msg);
    }

    #[test]
    fn ior_roundtrip(ior in arb_ior()) {
        let b = ior.encode();
        prop_assert_eq!(Ior::decode(&b).expect("well-formed IOR decodes"), ior);
    }

    #[test]
    fn decoder_never_panics_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
        let _ = Ior::decode(&bytes);
    }

    #[test]
    fn splitter_reassembles_message_sequence_under_arbitrary_chunking(
        msgs in prop::collection::vec(arb_message(), 1..6),
        endian in arb_endian(),
        chunk_sizes in prop::collection::vec(1usize..40, 1..64),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode(endian));
        }
        let mut splitter = FrameSplitter::new();
        let mut frames = Vec::new();
        let mut offset = 0;
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while offset < stream.len() {
            let n = (*chunk_iter.next().expect("cycle")).min(stream.len() - offset);
            splitter.push(&stream[offset..offset + n]);
            offset += n;
            while let Some(f) = splitter.next_frame().expect("valid stream") {
                frames.push(f);
            }
        }
        prop_assert_eq!(frames.len(), msgs.len());
        for (frame, msg) in frames.iter().zip(&msgs) {
            prop_assert_eq!(&Message::decode(&frame.bytes).expect("frame decodes"), msg);
        }
        prop_assert_eq!(splitter.buffered(), 0);
    }

    #[test]
    fn cdr_primitives_roundtrip(
        a in any::<u8>(), b in any::<bool>(), c in any::<u16>(),
        d in any::<u32>(), e in any::<u64>(), f in any::<f64>(),
        s in "[ -~]{0,40}", o in prop::collection::vec(any::<u8>(), 0..40),
        endian in arb_endian(),
    ) {
        let mut w = CdrWriter::new(endian);
        w.write_u8(a); w.write_bool(b); w.write_u16(c); w.write_u32(d);
        w.write_u64(e); w.write_f64(f); w.write_string(&s); w.write_octets(&o);
        let buf = w.finish();
        let mut r = CdrReader::new(&buf, endian);
        prop_assert_eq!(r.read_u8().unwrap(), a);
        prop_assert_eq!(r.read_bool().unwrap(), b);
        prop_assert_eq!(r.read_u16().unwrap(), c);
        prop_assert_eq!(r.read_u32().unwrap(), d);
        prop_assert_eq!(r.read_u64().unwrap(), e);
        let f_back = r.read_f64().unwrap();
        prop_assert!(f_back == f || (f.is_nan() && f_back.is_nan()));
        prop_assert_eq!(r.read_string().unwrap(), s);
        prop_assert_eq!(r.read_octets().unwrap(), o);
    }

    #[test]
    fn hash16_is_stable_and_key_dependent(bytes in prop::collection::vec(any::<u8>(), 1..64)) {
        let k1 = ObjectKey::from_slice(&bytes);
        let k2 = ObjectKey::from_slice(&bytes);
        prop_assert_eq!(k1.hash16(), k2.hash16());
    }
}

//! Property tests for the group-communication wire format.

use bytes::Bytes;
use proptest::prelude::*;

use groupcomm::{CodecError, GcsSplitter, GcsWire, MAX_FRAME};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_.-]{1,40}"
}

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..200)
}

fn arb_members() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_name(), 0..8)
}

fn arb_msg() -> impl Strategy<Value = GcsWire> {
    prop_oneof![
        arb_name().prop_map(|member| GcsWire::Attach { member }),
        arb_name().prop_map(|group| GcsWire::Join { group }),
        arb_name().prop_map(|group| GcsWire::Leave { group }),
        (arb_name(), arb_payload())
            .prop_map(|(group, payload)| GcsWire::Multicast { group, payload }),
        Just(GcsWire::Attached),
        (arb_name(), any::<u64>(), arb_members()).prop_map(|(group, view_id, members)| {
            GcsWire::View {
                group,
                view_id,
                members,
            }
        }),
        (arb_name(), arb_name(), arb_payload()).prop_map(|(group, sender, payload)| {
            GcsWire::Deliver {
                group,
                sender,
                payload,
            }
        }),
        any::<u32>().prop_map(|node| GcsWire::Hello { node }),
        (arb_name(), arb_name(), any::<u32>()).prop_map(|(group, member, daemon)| {
            GcsWire::FwdJoin {
                group,
                member,
                daemon,
            }
        }),
        (arb_name(), arb_name()).prop_map(|(group, member)| GcsWire::FwdLeave { group, member }),
        (arb_name(), arb_name(), arb_payload()).prop_map(|(group, sender, payload)| {
            GcsWire::FwdMulticast {
                group,
                sender,
                payload,
            }
        }),
        (any::<u64>(), arb_name(), any::<u64>(), arb_members()).prop_map(
            |(seq, group, view_id, members)| GcsWire::OrdView {
                seq,
                group,
                view_id,
                members
            }
        ),
        (any::<u64>(), arb_name(), arb_name(), arb_payload()).prop_map(
            |(seq, group, sender, payload)| GcsWire::OrdDeliver {
                seq,
                group,
                sender,
                payload
            }
        ),
        prop::collection::vec(any::<u8>(), 0..128).prop_map(|pad| GcsWire::Heartbeat { pad }),
    ]
}

proptest! {
    #[test]
    fn every_message_roundtrips(msg in arb_msg()) {
        let framed = msg.encode();
        let mut s = GcsSplitter::new();
        s.push(&framed);
        prop_assert_eq!(s.next_message().expect("decodes").expect("complete"), msg);
    }

    #[test]
    fn splitter_reassembles_under_arbitrary_chunking(
        msgs in prop::collection::vec(arb_msg(), 1..8),
        chunks in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        let mut s = GcsSplitter::new();
        let mut got = Vec::new();
        let mut offset = 0;
        let mut it = chunks.iter().cycle();
        while offset < stream.len() {
            let n = (*it.next().expect("cycle")).min(stream.len() - offset);
            s.push(&stream[offset..offset + n]);
            offset += n;
            while let Some(m) = s.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    /// Segments handed over by value — one message each, then the whole
    /// stream as two segments cut anywhere — decode to the messages that
    /// were encoded.
    #[test]
    fn segments_by_value_decode_like_copied_slices(
        msgs in prop::collection::vec(arb_msg(), 1..8),
        cut in any::<usize>(),
    ) {
        let mut stream = Vec::new();
        let mut by_value = GcsSplitter::new();
        let mut got = Vec::new();
        for m in &msgs {
            let wire = m.encode();
            stream.extend_from_slice(&wire);
            by_value.push_bytes(wire);
            while let Some(m) = by_value.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(&got, &msgs);

        let cut = cut % (stream.len() + 1);
        let mut two = GcsSplitter::new();
        let mut got = Vec::new();
        for piece in [&stream[..cut], &stream[cut..]] {
            two.push_bytes(Bytes::copy_from_slice(piece));
            while let Some(m) = two.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(&got, &msgs);
    }

    /// A prefix declaring more than `MAX_FRAME` bytes is refused as soon
    /// as its four bytes are in, however they arrive and whatever follows;
    /// the limit itself is only an incomplete frame.
    #[test]
    fn oversized_declared_length_is_a_typed_error(
        excess in 1u32..=(u32::MAX - MAX_FRAME),
        tail in prop::collection::vec(any::<u8>(), 0..32),
        chunk in 1usize..8,
    ) {
        let declared = MAX_FRAME + excess;
        let mut stream = declared.to_be_bytes().to_vec();
        stream.extend_from_slice(&tail);
        let mut s = GcsSplitter::new();
        let mut fed = 0;
        for piece in stream.chunks(chunk) {
            s.push(piece);
            fed += piece.len();
            let got = s.next_message();
            if fed < 4 {
                prop_assert_eq!(got, Ok(None));
            } else {
                prop_assert_eq!(got, Err(CodecError::Oversize(declared)));
            }
        }
        let mut at_limit = GcsSplitter::new();
        at_limit.push(&MAX_FRAME.to_be_bytes());
        prop_assert_eq!(at_limit.next_message(), Ok(None));
    }

    #[test]
    fn decoder_never_panics_on_noise(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = GcsWire::decode(&bytes);
        let mut s = GcsSplitter::new();
        s.push(&bytes);
        // Either a message, None (incomplete) or a decode error — no panic.
        while let Ok(Some(_)) = s.next_message() {}
    }
}

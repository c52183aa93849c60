//! Property tests for MEAD's control-message formats.

use proptest::prelude::*;

use giop::{FrameSplitter, Ior, ObjectKey};
use mead::{FailoverNotice, GroupMsg};

fn arb_name() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_.-]{1,32}"
}

fn arb_ior() -> impl Strategy<Value = Ior> {
    (
        arb_name(),
        "[a-z0-9]{1,12}",
        any::<u16>(),
        prop::collection::vec(any::<u8>(), 1..64),
    )
        .prop_map(|(type_id, host, port, key)| {
            Ior::singleton(&type_id, &host, port, ObjectKey::from_slice(&key))
        })
}

fn arb_group_msg() -> impl Strategy<Value = GroupMsg> {
    prop_oneof![
        (arb_name(), arb_name(), any::<u16>())
            .prop_map(|(member, host, port)| { GroupMsg::AddrAdvert { member, host, port } }),
        (arb_name(), arb_ior()).prop_map(|(member, ior)| GroupMsg::IorAdvert { member, ior }),
        arb_name().prop_map(|member| GroupMsg::LaunchRequest { member }),
        prop::collection::vec((arb_name(), arb_name(), any::<u16>()), 0..6)
            .prop_map(|entries| GroupMsg::SyncList { entries }),
        arb_name().prop_map(|reply_group| GroupMsg::AddressQuery { reply_group }),
        (arb_name(), arb_name(), any::<u16>())
            .prop_map(|(member, host, port)| { GroupMsg::AddressReply { member, host, port } }),
        (arb_name(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(member, state)| { GroupMsg::Checkpoint { member, state } }),
    ]
}

proptest! {
    #[test]
    fn group_messages_roundtrip(msg in arb_group_msg()) {
        prop_assert_eq!(GroupMsg::decode(&msg.encode()).expect("decodes"), msg);
    }

    #[test]
    fn group_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = GroupMsg::decode(&bytes);
    }

    #[test]
    fn failover_notices_roundtrip_and_interleave_with_giop(
        host in "[a-z0-9]{1,16}",
        port in any::<u16>(),
        member in "[a-zA-Z0-9/]{1,24}",
        rid in any::<u32>(),
    ) {
        let notice = FailoverNotice::new(&host, port, &member);
        // The piggyback layout: notice first, then the reply.
        let mut stream = notice.encode();
        let reply = giop::Message::Reply(giop::ReplyMessage {
            request_id: rid,
            body: giop::ReplyBody::NoException(vec![1, 2, 3]),
        })
        .encode(giop::Endian::Big);
        stream.extend_from_slice(&reply);
        let mut s = FrameSplitter::new();
        s.push(&stream);
        let frames = s.drain_frames().expect("both frames split");
        prop_assert_eq!(frames.len(), 2);
        let got = FailoverNotice::decode(&frames[0]).expect("notice decodes");
        prop_assert_eq!(got.host, host);
        prop_assert_eq!(got.port, port);
        prop_assert_eq!(&frames[1].bytes[..], &reply[..]);
    }
}

//! Property tests for MEAD's control-message formats.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use giop::{FrameSplitter, Ior, ObjectKey};
use mead::{FailoverNotice, GroupMsg};

/// Cases a property runs.
const CASES: u64 = 256;

/// `[a-z0-9]`: host names.
const HOST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
/// `[a-zA-Z0-9/]`: failover-notice member names.
const MEMBER: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/";
/// `[a-zA-Z0-9/_.-]`: group-message names.
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";

/// 1 to `max` characters, each drawn from `alphabet`.
fn string(rng: &mut StdRng, alphabet: &[u8], max: usize) -> String {
    (0..rng.gen_range(1..=max))
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

fn bytes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    (0..rng.gen_range(len)).map(|_| rng.gen()).collect()
}

fn name(rng: &mut StdRng) -> String {
    string(rng, NAME, 32)
}

fn ior(rng: &mut StdRng) -> Ior {
    let type_id = name(rng);
    let host = string(rng, HOST, 12);
    let port = rng.gen();
    let key = bytes(rng, 1..64);
    Ior::singleton(&type_id, &host, port, ObjectKey::from_slice(&key))
}

/// Every `GroupMsg` variant, with arbitrary contents.
fn group_msg(rng: &mut StdRng) -> GroupMsg {
    match rng.gen_range(0..7) {
        0 => GroupMsg::AddrAdvert {
            member: name(rng),
            host: name(rng),
            port: rng.gen(),
        },
        1 => GroupMsg::IorAdvert {
            member: name(rng),
            ior: ior(rng),
        },
        2 => GroupMsg::LaunchRequest { member: name(rng) },
        3 => GroupMsg::SyncList {
            entries: (0..rng.gen_range(0..6))
                .map(|_| (name(rng), name(rng), rng.gen()))
                .collect(),
        },
        4 => GroupMsg::AddressQuery {
            reply_group: name(rng),
        },
        5 => GroupMsg::AddressReply {
            member: name(rng),
            host: name(rng),
            port: rng.gen(),
        },
        _ => GroupMsg::Checkpoint {
            member: name(rng),
            state: bytes(rng, 0..256),
        },
    }
}

#[test]
fn group_messages_roundtrip() {
    for seed in 0..CASES {
        let msg = group_msg(&mut StdRng::seed_from_u64(seed));
        let back = GroupMsg::decode(&msg.encode()).expect("decodes");
        assert_eq!(back, msg, "seed {seed}");
    }
}

#[test]
fn failover_notices_roundtrip_and_interleave_with_giop() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let host = string(rng, HOST, 16);
        let port: u16 = rng.gen();
        let member = string(rng, MEMBER, 24);
        let notice = FailoverNotice::new(&host, port, &member);
        // The piggyback layout: notice first, then the reply.
        let mut stream = notice.encode();
        let reply = giop::Message::Reply(giop::ReplyMessage {
            request_id: rng.gen(),
            body: giop::ReplyBody::NoException(vec![1, 2, 3]),
        })
        .encode(giop::Endian::Big);
        stream.extend_from_slice(&reply);
        let mut s = FrameSplitter::new();
        s.push(&stream);
        let frames = s.drain_frames().expect("both frames split");
        assert_eq!(frames.len(), 2, "seed {seed}");
        let got = FailoverNotice::decode(&frames[0]).expect("notice decodes");
        assert_eq!(got.host, host, "seed {seed}");
        assert_eq!(got.port, port, "seed {seed}");
        assert_eq!(&frames[1].bytes[..], &reply[..], "seed {seed}");
    }
}

//! Property tests for the group-communication wire format: round-trips
//! and any chunking of a stream. Hostile input is the root
//! `tests/hostile_inputs.rs` table's.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use groupcomm::{GcsSplitter, GcsWire};

/// Cases a property runs.
const CASES: u64 = 256;

/// `[a-zA-Z0-9/_.-]`: group, member and sender names.
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_.-";

fn name(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1..=40))
        .map(|_| char::from(NAME[rng.gen_range(0..NAME.len())]))
        .collect()
}

fn bytes(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    (0..rng.gen_range(len)).map(|_| rng.gen()).collect()
}

fn payload(rng: &mut StdRng) -> Vec<u8> {
    bytes(rng, 0..200)
}

fn members(rng: &mut StdRng) -> Vec<String> {
    (0..rng.gen_range(0..8)).map(|_| name(rng)).collect()
}

/// Every `GcsWire` variant, with arbitrary contents.
fn msg(rng: &mut StdRng) -> GcsWire {
    match rng.gen_range(0..14) {
        0 => GcsWire::Attach { member: name(rng) },
        1 => GcsWire::Join { group: name(rng) },
        2 => GcsWire::Leave { group: name(rng) },
        3 => GcsWire::Multicast {
            group: name(rng),
            payload: payload(rng),
        },
        4 => GcsWire::Attached,
        5 => GcsWire::View {
            group: name(rng),
            view_id: rng.gen(),
            members: members(rng),
        },
        6 => GcsWire::Deliver {
            group: name(rng),
            sender: name(rng),
            payload: payload(rng),
        },
        7 => GcsWire::Hello { node: rng.gen() },
        8 => GcsWire::FwdJoin {
            group: name(rng),
            member: name(rng),
            daemon: rng.gen(),
        },
        9 => GcsWire::FwdLeave {
            group: name(rng),
            member: name(rng),
        },
        10 => GcsWire::FwdMulticast {
            group: name(rng),
            sender: name(rng),
            payload: payload(rng),
        },
        11 => GcsWire::OrdView {
            seq: rng.gen(),
            group: name(rng),
            view_id: rng.gen(),
            members: members(rng),
        },
        12 => GcsWire::OrdDeliver {
            seq: rng.gen(),
            group: name(rng),
            sender: name(rng),
            payload: payload(rng),
        },
        _ => GcsWire::Heartbeat {
            pad: bytes(rng, 0..128),
        },
    }
}

fn msgs(rng: &mut StdRng) -> Vec<GcsWire> {
    (0..rng.gen_range(1..8)).map(|_| msg(rng)).collect()
}

#[test]
fn every_message_roundtrips() {
    for seed in 0..CASES {
        let msg = msg(&mut StdRng::seed_from_u64(seed));
        let mut s = GcsSplitter::new();
        s.push(&msg.encode());
        let back = s.next_message().expect("decodes").expect("complete");
        assert_eq!(back, msg, "seed {seed}");
    }
}

#[test]
fn splitter_reassembles_under_arbitrary_chunking() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let msgs = msgs(rng);
        let chunks: Vec<usize> = (0..rng.gen_range(1..32))
            .map(|_| rng.gen_range(1..64))
            .collect();
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
        assert_eq!(got, msgs, "seed {seed}");
    }
}

/// Segments handed over by value — one message each, then the whole
/// stream as two segments cut anywhere — decode to the messages that
/// were encoded.
#[test]
fn segments_by_value_decode_like_copied_slices() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let msgs = msgs(rng);
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
        assert_eq!(got, msgs, "seed {seed}");

        let cut = rng.gen_range(0..=stream.len());
        let mut two = GcsSplitter::new();
        let mut got = Vec::new();
        for piece in [&stream[..cut], &stream[cut..]] {
            two.push_bytes(Bytes::copy_from_slice(piece));
            while let Some(m) = two.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        assert_eq!(got, msgs, "seed {seed}");
    }
}

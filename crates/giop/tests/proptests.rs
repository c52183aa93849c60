//! Property-based tests for the GIOP wire protocol: round-trips hold for
//! arbitrary well-formed messages and any chunking of a stream. Hostile
//! input is the root `tests/hostile_inputs.rs` table's.

mod common;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use common::{bytes, endian, ior, message, printable, CASES};
use giop::*;

#[test]
fn message_roundtrip() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let msg = message(rng);
        let wire = msg.encode(endian(rng));
        let back = Message::decode(&wire).expect("well-formed message decodes");
        assert_eq!(back, msg, "seed {seed}");
    }
}

#[test]
fn ior_roundtrip() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let ior = ior(rng);
        let back = Ior::decode(&ior.encode()).expect("well-formed IOR decodes");
        assert_eq!(back, ior, "seed {seed}");
    }
}

#[test]
fn splitter_reassembles_message_sequence_under_arbitrary_chunking() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let msgs: Vec<Message> = (0..rng.gen_range(1..6)).map(|_| message(rng)).collect();
        let endian = endian(rng);
        let chunk_sizes: Vec<usize> = (0..rng.gen_range(1..64))
            .map(|_| rng.gen_range(1..40))
            .collect();
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
        assert_eq!(frames.len(), msgs.len(), "seed {seed}");
        for (frame, msg) in frames.iter().zip(&msgs) {
            let back = Message::decode(&frame.bytes).expect("frame decodes");
            assert_eq!(&back, msg, "seed {seed}");
        }
        assert_eq!(splitter.buffered(), 0, "seed {seed}");
    }
}

/// Every primitive in one stream, so each value's alignment depends on
/// the ones before it. An `f64` is a special value a quarter of the
/// time, and otherwise a raw bit pattern (NaN, infinities and subnormals
/// among them).
#[test]
fn cdr_primitives_roundtrip() {
    const SPECIALS: [f64; 9] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        f64::NAN,
    ];
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let (a, b, c, d, e): (u8, bool, u16, u32, u64) =
            (rng.gen(), rng.gen(), rng.gen(), rng.gen(), rng.gen());
        let f = if rng.gen_range(0..4) == 0 {
            SPECIALS[rng.gen_range(0..SPECIALS.len())]
        } else {
            f64::from_bits(rng.gen())
        };
        let s = printable(rng, 0..=40);
        let o = bytes(rng, 0..40);
        let endian = endian(rng);

        let mut w = CdrWriter::new(endian);
        w.write_u8(a);
        w.write_bool(b);
        w.write_u16(c);
        w.write_u32(d);
        w.write_u64(e);
        w.write_f64(f);
        w.write_string(&s);
        w.write_octets(&o);
        let buf = w.finish();
        let mut r = CdrReader::new(&buf, endian);
        assert_eq!(r.read_u8().unwrap(), a, "seed {seed}");
        assert_eq!(r.read_bool().unwrap(), b, "seed {seed}");
        assert_eq!(r.read_u16().unwrap(), c, "seed {seed}");
        assert_eq!(r.read_u32().unwrap(), d, "seed {seed}");
        assert_eq!(r.read_u64().unwrap(), e, "seed {seed}");
        let f_back = r.read_f64().unwrap();
        assert!(
            f_back == f || (f.is_nan() && f_back.is_nan()),
            "seed {seed}"
        );
        assert_eq!(r.read_string().unwrap(), s, "seed {seed}");
        assert_eq!(r.read_octets().unwrap(), o, "seed {seed}");
    }
}

#[test]
fn hash16_is_stable_and_key_dependent() {
    for seed in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(seed);
        let key = bytes(rng, 1..64);
        let k1 = ObjectKey::from_slice(&key);
        let k2 = ObjectKey::from_slice(&key);
        assert_eq!(k1.hash16(), k2.hash16(), "seed {seed}");
    }
}

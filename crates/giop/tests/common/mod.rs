//! Generators of well-formed GIOP values for the property tests. Each
//! draws from a seeded `StdRng`, so a case is its seed: a failure names
//! the seed, and `StdRng::seed_from_u64(seed)` replays it.

use std::ops::{Range, RangeInclusive};

use rand::rngs::StdRng;
use rand::Rng;

use giop::*;

/// Cases a property runs.
pub const CASES: u64 = 256;

/// `[A-Za-z0-9:/._-]`: repository ids and type ids.
const ID: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789:/._-";
/// `[a-z0-9.-]`: host names.
const HOST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
/// `[a-z0-9_]`: the tail of an operation name.
const IDENT: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// `len` characters, each drawn from `alphabet`.
fn string(rng: &mut StdRng, alphabet: &[u8], len: RangeInclusive<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| char::from(alphabet[rng.gen_range(0..alphabet.len())]))
        .collect()
}

/// `len` characters of printable ASCII, `[ -~]`.
pub fn printable(rng: &mut StdRng, len: RangeInclusive<usize>) -> String {
    let n = rng.gen_range(len);
    (0..n)
        .map(|_| char::from(rng.gen_range(0x20u32..=0x7e) as u8))
        .collect()
}

/// `len` arbitrary bytes.
pub fn bytes(rng: &mut StdRng, len: Range<usize>) -> Vec<u8> {
    let n = rng.gen_range(len);
    (0..n).map(|_| rng.gen()).collect()
}

pub fn endian(rng: &mut StdRng) -> Endian {
    if rng.gen() {
        Endian::Big
    } else {
        Endian::Little
    }
}

/// A repository id: `[A-Za-z0-9:/._-]{1,40}` or any printable `[ -~]{0,40}`.
fn repo_id(rng: &mut StdRng) -> String {
    if rng.gen() {
        string(rng, ID, 1..=40)
    } else {
        printable(rng, 0..=40)
    }
}

/// Up to three IIOP profiles, each with a key of 1 to 79 bytes.
pub fn ior(rng: &mut StdRng) -> Ior {
    let type_id = string(rng, ID, 1..=40);
    let profiles = (0..rng.gen_range(0..=3))
        .map(|_| IiopProfile {
            version_major: 1,
            version_minor: 0,
            host: string(rng, HOST, 1..=20),
            port: rng.gen(),
            object_key: ObjectKey::from_slice(&bytes(rng, 1..80)),
        })
        .collect();
    Ior { type_id, profiles }
}

/// Every `ReplyBody` variant, with arbitrary contents.
fn reply_body(rng: &mut StdRng) -> ReplyBody {
    match rng.gen_range(0..5) {
        0 => ReplyBody::NoException(bytes(rng, 0..80)),
        1 => ReplyBody::UserException(repo_id(rng)),
        2 => ReplyBody::SystemException {
            repo_id: repo_id(rng),
            minor: rng.gen(),
            // The three CORBA completion states, or any value at all.
            completed: if rng.gen() {
                rng.gen_range(0..3)
            } else {
                rng.gen()
            },
        },
        3 => ReplyBody::LocationForward(ior(rng)),
        _ => ReplyBody::NeedsAddressingMode(rng.gen()),
    }
}

/// Every `Message` variant. An operation is an identifier,
/// `[a-z_][a-z0-9_]{0,30}`, or any printable `[ -~]{0,24}`.
pub fn message(rng: &mut StdRng) -> Message {
    match rng.gen_range(0..4) {
        0 => {
            let request_id = rng.gen();
            let response_expected = rng.gen();
            let object_key = ObjectKey::from_slice(&bytes(rng, 0..80));
            let operation = if rng.gen() {
                string(rng, b"abcdefghijklmnopqrstuvwxyz_", 1..=1) + &string(rng, IDENT, 0..=30)
            } else {
                printable(rng, 0..=24)
            };
            Message::Request(RequestMessage {
                request_id,
                response_expected,
                object_key,
                operation,
                body: bytes(rng, 0..80),
            })
        }
        1 => Message::Reply(ReplyMessage {
            request_id: rng.gen(),
            body: reply_body(rng),
        }),
        2 => Message::CloseConnection,
        _ => Message::MessageError,
    }
}

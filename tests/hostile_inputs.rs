//! One table of hostile input for every decoder that reads bytes it did
//! not produce: the GIOP codec and its splitter, the IOR, the CDR reader,
//! the group-communication wire and its splitter, MEAD's control
//! messages, the counter's checkpoint, the Naming Service's `bind`, the
//! ORB's reply decoders, and the text formats (TOML, scenarios, the
//! protocol spec, the allowlist, decision traces, the conflict relation,
//! Rust source).
//!
//! Each [`Row`] is plain data: the decoder, its seeds (one encoding of
//! each message variant from the crate's own encoder, or a committed
//! input file), an allocation budget `fixed + per_byte · len` that both
//! the largest single allocation and the total allocated must keep to,
//! and whether every strict prefix of a seed must be refused. Properties
//! particular to a row are asserted inside its decoder. [`mutate`] feeds
//! every row the same deterministic mutants of its seeds, and a row
//! passes when no mutant panics, breaks a property or overruns the
//! budget. Round-trip and generator properties stay in their crates.
//!
//! The counting allocator (`tests/common`) counts per thread, so rows run
//! side by side; the allocation counts of the encode path and of a lint
//! pass are pinned at the end of the file with the same allocator.

mod common;

use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use explore::ConflictRelation;
use giop::{
    encode_request, CdrReader, CdrWriter, Endian, FrameKind, FrameSplitter, GiopError, Ior,
    Message, MessageView, ObjectKey, ReplyBody, ReplyBodyView, ReplyMessage, RequestMessage,
    HEADER_LEN, MAX_FRAME_LEN,
};
use groupcomm::{CodecError, GcsSplitter, GcsWire, MAX_FRAME};
use lint::{AllowList, Contract};
use mead::{FailoverNotice, GroupMsg};
use orb::{CounterState, NamingServant, Servant, TimeOfDayServant};
use simnet::sched::{Decision, MAX_CANDIDATES};
use simnet::testkit::MockSys;
use simnet::{DecisionTrace, GateCfg, NodeId, SimDuration, SimTime};
use synlite::{Delim, LexError, Span, Tok, TokenTree};
use tomlite::TomlError;

use common::tally;

// ---------------------------------------------------------------- table

/// A decoder under test: `Ok` when the input decodes, a typed error
/// rendered as text when it does not; a broken property panics.
type Decode = fn(&[u8]) -> Result<(), String>;

/// A row: the decoder's name, the decoder, its seeds, its budget
/// `(fixed, per_byte)` (an input of `len` bytes may allocate at most
/// `fixed + per_byte · len`, at once and in all), and whether every strict
/// prefix of a seed is refused.
struct Row(
    &'static str,
    Decode,
    fn() -> Vec<Vec<u8>>,
    (usize, usize),
    bool,
);

/// Where a declared count or length meets the bytes that back it, the
/// budget of a binary decoder: a few kilobytes and 16 bytes per input
/// byte (DESIGN §9 "Hostile input").
const BINARY: (usize, usize) = (4 << 10, 16);
/// The budget of a text parser, whose tables and tokens cost more up
/// front but no more per byte.
const TEXT: (usize, usize) = (16 << 10, 16);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    Row("giop Message::decode", |b| ok(Message::decode(b)), giop_messages, BINARY, true),
    Row("giop MessageView::parse", |b| ok(MessageView::parse(b)), giop_messages, BINARY, true),
    Row("giop FrameSplitter", giop_splitter, giop_streams, BINARY, false),
    Row("giop Ior::decode/validate", ior_decode, iors, BINARY, true),
    Row("giop CdrReader", cdr_reader, cdr_programs, BINARY, false),
    Row("groupcomm GcsWire::decode", |b| ok(GcsWire::decode(b)), gcs_bodies, BINARY, true),
    Row("groupcomm GcsSplitter", gcs_splitter, gcs_streams, BINARY, false),
    Row("mead GroupMsg::decode", |b| ok(GroupMsg::decode(b)), group_msgs, BINARY, true),
    Row("mead FailoverNotice::decode", failover_notice, notices, BINARY, false),
    Row("orb CounterState::restore", counter_restore, snapshots, BINARY, true),
    Row("orb naming bind", naming_bind, bind_bodies, BINARY, true),
    Row("orb decode_resolve_reply", |b| ok(orb::decode_resolve_reply(b)), || naming_reply("resolve", "naming"), BINARY, true),
    Row("orb decode_list_reply", |b| ok(orb::decode_list_reply(b)), || naming_reply("list", ""), BINARY, true),
    Row("orb decode_time_reply", |b| ok(orb::decode_time_reply(b)), time_replies, BINARY, true),
    Row("orb decode_counter_reply", |b| ok(orb::decode_counter_reply(b)), || vec![orb::encode_counter_reply(300)], BINARY, true),
    Row("orb decode_increment_once", |b| ok(orb::decode_increment_once(b)), || vec![orb::encode_increment_once(7, 1)], BINARY, true),
    Row("tomlite::parse", |b| toml(b, tomlite::parse), scenarios, TEXT, false),
    Row("experiments::parse_sweep", |b| toml(b, experiments::parse_sweep), scenarios, TEXT, false),
    Row("lint protocol spec", |b| toml(b, lint::fsm::parse_spec), || vec![SPEC.to_vec()], TEXT, false),
    Row("lint AllowList::parse", |b| toml(b, AllowList::parse), || vec![ALLOW.to_vec()], TEXT, false),
    Row("simnet DecisionTrace::parse", trace_parse, traces, TEXT, false),
    Row("explore ConflictRelation::parse", |b| ok(ConflictRelation::parse(&String::from_utf8_lossy(b))), relation, TEXT, true),
    Row("synlite parse_file", rust_lex, || vec![LEXER.to_vec()], TEXT, false),
];

#[test]
fn every_decoder_survives_its_mutants_within_budget() {
    let failures: Vec<String> = std::thread::scope(|scope| {
        let rows: Vec<_> = ROWS.iter().map(|row| scope.spawn(|| run(row))).collect();
        rows.into_iter()
            .flat_map(|h| h.join().expect("a row thread"))
            .collect()
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Feeds one row its seeds and every mutant of them; returns what failed
/// (at most three lines a row).
fn run(&Row(name, decode, seeds, (fixed, per_byte), prefixes_fail): &Row) -> Vec<String> {
    let seeds = seeds();
    let mut failures = Vec::new();

    let mut feed = |what: &str, input: &[u8]| {
        let limit = fixed + per_byte * input.len();
        let verdict = catch_unwind(AssertUnwindSafe(|| tally(|| decode(input))));
        let fault = match verdict {
            Err(_) => Some("panicked".to_string()),
            Ok((Err(e), _)) if what == "seed" => Some(format!("refused: {e}")),
            Ok((Ok(()), _)) if what == "prefix" && prefixes_fail => {
                Some("accepted a strict prefix".to_string())
            }
            Ok((_, t)) if t.largest > limit || t.bytes > limit => Some(format!(
                "allocated {} B in all, {} B at once; budget {limit} B",
                t.bytes, t.largest
            )),
            Ok(_) => None,
        };
        if let (Some(fault), true) = (fault, failures.len() < 3) {
            let shown = &input[..input.len().min(48)];
            failures.push(format!(
                "{name}: {what} of {} B {fault}: {shown:02x?}",
                input.len()
            ));
        }
    };
    for s in &seeds {
        feed("seed", s);
    }
    let seed = name.bytes().fold(0x5eed_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    mutate(&seeds, &mut StdRng::seed_from_u64(seed), &mut feed);
    failures
}

// ------------------------------------------------------------- mutation

/// At most this many offsets of a seed are each truncated at, flipped,
/// and overwritten with a count; a longer seed is sampled at a stride.
const POSITIONS: usize = 256;
/// Splices and random inputs per row.
const DRAWS: usize = 96;

/// Every mutant of `seeds`, each fed with its kind: every prefix, a
/// single-byte flip at every offset, a hostile count at every 4-aligned
/// offset, splices of two seeds, and random bytes.
fn mutate(seeds: &[Vec<u8>], rng: &mut StdRng, feed: &mut dyn FnMut(&str, &[u8])) {
    for s in seeds {
        let stride = s.len().div_ceil(POSITIONS).max(1);
        for cut in (0..s.len()).step_by(stride) {
            feed("prefix", &s[..cut]);
        }
        let mut m = s.clone();
        for at in (0..s.len()).step_by(stride) {
            let xor = rng.gen_range(1..=255u32) as u8;
            m[at] ^= xor;
            feed("flip", &m);
            m[at] ^= xor;
        }
        // Every CDR count and length is 4-aligned: the largest values,
        // in both byte orders, and the count a check against the bytes
        // left (but not against what each element needs) lets through.
        for at in (0..s.len().saturating_sub(3)).step_by(4 * stride) {
            let left = u32::try_from(s.len() - at - 4).unwrap_or(u32::MAX);
            for word in [
                [0xff; 4],
                0x7fff_ffff_u32.to_be_bytes(),
                0x7fff_ffff_u32.to_le_bytes(),
                left.to_be_bytes(),
            ] {
                m[at..at + 4].copy_from_slice(&word);
                feed("count", &m);
            }
            m[at..at + 4].copy_from_slice(&s[at..at + 4]);
        }
    }
    for _ in 0..DRAWS {
        let (a, b) = (
            &seeds[rng.gen_range(0..seeds.len())],
            &seeds[rng.gen_range(0..seeds.len())],
        );
        let (i, j) = (rng.gen_range(0..=a.len()), rng.gen_range(0..=b.len()));
        feed("splice", &[&a[..i], &b[j..]].concat());
    }
    // Random bytes, half drawn from the seeds so that text reaches past
    // its first line and binary past its first field.
    for _ in 0..DRAWS {
        let len = rng.gen_range(0..=256);
        let bytes: Vec<u8> = (0..len)
            .map(|_| {
                let s = &seeds[rng.gen_range(0..seeds.len())];
                if s.is_empty() || rng.gen_bool(0.5) {
                    rng.next_u32() as u8
                } else {
                    s[rng.gen_range(0..s.len())]
                }
            })
            .collect();
        feed("random", &bytes);
    }
}

// ------------------------------------------------------------ decoders

/// A decoder's verdict as a row reports it.
fn ok<T, E: Display>(verdict: Result<T, E>) -> Result<(), String> {
    verdict.map(drop).map_err(text)
}

fn text(e: impl Display) -> String {
    e.to_string()
}

/// Splits `b` pushed in 7-byte pieces and decodes every frame.
fn giop_splitter(b: &[u8]) -> Result<(), String> {
    let mut s = FrameSplitter::new();
    for piece in b.chunks(7) {
        s.push(piece);
        while let Some(frame) = s.next_frame().map_err(text)? {
            match frame.kind {
                FrameKind::Giop => drop(Message::decode(&frame.bytes)),
                FrameKind::Mead => drop(FailoverNotice::decode(&frame)),
            }
        }
    }
    Ok(())
}

/// `Ior::validate` answers exactly what `Ior::decode` does.
fn ior_decode(b: &[u8]) -> Result<(), String> {
    let decoded = Ior::decode(b).map(drop);
    assert_eq!(Ior::validate(b), decoded, "validate disagrees with decode");
    ok(decoded)
}

/// Runs the program `b` spells: a byte order, then read operations each
/// named by an octet, until the bytes run out or a read fails.
fn cdr_reader(b: &[u8]) -> Result<(), String> {
    let Some((&order, program)) = b.split_first() else {
        return Err("no byte order".into());
    };
    let endian = [Endian::Big, Endian::Little][usize::from(order != 0)];
    let mut r = CdrReader::new(program, endian);
    while r.remaining() > 0 {
        let done = match r.read_u8().map_err(text)? % 11 {
            0 => r.read_u8().map(drop),
            1 => r.read_bool().map(drop),
            2 => r.read_u16().map(drop),
            3 => r.read_u32().map(drop),
            4 => r.read_u64().map(drop),
            5 => r.read_f64().map(drop),
            6 => r.read_string().map(drop),
            7 => r.read_octets().map(drop),
            8 => r.read_str().map(drop),
            9 => r.read_octet_slice().map(drop),
            _ => r.read_count(4).and_then(|n| {
                let mut words = Vec::with_capacity(n);
                for _ in 0..n {
                    words.push(r.read_u32()?);
                }
                Ok(())
            }),
        };
        assert_eq!(r.rest().len(), r.remaining());
        ok(done)?;
    }
    Ok(())
}

/// Splits `b` pushed in 5-byte pieces, decoding every message.
fn gcs_splitter(b: &[u8]) -> Result<(), String> {
    let mut s = GcsSplitter::new();
    for piece in b.chunks(5) {
        s.push(piece);
        while s.next_message().map_err(text)?.is_some() {}
    }
    Ok(())
}

fn failover_notice(b: &[u8]) -> Result<(), String> {
    let mut s = FrameSplitter::new();
    s.push(b);
    while let Some(frame) = s.next_frame().map_err(text)? {
        ok(FailoverNotice::decode(&frame))?;
    }
    Ok(())
}

/// A checkpoint restores exactly when it is 16 bytes, and a refused one
/// leaves the state as it was.
fn counter_restore(b: &[u8]) -> Result<(), String> {
    let state = CounterState::new();
    state.apply(3, 40);
    let verdict = state.restore(b);
    assert_eq!(verdict.is_ok(), b.len() == 16, "{} bytes", b.len());
    if verdict.is_err() {
        assert_eq!((state.value(), state.last_op()), (40, 3));
    }
    ok(verdict)
}

fn sys() -> MockSys {
    MockSys::new(NodeId::from_index(0))
}

/// A binding the servant accepts is one it can serve back: `bind` checks
/// the IOR bytes it stores, `list` decodes them.
fn naming_bind(b: &[u8]) -> Result<(), String> {
    let mut naming = NamingServant::default();
    let mut sys = sys();
    let bound = naming.invoke(&mut sys, "bind", b);
    bound.map_err(|e| format!("{e:?}"))?;
    let listed = naming.invoke(&mut sys, "list", &orb::encode_name(""));
    assert_eq!(
        orb::decode_list_reply(&listed.expect("list")).map(|l| l.len()),
        Ok(1)
    );
    Ok(())
}

/// A TOML error names a line of the input.
fn toml<T>(b: &[u8], parse: fn(&str) -> Result<T, TomlError>) -> Result<(), String> {
    let src = String::from_utf8_lossy(b);
    let lines = src.lines().count().max(1);
    parse(&src).map(drop).map_err(|e| {
        assert!(
            (1..=lines).contains(&(e.line as usize)),
            "`{e}` of {lines} lines"
        );
        e.to_string()
    })
}

/// A trace parses only when replay can apply it as written, and then
/// re-serialises to itself; an error's line lies inside the input.
fn trace_parse(b: &[u8]) -> Result<(), String> {
    use simnet::sched::TraceError::{BadLine, PickOutOfRange, StepOutOfOrder};
    let src = String::from_utf8_lossy(b);
    let trace = match DecisionTrace::parse(&src) {
        Ok(trace) => trace,
        Err(e @ (BadLine(line) | StepOutOfOrder(line) | PickOutOfRange(line))) => {
            assert!((1..=src.lines().count()).contains(&line), "{e}");
            return Err(e.to_string());
        }
        Err(e) => return Err(e.to_string()),
    };
    for (i, d) in trace.decisions.iter().enumerate() {
        let replayable = (2..=MAX_CANDIDATES as u64).contains(&d.n) && d.chosen < d.n;
        assert!(d.step == i as u64 && replayable, "{d:?}");
    }
    assert_eq!(DecisionTrace::parse(&trace.to_jsonl()).as_ref(), Ok(&trace));
    Ok(())
}

/// A lexed file is a view of its source (`check_trees`), and a lexing
/// error is at a position in it.
fn rust_lex(b: &[u8]) -> Result<(), String> {
    let src = String::from_utf8_lossy(b);
    match synlite::parse_file(&src) {
        Ok(trees) => {
            synlite::ast::parse_items(&trees);
            check_trees(&src, &trees, &mut Cursor::new(&src)).unwrap_or_else(|e| panic!("{e}"));
            Ok(())
        }
        Err(LexError { span, message }) => {
            let at = Cursor::new(&src).seek(span);
            assert!(at.is_ok(), "`{message}` at {span:?}");
            Err(message)
        }
    }
}

/// A byte offset of the source and its line and column.
struct Cursor<'s> {
    src: &'s str,
    at: usize,
    span: Span,
}

impl<'s> Cursor<'s> {
    fn new(src: &'s str) -> Self {
        let span = Span { line: 1, col: 1 };
        Cursor { src, at: 0, span }
    }

    /// Moves one character on; `false` at the end.
    fn step(&mut self) -> bool {
        let Some(c) = self.src[self.at..].chars().next() else {
            return false;
        };
        self.at += c.len_utf8();
        let Span { line, col } = self.span;
        let (line, col) = if c == '\n' {
            (line + 1, 1)
        } else {
            (line, col + 1)
        };
        self.span = Span { line, col };
        true
    }

    /// Moves on to `span`, which must not lie behind, returning its offset.
    fn seek(&mut self, span: Span) -> Result<usize, String> {
        while self.span < span && self.step() {}
        match self.span == span {
            true => Ok(self.at),
            false => Err(format!("{span:?} is no position at or after {}", self.at)),
        }
    }

    fn skip_to(&mut self, offset: usize) {
        while self.at < offset && self.step() {}
    }
}

/// Walks `trees` in source order: each token must start at its span, no
/// earlier than where the previous one ended, and its text must be the
/// source's own bytes there.
fn check_trees(src: &str, trees: &[TokenTree<'_>], cur: &mut Cursor<'_>) -> Result<(), String> {
    for t in trees {
        let at = cur.seek(t.span)?;
        let rest = &src[at..];
        // Leaf text is a slice of `src` starting `prefix` bytes after the
        // span: 0, except a lifetime's `'` and a raw identifier's `r#`.
        let leaf = |text: &str, prefixes: &[&str]| -> Result<usize, String> {
            let start = (text.as_ptr() as usize).wrapping_sub(src.as_ptr() as usize);
            if src.get(start..start + text.len()) != Some(text) {
                return Err(format!("{t:?}: text is not a slice of the source"));
            }
            match prefixes
                .iter()
                .any(|p| rest.starts_with(p) && at + p.len() == start)
            {
                true => Ok(start + text.len()),
                false => Err(format!("{t:?}: text starts at {start}, span says {at}")),
            }
        };
        let next = match &t.tok {
            Tok::Ident(s) => leaf(s, &["", "r#"])?,
            Tok::Lifetime(s) => leaf(s, &["'"])?,
            Tok::Lit(s) => leaf(s, &[""])?,
            Tok::Punct(c) if rest.starts_with(*c) => at + c.len_utf8(),
            Tok::Punct(_) => return Err(format!("{t:?} is not the character at its span")),
            Tok::Group(delim, inner) => {
                let [open, close] = match delim {
                    Delim::Paren => ['(', ')'],
                    Delim::Bracket => ['[', ']'],
                    Delim::Brace => ['{', '}'],
                };
                if !rest.starts_with(open) {
                    return Err(format!("{t:?} does not open at its span"));
                }
                cur.skip_to(at + 1);
                check_trees(src, inner, cur)?;
                let closed = src[cur.at..].find(close).ok_or("group never closes")?;
                cur.at + closed + 1
            }
        };
        cur.skip_to(next);
    }
    Ok(())
}

// --------------------------------------------------------------- seeds

fn sample_ior(key_len: usize) -> Ior {
    let key = ObjectKey::from_slice(&vec![0x4b; key_len]);
    let mut ior = Ior::singleton("IDL:TimeOfDay:1.0", "node3", 2810, key);
    ior.profiles.push(ior.profiles[0].clone());
    ior.profiles[1].host = "node4".into();
    ior
}

fn giop_messages() -> Vec<Vec<u8>> {
    let reply = |body| {
        Message::Reply(ReplyMessage {
            request_id: 42,
            body,
        })
    };
    let messages = [
        Message::Request(request(vec![7; 12])),
        reply(ReplyBody::NoException(vec![7; 8])),
        reply(ReplyBody::UserException("IDL:App/Oops:1.0".into())),
        reply(ReplyBody::SystemException {
            repo_id: giop::EX_TRANSIENT.into(),
            minor: 1,
            completed: 1,
        }),
        reply(ReplyBody::LocationForward(sample_ior(8))),
        reply(ReplyBody::NeedsAddressingMode(0)),
        Message::CloseConnection,
        Message::MessageError,
    ];
    let encode = |e| messages.iter().map(move |m: &Message| m.encode(e).to_vec());
    encode(Endian::Big).chain(encode(Endian::Little)).collect()
}

/// Every message and a fail-over notice in one stream, in both orders.
fn giop_streams() -> Vec<Vec<u8>> {
    let notice = FailoverNotice::new("node3", 20001, "replica/7").encode();
    let messages = giop_messages().concat();
    vec![
        [&notice[..], &messages].concat(),
        [&messages[..], &notice].concat(),
    ]
}

/// IORs of one and two profiles, one with a foreign profile, and one
/// whose long key leaves room for a profile count that a check against
/// the bytes left alone lets through. Each is under [`POSITIONS`] bytes,
/// so every offset of it is mutated.
fn iors() -> Vec<Vec<u8>> {
    let mut foreign = CdrWriter::new(Endian::Big);
    foreign.write_string("IDL:x:1.0");
    foreign.write_count(2);
    foreign.write_u32(7);
    foreign.write_octets(&[1, 2, 3]);
    foreign.write_u32(giop::TAG_INTERNET_IOP);
    let profiles = vec![sample_ior(4).profiles.swap_remove(0)];
    let alone = Ior {
        type_id: String::new(),
        profiles,
    }
    .encode();
    // Its body follows the empty type id, the count, the tag and the length.
    foreign.write_octets(&alone[20..]);
    let single = |key: &[u8]| Ior::singleton("IDL:x:1.0", "h", 1, ObjectKey::from_slice(key));
    let iors = [single(b"k"), single(&[0x4b; 180]), sample_ior(16)];
    let mut seeds: Vec<Vec<u8>> = iors.iter().map(Ior::encode).collect();
    seeds.push(foreign.into_vec());
    seeds
}

/// Each read operation once, in both byte orders.
fn cdr_programs() -> Vec<Vec<u8>> {
    let program = |endian| {
        let mut w = CdrWriter::new(endian);
        for op in 0..11 {
            w.write_u8(op);
            match op {
                0 | 1 => w.write_u8(1),
                2 => w.write_u16(0x1234),
                3 => w.write_u32(0xdead_beef),
                4 | 5 => w.write_u64(1 << 40),
                6 | 8 => w.write_string("tick"),
                7 | 9 => w.write_octets(&[1, 2, 3]),
                _ => [3, 1, 2, 3].into_iter().for_each(|v| w.write_u32(v)),
            }
        }
        [vec![u8::from(endian == Endian::Little)], w.into_vec()].concat()
    };
    vec![program(Endian::Big), program(Endian::Little)]
}

fn gcs_messages() -> Vec<GcsWire> {
    let g = || "servers".to_string();
    let m = || "replica-1".to_string();
    let members = || vec![m(), "replica-2".to_string()];
    vec![
        GcsWire::Attach { member: m() },
        GcsWire::Join { group: g() },
        GcsWire::Leave { group: g() },
        GcsWire::Multicast {
            group: g(),
            payload: vec![1, 2, 3],
        },
        GcsWire::Attached,
        GcsWire::View {
            group: g(),
            view_id: 9,
            members: members(),
        },
        GcsWire::Deliver {
            group: g(),
            sender: m(),
            payload: vec![7; 20],
        },
        GcsWire::Hello { node: 3 },
        GcsWire::FwdJoin {
            group: g(),
            member: m(),
            daemon: 2,
        },
        GcsWire::FwdLeave {
            group: g(),
            member: m(),
        },
        GcsWire::FwdMulticast {
            group: g(),
            sender: m(),
            payload: vec![],
        },
        GcsWire::OrdView {
            seq: 5,
            group: g(),
            view_id: 10,
            members: members(),
        },
        GcsWire::OrdDeliver {
            seq: 6,
            group: g(),
            sender: m(),
            payload: vec![4; 9],
        },
        GcsWire::Heartbeat { pad: vec![0; 16] },
    ]
}

/// Frame bodies, without the length prefix `decode` does not read.
fn gcs_bodies() -> Vec<Vec<u8>> {
    gcs_messages()
        .iter()
        .map(|m| m.encode()[4..].to_vec())
        .collect()
}

fn gcs_streams() -> Vec<Vec<u8>> {
    vec![gcs_messages()
        .iter()
        .flat_map(|m| m.encode().to_vec())
        .collect()]
}

fn group_msgs() -> Vec<Vec<u8>> {
    let m = || "replicas/1/9".to_string();
    let h = || "node2".to_string();
    [
        GroupMsg::AddrAdvert {
            member: m(),
            host: h(),
            port: 20001,
        },
        GroupMsg::IorAdvert {
            member: m(),
            ior: sample_ior(16),
        },
        GroupMsg::LaunchRequest { member: m() },
        GroupMsg::SyncList {
            entries: vec![(m(), h(), 20001), (m(), h(), 20002)],
        },
        GroupMsg::AddressQuery { reply_group: m() },
        GroupMsg::AddressReply {
            member: m(),
            host: h(),
            port: 20003,
        },
        GroupMsg::Checkpoint {
            member: m(),
            state: vec![5; 16],
        },
        GroupMsg::RmState {
            next_port: 20007,
            pendings: vec![(1, m()), (2, m())],
        },
    ]
    .iter()
    .map(GroupMsg::encode)
    .collect()
}

fn notices() -> Vec<Vec<u8>> {
    vec![FailoverNotice::new("node3", 20001, "replica/7").encode()]
}

fn snapshots() -> Vec<Vec<u8>> {
    let state = CounterState::new();
    state.apply(7, 300);
    vec![state.snapshot()]
}

fn bind_bodies() -> Vec<Vec<u8>> {
    let bind = |name, key_len| orb::encode_bind(name, &sample_ior(key_len));
    vec![bind("replicas/1", 4), bind("naming", 64)]
}

/// The Naming servant's reply to `operation` over two bindings.
fn naming_reply(operation: &str, name: &str) -> Vec<Vec<u8>> {
    let mut naming = NamingServant::default();
    let mut sys = sys();
    for body in bind_bodies() {
        naming.invoke(&mut sys, "bind", &body).expect("bind");
    }
    let reply = naming.invoke(&mut sys, operation, &orb::encode_name(name));
    vec![reply.expect("reply")]
}

fn time_replies() -> Vec<Vec<u8>> {
    let reply = TimeOfDayServant.invoke(&mut sys(), "time_of_day", &[]);
    vec![reply.expect("time_of_day")]
}

const SCENARIOS: [&str; 3] = [
    include_str!("../scenarios/chaos-campaign.toml"),
    include_str!("../scenarios/sweep-full.toml"),
    include_str!("../scenarios/sweep-smoke.toml"),
];
const SPEC: &[u8] = include_bytes!("../specs/recovery-protocol.toml");
const ALLOW: &[u8] = include_bytes!("../lint-allow.toml");
/// The lexer's own source.
const LEXER: &[u8] = include_bytes!("../vendor/synlite/src/lib.rs");

fn scenarios() -> Vec<Vec<u8>> {
    SCENARIOS.iter().map(|s| s.as_bytes().to_vec()).collect()
}

/// A recording under a narrowed gate, and the empty schedule.
fn traces() -> Vec<Vec<u8>> {
    let gate = GateCfg {
        window_start: SimTime::from_millis(700),
        window_end: SimTime::from_millis(4_500),
        max_steps: 12,
        slack: SimDuration::from_micros(50),
    };
    let decision = |step| Decision {
        step,
        at_ns: 700_000_000 + step * 9_973,
        n: 2 + step % 7,
        chosen: step % 2,
    };
    let recorded = DecisionTrace {
        gate,
        decisions: (0..6).map(decision).collect(),
    };
    let traces = [recorded, DecisionTrace::empty(GateCfg::default())];
    traces.iter().map(|t| t.to_jsonl().into_bytes()).collect()
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The relation `mead-repro lint --conflict-report` derives for this
/// tree, without its trailing newline (every strict prefix of the object
/// is refused).
fn relation() -> Vec<Vec<u8>> {
    let root = workspace_root();
    let sources = lint::collect_sources(root).expect("workspace sources");
    let contract = lint::load_spec(root, &Contract::default()).expect("spec loads");
    let ws = lint::Workspace::parse(&sources).expect("workspace parses");
    let json = lint::conflict_report(&ws, &contract).expect("conflict report renders");
    vec![json.trim_end().as_bytes().to_vec()]
}

// ------------------------------------------- cases the mutants seldom hit

/// The sweep's semantic layer refuses what parses as TOML but is not a
/// sweep, with a typed error at a line of the input.
#[test]
fn the_sweep_schema_refuses_at_a_line_of_the_input() {
    let smoke = SCENARIOS[2];
    let cases = [
        (
            r#"["mead_failover"]"#,
            r#"["mead_failover", "bogus"]"#,
            "unknown scheme \"bogus\"",
        ),
        (
            r#"["mead_failover"]"#,
            r#"["mead_failover", "mead_failover"]"#,
            "duplicate scheme",
        ),
        (r#""zoo""#, r#""classic""#, "duplicate mix name"),
        ("slots = 3", "slots = 0", "slots must be at least 1"),
        ("rm_instances = 2", "rm_instances = 0", "must be at least 1"),
    ];
    for (from, to, want) in cases {
        let edited = smoke.replacen(from, to, 1);
        let got = toml(edited.as_bytes(), experiments::parse_sweep).expect_err(to);
        assert!(got.contains(want), "{to}: {got}");
    }
}

/// Records of small numbers under a good header, so that in-range,
/// out-of-range, gapped, repeated and swapped records all occur: a trace
/// parses exactly when replay can apply it as written.
#[test]
fn a_trace_parses_exactly_when_it_replays() {
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let mut draw = |below: u64| rng.gen_range(0..below);
    for _ in 0..2_000 {
        let records: Vec<(u64, u64, u64)> = (0..draw(4))
            .map(|_| (draw(4), draw(11), draw(11)))
            .collect();
        let mut text = DecisionTrace::empty(GateCfg::default()).to_jsonl();
        for (step, n, chosen) in &records {
            let record = format!("{{\"step\":{step},\"at_ns\":7,\"n\":{n},\"chosen\":{chosen}}}");
            text.push_str(&record);
            text.push('\n');
        }
        let replayable = records.iter().enumerate().all(|(i, &(step, n, chosen))| {
            step == i as u64 && (2..=MAX_CANDIDATES as u64).contains(&n) && chosen < n
        });
        assert_eq!(trace_parse(text.as_bytes()).is_ok(), replayable, "{text}");
    }
}

/// The largest count `read_count` admits, in a frame as long as the
/// splitters let through (1 MiB), reserves less than the frame: that
/// count at each of the six sequence decoders, whose first element then
/// fails to decode. The rest, an error message or a group name, is within
/// a binary row's fixed term.
#[test]
fn the_largest_admissible_count_reserves_less_than_its_input() {
    // The decoder, what it reads before the count, and the fewest wire
    // bytes one element takes.
    type Head = fn(&mut CdrWriter);
    let sites: [(Decode, Head, usize); 6] = [
        (|b| ok(Ior::decode(b)), |w| w.write_string("IDL:x:1.0"), 8),
        (|b| ok(orb::decode_list_reply(b)), |_| {}, 9),
        (
            |b| ok(GcsWire::decode(b)),
            |w| {
                w.write_u8(5);
                w.write_string("g");
                w.write_u64(9);
            },
            5,
        ),
        (
            |b| ok(GcsWire::decode(b)),
            |w| {
                w.write_u8(11);
                w.write_u64(5);
                w.write_string("g");
                w.write_u64(10);
            },
            5,
        ),
        (|b| ok(GroupMsg::decode(b)), |w| w.write_u8(3), 12),
        (
            |b| ok(GroupMsg::decode(b)),
            |w| {
                w.write_u8(7);
                w.write_u16(20_007);
            },
            9,
        ),
    ];
    for (decode, head, min_wire_bytes) in sites {
        let mut w = CdrWriter::new(Endian::Big);
        head(&mut w);
        w.write_count(0);
        let mut input = w.into_vec();
        let count = (MAX_FRAME_LEN - input.len()) / min_wire_bytes;
        let at = input.len() - 4;
        input[at..].copy_from_slice(&(count as u32).to_be_bytes());
        input.resize(MAX_FRAME_LEN, 0);
        let (decoded, t) = tally(|| decode(&input));
        assert!(decoded.is_err(), "{:02x?}", &input[..at + 4]);
        assert!(
            t.largest < input.len() && t.bytes < BINARY.0 + input.len(),
            "a count of {count} in {} B allocated {} B in all, {} B at once",
            input.len(),
            t.bytes,
            t.largest
        );
    }
}

/// A header declaring more than the splitter's bound is refused as soon
/// as the header is in, however it arrives; the bound itself is only an
/// incomplete frame.
#[test]
fn oversized_declared_lengths_are_refused_once_the_header_is_in() {
    for chunk in 1..=5 {
        for declared in [MAX_FRAME_LEN as u32 + 1, u32::MAX] {
            let mut stream = b"GIOP\x01\x00\x00\x00".to_vec();
            stream.extend_from_slice(&declared.to_be_bytes());
            stream.extend_from_slice(&[0; 9]);
            let mut s = FrameSplitter::new();
            for (i, piece) in stream.chunks(chunk).enumerate() {
                s.push(piece);
                let want = if (i + 1) * chunk < HEADER_LEN {
                    Ok(None)
                } else {
                    Err(GiopError::FrameTooLarge(declared as usize))
                };
                assert_eq!(s.next_frame().map(|f| f.map(|f| f.bytes)), want);
            }
            assert_eq!(s.buffered(), stream.len(), "nothing is thrown away");
        }
        for declared in [MAX_FRAME + 1, u32::MAX] {
            let mut s = GcsSplitter::new();
            for (i, piece) in declared.to_be_bytes().chunks(chunk).enumerate() {
                s.push(piece);
                let want = if (i + 1) * chunk < 4 {
                    Ok(None)
                } else {
                    Err(CodecError::Oversize(declared))
                };
                assert_eq!(s.next_message(), want);
            }
        }
    }
    let mut at_limit = FrameSplitter::new();
    at_limit.push(b"MEAD\x01\x00\x00\x01");
    at_limit.push(&(MAX_FRAME_LEN as u32).to_be_bytes());
    assert_eq!(at_limit.next_frame().map(|f| f.is_none()), Ok(true));
    let mut at_limit = GcsSplitter::new();
    at_limit.push(&MAX_FRAME.to_be_bytes());
    assert_eq!(at_limit.next_message(), Ok(None));
}

/// The nesting caps are exact, and a million unclosed levels are a typed
/// error at the first level past the cap, not a stack overflow.
#[test]
fn nesting_caps_are_exact() {
    let nested = |open: &str, close: &str, levels: usize| {
        format!("x = {}1{}", open.repeat(levels), close.repeat(levels))
    };
    let cap = tomlite::MAX_NESTING as usize;
    assert!(tomlite::parse(&nested("[", "]", cap)).is_ok());
    let deeper = format!("arrays nested deeper than {cap}");
    for src in [
        nested("[", "]", cap + 1),
        format!("x = {}", "[".repeat(200_000)),
    ] {
        assert_eq!(tomlite::parse(&src).expect_err("too deep").msg, deeper);
    }

    let cap = synlite::MAX_NESTING;
    let deeper = format!("nesting deeper than {cap}");
    for (open, close) in [("(", ")"), ("[", "]"), ("{", "}")] {
        let levels = cap as usize;
        assert_eq!(
            synlite::parse_file(&nested(open, close, levels)).map(|t| t.len()),
            Ok(3)
        );
        for src in [nested(open, close, levels + 1), open.repeat(1_000_000)] {
            let e = synlite::parse_file(&src).expect_err("too deep");
            assert_eq!(e.message, deeper);
            let prefix = if src.starts_with('x') { 4 } else { 0 };
            assert_eq!(
                e.span,
                Span {
                    line: 1,
                    col: prefix + cap + 1
                }
            );
        }
    }
}

// ---------------------------------------------- encode-path allocations

fn request(body: Vec<u8>) -> RequestMessage {
    RequestMessage {
        request_id: 42,
        response_expected: true,
        object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        operation: "time_of_day".into(),
        body,
    }
}

/// The bytes an encode may request beyond the message it returns: the
/// room a request's size hint leaves for padding it did not need (under
/// 36 bytes) and the shared count `Bytes` allocates beside the buffer.
const ENCODE_SLACK: usize = 64;

/// A message lives in one heap buffer from encoder to decoder: encoding
/// allocates the writer's storage and the shared count that freezes it,
/// requesting about the message's length and no second copy, and
/// nothing that only reads the message allocates at all. A `to_vec()`
/// that creeps back costs host time on every simulated invocation
/// without failing a functional test.
#[test]
fn a_message_is_one_buffer_from_encoder_to_decoder() {
    for body_len in [0, 16, 1000] {
        let req = request(vec![7; body_len]);
        let key = req.object_key.as_bytes();
        let (borrowed, t) =
            tally(|| encode_request(42, true, key, &req.operation, &req.body, Endian::Big));
        assert!(t.calls <= 2, "encode_request({body_len} B body): {t:?}");
        assert!(t.bytes <= borrowed.len() + ENCODE_SLACK, "{t:?}");
        let msg = Message::Request(req.clone());
        let (owned, t) = tally(|| msg.encode(Endian::Little));
        assert!(t.calls <= 2 && owned.len() == borrowed.len(), "{t:?}");
        assert!(t.bytes <= owned.len() + ENCODE_SLACK, "{t:?}");
        let body = ReplyBody::NoException(vec![7; body_len]);
        let reply = Message::Reply(ReplyMessage {
            request_id: 42,
            body,
        });
        let (frame, t) = tally(|| reply.encode(Endian::Big));
        assert!(t.calls <= 2, "Message::encode(reply, {body_len} B): {t:?}");
        assert!(t.bytes <= frame.len() + ENCODE_SLACK, "{t:?}");
    }

    let wire = Message::Request(request(vec![7; 16])).encode(Endian::Big);
    let (view, t) = tally(|| MessageView::parse(&wire));
    assert_eq!(t.calls, 0, "parsing a RequestView");
    match view {
        Ok(MessageView::Request(req)) => {
            assert_eq!((req.operation, req.body), ("time_of_day", &[7; 16][..]));
        }
        other => panic!("expected a request, got {other:?}"),
    }
    let replies = [
        ReplyBody::NoException(vec![7; 16]),
        ReplyBody::UserException("IDL:App/Oops:1.0".into()),
        ReplyBody::SystemException {
            repo_id: giop::EX_TRANSIENT.into(),
            minor: 1,
            completed: 1,
        },
        ReplyBody::NeedsAddressingMode(0),
    ];
    for body in replies {
        let frame = Message::Reply(ReplyMessage {
            request_id: 42,
            body,
        })
        .encode(Endian::Big);
        let (view, t) = tally(|| MessageView::parse(&frame));
        assert_eq!(t.calls, 0, "parsing a ReplyView of {frame:?}");
        assert!(matches!(
            view,
            Ok(MessageView::Reply(rep)) if !matches!(rep.body, ReplyBodyView::LocationForward(_))
        ));
    }
    // The owned decoder pays for its fields (key, operation, body) only.
    let (owned, t) = tally(|| Message::decode(&wire));
    assert!(owned.is_ok() && (1..=3).contains(&t.calls), "{t:?}");

    let mut splitter = FrameSplitter::new();
    for _ in 0..3 {
        let segment = wire.clone();
        let (frame, t) = tally(|| {
            splitter.push_bytes(segment);
            splitter.next_frame()
        });
        assert_eq!(t.calls, 0, "push_bytes + next_frame");
        assert_eq!(frame.map(|f| f.map(|f| f.bytes)), Ok(Some(wire.clone())));
        assert_eq!(splitter.buffered(), 0);
    }

    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let ior = Ior::singleton("IDL:TimeOfDay:1.0", "node1", 2810, key.clone()).encode();
    let (valid, t) = tally(|| Ior::validate(&ior));
    assert_eq!((valid, t.calls), (Ok(()), 0), "Ior::validate");
    let (copy, t) = tally(|| key.clone());
    assert_eq!((copy == key, t.calls), (true, 0), "ObjectKey::clone");
}

// -------------------------------------------------- lint's allocations

/// Tokens borrow the source, so lexing allocates per group, never per
/// identifier or literal: 10 000 flat tokens cost the doublings of one
/// `Vec`, with slack.
#[test]
fn lexing_allocates_nothing_per_identifier_or_literal() {
    let idents: String = (0..10_000).map(|i| format!("name_{i} ")).collect();
    let literals: String = (0..10_000).map(|i| format!("\"s{i}\" ")).collect();
    for (what, src) in [("identifiers", idents), ("string literals", literals)] {
        let (trees, t) = tally(|| synlite::parse_file(&src).map(|t| t.len()));
        assert_eq!(trees, Ok(10_000));
        assert!(t.calls <= 32, "lexing 10 000 flat {what}: {t:?}");
    }
}

/// Allocations one full lint pass may make per KiB of source: 10 % above
/// the 107.8 measured when the borrowed front-end landed (the
/// `String`-owning one made 517 per KiB).
const PASS_BUDGET_PER_KIB: u64 = 118;

#[test]
fn a_full_lint_pass_stays_within_its_allocation_budget() {
    let root = workspace_root();
    let sources = lint::collect_sources(root).expect("workspace sources");
    let contract = lint::load_spec(root, &Contract::default()).expect("spec loads");
    let allow = lint::load_allow(&root.join("lint-allow.toml")).expect("allowlist");
    let kib = (sources.iter().map(|(_, src)| src.len()).sum::<usize>() as u64).div_ceil(1024);
    let (report, t) = tally(|| lint::lint_files(&sources, &contract, &allow));
    let report = report.expect("the workspace lints");
    assert!(report.findings.is_empty() && report.stale_allows.is_empty());
    assert!(
        t.calls <= PASS_BUDGET_PER_KIB * kib,
        "a full pass over {kib} KiB made {} allocations per KiB, budget {PASS_BUDGET_PER_KIB}",
        t.calls / kib
    );
}

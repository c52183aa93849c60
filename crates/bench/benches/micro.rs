//! Micro-benchmarks of the protocol substrates: CDR marshalling, GIOP
//! framing and parsing, object-key hashing (the section 4.1 optimisation),
//! and the MEAD piggyback format.
//!
//! The GIOP parse/scan pair quantifies the mechanism behind Table 1's
//! overhead column: the LOCATION_FORWARD scheme pays a full parse per
//! message, the MEAD scheme only a frame scan.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use bytes::Bytes;
use giop::{
    CdrReader, CdrWriter, Endian, FrameSplitter, Ior, Message, ObjectKey, ReplyBody, ReplyMessage,
    RequestMessage,
};
use mead::FailoverNotice;
use simnet::RecvQueue;

fn sample_request() -> Message {
    Message::Request(RequestMessage {
        request_id: 42,
        response_expected: true,
        object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        operation: "time_of_day".into(),
        body: vec![0u8; 16],
    })
}

fn sample_reply() -> Message {
    Message::Reply(ReplyMessage {
        request_id: 42,
        body: ReplyBody::NoException(vec![0u8; 16]),
    })
}

fn bench_cdr(c: &mut Criterion) {
    c.bench_function("cdr/encode_mixed", |b| {
        b.iter(|| {
            let mut w = CdrWriter::new(Endian::Big);
            w.write_u32(black_box(7));
            w.write_u64(black_box(1234567));
            w.write_string(black_box("time_of_day"));
            w.write_octets(black_box(&[0u8; 52]));
            w.finish()
        })
    });
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u32(7);
    w.write_u64(1234567);
    w.write_string("time_of_day");
    w.write_octets(&[0u8; 52]);
    let buf = w.finish();
    c.bench_function("cdr/decode_mixed", |b| {
        b.iter(|| {
            let mut r = CdrReader::new(black_box(&buf), Endian::Big);
            black_box(r.read_u32().unwrap());
            black_box(r.read_u64().unwrap());
            black_box(r.read_string().unwrap());
            black_box(r.read_octets().unwrap());
        })
    });
}

fn bench_giop(c: &mut Criterion) {
    let req = sample_request();
    let rep = sample_reply();
    c.bench_function("giop/encode_request", |b| {
        b.iter(|| req.encode(Endian::Big))
    });
    let wire_req = req.encode(Endian::Big);
    let wire_rep = rep.encode(Endian::Big);
    // The LOCATION_FORWARD scheme's per-message work: full decode.
    c.bench_function("giop/parse_request_full", |b| {
        b.iter(|| Message::decode(black_box(&wire_req)).unwrap())
    });
    // The MEAD scheme's per-message work: header-only frame scan.
    c.bench_function("giop/frame_scan_only", |b| {
        b.iter(|| {
            let mut s = FrameSplitter::new();
            s.push(black_box(&wire_rep));
            s.next_frame().unwrap().unwrap()
        })
    });
}

fn bench_object_key(c: &mut Criterion) {
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let other = ObjectKey::persistent("TimePOA", "TimeOfDay");
    // Section 4.1: "a 16-bit hash of the object key ... as opposed to a
    // byte-by-byte comparison of the object key (typically 52 bytes)".
    c.bench_function("object_key/hash16", |b| b.iter(|| black_box(&key).hash16()));
    c.bench_function("object_key/bytewise_compare", |b| {
        b.iter(|| black_box(&key) == black_box(&other))
    });
    let hash = other.hash16();
    c.bench_function("object_key/hash_compare", |b| {
        b.iter(|| black_box(&key).hash16() == black_box(hash))
    });
}

fn bench_ior_and_notice(c: &mut Criterion) {
    let ior = Ior::singleton(
        "IDL:TimeOfDay:1.0",
        "node2",
        20001,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    );
    c.bench_function("ior/encode", |b| b.iter(|| black_box(&ior).encode()));
    let bytes = ior.encode();
    c.bench_function("ior/decode", |b| {
        b.iter(|| Ior::decode(black_box(&bytes)).unwrap())
    });
    let notice = FailoverNotice::new("node2", 20001, "replica/0/7");
    c.bench_function("mead/failover_notice_encode", |b| {
        b.iter(|| notice.encode())
    });
    let wire = notice.encode();
    c.bench_function("mead/failover_notice_decode", |b| {
        b.iter(|| {
            let mut s = FrameSplitter::new();
            s.push(black_box(&wire));
            FailoverNotice::decode(&s.next_frame().unwrap().unwrap()).unwrap()
        })
    });
}

fn bench_weibull(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let w = faults::Weibull::paper_leak();
    let mut rng = StdRng::seed_from_u64(7);
    c.bench_function("faults/weibull_sample", |b| b.iter(|| w.sample(&mut rng)));
}

/// The kernel's receive hot path — deliver a segment, then serve the
/// application's `read(usize::MAX)` — at the two payload sizes that
/// bracket the workload: a GIOP reply (~1 KB) and a bulk checkpoint
/// (~64 KB). The byte-queue variant is the pre-optimisation
/// implementation kept for comparison.
fn bench_recv_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("recv_path");
    for size in [1usize << 10, 64 << 10] {
        let payload = Bytes::from(vec![0xABu8; size]);
        group.bench_with_input(
            BenchmarkId::new("deliver_read_segmented", size),
            &payload,
            |b, payload| {
                b.iter(|| {
                    let mut q = RecvQueue::new();
                    q.push(payload.clone());
                    black_box(q.read(usize::MAX))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("deliver_read_byte_queue", size),
            &payload,
            |b, payload| {
                b.iter(|| {
                    let mut q = std::collections::VecDeque::new();
                    for &byte in payload.iter() {
                        q.push_back(byte);
                    }
                    let taken: Vec<u8> = q.drain(..).collect();
                    black_box(Bytes::from(taken))
                })
            },
        );
        // Partial reads: the interceptor occasionally reads mid-frame.
        group.bench_with_input(
            BenchmarkId::new("deliver_then_chunked_reads", size),
            &payload,
            |b, payload| {
                b.iter(|| {
                    let mut q = RecvQueue::new();
                    q.push(payload.clone());
                    while !q.is_empty() {
                        black_box(q.read(256));
                    }
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cdr,
    bench_giop,
    bench_object_key,
    bench_ior_and_notice,
    bench_weibull,
    bench_recv_path
);
criterion_main!(benches);

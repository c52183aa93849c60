//! Allocation budget of the GIOP message path.
//!
//! A message is meant to live in one heap buffer from encoder to decoder:
//! encoding allocates that buffer (the writer's storage, then the
//! reference-counted buffer it is frozen into — two calls), and nothing
//! that only reads the message allocates at all. Each `to_vec()` that
//! creeps back in costs host time on every simulated invocation without
//! failing any functional test, so the counts are pinned here.
//!
//! The counting allocator lives in this test binary only (nothing else in
//! the workspace swaps its allocator) and counts per thread, so the
//! harness running other tests in parallel does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use giop::{
    encode_request, CdrError, CdrWriter, Endian, FrameSplitter, Ior, Message, MessageView,
    ObjectKey, ReplyBody, ReplyBodyView, ReplyMessage, RequestMessage,
};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn book(size: usize) {
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocator calls (a `realloc`
/// counts as one) this thread made meanwhile.
fn count<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the size of the largest single
/// allocation this thread requested meanwhile.
fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn request(body: Vec<u8>) -> RequestMessage {
    RequestMessage {
        request_id: 42,
        response_expected: true,
        object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        operation: "time_of_day".into(),
        body,
    }
}

#[test]
fn encoding_a_message_allocates_its_one_buffer() {
    for body_len in [0, 16, 1000] {
        let req = request(vec![7; body_len]);
        let (borrowed, allocs) = count(|| {
            encode_request(
                req.request_id,
                req.response_expected,
                req.object_key.as_bytes(),
                &req.operation,
                &req.body,
                Endian::Big,
            )
        });
        assert!(allocs <= 2, "encode_request({body_len} B body): {allocs}");
        let msg = Message::Request(req);
        let (owned, allocs) = count(|| msg.encode(Endian::Little));
        assert!(allocs <= 2, "Message::encode(request): {allocs}");
        assert_eq!(owned.len(), borrowed.len());

        let reply = Message::Reply(ReplyMessage {
            request_id: 42,
            body: ReplyBody::NoException(vec![7; body_len]),
        });
        let (_, allocs) = count(|| reply.encode(Endian::Big));
        assert!(
            allocs <= 2,
            "Message::encode(reply, {body_len} B): {allocs}"
        );
    }
}

#[test]
fn reading_a_message_in_place_allocates_nothing() {
    let wire_request = Message::Request(request(vec![7; 16])).encode(Endian::Big);
    let (view, allocs) = count(|| MessageView::parse(&wire_request));
    assert_eq!(allocs, 0, "parsing a RequestView");
    match view.expect("well-formed") {
        MessageView::Request(req) => {
            assert_eq!(req.operation, "time_of_day");
            assert_eq!(req.body, [7; 16]);
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
        let wire = Message::Reply(ReplyMessage {
            request_id: 42,
            body,
        })
        .encode(Endian::Big);
        let (view, allocs) = count(|| MessageView::parse(&wire));
        assert_eq!(allocs, 0, "parsing a ReplyView of {wire:?}");
        assert!(matches!(
            view.expect("well-formed"),
            MessageView::Reply(rep) if !matches!(rep.body, ReplyBodyView::LocationForward(_))
        ));
    }

    // The owned decoder pays for its fields (key, operation, body) and
    // for nothing else.
    let (owned, allocs) = count(|| Message::decode(&wire_request));
    assert!(
        (1..=3).contains(&allocs),
        "Message::decode(request): {allocs}"
    );
    assert!(owned.is_ok());
}

#[test]
fn splitting_a_whole_frame_segment_allocates_nothing() {
    let wire = Message::Request(request(vec![7; 16])).encode(Endian::Big);
    let mut splitter = FrameSplitter::new();
    for _ in 0..3 {
        let segment = wire.clone();
        let (frame, allocs) = count(|| {
            splitter.push_bytes(segment);
            splitter.next_frame()
        });
        assert_eq!(allocs, 0, "push_bytes + next_frame");
        assert_eq!(frame.expect("well-formed").expect("complete").bytes, wire);
        assert_eq!(splitter.buffered(), 0);
    }
}

#[test]
fn validating_an_ior_and_cloning_a_key_allocate_nothing() {
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let wire = Ior::singleton("IDL:TimeOfDay:1.0", "node1", 2810, key.clone()).encode();
    let (valid, allocs) = count(|| Ior::validate(&wire));
    assert_eq!(allocs, 0, "Ior::validate");
    assert_eq!(valid, Ok(()));
    let (copy, allocs) = count(|| key.clone());
    assert_eq!(allocs, 0, "ObjectKey::clone");
    assert_eq!(copy, key);
}

/// A profile takes at least 8 bytes on the wire but about 50 in memory,
/// so a decoder that reserves room for the declared count can be made to
/// allocate several times the size of its input before failing.
#[test]
fn a_hostile_profile_count_does_not_size_an_allocation() {
    const PROFILES: u32 = 1 << 20;
    let mut w = CdrWriter::new(Endian::Big);
    w.write_string("IDL:x:1.0");
    w.write_u32(PROFILES);
    let mut hostile = w.into_vec();
    // Enough bytes that the count passes the length check; the first
    // profile (tag 0, an empty body) then fails to decode.
    hostile.resize(1_048_600, 0);
    let (decoded, peak) = largest(|| Ior::decode(&hostile));
    assert_eq!(decoded, Err(CdrError::UnexpectedEof { what: "octet" }));
    assert!(
        peak < hostile.len(),
        "decoding {} bytes made a {peak}-byte allocation",
        hostile.len()
    );
}

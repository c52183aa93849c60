//! Unit tests of the client-ORB state machine over the mock syscall
//! context — no simulator, every effect inspected directly.

use giop::{Endian, Ior, Message, ObjectKey, ReplyBody, ReplyMessage};
use orb::{ClientOrb, Completed, OrbUpshot, SystemException, FORWARD_HOP_LIMIT};
use simnet::testkit::MockSys;
use simnet::{Event, NodeId};

fn ior(host: &str, port: u16, obj: &str) -> Ior {
    Ior::singleton("IDL:T:1.0", host, port, ObjectKey::persistent("P", obj))
}

fn orb() -> ClientOrb {
    ClientOrb::new()
}

fn reply_bytes(request_id: u32, body: ReplyBody) -> Vec<u8> {
    Message::Reply(ReplyMessage { request_id, body })
        .encode(Endian::Big)
        .to_vec()
}

/// Drives connect + establishment; returns the connection.
fn establish(
    orb: &mut ClientOrb,
    sys: &mut MockSys,
    target: &Ior,
    op: &str,
) -> (u32, simnet::ConnId) {
    let rid = orb.invoke(sys, target, op, &[]).expect("valid ior");
    let (conn, _) = *sys.connected().last().expect("connected");
    let upshots = orb
        .handle_event(sys, &Event::ConnEstablished { conn })
        .expect("orb event");
    assert!(upshots.is_empty());
    (rid, conn)
}

#[test]
fn invoke_writes_request_after_establishment() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "TimeOfDay");
    let rid = orb
        .invoke(&mut sys, &target, "time_of_day", &[7])
        .expect("valid");
    let (conn, addr) = sys.connected()[0];
    assert_eq!(addr.node.index(), 1);
    assert_eq!(addr.port.0, 20000);
    // Nothing written while the handshake is pending.
    assert!(sys.written(conn).is_empty());
    orb.handle_event(&mut sys, &Event::ConnEstablished { conn })
        .expect("orb event");
    let wire = sys.written(conn).to_vec();
    match Message::decode(&wire).expect("request on the wire") {
        Message::Request(req) => {
            assert_eq!(req.request_id, rid);
            assert_eq!(req.operation, "time_of_day");
            assert_eq!(req.body, vec![7]);
            assert!(req.response_expected);
        }
        other => panic!("expected request, got {other:?}"),
    }
}

#[test]
fn pipelined_requests_resolve_out_of_order() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid1, conn) = establish(&mut orb, &mut sys, &target, "a");
    let rid2 = orb.invoke(&mut sys, &target, "b", &[]).expect("valid");
    let rid3 = orb.invoke(&mut sys, &target, "c", &[]).expect("valid");
    assert_eq!(orb.pending_count(), 3);
    // Replies arrive 3, 1, 2.
    let mut stream = Vec::new();
    stream.extend(reply_bytes(rid3, ReplyBody::NoException(vec![3])));
    stream.extend(reply_bytes(rid1, ReplyBody::NoException(vec![1])));
    stream.extend(reply_bytes(rid2, ReplyBody::NoException(vec![2])));
    sys.push_incoming(conn, &stream);
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    let got: Vec<(u32, Vec<u8>)> = upshots
        .into_iter()
        .map(|u| match u {
            OrbUpshot::Reply {
                request_id,
                payload,
                ..
            } => (request_id, payload),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(got, vec![(rid3, vec![3]), (rid1, vec![1]), (rid2, vec![2])]);
    assert_eq!(orb.pending_count(), 0);
}

#[test]
fn location_forward_reopens_and_resends() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    sys.clear_written(conn);
    // Server forwards to node2:30000.
    let fwd = ior("node2", 30000, "X");
    sys.push_incoming(conn, &reply_bytes(rid, ReplyBody::LocationForward(fwd)));
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    assert!(matches!(upshots[0], OrbUpshot::Forwarded { request_id, .. } if request_id == rid));
    // A new connection to the forwarded address is opened...
    let (new_conn, new_addr) = *sys.connected().last().expect("reconnected");
    assert_ne!(new_conn, conn);
    assert_eq!(new_addr.node.index(), 2);
    assert_eq!(new_addr.port.0, 30000);
    // ...and the request is retransmitted once it establishes.
    orb.handle_event(&mut sys, &Event::ConnEstablished { conn: new_conn })
        .expect("orb event");
    match Message::decode(sys.written(new_conn)).expect("resent") {
        Message::Request(req) => assert_eq!(req.request_id, rid),
        other => panic!("expected request, got {other:?}"),
    }
    // Completing on the new connection resolves the original invocation.
    sys.push_incoming(new_conn, &reply_bytes(rid, ReplyBody::NoException(vec![9])));
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn: new_conn })
        .expect("orb event");
    assert!(matches!(
        &upshots[0],
        OrbUpshot::Reply { request_id, payload, .. } if *request_id == rid && payload == &vec![9]
    ));
}

#[test]
fn needs_addressing_resends_on_same_connection() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    sys.clear_written(conn);
    sys.push_incoming(conn, &reply_bytes(rid, ReplyBody::NeedsAddressingMode(0)));
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    assert!(matches!(upshots[0], OrbUpshot::Resent { request_id } if request_id == rid));
    // No new connection; the retransmission used the same one.
    assert_eq!(sys.connected().len(), 1);
    match Message::decode(sys.written(conn)).expect("resent") {
        Message::Request(req) => assert_eq!(req.request_id, rid),
        other => panic!("expected request, got {other:?}"),
    }
}

#[test]
fn peer_close_with_pending_raises_comm_failure() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    let upshots = orb
        .handle_event(&mut sys, &Event::PeerClosed { conn })
        .expect("orb event");
    match &upshots[0] {
        OrbUpshot::Exception { request_id, ex, .. } => {
            assert_eq!(*request_id, rid);
            assert!(ex.is_comm_failure());
        }
        other => panic!("expected exception, got {other:?}"),
    }
    assert_eq!(orb.pending_count(), 0);
}

#[test]
fn corrupt_stream_fails_pending_and_closes_the_connection() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    // Nothing behind these bytes can ever be framed again: the request
    // must not be left waiting for a reply that cannot be read.
    sys.push_incoming(conn, b"THIS IS NOT GIOP AT ALL....");
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    match &upshots[..] {
        [OrbUpshot::Exception { request_id, ex, .. }] => {
            assert_eq!(*request_id, rid);
            assert!(ex.is_comm_failure());
        }
        other => panic!("expected one COMM_FAILURE, got {other:?}"),
    }
    assert_eq!(sys.counter("orb.protocol_error"), 1);
    assert!(sys.is_closed(conn), "desynchronised stream must be closed");
    assert_eq!(orb.pending_count(), 0);
}

#[test]
fn idle_peer_close_is_discovered_at_next_use() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    sys.push_incoming(conn, &reply_bytes(rid, ReplyBody::NoException(vec![])));
    orb.handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    // Idle EOF: no upshot now...
    let upshots = orb
        .handle_event(&mut sys, &Event::PeerClosed { conn })
        .expect("orb event");
    assert!(
        upshots.is_empty(),
        "idle EOF must be silent, got {upshots:?}"
    );
    // ...but the next invoke discovers the dead connection synchronously.
    let err = orb
        .invoke(&mut sys, &target, "op2", &[])
        .expect_err("dead conn");
    assert!(err.is_comm_failure());
    // And the one after that opens a fresh connection.
    orb.invoke(&mut sys, &target, "op3", &[])
        .expect("fresh connect");
    assert_eq!(sys.connected().len(), 2);
}

#[test]
fn refused_connection_raises_transient() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let rid = orb.invoke(&mut sys, &target, "op", &[]).expect("valid");
    let (conn, _) = sys.connected()[0];
    let upshots = orb
        .handle_event(&mut sys, &Event::ConnRefused { conn })
        .expect("orb event");
    match &upshots[0] {
        OrbUpshot::Exception { request_id, ex, .. } => {
            assert_eq!(*request_id, rid);
            assert!(ex.is_transient());
        }
        other => panic!("expected TRANSIENT, got {other:?}"),
    }
}

#[test]
fn user_and_system_exceptions_surface() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    sys.push_incoming(
        conn,
        &reply_bytes(rid, ReplyBody::UserException("IDL:App/E:1.0".into())),
    );
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    match &upshots[0] {
        OrbUpshot::Exception { ex, .. } => assert_eq!(ex.repo_id(), "IDL:App/E:1.0"),
        other => panic!("unexpected {other:?}"),
    }
    let rid2 = orb.invoke(&mut sys, &target, "op", &[]).expect("valid");
    sys.push_incoming(
        conn,
        &reply_bytes(
            rid2,
            SystemException::ObjectNotExist {
                completed: Completed::No,
            }
            .to_reply_body(),
        ),
    );
    let upshots = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    match &upshots[0] {
        OrbUpshot::Exception { ex, .. } => {
            assert!(matches!(ex, SystemException::ObjectNotExist { .. }))
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn malformed_ior_is_rejected_synchronously() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let bad = Ior {
        type_id: "IDL:T:1.0".into(),
        profiles: vec![],
    };
    let err = orb
        .invoke(&mut sys, &bad, "op", &[])
        .expect_err("no profile");
    assert!(matches!(err, SystemException::ObjectNotExist { .. }));
    assert_eq!(orb.pending_count(), 0);
}

#[test]
fn forward_hop_limit_terminates_loops() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, mut conn) = establish(&mut orb, &mut sys, &target, "op");
    for hop in 0..=FORWARD_HOP_LIMIT {
        let next = ior(&format!("node{}", 2 + hop), 30000 + hop as u16, "X");
        sys.push_incoming(conn, &reply_bytes(rid, ReplyBody::LocationForward(next)));
        let upshots = orb
            .handle_event(&mut sys, &Event::DataReadable { conn })
            .expect("orb event");
        match &upshots[0] {
            OrbUpshot::Forwarded { .. } => {
                let (new_conn, _) = *sys.connected().last().expect("reconnect");
                orb.handle_event(&mut sys, &Event::ConnEstablished { conn: new_conn })
                    .expect("orb event");
                conn = new_conn;
            }
            OrbUpshot::Exception { ex, .. } => {
                assert!(ex.is_transient(), "loop must end in TRANSIENT");
                assert_eq!(hop, FORWARD_HOP_LIMIT, "one forward past the limit");
                return;
            }
            other => panic!("unexpected {other:?}"),
        }
    }
    panic!("forward loop was not cut off");
}

#[test]
fn forget_connection_forces_reconnect() {
    let mut sys = MockSys::new(NodeId::from_index(4));
    let mut orb = orb();
    let target = ior("node1", 20000, "X");
    let (rid, conn) = establish(&mut orb, &mut sys, &target, "op");
    sys.push_incoming(conn, &reply_bytes(rid, ReplyBody::NoException(vec![])));
    orb.handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    let addr = sys.conn_addr(conn).expect("addr");
    orb.forget_connection(&mut sys, addr);
    assert!(sys.is_closed(conn));
    orb.invoke(&mut sys, &target, "op", &[]).expect("valid");
    assert_eq!(
        sys.connected().len(),
        2,
        "a fresh connection must be opened"
    );
}

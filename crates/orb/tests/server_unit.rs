//! Unit tests of the server-ORB dispatch machinery over the mock context.

use giop::{Endian, Message, ObjectKey, ReplyBody, RequestMessage};
use orb::{Completed, Servant, ServerOrb, SystemException, TimeOfDayServant};
use simnet::testkit::MockSys;
use simnet::{Event, NodeId, Port, SimDuration, SysApi};

fn request(rid: u32, key: &ObjectKey, op: &str, expect_reply: bool) -> Vec<u8> {
    Message::Request(RequestMessage {
        request_id: rid,
        response_expected: expect_reply,
        object_key: key.clone(),
        operation: op.into(),
        body: Vec::new(),
    })
    .encode(Endian::Big)
    .to_vec()
}

fn decode_reply(bytes: &[u8]) -> (u32, ReplyBody) {
    match Message::decode(bytes).expect("reply decodes") {
        Message::Reply(rep) => (rep.request_id, rep.body),
        other => panic!("expected reply, got {other:?}"),
    }
}

fn start_server(sys: &mut MockSys) -> (ServerOrb, simnet::ListenerId) {
    let mut orb = ServerOrb::new(
        Port(2810),
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
        Box::new(TimeOfDayServant),
    );
    orb.start(sys);
    let (listener, port) = sys.listeners()[0];
    assert_eq!(port, Port(2810));
    (orb, listener)
}

#[test]
fn dispatch_replies_to_known_object() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, listener) = start_server(&mut sys);
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    assert_eq!(orb.connection_count(), 1);
    sys.advance(SimDuration::from_millis(3));
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    sys.push_incoming(conn, &request(5, &key, "time_of_day", true));
    let handled = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    assert_eq!(handled, 1);
    let (rid, body) = decode_reply(sys.written(conn));
    assert_eq!(rid, 5);
    match body {
        ReplyBody::NoException(payload) => {
            assert_eq!(orb::decode_time_reply(&payload).unwrap(), 3_000_000);
        }
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn unknown_object_raises_object_not_exist() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, listener) = start_server(&mut sys);
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    let ghost = ObjectKey::persistent("NoPOA", "Ghost");
    sys.push_incoming(conn, &request(9, &ghost, "anything", true));
    orb.handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    let (rid, body) = decode_reply(sys.written(conn));
    assert_eq!(rid, 9);
    match body {
        ReplyBody::SystemException { repo_id, .. } => {
            assert!(repo_id.contains("OBJECT_NOT_EXIST"), "{repo_id}");
        }
        other => panic!("expected exception, got {other:?}"),
    }
}

#[test]
fn oneway_requests_get_no_reply() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, listener) = start_server(&mut sys);
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    sys.push_incoming(conn, &request(5, &key, "time_of_day", false));
    let handled = orb
        .handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    assert_eq!(handled, 1);
    assert!(sys.written(conn).is_empty(), "oneway must not be answered");
}

#[test]
fn servant_errors_are_marshalled() {
    struct Failing;
    impl Servant for Failing {
        fn invoke(
            &mut self,
            _sys: &mut dyn SysApi,
            _op: &str,
            _body: &[u8],
        ) -> Result<Vec<u8>, SystemException> {
            Err(SystemException::Transient {
                completed: Completed::No,
            })
        }
        fn type_id(&self) -> &str {
            "IDL:F:1.0"
        }
    }
    let mut sys = MockSys::new(NodeId::from_index(1));
    let key = ObjectKey::persistent("P", "F");
    let mut orb = ServerOrb::new(Port(1), key.clone(), Box::new(Failing));
    orb.start(&mut sys);
    let (listener, _) = sys.listeners()[0];
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    sys.push_incoming(conn, &request(1, &key, "x", true));
    orb.handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    let (_, body) = decode_reply(sys.written(conn));
    match body {
        ReplyBody::SystemException { repo_id, .. } => assert!(repo_id.contains("TRANSIENT")),
        other => panic!("expected exception, got {other:?}"),
    }
}

#[test]
fn peer_close_drops_connection_state() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, listener) = start_server(&mut sys);
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    assert_eq!(orb.connection_count(), 1);
    orb.handle_event(&mut sys, &Event::PeerClosed { conn })
        .expect("orb event");
    assert_eq!(orb.connection_count(), 0);
    assert!(sys.is_closed(conn));
}

#[test]
fn events_for_unknown_conns_are_not_consumed() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, _) = start_server(&mut sys);
    let foreign = sys.accept_conn();
    assert!(orb
        .handle_event(&mut sys, &Event::DataReadable { conn: foreign })
        .is_none());
    assert!(orb
        .handle_event(&mut sys, &Event::PeerClosed { conn: foreign })
        .is_none());
}

#[test]
fn corrupt_stream_tears_down_the_connection() {
    let mut sys = MockSys::new(NodeId::from_index(1));
    let (mut orb, listener) = start_server(&mut sys);
    let conn = sys.accept_conn();
    orb.handle_event(
        &mut sys,
        &Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    )
    .expect("accepted");
    sys.push_incoming(conn, b"THIS IS NOT GIOP AT ALL....");
    orb.handle_event(&mut sys, &Event::DataReadable { conn })
        .expect("orb event");
    assert!(sys.is_closed(conn), "desynchronised stream must be closed");
    assert_eq!(sys.protocol_errors(), ["orb.server.protocol_error"]);
}

//! Unit tests of the interceptors' byte-stream surgery over the mock
//! syscall context: frame staging, MEAD-frame stripping, piggybacking,
//! `dup2()` redirects, and EOF suppression — all observed wire-level.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use giop::{
    Endian, FrameKind, FrameSplitter, Message, ObjectKey, ReplyBody, ReplyMessage, RequestMessage,
};
use groupcomm::{GcsWire, GCS_PORT};
use mead::{
    tokens, ClientInterceptor, FailoverNotice, GroupMsg, MeadConfig, RecoveryScheme, ReplicaApp,
    ServerInterceptor,
};
use obs::{EventKind, Phase};
use orb::CounterState;
use simnet::testkit::MockSys;
use simnet::{Addr, ConnId, Event, NodeId, Port, Process, SimDuration, SysApi, TimerId};

/// A scriptable inner application: logs events, executes queued actions
/// when any event arrives.
#[derive(Debug, Default)]
struct AppState {
    log: Vec<String>,
    /// (conn, bytes) writes to perform on the next event.
    write_queue: VecDeque<(ConnId, Vec<u8>)>,
    /// Connect to this address on start.
    connect_on_start: Option<Addr>,
    /// Listen on this port on start.
    listen_on_start: Option<Port>,
    /// Last connection created on start.
    conn: Option<ConnId>,
    /// Bytes read from DataReadable events.
    read_bytes: Vec<u8>,
    read_eof: bool,
}

struct TestApp(Rc<RefCell<AppState>>);

impl Process for TestApp {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let mut st = self.0.borrow_mut();
        if let Some(port) = st.listen_on_start {
            sys.listen(port).expect("listen");
        }
        if let Some(addr) = st.connect_on_start {
            st.conn = Some(sys.connect(addr));
        }
        st.log.push("started".into());
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        let mut st = self.0.borrow_mut();
        st.log.push(format!("{ev:?}"));
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("read");
            st.read_bytes.extend_from_slice(&got.data);
            st.read_eof |= got.eof;
        }
        while let Some((conn, bytes)) = st.write_queue.pop_front() {
            let _ = sys.write(conn, &bytes);
        }
    }
}

fn reply(rid: u32) -> Vec<u8> {
    Message::Reply(ReplyMessage {
        request_id: rid,
        body: ReplyBody::NoException(vec![rid as u8]),
    })
    .encode(Endian::Big)
    .to_vec()
}

fn request(rid: u32) -> Vec<u8> {
    Message::Request(RequestMessage {
        request_id: rid,
        response_expected: true,
        object_key: ObjectKey::persistent("TimePOA", "TimeOfDay"),
        operation: "time_of_day".into(),
        body: Vec::new(),
    })
    .encode(Endian::Big)
    .to_vec()
}

/// Decodes the GCS frames a component wrote to its daemon connection.
fn gcs_frames(bytes: &[u8]) -> Vec<GcsWire> {
    let mut s = groupcomm::GcsSplitter::new();
    s.push(bytes);
    s.drain().expect("well-formed gcs stream")
}

/// The group messages a component multicast to the server group.
fn server_group_msgs(sys: &MockSys, gcs_conn: ConnId) -> Vec<GroupMsg> {
    gcs_frames(sys.written(gcs_conn))
        .into_iter()
        .filter_map(|f| match f {
            GcsWire::Multicast { group, payload } if group == "servers" => {
                GroupMsg::decode(&payload).ok()
            }
            _ => None,
        })
        .collect()
}

/// Feeds a GCS wire message into the interceptor as daemon traffic.
fn feed_gcs(interceptor: &mut dyn Process, sys: &mut MockSys, gcs_conn: ConnId, msg: &GcsWire) {
    sys.push_incoming(gcs_conn, &msg.encode());
    interceptor.on_event(sys, Event::DataReadable { conn: gcs_conn });
}

fn timer_by_token(sys: &MockSys, token: u64) -> TimerId {
    sys.timers()
        .iter()
        .rev()
        .find(|t| t.token == token && !t.cancelled)
        .map(|t| t.timer)
        .expect("timer armed")
}

// ---------------------------------------------------------------------
// Server interceptor
// ---------------------------------------------------------------------

struct ServerRig {
    interceptor: ServerInterceptor,
    sys: MockSys,
    app: Rc<RefCell<AppState>>,
    gcs_conn: ConnId,
    listener: simnet::ListenerId,
}

fn server_rig(scheme: RecoveryScheme) -> ServerRig {
    server_rig_with(MeadConfig::builder(scheme).build(), None)
}

fn server_rig_with(cfg: MeadConfig, state: Option<Rc<CounterState>>) -> ServerRig {
    let app = Rc::new(RefCell::new(AppState {
        listen_on_start: Some(Port(2810)),
        ..AppState::default()
    }));
    let mut interceptor =
        ServerInterceptor::new(cfg, mead::Slot(0), Box::new(TestApp(app.clone())));
    if let Some(state) = state {
        interceptor = interceptor.with_state(state);
    }
    let mut sys = MockSys::new(NodeId::from_index(1));
    interceptor.on_start(&mut sys);
    // First connect is the GCS client reaching the local daemon; complete
    // its handshake so the Attach goes out.
    let (gcs_conn, gcs_addr) = sys.connected()[0];
    assert_eq!(gcs_addr.port, GCS_PORT);
    interceptor.on_event(&mut sys, Event::ConnEstablished { conn: gcs_conn });
    let listener = sys.listeners()[0].0;
    ServerRig {
        interceptor,
        sys,
        app,
        gcs_conn,
        listener,
    }
}

/// Brings the rig's GCS online: attach ack, a view with `members`, and an
/// address advert for the peer replica.
fn bring_group_online(rig: &mut ServerRig, me: &str, other: &str) {
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Attached,
    );
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::View {
            group: "servers".into(),
            view_id: 1,
            members: vec![me.to_string(), other.to_string()],
        },
    );
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Deliver {
            group: "servers".into(),
            sender: other.to_string(),
            payload: GroupMsg::AddrAdvert {
                member: other.to_string(),
                host: "node2".into(),
                port: 30000,
            }
            .encode(),
        },
    );
}

#[test]
fn server_interceptor_joins_group_and_advertises_listen_port() {
    let mut rig = server_rig(RecoveryScheme::MeadFailover);
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Attached,
    );
    let frames = gcs_frames(rig.sys.written(rig.gcs_conn));
    // Attach, then Join("servers"), then the AddrAdvert multicast.
    assert!(matches!(&frames[0], GcsWire::Attach { member } if member.starts_with("replica/0/")));
    assert!(matches!(&frames[1], GcsWire::Join { group } if group == "servers"));
    let advert = frames.iter().find_map(|f| match f {
        GcsWire::Multicast { payload, .. } => GroupMsg::decode(payload).ok(),
        _ => None,
    });
    match advert {
        Some(GroupMsg::AddrAdvert { host, port, .. }) => {
            assert_eq!(host, "node1");
            assert_eq!(port, 2810);
        }
        other => panic!("expected AddrAdvert, got {other:?}"),
    }
}

#[test]
fn server_interceptor_stages_requests_and_passes_replies_through() {
    let mut rig = server_rig(RecoveryScheme::MeadFailover);
    let conn = rig.sys.accept_conn();
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::Accepted {
            listener: rig.listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    );
    // Client request arrives: the app must read it byte-identically.
    let req = request(7);
    rig.sys.push_incoming(conn, &req);
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    assert_eq!(
        rig.app.borrow().read_bytes,
        req,
        "request must pass through unmodified"
    );
    assert_eq!(
        phases(&rig.sys, Phase::LeakDetected),
        1,
        "first request activates the leak"
    );
    // App replies: the reply goes to the wire unmodified (not migrating).
    rig.app.borrow_mut().write_queue.push_back((conn, reply(7)));
    rig.sys.push_incoming(conn, &request(8));
    rig.sys.clear_written(conn);
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    let on_wire = rig.sys.written(conn);
    let mut split = FrameSplitter::new();
    split.push(on_wire);
    let frames = split.drain_frames().expect("frames");
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].kind, FrameKind::Giop);
    assert_eq!(&frames[0].bytes[..], &reply(7)[..]);
}

/// A rig whose group is online with one peer replica, serving one
/// accepted client whose first request has activated the leak.
fn serving_rig(scheme: RecoveryScheme) -> (ServerRig, ConnId) {
    serving_rig_with(MeadConfig::builder(scheme).build(), None)
}

/// The rig's own member name, from its GCS attach.
fn member_of(rig: &ServerRig) -> String {
    match &gcs_frames(rig.sys.written(rig.gcs_conn))[0] {
        GcsWire::Attach { member } => member.clone(),
        other => panic!("expected attach, got {other:?}"),
    }
}

fn serving_rig_with(cfg: MeadConfig, state: Option<Rc<CounterState>>) -> (ServerRig, ConnId) {
    let mut rig = server_rig_with(cfg, state);
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Attached,
    );
    let me_member = member_of(&rig);
    bring_group_online(&mut rig, &me_member, "replica/1/55");
    let conn = rig.sys.accept_conn();
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::Accepted {
            listener: rig.listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    );
    rig.sys.push_incoming(conn, &request(1));
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    (rig, conn)
}

/// Steps the leak by firing its timer, answering one request per step
/// (a reply write is what trips the event-driven threshold check), until
/// `done` holds, the replica exits, or 40 steps have passed. Each step
/// clears what was written to `conn` before.
fn leak_until(rig: &mut ServerRig, conn: ConnId, done: impl Fn(&MockSys) -> bool) {
    for _ in 0..40 {
        if done(&rig.sys) || rig.sys.exit_requested().is_some() {
            break;
        }
        let timer = timer_by_token(&rig.sys, tokens::TOKEN_LEAK);
        rig.interceptor.on_event(
            &mut rig.sys,
            Event::TimerFired {
                timer,
                token: tokens::TOKEN_LEAK,
            },
        );
        answer(rig, conn, 2);
    }
}

/// The app answers with `reply(rid)` as request `rid` arrives; what was
/// written to `conn` before is cleared.
fn answer(rig: &mut ServerRig, conn: ConnId, rid: u32) {
    rig.app
        .borrow_mut()
        .write_queue
        .push_back((conn, reply(rid)));
    rig.sys.clear_written(conn);
    rig.sys.push_incoming(conn, &request(rid));
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
}

#[test]
fn migrating_server_piggybacks_failover_notice_before_reply() {
    let (mut rig, conn) = serving_rig(RecoveryScheme::MeadFailover);
    leak_until(&mut rig, conn, |sys| sys.counter("mead.migrations") > 0);
    assert_eq!(
        rig.sys.counter("mead.migrations"),
        1,
        "migration must fire before exhaustion"
    );
    assert_eq!(rig.sys.counter("mead.piggybacks_sent"), 1);
    // The wire now carries [MEAD notice][GIOP reply].
    let mut split = FrameSplitter::new();
    split.push(rig.sys.written(conn));
    let frames = split.drain_frames().expect("frames");
    assert_eq!(frames.len(), 2, "notice + reply");
    assert_eq!(frames[0].kind, FrameKind::Mead);
    let notice = FailoverNotice::decode(&frames[0]).expect("notice decodes");
    assert_eq!(notice.host, "node2");
    assert_eq!(notice.port, 30000);
    assert_eq!(frames[1].kind, FrameKind::Giop);
    // All clients notified: the drain timer is armed; firing it exits
    // gracefully (rejuvenation).
    let drain = timer_by_token(&rig.sys, tokens::TOKEN_DRAIN);
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: drain,
            token: tokens::TOKEN_DRAIN,
        },
    );
    assert!(matches!(
        rig.sys.exit_requested(),
        Some(simnet::ExitReason::Graceful)
    ));
}

#[test]
fn location_forward_server_replaces_reply_with_forward() {
    let (mut rig, conn) = serving_rig(RecoveryScheme::LocationForward);
    // The peer also advertises the IOR for the shared persistent key.
    let peer_ior = giop::Ior::singleton(
        "IDL:TimeOfDay:1.0",
        "node2",
        30000,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    );
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Deliver {
            group: "servers".into(),
            sender: "replica/1/55".into(),
            payload: GroupMsg::IorAdvert {
                member: "replica/1/55".into(),
                ior: peer_ior,
            }
            .encode(),
        },
    );
    leak_until(&mut rig, conn, |sys| sys.counter("mead.migrations") > 0);
    assert_eq!(rig.sys.counter("mead.forwards_sent"), 1);
    // The last written frame is a LOCATION_FORWARD reply, not the normal
    // reply the app produced.
    let mut split = FrameSplitter::new();
    split.push(rig.sys.written(conn));
    let frames = split.drain_frames().expect("frames");
    assert_eq!(frames.len(), 1);
    match Message::decode(&frames[0].bytes).expect("decodes") {
        Message::Reply(rep) => match rep.body {
            ReplyBody::LocationForward(ior) => {
                let p = ior.primary_profile().expect("profile");
                assert_eq!(p.host, "node2");
                assert_eq!(p.port, 30000);
            }
            other => panic!("expected forward, got {other:?}"),
        },
        other => panic!("expected reply, got {other:?}"),
    }
}

/// How many `phase` events the subject emitted.
fn phases(sys: &MockSys, phase: Phase) -> usize {
    let kind = EventKind::Phase(phase);
    sys.emitted().iter().filter(|(_, k)| *k == kind).count()
}

/// The steps of the two-step thresholds the replica announced, in order.
fn thresholds_crossed(sys: &MockSys) -> Vec<u8> {
    sys.emitted()
        .iter()
        .filter_map(|(_, kind)| match kind {
            EventKind::Phase(Phase::ThresholdCrossed { step }) => Some(*step),
            _ => None,
        })
        .collect()
}

/// A serving rig with 1 %/5 % thresholds whose first threshold check sees
/// usage past both: the leak steps three times and only the last step is
/// answered (a reply write is what checks the thresholds).
fn jump_both_thresholds(scheme: RecoveryScheme) -> (ServerRig, ConnId) {
    let (mut rig, conn) = serving_rig_with(
        MeadConfig::builder(scheme).migrate_threshold(0.05).build(),
        None,
    );
    for _ in 0..2 {
        let timer = timer_by_token(&rig.sys, tokens::TOKEN_LEAK);
        rig.interceptor.on_event(
            &mut rig.sys,
            Event::TimerFired {
                timer,
                token: tokens::TOKEN_LEAK,
            },
        );
    }
    leak_until(&mut rig, conn, |sys| {
        sys.counter("mead.launch_requests") > 0
    });
    (rig, conn)
}

/// Past both thresholds at once, a migrating scheme takes only the last
/// step: one launch request, one migration, and `ThresholdCrossed{2}`
/// alone. Later observations past both take no step again.
#[test]
fn one_observation_past_both_thresholds_migrates_once() {
    let (mut rig, conn) = jump_both_thresholds(RecoveryScheme::MeadFailover);
    assert_eq!(rig.sys.counter("mead.launch_requests"), 1);
    assert_eq!(rig.sys.counter("mead.migrations"), 1);
    assert_eq!(thresholds_crossed(&rig.sys), [2]);
    leak_until(&mut rig, conn, |_| false);
    assert_eq!(rig.sys.counter("mead.launch_requests"), 1);
    assert_eq!(rig.sys.counter("mead.migrations"), 1);
    assert_eq!(thresholds_crossed(&rig.sys), [2]);
}

/// NEEDS_ADDRESSING past both thresholds at once only requests the
/// launch: no migration and no threshold event, then or later.
#[test]
fn needs_addressing_past_both_thresholds_only_launches() {
    let (mut rig, conn) = jump_both_thresholds(RecoveryScheme::NeedsAddressing);
    leak_until(&mut rig, conn, |_| false);
    assert_eq!(rig.sys.counter("mead.launch_requests"), 1);
    assert_eq!(rig.sys.counter("mead.migrations"), 0);
    assert!(thresholds_crossed(&rig.sys).is_empty());
}

fn drain_armed(sys: &MockSys) -> bool {
    sys.timers()
        .iter()
        .any(|t| t.token == tokens::TOKEN_DRAIN && !t.cancelled)
}

/// Fires the interceptor timer `token`.
fn fire(rig: &mut ServerRig, token: u64) {
    let timer = timer_by_token(&rig.sys, token);
    rig.interceptor
        .on_event(&mut rig.sys, Event::TimerFired { timer, token });
}

/// How many checkpoints the rig has multicast to the server group.
fn checkpoints_sent(rig: &ServerRig) -> usize {
    server_group_msgs(&rig.sys, rig.gcs_conn)
        .iter()
        .filter(|m| matches!(m, GroupMsg::Checkpoint { .. }))
        .count()
}

/// Delivers one of the rig's own checkpoints back to it through the
/// total order.
fn self_deliver_checkpoint(rig: &mut ServerRig) {
    let me = member_of(rig);
    let own_checkpoint = GcsWire::Deliver {
        group: "servers".into(),
        sender: me.clone(),
        payload: GroupMsg::Checkpoint {
            member: me,
            state: Vec::new(),
        }
        .encode(),
    };
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &own_checkpoint,
    );
}

/// A migrating primary with state retires only once its successor is up
/// and warm. Every client is notified, yet no graceful exit is scheduled
/// until a member of its slot with another pid is in the view and a
/// checkpoint it sent after that view has come back through the total
/// order. The checkpoints sent before the view — one per reply, since
/// the replica commits before it acknowledges — do not count.
#[test]
fn a_migrating_primary_drains_only_once_its_successor_is_warm() {
    let (mut rig, conn) = serving_rig_with(
        MeadConfig::builder(RecoveryScheme::MeadFailover).build(),
        Some(CounterState::new()),
    );
    let me = member_of(&rig);
    leak_until(&mut rig, conn, |sys| sys.counter("mead.migrations") > 0);
    assert_eq!(
        rig.sys.counter("mead.piggybacks_sent"),
        1,
        "the client is told"
    );
    assert!(!drain_armed(&rig.sys), "no successor yet");
    let before_view = checkpoints_sent(&rig);
    assert!(before_view > 0, "each reply sent a checkpoint");
    let successor = "replica/0/77";
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::View {
            group: "servers".into(),
            view_id: 2,
            members: vec![me.clone(), "replica/1/55".into(), successor.into()],
        },
    );
    assert!(!drain_armed(&rig.sys), "the successor is up but cold");
    assert_eq!(
        checkpoints_sent(&rig),
        before_view + 1,
        "one more checkpoint warms the successor"
    );
    for _ in 0..before_view {
        self_deliver_checkpoint(&mut rig);
    }
    assert!(
        !drain_armed(&rig.sys),
        "the checkpoints sent before the view do not warm the successor"
    );
    self_deliver_checkpoint(&mut rig);
    assert!(drain_armed(&rig.sys), "the successor is warm");
    fire(&mut rig, tokens::TOKEN_DRAIN);
    assert!(matches!(
        rig.sys.exit_requested(),
        Some(simnet::ExitReason::Graceful)
    ));
}

/// The one commit rule. A replica without state writes a reply at once.
/// One with state multicasts a checkpoint of the state the reply
/// acknowledges and holds the reply until that checkpoint has come back
/// through the total order.
#[test]
fn only_a_replica_with_state_holds_a_reply_until_its_checkpoint_self_delivers() {
    let (mut stateless, conn) = serving_rig(RecoveryScheme::MeadFailover);
    answer(&mut stateless, conn, 1);
    assert_eq!(
        stateless.sys.written(conn),
        &reply(1)[..],
        "written at once"
    );
    assert_eq!(checkpoints_sent(&stateless), 0);

    let (mut rig, conn) = serving_rig_with(
        MeadConfig::builder(RecoveryScheme::MeadFailover).build(),
        Some(CounterState::new()),
    );
    answer(&mut rig, conn, 1);
    assert!(rig.sys.written(conn).is_empty(), "held");
    assert_eq!(checkpoints_sent(&rig), 1);
    self_deliver_checkpoint(&mut rig);
    assert_eq!(rig.sys.written(conn), &reply(1)[..], "released");
    assert_eq!(rig.sys.counter("mead.acks_committed"), 1);
}

/// A replica that has never served and is not the first listed one
/// refuses a request with `TRANSIENT` if it has state, which a cold
/// backup must not write; without state it just serves.
#[test]
fn a_never_served_backup_with_state_refuses_with_transient() {
    for state in [None, Some(CounterState::new())] {
        let has_state = state.is_some();
        let mut rig = server_rig_with(
            MeadConfig::builder(RecoveryScheme::MeadFailover).build(),
            state,
        );
        feed_gcs(
            &mut rig.interceptor,
            &mut rig.sys,
            rig.gcs_conn,
            &GcsWire::Attached,
        );
        let me = member_of(&rig);
        feed_gcs(
            &mut rig.interceptor,
            &mut rig.sys,
            rig.gcs_conn,
            &GcsWire::View {
                group: "servers".into(),
                view_id: 1,
                members: vec!["replica/1/55".into(), me],
            },
        );
        let conn = rig.sys.accept_conn();
        rig.interceptor.on_event(
            &mut rig.sys,
            Event::Accepted {
                listener: rig.listener,
                conn,
                peer_node: NodeId::from_index(4),
            },
        );
        rig.sys.push_incoming(conn, &request(3));
        rig.interceptor
            .on_event(&mut rig.sys, Event::DataReadable { conn });
        let served = !rig.app.borrow().read_bytes.is_empty();
        assert_eq!(served, !has_state, "state {has_state}");
        if !has_state {
            continue;
        }
        assert_eq!(rig.sys.counter("mead.nonprimary_refusals"), 1);
        match Message::decode(rig.sys.written(conn)).expect("a reply on the wire") {
            Message::Reply(ReplyMessage {
                request_id: 3,
                body: ReplyBody::SystemException { repo_id, .. },
            }) => assert_eq!(repo_id, giop::EX_TRANSIENT),
            other => panic!("expected TRANSIENT, got {other:?}"),
        }
    }
}

/// A LOCATION_FORWARD replica advertises the IOR of each object it binds
/// once. Its re-binds of the same objects (every 150 ms in the chaos
/// topology) are no news to the group.
#[test]
fn a_location_forward_replica_advertises_each_bound_ior_once() {
    let rebind = SimDuration::from_millis(150);
    let counter_key = ObjectKey::persistent("CounterPOA", "Counter");
    let app = ReplicaApp::time_server(mead::Slot(0), Port(2810), NodeId::from_index(0))
        .with_servant(
            counter_key.clone(),
            orb::COUNTER_TYPE_ID,
            Box::new(orb::CounterServant::default()),
        )
        .with_rebind(rebind);
    let mut interceptor = ServerInterceptor::new(
        MeadConfig::builder(RecoveryScheme::LocationForward).build(),
        mead::Slot(0),
        Box::new(app),
    );
    let mut sys = MockSys::new(NodeId::from_index(1));
    interceptor.on_start(&mut sys);
    let [(gcs_conn, _), (naming_conn, _)] = sys.connected()[..] else {
        panic!("the daemon and the Naming Service: {:?}", sys.connected());
    };
    interceptor.on_event(&mut sys, Event::ConnEstablished { conn: gcs_conn });
    feed_gcs(&mut interceptor, &mut sys, gcs_conn, &GcsWire::Attached);
    // The first bind goes out once the Naming Service is reached; two
    // re-binds follow.
    interceptor.on_event(&mut sys, Event::ConnEstablished { conn: naming_conn });
    for _ in 0..2 {
        let timer = *sys
            .timers()
            .iter()
            .rev()
            .find(|t| t.after == rebind && !t.cancelled)
            .expect("re-bind timer armed");
        interceptor.on_event(
            &mut sys,
            Event::TimerFired {
                timer: timer.timer,
                token: timer.token,
            },
        );
    }
    let mut split = FrameSplitter::new();
    split.push(sys.written(naming_conn));
    let binds = split
        .drain_frames()
        .expect("frames")
        .iter()
        .filter(|f| matches!(Message::decode(&f.bytes), Ok(Message::Request(r)) if r.operation == "bind"))
        .count();
    assert_eq!(binds, 6, "three binds of two objects each");
    let advertised: Vec<ObjectKey> = server_group_msgs(&sys, gcs_conn)
        .into_iter()
        .filter_map(|m| match m {
            GroupMsg::IorAdvert { ior, .. } => Some(ior.primary_profile()?.object_key.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(
        advertised,
        [ObjectKey::persistent("TimePOA", "TimeOfDay"), counter_key]
    );
    assert_eq!(sys.counter("mead.ior_captured"), 2);
}

/// NEEDS_ADDRESSING migrates nobody, but its primary still launches a
/// replacement at the first threshold, so a successor is up before the
/// leak kills it.
#[test]
fn needs_addressing_server_launches_a_replacement_past_the_first_threshold() {
    let (mut rig, conn) = serving_rig(RecoveryScheme::NeedsAddressing);
    leak_until(&mut rig, conn, |_| false);
    assert_eq!(rig.sys.counter("mead.launch_requests"), 1);
    assert_eq!(rig.sys.counter("mead.migrations"), 0);
    assert_eq!(thresholds_crossed(&rig.sys), [1]);
    let launches = server_group_msgs(&rig.sys, rig.gcs_conn)
        .iter()
        .filter(|m| matches!(m, GroupMsg::LaunchRequest { .. }))
        .count();
    assert_eq!(launches, 1, "one LaunchRequest multicast to the group");
}

/// An unmodified server: a `ServerOrb` with one servant, as the paper's
/// interceptor wraps one.
struct OrbServer(orb::ServerOrb);

impl Process for OrbServer {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.0.start(sys);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        self.0.handle_event(sys, &ev);
    }
}

/// A stream the interceptor cannot frame must reach the ORB, whose own
/// protocol-error path closes the connection. The interceptor used to
/// count the error and keep the poisoned bytes at the head of its
/// splitter, so nothing — not the garbage, not any later request — ever
/// got through, and the ORB never learnt the stream was dead.
#[test]
fn server_interceptor_hands_a_desynchronised_stream_to_the_orb() {
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let mut server = orb::ServerOrb::new(Port(2810));
    server.register(key, Box::new(orb::TimeOfDayServant));
    let mut interceptor = ServerInterceptor::new(
        MeadConfig::builder(RecoveryScheme::MeadFailover).build(),
        mead::Slot(0),
        Box::new(OrbServer(server)),
    );
    let mut sys = MockSys::new(NodeId::from_index(1));
    interceptor.on_start(&mut sys);
    let listener = sys.listeners()[0].0;
    let conn = sys.accept_conn();
    interceptor.on_event(
        &mut sys,
        Event::Accepted {
            listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    );
    // One read delivers a good request and then garbage.
    let mut wire = request(7);
    wire.extend_from_slice(b"NOT A FRAME HEADER AT ALL");
    sys.push_incoming(conn, &wire);
    interceptor.on_event(&mut sys, Event::DataReadable { conn });
    // The request in front of the garbage was served...
    assert_eq!(sys.counter("orb.server.requests"), 1);
    match Message::decode(sys.written(conn)).expect("reply on the wire") {
        Message::Reply(rep) => assert_eq!(rep.request_id, 7),
        other => panic!("expected a reply, got {other:?}"),
    }
    // ...and the garbage reached the ORB, which tore the connection down.
    assert_eq!(
        sys.protocol_errors(),
        ["mead.server.desync", "orb.server.protocol_error"]
    );
    assert!(sys.is_closed(conn), "the ORB must close the corrupt stream");
}

/// After a desync the server interceptor stops interpreting the stream
/// but keeps carrying it: every later byte reaches the application, in
/// order, and the error is counted once.
#[test]
fn server_interceptor_passes_everything_after_a_desync_through_raw() {
    let mut rig = server_rig(RecoveryScheme::LocationForward);
    let conn = rig.sys.accept_conn();
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::Accepted {
            listener: rig.listener,
            conn,
            peer_node: NodeId::from_index(4),
        },
    );
    let garbage = b"XXXXXXXXXXXXXXXX".to_vec();
    rig.sys.push_incoming(conn, &garbage);
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    assert_eq!(rig.app.borrow().read_bytes, garbage);
    let cpu_after_desync = rig.sys.cpu_charged();
    // A well-formed request now is just bytes: delivered, not parsed (the
    // LOCATION_FORWARD scheme would charge a full GIOP parse for it).
    rig.sys.push_incoming(conn, &request(8));
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    let mut expected = garbage;
    expected.extend_from_slice(&request(8));
    assert_eq!(rig.app.borrow().read_bytes, expected);
    assert_eq!(rig.sys.cpu_charged(), cpu_after_desync);
    assert_eq!(rig.sys.protocol_errors(), ["mead.server.desync"]);
}

// ---------------------------------------------------------------------
// Client interceptor
// ---------------------------------------------------------------------

struct ClientRig {
    interceptor: ClientInterceptor,
    sys: MockSys,
    app: Rc<RefCell<AppState>>,
    gcs_conn: ConnId,
    server_conn: ConnId,
}

fn client_rig(scheme: RecoveryScheme) -> ClientRig {
    client_rig_to(scheme, Addr::new(NodeId::from_index(1), Port(2810)))
}

/// A client interceptor whose application dials `addr` on start.
fn client_rig_to(scheme: RecoveryScheme, addr: Addr) -> ClientRig {
    let app = Rc::new(RefCell::new(AppState {
        connect_on_start: Some(addr),
        ..AppState::default()
    }));
    let mut interceptor = ClientInterceptor::new(scheme, Box::new(TestApp(app.clone())));
    let mut sys = MockSys::new(NodeId::from_index(4));
    interceptor.on_start(&mut sys);
    let (gcs_conn, gcs_addr) = sys.connected()[0];
    assert_eq!(gcs_addr.port, GCS_PORT);
    interceptor.on_event(&mut sys, Event::ConnEstablished { conn: gcs_conn });
    feed_gcs(&mut interceptor, &mut sys, gcs_conn, &GcsWire::Attached);
    let (server_conn, _) = sys.connected()[1];
    ClientRig {
        interceptor,
        sys,
        app,
        gcs_conn,
        server_conn,
    }
}

#[test]
fn client_interceptor_strips_notice_holds_reply_and_redirects() {
    let mut rig = client_rig(RecoveryScheme::MeadFailover);
    let conn = rig.server_conn;
    // The failing server sends [notice][reply].
    let mut wire = FailoverNotice::new("node2", 30000, "replica/0/9").encode();
    let the_reply = reply(3);
    wire.extend_from_slice(&the_reply);
    rig.sys.push_incoming(conn, &wire);
    rig.interceptor
        .on_event(&mut rig.sys, Event::DataReadable { conn });
    // The reply is held: the app has read nothing yet.
    assert!(
        rig.app.borrow().read_bytes.is_empty(),
        "reply must be held during redirect"
    );
    // The interceptor opened a raw connection to the next replica.
    let (new_conn, new_addr) = *rig.sys.connected().last().expect("redirect conn");
    assert_eq!(new_addr, Addr::new(NodeId::from_index(2), Port(30000)));
    // App writes during the redirect are buffered, not sent anywhere.
    rig.app
        .borrow_mut()
        .write_queue
        .push_back((conn, request(4)));
    // (Any app-namespace event reaches the app's action queue.)
    let tick = rig.sys.set_timer(simnet::SimDuration::from_millis(1), 1);
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: tick,
            token: 1,
        },
    );
    assert!(rig.sys.written(new_conn).is_empty());
    // Establishment completes the dup2; the finish timer releases the held
    // reply and flushes the buffered request to the NEW connection.
    rig.interceptor
        .on_event(&mut rig.sys, Event::ConnEstablished { conn: new_conn });
    assert!(rig.sys.is_closed(conn), "old connection closed by dup2");
    let finish = *rig
        .sys
        .timers()
        .iter()
        .rev()
        .find(|t| t.token >= tokens::TOKEN_REDIRECT_DONE_BASE)
        .expect("finish timer");
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: finish.timer,
            token: finish.token,
        },
    );
    assert_eq!(
        rig.app.borrow().read_bytes,
        the_reply,
        "held reply released after redirect"
    );
    assert_eq!(
        rig.sys.written(new_conn),
        &request(4)[..],
        "buffered write flushed to new conn"
    );
    assert_eq!(phases(&rig.sys, Phase::ClientRedirect), 1);
}

/// Whether the client interceptor multicast an `AddressQuery`.
fn asked_for_an_address(rig: &ClientRig) -> bool {
    server_group_msgs(&rig.sys, rig.gcs_conn)
        .iter()
        .any(|m| matches!(m, GroupMsg::AddressQuery { .. }))
}

#[test]
fn needs_addressing_suppresses_eof_and_fabricates_resend_trigger() {
    let mut rig = client_rig(RecoveryScheme::NeedsAddressing);
    let conn = rig.server_conn;
    // App sends a request (tracked as in-flight by the interceptor).
    rig.app
        .borrow_mut()
        .write_queue
        .push_back((conn, request(11)));
    let tick = rig.sys.set_timer(simnet::SimDuration::from_millis(1), 1);
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: tick,
            token: 1,
        },
    );
    // Abrupt server death: EOF must NOT reach the app.
    let app_log_before = rig.app.borrow().log.len();
    rig.interceptor
        .on_event(&mut rig.sys, Event::PeerClosed { conn });
    assert_eq!(rig.app.borrow().log.len(), app_log_before, "EOF suppressed");
    assert_eq!(phases(&rig.sys, Phase::FaultDetected), 1);
    // An AddressQuery went out over group communication.
    assert!(asked_for_an_address(&rig), "AddressQuery must be multicast");
    // The group answers; the interceptor redirects.
    feed_gcs(
        &mut rig.interceptor,
        &mut rig.sys,
        rig.gcs_conn,
        &GcsWire::Deliver {
            group: format!("clients/{}", 99),
            sender: "replica/1/55".into(),
            payload: GroupMsg::AddressReply {
                member: "replica/1/55".into(),
                host: "node2".into(),
                port: 30000,
            }
            .encode(),
        },
    );
    let (new_conn, new_addr) = *rig.sys.connected().last().expect("redirect conn");
    assert_eq!(new_addr, Addr::new(NodeId::from_index(2), Port(30000)));
    rig.interceptor
        .on_event(&mut rig.sys, Event::ConnEstablished { conn: new_conn });
    let finish = *rig
        .sys
        .timers()
        .iter()
        .rev()
        .find(|t| t.token >= tokens::TOKEN_REDIRECT_DONE_BASE)
        .expect("finish timer");
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: finish.timer,
            token: finish.token,
        },
    );
    // The app's ORB receives a fabricated NEEDS_ADDRESSING_MODE reply for
    // the in-flight request.
    let staged = rig.app.borrow().read_bytes.clone();
    match Message::decode(&staged).expect("fabricated reply decodes") {
        Message::Reply(rep) => {
            assert_eq!(rep.request_id, 11);
            assert!(matches!(rep.body, ReplyBody::NeedsAddressingMode(_)));
        }
        other => panic!("expected fabricated reply, got {other:?}"),
    }
    assert_eq!(rig.sys.counter("mead.client.fabricated_needs_addr"), 1);
}

/// An unmodified client: a `ClientOrb` that invokes once when told to.
struct OrbClient {
    orb: orb::ClientOrb,
    target: giop::Ior,
    upshots: Rc<RefCell<Vec<orb::OrbUpshot>>>,
}

impl Process for OrbClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb
            .invoke(sys, &self.target, "time_of_day", &[])
            .expect("usable ior");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Some(upshots) = self.orb.handle_event(sys, &ev) {
            self.upshots.borrow_mut().extend(upshots);
        }
    }
}

/// The client-side twin: garbage from the server used to wedge the
/// interceptor's splitter, so not even the reply in front of it reached
/// the ORB. Now that reply is delivered and the garbage goes up to the
/// ORB's own protocol-error handling.
#[test]
fn client_interceptor_hands_a_desynchronised_stream_to_the_orb() {
    let upshots = Rc::new(RefCell::new(Vec::new()));
    let target = giop::Ior::singleton(
        "IDL:TimeOfDay:1.0",
        "node1",
        2810,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    );
    let mut interceptor = ClientInterceptor::new(
        RecoveryScheme::MeadFailover,
        Box::new(OrbClient {
            orb: orb::ClientOrb::new(),
            target,
            upshots: upshots.clone(),
        }),
    );
    let mut sys = MockSys::new(NodeId::from_index(4));
    interceptor.on_start(&mut sys);
    let (conn, _) = sys.connected()[1];
    interceptor.on_event(&mut sys, Event::ConnEstablished { conn });
    let rid = match Message::decode(sys.written(conn)).expect("request on the wire") {
        Message::Request(req) => req.request_id,
        other => panic!("expected a request, got {other:?}"),
    };
    let mut wire = Message::Reply(ReplyMessage {
        request_id: rid,
        body: ReplyBody::NoException(vec![0; 8]),
    })
    .encode(Endian::Big)
    .to_vec();
    wire.extend_from_slice(b"NOT A FRAME HEADER AT ALL");
    sys.push_incoming(conn, &wire);
    interceptor.on_event(&mut sys, Event::DataReadable { conn });
    assert!(
        matches!(&upshots.borrow()[..], [orb::OrbUpshot::Reply { request_id, .. }] if *request_id == rid),
        "the reply ahead of the garbage must be delivered: {:?}",
        upshots.borrow()
    );
    assert_eq!(
        sys.protocol_errors(),
        ["mead.client.desync", "orb.protocol_error"]
    );
}

/// Garbage on the application's own output stops the NEEDS_ADDRESSING
/// request tracker, not the traffic: every write still goes out, once and
/// in order, and nothing written after the garbage is tracked or charged.
#[test]
fn needs_addressing_tracker_gives_up_on_unframeable_output() {
    let mut rig = client_rig(RecoveryScheme::NeedsAddressing);
    let conn = rig.server_conn;
    let garbage = b"XXXXXXXXXXXXXXXX".to_vec();
    rig.app
        .borrow_mut()
        .write_queue
        .extend([(conn, request(1)), (conn, garbage.clone())]);
    let tick = rig.sys.set_timer(simnet::SimDuration::from_millis(1), 1);
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: tick,
            token: 1,
        },
    );
    let cpu_after_desync = rig.sys.cpu_charged();
    rig.app
        .borrow_mut()
        .write_queue
        .push_back((conn, request(2)));
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: tick,
            token: 1,
        },
    );
    let mut expected = request(1);
    expected.extend_from_slice(&garbage);
    expected.extend_from_slice(&request(2));
    assert_eq!(rig.sys.written(conn), &expected[..]);
    assert_eq!(
        rig.sys.cpu_charged(),
        cpu_after_desync,
        "request 2 sits behind the garbage and must not be parsed"
    );
}

#[test]
fn needs_addressing_timeout_releases_the_eof() {
    let mut rig = client_rig(RecoveryScheme::NeedsAddressing);
    let conn = rig.server_conn;
    rig.interceptor
        .on_event(&mut rig.sys, Event::PeerClosed { conn });
    let timeout = timer_by_token(&rig.sys, tokens::TOKEN_QUERY_TIMEOUT);
    rig.interceptor.on_event(
        &mut rig.sys,
        Event::TimerFired {
            timer: timeout,
            token: tokens::TOKEN_QUERY_TIMEOUT,
        },
    );
    assert_eq!(rig.sys.counter("mead.client.query_timeout"), 1);
    let log = rig.app.borrow().log.clone();
    assert!(
        log.iter().any(|l| l.contains("PeerClosed")),
        "EOF must be released to the app on timeout: {log:?}"
    );
}

/// The Naming Service is not a replica, so no scheme acts on its
/// connection: an EOF there reaches the application as it happened, and
/// the server group is not asked where the Naming Service went.
#[test]
fn needs_addressing_leaves_the_naming_service_connection_alone() {
    let naming = Addr::new(NodeId::from_index(0), orb::NAMING_PORT);
    let mut rig = client_rig_to(RecoveryScheme::NeedsAddressing, naming);
    let conn = rig.server_conn;
    rig.interceptor
        .on_event(&mut rig.sys, Event::PeerClosed { conn });
    assert_eq!(phases(&rig.sys, Phase::FaultDetected), 0);
    assert!(!asked_for_an_address(&rig));
    let log = rig.app.borrow().log.clone();
    assert_eq!(
        log.last(),
        Some(&format!("{:?}", Event::PeerClosed { conn }))
    );
}

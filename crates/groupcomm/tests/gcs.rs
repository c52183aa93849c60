//! End-to-end tests of the group-communication system on the simulated
//! network: total order, membership views, crash detection, open-group
//! multicast, and bandwidth accounting; and, on the mock syscall
//! context, what a daemon and a client do with hostile input.

use std::cell::RefCell;
use std::rc::Rc;

use groupcomm::{
    GcsClient, GcsConfig, GcsDaemon, GcsDelivery, GcsSplitter, GcsWire, GCS_PORT, MESH_TAG,
};
use simnet::testkit::MockSys;
use simnet::*;

/// A scripted GCS member: joins groups, multicasts on a timer, records all
/// deliveries.
struct Member {
    gcs: GcsClient,
    join: Vec<String>,
    /// (delay, group, payload) multicasts to send after becoming ready.
    sends: Vec<(SimDuration, String, Vec<u8>)>,
    deliveries: Rc<RefCell<Vec<(String, GcsDelivery)>>>,
    /// Crash this long after start, if set.
    crash_after: Option<SimDuration>,
    name: String,
}

const TOKEN_SEND: u64 = 50;
const TOKEN_CRASH: u64 = 60;

impl Member {
    fn new(name: &str, join: &[&str], deliveries: Rc<RefCell<Vec<(String, GcsDelivery)>>>) -> Self {
        Member {
            gcs: GcsClient::new(name, 100),
            join: join.iter().map(|s| s.to_string()).collect(),
            sends: Vec::new(),
            deliveries,
            crash_after: None,
            name: name.to_string(),
        }
    }
}

impl Process for Member {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.gcs.start(sys);
        for g in self.join.clone() {
            self.gcs.join(sys, &g);
        }
        for (i, (delay, _, _)) in self.sends.iter().enumerate() {
            sys.set_timer(*delay, TOKEN_SEND + i as u64);
        }
        if let Some(d) = self.crash_after {
            sys.set_timer(d, TOKEN_CRASH);
        }
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { token, .. } = ev {
            if token == TOKEN_CRASH {
                sys.exit(ExitReason::Crash("scripted crash".into()));
                return;
            }
            if token >= TOKEN_SEND && token < TOKEN_SEND + self.sends.len() as u64 {
                let (_, group, payload) = self.sends[(token - TOKEN_SEND) as usize].clone();
                self.gcs.multicast(sys, &group, &payload);
                return;
            }
        }
        if let Some(deliveries) = self.gcs.handle_event(sys, &ev) {
            let mut log = self.deliveries.borrow_mut();
            for d in deliveries {
                log.push((self.name.clone(), d));
            }
        }
    }

    fn label(&self) -> &str {
        &self.name
    }
}

struct Cluster {
    sim: Simulation,
    nodes: Vec<NodeId>,
}

fn cluster(n_nodes: usize, seed: u64) -> Cluster {
    let mut sim = Simulation::new(SimConfig {
        seed,
        noise: NoiseModel::none(),
        ..SimConfig::default()
    });
    let nodes: Vec<NodeId> = (0..n_nodes)
        .map(|i| sim.add_node(&format!("node{i}")))
        .collect();
    let seq_addr = Addr::new(nodes[0], GCS_PORT);
    for &node in &nodes {
        sim.spawn(
            node,
            "gcs-daemon",
            Box::new(GcsDaemon::new(seq_addr, GcsConfig::default())),
        );
    }
    Cluster { sim, nodes }
}

fn views_of<'a>(
    log: &'a [(String, GcsDelivery)],
    who: &'a str,
    group: &'a str,
) -> Vec<&'a Vec<String>> {
    log.iter()
        .filter_map(move |(n, d)| match d {
            GcsDelivery::View {
                group: g, members, ..
            } if n == who && g == group => Some(members),
            _ => None,
        })
        .collect()
}

fn messages_of<'a>(
    log: &'a [(String, GcsDelivery)],
    who: &'a str,
    group: &'a str,
) -> Vec<(&'a str, &'a [u8])> {
    log.iter()
        .filter_map(move |(n, d)| match d {
            GcsDelivery::Message {
                group: g,
                sender,
                payload,
            } if n == who && g == group => Some((sender.as_str(), payload.as_slice())),
            _ => None,
        })
        .collect()
}

#[test]
fn members_join_and_see_each_other_in_views() {
    let Cluster { mut sim, nodes } = cluster(3, 1);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, &node) in nodes.iter().enumerate() {
        sim.spawn(
            node,
            "member",
            Box::new(Member::new(&format!("m{i}"), &["servers"], log.clone())),
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let log = log.borrow();
    // The last view every member saw must contain all three members, and
    // all members must agree on the member order (total order of joins —
    // whatever order the sequencer picked).
    let mut finals = Vec::new();
    for who in ["m0", "m1", "m2"] {
        let views = views_of(&log, who, "servers");
        assert!(!views.is_empty(), "{who} saw no views");
        let last = (*views.last().expect("nonempty")).clone();
        let mut sorted = last.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec!["m0".to_string(), "m1".into(), "m2".into()],
            "{who} final view must contain all members"
        );
        finals.push(last);
    }
    assert_eq!(finals[0], finals[1], "members disagree on view order");
    assert_eq!(finals[1], finals[2], "members disagree on view order");
}

#[test]
fn multicast_is_delivered_to_all_members_in_identical_total_order() {
    let Cluster { mut sim, nodes } = cluster(3, 2);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, &node) in nodes.iter().enumerate() {
        let mut m = Member::new(&format!("m{i}"), &["g"], log.clone());
        // All three blast concurrently; ordering must still agree.
        for k in 0..5u8 {
            m.sends.push((
                SimDuration::from_millis(100 + k as u64),
                "g".into(),
                vec![i as u8, k],
            ));
        }
        sim.spawn(node, "member", Box::new(m));
    }
    sim.run_until(SimTime::from_secs(2));
    let log = log.borrow();
    let orders: Vec<Vec<(String, Vec<u8>)>> = ["m0", "m1", "m2"]
        .iter()
        .map(|who| {
            messages_of(&log, who, "g")
                .into_iter()
                .map(|(s, p)| (s.to_string(), p.to_vec()))
                .collect()
        })
        .collect();
    assert_eq!(orders[0].len(), 15, "all 15 messages delivered");
    assert_eq!(orders[0], orders[1], "m0 and m1 disagree on total order");
    assert_eq!(orders[1], orders[2], "m1 and m2 disagree on total order");
}

#[test]
fn sender_receives_its_own_multicast_in_order() {
    let Cluster { mut sim, nodes } = cluster(2, 3);
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut m = Member::new("solo", &["g"], log.clone());
    m.sends
        .push((SimDuration::from_millis(100), "g".into(), vec![1]));
    sim.spawn(nodes[1], "member", Box::new(m));
    sim.run_until(SimTime::from_secs(1));
    let log = log.borrow();
    assert_eq!(messages_of(&log, "solo", "g"), vec![("solo", &[1u8][..])]);
}

#[test]
fn crash_triggers_view_change_without_the_dead_member() {
    let Cluster { mut sim, nodes } = cluster(3, 4);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, &node) in nodes.iter().enumerate() {
        let mut m = Member::new(&format!("m{i}"), &["servers"], log.clone());
        if i == 0 {
            m.crash_after = Some(SimDuration::from_millis(500));
        }
        sim.spawn(node, "member", Box::new(m));
    }
    sim.run_until(SimTime::from_secs(2));
    let log = log.borrow();
    let mut finals = Vec::new();
    for who in ["m1", "m2"] {
        let views = views_of(&log, who, "servers");
        let last = (*views.last().expect("views seen")).clone();
        let mut sorted = last.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            vec!["m1".to_string(), "m2".into()],
            "{who} must see a post-crash view excluding m0"
        );
        finals.push(last);
    }
    assert_eq!(finals[0], finals[1], "survivors disagree on view order");
}

#[test]
fn open_group_multicast_reaches_members_from_non_member() {
    let Cluster { mut sim, nodes } = cluster(2, 5);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        nodes[0],
        "member",
        Box::new(Member::new("insider", &["g"], log.clone())),
    );
    let mut outsider = Member::new("outsider", &[], log.clone());
    outsider
        .sends
        .push((SimDuration::from_millis(300), "g".into(), b"query".to_vec()));
    sim.spawn(nodes[1], "member", Box::new(outsider));
    sim.run_until(SimTime::from_secs(1));
    let log = log.borrow();
    assert_eq!(
        messages_of(&log, "insider", "g"),
        vec![("outsider", &b"query"[..])]
    );
    // The outsider is not a member and must NOT receive the delivery.
    assert!(messages_of(&log, "outsider", "g").is_empty());
}

#[test]
fn voluntary_leave_produces_view_change() {
    struct Leaver {
        gcs: GcsClient,
        log: Rc<RefCell<Vec<(String, GcsDelivery)>>>,
    }
    impl Process for Leaver {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            self.gcs.start(sys);
            self.gcs.join(sys, "g");
            sys.set_timer(SimDuration::from_millis(400), 7);
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::TimerFired { token: 7, .. } = ev {
                self.gcs.leave(sys, "g");
                return;
            }
            if let Some(ds) = self.gcs.handle_event(sys, &ev) {
                let mut log = self.log.borrow_mut();
                for d in ds {
                    log.push(("leaver".into(), d));
                }
            }
        }
    }
    let Cluster { mut sim, nodes } = cluster(2, 6);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        nodes[0],
        "member",
        Box::new(Member::new("stayer", &["g"], log.clone())),
    );
    sim.spawn(
        nodes[1],
        "leaver",
        Box::new(Leaver {
            gcs: GcsClient::new("leaver", 100),
            log: log.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let log = log.borrow();
    let views = views_of(&log, "stayer", "g");
    let last = views.last().expect("views seen");
    assert_eq!(**last, vec!["stayer".to_string()]);
}

#[test]
fn mesh_traffic_is_accounted() {
    let Cluster { mut sim, nodes } = cluster(3, 7);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, &node) in nodes.iter().enumerate() {
        let mut m = Member::new(&format!("m{i}"), &["g"], log.clone());
        m.sends
            .push((SimDuration::from_millis(200), "g".into(), vec![0u8; 100]));
        sim.spawn(node, "member", Box::new(m));
    }
    sim.run_until(SimTime::from_secs(1));
    let mesh = sim.metrics().total_bytes(MESH_TAG);
    assert!(
        mesh > 300,
        "inter-daemon traffic should include forwarded+ordered multicasts, got {mesh}"
    );
}

#[test]
fn boot_race_client_before_daemon_retries_and_attaches() {
    // Client process spawns on a node whose daemon starts later.
    let mut sim = Simulation::new(SimConfig {
        seed: 8,
        noise: NoiseModel::none(),
        ..SimConfig::default()
    });
    let n0 = sim.add_node("node0");
    let n1 = sim.add_node("node1");
    let log = Rc::new(RefCell::new(Vec::new()));
    // Spawn the member first: its connect will be refused, then retried.
    sim.spawn(
        n1,
        "member",
        Box::new(Member::new("early", &["g"], log.clone())),
    );
    let seq_addr = Addr::new(n0, GCS_PORT);
    sim.run_until(SimTime::from_millis(120));
    for node in [n0, n1] {
        sim.spawn(
            node,
            "gcs-daemon",
            Box::new(GcsDaemon::new(seq_addr, GcsConfig::default())),
        );
    }
    sim.run_until(SimTime::from_secs(2));
    let log = log.borrow();
    assert!(
        log.iter().any(|(_, d)| matches!(d, GcsDelivery::Ready)),
        "client must eventually attach despite boot race"
    );
    let views = views_of(&log, "early", "g");
    assert!(!views.is_empty(), "and receive its join view");
}

#[test]
fn deterministic_delivery_order_across_runs() {
    let run = |seed: u64| -> Vec<(String, String)> {
        let Cluster { mut sim, nodes } = cluster(3, seed);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, &node) in nodes.iter().enumerate() {
            let mut m = Member::new(&format!("m{i}"), &["g"], log.clone());
            for k in 0..3u8 {
                m.sends.push((
                    SimDuration::from_millis(100 + k as u64 * 10),
                    "g".into(),
                    vec![i as u8, k],
                ));
            }
            sim.spawn(node, "member", Box::new(m));
        }
        sim.run_until(SimTime::from_secs(2));
        let log = log.borrow();
        log.iter()
            .filter_map(|(n, d)| match d {
                GcsDelivery::Message {
                    sender, payload, ..
                } => Some((n.clone(), format!("{sender}:{payload:?}"))),
                _ => None,
            })
            .collect()
    };
    assert_eq!(run(99), run(99));
}

// ---------------------------------------------------------------------
// Hostile input: each rejection is one `ProtocolError` trace event, and
// the process keeps serving.
// ---------------------------------------------------------------------

/// The sequencer daemon (node 0), started on a mock.
fn mock_sequencer() -> (GcsDaemon, MockSys) {
    let node = NodeId::from_index(0);
    let mut sys = MockSys::new(node);
    let mut daemon = GcsDaemon::new(Addr::new(node, GCS_PORT), GcsConfig::default());
    daemon.on_start(&mut sys);
    (daemon, sys)
}

/// Delivers `wire` on `conn` to the daemon.
fn feed(daemon: &mut GcsDaemon, sys: &mut MockSys, conn: ConnId, wire: &[u8]) {
    sys.push_incoming(conn, wire);
    daemon.on_event(sys, Event::DataReadable { conn });
}

/// A connection the daemon accepts, on which `wire` then arrives.
fn accept_and_feed(daemon: &mut GcsDaemon, sys: &mut MockSys, wire: &[u8]) -> ConnId {
    let listener = sys.listeners()[0].0;
    let conn = sys.accept_conn();
    let peer_node = NodeId::from_index(1);
    daemon.on_event(
        sys,
        Event::Accepted {
            listener,
            conn,
            peer_node,
        },
    );
    feed(daemon, sys, conn, wire);
    conn
}

/// Everything written on `conn`, decoded.
fn frames(sys: &MockSys, conn: ConnId) -> Vec<GcsWire> {
    let mut splitter = GcsSplitter::new();
    splitter.push(sys.written(conn));
    splitter
        .drain()
        .expect("the daemon writes well-formed frames")
}

#[test]
fn a_truncated_frame_is_a_protocol_error_and_the_daemon_serves_on() {
    let (mut daemon, mut sys) = mock_sequencer();
    // A length prefix that matches a body cut two bytes short: the
    // splitter hands over a whole frame that does not decode.
    let attach = GcsWire::Attach {
        member: "client/1".into(),
    }
    .encode();
    let body = &attach[4..attach.len() - 2];
    let mut truncated = u32::try_from(body.len()).unwrap().to_be_bytes().to_vec();
    truncated.extend_from_slice(body);
    let bad = accept_and_feed(&mut daemon, &mut sys, &truncated);
    assert_eq!(sys.protocol_errors(), ["gcs.protocol_error"]);
    assert!(
        sys.is_closed(bad),
        "a stream that cannot be framed is dropped"
    );
    let good = accept_and_feed(&mut daemon, &mut sys, &attach);
    assert_eq!(frames(&sys, good), [GcsWire::Attached]);
    assert_eq!(sys.protocol_errors().len(), 1);
}

#[test]
fn a_client_message_on_a_daemon_link_is_a_protocol_error() {
    let (mut daemon, mut sys) = mock_sequencer();
    let peer = accept_and_feed(&mut daemon, &mut sys, &GcsWire::Hello { node: 1 }.encode());
    // A client sends `Join` to its own daemon; no daemon sends it on.
    let join = GcsWire::Join { group: "g".into() };
    feed(&mut daemon, &mut sys, peer, &join.encode());
    assert_eq!(sys.protocol_errors(), ["gcs.protocol_error"]);
    assert!(!sys.is_closed(peer));
    // The link still carries the heartbeat round.
    let beat = GcsWire::Heartbeat { pad: vec![0; 8] };
    feed(&mut daemon, &mut sys, peer, &beat.encode());
    assert_eq!(frames(&sys, peer), [beat]);
}

#[test]
fn a_daemon_message_at_a_client_is_a_protocol_error() {
    let mut sys = MockSys::new(NodeId::from_index(2));
    let mut client = GcsClient::new("member/1", 100);
    client.start(&mut sys);
    let (conn, _) = sys.connected()[0];
    client.handle_event(&mut sys, &Event::ConnEstablished { conn });
    // `OrdDeliver` travels between daemons only.
    let ordered = GcsWire::OrdDeliver {
        seq: 1,
        group: "g".into(),
        sender: "member/2".into(),
        payload: vec![1],
    };
    sys.push_incoming(conn, &ordered.encode());
    let out = client.handle_event(&mut sys, &Event::DataReadable { conn });
    assert_eq!(out, Some(Vec::new()));
    assert_eq!(sys.protocol_errors(), ["gcs.client_protocol_error"]);
    sys.push_incoming(conn, &GcsWire::Attached.encode());
    let out = client.handle_event(&mut sys, &Event::DataReadable { conn });
    assert_eq!(out, Some(vec![GcsDelivery::Ready]));
    assert!(client.is_ready());
}

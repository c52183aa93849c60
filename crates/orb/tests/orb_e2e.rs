//! End-to-end ORB tests over the simulated network: invocation round
//! trips, naming, LOCATION_FORWARD retransmission, COMM_FAILURE and
//! TRANSIENT mapping.

use std::cell::RefCell;
use std::rc::Rc;

use giop::{Ior, ObjectKey};
use orb::*;
use simnet::*;

/// A plain (non-replicated, non-intercepted) CORBA server process.
struct PlainServer {
    orb: ServerOrb,
    naming_node: Option<NodeId>,
    bind_name: Option<String>,
    key: ObjectKey,
    client_orb: ClientOrb, // used to bind with the naming service
    crash_after_requests: Option<u64>,
    served: u64,
}

impl PlainServer {
    fn new(port: Port, key: ObjectKey, servant: Box<dyn Servant>) -> Self {
        let mut orb = ServerOrb::new(port);
        orb.register(key.clone(), servant);
        PlainServer {
            orb,
            naming_node: None,
            bind_name: None,
            key,
            client_orb: ClientOrb::new(),
            crash_after_requests: None,
            served: 0,
        }
    }

    fn with_binding(mut self, naming_node: NodeId, name: &str) -> Self {
        self.naming_node = Some(naming_node);
        self.bind_name = Some(name.to_string());
        self
    }

    fn my_ior(&self, sys: &dyn SysApi) -> Ior {
        Ior::singleton(
            TIME_TYPE_ID,
            &host_of(sys.my_node()),
            self.orb.port().0,
            self.key.clone(),
        )
    }
}

impl Process for PlainServer {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb.start(sys);
        if let (Some(node), Some(name)) = (self.naming_node, self.bind_name.clone()) {
            let ior = self.my_ior(sys);
            let body = encode_bind(&name, &ior);
            self.client_orb
                .invoke(sys, &naming_ior(node), "bind", &body)
                .expect("naming ior valid");
        }
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if self.client_orb.handle_event(sys, &ev).is_some() {
            return;
        }
        if let Some(handled) = self.orb.handle_event(sys, &ev) {
            self.served += handled as u64;
            if let Some(limit) = self.crash_after_requests {
                if self.served >= limit {
                    sys.exit(ExitReason::Crash("scripted".into()));
                }
            }
        }
    }

    fn label(&self) -> &str {
        "plain-server"
    }
}

/// Outcome log shared with the test body.
type Outcomes = Rc<RefCell<Vec<String>>>;

/// A scripted client that runs a closed loop of invocations against an IOR
/// (or resolves one by name first).
struct ScriptClient {
    orb: ClientOrb,
    target: Option<Ior>,
    resolve: Option<(NodeId, String)>,
    rounds: u32,
    done: u32,
    outcomes: Outcomes,
    rtts: Rc<RefCell<Vec<f64>>>,
    sent_at: Option<SimTime>,
    resolve_rid: Option<u32>,
}

impl ScriptClient {
    fn invoking(target: Ior, rounds: u32, outcomes: Outcomes, rtts: Rc<RefCell<Vec<f64>>>) -> Self {
        ScriptClient {
            orb: ClientOrb::new(),
            target: Some(target),
            resolve: None,
            rounds,
            done: 0,
            outcomes,
            rtts,
            sent_at: None,
            resolve_rid: None,
        }
    }

    fn resolving(
        naming: NodeId,
        name: &str,
        rounds: u32,
        outcomes: Outcomes,
        rtts: Rc<RefCell<Vec<f64>>>,
    ) -> Self {
        ScriptClient {
            orb: ClientOrb::new(),
            target: None,
            resolve: Some((naming, name.to_string())),
            rounds,
            done: 0,
            outcomes,
            rtts,
            sent_at: None,
            resolve_rid: None,
        }
    }

    fn fire(&mut self, sys: &mut dyn SysApi) {
        let target = self.target.clone().expect("target known");
        self.sent_at = Some(sys.now());
        self.orb
            .invoke(sys, &target, "time_of_day", &[])
            .expect("valid ior");
    }
}

impl Process for ScriptClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        match (&self.target, &self.resolve) {
            (Some(_), _) => self.fire(sys),
            (None, Some((node, name))) => {
                let rid = self
                    .orb
                    .invoke(sys, &naming_ior(*node), "resolve", &encode_name(name))
                    .expect("naming ior valid");
                self.resolve_rid = Some(rid);
            }
            _ => panic!("misconfigured client"),
        }
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        let Some(upshots) = self.orb.handle_event(sys, &ev) else {
            return;
        };
        for u in upshots {
            match u {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => {
                    if Some(request_id) == self.resolve_rid {
                        let ior = decode_resolve_reply(&payload).expect("resolve reply");
                        self.outcomes.borrow_mut().push("resolved".into());
                        self.target = Some(ior);
                        self.fire(sys);
                        continue;
                    }
                    let t = decode_time_reply(&payload).expect("time reply");
                    assert!(t <= sys.now().as_nanos());
                    if let Some(at) = self.sent_at {
                        self.rtts
                            .borrow_mut()
                            .push((sys.now() - at).as_millis_f64());
                    }
                    self.done += 1;
                    self.outcomes.borrow_mut().push("reply".into());
                    if self.done < self.rounds {
                        self.fire(sys);
                    }
                }
                OrbUpshot::Exception { ex, .. } => {
                    self.outcomes
                        .borrow_mut()
                        .push(format!("ex:{}", ex.repo_id()));
                }
                OrbUpshot::Forwarded { to, .. } => {
                    self.outcomes.borrow_mut().push(format!("forwarded:{to}"));
                }
                OrbUpshot::Resent { .. } => {
                    self.outcomes.borrow_mut().push("resent".into());
                }
            }
        }
    }

    fn label(&self) -> &str {
        "script-client"
    }
}

fn sim(seed: u64) -> Simulation {
    Simulation::new(SimConfig {
        seed,
        noise: NoiseModel::none(),
        ..SimConfig::default()
    })
}

#[test]
fn invoke_round_trip_and_baseline_rtt() {
    let mut sim = sim(1);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    sim.spawn(
        a,
        "server",
        Box::new(PlainServer::new(
            Port(2810),
            key.clone(),
            Box::new(TimeOfDayServant),
        )),
    );
    let ior = Ior::singleton(TIME_TYPE_ID, "node0", 2810, key);
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::invoking(
            ior,
            200,
            outcomes.clone(),
            rtts.clone(),
        )),
    );
    sim.run_until(SimTime::from_secs(5));
    let rtts = rtts.borrow();
    assert_eq!(rtts.len(), 200);
    let mean = rtts.iter().sum::<f64>() / rtts.len() as f64;
    // Paper's fault-free baseline is ~0.75 ms; ours must land close.
    assert!(
        (0.65..0.90).contains(&mean),
        "baseline RTT {mean}ms out of calibration"
    );
}

#[test]
fn resolve_then_invoke_through_naming() {
    let mut sim = sim(2);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let c = sim.add_node("c");
    sim.spawn(c, "naming", Box::new(NamingService::new()));
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    sim.spawn(
        a,
        "server",
        Box::new(
            PlainServer::new(Port(2810), key, Box::new(TimeOfDayServant))
                .with_binding(c, "replicas/r1"),
        ),
    );
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    // Let the server bind before the client resolves (the paper's
    // experiments likewise start servers first).
    sim.run_until(SimTime::from_millis(300));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::resolving(
            c,
            "replicas/r1",
            5,
            outcomes.clone(),
            rtts.clone(),
        )),
    );
    sim.run_until(SimTime::from_secs(3));
    let outcomes = outcomes.borrow();
    assert!(outcomes.contains(&"resolved".to_string()), "{outcomes:?}");
    assert_eq!(outcomes.iter().filter(|o| *o == "reply").count(), 5);
    // Resolve spike calibration: first RTT sample is just the invocation,
    // so check the naming cost indirectly via counters.
    assert!(sim.metrics().counter("naming.resolve") == 1);
}

#[test]
fn resolve_unknown_name_raises_user_exception() {
    let mut sim = sim(3);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.spawn(a, "naming", Box::new(NamingService::new()));
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::resolving(
            a,
            "replicas/ghost",
            1,
            outcomes.clone(),
            rtts,
        )),
    );
    sim.run_until(SimTime::from_secs(2));
    let outcomes = outcomes.borrow();
    assert!(
        outcomes.iter().any(|o| o.contains("NotFound")),
        "expected NotFound, got {outcomes:?}"
    );
}

#[test]
fn server_crash_mid_stream_raises_comm_failure() {
    let mut sim = sim(4);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let mut server = PlainServer::new(Port(2810), key.clone(), Box::new(TimeOfDayServant));
    server.crash_after_requests = Some(10);
    sim.spawn(a, "server", Box::new(server));
    let ior = Ior::singleton(TIME_TYPE_ID, "node0", 2810, key);
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::invoking(ior, 100, outcomes.clone(), rtts)),
    );
    sim.run_until(SimTime::from_secs(3));
    let outcomes = outcomes.borrow();
    let replies = outcomes.iter().filter(|o| *o == "reply").count();
    assert_eq!(replies, 10, "ten replies before the crash");
    assert!(
        outcomes.iter().any(|o| o.contains("COMM_FAILURE")),
        "crash must surface as COMM_FAILURE: {outcomes:?}"
    );
    assert_eq!(sim.metrics().counter("orb.exception.comm_failure"), 1);
}

#[test]
fn connecting_to_dead_address_raises_transient() {
    let mut sim = sim(5);
    let _a = sim.add_node("a");
    let b = sim.add_node("b");
    // Nothing listens on node0:2810 — a stale reference.
    let ior = Ior::singleton(
        TIME_TYPE_ID,
        "node0",
        2810,
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
    );
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::invoking(ior, 1, outcomes.clone(), rtts)),
    );
    sim.run_until(SimTime::from_secs(2));
    let outcomes = outcomes.borrow();
    assert!(
        outcomes.iter().any(|o| o.contains("TRANSIENT")),
        "stale reference must surface as TRANSIENT: {outcomes:?}"
    );
}

/// A servant wrapper whose server forwards every request to another
/// location via LOCATION_FORWARD (exercising the client ORB's transparent
/// retransmission).
struct ForwardingServer {
    orb_port: Port,
    forward_to: Ior,
    listener: Option<ListenerId>,
    conns: std::collections::BTreeMap<ConnId, giop::FrameSplitter>,
}

impl Process for ForwardingServer {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.listener = Some(sys.listen(self.orb_port).expect("port free"));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::Accepted { conn, .. } => {
                self.conns.insert(conn, giop::FrameSplitter::new());
            }
            Event::DataReadable { conn } => {
                let Some(split) = self.conns.get_mut(&conn) else {
                    return;
                };
                let read = sys.read(conn, usize::MAX).expect("open");
                split.push(&read.data);
                while let Ok(Some(frame)) = split.next_frame() {
                    if let Ok(giop::Message::Request(req)) = giop::Message::decode(&frame.bytes) {
                        let reply = giop::Message::Reply(giop::ReplyMessage {
                            request_id: req.request_id,
                            body: giop::ReplyBody::LocationForward(self.forward_to.clone()),
                        });
                        let _ = sys.write(conn, &reply.encode(giop::Endian::Big));
                    }
                }
            }
            _ => {}
        }
    }
}

#[test]
fn location_forward_is_followed_transparently() {
    let mut sim = sim(6);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let c = sim.add_node("c");
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    // Real server on node b.
    sim.spawn(
        b,
        "real-server",
        Box::new(PlainServer::new(
            Port(2810),
            key.clone(),
            Box::new(TimeOfDayServant),
        )),
    );
    // Forwarder on node a redirecting to b.
    let target = Ior::singleton(TIME_TYPE_ID, "node1", 2810, key.clone());
    sim.spawn(
        a,
        "forwarder",
        Box::new(ForwardingServer {
            orb_port: Port(2810),
            forward_to: target,
            listener: None,
            conns: Default::default(),
        }),
    );
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let first = Ior::singleton(TIME_TYPE_ID, "node0", 2810, key);
    sim.spawn(
        c,
        "client",
        Box::new(ScriptClient::invoking(first, 3, outcomes.clone(), rtts)),
    );
    sim.run_until(SimTime::from_secs(3));
    let outcomes = outcomes.borrow();
    assert!(
        outcomes.iter().any(|o| o.starts_with("forwarded:")),
        "{outcomes:?}"
    );
    assert_eq!(outcomes.iter().filter(|o| *o == "reply").count(), 3);
    // No exception ever reaches the application.
    assert!(
        !outcomes.iter().any(|o| o.starts_with("ex:")),
        "{outcomes:?}"
    );
}

/// A server that forwards to itself forever, to exercise the hop limit.
#[test]
fn forward_loop_is_cut_off_with_transient() {
    let mut sim = sim(7);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
    let self_ior = Ior::singleton(TIME_TYPE_ID, "node0", 2810, key.clone());
    sim.spawn(
        a,
        "loop-forwarder",
        Box::new(ForwardingServer {
            orb_port: Port(2810),
            forward_to: self_ior.clone(),
            listener: None,
            conns: Default::default(),
        }),
    );
    let outcomes: Outcomes = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(ScriptClient::invoking(self_ior, 1, outcomes.clone(), rtts)),
    );
    sim.run_until(SimTime::from_secs(3));
    let outcomes = outcomes.borrow();
    assert!(
        outcomes.iter().any(|o| o.contains("TRANSIENT")),
        "forward loop must end in TRANSIENT: {outcomes:?}"
    );
    assert!(sim.metrics().counter("orb.forward_loop") >= 1);
}

#[test]
fn counter_servant_keeps_state_across_invocations() {
    struct CounterClient {
        orb: ClientOrb,
        target: Ior,
        values: Rc<RefCell<Vec<u64>>>,
        sent: u32,
    }
    impl Process for CounterClient {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            self.sent = 1;
            self.orb
                .invoke(
                    sys,
                    &self.target,
                    "increment_once",
                    &encode_increment_once(1, 5),
                )
                .expect("valid");
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            let Some(upshots) = self.orb.handle_event(sys, &ev) else {
                return;
            };
            for u in upshots {
                if let OrbUpshot::Reply { payload, .. } = u {
                    self.values
                        .borrow_mut()
                        .push(decode_counter_reply(&payload).expect("counter reply"));
                    if self.sent < 4 {
                        self.sent += 1;
                        let body = encode_increment_once(u64::from(self.sent), 5);
                        self.orb
                            .invoke(sys, &self.target, "increment_once", &body)
                            .expect("valid");
                    }
                }
            }
        }
    }
    let mut sim = sim(8);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let key = ObjectKey::persistent("CounterPOA", "Counter");
    sim.spawn(
        a,
        "server",
        Box::new(PlainServer::new(
            Port(2811),
            key.clone(),
            Box::new(CounterServant::default()),
        )),
    );
    let values = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        b,
        "client",
        Box::new(CounterClient {
            orb: ClientOrb::new(),
            target: Ior::singleton(COUNTER_TYPE_ID, "node0", 2811, key),
            values: values.clone(),
            sent: 0,
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(*values.borrow(), vec![5, 10, 15, 20]);
}

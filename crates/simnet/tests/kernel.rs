//! Behavioural tests for the simnet kernel: transport semantics, crash
//! visibility, CPU-cost accounting, timers, determinism.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::*;

/// Shared scratchpad for observing process behaviour from tests.
type Log = Rc<RefCell<Vec<String>>>;

struct Server {
    port: Port,
    log: Log,
    reply_cpu: SimDuration,
    close_after: Option<usize>,
    handled: usize,
}

impl Process for Server {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(self.port).expect("listen");
        self.log.borrow_mut().push("server:listening".into());
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::Accepted { conn, .. } => {
                self.log
                    .borrow_mut()
                    .push(format!("server:accepted:{conn}"));
            }
            Event::DataReadable { conn } => {
                let got = sys.read(conn, usize::MAX).expect("read");
                if got.data.is_empty() {
                    return;
                }
                self.handled += 1;
                sys.charge_cpu(self.reply_cpu);
                sys.write(conn, &got.data).expect("echo write");
                if let Some(n) = self.close_after {
                    if self.handled >= n {
                        sys.exit(ExitReason::Crash("test crash".into()));
                    }
                }
            }
            Event::PeerClosed { conn } => {
                self.log.borrow_mut().push(format!("server:eof:{conn}"));
            }
            _ => {}
        }
    }
    fn label(&self) -> &str {
        "server"
    }
}

struct Client {
    target: Addr,
    payload: Vec<u8>,
    log: Log,
    conn: Option<ConnId>,
    sent_at: Option<SimTime>,
    rtts: Rc<RefCell<Vec<SimDuration>>>,
    rounds: usize,
    done: usize,
}

impl Client {
    fn new(target: Addr, rounds: usize, log: Log, rtts: Rc<RefCell<Vec<SimDuration>>>) -> Self {
        Client {
            target,
            payload: b"ping".to_vec(),
            log,
            conn: None,
            sent_at: None,
            rtts,
            rounds,
            done: 0,
        }
    }
    fn send(&mut self, sys: &mut dyn SysApi) {
        let conn = self.conn.expect("connected");
        self.sent_at = Some(sys.now());
        sys.write(conn, &self.payload).expect("request write");
    }
}

impl Process for Client {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.conn = Some(sys.connect(self.target));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { .. } => {
                self.log.borrow_mut().push("client:established".into());
                self.send(sys);
            }
            Event::ConnRefused { .. } => {
                self.log.borrow_mut().push("client:refused".into());
            }
            Event::DataReadable { conn } => {
                let got = sys.read(conn, usize::MAX).expect("read");
                if got.data.is_empty() {
                    return;
                }
                let rtt = sys.now() - self.sent_at.expect("sent");
                self.rtts.borrow_mut().push(rtt);
                self.done += 1;
                if self.done < self.rounds {
                    self.send(sys);
                } else {
                    self.log.borrow_mut().push("client:done".into());
                }
            }
            Event::PeerClosed { conn } => {
                self.log.borrow_mut().push(format!("client:eof:{conn}"));
            }
            _ => {}
        }
    }
    fn label(&self) -> &str {
        "client"
    }
}

fn quiet_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        noise: NoiseModel::none(),
        ..SimConfig::default()
    }
}

#[test]
fn ping_pong_round_trip_time_matches_model() {
    let cfg = quiet_config(1);
    let mut sim = Simulation::new(cfg);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let log: Log = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        a,
        "server",
        Box::new(Server {
            port: Port(80),
            log: log.clone(),
            reply_cpu: SimDuration::from_micros(50),
            close_after: None,
            handled: 0,
        }),
    );
    sim.spawn(
        b,
        "client",
        Box::new(Client::new(
            Addr::new(a, Port(80)),
            100,
            log.clone(),
            rtts.clone(),
        )),
    );
    sim.run_until(SimTime::from_secs(5));
    let rtts = rtts.borrow();
    assert_eq!(rtts.len(), 100);
    // Two one-way trips (330±10us) + 50us server CPU: between 0.71 and 0.78ms.
    for rtt in rtts.iter() {
        let ms = rtt.as_millis_f64();
        assert!((0.70..0.80).contains(&ms), "rtt {ms}ms outside model");
    }
    assert!(log.borrow().contains(&"client:done".to_string()));
}

#[test]
fn connect_to_missing_listener_is_refused() {
    let mut sim = Simulation::new(quiet_config(2));
    let a = sim.add_node("a");
    let log: Log = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        a,
        "client",
        Box::new(Client::new(Addr::new(a, Port(4242)), 1, log.clone(), rtts)),
    );
    sim.run_until(SimTime::from_secs(1));
    assert!(log.borrow().contains(&"client:refused".to_string()));
}

#[test]
fn server_crash_delivers_eof_to_client() {
    let mut sim = Simulation::new(quiet_config(3));
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let log: Log = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        a,
        "server",
        Box::new(Server {
            port: Port(80),
            log: log.clone(),
            reply_cpu: SimDuration::ZERO,
            close_after: Some(3), // crash after three replies
            handled: 0,
        }),
    );
    sim.spawn(
        b,
        "client",
        Box::new(Client::new(
            Addr::new(a, Port(80)),
            100,
            log.clone(),
            rtts.clone(),
        )),
    );
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(rtts.borrow().len(), 3, "three replies before crash");
    let log = log.borrow();
    assert!(
        log.iter().any(|l| l.starts_with("client:eof")),
        "client must observe EOF, saw {log:?}"
    );
    let crashes = sim
        .trace()
        .iter()
        .filter(|ev| ev.kind == obs::EventKind::Exit { crashed: true })
        .count();
    assert_eq!(crashes, 1);
}

#[test]
fn kill_process_delivers_eof() {
    let mut sim = Simulation::new(quiet_config(4));
    let a = sim.add_node("a");
    let log: Log = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let server = sim.spawn(
        a,
        "server",
        Box::new(Server {
            port: Port(80),
            log: log.clone(),
            reply_cpu: SimDuration::ZERO,
            close_after: None,
            handled: 0,
        }),
    );
    sim.spawn(
        a,
        "client",
        Box::new(Client::new(
            Addr::new(a, Port(80)),
            1_000_000,
            log.clone(),
            rtts,
        )),
    );
    sim.run_until(SimTime::from_millis(200));
    assert!(sim.process_alive(server));
    sim.kill_process(server, "injected kill");
    sim.run_until(SimTime::from_millis(400));
    assert!(!sim.process_alive(server));
    assert!(log.borrow().iter().any(|l| l.starts_with("client:eof")));
}

#[test]
fn node_crash_kills_all_hosted_processes() {
    let mut sim = Simulation::new(quiet_config(5));
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let log: Log = Rc::default();
    let rtts = Rc::new(RefCell::new(Vec::new()));
    let s1 = sim.spawn(
        a,
        "server",
        Box::new(Server {
            port: Port(80),
            log: log.clone(),
            reply_cpu: SimDuration::ZERO,
            close_after: None,
            handled: 0,
        }),
    );
    let c = sim.spawn(
        b,
        "client",
        Box::new(Client::new(
            Addr::new(a, Port(80)),
            1_000_000,
            log.clone(),
            rtts,
        )),
    );
    sim.run_until(SimTime::from_millis(100));
    sim.crash_node(a);
    sim.run_until(SimTime::from_millis(200));
    assert!(!sim.process_alive(s1));
    assert!(sim.process_alive(c));
    assert!(!sim.node_alive(a));
    assert!(log.borrow().iter().any(|l| l.starts_with("client:eof")));
    // Connecting to the dead node is refused.
    sim.restart_node(a);
    assert!(sim.node_alive(a));
}

#[test]
fn charge_cpu_delays_replies() {
    // Same topology, two servers with different CPU costs: the slower
    // server's client sees proportionally larger RTTs.
    let run = |cpu_us: u64| -> f64 {
        let mut sim = Simulation::new(quiet_config(6));
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let log: Log = Rc::default();
        let rtts = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            a,
            "server",
            Box::new(Server {
                port: Port(80),
                log: log.clone(),
                reply_cpu: SimDuration::from_micros(cpu_us),
                close_after: None,
                handled: 0,
            }),
        );
        sim.spawn(
            b,
            "client",
            Box::new(Client::new(Addr::new(a, Port(80)), 50, log, rtts.clone())),
        );
        sim.run_until(SimTime::from_secs(2));
        let r = rtts.borrow();
        r.iter().map(|d| d.as_millis_f64()).sum::<f64>() / r.len() as f64
    };
    let fast = run(10);
    let slow = run(700);
    assert!(
        (slow - fast - 0.69).abs() < 0.05,
        "cpu charge should add ~0.69ms, added {}",
        slow - fast
    );
}

#[test]
fn timers_fire_in_order_with_tokens() {
    struct TimerProc {
        fired: Rc<RefCell<Vec<(u64, SimTime)>>>,
        cancel_me: Option<TimerId>,
    }
    impl Process for TimerProc {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.set_timer(SimDuration::from_millis(30), 3);
            sys.set_timer(SimDuration::from_millis(10), 1);
            sys.set_timer(SimDuration::from_millis(20), 2);
            self.cancel_me = Some(sys.set_timer(SimDuration::from_millis(25), 99));
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::TimerFired { token, .. } = ev {
                if token == 1 {
                    let t = self.cancel_me.take().expect("armed");
                    sys.cancel_timer(t);
                }
                self.fired.borrow_mut().push((token, sys.now()));
            }
        }
    }
    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new(quiet_config(7));
    let a = sim.add_node("a");
    sim.spawn(
        a,
        "timers",
        Box::new(TimerProc {
            fired: fired.clone(),
            cancel_me: None,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let fired = fired.borrow();
    let tokens: Vec<u64> = fired.iter().map(|(t, _)| *t).collect();
    assert_eq!(tokens, vec![1, 2, 3], "cancelled timer 99 must not fire");
    assert!(fired[0].1 < fired[1].1 && fired[1].1 < fired[2].1);
}

#[test]
fn spawn_from_process_launches_after_latency() {
    struct Spawner {
        child: Rc<RefCell<Option<ProcessId>>>,
    }
    struct Child {
        started_at: Rc<RefCell<Option<SimTime>>>,
    }
    impl Process for Child {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            *self.started_at.borrow_mut() = Some(sys.now());
        }
        fn on_event(&mut self, _: &mut dyn SysApi, _: Event) {}
    }
    impl Process for Spawner {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            let started = Rc::new(RefCell::new(None));
            let s2 = started.clone();
            let node = sys.my_node();
            let pid = sys
                .spawn(
                    node,
                    "child",
                    Box::new(move || Box::new(Child { started_at: s2 })),
                )
                .expect("spawn");
            *self.child.borrow_mut() = Some(pid);
            // keep handle alive via leak into self
            std::mem::forget(started);
        }
        fn on_event(&mut self, _: &mut dyn SysApi, _: Event) {}
    }
    let child = Rc::new(RefCell::new(None));
    let mut sim = Simulation::new(quiet_config(8));
    let a = sim.add_node("a");
    sim.spawn(
        a,
        "spawner",
        Box::new(Spawner {
            child: child.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let pid = child.borrow().expect("child spawned");
    assert!(sim.process_alive(pid));
    assert_eq!(sim.process_label(pid), "child");
    let spawns = sim
        .trace()
        .iter()
        .filter(|ev| matches!(ev.kind, obs::EventKind::Spawn { .. }))
        .count();
    assert_eq!(spawns, 2);
}

#[test]
fn identical_seeds_are_deterministic_different_seeds_differ() {
    let run = |seed: u64| -> (u64, Vec<f64>) {
        let mut sim = Simulation::new(SimConfig {
            seed,
            ..SimConfig::default()
        });
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let log: Log = Rc::default();
        let rtts = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            a,
            "server",
            Box::new(Server {
                port: Port(80),
                log: log.clone(),
                reply_cpu: SimDuration::from_micros(50),
                close_after: None,
                handled: 0,
            }),
        );
        sim.spawn(
            b,
            "client",
            Box::new(Client::new(Addr::new(a, Port(80)), 200, log, rtts.clone())),
        );
        sim.run_until(SimTime::from_secs(5));
        let rtts = rtts.borrow().iter().map(|d| d.as_millis_f64()).collect();
        (sim.events_processed(), rtts)
    };
    let (e1, r1) = run(42);
    let (e2, r2) = run(42);
    let (_, r3) = run(43);
    assert_eq!(e1, e2);
    assert_eq!(r1, r2, "same seed must reproduce identical RTTs");
    assert_ne!(r1, r3, "different seed should perturb jittered RTTs");
}

#[test]
fn listener_port_conflict_is_rejected() {
    struct TwoListens {
        outcome: Rc<RefCell<Option<Result<(), SysError>>>>,
    }
    impl Process for TwoListens {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.listen(Port(5)).expect("first listen");
            let second = sys.listen(Port(5)).map(|_| ());
            *self.outcome.borrow_mut() = Some(second);
        }
        fn on_event(&mut self, _: &mut dyn SysApi, _: Event) {}
    }
    let outcome = Rc::new(RefCell::new(None));
    let mut sim = Simulation::new(quiet_config(9));
    let a = sim.add_node("a");
    sim.spawn(
        a,
        "p",
        Box::new(TwoListens {
            outcome: outcome.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(
        outcome.borrow().clone().expect("ran"),
        Err(SysError::PortInUse(Port(5)))
    );
}

#[test]
fn data_is_fifo_per_connection_under_jitter() {
    struct Burst {
        target: Addr,
        conn: Option<ConnId>,
    }
    impl Process for Burst {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            self.conn = Some(sys.connect(self.target));
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::ConnEstablished { conn } = ev {
                for i in 0..100u8 {
                    sys.write(conn, &[i]).expect("write");
                }
            }
        }
    }
    struct Collector {
        got: Rc<RefCell<Vec<u8>>>,
    }
    impl Process for Collector {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.listen(Port(1)).expect("listen");
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::DataReadable { conn } = ev {
                let r = sys.read(conn, usize::MAX).expect("read");
                self.got.borrow_mut().extend_from_slice(&r.data);
            }
        }
    }
    let got = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Simulation::new(SimConfig {
        seed: 11,
        latency: LatencyModel {
            jitter: SimDuration::from_micros(500), // heavy jitter
            ..LatencyModel::default()
        },
        noise: NoiseModel::none(),
        ..SimConfig::default()
    });
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.spawn(a, "collector", Box::new(Collector { got: got.clone() }));
    sim.spawn(
        b,
        "burst",
        Box::new(Burst {
            target: Addr::new(a, Port(1)),
            conn: None,
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let got = got.borrow();
    let expect: Vec<u8> = (0..100).collect();
    assert_eq!(*got, expect, "bytes must arrive in send order");
}

#[test]
fn tagged_connections_account_bytes() {
    struct Tagger {
        target: Addr,
    }
    impl Process for Tagger {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            let c = sys.connect(self.target);
            sys.tag_conn(c, "testtag");
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::ConnEstablished { conn } = ev {
                sys.write(conn, &[0u8; 64]).expect("write");
                sys.write(conn, &[0u8; 36]).expect("write");
            }
        }
    }
    struct Sink;
    impl Process for Sink {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.listen(Port(1)).expect("listen");
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::DataReadable { conn } = ev {
                let _ = sys.read(conn, usize::MAX);
            }
        }
    }
    let mut sim = Simulation::new(quiet_config(12));
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.spawn(a, "sink", Box::new(Sink));
    sim.spawn(
        b,
        "tagger",
        Box::new(Tagger {
            target: Addr::new(a, Port(1)),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(sim.metrics().total_bytes("testtag"), 100);
}

#[test]
fn read_after_local_close_errors_and_double_close_is_idempotent() {
    struct Closer {
        target: Addr,
        observed: Rc<RefCell<Option<SysError>>>,
    }
    impl Process for Closer {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.connect(self.target);
        }
        fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
            if let Event::ConnEstablished { conn } = ev {
                sys.close(conn);
                sys.close(conn); // idempotent
                let err = sys.read(conn, 10).expect_err("closed");
                *self.observed.borrow_mut() = Some(err);
            }
        }
    }
    struct Sink;
    impl Process for Sink {
        fn on_start(&mut self, sys: &mut dyn SysApi) {
            sys.listen(Port(1)).expect("listen");
        }
        fn on_event(&mut self, _: &mut dyn SysApi, _: Event) {}
    }
    let observed = Rc::new(RefCell::new(None));
    let mut sim = Simulation::new(quiet_config(13));
    let a = sim.add_node("a");
    sim.spawn(a, "sink", Box::new(Sink));
    sim.spawn(
        a,
        "closer",
        Box::new(Closer {
            target: Addr::new(a, Port(1)),
            observed: observed.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    let seen = observed.borrow().clone();
    match seen {
        Some(SysError::ClosedLocally(_)) => {}
        other => panic!("expected ClosedLocally, got {other:?}"),
    }
}

/// Writes one byte to the sink at each of a fixed series of instants.
struct StormSender {
    sink: Addr,
    id: u8,
    conn: Option<ConnId>,
    left: u32,
}

impl Process for StormSender {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.conn = Some(sys.connect(self.sink));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { .. } => {
                // Every sender fires at the same absolute instants, so the
                // sink sees its deliveries arrive in waves.
                let first = SimTime::from_millis(10).saturating_since(sys.now());
                sys.set_timer(first, 0);
            }
            Event::TimerFired { .. } => {
                if sys
                    .write(self.conn.expect("connected"), &[self.id])
                    .is_err()
                {
                    return; // the sink died
                }
                self.left -= 1;
                if self.left > 0 {
                    sys.set_timer(SimDuration::from_micros(300), 0);
                }
            }
            _ => {}
        }
    }
}

/// Reads whatever is readable and stays busy for 200 µs per byte, so the
/// notifies of a wave park behind one another.
struct StormSink {
    port: Port,
    received: Rc<RefCell<Vec<(SimTime, u8)>>>,
}

impl Process for StormSink {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(self.port).expect("listen");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("read");
            for &id in got.data.iter() {
                self.received.borrow_mut().push((sys.now(), id));
                sys.charge_cpu(SimDuration::from_micros(200));
            }
        }
    }
}

type Received = Rc<RefCell<Vec<(SimTime, u8)>>>;

/// Receive log, `events_processed` and final `now` of a storm run.
type StormRun = (Vec<(SimTime, u8)>, u64, SimTime);

/// A notify storm's world: twelve senders on two nodes, six writes each,
/// one busy sink; with the sink's pid and its receive log.
fn storm_world(scheduler: Box<dyn Scheduler>) -> (Simulation, ProcessId, Received) {
    let mut sim = Simulation::with_scheduler(quiet_config(15), scheduler);
    let hub = sim.add_node("hub");
    let edges = [sim.add_node("edge-a"), sim.add_node("edge-b")];
    let sink = Addr::new(hub, Port(7000));
    let received = Rc::new(RefCell::new(Vec::new()));
    let sink_pid = sim.spawn(
        hub,
        "sink",
        Box::new(StormSink {
            port: sink.port,
            received: received.clone(),
        }),
    );
    for id in 0..12u8 {
        sim.spawn(
            edges[id as usize % 2],
            "sender",
            Box::new(StormSender {
                sink,
                id,
                conn: None,
                left: 6,
            }),
        );
    }
    (sim, sink_pid, received)
}

/// A storm world run until its queue drains.
fn drain(mut sim: Simulation, received: &Received) -> StormRun {
    assert_eq!(sim.run_until(SimTime::from_secs(1)), RunOutcome::Idle);
    let log = received.borrow().clone();
    (log, sim.events_processed(), sim.now())
}

fn notify_storm(scheduler: Box<dyn Scheduler>) -> StormRun {
    let (sim, _, received) = storm_world(scheduler);
    drain(sim, &received)
}

/// Mid-storm: the sink's backlog is long.
const MID_STORM: SimTime = SimTime::from_millis(38);

/// The storm with its sink killed at [`MID_STORM`]: the drained run, and
/// the events pending in the wheel at the kill.
fn killed_storm(scheduler: Box<dyn Scheduler>) -> (StormRun, u64) {
    let (mut sim, sink, received) = storm_world(scheduler);
    sim.run_until(MID_STORM);
    let pending = sim.kernel_stats().pending_events;
    sim.kill_process(sink, "mid-storm");
    (drain(sim, &received), pending)
}

#[test]
fn notify_storm_is_identical_under_fifo_choosing_and_gated_schedulers() {
    let fifo = notify_storm(Box::new(FifoScheduler));
    let (log, events, _) = &fifo;
    assert_eq!(log.len(), 72, "every write is received");
    // The storm takes 181 actions: 13 starts, a SYN and a SYN-ACK per
    // sender, 72 timers and 72 deliveries. Each notifies one process at
    // most once, and a parked notify counts once, when it reaches its
    // process: at most twice the actions. A notify that counted again at
    // every service completion ahead of it cost more than 72 × 8.
    let actions = 13 + 2 * 12 + 72 + 72;
    assert!(
        actions < *events && *events <= 2 * actions,
        "{events} events for {actions} actions"
    );

    // Always taking candidate 0 is the FIFO order, found by the choosing
    // path: individually queued notifies instead of a ready list.
    let choosing = notify_storm(Box::new(ReplayScheduler::new(
        GateCfg::default(),
        Vec::new(),
    )));
    assert_eq!(choosing, fifo);

    // A gate that never opens, and one that opens mid-storm: the closed
    // stretch dispatches the popped head directly — with parked notifies
    // still queued one by one, so the event count is FIFO's too — and
    // joins the pooled stretch without a seam.
    assert!(
        log.first().is_some_and(|(at, _)| *at < MID_STORM)
            && log.last().is_some_and(|(at, _)| *at > MID_STORM),
        "the storm does not straddle {MID_STORM}"
    );
    for gate in [
        GateCfg {
            max_steps: 0,
            ..GateCfg::default()
        },
        GateCfg {
            window_start: MID_STORM,
            ..GateCfg::default()
        },
    ] {
        let gated = notify_storm(Box::new(ReplayScheduler::new(gate, Vec::new())));
        assert_eq!(gated, fifo, "gate {gate:?}");
    }
}

/// A sink killed with notifies parked: they are dropped uncounted, its
/// pending wake does nothing, and the schedulers still agree.
#[test]
fn a_process_killed_with_notifies_parked_drops_them_under_every_scheduler() {
    let (fifo, fifo_pending) = killed_storm(Box::new(FifoScheduler));
    let (log, _, _) = &fifo;
    assert!(log.len() < 72, "the kill lost no write");
    assert!(
        log.iter().all(|(at, _)| *at <= MID_STORM),
        "received after its death"
    );
    let closed = GateCfg {
        max_steps: 0,
        ..GateCfg::default()
    };
    let (gated, gated_pending) = killed_storm(Box::new(ReplayScheduler::new(closed, Vec::new())));
    // Without a gate the parked notifies wait behind one wake; under one
    // each is an entry of its own.
    assert!(
        gated_pending > fifo_pending,
        "no notifies parked at the kill"
    );
    assert_eq!(gated, fifo);
    let (choosing, _) = killed_storm(Box::new(ReplayScheduler::new(
        GateCfg::default(),
        Vec::new(),
    )));
    assert_eq!(choosing, fifo);
}

/// Picks candidate 0 and logs what it was asked: instant, ordinal, pool
/// size.
struct AskLog {
    gate: GateCfg,
    asked: Rc<RefCell<Vec<(SimTime, u64, usize)>>>,
}

impl Scheduler for AskLog {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        self.asked
            .borrow_mut()
            .push((cp.now, cp.step, cp.candidates.len()));
        0
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
    }
}

/// The kernel owns the gate: the scheduler is asked only at instants
/// inside the window, at most `max_steps` times, with consecutive
/// ordinals, and never about a pool of one. The storm (31–45 ms) ties
/// several deliveries and parked notifies at a time, so there is always
/// more to ask about: it is the budget, or the window, that ends the
/// asking.
#[test]
fn scheduler_is_asked_only_while_the_gate_is_open() {
    let fifo = notify_storm(Box::new(FifoScheduler));
    let window = (SimTime::from_millis(34), SimTime::from_millis(36));
    // (max_steps, calls expected): a budget the window outlasts is spent
    // to the last step; a window the budget outlasts closes it early.
    for (max_steps, calls) in [(5, 5..=5), (4096, 1..=4095)] {
        let gate = GateCfg {
            window_start: window.0,
            window_end: window.1,
            max_steps,
            slack: SimDuration::from_micros(50),
        };
        let asked = Rc::new(RefCell::new(Vec::new()));
        let scheduler = AskLog {
            gate,
            asked: asked.clone(),
        };
        let run = notify_storm(Box::new(scheduler));
        assert_eq!(run, fifo, "all-default picks are the FIFO order");
        let asked = asked.borrow();
        assert!(
            calls.contains(&asked.len()),
            "asked {} times under {gate:?}",
            asked.len()
        );
        for (i, &(now, step, candidates)) in asked.iter().enumerate() {
            assert!(window.0 <= now && now <= window.1, "asked at {now}");
            assert_eq!(step, i as u64);
            assert!(candidates >= 2, "asked about a pool of {candidates}");
        }
    }
}

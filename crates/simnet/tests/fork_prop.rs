//! A forked simulation is the simulation: equivalence and isolation of
//! [`Simulation::fork`], and its three typed refusals.
//!
//! For four small worlds — a ping-pong with a heartbeat timer, a fan-in
//! onto a busy sink (parked notifies: a ready list under FIFO, entries of
//! their own under a gate), jittered self-re-arming timers (every process
//! draws from its own random stream), and a backlog that a slow reader
//! nibbles at (its receive queue always holds a partly read head segment
//! and more behind it) — under FIFO and under a gate that opens right
//! after the split, and for arbitrary instants `a <= b`:
//!
//! * `run_until(a); run_until(b)` is `run_until(b)` — what every driver
//!   that advances a simulation in steps already assumes;
//! * `run_until(a); fork; run_until(b)` on the fork is both;
//! * running the fork changes nothing the parent can show, and the
//!   parent then runs on to the same result.
//!
//! "The same" is compared at `b` and again at a common later instant, so
//! that state a copy got wrong without it showing yet (a random stream,
//! a timer table) still has the time to show.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::Rng;

use simnet::{
    Addr, ByteRecord, ConnId, DecisionTrace, Event, FifoScheduler, ForkError, GateCfg, KernelStats,
    NodeId, NoiseModel, Port, Process, ProcessId, ReplayScheduler, Scheduler, SimConfig,
    SimDuration, SimTime, Simulation, SysApi,
};

const ECHO_PORT: Port = Port(7);
const SINK_PORT: Port = Port(9);
const NIBBLE_PORT: Port = Port(11);
const TAG: &str = "fork-prop";

fn forked<P: Process + Clone>(proc: &P) -> Option<Box<dyn Process>> {
    Some(Box::new(proc.clone()))
}

#[derive(Clone)]
struct Echo;

impl Process for Echo {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(ECHO_PORT).expect("listen");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("read");
            sys.count("echoed", 1);
            sys.write_bytes(conn, got.data).expect("echo");
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// Sends a growing message, waits for its echo, and repeats, with a
/// heartbeat timer alongside so replies and ticks tie.
#[derive(Clone)]
struct Pinger {
    echo: Addr,
    sent: u32,
}

impl Process for Pinger {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let conn = sys.connect(self.echo);
        sys.tag_conn(conn, TAG);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { conn } => {
                sys.write(conn, b"x").expect("first ping");
                sys.set_timer(SimDuration::from_micros(100), 0);
            }
            Event::DataReadable { conn } => {
                let _ = sys.read(conn, usize::MAX).expect("read");
                self.sent += 1;
                sys.count("pongs", 1);
                let ping = vec![b'x'; 1 + (self.sent as usize % 7)];
                sys.write(conn, &ping).expect("ping");
            }
            Event::TimerFired { .. } => {
                sys.set_timer(SimDuration::from_micros(100), 0);
            }
            _ => {}
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// Accepts everyone and is busy for a while after every read, so that
/// deliveries for it park.
#[derive(Clone)]
struct BusySink {
    read: u64,
}

impl Process for BusySink {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(SINK_PORT).expect("listen");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            self.read += sys.read(conn, 3).expect("read").data.len() as u64;
            sys.count("sink.reads", 1);
            sys.charge_cpu(SimDuration::from_micros(40));
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// Writes the next five bytes of a byte counter to the sink every
/// `period`.
#[derive(Clone)]
struct Blaster {
    sink: Addr,
    period: SimDuration,
    conn: Option<ConnId>,
    next: u8,
}

impl Process for Blaster {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.conn = Some(sys.connect(self.sink));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let (Event::ConnEstablished { .. } | Event::TimerFired { .. }, Some(conn)) =
            (ev, self.conn)
        {
            let segment: Vec<u8> = (0..5).map(|i| self.next.wrapping_add(i)).collect();
            self.next = self.next.wrapping_add(5);
            sys.write(conn, &segment).expect("blast");
            sys.count("blast.bytes", 5);
            sys.set_timer(self.period, 0);
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// Re-arms a timer at a delay drawn from its own random stream, and
/// cancels every third one in favour of a replacement.
#[derive(Clone)]
struct Ticker {
    fired: u64,
}

impl Ticker {
    fn arm(&mut self, sys: &mut dyn SysApi) {
        let delay = SimDuration::from_micros(sys.rng().gen_range(20..400));
        let timer = sys.set_timer(delay, self.fired);
        if self.fired % 3 == 2 {
            sys.cancel_timer(timer);
            sys.set_timer(delay + delay, self.fired);
        }
    }
}

impl Process for Ticker {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.arm(sys);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { .. } = ev {
            self.fired += 1;
            sys.count("ticks", 1);
            self.arm(sys);
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// Reads three bytes every 97 µs, whatever has arrived — slower than a
/// blaster every 50 µs writes, so its queue holds a partly read segment
/// and more behind it — and checks that they continue the blaster's
/// counter.
#[derive(Clone)]
struct Nibbler {
    conn: Option<ConnId>,
    expect: u8,
}

impl Process for Nibbler {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(NIBBLE_PORT).expect("listen");
        sys.set_timer(SimDuration::from_micros(97), 0);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::Accepted { conn, .. } => self.conn = Some(conn),
            Event::TimerFired { .. } => {
                if let Some(conn) = self.conn {
                    let got = sys.read(conn, 3).expect("read").data;
                    for &b in got.iter() {
                        if b != self.expect {
                            sys.count("nibble.out_of_order", 1);
                        }
                        self.expect = b.wrapping_add(1);
                    }
                    sys.count("nibble.bytes", got.len() as u64);
                }
                sys.set_timer(SimDuration::from_micros(97), 0);
            }
            _ => {}
        }
    }
    fn fork(&self) -> Option<Box<dyn Process>> {
        forked(self)
    }
}

/// A process that keeps the default [`Process::fork`].
struct Stubborn;

impl Process for Stubborn {
    fn on_start(&mut self, _sys: &mut dyn SysApi) {}
    fn on_event(&mut self, _sys: &mut dyn SysApi, _ev: Event) {}
}

#[derive(Clone, Copy, Debug)]
enum World {
    PingPong,
    FanIn,
    Timers,
    Backlog,
}

/// `world` under `scheduler`, every process spawned and nothing run, at
/// the kernel trace level so every dispatch is in the trace.
fn build(world: World, scheduler: Box<dyn Scheduler>) -> Simulation {
    let cfg = SimConfig {
        seed: 2004,
        noise: NoiseModel::none(),
        launch_latency: SimDuration::from_micros(50),
        ..SimConfig::default()
    };
    let mut sim = Simulation::with_scheduler(cfg, scheduler);
    sim.set_trace_level(obs::TraceLevel::Kernel);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    match world {
        World::PingPong => {
            sim.spawn(a, "echo", Box::new(Echo));
            let echo = Addr::new(a, ECHO_PORT);
            sim.spawn(b, "pinger", Box::new(Pinger { echo, sent: 0 }));
        }
        World::FanIn => {
            sim.spawn(a, "sink", Box::new(BusySink { read: 0 }));
            let sink = Addr::new(a, SINK_PORT);
            for i in 0..6u64 {
                let period = SimDuration::from_micros(150 + 10 * i);
                let node = if i % 2 == 0 { a } else { b };
                let blaster = Blaster {
                    sink,
                    period,
                    conn: None,
                    next: 0,
                };
                sim.spawn(node, "blaster", Box::new(blaster));
            }
        }
        World::Timers => {
            for _ in 0..4 {
                sim.spawn(a, "ticker", Box::new(Ticker { fired: 0 }));
            }
        }
        World::Backlog => {
            sim.spawn(
                a,
                "nibbler",
                Box::new(Nibbler {
                    conn: None,
                    expect: 0,
                }),
            );
            let blaster = Blaster {
                sink: Addr::new(a, NIBBLE_PORT),
                period: SimDuration::from_micros(50),
                conn: None,
                next: 0,
            };
            sim.spawn(b, "blaster", Box::new(blaster));
        }
    }
    sim
}

/// Everything a simulation can show of itself.
#[derive(Debug, PartialEq)]
struct Observed {
    now: SimTime,
    events_processed: u64,
    counters: Vec<(&'static str, u64)>,
    bytes: Vec<(&'static str, Vec<ByteRecord>)>,
    trace: Vec<obs::TraceEvent>,
    stats: KernelStats,
    live: Vec<ProcessId>,
}

fn observe(sim: &Simulation) -> Observed {
    Observed {
        now: sim.now(),
        events_processed: sim.events_processed(),
        counters: sim.metrics().counters().collect(),
        bytes: sim
            .metrics()
            .byte_tags()
            .map(|tag| (tag, sim.metrics().byte_records(tag).collect()))
            .collect(),
        trace: sim.trace().to_vec(),
        stats: sim.kernel_stats(),
        live: sim.live_processes(),
    }
}

/// The scheduler of a run split at `a`: FIFO, or default picks behind a
/// gate that opens right after `a` (so nothing before the split consults
/// it, and everything after pools).
fn scheduler(gated: bool, a: SimTime) -> Box<dyn Scheduler> {
    if !gated {
        return Box::new(FifoScheduler);
    }
    let gate = GateCfg {
        window_start: a + SimDuration::from_nanos(1),
        slack: SimDuration::from_micros(200),
        ..GateCfg::default()
    };
    Box::new(ReplayScheduler::from_trace(&DecisionTrace::empty(gate)))
}

const END: SimTime = SimTime::from_millis(8);

fn split_fork_and_straight_runs_agree(
    world: World,
    gated: bool,
    a: SimTime,
    b: SimTime,
) -> Result<(), TestCaseError> {
    let mut straight = build(world, scheduler(gated, a));
    straight.run_until(b);
    let straight_at_b = observe(&straight);
    straight.run_until(END);
    let straight_at_end = observe(&straight);

    let mut parent = build(world, scheduler(gated, a));
    parent.run_until(a);
    let parent_at_a = observe(&parent);
    let mut fork = parent
        .fork(scheduler(gated, a))
        .expect("every process forks");
    prop_assert_eq!(&observe(&fork), &parent_at_a);

    fork.run_until(b);
    prop_assert_eq!(&observe(&fork), &straight_at_b);
    fork.run_until(END);
    prop_assert_eq!(&observe(&fork), &straight_at_end);
    // The fork ran to the end; the parent has not moved.
    prop_assert_eq!(&observe(&parent), &parent_at_a);

    parent.run_until(b);
    prop_assert_eq!(&observe(&parent), &straight_at_b);
    parent.run_until(END);
    prop_assert_eq!(&observe(&parent), &straight_at_end);
    // Nor has the parent's run moved the fork.
    prop_assert_eq!(&observe(&fork), &straight_at_end);
    Ok(())
}

/// Two instants in the first 6 ms, in order.
fn arb_split() -> impl Strategy<Value = (SimTime, SimTime)> {
    (0u64..6_000_000, 0u64..6_000_000)
        .prop_map(|(x, y)| (SimTime::from_nanos(x.min(y)), SimTime::from_nanos(x.max(y))))
}

proptest! {
    #[test]
    fn ping_pong_survives_splitting_and_forking(split in arb_split(), gated in any::<bool>()) {
        split_fork_and_straight_runs_agree(World::PingPong, gated, split.0, split.1)?;
    }

    #[test]
    fn fan_in_survives_splitting_and_forking(split in arb_split(), gated in any::<bool>()) {
        split_fork_and_straight_runs_agree(World::FanIn, gated, split.0, split.1)?;
    }

    #[test]
    fn timers_survive_splitting_and_forking(split in arb_split(), gated in any::<bool>()) {
        split_fork_and_straight_runs_agree(World::Timers, gated, split.0, split.1)?;
    }

    #[test]
    fn a_backlog_survives_splitting_and_forking(split in arb_split(), gated in any::<bool>()) {
        split_fork_and_straight_runs_agree(World::Backlog, gated, split.0, split.1)?;
    }
}

/// A fork taken while a receive queue holds a partly read head segment
/// with more segments behind it reads on from exactly where its parent
/// was: the same bytes, in order, as a run that was never forked.
#[test]
fn a_fork_whose_queue_holds_a_head_segment_reads_on_in_order() {
    let counter = |sim: &Simulation, name| sim.metrics().counter(name);
    let split = SimTime::from_nanos(3_200_000);
    let mut parent = build(World::Backlog, Box::new(FifoScheduler));
    parent.run_until(split);
    let read = counter(&parent, "nibble.bytes");
    // Three bytes a read of five-byte segments: the head is split
    // whenever the count is not a multiple of five, and far more has been
    // written than read.
    assert_ne!(read % 5, 0, "the head segment is partly read at the split");
    assert!(
        counter(&parent, "blast.bytes") > read + 40,
        "segments queue behind the head"
    );

    let mut fork = parent
        .fork(Box::new(FifoScheduler))
        .expect("every process forks");
    fork.run_until(END);
    let mut straight = build(World::Backlog, Box::new(FifoScheduler));
    straight.run_until(END);
    assert_eq!(observe(&fork), observe(&straight));
    assert!(counter(&fork, "nibble.bytes") > read);
    assert_eq!(counter(&fork, "nibble.out_of_order"), 0);
}

/// The worlds above do what their names say, so the properties are not
/// vacuous: bytes are echoed, notifies park behind the busy sink and
/// reach it, timers fire, and the gated runs do surface choice points.
#[test]
fn the_worlds_exercise_what_they_claim() {
    let run = |world, gated| {
        let mut sim = build(world, scheduler(gated, SimTime::ZERO));
        sim.run_until(END);
        sim
    };
    assert!(run(World::PingPong, false).metrics().counter("echoed") > 10);
    assert!(run(World::Timers, false).metrics().counter("ticks") > 40);
    let fan_in = run(World::FanIn, false);
    assert!(fan_in.metrics().counter("sink.reads") > 100);
    let parked = fan_in
        .trace()
        .iter()
        .filter(|e| e.kind == obs::EventKind::Dispatch { action: "notify" })
        .count();
    assert!(parked > 50, "only {parked} parked notifies");

    struct Counting(GateCfg, std::rc::Rc<std::cell::Cell<u64>>);
    impl Scheduler for Counting {
        fn choose(&mut self, _cp: &simnet::ChoicePoint) -> usize {
            self.1.set(self.1.get() + 1);
            0
        }
        fn gate(&self) -> Option<GateCfg> {
            Some(self.0)
        }
    }
    let gate = scheduler(true, SimTime::ZERO).gate().expect("gated");
    for world in [World::PingPong, World::FanIn, World::Timers, World::Backlog] {
        let choices = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sim = build(world, Box::new(Counting(gate, choices.clone())));
        sim.run_until(END);
        assert!(
            choices.get() > 5,
            "{world:?}: {} choice points",
            choices.get()
        );
    }
}

#[test]
fn a_live_unforkable_process_is_named_and_a_dead_one_is_skipped() {
    let mut sim = build(World::Timers, Box::new(FifoScheduler));
    let node = NodeId::from_index(1);
    let first = sim.spawn(node, "stubborn-0", Box::new(Stubborn));
    let second = sim.spawn(node, "stubborn-1", Box::new(Stubborn));
    sim.run_until(SimTime::from_millis(1));
    let refused = sim.fork(Box::new(FifoScheduler)).err();
    assert_eq!(
        refused,
        Some(ForkError::Unforkable {
            pid: first,
            label: "stubborn-0".to_string(),
        })
    );
    let message = refused.expect("refused").to_string();
    assert!(message.contains("stubborn-0") && message.contains(&first.to_string()));

    sim.kill_process(first, "test");
    let refused = sim.fork(Box::new(FifoScheduler)).err();
    assert!(matches!(refused, Some(ForkError::Unforkable { pid, .. }) if pid == second));
    sim.kill_process(second, "test");
    let fork = sim
        .fork(Box::new(FifoScheduler))
        .expect("only forkable processes live");
    assert_eq!(observe(&fork), observe(&sim));
}

#[test]
fn a_scheduler_with_another_gate_is_refused() {
    let gated = || scheduler(true, SimTime::from_millis(1));
    let other_gate = || scheduler(true, SimTime::from_millis(2));
    let mut sim = build(World::PingPong, gated());
    sim.run_until(SimTime::from_millis(1));
    assert_eq!(
        sim.fork(Box::new(FifoScheduler)).err(),
        Some(ForkError::GateMismatch)
    );
    assert_eq!(sim.fork(other_gate()).err(), Some(ForkError::GateMismatch));
    assert!(sim.fork(gated()).is_ok());

    let fifo = build(World::PingPong, Box::new(FifoScheduler));
    assert_eq!(fifo.fork(gated()).err(), Some(ForkError::GateMismatch));
    assert!(ForkError::GateMismatch.to_string().contains("gate"));
}

#[test]
fn a_simulation_past_its_first_choice_point_is_refused() {
    let gated = || scheduler(true, SimTime::from_millis(1));
    let mut sim = build(World::FanIn, gated());
    sim.run_until(SimTime::from_millis(1));
    assert!(sim.fork(gated()).is_ok(), "the gate has not opened yet");
    sim.run_until(SimTime::from_millis(3));
    assert_eq!(
        sim.fork(gated()).err(),
        Some(ForkError::ChoicePointConsumed)
    );
    assert!(ForkError::ChoicePointConsumed
        .to_string()
        .contains("choice point"));
}

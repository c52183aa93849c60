//! Kernel tests for the link-partition primitive: parked traffic resumes
//! in order on heal, handshakes survive, and determinism is preserved.

use std::cell::RefCell;
use std::rc::Rc;

use simnet::*;

/// Listens on port 9 and records every byte received, in order.
struct Sink {
    lsn: Option<ListenerId>,
    got: Rc<RefCell<Vec<u8>>>,
}

impl Process for Sink {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.lsn = Some(sys.listen(Port(9)).expect("port free"));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let read = sys.read(conn, usize::MAX).expect("open");
            self.got.borrow_mut().extend_from_slice(&read.data);
        }
    }
}

/// Connects to node 0 port 9 and writes one labelled byte per timer tick.
struct Ticker {
    conn: Option<ConnId>,
    next: u8,
    refused: Rc<RefCell<u32>>,
}

impl Process for Ticker {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.conn = Some(sys.connect(Addr::new(NodeId::from_index(0), Port(9))));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { .. } | Event::TimerFired { .. } => {
                if let Some(conn) = self.conn {
                    let _ = sys.write(conn, &[self.next]);
                    self.next += 1;
                    if self.next < 8 {
                        sys.set_timer(SimDuration::from_millis(10), 1);
                    }
                }
            }
            Event::ConnRefused { .. } => {
                *self.refused.borrow_mut() += 1;
            }
            _ => {}
        }
    }
}

type TwoNodeSim = (
    Simulation,
    NodeId,
    NodeId,
    Rc<RefCell<Vec<u8>>>,
    Rc<RefCell<u32>>,
);

fn two_node_sim() -> TwoNodeSim {
    let mut sim = Simulation::new(SimConfig {
        noise: NoiseModel::none(),
        ..SimConfig::default()
    });
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let got = Rc::new(RefCell::new(Vec::new()));
    let refused = Rc::new(RefCell::new(0));
    sim.spawn(
        a,
        "sink",
        Box::new(Sink {
            lsn: None,
            got: got.clone(),
        }),
    );
    sim.spawn(
        b,
        "ticker",
        Box::new(Ticker {
            conn: None,
            next: 0,
            refused: refused.clone(),
        }),
    );
    (sim, a, b, got, refused)
}

#[test]
fn partition_parks_data_and_heal_preserves_fifo() {
    let (mut sim, a, b, got, _) = two_node_sim();
    // Let the handshake and a couple of writes through.
    sim.run_until(SimTime::from_millis(60));
    let before = got.borrow().len();
    assert!(before >= 2, "expected some delivery before the cut");
    // Sever the link; writes continue but nothing arrives.
    sim.partition(a, b);
    assert!(sim.link_severed(a, b));
    sim.run_until(SimTime::from_millis(120));
    assert_eq!(got.borrow().len(), before, "no delivery across a cut link");
    // Heal: everything parked arrives, in send order.
    sim.heal(a, b);
    sim.run_until(SimTime::from_millis(300));
    let bytes = got.borrow().clone();
    assert_eq!(bytes, (0..8).collect::<Vec<u8>>(), "FIFO across the heal");
}

#[test]
fn partition_parks_handshake_until_heal() {
    let (mut sim, a, b, got, refused) = two_node_sim();
    // Cut the link before anything runs: the SYN parks.
    sim.partition(a, b);
    sim.run_until(SimTime::from_millis(100));
    assert!(got.borrow().is_empty());
    assert_eq!(*refused.borrow(), 0, "a cut link is not a refusal");
    sim.heal_all();
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(got.borrow().clone(), (0..8).collect::<Vec<u8>>());
}

#[test]
fn heal_after_peer_death_delivers_eof_not_hang() {
    let (mut sim, a, b, _got, _) = two_node_sim();
    sim.run_until(SimTime::from_millis(60));
    sim.partition(a, b);
    // Kill the sink while the link is down; its EOF parks.
    let sink = sim
        .live_processes()
        .into_iter()
        .find(|p| sim.process_label(*p) == "sink")
        .expect("sink alive");
    sim.kill_process(sink, "chaos");
    sim.run_until(SimTime::from_millis(120));
    sim.heal(a, b);
    sim.run_until(SimTime::from_millis(200));
    // The ticker's endpoint has observed EOF: a write now fails with a
    // typed error rather than silently vanishing.
    assert!(sim
        .trace()
        .iter()
        .any(|ev| ev.kind == obs::EventKind::Exit { crashed: true }));
}

#[test]
fn partition_is_deterministic() {
    let run = || {
        let (mut sim, a, b, got, _) = two_node_sim();
        sim.run_until(SimTime::from_millis(55));
        sim.partition(a, b);
        sim.run_until(SimTime::from_millis(140));
        sim.heal(a, b);
        sim.run_until(SimTime::from_millis(400));
        let bytes = got.borrow().clone();
        (bytes, sim.events_processed())
    };
    assert_eq!(run(), run());
}

#[test]
fn oneway_cut_blocks_only_the_cut_direction() {
    // Data travels ticker (node b) → sink (node a). Cutting a → b leaves
    // that flow untouched; cutting b → a parks it.
    let (mut sim, a, b, got, _) = two_node_sim();
    sim.run_until(SimTime::from_millis(60));
    let before = got.borrow().len();
    sim.partition_oneway(a, b);
    assert!(sim.link_blocked(a, b));
    assert!(!sim.link_blocked(b, a));
    assert!(!sim.link_severed(a, b), "oneway cut is not symmetric");
    sim.run_until(SimTime::from_millis(300));
    assert_eq!(
        got.borrow().clone(),
        (0..8).collect::<Vec<u8>>(),
        "reverse direction must keep flowing"
    );
    assert!(got.borrow().len() > before);
}

#[test]
fn oneway_cut_parks_data_until_healed() {
    let (mut sim, a, b, got, _) = two_node_sim();
    sim.run_until(SimTime::from_millis(60));
    let before = got.borrow().len();
    sim.partition_oneway(b, a);
    sim.run_until(SimTime::from_millis(120));
    assert_eq!(got.borrow().len(), before, "cut direction parks data");
    sim.heal_oneway(b, a);
    sim.run_until(SimTime::from_millis(300));
    assert_eq!(got.borrow().clone(), (0..8).collect::<Vec<u8>>());
}

#[test]
fn oneway_cut_parks_synack_half_open() {
    // Cut a → b before anything runs: the SYN (b → a) gets through, the
    // SYN-ACK parks — a half-open connection until the direction heals.
    let (mut sim, a, b, got, refused) = two_node_sim();
    sim.partition_oneway(a, b);
    sim.run_until(SimTime::from_millis(100));
    assert!(got.borrow().is_empty(), "no established conn, no data");
    assert_eq!(*refused.borrow(), 0, "a cut link is not a refusal");
    sim.heal_all();
    assert!(!sim.link_blocked(a, b), "heal_all clears directional cuts");
    sim.run_until(SimTime::from_millis(400));
    assert_eq!(got.borrow().clone(), (0..8).collect::<Vec<u8>>());
}

#[test]
fn link_jitter_delays_but_preserves_fifo_and_determinism() {
    let run = |jitter_ms: u64| {
        let (mut sim, a, b, got, _) = two_node_sim();
        sim.set_link_jitter(a, b, SimDuration::from_millis(jitter_ms));
        sim.run_until(SimTime::from_millis(250));
        sim.set_link_jitter(a, b, SimDuration::ZERO);
        sim.run_until(SimTime::from_millis(600));
        let bytes = got.borrow().clone();
        (bytes, sim.now())
    };
    let (plain, _) = run(0);
    assert_eq!(plain, (0..8).collect::<Vec<u8>>());
    let (jittered, _) = run(40);
    assert_eq!(
        jittered,
        (0..8).collect::<Vec<u8>>(),
        "jitter reorders nothing (per-connection FIFO)"
    );
    assert_eq!(run(40), run(40), "jitter draws are seeded");
}

#[test]
fn loss_model_can_change_mid_run() {
    let (mut sim, _a, _b, got, _) = two_node_sim();
    sim.run_until(SimTime::from_millis(30));
    sim.set_loss(LossModel {
        probability: 1.0,
        retransmit_delay: SimDuration::from_millis(50),
    });
    sim.run_until(SimTime::from_millis(40));
    sim.set_loss(LossModel::none());
    sim.run_until(SimTime::from_millis(500));
    // Despite the burst, everything still arrives (loss = delay here).
    assert_eq!(got.borrow().clone(), (0..8).collect::<Vec<u8>>());
}

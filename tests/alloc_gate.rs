//! A closed gate costs nothing: a choosing scheduler whose gate never
//! opens drives the kernel through exactly the allocations
//! [`FifoScheduler`] does.
//!
//! The kernel tests the gate before it pools anything, so while the gate
//! is closed there is no pool `Vec`, no candidate list and no
//! `ChoicePoint` to allocate. Wall time cannot pin that on a shared
//! host; the allocator's call count can, exactly.
//!
//! The counting allocator is `tests/common`'s, which counts per thread,
//! so the harness running other tests in parallel does not disturb it.

mod common;

use simnet::{
    Addr, ConnId, Event, FifoScheduler, GateCfg, NoiseModel, Port, Process, ReplayScheduler,
    Scheduler, SimConfig, SimDuration, SimTime, Simulation, SysApi,
};

const ROUND_TRIPS: u32 = 1_000;

struct Echo;

impl Process for Echo {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        sys.listen(Port(7)).expect("listen");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::DataReadable { conn } = ev {
            let got = sys.read(conn, usize::MAX).expect("read");
            sys.write(conn, &got.data).expect("echo");
        }
    }
}

/// Sends one byte, waits for its echo, and repeats. A heartbeat timer
/// runs alongside, so replies and ticks tie and a choosing kernel has
/// pools to build.
struct Pinger {
    echo: Addr,
    conn: Option<ConnId>,
    left: u32,
}

impl Process for Pinger {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.conn = Some(sys.connect(self.echo));
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        match ev {
            Event::ConnEstablished { conn } => {
                sys.write(conn, b"x").expect("first ping");
                sys.set_timer(SimDuration::from_micros(100), 0);
            }
            Event::DataReadable { conn } => {
                let _ = sys.read(conn, usize::MAX).expect("read");
                self.left -= 1;
                if self.left > 0 {
                    sys.write(conn, b"x").expect("ping");
                }
            }
            Event::TimerFired { .. } if self.left > 0 => {
                sys.set_timer(SimDuration::from_micros(100), 0);
            }
            _ => {}
        }
    }
}

/// Allocator calls and kernel events of the round trips alone: the
/// simulation is built and its processes spawned before counting starts
/// (boxing the scheduler is set-up, and only a non-zero-sized one
/// allocates).
fn round_trips(scheduler: Box<dyn Scheduler>) -> (u64, u64) {
    let mut sim = Simulation::with_scheduler(
        SimConfig {
            seed: 21,
            noise: NoiseModel::none(),
            ..SimConfig::default()
        },
        scheduler,
    );
    let node = sim.add_node("host");
    sim.spawn(node, "echo", Box::new(Echo));
    sim.spawn(
        node,
        "pinger",
        Box::new(Pinger {
            echo: Addr::new(node, Port(7)),
            conn: None,
            left: ROUND_TRIPS,
        }),
    );
    let (_, spent) = common::tally(|| sim.run_until(SimTime::from_secs(60)));
    (spent.calls, sim.events_processed())
}

#[test]
fn a_never_open_gate_allocates_exactly_what_fifo_does() {
    let (fifo_allocs, fifo_events) = round_trips(Box::new(FifoScheduler));
    assert!(
        fifo_events >= 2 * u64::from(ROUND_TRIPS),
        "the round trips did not run: {fifo_events} events"
    );

    let gate = |max_steps: u64| GateCfg {
        max_steps,
        slack: SimDuration::from_millis(1),
        ..GateCfg::default()
    };
    let closed = round_trips(Box::new(ReplayScheduler::new(gate(0), Vec::new())));
    assert_eq!(closed, (fifo_allocs, fifo_events));

    // The same scheduler with its gate open does pool, and pays for it on
    // every round trip — the workload has ties, so the equality above is
    // not vacuous.
    let (open_allocs, open_events) =
        round_trips(Box::new(ReplayScheduler::new(gate(u64::MAX), Vec::new())));
    assert_eq!(open_events, fifo_events);
    assert!(
        open_allocs > fifo_allocs + u64::from(ROUND_TRIPS),
        "open gate: {open_allocs} allocations, FIFO: {fifo_allocs}"
    );
}

//! A closed gate costs nothing: a choosing scheduler whose gate never
//! opens drives the kernel through exactly the allocations
//! [`FifoScheduler`] does.
//!
//! The kernel tests the gate before it pools anything, so while the gate
//! is closed there is no pool `Vec`, no candidate list and no
//! `ChoicePoint` to allocate. Wall time cannot pin that on a shared
//! host; the allocator's call count can, exactly.
//!
//! The counting allocator lives in this test binary only (the pattern of
//! `tests/hostile_inputs.rs`) and counts per thread, so the
//! harness running other tests in parallel does not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simnet::{
    Addr, ConnId, Event, FifoScheduler, GateCfg, NoiseModel, Port, Process, ReplayScheduler,
    Scheduler, SimConfig, SimDuration, SimTime, Simulation, SysApi,
};

struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn book() {
    // `try_with`: a thread's last allocations can come after its
    // thread-locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches one
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book();
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
    let before = ALLOCS.with(Cell::get);
    sim.run_until(SimTime::from_secs(60));
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs, sim.events_processed())
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

//! # simnet — deterministic discrete-event network/OS substrate
//!
//! This crate replaces the physical testbed of *Proactive Recovery in
//! Distributed CORBA Applications* (Pertet & Narasimhan, DSN 2004): five
//! Emulab nodes running Linux, TCP/IP and the TAO ORB. It provides:
//!
//! * a deterministic event-driven kernel ([`Simulation`]) with simulated
//!   time ([`SimTime`], [`SimDuration`]),
//! * nodes, processes ([`Process`]) and a syscall-shaped process interface
//!   ([`SysApi`]) mirroring the eight UNIX calls the paper's interceptor
//!   overrides,
//! * reliable ordered byte-stream connections with TCP-like semantics
//!   (handshake, refusal, EOF on close/crash),
//! * calibrated latency / OS-noise / loss models ([`LatencyModel`],
//!   [`NoiseModel`], [`LossModel`]), and
//! * measurement infrastructure ([`Metrics`]).
//!
//! Everything above this crate — GIOP, the ORB, group communication, MEAD —
//! is ordinary protocol code written against [`SysApi`].
//!
//! ## Example
//!
//! A process that answers every received byte with two bytes:
//!
//! ```
//! use simnet::*;
//!
//! struct Echo { lsn: Option<ListenerId> }
//! impl Process for Echo {
//!     fn on_start(&mut self, sys: &mut dyn SysApi) {
//!         self.lsn = Some(sys.listen(Port(9)).expect("port free"));
//!     }
//!     fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
//!         if let Event::DataReadable { conn } = ev {
//!             let got = sys.read(conn, usize::MAX).expect("open");
//!             let reply = vec![b'!'; got.data.len() * 2];
//!             let _ = sys.write(conn, &reply);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(SimConfig::default());
//! let node = sim.add_node("a");
//! sim.spawn(node, "echo", Box::new(Echo { lsn: None }));
//! sim.run_until(SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
mod latency;
mod metrics;
mod process;
mod recv_queue;
mod rng;
pub mod sched;
mod sim;
mod table;
pub mod testkit;
mod time;
mod wheel;

pub use error::{ForkError, SysError};
pub use ids::{Addr, ConnId, ListenerId, NodeId, Port, ProcessId, TimerId};
pub use latency::{LatencyModel, LossModel, NoiseModel};
pub use metrics::{ByteRecord, Fnv, Metrics};
pub use process::{Event, ExitReason, Process, ProcessFactory, ReadOutcome, SysApi};
pub use recv_queue::RecvQueue;
pub use rng::SimRng;
pub use sched::{
    Candidate, CandidateKind, ChoicePoint, DecisionTrace, FifoScheduler, GateCfg, ReplayScheduler,
    Scheduler,
};
pub use sim::{KernelStats, RunOutcome, SimConfig, Simulation};
pub use table::{IdTable, Slab, SlotKey};
pub use time::{SimDuration, SimTime};
pub use wheel::TimingWheel;

//! The process model: event-driven state machines behind a syscall-shaped
//! interface.
//!
//! A simulated process implements [`Process`] and reacts to [`Event`]s the
//! kernel delivers (timer fires, connection establishment, readable data,
//! peer EOF). All its effects flow through the [`SysApi`] context, which is
//! deliberately shaped like the eight UNIX calls the paper's interceptor
//! overrides (`socket`/`connect`/`listen`/`accept`/`read`/`writev`/`close`/
//! `select`): `connect`, `listen`, `read`, `write` and `close` appear
//! directly; `accept` and `select` are subsumed by the event loop
//! ([`Event::Accepted`] and [`Event::DataReadable`]).
//!
//! Because the whole API is a trait, MEAD's interceptor can wrap a process
//! transparently — exactly the library-interpositioning trick of the paper —
//! by implementing [`SysApi`] on a façade that filters reads and writes
//! before delegating to the real kernel context.

use std::any::Any;

use bytes::Bytes;

use crate::error::SysError;
use crate::ids::{Addr, ConnId, ListenerId, NodeId, Port, ProcessId, TimerId};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// An event delivered to a process by the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A timer set with [`SysApi::set_timer`] fired. `token` is the value
    /// the process supplied, so it can multiplex many logical timers.
    TimerFired {
        /// The fired timer.
        timer: TimerId,
        /// Caller-chosen discriminator.
        token: u64,
    },
    /// An outbound [`SysApi::connect`] completed; the connection is now
    /// writable.
    ConnEstablished {
        /// The connection originally returned by `connect`.
        conn: ConnId,
    },
    /// An outbound [`SysApi::connect`] failed: nothing was listening at the
    /// target address (cf. `ECONNREFUSED`). This is how clients holding a
    /// *stale* object reference to a dead replica discover their mistake.
    ConnRefused {
        /// The connection originally returned by `connect`.
        conn: ConnId,
    },
    /// A listener accepted an inbound connection.
    Accepted {
        /// The listener that matched.
        listener: ListenerId,
        /// The freshly created server-side endpoint.
        conn: ConnId,
        /// The connecting process's node (source address).
        peer_node: NodeId,
    },
    /// New bytes are available on `conn`; drain them with [`SysApi::read`].
    DataReadable {
        /// The readable connection.
        conn: ConnId,
    },
    /// The peer closed the connection or died; after draining buffered data,
    /// reads will report EOF. This is the signal MEAD and the reactive
    /// schemes use for crash detection.
    PeerClosed {
        /// The half-closed connection.
        conn: ConnId,
    },
}

/// The result of a [`SysApi::read`]: any drained bytes plus whether the
/// stream has reached end-of-file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Bytes drained from the receive buffer (possibly empty).
    pub data: Bytes,
    /// `true` when the buffer is empty *and* the peer has closed, i.e. a
    /// `read()` returning 0 in UNIX terms.
    pub eof: bool,
}

/// Why a process terminated; recorded in the kernel trace and visible to
/// tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// Clean, voluntary shutdown (e.g. graceful rejuvenation hand-off).
    Graceful,
    /// A crash fault: resource exhaustion, injected kill, node failure.
    Crash(String),
}

/// A factory for a process to be spawned, used by the Recovery Manager to
/// launch fresh replicas.
pub type ProcessFactory = Box<dyn FnOnce() -> Box<dyn Process>>;

/// The syscall-shaped interface through which processes act on the world.
///
/// See the `process` module docs for how this maps onto the paper's eight
/// intercepted UNIX calls.
pub trait SysApi {
    /// Current simulated time.
    fn now(&self) -> SimTime;
    /// The node hosting this process.
    fn my_node(&self) -> NodeId;
    /// This process's id.
    fn my_pid(&self) -> ProcessId;

    /// Starts listening on `port`.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::PortInUse`] if another live process already
    /// listens on this node/port.
    fn listen(&mut self, port: Port) -> Result<ListenerId, SysError>;

    /// Stops listening. Unknown ids are ignored (idempotent, like `close`).
    fn unlisten(&mut self, listener: ListenerId);

    /// Begins connecting to `addr`; completion is signalled later by
    /// [`Event::ConnEstablished`] or [`Event::ConnRefused`].
    fn connect(&mut self, addr: Addr) -> ConnId;

    /// Writes `bytes` to `conn`, handing the buffer itself to the kernel:
    /// it is delivered to the peer's receive queue without being copied.
    /// Delivery is reliable and ordered.
    ///
    /// # Errors
    ///
    /// Fails with [`SysError::NotEstablished`] before the handshake
    /// completes, or [`SysError::PeerClosed`]/[`SysError::ClosedLocally`]
    /// after either side closed.
    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError>;

    /// [`write_bytes`](Self::write_bytes) for a caller that holds only a
    /// slice: copies it into a fresh buffer first.
    ///
    /// # Errors
    ///
    /// As [`write_bytes`](Self::write_bytes).
    fn write(&mut self, conn: ConnId, bytes: &[u8]) -> Result<(), SysError> {
        self.write_bytes(conn, Bytes::copy_from_slice(bytes))
    }

    /// Drains up to `max` buffered bytes from `conn`.
    ///
    /// # Errors
    ///
    /// Fails with [`SysError::UnknownConn`] or [`SysError::ClosedLocally`].
    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError>;

    /// Closes our end of `conn`; the peer will observe EOF. Idempotent.
    fn close(&mut self, conn: ConnId);

    /// Arms a one-shot timer that fires `after` from now, delivering
    /// [`Event::TimerFired`] with `token`.
    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId;

    /// Cancels a pending timer. Unknown or fired ids are ignored.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Launches a new process on `node` after the configured process-launch
    /// latency (the Recovery Manager's "factory" operation in Figure 1).
    ///
    /// # Errors
    ///
    /// Returns [`SysError::NoSuchTarget`] if the node does not exist or has
    /// crashed.
    fn spawn(
        &mut self,
        node: NodeId,
        name: &str,
        factory: ProcessFactory,
    ) -> Result<ProcessId, SysError>;

    /// Terminates this process at the end of the current event handler.
    /// All its connections deliver EOF to their peers and its listeners are
    /// removed — exactly how a crashed CORBA server manifests to clients.
    fn exit(&mut self, reason: ExitReason);

    /// Models CPU work: the process is busy for `cost`, delaying both its
    /// subsequent sends in this handler and its next event delivery. This is
    /// how per-message processing costs (GIOP parsing, IOR table lookups,
    /// MEAD piggyback scanning) become visible in round-trip times.
    fn charge_cpu(&mut self, cost: SimDuration);

    /// Deterministic per-process random stream.
    fn rng(&mut self) -> &mut SimRng;

    /// Associates an accounting tag with a connection; all bytes written on
    /// it are recorded under this tag in [`Metrics`](crate::Metrics)
    /// (used for the paper's Figure 5 bandwidth measurement).
    fn tag_conn(&mut self, conn: ConnId, tag: &'static str);

    /// Increments a named metric counter in [`Metrics`](crate::Metrics).
    /// Keep a counter only for a reader (a report, an invariant, a test
    /// or the ledger): an occurrence is an [`emit`](Self::emit)ted trace
    /// event, and malformed input an `obs::EventKind::ProtocolError`.
    fn count(&mut self, counter: &'static str, delta: u64);

    /// Emits a typed observability event into the run's trace
    /// ([`obs::Recorder`]), stamped with the current simulated time and
    /// this process's node/pid. This is how the MEAD interceptors, the
    /// Recovery Manager and the ORB retry path report recovery phases —
    /// including the instants the application never sees, such as the
    /// client interceptor's transparent redirects, which the Table 1
    /// fail-over times are taken from.
    fn emit(&mut self, kind: obs::EventKind);
}

/// A simulated process: an event-driven state machine.
///
/// Implementations should be deterministic given the event sequence and
/// their [`SysApi::rng`] stream — the paper assumes "deterministic,
/// reproducible behavior of the application and the ORB".
///
/// Every process is `'static` ([`Any`]), which is what lets a driver look
/// at one through [`Simulation::process`](crate::Simulation::process).
pub trait Process: Any {
    /// Called once when the process starts running (after launch latency).
    fn on_start(&mut self, sys: &mut dyn SysApi);

    /// Called for every event addressed to this process.
    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event);

    /// Human-readable label used in traces.
    fn label(&self) -> &str {
        "process"
    }

    /// A copy of this process for a forked simulation
    /// ([`Simulation::fork`](crate::Simulation::fork)): equal in every
    /// field that can influence a later handler, and sharing no mutable
    /// state with `self` — an `Rc<Cell<..>>` both would write through
    /// must be duplicated, immutable data (configuration, a factory
    /// closure, [`Bytes`]) may be shared. `None`, the default, says the
    /// process cannot be copied; a simulation holding one alive refuses
    /// to fork.
    fn fork(&self) -> Option<Box<dyn Process>> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_outcome_default_is_empty_not_eof() {
        let r = ReadOutcome::default();
        assert!(r.data.is_empty());
        assert!(!r.eof);
    }

    #[test]
    fn exit_reason_equality() {
        assert_eq!(ExitReason::Graceful, ExitReason::Graceful);
        assert_ne!(
            ExitReason::Graceful,
            ExitReason::Crash("memory exhausted".into())
        );
    }
}

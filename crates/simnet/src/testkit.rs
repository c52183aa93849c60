//! Test double for [`SysApi`]: drive protocol state machines (ORBs,
//! interceptors, GCS clients) directly in unit tests, without a running
//! simulation.
//!
//! [`MockSys`] records every effect (writes, connects, closes, timers,
//! counters) and lets the test script incoming bytes per connection.
//!
//! ```
//! use simnet::testkit::MockSys;
//! use simnet::{Addr, NodeId, Port, SysApi};
//!
//! let mut sys = MockSys::new(NodeId::from_index(1));
//! let conn = sys.connect(Addr::new(NodeId::from_index(0), Port(80)));
//! sys.write(conn, b"hello").unwrap();
//! assert_eq!(sys.written(conn), b"hello");
//! ```

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::error::SysError;
use crate::ids::{Addr, ConnId, ListenerId, NodeId, Port, ProcessId, TimerId};
use crate::process::{ExitReason, ProcessFactory, ReadOutcome, SysApi};
use crate::recv_queue::RecvQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A recorded timer registration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MockTimer {
    /// The returned timer id.
    pub timer: TimerId,
    /// When it was set.
    pub set_at: SimTime,
    /// Requested delay.
    pub after: SimDuration,
    /// Caller token.
    pub token: u64,
    /// Whether `cancel_timer` was called on it.
    pub cancelled: bool,
}

#[derive(Debug, Default)]
struct MockConn {
    addr: Option<Addr>,
    written: Vec<u8>,
    incoming: RecvQueue,
    eof: bool,
    closed: bool,
}

/// The mock context. All ids are allocated locally; time advances only
/// via [`MockSys::advance`].
#[derive(Debug)]
pub struct MockSys {
    node: NodeId,
    pid: ProcessId,
    now: SimTime,
    rng: SimRng,
    next_id: u64,
    conns: BTreeMap<ConnId, MockConn>,
    listeners: Vec<(ListenerId, Port)>,
    timers: Vec<MockTimer>,
    counters: BTreeMap<&'static str, u64>,
    cpu_charged: SimDuration,
    exit: Option<ExitReason>,
    spawned: Vec<(NodeId, String)>,
    emitted: Vec<(SimTime, obs::EventKind)>,
}

impl MockSys {
    /// Creates a mock context for a process on `node`.
    pub fn new(node: NodeId) -> Self {
        MockSys {
            node,
            pid: ProcessId::default_for_tests(),
            now: SimTime::ZERO,
            rng: SimRng::for_kernel(7, 7),
            next_id: 1,
            conns: BTreeMap::new(),
            listeners: Vec::new(),
            timers: Vec::new(),
            counters: BTreeMap::new(),
            cpu_charged: SimDuration::ZERO,
            exit: None,
            spawned: Vec::new(),
            emitted: Vec::new(),
        }
    }

    fn next(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Advances the mock clock.
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Creates an inbound (accepted-style) connection the subject can be
    /// handed events about.
    pub fn accept_conn(&mut self) -> ConnId {
        let id = ConnId::from_raw_for_tests(self.next());
        self.conns.insert(id, MockConn::default());
        id
    }

    /// Queues bytes to be returned by the subject's next `read`.
    pub fn push_incoming(&mut self, conn: ConnId, bytes: &[u8]) {
        self.conns
            .entry(conn)
            .or_default()
            .incoming
            .push(Bytes::copy_from_slice(bytes));
    }

    /// Marks `conn` as EOF after its queued bytes drain.
    pub fn push_eof(&mut self, conn: ConnId) {
        self.conns.entry(conn).or_default().eof = true;
    }

    /// Everything the subject has written to `conn`.
    pub fn written(&self, conn: ConnId) -> &[u8] {
        self.conns
            .get(&conn)
            .map(|c| c.written.as_slice())
            .unwrap_or(&[])
    }

    /// Clears the write capture for `conn`.
    pub fn clear_written(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.written.clear();
        }
    }

    /// The address a `connect`-created connection targeted.
    pub fn conn_addr(&self, conn: ConnId) -> Option<Addr> {
        self.conns.get(&conn).and_then(|c| c.addr)
    }

    /// Whether the subject closed `conn`.
    pub fn is_closed(&self, conn: ConnId) -> bool {
        self.conns.get(&conn).map(|c| c.closed).unwrap_or(false)
    }

    /// Ids of all connections opened via `connect`, in order.
    pub fn connected(&self) -> Vec<(ConnId, Addr)> {
        self.conns
            .iter()
            .filter_map(|(id, c)| c.addr.map(|a| (*id, a)))
            .collect()
    }

    /// All recorded timers.
    pub fn timers(&self) -> &[MockTimer] {
        &self.timers
    }

    /// Active listeners (id, port), in registration order.
    pub fn listeners(&self) -> &[(ListenerId, Port)] {
        &self.listeners
    }

    /// Recorded counter value.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total CPU charged by the subject.
    pub fn cpu_charged(&self) -> SimDuration {
        self.cpu_charged
    }

    /// The exit the subject requested, if any.
    pub fn exit_requested(&self) -> Option<&ExitReason> {
        self.exit.as_ref()
    }

    /// Processes the subject asked to spawn (node, label).
    pub fn spawned(&self) -> &[(NodeId, String)] {
        &self.spawned
    }

    /// Observability events the subject emitted, with the mock time at
    /// which each was emitted.
    pub fn emitted(&self) -> &[(SimTime, obs::EventKind)] {
        &self.emitted
    }

    /// The `what` of every `ProtocolError` the subject emitted, in order:
    /// the malformed or unexpected input it rejected.
    pub fn protocol_errors(&self) -> Vec<&'static str> {
        let what = |(_, kind): &(SimTime, obs::EventKind)| match kind {
            obs::EventKind::ProtocolError(what) => Some(*what),
            _ => None,
        };
        self.emitted.iter().filter_map(what).collect()
    }
}

impl SysApi for MockSys {
    fn now(&self) -> SimTime {
        self.now
    }
    fn my_node(&self) -> NodeId {
        self.node
    }
    fn my_pid(&self) -> ProcessId {
        self.pid
    }
    fn listen(&mut self, port: Port) -> Result<ListenerId, SysError> {
        if self.listeners.iter().any(|(_, p)| *p == port) {
            return Err(SysError::PortInUse(port));
        }
        let id = ListenerId::from_raw_for_tests(self.next());
        self.listeners.push((id, port));
        Ok(id)
    }
    fn unlisten(&mut self, listener: ListenerId) {
        self.listeners.retain(|(l, _)| *l != listener);
    }
    fn connect(&mut self, addr: Addr) -> ConnId {
        let id = ConnId::from_raw_for_tests(self.next());
        self.conns.insert(
            id,
            MockConn {
                addr: Some(addr),
                ..MockConn::default()
            },
        );
        id
    }
    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError> {
        let c = self.conns.entry(conn).or_default();
        if c.closed {
            return Err(SysError::ClosedLocally(conn));
        }
        c.written.extend_from_slice(&bytes);
        Ok(())
    }
    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError> {
        let c = self
            .conns
            .get_mut(&conn)
            .ok_or(SysError::UnknownConn(conn))?;
        if c.closed {
            return Err(SysError::ClosedLocally(conn));
        }
        let data = c.incoming.read(max);
        Ok(ReadOutcome {
            data,
            eof: c.incoming.is_empty() && c.eof,
        })
    }
    fn close(&mut self, conn: ConnId) {
        self.conns.entry(conn).or_default().closed = true;
    }
    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        let timer = TimerId::from_raw_for_tests(self.next());
        self.timers.push(MockTimer {
            timer,
            set_at: self.now,
            after,
            token,
            cancelled: false,
        });
        timer
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        if let Some(t) = self.timers.iter_mut().find(|t| t.timer == timer) {
            t.cancelled = true;
        }
    }
    fn spawn(
        &mut self,
        node: NodeId,
        name: &str,
        _factory: ProcessFactory,
    ) -> Result<ProcessId, SysError> {
        self.spawned.push((node, name.to_string()));
        Ok(ProcessId::from_raw_for_tests(self.next()))
    }
    fn exit(&mut self, reason: ExitReason) {
        self.exit = Some(reason);
    }
    fn charge_cpu(&mut self, cost: SimDuration) {
        self.cpu_charged += cost;
    }
    fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
    fn tag_conn(&mut self, _conn: ConnId, _tag: &'static str) {}
    fn count(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }
    fn emit(&mut self, kind: obs::EventKind) {
        self.emitted.push((self.now, kind));
    }
}

// Raw-id constructors, exposed only for the test kit.
impl ConnId {
    pub(crate) fn from_raw_for_tests(raw: u64) -> ConnId {
        ConnId(raw)
    }
}
impl ListenerId {
    pub(crate) fn from_raw_for_tests(raw: u64) -> ListenerId {
        ListenerId(raw)
    }
}
impl TimerId {
    pub(crate) fn from_raw_for_tests(raw: u64) -> TimerId {
        TimerId(raw)
    }
}
impl ProcessId {
    pub(crate) fn from_raw_for_tests(raw: u64) -> ProcessId {
        ProcessId(raw)
    }
    pub(crate) fn default_for_tests() -> ProcessId {
        ProcessId(99)
    }
}

/// Builds a [`ConnId`] from a raw value: test support for out-of-crate
/// code that keys behaviour on connection identity.
pub fn conn_id(raw: u64) -> ConnId {
    ConnId::from_raw_for_tests(raw)
}

/// Builds a scheduling [`Candidate`](crate::sched::Candidate) from raw id
/// values: test support for out-of-crate [`Scheduler`](crate::Scheduler)
/// implementations (ids are opaque outside the kernel).
#[allow(clippy::too_many_arguments)]
pub fn candidate(
    at: SimTime,
    seq: u64,
    kind: crate::sched::CandidateKind,
    class: &'static str,
    target: Option<u64>,
    conn: Option<u64>,
    touch_conn: Option<u64>,
    eligible: bool,
) -> crate::sched::Candidate {
    crate::sched::Candidate {
        at,
        seq,
        kind,
        class,
        target: target.map(ProcessId::from_raw_for_tests),
        conn: conn.map(ConnId::from_raw_for_tests),
        touch_conn: touch_conn.map(ConnId::from_raw_for_tests),
        eligible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_records_effects() {
        let mut sys = MockSys::new(NodeId::from_index(2));
        assert_eq!(sys.my_node().index(), 2);
        let conn = sys.connect(Addr::new(NodeId::from_index(0), Port(1)));
        sys.write(conn, &[1, 2]).unwrap();
        sys.write(conn, &[3]).unwrap();
        assert_eq!(sys.written(conn), &[1, 2, 3]);
        assert_eq!(
            sys.conn_addr(conn),
            Some(Addr::new(NodeId::from_index(0), Port(1)))
        );
        sys.close(conn);
        assert!(sys.is_closed(conn));
        assert!(sys.write(conn, &[4]).is_err());
    }

    #[test]
    fn mock_reads_and_eof() {
        let mut sys = MockSys::new(NodeId::from_index(0));
        let conn = sys.accept_conn();
        sys.push_incoming(conn, b"abc");
        let r = sys.read(conn, 2).unwrap();
        assert_eq!(&r.data[..], b"ab");
        assert!(!r.eof);
        sys.push_eof(conn);
        let r = sys.read(conn, usize::MAX).unwrap();
        assert_eq!(&r.data[..], b"c");
        assert!(r.eof);
    }

    #[test]
    fn mock_timers_and_counters() {
        let mut sys = MockSys::new(NodeId::from_index(0));
        let t = sys.set_timer(SimDuration::from_millis(5), 42);
        sys.cancel_timer(t);
        assert_eq!(sys.timers().len(), 1);
        assert!(sys.timers()[0].cancelled);
        assert_eq!(sys.timers()[0].token, 42);
        sys.count("x", 2);
        sys.count("x", 3);
        assert_eq!(sys.counter("x"), 5);
        sys.advance(SimDuration::from_millis(7));
        sys.emit(obs::EventKind::Exit { crashed: false });
        assert_eq!(
            sys.emitted(),
            &[(
                SimTime::from_millis(7),
                obs::EventKind::Exit { crashed: false }
            )]
        );
    }
}

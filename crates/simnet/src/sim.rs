//! The discrete-event simulation kernel.
//!
//! [`Simulation`] owns the clock, the event queue, all nodes, processes,
//! connections and timers, and drives [`Process`] state machines. It is
//! single-threaded and fully deterministic: two runs with the same
//! [`SimConfig`] (including the seed) produce identical event sequences.
//! This mirrors the paper's deliberate avoidance of multithreading in the
//! interceptor, which "sometimes led to nondeterministic behavior at the
//! client" (section 3.1).
//!
//! # Transport semantics
//!
//! Connections are reliable, ordered byte streams modelled on TCP:
//!
//! * `connect` performs a two-trip handshake ([`Event::Accepted`] at the
//!   listener after one one-way latency, [`Event::ConnEstablished`] at the
//!   initiator after two);
//! * connecting to a port with no live listener yields
//!   [`Event::ConnRefused`] (how stale IORs manifest as `TRANSIENT`
//!   exceptions);
//! * a local `close` — or process death — delivers EOF
//!   ([`Event::PeerClosed`]) to the peer after in-flight data (how crashed
//!   replicas manifest as `COMM_FAILURE` exceptions);
//! * per-connection FIFO order is preserved even under latency jitter.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::mem;
use std::time::{Duration, Instant};

use bytes::Bytes;

use crate::error::{ForkError, SysError};
use crate::ids::{Addr, ConnId, ListenerId, NodeId, Port, ProcessId, TimerId};
use crate::latency::{LatencyModel, LossModel, NoiseModel};
use crate::metrics::Metrics;
use crate::process::{Event, ExitReason, Process, ProcessFactory, ReadOutcome, SysApi};
use crate::recv_queue::RecvQueue;
use crate::rng::SimRng;
use crate::sched::{self, FifoScheduler, GateCfg, Scheduler};
use crate::table::{IdTable, Slab, SlotKey};
use crate::time::{SimDuration, SimTime};
use crate::wheel::TimingWheel;

/// Configuration for a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// One-way link latency model.
    pub latency: LatencyModel,
    /// OS-hiccup noise model (section 5.2.5 spikes).
    pub noise: NoiseModel,
    /// Message-loss model (fault model: message-loss faults).
    pub loss: LossModel,
    /// Delay between `spawn` and the new process's `on_start` — models
    /// fork/exec plus ORB initialisation of a relaunched replica.
    pub launch_latency: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            latency: LatencyModel::default(),
            noise: NoiseModel::default(),
            loss: LossModel::none(),
            launch_latency: SimDuration::from_millis(30),
        }
    }
}

/// Why [`Simulation::run_until`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The clock reached the requested deadline.
    DeadlineReached,
    /// The event queue drained before the deadline.
    Idle,
}

#[derive(Clone, Debug)]
enum Action {
    StartProcess(ProcessId),
    ConnectAttempt {
        client_ep: ConnId,
        addr: Addr,
    },
    ConnectResult {
        client_ep: ConnId,
        ok: bool,
    },
    DeliverData {
        ep: ConnId,
        data: Bytes,
    },
    DeliverEof {
        ep: ConnId,
    },
    TimerFire {
        timer: TimerId,
    },
    /// A notify parked under a gate, as its own reorderable entry.
    Notify {
        pid: ProcessId,
        event: Event,
    },
    /// Without a gate: the head of `pid`'s ready list is due. One such
    /// entry is queued while the list is non-empty.
    Wake(ProcessId),
}

/// A queued action with its full scheduling key; the event queue itself
/// (a [`TimingWheel`]) stores the `(at, seq)` pair unpacked, so this
/// struct only survives in the partition parking lot.
#[derive(Clone)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    action: Action,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum EpState {
    Connecting,
    Established,
    ClosedLocal,
}

#[derive(Clone)]
struct Endpoint {
    owner: ProcessId,
    peer: Option<ConnId>,
    state: EpState,
    recv: RecvQueue,
    peer_eof: bool,
    /// Latest scheduled arrival at this endpoint, for FIFO enforcement.
    last_arrival: SimTime,
    tag: Option<&'static str>,
    remote_node: NodeId,
}

#[derive(Clone)]
struct TimerState {
    pid: ProcessId,
    token: u64,
    cancelled: bool,
}

#[derive(Clone)]
struct NodeState {
    #[allow(dead_code)]
    name: String,
    alive: bool,
}

/// The part of a process that outlives it: identity queries
/// (`process_node`, `process_label`, `process_alive`) and trace emission
/// must keep answering for dead pids, so this record is never removed.
/// Indexed directly by `ProcessId` (pids are issued densely in spawn
/// order).
#[derive(Clone)]
struct ProcMeta {
    node: NodeId,
    label: String,
    alive: bool,
    /// Single-threaded-process backlog horizon. Kept here rather than in
    /// [`ProcLive`] so the notify hot path (busy? requeue at this time)
    /// answers from one dense pid-indexed load without touching the slab.
    busy_until: SimTime,
    /// Slab slot holding the live half; stale (generation-checked) once
    /// the process terminates.
    live: SlotKey,
}

/// The part of a process that dies with it, stored in a recycled slab
/// slot: the boxed state machine, its RNG, scheduling state and resource
/// ownership sets.
struct ProcLive {
    proc: Option<Box<dyn Process>>,
    rng: SimRng,
    started: bool,
    /// Notifies that found the process busy, in arrival order; without a
    /// gate one [`Action::Wake`] serves them one per service completion.
    ready: VecDeque<Event>,
    conns: BTreeSet<ConnId>,
    listeners: BTreeSet<ListenerId>,
    exit_requested: Option<ExitReason>,
}

/// Storage-layout counters of the kernel tables (DESIGN §11), exposing
/// slab recycling to tests: slot counts stay bounded by peak concurrency
/// while the issued-id counts grow monotonically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Processes ever spawned (dense pid space).
    pub processes_spawned: u64,
    /// Processes currently alive.
    pub live_processes: u64,
    /// Physical slab slots backing live process state.
    pub proc_slots: u64,
    /// Timer ids ever issued.
    pub timers_issued: u64,
    /// Physical slab slots backing pending timers.
    pub timer_slots: u64,
    /// Listener ids ever issued.
    pub listeners_issued: u64,
    /// Physical slab slots backing open listeners.
    pub listener_slots: u64,
    /// Connection endpoints ever created (endpoints are never removed —
    /// closed ones keep answering state queries, as on the old kernel).
    pub endpoints: u64,
    /// Entries currently pending in the timing wheel (a ready list's
    /// parked notifies wait behind its one wake entry).
    pub pending_events: u64,
}

/// The deterministic discrete-event simulator.
///
/// ```
/// use simnet::{SimConfig, Simulation, SimTime};
///
/// let mut sim = Simulation::new(SimConfig::default());
/// let node = sim.add_node("host-a");
/// assert_eq!(sim.now(), SimTime::ZERO);
/// assert!(sim.node_alive(node));
/// ```
pub struct Simulation {
    cfg: SimConfig,
    now: SimTime,
    seq: u64,
    queue: TimingWheel<Action>,
    nodes: Vec<NodeState>,
    // Kernel tables are keyed by the dense, monotonic ids in `ids.rs` and
    // backed by indexed storage (DESIGN §11): plain vectors where entries
    // are never removed, generation-tagged slabs where they are. All
    // iteration (crash_node, live_processes, terminate) walks dense id
    // order, so determinism does not rest on map iteration order — the
    // detlint R1 rule still guards against seeded-hash containers.
    /// Per-pid identity records, never removed; `ProcessId` indexes
    /// directly.
    procs: Vec<ProcMeta>,
    /// Live process state, recycled on termination.
    proc_slab: Slab<ProcLive>,
    /// Per-node listener directory, sorted by port (few listeners per
    /// node; binary search beats a global ordered map).
    node_listeners: Vec<Vec<(Port, ListenerId)>>,
    /// Listener id → (owner, address); recycled on unlisten/terminate.
    listeners: IdTable<(ProcessId, Addr)>,
    /// Connection endpoints, indexed by `ConnId`; never removed (closed
    /// endpoints keep answering `write`/`close` state queries).
    endpoints: Vec<Endpoint>,
    /// Timer id → state; recycled when the timer fires.
    timers: IdTable<TimerState>,
    net_rng: SimRng,
    metrics: Metrics,
    recorder: obs::Recorder,
    events_processed: u64,
    wall_in_run: Duration,
    /// Severed node pairs (normalised lower-index first). Network actions
    /// crossing a severed link park in `parked` until the link heals.
    partitions: BTreeSet<(u32, u32)>,
    /// Actions stashed at their would-be arrival because the link was
    /// down; re-released (in original sequence order) on heal.
    parked: Vec<Scheduled>,
    /// Directed severed links `(from, to)`: traffic travelling from →
    /// to parks, the reverse direction flows normally (asymmetric
    /// partition faults).
    oneway_cuts: BTreeSet<(u32, u32)>,
    /// Per-link extra jitter bound (normalised pair): while present, each
    /// delivery crossing the link draws one extra uniform delay in
    /// `[0, bound]` from the kernel RNG (jittery-link faults). Links
    /// without an entry draw nothing, so configuring jitter on one link
    /// cannot perturb the RNG stream of unrelated scenarios.
    link_jitter: BTreeMap<(u32, u32), SimDuration>,
    /// The event-ordering policy (DESIGN §13). [`FifoScheduler`] keeps
    /// strict `(at, seq)` order; anything else routes same-window ties
    /// through [`sched::ChoicePoint`]s while its gate is open.
    scheduler: Box<dyn Scheduler>,
    /// The decision gate, `scheduler.gate()` read once at construction:
    /// `None` under [`FifoScheduler`], which the dispatch hot path and
    /// notify parking branch on without a vtable call.
    gate: Option<GateCfg>,
    /// Choice points surfaced so far — the ordinals the gate has handed
    /// out, counted against [`GateCfg::max_steps`].
    sched_steps: u64,
}

impl Simulation {
    /// Creates an empty simulation under the default
    /// [`FifoScheduler`] — shorthand for
    /// [`with_scheduler`](Self::with_scheduler) with the historical
    /// `(at, seq)` dispatch order.
    pub fn new(cfg: SimConfig) -> Self {
        Simulation::with_scheduler(cfg, Box::new(FifoScheduler))
    }

    /// Creates an empty simulation driven by `scheduler` — the single
    /// construction path (DESIGN §13). The default [`FifoScheduler`]
    /// reproduces the kernel's historical total order bit for bit; any
    /// other scheduler names a [`GateCfg`] and, while that gate is open,
    /// is offered a [`sched::ChoicePoint`] whenever several queued
    /// events are due within its reorder window. A closed gate costs
    /// what FIFO costs: no pool, no choice point, no call.
    pub fn with_scheduler(cfg: SimConfig, scheduler: Box<dyn Scheduler>) -> Self {
        let gate = scheduler.gate();
        let net_rng = SimRng::for_kernel(cfg.seed, 1);
        Simulation {
            cfg,
            now: SimTime::ZERO,
            seq: 0,
            queue: TimingWheel::new(),
            nodes: Vec::new(),
            procs: Vec::new(),
            proc_slab: Slab::new(),
            node_listeners: Vec::new(),
            listeners: IdTable::new(),
            endpoints: Vec::new(),
            timers: IdTable::new(),
            net_rng,
            metrics: Metrics::new(),
            recorder: obs::Recorder::new(),
            events_processed: 0,
            wall_in_run: Duration::ZERO,
            partitions: BTreeSet::new(),
            parked: Vec::new(),
            oneway_cuts: BTreeSet::new(),
            link_jitter: BTreeMap::new(),
            scheduler,
            gate,
            sched_steps: 0,
        }
    }

    /// A copy of this simulation that runs on under `scheduler`,
    /// independently of `self`: driving either changes nothing the other
    /// can observe, and from the same calls both produce the same events,
    /// metrics and trace as a simulation that was never copied.
    ///
    /// Copied: every kernel table, the event queue with its pending
    /// actions, every process's ready list of parked notifies, endpoints
    /// and their receive queues, timers, the kernel's and every
    /// process's random stream, partitions, the sequence and event
    /// counters, the clock, the metrics store and the trace. Each live
    /// process is copied by its own [`Process::fork`]. In-flight
    /// [`Bytes`] are immutable and shared. The copy's buffers are sized to
    /// what they hold.
    ///
    /// # Errors
    ///
    /// [`ForkError::GateMismatch`] when `scheduler` names another gate
    /// than the scheduler `self` was built with,
    /// [`ForkError::ChoicePointConsumed`] when `self` has already put a
    /// decision to its scheduler, and [`ForkError::Unforkable`] naming
    /// the first live process (in pid order) that cannot be copied.
    pub fn fork(&self, scheduler: Box<dyn Scheduler>) -> Result<Simulation, ForkError> {
        if scheduler.gate() != self.gate {
            return Err(ForkError::GateMismatch);
        }
        if self.sched_steps != 0 {
            return Err(ForkError::ChoicePointConsumed);
        }
        let mut proc_slab = self.proc_slab.map(|live| ProcLive {
            proc: None,
            rng: live.rng.clone(),
            started: live.started,
            ready: live.ready.clone(),
            conns: live.conns.clone(),
            listeners: live.listeners.clone(),
            exit_requested: live.exit_requested.clone(),
        });
        // Dead pids are skipped: their slab slot is gone.
        for (pid, meta) in self.procs.iter().enumerate().filter(|(_, m)| m.alive) {
            let forked = self
                .proc_slab
                .get(meta.live)
                .and_then(|live| live.proc.as_ref())
                .and_then(|proc| proc.fork())
                .ok_or_else(|| ForkError::Unforkable {
                    pid: ProcessId(pid as u64),
                    label: meta.label.clone(),
                })?;
            if let Some(live) = proc_slab.get_mut(meta.live) {
                live.proc = Some(forked);
            }
        }
        Ok(Simulation {
            cfg: self.cfg.clone(),
            now: self.now,
            seq: self.seq,
            queue: self.queue.clone(),
            nodes: self.nodes.clone(),
            procs: self.procs.clone(),
            proc_slab,
            node_listeners: self.node_listeners.clone(),
            listeners: self.listeners.clone(),
            endpoints: self.endpoints.clone(),
            timers: self.timers.clone(),
            net_rng: self.net_rng.clone(),
            metrics: self.metrics.clone(),
            recorder: self.recorder.clone(),
            events_processed: self.events_processed,
            wall_in_run: self.wall_in_run,
            partitions: self.partitions.clone(),
            parked: self.parked.clone(),
            oneway_cuts: self.oneway_cuts.clone(),
            link_jitter: self.link_jitter.clone(),
            scheduler,
            gate: self.gate,
            sched_steps: 0,
        })
    }

    /// Adds a node (host) and returns its id.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeState {
            name: name.to_string(),
            alive: true,
        });
        self.node_listeners.push(Vec::new());
        id
    }

    /// Identity record for `pid` (kept after death).
    fn meta(&self, pid: ProcessId) -> Option<&ProcMeta> {
        self.procs.get(pid.0 as usize)
    }

    /// Live state for `pid`; `None` once it terminated (the slab slot is
    /// recycled and the stale key fails its generation check anyway).
    fn live_mut(&mut self, pid: ProcessId) -> Option<&mut ProcLive> {
        let meta = self.procs.get(pid.0 as usize)?;
        if !meta.alive {
            return None;
        }
        self.proc_slab.get_mut(meta.live)
    }

    fn endpoint(&self, id: ConnId) -> Option<&Endpoint> {
        self.endpoints.get(id.0 as usize)
    }

    fn endpoint_mut(&mut self, id: ConnId) -> Option<&mut Endpoint> {
        self.endpoints.get_mut(id.0 as usize)
    }

    /// The listener bound to `addr`, if any.
    fn listener_at(&self, addr: Addr) -> Option<ListenerId> {
        let by_port = self.node_listeners.get(addr.node.0 as usize)?;
        let pos = by_port.binary_search_by_key(&addr.port, |&(p, _)| p).ok()?;
        by_port.get(pos).map(|&(_, lsn)| lsn)
    }

    /// Drops the `addr` → listener binding (the id itself stays issued).
    fn unbind_listener_addr(&mut self, addr: Addr) {
        if let Some(by_port) = self.node_listeners.get_mut(addr.node.0 as usize) {
            if let Ok(pos) = by_port.binary_search_by_key(&addr.port, |&(p, _)| p) {
                by_port.remove(pos);
            }
        }
    }

    /// Storage-layout counters for the kernel tables (DESIGN §11).
    pub fn kernel_stats(&self) -> KernelStats {
        KernelStats {
            processes_spawned: self.procs.len() as u64,
            live_processes: self.proc_slab.len() as u64,
            proc_slots: self.proc_slab.slot_count() as u64,
            timers_issued: self.timers.ids_issued(),
            timer_slots: self.timers.slot_count() as u64,
            listeners_issued: self.listeners.ids_issued(),
            listener_slots: self.listeners.slot_count() as u64,
            endpoints: self.endpoints.len() as u64,
            pending_events: self.queue.len() as u64,
        }
    }

    /// Whether `node` exists and has not crashed.
    pub fn node_alive(&self, node: NodeId) -> bool {
        self.nodes
            .get(node.0 as usize)
            .map(|n| n.alive)
            .unwrap_or(false)
    }

    /// Crashes `node`: every hosted process dies (peers observe EOF) and
    /// future connects and spawns targeting it fail until
    /// [`restart_node`](Self::restart_node).
    pub fn crash_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.0 as usize) {
            n.alive = false;
        }
        let victims: Vec<ProcessId> = self
            .procs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.node == node && m.alive)
            .map(|(pid, _)| ProcessId(pid as u64))
            .collect();
        for pid in victims {
            self.terminate(pid, ExitReason::Crash("node crash".into()));
        }
    }

    /// Brings a crashed node back (empty: processes must be respawned).
    pub fn restart_node(&mut self, node: NodeId) {
        if let Some(n) = self.nodes.get_mut(node.0 as usize) {
            n.alive = true;
        }
    }

    fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    /// Severs the link between `a` and `b` (link-partition fault). Segments
    /// that would arrive while the link is down — data, EOFs, connection
    /// handshakes — are parked, not dropped, and resume in order on
    /// [`heal`](Self::heal): the TCP retransmission view of a partition.
    /// Same-node traffic (loopback) cannot be partitioned.
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        if a != b {
            self.partitions.insert(Self::link_key(a, b));
            let (lo, hi) = Self::link_key(a, b);
            self.emit(NodeId(lo), obs::EventKind::Partition { a: lo, b: hi });
        }
    }

    /// Restores the link between `a` and `b`; parked traffic is released
    /// at the current simulated time in its original send order.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        if self.partitions.remove(&Self::link_key(a, b)) {
            let (lo, hi) = Self::link_key(a, b);
            self.emit(NodeId(lo), obs::EventKind::Heal { a: lo, b: hi });
            self.release_parked();
        }
    }

    /// Restores every severed link, symmetric and directional.
    pub fn heal_all(&mut self) {
        let had_cuts = !self.partitions.is_empty() || !self.oneway_cuts.is_empty();
        let cut = std::mem::take(&mut self.partitions);
        for (lo, hi) in cut {
            self.emit(NodeId(lo), obs::EventKind::Heal { a: lo, b: hi });
        }
        let oneway = std::mem::take(&mut self.oneway_cuts);
        for (from, to) in oneway {
            self.emit(NodeId(from), obs::EventKind::HealOneway { from, to });
        }
        if had_cuts {
            self.release_parked();
        }
    }

    /// Severs only the `from` → `to` direction of a link (asymmetric
    /// partition fault): segments travelling that way park until
    /// [`heal_oneway`](Self::heal_oneway), while replies keep flowing the
    /// other way — the classic half-open failure TCP keep-alives exist
    /// for. Loopback traffic cannot be cut.
    pub fn partition_oneway(&mut self, from: NodeId, to: NodeId) {
        if from != to && self.oneway_cuts.insert((from.0, to.0)) {
            self.emit(
                from,
                obs::EventKind::PartitionOneway {
                    from: from.0,
                    to: to.0,
                },
            );
        }
    }

    /// Restores the `from` → `to` direction; parked traffic is released
    /// at the current simulated time in its original send order.
    pub fn heal_oneway(&mut self, from: NodeId, to: NodeId) {
        if self.oneway_cuts.remove(&(from.0, to.0)) {
            self.emit(
                from,
                obs::EventKind::HealOneway {
                    from: from.0,
                    to: to.0,
                },
            );
            self.release_parked();
        }
    }

    /// Whether the link between `a` and `b` is currently severed.
    pub fn link_severed(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&Self::link_key(a, b))
    }

    /// Whether traffic travelling `from` → `to` is currently blocked,
    /// either by a symmetric partition or a directional cut.
    pub fn link_blocked(&self, from: NodeId, to: NodeId) -> bool {
        self.partitions.contains(&Self::link_key(from, to))
            || self.oneway_cuts.contains(&(from.0, to.0))
    }

    /// Sets (or, with [`SimDuration::ZERO`], clears) the extra per-message
    /// jitter bound on the `a` ↔ `b` link. While set, every delivery
    /// crossing the link draws one additional uniform delay in
    /// `[0, bound]` from the seeded kernel RNG — a jittery link rather
    /// than a severed one. Per-connection FIFO order is still enforced
    /// downstream by `fifo_arrival`.
    pub fn set_link_jitter(&mut self, a: NodeId, b: NodeId, bound: SimDuration) {
        if a == b {
            return;
        }
        let key = Self::link_key(a, b);
        let changed = if bound.is_zero() {
            self.link_jitter.remove(&key).is_some()
        } else {
            self.link_jitter.insert(key, bound) != Some(bound)
        };
        if changed {
            self.emit(
                NodeId(key.0),
                obs::EventKind::LinkJitter {
                    a: key.0,
                    b: key.1,
                    bound_ns: bound.as_nanos(),
                },
            );
        }
    }

    /// Replaces the message-loss model mid-run (loss-burst faults).
    pub fn set_loss(&mut self, loss: LossModel) {
        self.cfg.loss = loss;
    }

    /// The node pair a network action crosses, if any (`None` for local
    /// actions and for endpoints that no longer exist).
    fn action_link(&self, action: &Action) -> Option<(NodeId, NodeId)> {
        let ep_link = |ep_id: &ConnId| {
            let ep = self.endpoint(*ep_id)?;
            let owner_node = self.meta(ep.owner)?.node;
            Some((owner_node, ep.remote_node))
        };
        match action {
            Action::ConnectAttempt { client_ep, addr } => {
                let ep = self.endpoint(*client_ep)?;
                let owner_node = self.meta(ep.owner)?.node;
                Some((owner_node, addr.node))
            }
            Action::ConnectResult { client_ep, .. } => ep_link(client_ep),
            Action::DeliverData { ep, .. } | Action::DeliverEof { ep } => ep_link(ep),
            _ => None,
        }
    }

    /// The direction a network action travels, as `(src, dst)` nodes —
    /// unlike [`action_link`](Self::action_link), which reports the pair
    /// with the *affected endpoint's* node first. A `ConnectAttempt` is a
    /// SYN travelling initiator → listener; a `ConnectResult` is the
    /// SYN-ACK coming back; deliveries travel peer → owner.
    fn action_direction(&self, action: &Action) -> Option<(NodeId, NodeId)> {
        match action {
            Action::ConnectAttempt { .. } => self.action_link(action),
            Action::ConnectResult { .. }
            | Action::DeliverData { .. }
            | Action::DeliverEof { .. } => self
                .action_link(action)
                .map(|(owner, remote)| (remote, owner)),
            _ => None,
        }
    }

    /// Whether a symmetric partition or directional cut blocks `action`.
    fn action_blocked(&self, action: &Action) -> bool {
        self.action_direction(action)
            .map(|(src, dst)| self.link_blocked(src, dst))
            .unwrap_or(false)
    }

    /// Re-queues parked actions whose links have healed, preserving their
    /// original sequence order (per-connection FIFO survives a partition).
    fn release_parked(&mut self) {
        let parked = std::mem::take(&mut self.parked);
        let mut freed = Vec::new();
        for sched in parked {
            if self.action_blocked(&sched.action) {
                self.parked.push(sched);
            } else {
                freed.push(sched);
            }
        }
        freed.sort_by_key(|s| s.seq);
        for sched in freed {
            let at = sched.at.max(self.now);
            self.queue.push(at.as_nanos(), sched.seq, sched.action);
        }
    }

    /// Spawns `proc` on `node`, starting after the configured launch
    /// latency.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not exist or is crashed (a setup error).
    pub fn spawn(&mut self, node: NodeId, label: &str, proc: Box<dyn Process>) -> ProcessId {
        assert!(self.node_alive(node), "spawn on dead or unknown {node}");
        self.spawn_internal(node, label, proc)
    }

    fn spawn_internal(&mut self, node: NodeId, label: &str, proc: Box<dyn Process>) -> ProcessId {
        let pid = ProcessId(self.procs.len() as u64);
        let rng = SimRng::for_process(self.cfg.seed, pid);
        let start_at = self.now + self.cfg.launch_latency;
        let live = self.proc_slab.insert(ProcLive {
            proc: Some(proc),
            rng,
            started: false,
            ready: VecDeque::new(),
            conns: BTreeSet::new(),
            listeners: BTreeSet::new(),
            exit_requested: None,
        });
        self.procs.push(ProcMeta {
            node,
            label: label.to_string(),
            alive: true,
            busy_until: start_at,
            live,
        });
        self.push(start_at, Action::StartProcess(pid));
        self.recorder.emit(
            self.now.as_nanos(),
            node.0,
            pid.0,
            obs::EventKind::Spawn {
                node: node.0,
                label: label.to_string(),
            },
        );
        pid
    }

    /// Kills `pid` immediately with `reason` (fault injection).
    pub fn kill_process(&mut self, pid: ProcessId, reason: &str) {
        self.terminate(pid, ExitReason::Crash(reason.to_string()));
    }

    /// Whether `pid` is still running.
    pub fn process_alive(&self, pid: ProcessId) -> bool {
        self.meta(pid).map(|m| m.alive).unwrap_or(false)
    }

    /// The label `pid` was spawned with (empty if unknown).
    pub fn process_label(&self, pid: ProcessId) -> &str {
        self.meta(pid).map(|m| m.label.as_str()).unwrap_or("")
    }

    /// Node hosting `pid`, if the process exists.
    pub fn process_node(&self, pid: ProcessId) -> Option<NodeId> {
        self.meta(pid).map(|m| m.node)
    }

    /// The live process `pid`, if it is a `P`: a read-only look at its
    /// state from outside the simulation (a driver reading what an
    /// observer process saw, a test comparing two copies).
    pub fn process<P: Process>(&self, pid: ProcessId) -> Option<&P> {
        let meta = self.meta(pid).filter(|m| m.alive)?;
        let proc: &dyn Any = self.proc_slab.get(meta.live)?.proc.as_deref()?;
        proc.downcast_ref()
    }

    /// Ids of all live processes, in spawn order (the meta table is
    /// indexed by pid, and pids are assigned densely in spawn order —
    /// slab slot recycling underneath never reorders this view).
    pub fn live_processes(&self) -> Vec<ProcessId> {
        self.procs
            .iter()
            .enumerate()
            .filter(|(_, m)| m.alive)
            .map(|(pid, _)| ProcessId(pid as u64))
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Wall-clock time spent dispatching events, summed over every
    /// [`run_until`](Self::run_until) call. Purely observational: it never
    /// feeds back into simulated time, so determinism is unaffected.
    pub fn wall_elapsed(&self) -> Duration {
        self.wall_in_run
    }

    /// The trace recorded so far, in emission order.
    pub fn trace(&self) -> &[obs::TraceEvent] {
        self.recorder.events()
    }

    /// Moves the trace recorded so far out of the simulation, leaving an
    /// empty recorder at the same level behind: for a driver that is done
    /// with the run.
    pub fn take_trace(&mut self) -> Vec<obs::TraceEvent> {
        let empty = obs::Recorder::with_level(self.recorder.level());
        mem::replace(&mut self.recorder, empty).into_events()
    }

    /// Sets the trace verbosity, resetting the recorder. At
    /// [`obs::TraceLevel::Kernel`] every dispatched action is recorded;
    /// the default [`obs::TraceLevel::Recovery`] keeps only lifecycle and
    /// recovery-phase events. Call before the run starts: any events
    /// already recorded are discarded.
    pub fn set_trace_level(&mut self, level: obs::TraceLevel) {
        self.recorder = obs::Recorder::with_level(level);
    }

    /// Whether every dispatched action is traced.
    fn kernel_traced(&self) -> bool {
        self.recorder.level() == obs::TraceLevel::Kernel
    }

    /// Emits an event into the trace at the current instant, attributed
    /// to `node` and to no process (pid 0): the kernel's own events, and
    /// a driver's markers such as an injected fault.
    pub fn emit(&mut self, node: NodeId, kind: obs::EventKind) {
        self.recorder.emit(self.now.as_nanos(), node.0, 0, kind);
    }

    /// The counters and byte records gathered so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Moves the metrics gathered so far out of the simulation, leaving an
    /// empty store behind: for a driver that is done with the run.
    pub fn take_metrics(&mut self) -> Metrics {
        mem::take(&mut self.metrics)
    }

    /// Runs until the clock reaches `deadline` or the queue drains.
    // Wall-clock accounting only (`wall_elapsed`); the reading never
    // feeds back into simulated time. Suppressed in lint-allow.toml (R2)
    // and for clippy's disallowed-methods mirror of the same rule.
    #[allow(clippy::disallowed_methods)]
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let started = Instant::now();
        let outcome = self.dispatch_until(deadline);
        self.wall_in_run += started.elapsed();
        outcome
    }

    /// The dispatch loop: pops the earliest due event and, when there is
    /// a gate and it is open at that event's timestamp, lets the
    /// choosing [`Scheduler`] swap it for another candidate of the
    /// reorder window ([`choose_among`](Self::choose_among)); then
    /// dispatches it. With no gate (the default [`FifoScheduler`]) or a
    /// closed one the popped head *is* the pick — the pool-of-one case —
    /// so events run in `(at, seq)` order and no pool is ever built.
    /// Every iteration either dispatches at least one event or returns,
    /// so the loop ends by queue drain or deadline.
    fn dispatch_until(&mut self, deadline: SimTime) -> RunOutcome {
        loop {
            let Some(head) = self.queue.pop_due(deadline.as_nanos()) else {
                if self.queue.is_empty() {
                    self.now = deadline.max(self.now);
                    return RunOutcome::Idle;
                }
                // The earliest event is beyond the deadline; it stays
                // queued (no pop-then-push-back) and the clock stops at
                // the deadline, exactly as the heap kernel did.
                self.now = deadline;
                return RunOutcome::DeadlineReached;
            };
            let (at, seq, action) = match &self.gate {
                Some(gate) if gate.is_open(SimTime::from_nanos(head.0), self.sched_steps) => {
                    let slack = gate.slack;
                    self.choose_among(head, slack, deadline)
                }
                _ => head,
            };
            let at = SimTime::from_nanos(at);
            debug_assert!(self.gate.is_some() || at >= self.now, "time went backwards");
            // Late delivery: a candidate deferred at a choice point may
            // dispatch after the clock passed its timestamp; time never
            // runs backwards, so a chosen schedule is always a physically
            // plausible late-delivery history.
            self.now = self.now.max(at);
            // A parked notify counts, and is traced, only when it reaches
            // its process (`deliver_parked`).
            if let Action::Notify { .. } | Action::Wake(_) = action {
                self.handle(action);
                continue;
            }
            let sched = Scheduled { at, seq, action };
            self.events_processed += 1;
            // A severed link (symmetric or directional) parks the action
            // instead of delivering it; heal() re-releases parked actions
            // in send order.
            if self.action_blocked(&sched.action) {
                self.parked.push(sched);
                continue;
            }
            if self.kernel_traced() {
                let node = self
                    .action_link(&sched.action)
                    .map(|(a, _)| a)
                    .unwrap_or(NodeId(0));
                self.emit(
                    node,
                    obs::EventKind::Dispatch {
                        action: Self::action_name(&sched.action),
                    },
                );
            }
            self.handle(sched.action);
        }
    }

    /// The choice point of an open gate: pools `head` with every queued
    /// event due within `slack` of it (bounded by
    /// [`sched::MAX_CANDIDATES`] and by `deadline`), surfaces a
    /// multi-candidate pool to the [`Scheduler`] as the next numbered
    /// [`sched::ChoicePoint`], re-queues the candidates not picked under
    /// their original `(at, seq)` keys and returns the pick.
    ///
    /// A deferred candidate pins the window: pools are collected from the
    /// earliest pending event, so after at most [`sched::MAX_CANDIDATES`]
    /// deferrals the earliest candidate is index 0 of a pool whose
    /// scheduler must pick *something*, and the clamp guarantees
    /// eligibility — no starvation.
    fn choose_among(
        &mut self,
        head: (u64, u64, Action),
        slack: SimDuration,
        deadline: SimTime,
    ) -> (u64, u64, Action) {
        let first_at = head.0;
        // The pool bound caps both this loop and the explorer's branching.
        let cap = first_at
            .saturating_add(slack.as_nanos())
            .min(deadline.as_nanos());
        let mut pool = vec![head];
        while pool.len() < sched::MAX_CANDIDATES {
            let Some(candidate) = self.queue.pop_due(cap) else {
                break;
            };
            pool.push(candidate);
        }
        let pick = if pool.len() > 1 {
            // Per-connection FIFO eligibility: the pool is in (at, seq)
            // order, so the first candidate seen on each connection is
            // its earliest — only that one may be picked. Candidate 0 is
            // always eligible.
            let mut seen_conns: Vec<ConnId> = Vec::new();
            let candidates: Vec<sched::Candidate> = pool
                .iter()
                .map(|(c_at, c_seq, c_action)| {
                    let conn = Self::action_conn(c_action);
                    let eligible = match conn {
                        Some(c) if seen_conns.contains(&c) => false,
                        Some(c) => {
                            seen_conns.push(c);
                            true
                        }
                        None => true,
                    };
                    sched::Candidate {
                        at: SimTime::from_nanos(*c_at),
                        seq: *c_seq,
                        kind: Self::action_kind(c_action),
                        class: Self::action_class(c_action),
                        target: self.action_target(c_action),
                        conn,
                        touch_conn: Self::action_touch_conn(c_action),
                        eligible,
                    }
                })
                .collect();
            let cp = sched::ChoicePoint {
                step: self.sched_steps,
                now: SimTime::from_nanos(first_at),
                candidates,
            };
            self.sched_steps += 1;
            let want = self.scheduler.choose(&cp);
            // Out-of-range or ineligible picks clamp to the default.
            match cp.candidates.get(want) {
                Some(c) if c.eligible => want,
                _ => 0,
            }
        } else {
            0
        };
        let chosen = pool.remove(pick);
        // Deferred candidates keep their original keys; they surface
        // again at the next choice point.
        for (c_at, c_seq, c_action) in pool {
            self.queue.push(c_at, c_seq, c_action);
        }
        chosen
    }

    /// The connection an action rides on, if any — the key of the
    /// per-connection FIFO eligibility check.
    fn action_conn(action: &Action) -> Option<ConnId> {
        match action {
            Action::ConnectAttempt { client_ep, .. } | Action::ConnectResult { client_ep, .. } => {
                Some(*client_ep)
            }
            Action::DeliverData { ep, .. } | Action::DeliverEof { ep } => Some(*ep),
            _ => None,
        }
    }

    /// The scheduler-facing kind of an action (a wake reports as a plain
    /// notify; it cannot arise under a choosing scheduler).
    fn action_kind(action: &Action) -> sched::CandidateKind {
        match action {
            Action::StartProcess(_) => sched::CandidateKind::StartProcess,
            Action::ConnectAttempt { .. } => sched::CandidateKind::ConnectAttempt,
            Action::ConnectResult { .. } => sched::CandidateKind::ConnectResult,
            Action::DeliverData { .. } => sched::CandidateKind::DeliverData,
            Action::DeliverEof { .. } => sched::CandidateKind::DeliverEof,
            Action::TimerFire { .. } => sched::CandidateKind::TimerFire,
            Action::Notify { .. } | Action::Wake(_) => sched::CandidateKind::Notify,
        }
    }

    /// The process an action ultimately targets, when known: two
    /// candidates with the same target conflict (their order is
    /// observable by that process).
    fn action_target(&self, action: &Action) -> Option<ProcessId> {
        match action {
            Action::StartProcess(pid) | Action::Notify { pid, .. } | Action::Wake(pid) => {
                Some(*pid)
            }
            Action::TimerFire { timer } => self.timers.get(timer.0).map(|ts| ts.pid),
            Action::ConnectAttempt { client_ep, .. } | Action::ConnectResult { client_ep, .. } => {
                self.endpoint(*client_ep).map(|ep| ep.owner)
            }
            Action::DeliverData { ep, .. } | Action::DeliverEof { ep } => {
                self.endpoint(*ep).map(|e| e.owner)
            }
        }
    }

    /// Static name of an action variant, for `Dispatch` trace events.
    /// The handler class dispatching an action will invoke on its
    /// target process: the process-facing [`Event`] variant name,
    /// `"on_start"` for launches, or the action name for kernel-internal
    /// steps (connect SYNs, ready-list wakes) with no single handler.
    /// This is [`sched::Candidate::class`] — the key the explorer's
    /// conflict-relation artifact refines conflicts by.
    fn action_class(action: &Action) -> &'static str {
        match action {
            Action::StartProcess(_) => "on_start",
            Action::ConnectAttempt { .. } => "connect_attempt",
            Action::ConnectResult { ok: true, .. } => "conn_established",
            Action::ConnectResult { ok: false, .. } => "conn_refused",
            Action::DeliverData { .. } => "data_readable",
            Action::DeliverEof { .. } => "peer_closed",
            Action::TimerFire { .. } => "timer_fired",
            Action::Notify { event, .. } => Self::event_class(event),
            Action::Wake(_) => "wake",
        }
    }

    /// The connection whose kernel-side state the dispatched handler
    /// will touch ([`sched::Candidate::touch_conn`]): the delivery
    /// endpoint, or the connection a parked notification names.
    fn action_touch_conn(action: &Action) -> Option<ConnId> {
        match action {
            Action::ConnectAttempt { client_ep, .. } | Action::ConnectResult { client_ep, .. } => {
                Some(*client_ep)
            }
            Action::DeliverData { ep, .. } | Action::DeliverEof { ep } => Some(*ep),
            Action::Notify { event, .. } => Self::event_conn(event),
            Action::StartProcess(_) | Action::TimerFire { .. } | Action::Wake(_) => None,
        }
    }

    /// The connection a parked [`Event`] names, if any.
    fn event_conn(event: &Event) -> Option<ConnId> {
        match event {
            Event::ConnEstablished { conn }
            | Event::ConnRefused { conn }
            | Event::Accepted { conn, .. }
            | Event::DataReadable { conn }
            | Event::PeerClosed { conn } => Some(*conn),
            Event::TimerFired { .. } => None,
        }
    }

    /// [`action_class`](Self::action_class) for a parked [`Event`].
    fn event_class(event: &Event) -> &'static str {
        match event {
            Event::TimerFired { .. } => "timer_fired",
            Event::ConnEstablished { .. } => "conn_established",
            Event::ConnRefused { .. } => "conn_refused",
            Event::Accepted { .. } => "accepted",
            Event::DataReadable { .. } => "data_readable",
            Event::PeerClosed { .. } => "peer_closed",
        }
    }

    fn action_name(action: &Action) -> &'static str {
        match action {
            Action::StartProcess(_) => "start_process",
            Action::ConnectAttempt { .. } => "connect_attempt",
            Action::ConnectResult { .. } => "connect_result",
            Action::DeliverData { .. } => "deliver_data",
            Action::DeliverEof { .. } => "deliver_eof",
            Action::TimerFire { .. } => "timer_fire",
            Action::Notify { .. } | Action::Wake(_) => "notify",
        }
    }

    fn push(&mut self, at: SimTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at.as_nanos(), seq, action);
    }

    /// When `pid` is next free: its backlog horizon, or now.
    fn horizon(&self, pid: ProcessId) -> SimTime {
        self.meta(pid)
            .map_or(self.now, |m| m.busy_until.max(self.now))
    }

    /// Parks `event` for `pid` until its backlog horizon. Under a gate it
    /// is an entry of its own, which the scheduler may interleave with
    /// anything else due; otherwise it joins the end of the process's
    /// ready list, and the first one arms the list's wake.
    fn park(&mut self, pid: ProcessId, event: Event) {
        let at = self.horizon(pid);
        if self.gate.is_some() {
            self.push(at, Action::Notify { pid, event });
            return;
        }
        let Some(live) = self.live_mut(pid) else {
            return;
        };
        live.ready.push_back(event);
        if live.ready.len() == 1 {
            self.push(at, Action::Wake(pid));
        }
    }

    /// Hands a parked notify to `pid` if it is alive and free: that is
    /// one processed event and one `Dispatch { action: "notify" }` line.
    /// A dead process drops it; a busy one hands it back to be parked
    /// again. Neither counts.
    fn deliver_parked(&mut self, pid: ProcessId, event: Event) -> Option<Event> {
        let meta = self.meta(pid).filter(|m| m.alive)?;
        if meta.busy_until > self.now {
            return Some(event);
        }
        self.events_processed += 1;
        if self.kernel_traced() {
            self.emit(NodeId(0), obs::EventKind::Dispatch { action: "notify" });
        }
        self.dispatch(pid, Some(event));
        None
    }

    /// A ready list's wake is due: serve its head if `pid` is free, then
    /// re-arm at the new horizon while the list holds more. A dead
    /// process's wake finds no list and does nothing.
    fn wake(&mut self, pid: ProcessId) {
        if self.horizon(pid) == self.now {
            if let Some(event) = self.live_mut(pid).and_then(|l| l.ready.pop_front()) {
                self.deliver_parked(pid, event);
            }
        }
        if self.live_mut(pid).is_some_and(|l| !l.ready.is_empty()) {
            let at = self.horizon(pid);
            self.push(at, Action::Wake(pid));
        }
    }

    fn handle(&mut self, action: Action) {
        match action {
            Action::StartProcess(pid) => self.dispatch(pid, None),
            Action::ConnectAttempt { client_ep, addr } => {
                self.handle_connect_attempt(client_ep, addr)
            }
            Action::ConnectResult { client_ep, ok } => self.handle_connect_result(client_ep, ok),
            Action::DeliverData { ep, data } => self.handle_deliver_data(ep, data),
            Action::DeliverEof { ep } => self.handle_deliver_eof(ep),
            Action::TimerFire { timer } => self.handle_timer_fire(timer),
            Action::Notify { pid, event } => {
                if let Some(event) = self.deliver_parked(pid, event) {
                    self.park(pid, event);
                }
            }
            Action::Wake(pid) => self.wake(pid),
        }
    }

    fn handle_connect_attempt(&mut self, client_ep: ConnId, addr: Addr) {
        // The SYN has arrived at the target node. Check for a live listener.
        let accepting = if self.node_alive(addr.node) {
            self.listener_at(addr).and_then(|lsn| {
                self.listeners
                    .get(lsn.0)
                    .filter(|(pid, _)| self.process_alive(*pid))
                    .map(|(pid, _)| (lsn, *pid))
            })
        } else {
            None
        };
        // The initiating endpoint may have been closed or its owner killed
        // while the SYN was in flight.
        let client_alive = self
            .endpoint(client_ep)
            .map(|ep| ep.state == EpState::Connecting && self.process_alive(ep.owner))
            .unwrap_or(false);
        let client_node = self
            .endpoint(client_ep)
            .map(|ep| self.meta(ep.owner).map(|m| m.node).unwrap_or(NodeId(0)));
        // `client_alive` implies the endpoint exists, so `client_node` is
        // `Some` in the live arms; matching on it keeps that connection
        // panic-free instead of relying on an `expect`.
        match (accepting, client_alive, client_node) {
            (Some((lsn, server_pid)), true, Some(client_node)) => {
                let Some(server_node) = self.process_node(server_pid) else {
                    return; // listener owner vanished; nothing to accept
                };
                let server_ep = ConnId(self.endpoints.len() as u64);
                self.endpoints.push(Endpoint {
                    owner: server_pid,
                    peer: Some(client_ep),
                    state: EpState::Established,
                    recv: RecvQueue::new(),
                    peer_eof: false,
                    last_arrival: self.now,
                    tag: None,
                    remote_node: client_node,
                });
                if let Some(ep) = self.endpoint_mut(client_ep) {
                    ep.peer = Some(server_ep);
                }
                if let Some(live) = self.live_mut(server_pid) {
                    live.conns.insert(server_ep);
                }
                self.notify(
                    server_pid,
                    Event::Accepted {
                        listener: lsn,
                        conn: server_ep,
                        peer_node: client_node,
                    },
                );
                self.emit(
                    client_node,
                    obs::EventKind::ConnectOutcome {
                        to_node: addr.node.0,
                        port: addr.port.0,
                        ok: true,
                    },
                );
                // SYN-ACK travels back to the initiator.
                let back = self.sample_latency(server_node, client_node, 0);
                let at = self.now + back;
                self.push(
                    at,
                    Action::ConnectResult {
                        client_ep,
                        ok: true,
                    },
                );
            }
            (None, true, Some(client_node)) => {
                self.emit(
                    client_node,
                    obs::EventKind::ConnectOutcome {
                        to_node: addr.node.0,
                        port: addr.port.0,
                        ok: false,
                    },
                );
                let back = self.sample_latency(addr.node, client_node, 0);
                let at = self.now + back;
                self.push(
                    at,
                    Action::ConnectResult {
                        client_ep,
                        ok: false,
                    },
                );
            }
            _ => {
                // Initiator vanished (or its endpoint is already gone): if
                // a server endpoint would have been created we simply never
                // create it; nothing to do.
            }
        }
    }

    fn handle_connect_result(&mut self, client_ep: ConnId, ok: bool) {
        let Some(ep) = self.endpoint_mut(client_ep) else {
            return;
        };
        if ep.state != EpState::Connecting {
            return; // closed while connecting
        }
        let owner = ep.owner;
        if ok {
            ep.state = EpState::Established;
            self.notify(owner, Event::ConnEstablished { conn: client_ep });
        } else {
            ep.state = EpState::ClosedLocal;
            if let Some(live) = self.live_mut(owner) {
                live.conns.remove(&client_ep);
            }
            self.notify(owner, Event::ConnRefused { conn: client_ep });
        }
    }

    fn handle_deliver_data(&mut self, ep_id: ConnId, data: Bytes) {
        let Some(ep) = self.endpoint_mut(ep_id) else {
            return;
        };
        if ep.state == EpState::ClosedLocal {
            return; // receiver closed; bytes fall on the floor
        }
        let owner = ep.owner;
        if !self.process_alive(owner) {
            return;
        }
        if let Some(ep) = self.endpoint_mut(ep_id) {
            ep.recv.push(data);
        }
        self.notify(owner, Event::DataReadable { conn: ep_id });
    }

    fn handle_deliver_eof(&mut self, ep_id: ConnId) {
        let Some(ep) = self.endpoint_mut(ep_id) else {
            return;
        };
        if ep.state == EpState::ClosedLocal || ep.peer_eof {
            return;
        }
        ep.peer_eof = true;
        let owner = ep.owner;
        if self.process_alive(owner) {
            self.notify(owner, Event::PeerClosed { conn: ep_id });
        }
    }

    fn handle_timer_fire(&mut self, timer: TimerId) {
        let Some(ts) = self.timers.remove(timer.0) else {
            return;
        };
        if ts.cancelled {
            return;
        }
        if self.process_alive(ts.pid) {
            self.notify(
                ts.pid,
                Event::TimerFired {
                    timer,
                    token: ts.token,
                },
            );
        }
    }

    /// Delivers a fresh kernel notification to `pid` now, or parks it
    /// until the process is free. One dense meta load answers both the
    /// liveness and the busy check.
    fn notify(&mut self, pid: ProcessId, event: Event) {
        let Some(meta) = self.procs.get(pid.0 as usize) else {
            return;
        };
        if !meta.alive {
            return;
        }
        if meta.busy_until > self.now {
            self.park(pid, event);
        } else {
            self.dispatch(pid, Some(event));
        }
    }

    /// Runs one handler: `on_start` when `event` is `None`, else `on_event`.
    fn dispatch(&mut self, pid: ProcessId, event: Option<Event>) {
        let Some(slot) = self.live_mut(pid) else {
            return;
        };
        let Some(mut proc) = slot.proc.take() else {
            return; // re-entrant dispatch cannot happen; defensive
        };
        match &event {
            None => slot.started = true,
            Some(_) if !slot.started => {
                // Event raced ahead of on_start (should not happen since
                // busy_until covers launch, but be safe): park it.
                slot.proc = Some(proc);
                if let Some(ev) = event {
                    self.park(pid, ev);
                }
                return;
            }
            _ => {}
        }
        {
            let mut ctx = Ctx { sim: self, pid };
            match event {
                None => proc.on_start(&mut ctx),
                Some(ev) => proc.on_event(&mut ctx, ev),
            }
        }
        // The process cannot remove its own slot from inside a handler
        // (only the kernel terminates processes), but stay panic-free.
        let exit = match self.live_mut(pid) {
            Some(slot) => {
                slot.proc = Some(proc);
                slot.exit_requested.take()
            }
            None => None,
        };
        if let Some(reason) = exit {
            self.terminate(pid, reason);
        }
    }

    fn terminate(&mut self, pid: ProcessId, reason: ExitReason) {
        let Some(meta) = self.procs.get_mut(pid.0 as usize) else {
            return;
        };
        if !meta.alive {
            return;
        }
        meta.alive = false;
        let key = meta.live;
        let node = meta.node;
        // Free the live half; its slab slot is recycled for future spawns
        // (the meta record keeps answering identity queries for the dead
        // pid). BTreeSet iteration is id-ordered, giving a deterministic
        // EOF order without an explicit sort.
        let (conns, listeners) = match self.proc_slab.remove(key) {
            Some(live) => (live.conns, live.listeners),
            None => (BTreeSet::new(), BTreeSet::new()),
        };
        for lsn in listeners {
            if let Some((_, addr)) = self.listeners.remove(lsn.0) {
                self.unbind_listener_addr(addr);
            }
        }
        for c in conns {
            self.close_endpoint(c);
        }
        self.recorder.emit(
            self.now.as_nanos(),
            node.0,
            pid.0,
            obs::EventKind::Exit {
                crashed: matches!(reason, ExitReason::Crash(_)),
            },
        );
    }

    /// Closes `ep_id` from the owner side: schedules EOF at the peer after
    /// any in-flight data.
    fn close_endpoint(&mut self, ep_id: ConnId) {
        let Some(ep) = self.endpoint_mut(ep_id) else {
            return;
        };
        if ep.state == EpState::ClosedLocal {
            return;
        }
        let was_connecting = ep.state == EpState::Connecting;
        ep.state = EpState::ClosedLocal;
        ep.recv.clear();
        let peer = ep.peer;
        let remote = ep.remote_node;
        if was_connecting {
            return; // handshake will fizzle in handle_connect_*
        }
        if let Some(peer_id) = peer {
            let owner_node = self
                .endpoint(peer_id)
                .map(|p| p.remote_node)
                .unwrap_or(remote);
            let lat = self.sample_latency(owner_node, remote, 0);
            let arrival = self.fifo_arrival(peer_id, self.now + lat);
            self.push(arrival, Action::DeliverEof { ep: peer_id });
        }
    }

    /// Enforces per-connection FIFO: a segment may not arrive before one
    /// scheduled earlier.
    fn fifo_arrival(&mut self, ep_id: ConnId, proposed: SimTime) -> SimTime {
        let Some(ep) = self.endpoint_mut(ep_id) else {
            return proposed;
        };
        let arrival = proposed.max(ep.last_arrival);
        ep.last_arrival = arrival;
        arrival
    }

    fn sample_latency(&mut self, src: NodeId, dst: NodeId, len: usize) -> SimDuration {
        let base = self.cfg.latency.sample(&mut self.net_rng, src, dst, len);
        let noise = self.cfg.noise.sample(&mut self.net_rng);
        let loss = self.cfg.loss.sample(&mut self.net_rng);
        // Per-link fault jitter. Scenarios that never call
        // `set_link_jitter` take no draw here, keeping their RNG stream —
        // and hence their pinned digests — untouched.
        let fault_jitter = match self.link_jitter.get(&Self::link_key(src, dst)) {
            Some(bound) if src != dst && !bound.is_zero() => {
                use rand::Rng;
                SimDuration::from_nanos(self.net_rng.gen_range(0..=bound.as_nanos()))
            }
            _ => SimDuration::ZERO,
        };
        base + noise + loss + fault_jitter
    }
}

/// The kernel-backed [`SysApi`] implementation handed to processes.
struct Ctx<'a> {
    sim: &'a mut Simulation,
    pid: ProcessId,
}

impl Ctx<'_> {
    fn slot_mut(&mut self) -> &mut ProcLive {
        self.sim.live_mut(self.pid).expect("own slot exists")
    }
    fn node(&self) -> NodeId {
        self.sim.meta(self.pid).expect("own slot exists").node
    }
    fn busy_until(&self) -> SimTime {
        self.sim.meta(self.pid).expect("own slot exists").busy_until
    }
}

impl SysApi for Ctx<'_> {
    fn now(&self) -> SimTime {
        self.sim.now
    }

    fn my_node(&self) -> NodeId {
        self.node()
    }

    fn my_pid(&self) -> ProcessId {
        self.pid
    }

    fn listen(&mut self, port: Port) -> Result<ListenerId, SysError> {
        let node = self.node();
        let addr = Addr::new(node, port);
        let Some(by_port) = self.sim.node_listeners.get_mut(node.0 as usize) else {
            return Err(SysError::NoSuchTarget); // own node always exists
        };
        let pos = match by_port.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(_) => return Err(SysError::PortInUse(port)),
            Err(pos) => pos,
        };
        let lsn = ListenerId(self.sim.listeners.insert((self.pid, addr)));
        if let Some(by_port) = self.sim.node_listeners.get_mut(node.0 as usize) {
            by_port.insert(pos, (port, lsn));
        }
        self.slot_mut().listeners.insert(lsn);
        Ok(lsn)
    }

    fn unlisten(&mut self, listener: ListenerId) {
        if let Some((owner, addr)) = self.sim.listeners.get(listener.0).copied() {
            if owner == self.pid {
                self.sim.listeners.remove(listener.0);
                self.sim.unbind_listener_addr(addr);
                self.slot_mut().listeners.remove(&listener);
            }
        }
    }

    fn connect(&mut self, addr: Addr) -> ConnId {
        let node = self.node();
        let ep_id = ConnId(self.sim.endpoints.len() as u64);
        self.sim.endpoints.push(Endpoint {
            owner: self.pid,
            peer: None,
            state: EpState::Connecting,
            recv: RecvQueue::new(),
            peer_eof: false,
            last_arrival: self.sim.now,
            tag: None,
            remote_node: addr.node,
        });
        self.slot_mut().conns.insert(ep_id);
        self.emit(obs::EventKind::ConnectAttempt {
            to_node: addr.node.0,
            port: addr.port.0,
        });
        let send_at = self.sim.now.max(self.busy_until());
        let lat = self.sim.sample_latency(node, addr.node, 0);
        self.sim.push(
            send_at + lat,
            Action::ConnectAttempt {
                client_ep: ep_id,
                addr,
            },
        );
        ep_id
    }

    fn write_bytes(&mut self, conn: ConnId, bytes: Bytes) -> Result<(), SysError> {
        let now = self.sim.now;
        let busy_until = self.busy_until();
        let src_node = self.node();
        let ep = self.sim.endpoint(conn).ok_or(SysError::UnknownConn(conn))?;
        if ep.owner != self.pid {
            return Err(SysError::UnknownConn(conn));
        }
        match ep.state {
            EpState::Connecting => return Err(SysError::NotEstablished(conn)),
            EpState::ClosedLocal => return Err(SysError::ClosedLocally(conn)),
            EpState::Established => {}
        }
        if ep.peer_eof {
            return Err(SysError::PeerClosed(conn));
        }
        let peer_id = ep.peer.ok_or(SysError::NotEstablished(conn))?;
        let dst_node = ep.remote_node;
        let tag = ep.tag;
        let depart = now.max(busy_until);
        if let Some(tag) = tag {
            self.sim
                .metrics
                .record_bytes(tag, depart, bytes.len() as u64);
        }
        // Is the peer still able to receive? If its process is dead the
        // bytes are silently lost (the EOF races them).
        let lat = self.sim.sample_latency(src_node, dst_node, bytes.len());
        let arrival = self.sim.fifo_arrival(peer_id, depart + lat);
        self.sim.push(
            arrival,
            Action::DeliverData {
                ep: peer_id,
                data: bytes,
            },
        );
        Ok(())
    }

    fn read(&mut self, conn: ConnId, max: usize) -> Result<ReadOutcome, SysError> {
        let ep = self
            .sim
            .endpoint_mut(conn)
            .ok_or(SysError::UnknownConn(conn))?;
        if ep.owner != self.pid {
            return Err(SysError::UnknownConn(conn));
        }
        if ep.state == EpState::ClosedLocal {
            return Err(SysError::ClosedLocally(conn));
        }
        let data = ep.recv.read(max);
        let eof = ep.recv.is_empty() && ep.peer_eof;
        Ok(ReadOutcome { data, eof })
    }

    fn close(&mut self, conn: ConnId) {
        let owns = self
            .sim
            .endpoint(conn)
            .map(|ep| ep.owner == self.pid)
            .unwrap_or(false);
        if !owns {
            return;
        }
        self.slot_mut().conns.remove(&conn);
        self.sim.close_endpoint(conn);
    }

    fn set_timer(&mut self, after: SimDuration, token: u64) -> TimerId {
        let timer = TimerId(self.sim.timers.insert(TimerState {
            pid: self.pid,
            token,
            cancelled: false,
        }));
        let at = self.sim.now + after;
        self.sim.push(at, Action::TimerFire { timer });
        timer
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        if let Some(ts) = self.sim.timers.get_mut(timer.0) {
            if ts.pid == self.pid {
                ts.cancelled = true;
            }
        }
    }

    fn spawn(
        &mut self,
        node: NodeId,
        name: &str,
        factory: ProcessFactory,
    ) -> Result<ProcessId, SysError> {
        if !self.sim.node_alive(node) {
            return Err(SysError::NoSuchTarget);
        }
        Ok(self.sim.spawn_internal(node, name, factory()))
    }

    fn exit(&mut self, reason: ExitReason) {
        self.slot_mut().exit_requested = Some(reason);
    }

    fn charge_cpu(&mut self, cost: SimDuration) {
        let now = self.sim.now;
        if let Some(meta) = self.sim.procs.get_mut(self.pid.0 as usize) {
            meta.busy_until = meta.busy_until.max(now) + cost;
        }
    }

    fn rng(&mut self) -> &mut SimRng {
        &mut self.slot_mut().rng
    }

    fn tag_conn(&mut self, conn: ConnId, tag: &'static str) {
        if let Some(ep) = self.sim.endpoint_mut(conn) {
            if ep.owner == self.pid {
                ep.tag = Some(tag);
            }
        }
    }

    fn count(&mut self, counter: &'static str, delta: u64) {
        self.sim.metrics.count(counter, delta);
    }

    fn emit(&mut self, kind: obs::EventKind) {
        let node = self.node();
        self.sim
            .recorder
            .emit(self.sim.now.as_nanos(), node.0, self.pid.0, kind);
    }
}

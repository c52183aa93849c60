//! The trace event taxonomy.

use crate::span::Phase;

/// What happened. Kernel lifecycle, recovery phases and retries share
/// one ordered stream so cross-layer causality is visible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A typed recovery phase (see [`Phase`]).
    Phase(Phase),
    /// A process initiated a connection.
    ConnectAttempt {
        /// Destination node index.
        to_node: u32,
        /// Destination port.
        port: u16,
    },
    /// A connection attempt resolved.
    ConnectOutcome {
        /// Destination node index.
        to_node: u32,
        /// Destination port.
        port: u16,
        /// Whether a listener accepted it.
        ok: bool,
    },
    /// The kernel cut links between two nodes.
    Partition {
        /// One side of the cut.
        a: u32,
        /// The other side.
        b: u32,
    },
    /// The kernel restored links between two nodes.
    Heal {
        /// One side of the restored pair.
        a: u32,
        /// The other side.
        b: u32,
    },
    /// The kernel cut one direction of a link (asymmetric partition).
    PartitionOneway {
        /// Node whose outbound traffic is blocked.
        from: u32,
        /// Destination the blocked traffic was heading to.
        to: u32,
    },
    /// The kernel restored a previously cut link direction.
    HealOneway {
        /// Node whose outbound traffic resumes.
        from: u32,
        /// Destination the traffic flows to again.
        to: u32,
    },
    /// The kernel changed the extra fault-jitter bound on a link
    /// (`bound_ns == 0` clears it).
    LinkJitter {
        /// One side of the link (lower node index).
        a: u32,
        /// The other side.
        b: u32,
        /// Upper bound of the extra uniform per-delivery delay, in
        /// sim-nanoseconds.
        bound_ns: u64,
    },
    /// A chaos fault was injected into the run (executor- or
    /// interceptor-originated marker; the `fault` tag is the
    /// `FaultKind` snake-case name).
    FaultInjected {
        /// Snake-case fault-model name.
        fault: &'static str,
    },
    /// A resource-exhaustion model reported its consumption level.
    ResourcePressure {
        /// Which resource (`"cpu"` or `"fd"`).
        resource: &'static str,
        /// Consumed fraction of capacity, in permille.
        permille: u32,
    },
    /// A process was spawned.
    Spawn {
        /// Node the process landed on.
        node: u32,
        /// The process label.
        label: String,
    },
    /// A process exited.
    Exit {
        /// True for a crash (fault), false for a graceful exit.
        crashed: bool,
    },
    /// One kernel action dispatched (recorded only at
    /// [`TraceLevel::Kernel`](crate::TraceLevel::Kernel)).
    Dispatch {
        /// Static name of the action variant.
        action: &'static str,
    },
    /// The ORB retry policy scheduled another connection attempt.
    Retry {
        /// 1-based attempt number.
        attempt: u32,
        /// Back-off delay before the attempt, in sim-nanoseconds.
        delay_ns: u64,
    },
    /// A process rejected malformed or unexpected input (an unframeable
    /// stream, an undecodable message, a message its role never accepts)
    /// and kept serving. `what` names the rejecting site, dotted like a
    /// counter: `"gcs.protocol_error"`, `"rm.bad_group_msg"`.
    ProtocolError(&'static str),
}

impl EventKind {
    /// Stable lower-snake name of the variant, used as the JSONL `ev` tag.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Phase(p) => p.name(),
            EventKind::ConnectAttempt { .. } => "connect_attempt",
            EventKind::ConnectOutcome { .. } => "connect_outcome",
            EventKind::Partition { .. } => "partition",
            EventKind::Heal { .. } => "heal",
            EventKind::PartitionOneway { .. } => "partition_oneway",
            EventKind::HealOneway { .. } => "heal_oneway",
            EventKind::LinkJitter { .. } => "link_jitter",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::ResourcePressure { .. } => "resource_pressure",
            EventKind::Spawn { .. } => "spawn",
            EventKind::Exit { .. } => "exit",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Retry { .. } => "retry",
            EventKind::ProtocolError(_) => "protocol_error",
        }
    }
}

/// How many `phase` events `trace` holds: an occurrence is counted from
/// the trace, not kept in a counter of its own.
pub fn count_phase(trace: &[TraceEvent], phase: Phase) -> u64 {
    let kind = EventKind::Phase(phase);
    trace.iter().filter(|ev| ev.kind == kind).count() as u64
}

/// One recorded event: where and when (in simulated time) plus what.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Position in the trace (0-based, gap-free).
    pub seq: u64,
    /// Simulated time in nanoseconds since the run started.
    pub at_ns: u64,
    /// Node index the emitting process ran on (kernel events use the
    /// primary affected node).
    pub node: u32,
    /// Raw process id of the emitter; 0 for kernel-originated events.
    pub pid: u64,
    /// What happened.
    pub kind: EventKind,
}

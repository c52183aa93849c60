//! The scheduler choice-point API: pluggable event-ordering policies.
//!
//! The kernel's default dispatch order is the total `(at, seq)` order the
//! timing wheel maintains — FIFO per connection, deterministic overall.
//! That single order is one point in a much larger space of *physically
//! plausible* schedules: any two pending events whose timestamps fall
//! within network-jitter distance of each other could have arrived in
//! either order on a real network. This module surfaces those ties as
//! explicit **choice points** to a pluggable [`Scheduler`], which is how
//! the schedule-space explorer (`crates/explore`) enumerates adversarial
//! interleavings of message delivery, crash notification and timer fire
//! without perturbing the kernel's semantics.
//!
//! # Contract
//!
//! * [`FifoScheduler`] (the default wired by `Simulation::new`) keeps the
//!   kernel on its historical fast path: no choice points are surfaced
//!   and every scenario digest stays bit-identical.
//! * A non-FIFO scheduler sees a [`ChoicePoint`] whenever more than one
//!   queued event is *ready* — due within [`Scheduler::slack`] of the
//!   earliest pending event. Candidates are listed in `(at, seq)` order,
//!   so index 0 is always the kernel-default pick.
//! * Per-connection FIFO is never offered for reordering: of several
//!   candidates on one connection only the earliest is `eligible`, and
//!   the kernel clamps any ineligible or out-of-range pick back to the
//!   first eligible candidate (index 0 is always eligible). The scheduler
//!   chooses *which race resolves first*, never whether a byte stream is
//!   reordered.
//! * Picking a later candidate models late delivery, not time travel: the
//!   clock advances to the chosen event's timestamp and the deferred
//!   candidates keep their original `(at, seq)` keys, so they dispatch at
//!   an unchanged simulated time as soon as the scheduler lets them.
//!
//! A schedule is captured as a [`DecisionTrace`] — a versioned JSONL
//! artifact, digest-folded so reports can pin it — and replayed with a
//! [`ReplayScheduler`], which re-applies the recorded picks decision by
//! decision. Record and replay stay aligned because both sides gate on
//! the same [`GateCfg`] carried in the trace header.

use crate::ids::{ConnId, ProcessId};
use crate::metrics::Fnv;
use crate::time::{SimDuration, SimTime};

/// Upper bound on the candidates surfaced at one choice point. Bounds
/// both the kernel's pool-collection work and the explorer's branching
/// factor; events beyond the bound stay queued and simply surface at the
/// next choice point.
pub const MAX_CANDIDATES: usize = 8;

/// Schema tag written in the first line of every serialised
/// [`DecisionTrace`].
pub const TRACE_SCHEMA: &str = "decision-trace/1";

/// What kind of kernel action a [`Candidate`] would dispatch. Mirrors
/// the kernel's internal action set one-to-one, minus the coalesced
/// batch form (batching is disabled under a non-FIFO scheduler so every
/// event is individually reorderable).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CandidateKind {
    /// A spawned process's `on_start` is due.
    StartProcess,
    /// A connection SYN arrives at the listener's node.
    ConnectAttempt,
    /// A SYN-ACK (or refusal) arrives back at the initiator.
    ConnectResult,
    /// Bytes arrive at an endpoint.
    DeliverData,
    /// An EOF arrives at an endpoint (peer closed or died).
    DeliverEof,
    /// A timer fires.
    TimerFire,
    /// A parked notification is re-delivered to its process.
    Notify,
}

impl CandidateKind {
    /// Static name, as used in kernel `Dispatch` trace events.
    pub fn name(self) -> &'static str {
        match self {
            CandidateKind::StartProcess => "start_process",
            CandidateKind::ConnectAttempt => "connect_attempt",
            CandidateKind::ConnectResult => "connect_result",
            CandidateKind::DeliverData => "deliver_data",
            CandidateKind::DeliverEof => "deliver_eof",
            CandidateKind::TimerFire => "timer_fire",
            CandidateKind::Notify => "notify",
        }
    }
}

/// One ready event offered at a [`ChoicePoint`]. Carries scheduling
/// metadata only — the payload stays inside the kernel.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// Scheduled dispatch time.
    pub at: SimTime,
    /// Kernel sequence number (the FIFO tie-break).
    pub seq: u64,
    /// Action kind, for commutativity/conflict analysis.
    pub kind: CandidateKind,
    /// The handler class dispatching this candidate will invoke on the
    /// target process: the process-facing `Event` variant name
    /// (`"data_readable"`, `"timer_fired"`, `"conn_established"`, …),
    /// `"on_start"` for process launches, or the action name for
    /// kernel-internal steps with no process handler. This is the key
    /// a `conflict-relation/1` artifact uses to refine conflicts.
    pub class: &'static str,
    /// The process the action ultimately targets, when known: the
    /// notified/started process, the timer's owner, or the endpoint's
    /// owner. Two candidates targeting the same process *conflict* —
    /// their order is observable.
    pub target: Option<ProcessId>,
    /// The connection the action rides on, when any. Two candidates on
    /// one connection never commute (per-connection FIFO), so only the
    /// earliest is [`eligible`](Candidate::eligible).
    pub conn: Option<ConnId>,
    /// The connection whose kernel-side state the dispatched handler
    /// will touch, when any: the delivery endpoint for data/EOF, or the
    /// connection named by a parked notification's event. Unlike
    /// [`conn`](Candidate::conn) this carries no FIFO-eligibility
    /// meaning — it exists so a conflict relation can tell a re-drain
    /// of one connection's queue from reads of two distinct queues.
    pub touch_conn: Option<ConnId>,
    /// Whether the kernel will accept this candidate as a pick. The
    /// first candidate of every connection is eligible; later ones are
    /// not. Index 0 is always eligible.
    pub eligible: bool,
}

/// A set of ready events whose dispatch order the scheduler may decide.
/// Candidates appear in `(at, seq)` order; index 0 is the kernel's
/// default (FIFO) pick.
#[derive(Clone, Debug)]
pub struct ChoicePoint {
    /// Running count of choice points surfaced this run (0-based). Only
    /// multi-candidate pools are surfaced, so this is the index of the
    /// decision, not of the dispatch.
    pub step: u64,
    /// Simulated time of the earliest candidate.
    pub now: SimTime,
    /// The ready events, in `(at, seq)` order, at most
    /// [`MAX_CANDIDATES`] of them.
    pub candidates: Vec<Candidate>,
}

/// An event-ordering policy plugged into the kernel via
/// `Simulation::with_scheduler`.
///
/// Implementations must be deterministic functions of the choice-point
/// stream (plus their own construction-time state): the kernel replays
/// schedules by re-running the simulation, so any hidden entropy breaks
/// record/replay digest identity.
pub trait Scheduler {
    /// Picks the index of the candidate to dispatch next. Returns out of
    /// range or ineligible picks are clamped by the kernel to the first
    /// eligible candidate (index 0 is always a safe default).
    fn choose(&mut self, cp: &ChoicePoint) -> usize;

    /// `true` only for [`FifoScheduler`]: the kernel then dispatches each
    /// popped event as is (no candidate pooling) and coalesces notify
    /// waves, so default runs are bit-identical to the pre-scheduler
    /// kernel.
    fn is_fifo(&self) -> bool {
        false
    }

    /// The reorder window: two events are tied (offered together) when
    /// the later one is due within `slack` of the earlier. Zero slack
    /// still surfaces exact `(at)` ties.
    fn slack(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// The default scheduler: always picks candidate 0, reproducing the
/// kernel's historical `(at, seq)` total order exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _cp: &ChoicePoint) -> usize {
        0
    }

    fn is_fifo(&self) -> bool {
        true
    }
}

/// Which choice points consume a decision ordinal. Carried in the
/// [`DecisionTrace`] header so the recording and replaying schedulers
/// gate identically — a decision index in the trace means the same
/// choice point on both sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateCfg {
    /// Choice points before this instant pass through un-gated (the
    /// scheduler defaults to candidate 0 and no ordinal is consumed).
    /// Lets the explorer skip the deterministic boot phase.
    pub window_start: SimTime,
    /// Choice points after this instant pass through un-gated.
    pub window_end: SimTime,
    /// At most this many decisions are gated per run (budget guard).
    pub max_steps: u64,
    /// The reorder window the scheduler advertises via
    /// [`Scheduler::slack`].
    pub slack: SimDuration,
}

impl Default for GateCfg {
    fn default() -> Self {
        GateCfg {
            window_start: SimTime::ZERO,
            window_end: SimTime::from_nanos(u64::MAX),
            max_steps: 4096,
            slack: SimDuration::ZERO,
        }
    }
}

/// Stateful gate: applies a [`GateCfg`] to the choice-point stream,
/// handing out consecutive decision ordinals to the admitted ones.
#[derive(Clone, Debug)]
pub struct Gate {
    cfg: GateCfg,
    used: u64,
}

impl Gate {
    /// A fresh gate over `cfg` (no ordinals consumed yet).
    pub fn new(cfg: GateCfg) -> Self {
        Gate { cfg, used: 0 }
    }

    /// The configuration this gate applies.
    pub fn cfg(&self) -> GateCfg {
        self.cfg
    }

    /// Admits or passes `cp`: inside the window and under budget, the
    /// next decision ordinal is consumed and returned; otherwise `None`
    /// (the scheduler should fall back to the default pick).
    pub fn admit(&mut self, cp: &ChoicePoint) -> Option<u64> {
        if cp.now < self.cfg.window_start || cp.now > self.cfg.window_end {
            return None;
        }
        if self.used >= self.cfg.max_steps {
            return None;
        }
        let ordinal = self.used;
        self.used += 1;
        Some(ordinal)
    }
}

/// One recorded decision: at gated choice point `step`, among `n`
/// candidates (earliest due at `at_ns`), index `chosen` was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Decision ordinal (the gate's count, 0-based).
    pub step: u64,
    /// Simulated time of the earliest candidate, in nanoseconds.
    pub at_ns: u64,
    /// Number of candidates offered.
    pub n: u64,
    /// Index picked (0 = kernel default).
    pub chosen: u64,
}

/// Errors from [`DecisionTrace::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input had no header line.
    MissingHeader,
    /// The header's schema tag was not [`TRACE_SCHEMA`].
    BadSchema,
    /// A line (1-based, counting the header) was not a decision record.
    BadLine(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MissingHeader => write!(f, "decision trace: missing header line"),
            TraceError::BadSchema => {
                write!(f, "decision trace: header schema is not {TRACE_SCHEMA:?}")
            }
            TraceError::BadLine(n) => write!(f, "decision trace: malformed record at line {n}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A recorded schedule: the gate configuration it was taken under plus
/// every gated decision, in order. Serialises to versioned JSONL — one
/// header line, one line per decision — and folds to a stable digest so
/// reports can name a schedule by fingerprint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecisionTrace {
    /// Gating that was active while recording (replay must match it).
    pub gate: GateCfg,
    /// The gated decisions, ordered by `step`.
    pub decisions: Vec<Decision>,
}

impl DecisionTrace {
    /// A trace over `gate` with no decisions (the all-default schedule).
    pub fn empty(gate: GateCfg) -> Self {
        DecisionTrace {
            gate,
            decisions: Vec::new(),
        }
    }

    /// How many decisions deviate from the kernel default (index 0).
    /// This is the size the minimizer drives down.
    pub fn deviations(&self) -> usize {
        self.decisions.iter().filter(|d| d.chosen != 0).count()
    }

    /// Serialises the trace as versioned JSONL (header + one line per
    /// decision, each `\n`-terminated).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"schema\":\"{TRACE_SCHEMA}\",\"slack_ns\":{},\"window_start_ns\":{},\"window_end_ns\":{},\"max_steps\":{}}}\n",
            self.gate.slack.as_nanos(),
            self.gate.window_start.as_nanos(),
            self.gate.window_end.as_nanos(),
            self.gate.max_steps,
        ));
        for d in &self.decisions {
            out.push_str(&format!(
                "{{\"step\":{},\"at_ns\":{},\"n\":{},\"chosen\":{}}}\n",
                d.step, d.at_ns, d.n, d.chosen,
            ));
        }
        out
    }

    /// Parses the JSONL form produced by [`to_jsonl`](Self::to_jsonl).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the header is missing, carries the
    /// wrong schema tag, or any record line is malformed.
    pub fn parse(input: &str) -> Result<Self, TraceError> {
        let mut lines = input
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or(TraceError::MissingHeader)?;
        if !header.contains(&format!("\"schema\":\"{TRACE_SCHEMA}\"")) {
            return Err(TraceError::BadSchema);
        }
        let field = |line: &str, key: &str, lineno: usize| -> Result<u64, TraceError> {
            json_u64(line, key).ok_or(TraceError::BadLine(lineno + 1))
        };
        let gate = GateCfg {
            slack: SimDuration::from_nanos(field(header, "slack_ns", 0)?),
            window_start: SimTime::from_nanos(field(header, "window_start_ns", 0)?),
            window_end: SimTime::from_nanos(field(header, "window_end_ns", 0)?),
            max_steps: field(header, "max_steps", 0)?,
        };
        let mut decisions = Vec::new();
        for (lineno, line) in lines {
            decisions.push(Decision {
                step: field(line, "step", lineno)?,
                at_ns: field(line, "at_ns", lineno)?,
                n: field(line, "n", lineno)?,
                chosen: field(line, "chosen", lineno)?,
            });
        }
        Ok(DecisionTrace { gate, decisions })
    }

    /// FNV-1a fold of the serialised JSONL bytes: a stable fingerprint
    /// for naming and comparing schedules across runs and machines.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv::new();
        hash.bytes(self.to_jsonl().as_bytes());
        hash.finish()
    }
}

/// Extracts the unsigned integer following `"key":` in a JSON-ish line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let idx = line.find(&pat)? + pat.len();
    let rest = line.get(idx..)?;
    let end = rest
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest.get(..end)?.parse().ok()
}

/// Replays a recorded schedule: at each gated choice point, applies the
/// next recorded pick; everywhere else (and past the end of the
/// recording) it falls back to the kernel default. Driving the same
/// simulation with the trace it recorded reproduces the run bit for
/// bit.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    gate: Gate,
    choices: Vec<u64>,
}

impl ReplayScheduler {
    /// A replayer over an explicit decision vector: `choices[i]` is the
    /// pick at gated decision `i` (0 = kernel default). Indices past the
    /// end replay as 0, so a truncated vector is a valid (shorter)
    /// schedule — the property the minimizer's prefix bisection rests
    /// on.
    pub fn new(gate: GateCfg, choices: Vec<u64>) -> Self {
        ReplayScheduler {
            gate: Gate::new(gate),
            choices,
        }
    }

    /// A replayer for `trace`, gating exactly as the recorder did.
    pub fn from_trace(trace: &DecisionTrace) -> Self {
        let mut choices = vec![0u64; trace.decisions.len()];
        for d in &trace.decisions {
            if let Some(slot) = choices.get_mut(d.step as usize) {
                *slot = d.chosen;
            }
        }
        ReplayScheduler::new(trace.gate, choices)
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        match self.gate.admit(cp) {
            Some(ordinal) => self.choices.get(ordinal as usize).copied().unwrap_or(0) as usize,
            None => 0,
        }
    }

    fn slack(&self) -> SimDuration {
        self.gate.cfg().slack
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> DecisionTrace {
        DecisionTrace {
            gate: GateCfg {
                window_start: SimTime::from_nanos(1_000),
                window_end: SimTime::from_nanos(9_000),
                max_steps: 64,
                slack: SimDuration::from_nanos(500),
            },
            decisions: vec![
                Decision {
                    step: 0,
                    at_ns: 1_200,
                    n: 3,
                    chosen: 2,
                },
                Decision {
                    step: 1,
                    at_ns: 4_700,
                    n: 2,
                    chosen: 0,
                },
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = DecisionTrace::parse(&text).expect("parses");
        assert_eq!(back, trace);
        assert_eq!(back.digest(), trace.digest());
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert_eq!(DecisionTrace::parse(""), Err(TraceError::MissingHeader));
        assert_eq!(
            DecisionTrace::parse("{\"schema\":\"nope/9\"}\n"),
            Err(TraceError::BadSchema)
        );
        let trace = sample_trace();
        let mut text = trace.to_jsonl();
        text.push_str("{\"step\":oops}\n");
        assert!(matches!(
            DecisionTrace::parse(&text),
            Err(TraceError::BadLine(_))
        ));
    }

    #[test]
    fn gate_respects_window_and_budget() {
        let cfg = GateCfg {
            window_start: SimTime::from_nanos(100),
            window_end: SimTime::from_nanos(200),
            max_steps: 2,
            slack: SimDuration::ZERO,
        };
        let mut gate = Gate::new(cfg);
        let cp = |ns: u64| ChoicePoint {
            step: 0,
            now: SimTime::from_nanos(ns),
            candidates: Vec::new(),
        };
        assert_eq!(gate.admit(&cp(50)), None); // before window
        assert_eq!(gate.admit(&cp(150)), Some(0));
        assert_eq!(gate.admit(&cp(160)), Some(1));
        assert_eq!(gate.admit(&cp(170)), None); // budget exhausted
        assert_eq!(gate.admit(&cp(250)), None); // past window
    }

    #[test]
    fn replay_follows_choices_then_defaults() {
        let cfg = GateCfg {
            max_steps: 8,
            ..GateCfg::default()
        };
        let mut replay = ReplayScheduler::new(cfg, vec![1, 0, 2]);
        let cp = ChoicePoint {
            step: 0,
            now: SimTime::from_nanos(10),
            candidates: Vec::new(),
        };
        assert_eq!(replay.choose(&cp), 1);
        assert_eq!(replay.choose(&cp), 0);
        assert_eq!(replay.choose(&cp), 2);
        assert_eq!(replay.choose(&cp), 0); // past the recording
    }

    #[test]
    fn deviations_counts_non_default_picks() {
        let trace = sample_trace();
        assert_eq!(trace.deviations(), 1);
    }
}

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
//! * A choosing scheduler names a decision gate ([`Scheduler::gate`]),
//!   which the kernel owns and applies *before* it builds anything:
//!   while the gate is closed — outside its window, or with its budget
//!   spent — the earliest pending event dispatches exactly as under
//!   FIFO, and no choice point is ever built.
//! * While the gate is open the scheduler sees a [`ChoicePoint`]
//!   whenever more than one queued event is *ready* — due within
//!   [`GateCfg::slack`] of the earliest pending event. Candidates are
//!   listed in `(at, seq)` order, so index 0 is always the
//!   kernel-default pick.
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
//! decision. Record and replay stay aligned because the kernel applies
//! the one [`GateCfg`] carried in the trace header to both runs and
//! numbers the decisions itself ([`ChoicePoint::step`]).

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
    /// The decision ordinal (0-based): how many choice points the kernel
    /// surfaced before this one, counted against
    /// [`GateCfg::max_steps`]. Only a multi-candidate pool collected
    /// while the gate is open consumes an ordinal, so this indexes the
    /// decision, not the dispatch, and is the `step` a [`Decision`]
    /// records.
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
    /// eligible candidate (index 0 is always a safe default). Called
    /// only while the gate is open, with at least two candidates and
    /// with `cp.step` = 0, 1, 2, … in turn.
    fn choose(&mut self, cp: &ChoicePoint) -> usize;

    /// The decision gate the kernel applies on this scheduler's behalf,
    /// read once when the simulation is built. `None` only for
    /// [`FifoScheduler`]: the kernel then dispatches each popped event as
    /// is, never calls [`choose`](Self::choose), and coalesces notify
    /// waves, so default runs are bit-identical to the pre-scheduler
    /// kernel.
    fn gate(&self) -> Option<GateCfg>;
}

/// The default scheduler: always picks candidate 0, reproducing the
/// kernel's historical `(at, seq)` total order exactly.
#[derive(Clone, Copy, Debug, Default)]
pub struct FifoScheduler;

impl Scheduler for FifoScheduler {
    fn choose(&mut self, _cp: &ChoicePoint) -> usize {
        0
    }

    fn gate(&self) -> Option<GateCfg> {
        None
    }
}

/// Which choice points exist. The kernel owns the gate: it tests the
/// earliest pending event against it before pooling anything, and hands
/// out the decision ordinals. Carried in the [`DecisionTrace`] header so
/// a recording and its replay are gated identically — a decision index
/// in the trace means the same choice point on both sides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateCfg {
    /// Choice points before this instant are never built: the earliest
    /// pending event dispatches as under FIFO and no ordinal is
    /// consumed. Lets the explorer skip the deterministic boot phase at
    /// FIFO cost.
    pub window_start: SimTime,
    /// Choice points after this instant are never built.
    pub window_end: SimTime,
    /// At most this many decisions are made per run (budget guard); once
    /// they are spent the gate stays closed.
    pub max_steps: u64,
    /// The reorder window: two events are tied (offered together) when
    /// the later one is due within `slack` of the earlier. Zero slack
    /// still surfaces exact `(at)` ties.
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

impl GateCfg {
    /// Whether the gate is open for a choice point whose earliest
    /// candidate is due at `now`, `used` decisions into the run: inside
    /// the window (inclusive at both ends) and under budget.
    pub(crate) fn is_open(&self, now: SimTime, used: u64) -> bool {
        self.window_start <= now && now <= self.window_end && used < self.max_steps
    }
}

/// One recorded decision: at choice point `step`, among `n` candidates
/// (earliest due at `at_ns`), index `chosen` was dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Decision ordinal ([`ChoicePoint::step`], 0-based).
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
    /// The record at this line carries a `step` other than its position
    /// among the records: steps must run 0, 1, 2, … with no gap, repeat
    /// or reordering, because replay applies picks by position.
    StepOutOfOrder(usize),
    /// The record at this line names a pool the kernel cannot have
    /// offered (`n` outside `2..=`[`MAX_CANDIDATES`]) or a pick outside
    /// it (`chosen >= n`).
    PickOutOfRange(usize),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::MissingHeader => write!(f, "decision trace: missing header line"),
            TraceError::BadSchema => {
                write!(f, "decision trace: header schema is not {TRACE_SCHEMA:?}")
            }
            TraceError::BadLine(n) => write!(f, "decision trace: malformed record at line {n}"),
            TraceError::StepOutOfOrder(n) => write!(
                f,
                "decision trace: record at line {n} is out of step order (steps must run 0, 1, 2, …)"
            ),
            TraceError::PickOutOfRange(n) => write!(
                f,
                "decision trace: record at line {n} has a pool size outside 2..={MAX_CANDIDATES} or a pick outside the pool"
            ),
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
    /// wrong schema tag, or any record line is malformed, out of step
    /// order, or names a pool or pick the kernel cannot have produced —
    /// anything [`ReplayScheduler::from_trace`] could not replay as
    /// written.
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
            let d = Decision {
                step: field(line, "step", lineno)?,
                at_ns: field(line, "at_ns", lineno)?,
                n: field(line, "n", lineno)?,
                chosen: field(line, "chosen", lineno)?,
            };
            if d.step != decisions.len() as u64 {
                return Err(TraceError::StepOutOfOrder(lineno + 1));
            }
            if d.n < 2 || d.n > MAX_CANDIDATES as u64 || d.chosen >= d.n {
                return Err(TraceError::PickOutOfRange(lineno + 1));
            }
            decisions.push(d);
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

/// Replays a recorded schedule: at each choice point, applies the next
/// recorded pick; past the end of the recording it falls back to the
/// kernel default. Driving the same simulation with the trace it
/// recorded reproduces the run bit for bit.
#[derive(Clone, Debug)]
pub struct ReplayScheduler {
    gate: GateCfg,
    choices: Vec<u64>,
}

impl ReplayScheduler {
    /// A replayer over an explicit decision vector: `choices[i]` is the
    /// pick at decision `i` (0 = kernel default). Indices past the end
    /// replay as 0, so a truncated vector is a valid (shorter)
    /// schedule — the property the minimizer's prefix bisection rests
    /// on.
    pub fn new(gate: GateCfg, choices: Vec<u64>) -> Self {
        ReplayScheduler { gate, choices }
    }

    /// A replayer for `trace`, gated exactly as the recording was.
    pub fn from_trace(trace: &DecisionTrace) -> Self {
        let choices = trace.decisions.iter().map(|d| d.chosen).collect();
        ReplayScheduler::new(trace.gate, choices)
    }
}

impl Scheduler for ReplayScheduler {
    fn choose(&mut self, cp: &ChoicePoint) -> usize {
        self.choices.get(cp.step as usize).copied().unwrap_or(0) as usize
    }

    fn gate(&self) -> Option<GateCfg> {
        Some(self.gate)
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

    /// A hand-edited trace that replay could only apply as some *other*
    /// schedule is refused, naming the offending line.
    #[test]
    fn parse_rejects_what_replay_cannot_apply() {
        let header = sample_trace()
            .to_jsonl()
            .lines()
            .next()
            .expect("header")
            .to_string();
        let parse =
            |records: &[&str]| DecisionTrace::parse(&format!("{header}\n{}\n", records.join("\n")));
        let rec = |step: u64, n: u64, chosen: u64| {
            format!("{{\"step\":{step},\"at_ns\":1200,\"n\":{n},\"chosen\":{chosen}}}")
        };
        // Steps must be the record's position: no late start, gap,
        // repeat or swap. The first offending line is the one named.
        for (first, second, line) in [(1, 2, 2), (0, 2, 3), (0, 0, 3), (1, 0, 2)] {
            assert_eq!(
                parse(&[&rec(first, 2, 1), &rec(second, 2, 1)]),
                Err(TraceError::StepOutOfOrder(line))
            );
        }
        // Pools hold 2..=MAX_CANDIDATES candidates; the pick is one of them.
        let max = MAX_CANDIDATES as u64;
        for (n, chosen) in [(0, 0), (1, 0), (max + 1, 0), (2, 2), (max, max)] {
            assert_eq!(
                parse(&[&rec(0, n, chosen)]),
                Err(TraceError::PickOutOfRange(2)),
                "n {n} chosen {chosen}"
            );
        }
        let ok = parse(&[&rec(0, 2, 1), &rec(1, max, max - 1)]).expect("in range");
        assert_eq!(ok.decisions.len(), 2);
    }

    #[test]
    fn gate_is_open_inside_the_window_and_under_budget() {
        let cfg = GateCfg {
            window_start: SimTime::from_nanos(100),
            window_end: SimTime::from_nanos(200),
            max_steps: 2,
            slack: SimDuration::ZERO,
        };
        let open = |ns: u64, used: u64| cfg.is_open(SimTime::from_nanos(ns), used);
        assert!(!open(99, 0)); // before the window
        assert!(open(100, 0)); // both ends are inside
        assert!(open(200, 1));
        assert!(!open(201, 1)); // past the window
        assert!(!open(150, 2)); // budget spent
    }

    #[test]
    fn replay_follows_choices_then_defaults() {
        let mut replay = ReplayScheduler::new(GateCfg::default(), vec![1, 0, 2]);
        let mut pick = |step: u64| {
            replay.choose(&ChoicePoint {
                step,
                now: SimTime::from_nanos(10),
                candidates: Vec::new(),
            })
        };
        assert_eq!([pick(0), pick(1), pick(2)], [1, 0, 2]);
        assert_eq!(pick(3), 0); // past the recording
    }

    /// `from_trace` applies the picks in record order, whatever a
    /// programmatically built trace put in `step`.
    #[test]
    fn from_trace_collects_picks_in_order() {
        let mut trace = sample_trace();
        for d in &mut trace.decisions {
            d.step = 7;
        }
        let replay = ReplayScheduler::from_trace(&trace);
        assert_eq!(replay.choices, vec![2, 0]);
        assert_eq!(replay.gate(), Some(trace.gate));
    }

    #[test]
    fn deviations_counts_non_default_picks() {
        let trace = sample_trace();
        assert_eq!(trace.deviations(), 1);
    }
}

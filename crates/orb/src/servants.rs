//! Application servants used by the paper's test application.
//!
//! The evaluation workload is "a simple CORBA client ... that requested the
//! time-of-day at 1 ms intervals" from replicated servers (section 5). The
//! [`TimeOfDayServant`] reproduces it; [`CounterServant`] is the second,
//! stateful application — the replicated counter every chaos plan,
//! explorer fixture and state-transfer test runs — over a
//! [`CounterState`] that checkpointing captures and restores.

use std::cell::Cell;
use std::rc::Rc;

use giop::{CdrReader, CdrWriter, Endian};
use simnet::{SimDuration, SysApi};

use crate::exceptions::{Completed, SystemException};
use crate::server::Servant;

/// Repository id of the time-of-day interface.
pub const TIME_TYPE_ID: &str = "IDL:TimeOfDay:1.0";
/// Repository id of the counter interface.
pub const COUNTER_TYPE_ID: &str = "IDL:Counter:1.0";

/// Returns the current simulated time in nanoseconds.
///
/// Operations:
/// * `time_of_day` () → `u64` nanoseconds since simulation start.
#[derive(Clone)]
pub struct TimeOfDayServant;

/// Per-call application CPU beyond ORB dispatch, calibrated with the ORB
/// charges to the paper's fault-free RTT (DESIGN §7).
const TIME_OF_DAY_CPU: SimDuration = SimDuration::from_micros(15);

impl Servant for TimeOfDayServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        _body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        match operation {
            "time_of_day" => {
                sys.charge_cpu(TIME_OF_DAY_CPU);
                let mut w = CdrWriter::new(Endian::Big);
                w.write_u64(sys.now().as_nanos());
                Ok(w.into_vec())
            }
            _ => Err(not_completed("IDL:omg.org/CORBA/BAD_OPERATION:1.0")),
        }
    }

    fn type_id(&self) -> &str {
        TIME_TYPE_ID
    }

    fn fork(&self, _state: Option<&Rc<CounterState>>) -> Option<Box<dyn Servant>> {
        Some(Box::new(self.clone()))
    }
}

fn not_completed(repo_id: &str) -> SystemException {
    SystemException::Other {
        repo_id: repo_id.into(),
        completed: Completed::No,
    }
}

/// Decodes a `time_of_day` reply payload.
///
/// # Errors
///
/// [`giop::CdrError`] on malformed payload.
pub fn decode_time_reply(payload: &[u8]) -> Result<u64, giop::CdrError> {
    let mut r = CdrReader::new(payload, Endian::Big);
    r.read_u64()
}

/// The replicated counter's state: the value plus the id of the last
/// applied `increment_once`, shared between the servant and the
/// checkpointing infrastructure. Snapshotting the two *together* is what
/// makes fail-over exactly-once: a restored backup knows precisely which
/// client operations the checkpoint already covers.
#[derive(Debug, Default)]
pub struct CounterState {
    value: Cell<u64>,
    last_op: Cell<u64>,
}

impl CounterState {
    /// Fresh state: value 0, no operations applied.
    pub fn new() -> Rc<CounterState> {
        Rc::new(CounterState::default())
    }

    /// A second state with the same contents, sharing nothing with this
    /// one: what a forked replica runs on.
    pub fn duplicate(&self) -> Rc<CounterState> {
        Rc::new(CounterState {
            value: self.value.clone(),
            last_op: self.last_op.clone(),
        })
    }

    /// Current counter value.
    pub fn value(&self) -> u64 {
        self.value.get()
    }

    /// Id of the last applied operation (0 = none).
    pub fn last_op(&self) -> u64 {
        self.last_op.get()
    }

    /// Applies operation `op_id` unconditionally — adds `delta` and
    /// advances the last-applied id to `op_id` if that is newer — and
    /// returns the new value. The servant's dedup check comes before
    /// this call; a servant without one applies retransmits twice.
    pub fn apply(&self, op_id: u64, delta: u64) -> u64 {
        self.last_op.set(self.last_op.get().max(op_id));
        self.value.set(self.value.get().wrapping_add(delta));
        self.value.get()
    }

    /// Serializes `(value, last_op)` as 16 big-endian bytes — the
    /// checkpoint payload for warm-passive replication.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.value.get().to_be_bytes());
        out.extend_from_slice(&self.last_op.get().to_be_bytes());
        out
    }

    /// Restores a [`CounterState::snapshot`]; ignores any payload of
    /// another length (the state keeps its previous contents).
    pub fn restore(&self, bytes: &[u8]) {
        if bytes.len() != 16 {
            return;
        }
        let word = |at: usize| {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[at..at + 8]);
            u64::from_be_bytes(w)
        };
        self.value.set(word(0));
        self.last_op.set(word(8));
    }
}

/// The replicated counter. `increment_once` has at-most-once semantics:
/// it carries a client-assigned operation id, and a retransmitted id is
/// acknowledged without being re-applied. Together with a client that
/// retries until acknowledged, this yields exactly-once increments
/// across fail-overs — the invariant the chaos campaign checks.
///
/// Operations:
/// * `increment_once` (`u64` op id, `u64` delta) → `u64` new value,
/// * `get` () → `u64` value.
#[derive(Debug, Default)]
pub struct CounterServant {
    state: Rc<CounterState>,
}

impl CounterServant {
    /// Creates a servant over `state` (shared with checkpointing).
    pub fn new(state: Rc<CounterState>) -> Self {
        CounterServant { state }
    }

    /// The state this servant serves from.
    pub fn state(&self) -> &Rc<CounterState> {
        &self.state
    }
}

impl Servant for CounterServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let marshal = |_| not_completed("IDL:omg.org/CORBA/MARSHAL:1.0");
        let value = match operation {
            "increment_once" => {
                let (op_id, delta) = decode_increment_once(body).map_err(marshal)?;
                let last_op = self.state.last_op();
                if op_id <= last_op {
                    sys.count("counter.duplicates", 1);
                    self.state.value()
                } else {
                    if op_id != last_op + 1 {
                        // A gap means an acked operation is missing from
                        // our state — surfaced so invariant checks can
                        // pin the failure to the replica, not the sums.
                        sys.count("counter.op_gap", 1);
                    }
                    sys.count("counter.increments", 1);
                    self.state.apply(op_id, delta)
                }
            }
            "get" => self.state.value(),
            _ => return Err(not_completed("IDL:omg.org/CORBA/BAD_OPERATION:1.0")),
        };
        Ok(encode_counter_reply(value))
    }

    fn type_id(&self) -> &str {
        COUNTER_TYPE_ID
    }

    fn fork(&self, state: Option<&Rc<CounterState>>) -> Option<Box<dyn Servant>> {
        let state = state.cloned().unwrap_or_else(|| self.state.duplicate());
        Some(Box::new(CounterServant::new(state)))
    }
}

/// Encodes an `increment_once` request body.
pub fn encode_increment_once(op_id: u64, delta: u64) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u64(op_id);
    w.write_u64(delta);
    w.into_vec()
}

/// Decodes an `increment_once` request body into `(op id, delta)`.
///
/// # Errors
///
/// [`giop::CdrError`] on malformed body.
pub fn decode_increment_once(body: &[u8]) -> Result<(u64, u64), giop::CdrError> {
    let mut r = CdrReader::new(body, Endian::Big);
    Ok((r.read_u64()?, r.read_u64()?))
}

/// Encodes a counter reply payload (every operation answers the value).
pub fn encode_counter_reply(value: u64) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u64(value);
    w.into_vec()
}

/// Decodes a counter reply payload.
///
/// # Errors
///
/// [`giop::CdrError`] on malformed payload.
pub fn decode_counter_reply(payload: &[u8]) -> Result<u64, giop::CdrError> {
    let mut r = CdrReader::new(payload, Endian::Big);
    r.read_u64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::testkit::MockSys;
    use simnet::NodeId;

    #[test]
    fn counter_applies_once_and_snapshots() {
        let state = CounterState::new();
        let mut servant = CounterServant::new(state.clone());
        let mut sys = MockSys::new(NodeId::from_index(0));
        let call = |servant: &mut CounterServant, sys: &mut MockSys, op, delta| {
            let reply = servant
                .invoke(sys, "increment_once", &encode_increment_once(op, delta))
                .expect("ok");
            decode_counter_reply(&reply).expect("u64 reply")
        };
        assert_eq!(call(&mut servant, &mut sys, 1, 1), 1);
        assert_eq!(
            call(&mut servant, &mut sys, 1, 1),
            1,
            "retransmit is a no-op"
        );
        assert_eq!(call(&mut servant, &mut sys, 2, 1), 2);
        assert_eq!(state.last_op(), 2);

        // A backup restored from the snapshot also dedupes op 2.
        let backup = CounterState::new();
        backup.restore(&state.snapshot());
        let mut warm = CounterServant::new(backup.clone());
        assert_eq!(call(&mut warm, &mut sys, 2, 1), 2);
        assert_eq!(call(&mut warm, &mut sys, 3, 1), 3);
        assert_eq!(backup.value(), 3);

        // Malformed snapshot leaves the state untouched.
        backup.restore(&[1, 2, 3]);
        assert_eq!(backup.value(), 3);
    }

    #[test]
    fn get_reads_and_unknown_or_malformed_requests_fail() {
        let state = CounterState::new();
        let mut servant = CounterServant::new(state.clone());
        let mut sys = MockSys::new(NodeId::from_index(0));
        state.apply(7, 3);
        let reply = servant.invoke(&mut sys, "get", &[]);
        assert_eq!(decode_counter_reply(&reply.expect("ok")).unwrap(), 3);
        assert_eq!(state.last_op(), 7);
        assert_eq!(servant.type_id(), COUNTER_TYPE_ID);
        assert!(servant.invoke(&mut sys, "increment_once", &[0; 8]).is_err());
        assert!(servant.invoke(&mut sys, "increment", &[0; 8]).is_err());
        assert!(servant.invoke(&mut sys, "reset", &[]).is_err());
    }

    #[test]
    fn restore_takes_only_a_full_snapshot() {
        let state = CounterState::new();
        state.apply(7, 3);
        // An 8-byte value alone is not a checkpoint: nothing moves.
        state.restore(&9u64.to_be_bytes());
        assert_eq!((state.value(), state.last_op()), (3, 7));
        state.restore(&[0; 17]);
        assert_eq!((state.value(), state.last_op()), (3, 7));
        let backup = CounterState::new();
        backup.restore(&state.snapshot());
        assert_eq!((backup.value(), backup.last_op()), (3, 7));
    }

    #[test]
    fn time_reply_roundtrip() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u64(123_456_789);
        assert_eq!(decode_time_reply(&w.finish()).unwrap(), 123_456_789);
    }
}

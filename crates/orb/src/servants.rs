//! Application servants used by the paper's test application.
//!
//! The evaluation workload is "a simple CORBA client ... that requested the
//! time-of-day at 1 ms intervals" from replicated servers (section 5). The
//! [`TimeOfDayServant`] reproduces it; [`CounterServant`] is a second,
//! stateful servant used by examples and state-transfer tests.

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
pub struct TimeOfDayServant {
    /// Per-call application CPU (beyond ORB dispatch).
    pub op_cpu: SimDuration,
}

impl Default for TimeOfDayServant {
    fn default() -> Self {
        TimeOfDayServant {
            op_cpu: SimDuration::from_micros(15),
        }
    }
}

impl Servant for TimeOfDayServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        _body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        match operation {
            "time_of_day" => {
                sys.charge_cpu(self.op_cpu);
                let mut w = CdrWriter::new(Endian::Big);
                w.write_u64(sys.now().as_nanos());
                Ok(w.into_vec())
            }
            _ => Err(SystemException::Other {
                repo_id: "IDL:omg.org/CORBA/BAD_OPERATION:1.0".into(),
                completed: Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        TIME_TYPE_ID
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

/// A stateful counter, useful for demonstrating warm-passive state
/// transfer (the counter value is the replica state).
///
/// Operations:
/// * `increment` (`u64` delta) → `u64` new value,
/// * `get` () → `u64` value.
#[derive(Debug, Default)]
pub struct CounterServant {
    value: u64,
}

impl CounterServant {
    /// Creates a counter starting at `value` (state restored from a
    /// checkpoint for a warm backup).
    pub fn with_value(value: u64) -> Self {
        CounterServant { value }
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value
    }
}

impl Servant for CounterServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let mut reply = CdrWriter::new(Endian::Big);
        match operation {
            "increment" => {
                let mut r = CdrReader::new(body, Endian::Big);
                let delta = r.read_u64().map_err(|_| SystemException::Other {
                    repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
                    completed: Completed::No,
                })?;
                self.value = self.value.wrapping_add(delta);
                sys.count("counter.increments", 1);
                reply.write_u64(self.value);
                Ok(reply.into_vec())
            }
            "get" => {
                reply.write_u64(self.value);
                Ok(reply.into_vec())
            }
            _ => Err(SystemException::Other {
                repo_id: "IDL:omg.org/CORBA/BAD_OPERATION:1.0".into(),
                completed: Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        COUNTER_TYPE_ID
    }
}

/// A counter whose value lives in a shared cell, so infrastructure
/// outside the servant (warm-passive checkpointing) can capture and
/// restore it without the servant knowing. Same operations as
/// [`CounterServant`].
pub struct SharedCounterServant {
    value: Rc<Cell<u64>>,
}

impl SharedCounterServant {
    /// Creates a servant over `value` (shared with the checkpointing
    /// infrastructure).
    pub fn new(value: Rc<Cell<u64>>) -> Self {
        SharedCounterServant { value }
    }
}

impl Servant for SharedCounterServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let mut reply = CdrWriter::new(Endian::Big);
        match operation {
            "increment" => {
                let mut r = CdrReader::new(body, Endian::Big);
                let delta = r.read_u64().map_err(|_| SystemException::Other {
                    repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
                    completed: Completed::No,
                })?;
                self.value.set(self.value.get().wrapping_add(delta));
                sys.count("counter.increments", 1);
                reply.write_u64(self.value.get());
                Ok(reply.into_vec())
            }
            "get" => {
                reply.write_u64(self.value.get());
                Ok(reply.into_vec())
            }
            _ => Err(SystemException::Other {
                repo_id: "IDL:omg.org/CORBA/BAD_OPERATION:1.0".into(),
                completed: Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        COUNTER_TYPE_ID
    }
}

/// Shared state of a [`DedupCounterServant`]: the counter value plus the
/// id of the last applied operation, both visible to checkpointing
/// infrastructure. Snapshotting the two *together* is what makes
/// fail-over exactly-once: a restored backup knows precisely which
/// client operations the checkpoint already covers.
#[derive(Debug, Default)]
pub struct DedupState {
    value: Cell<u64>,
    last_op: Cell<u64>,
}

impl DedupState {
    /// Fresh state: value 0, no operations applied.
    pub fn new() -> Rc<DedupState> {
        Rc::new(DedupState::default())
    }

    /// Current counter value.
    pub fn value(&self) -> u64 {
        self.value.get()
    }

    /// Id of the last applied operation (0 = none).
    pub fn last_op(&self) -> u64 {
        self.last_op.get()
    }

    /// Serializes `(value, last_op)` as 16 big-endian bytes — the
    /// checkpoint payload for warm-passive replication.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.value.get().to_be_bytes());
        out.extend_from_slice(&self.last_op.get().to_be_bytes());
        out
    }

    /// Restores a [`DedupState::snapshot`]; ignores malformed payloads
    /// (the state keeps its previous contents).
    pub fn restore(&self, bytes: &[u8]) {
        if bytes.len() == 16 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&bytes[..8]);
            self.value.set(u64::from_be_bytes(v));
            v.copy_from_slice(&bytes[8..]);
            self.last_op.set(u64::from_be_bytes(v));
        }
    }
}

/// A counter with at-most-once operation semantics: every `increment`
/// carries a client-assigned operation id, and a retransmitted id is
/// acknowledged without being re-applied. Together with a client that
/// retries until acknowledged, this yields exactly-once increments
/// across fail-overs — the invariant the chaos campaign checks.
///
/// Operations:
/// * `increment_once` (`u64` op id, `u64` delta) → `u64` new value,
/// * `get` () → `u64` value.
pub struct DedupCounterServant {
    state: Rc<DedupState>,
}

impl DedupCounterServant {
    /// Creates a servant over `state` (shared with checkpointing).
    pub fn new(state: Rc<DedupState>) -> Self {
        DedupCounterServant { state }
    }
}

impl Servant for DedupCounterServant {
    fn invoke(
        &mut self,
        sys: &mut dyn SysApi,
        operation: &str,
        body: &[u8],
    ) -> Result<Vec<u8>, SystemException> {
        let mut reply = CdrWriter::new(Endian::Big);
        match operation {
            "increment_once" => {
                let mut r = CdrReader::new(body, Endian::Big);
                let parsed = r
                    .read_u64()
                    .and_then(|op| r.read_u64().map(|delta| (op, delta)));
                let (op_id, delta) = parsed.map_err(|_| SystemException::Other {
                    repo_id: "IDL:omg.org/CORBA/MARSHAL:1.0".into(),
                    completed: Completed::No,
                })?;
                if op_id <= self.state.last_op.get() {
                    sys.count("counter.duplicates", 1);
                } else {
                    if op_id != self.state.last_op.get() + 1 {
                        // A gap means an acked operation is missing from
                        // our state — surfaced so invariant checks can
                        // pin the failure to the replica, not the sums.
                        sys.count("counter.op_gap", 1);
                    }
                    self.state
                        .value
                        .set(self.state.value.get().wrapping_add(delta));
                    self.state.last_op.set(op_id);
                    sys.count("counter.increments", 1);
                }
                reply.write_u64(self.state.value.get());
                Ok(reply.into_vec())
            }
            "get" => {
                reply.write_u64(self.state.value.get());
                Ok(reply.into_vec())
            }
            _ => Err(SystemException::Other {
                repo_id: "IDL:omg.org/CORBA/BAD_OPERATION:1.0".into(),
                completed: Completed::No,
            }),
        }
    }

    fn type_id(&self) -> &str {
        COUNTER_TYPE_ID
    }
}

/// Encodes an `increment_once` request body.
pub fn encode_increment_once(op_id: u64, delta: u64) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u64(op_id);
    w.write_u64(delta);
    w.into_vec()
}

/// Encodes an `increment` request body.
pub fn encode_increment(delta: u64) -> Vec<u8> {
    let mut w = CdrWriter::new(Endian::Big);
    w.write_u64(delta);
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

    #[test]
    fn counter_state_and_encodings() {
        let c = CounterServant::with_value(5);
        assert_eq!(c.value(), 5);
        let body = encode_increment(3);
        let mut r = CdrReader::new(&body, Endian::Big);
        assert_eq!(r.read_u64().unwrap(), 3);
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u64(9);
        assert_eq!(decode_counter_reply(&w.finish()).unwrap(), 9);
        assert_eq!(c.type_id(), COUNTER_TYPE_ID);
        // value untouched by the encoding round trips
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn dedup_counter_applies_once_and_snapshots() {
        use simnet::testkit::MockSys;
        use simnet::NodeId;

        let state = DedupState::new();
        let mut servant = DedupCounterServant::new(state.clone());
        let mut sys = MockSys::new(NodeId::from_index(0));
        let call = |servant: &mut DedupCounterServant, sys: &mut MockSys, op, delta| {
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
        let backup = DedupState::new();
        backup.restore(&state.snapshot());
        let mut warm = DedupCounterServant::new(backup.clone());
        assert_eq!(call(&mut warm, &mut sys, 2, 1), 2);
        assert_eq!(call(&mut warm, &mut sys, 3, 1), 3);
        assert_eq!(backup.value(), 3);

        // Malformed snapshot leaves the state untouched.
        backup.restore(&[1, 2, 3]);
        assert_eq!(backup.value(), 3);
    }

    #[test]
    fn time_reply_roundtrip() {
        let mut w = CdrWriter::new(Endian::Big);
        w.write_u64(123_456_789);
        assert_eq!(decode_time_reply(&w.finish()).unwrap(), 123_456_789);
    }
}

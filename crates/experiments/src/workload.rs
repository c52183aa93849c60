//! The evaluation client: "a simple CORBA client ... that requested the
//! time-of-day at 1 ms intervals from one of three warm-passively
//! replicated CORBA servers" (section 5), with the two reactive recovery
//! policies the paper compares against.
//!
//! The workload is a closed loop: each logical invocation is retried (with
//! whatever recovery the policy prescribes) until a reply arrives, and its
//! recorded round-trip time spans the whole episode — matching the RTT
//! spikes plotted in Figures 3 and 4. The next invocation starts one
//! think time (`THINK_TIME`, 1 ms) after the previous reply. The replica
//! count and the think time are the paper's constants; a run chooses only
//! the invocation count and the recovery policy.

use std::cell::RefCell;
use std::rc::Rc;

use giop::Ior;
use mead::RecoveryManager;
use orb::{
    decode_list_reply, decode_resolve_reply, decode_time_reply, encode_name, naming_ior, ClientOrb,
    OrbUpshot, SystemException,
};
use simnet::{Event, NodeId, Process, SimDuration, SimTime, SysApi};

/// Recovery policy driven by the client *application* (the reactive part
/// of every strategy).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientPolicy {
    /// Resolve the next replica from the Naming Service after every
    /// failure (the paper's first reactive scheme, and the fallback for
    /// the proactive schemes).
    ResolveOnFailure,
    /// Pre-resolve all replica references into a local cache; walk the
    /// cache on failure; refresh it (one `list` call) when exhausted (the
    /// paper's second reactive scheme).
    CachedReferences,
}

/// Warm-passive time-server replicas, one replica slot each, bound in the
/// Naming Service (paper: three).
pub(crate) const REPLICAS: u32 = 3;

/// Think time between a reply and the next request (paper: 1 ms).
const THINK_TIME: SimDuration = SimDuration::from_millis(1);

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Number of logical invocations (paper: 10 000).
    pub invocations: u32,
    /// Application-level recovery policy.
    pub policy: ClientPolicy,
    /// Node hosting the Naming Service.
    pub naming_node: NodeId,
}

/// One logical invocation's measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct InvocationRecord {
    /// 0-based invocation number ("run" on the figures' x axis).
    pub index: u32,
    /// First send attempt.
    pub start: SimTime,
    /// Successful completion.
    pub end: SimTime,
    /// `COMM_FAILURE`s raised at the application during this invocation.
    pub comm_failures: u32,
    /// `TRANSIENT`s raised at the application during this invocation.
    pub transients: u32,
    /// Transparent `LOCATION_FORWARD`s followed by the ORB.
    pub forwards: u32,
    /// Transparent `NEEDS_ADDRESSING_MODE` resends by the ORB.
    pub resents: u32,
}

impl InvocationRecord {
    /// Round-trip time of the whole episode, in milliseconds.
    pub fn rtt_ms(&self) -> f64 {
        (self.end - self.start).as_millis_f64()
    }

    /// `true` if any failure or redirect touched this invocation.
    pub fn disrupted(&self) -> bool {
        self.comm_failures + self.transients + self.forwards + self.resents > 0
    }
}

/// Everything the workload measured, shared with the experiment harness.
#[derive(Clone, Debug, Default)]
pub struct WorkloadReport {
    /// Per-invocation records, in order.
    pub records: Vec<InvocationRecord>,
    /// All invocations completed.
    pub completed: bool,
    /// Total `COMM_FAILURE` exceptions seen by the application.
    pub comm_failures: u32,
    /// Total `TRANSIENT` exceptions seen by the application.
    pub transients: u32,
    /// Naming Service lookups performed (resolves + lists).
    pub naming_lookups: u32,
}

impl WorkloadReport {
    /// Round-trip times in milliseconds, in invocation order.
    pub fn rtts_ms(&self) -> Vec<f64> {
        self.records.iter().map(InvocationRecord::rtt_ms).collect()
    }

    /// Total exceptions that reached the application.
    pub fn client_failures(&self) -> u32 {
        self.comm_failures + self.transients
    }
}

/// Shared handle the experiment keeps while the simulation runs.
pub type ReportHandle = Rc<RefCell<WorkloadReport>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NamingOp {
    InitResolve,
    RecoveryResolve,
    CacheFill,
    CacheRefresh,
}

const TOKEN_THINK: u64 = 1;
const TOKEN_RETRY: u64 = 2;

/// The extra work the no-cache client's `COMM_FAILURE` handler does before
/// initiating recovery: the paper measures 1.8 ms for the exception to
/// register without a cache against 1.1 ms with one (DESIGN §7).
const NO_CACHE_HANDLER_CPU: SimDuration = SimDuration::from_micros(700);

/// The client workload process (unmodified application; interceptors are
/// layered outside by the scenario builder).
pub struct ClientWorkload {
    cfg: WorkloadConfig,
    orb: ClientOrb,
    report: ReportHandle,
    target: Option<Ior>,
    index: u32,
    current: Option<InvocationRecord>,
    current_rid: Option<u32>,
    pending_naming: Option<(u32, NamingOp)>,
    slot_rr: u32,
    cache: Vec<Ior>,
    cache_idx: usize,
}

impl ClientWorkload {
    /// Creates the workload; `report` is the experiment's window into the
    /// measurements.
    pub fn new(cfg: WorkloadConfig, report: ReportHandle) -> Self {
        ClientWorkload {
            cfg,
            orb: ClientOrb::new(),
            report,
            target: None,
            index: 0,
            current: None,
            current_rid: None,
            pending_naming: None,
            slot_rr: 0,
            cache: Vec::new(),
            cache_idx: 0,
        }
    }

    fn naming(&self) -> Ior {
        naming_ior(self.cfg.naming_node)
    }

    fn begin_init(&mut self, sys: &mut dyn SysApi) {
        match self.cfg.policy {
            ClientPolicy::ResolveOnFailure => {
                let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
                self.naming_call(sys, "resolve", &encode_name(&name), NamingOp::InitResolve);
            }
            ClientPolicy::CachedReferences => {
                self.naming_call(sys, "list", &encode_name("replicas/"), NamingOp::CacheFill);
            }
        }
    }

    fn naming_call(&mut self, sys: &mut dyn SysApi, op: &str, body: &[u8], kind: NamingOp) {
        self.report.borrow_mut().naming_lookups += 1;
        match self.orb.invoke(sys, &self.naming(), op, body) {
            Ok(rid) => self.pending_naming = Some((rid, kind)),
            Err(_) => {
                sys.set_timer(SimDuration::from_millis(50), TOKEN_RETRY);
            }
        }
    }

    fn start_invocation(&mut self, sys: &mut dyn SysApi) {
        if self.index >= self.cfg.invocations {
            self.report.borrow_mut().completed = true;
            return;
        }
        self.current = Some(InvocationRecord {
            index: self.index,
            start: sys.now(),
            end: sys.now(),
            comm_failures: 0,
            transients: 0,
            forwards: 0,
            resents: 0,
        });
        self.send(sys);
    }

    /// (Re)sends the current invocation to the current target.
    fn send(&mut self, sys: &mut dyn SysApi) {
        let Some(target) = self.target.as_ref() else {
            return;
        };
        match self.orb.invoke(sys, target, "time_of_day", &[]) {
            Ok(rid) => self.current_rid = Some(rid),
            // A synchronously raised exception (e.g. the cached connection
            // died while idle and is discovered at use).
            Err(ex) => {
                self.note_exception(sys, &ex);
                self.recover(sys);
            }
        }
    }

    /// Books an exception against the current invocation and the report.
    fn note_exception(&mut self, sys: &mut dyn SysApi, ex: &SystemException) {
        let mut report = self.report.borrow_mut();
        if let Some(record) = self.current.as_mut() {
            match ex {
                SystemException::CommFailure { .. } => {
                    record.comm_failures += 1;
                    report.comm_failures += 1;
                    if self.cfg.policy == ClientPolicy::ResolveOnFailure {
                        sys.charge_cpu(NO_CACHE_HANDLER_CPU);
                    }
                }
                SystemException::Transient { .. } => {
                    record.transients += 1;
                    report.transients += 1;
                }
                _ => {}
            }
        }
    }

    /// Application-level reaction to a failed invocation.
    fn recover(&mut self, sys: &mut dyn SysApi) {
        match self.cfg.policy {
            ClientPolicy::ResolveOnFailure => {
                // Ask the Naming Service for the next replica.
                self.slot_rr = (self.slot_rr + 1) % REPLICAS;
                let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
                self.naming_call(
                    sys,
                    "resolve",
                    &encode_name(&name),
                    NamingOp::RecoveryResolve,
                );
            }
            ClientPolicy::CachedReferences => {
                // Walk the cache; refresh when it runs out (section 5:
                // "only contacted the CORBA Naming Service once it
                // exhausted all of the entries in the cache").
                self.cache_idx += 1;
                if self.cache_idx < self.cache.len() {
                    self.target = Some(self.cache[self.cache_idx].clone());
                    self.send(sys);
                } else {
                    self.naming_call(
                        sys,
                        "list",
                        &encode_name("replicas/"),
                        NamingOp::CacheRefresh,
                    );
                }
            }
        }
    }

    fn on_naming_reply(&mut self, sys: &mut dyn SysApi, kind: NamingOp, payload: &[u8]) {
        match kind {
            NamingOp::InitResolve | NamingOp::RecoveryResolve => {
                match decode_resolve_reply(payload) {
                    Ok(ior) => {
                        self.target = Some(ior);
                        if self.current.is_some() {
                            self.send(sys);
                        } else {
                            self.start_invocation(sys);
                        }
                    }
                    Err(_) => {
                        sys.set_timer(SimDuration::from_millis(50), TOKEN_RETRY);
                    }
                }
            }
            NamingOp::CacheFill | NamingOp::CacheRefresh => {
                let entries = decode_list_reply(payload).unwrap_or_default();
                let mut iors: Vec<(String, Ior)> = entries;
                iors.sort_by(|a, b| a.0.cmp(&b.0));
                self.cache = iors.into_iter().map(|(_, i)| i).collect();
                self.cache_idx = 0;
                if self.cache.is_empty() {
                    sys.set_timer(SimDuration::from_millis(50), TOKEN_RETRY);
                    return;
                }
                self.target = Some(self.cache[0].clone());
                if self.current.is_some() {
                    self.send(sys);
                } else {
                    self.start_invocation(sys);
                }
            }
        }
    }

    fn on_naming_exception(&mut self, sys: &mut dyn SysApi, kind: NamingOp) {
        // NotFound (slot not yet re-bound) or a naming hiccup: try again
        // shortly — for recovery resolves, with the next slot.
        if kind == NamingOp::RecoveryResolve {
            self.slot_rr = (self.slot_rr + 1) % REPLICAS;
        }
        sys.set_timer(SimDuration::from_millis(5), TOKEN_RETRY);
    }
}

impl Process for ClientWorkload {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.begin_init(sys);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        if let Event::TimerFired { token, .. } = event {
            match token {
                TOKEN_THINK => {
                    self.start_invocation(sys);
                    return;
                }
                TOKEN_RETRY => {
                    // Re-drive whatever was pending.
                    if self.target.is_none() && self.current.is_none() {
                        self.begin_init(sys);
                    } else if self.current.is_some() {
                        match self.cfg.policy {
                            ClientPolicy::ResolveOnFailure => {
                                let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
                                self.naming_call(
                                    sys,
                                    "resolve",
                                    &encode_name(&name),
                                    NamingOp::RecoveryResolve,
                                );
                            }
                            ClientPolicy::CachedReferences => {
                                self.naming_call(
                                    sys,
                                    "list",
                                    &encode_name("replicas/"),
                                    NamingOp::CacheRefresh,
                                );
                            }
                        }
                    } else {
                        self.begin_init(sys);
                    }
                    return;
                }
                _ => {}
            }
        }
        let Some(upshots) = self.orb.handle_event(sys, &event) else {
            return;
        };
        for upshot in upshots {
            match upshot {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => {
                    if let Some((rid, kind)) = self.pending_naming {
                        if rid == request_id {
                            self.pending_naming = None;
                            self.on_naming_reply(sys, kind, &payload);
                            continue;
                        }
                    }
                    if Some(request_id) == self.current_rid {
                        // Sanity: the reply must decode as a time.
                        let _ = decode_time_reply(&payload);
                        let mut record = self.current.take().expect("reply implies current");
                        record.end = sys.now();
                        self.current_rid = None;
                        self.report.borrow_mut().records.push(record);
                        self.index += 1;
                        if self.index >= self.cfg.invocations {
                            self.report.borrow_mut().completed = true;
                        } else {
                            sys.set_timer(THINK_TIME, TOKEN_THINK);
                        }
                    }
                }
                OrbUpshot::Exception { request_id, ex, .. } => {
                    if let Some((rid, kind)) = self.pending_naming {
                        if rid == request_id {
                            self.pending_naming = None;
                            self.on_naming_exception(sys, kind);
                            continue;
                        }
                    }
                    if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        self.note_exception(sys, &ex);
                        self.recover(sys);
                    }
                }
                OrbUpshot::Forwarded { request_id, to } => {
                    if Some(request_id) == self.current_rid {
                        if let Some(record) = self.current.as_mut() {
                            record.forwards += 1;
                        }
                        // Follow the forward for future invocations, as a
                        // real ORB's forwarding cache would.
                        if let Some(target) = self.target.as_mut() {
                            if let Some(profile) = target.profiles.first_mut() {
                                profile.host = format!("node{}", to.node.index());
                                profile.port = to.port.0;
                            }
                        }
                    }
                }
                OrbUpshot::Resent { request_id } => {
                    if Some(request_id) == self.current_rid {
                        if let Some(record) = self.current.as_mut() {
                            record.resents += 1;
                        }
                    }
                }
            }
        }
    }

    fn label(&self) -> &str {
        "client-workload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_rtt_and_disruption() {
        let r = InvocationRecord {
            index: 0,
            start: SimTime::from_millis(10),
            end: SimTime::from_millis(12),
            comm_failures: 0,
            transients: 0,
            forwards: 0,
            resents: 0,
        };
        assert_eq!(r.rtt_ms(), 2.0);
        assert!(!r.disrupted());
        let mut r2 = r.clone();
        r2.forwards = 1;
        assert!(r2.disrupted());
    }

    #[test]
    fn report_aggregates() {
        let rep = WorkloadReport {
            comm_failures: 3,
            transients: 2,
            ..WorkloadReport::default()
        };
        assert_eq!(rep.client_failures(), 5);
        assert!(rep.rtts_ms().is_empty());
    }
}

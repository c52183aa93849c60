//! The MEAD Recovery Manager.
//!
//! Section 3.3: "the MEAD Recovery Manager is responsible for launching
//! new server replicas that restore the application's resilience after a
//! server replica or a node crashes. ... By subscribing to the same group,
//! the Recovery Manager can receive membership-change notifications. ...
//! The Recovery Manager also receives messages from the MEAD Proactive
//! Fault-Tolerance Manager whenever the Fault-Tolerance Manager
//! anticipates that a server replica is about to fail."
//!
//! Replicas are organised into `target_degree` *slots*; each slot has at
//! most one intended live instance, bound in the Naming Service under
//! `replicas/slot<k>`. A relaunched instance gets a **fresh port**, which
//! is what makes cached references to the dead instance stale (the
//! `TRANSIENT` exceptions of section 5.2.1).
//!
//! The Recovery Manager is deliberately a single point of failure, exactly
//! as the paper admits of its own implementation — in its default
//! configuration ([`RecoveryManager::new`]). Deployed as several
//! [`RecoveryManager::replicated`] instances, the manager is itself
//! replicated warm-passively (DESIGN §8): instances join a
//! manager group, the first member of the group's view (join order) is
//! the leader and the only instance that launches replicas, and the
//! leader multicasts its launch state ([`GroupMsg::RmState`]) so a
//! standby that takes over after a crash continues the port sequence and
//! outstanding launches instead of duplicating them.

use std::collections::BTreeMap;
use std::rc::Rc;

use groupcomm::{GcsClient, GcsDelivery};
use obs::{EventKind, Phase};
use simnet::{Event, NodeId, Port, Process, SimDuration, SimTime, SysApi};

use crate::directory::{
    replica_member_name, slot_of_member, MemberName, Slot, REPLICA_PREFIX, SERVER_GROUP,
};
use crate::messages::GroupMsg;

/// Parameters handed to the replica factory for each launch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaSpec {
    /// The slot this instance fills (0-based).
    pub slot: Slot,
    /// Fresh listen port assigned by the Recovery Manager.
    pub port: Port,
    /// Node the instance will run on.
    pub node: NodeId,
}

/// Builds a replica process (application wrapped in a server interceptor)
/// for a given spec. Provided by the experiment harness.
pub type ReplicaFactory = Rc<dyn Fn(&ReplicaSpec) -> Box<dyn simnet::Process>>;

const TOKEN_GCS: u64 = 1;
const TOKEN_TICK: u64 = 2;

/// Group the Recovery Manager instances join for leader election and
/// warm-passive state exchange.
const MANAGER_GROUP: &str = "managers";

#[derive(Clone, Debug, Default)]
struct SlotState {
    /// Member name we are waiting to see join, with launch time.
    pending: Option<(MemberName, SimTime)>,
}

/// The Recovery Manager process. A clone shares the replica factory
/// (which only reads what it captured) and nothing else.
#[derive(Clone)]
pub struct RecoveryManager {
    gcs: Option<GcsClient>,
    factory: ReplicaFactory,
    replica_nodes: Vec<NodeId>,
    target_degree: u32,
    next_port: u16,
    slots: BTreeMap<Slot, SlotState>,
    last_view: Vec<String>,
    initial_launched: bool,
    pending_timeout: SimDuration,
    /// `true` when this instance takes part in manager-group leader
    /// election (legacy single-instance managers never join the group,
    /// keeping the paper topology byte-identical).
    replicated: bool,
    member_name: String,
    manager_view: Vec<String>,
    seen_manager_view: bool,
    was_leader: bool,
    /// Launch state changed since the last [`GroupMsg::RmState`] share.
    dirty: bool,
}

impl RecoveryManager {
    /// Creates a manager maintaining `target_degree` replicas spread over
    /// `replica_nodes`, built by `factory`.
    pub fn new(target_degree: u32, replica_nodes: Vec<NodeId>, factory: ReplicaFactory) -> Self {
        assert!(target_degree > 0, "need at least one replica");
        assert!(!replica_nodes.is_empty(), "need at least one server node");
        RecoveryManager {
            gcs: None,
            factory,
            replica_nodes,
            target_degree,
            next_port: 20000,
            slots: BTreeMap::new(),
            last_view: Vec::new(),
            initial_launched: false,
            pending_timeout: SimDuration::from_millis(1000),
            replicated: false,
            member_name: "mgr/recovery".to_string(),
            manager_view: Vec::new(),
            seen_manager_view: false,
            was_leader: false,
            dirty: false,
        }
    }

    /// Creates manager instance `instance` of a warm-passively replicated
    /// Recovery Manager deployment (spawn one per instance). Instances
    /// elect the first member of the manager-group view as leader.
    pub fn replicated(
        target_degree: u32,
        replica_nodes: Vec<NodeId>,
        factory: ReplicaFactory,
        instance: u32,
    ) -> Self {
        let mut rm = RecoveryManager::new(target_degree, replica_nodes, factory);
        rm.replicated = true;
        rm.member_name = format!("mgr/recovery/{instance}");
        rm
    }

    /// Leader = first manager-group member in join order; a legacy
    /// single-instance manager is always the leader.
    fn is_leader(&self) -> bool {
        !self.replicated || self.manager_view.first() == Some(&self.member_name)
    }

    /// Multicasts the launch state to standby instances when it changed.
    fn share_state(&mut self, sys: &mut dyn SysApi) {
        if !self.replicated || !self.dirty || !self.is_leader() {
            return;
        }
        self.dirty = false;
        let pendings: Vec<(u32, String)> = self
            .slots
            .iter()
            .filter_map(|(slot, s)| {
                s.pending
                    .as_ref()
                    .map(|(m, _)| (slot.index(), m.as_str().to_string()))
            })
            .collect();
        let msg = GroupMsg::RmState {
            next_port: self.next_port,
            pendings,
        };
        if let Some(gcs) = self.gcs.as_mut() {
            gcs.multicast(sys, MANAGER_GROUP, &msg.encode());
        }
    }

    /// Applies a leader's [`GroupMsg::RmState`] on a standby.
    fn absorb_state(&mut self, sys: &mut dyn SysApi, next_port: u16, pendings: Vec<(u32, String)>) {
        self.next_port = self.next_port.max(next_port);
        let now = sys.now();
        for slot in (0..self.target_degree).map(Slot) {
            let pending = pendings
                .iter()
                .find(|(s, _)| *s == slot.index())
                .map(|(_, m)| (MemberName::from(m.as_str()), now));
            self.slots.entry(slot).or_default().pending = pending;
        }
        // A leader that launches exists: a takeover must reconcile, not
        // redo the initial deployment.
        self.initial_launched = true;
    }

    /// The Naming Service binding name for a slot.
    pub fn slot_binding(slot: Slot) -> String {
        format!("replicas/slot{slot}")
    }

    fn launch(&mut self, sys: &mut dyn SysApi, slot: Slot) {
        let port = Port(self.next_port);
        self.next_port += 1;
        let label = format!("replica-s{slot}");
        // Preferred placement is the slot's home node; when it is down
        // (node-crash fault), fall back to the other server nodes — the
        // paper's fault model includes node crashes even though its
        // evaluation only kills processes.
        let n = self.replica_nodes.len();
        for attempt in 0..n {
            let node = self.replica_nodes[(slot.index() as usize + attempt) % n];
            let spec = ReplicaSpec { slot, port, node };
            let proc_box = (self.factory)(&spec);
            // A failed spawn moves on to the next node;
            // `rm.fallback_placements` counts it when a later one lands.
            if let Ok(pid) = sys.spawn(node, &label, Box::new(move || proc_box)) {
                sys.count("rm.launches", 1);
                sys.emit(EventKind::Phase(Phase::ReplicaLaunch));
                if attempt > 0 {
                    sys.count("rm.fallback_placements", 1);
                }
                let expected = replica_member_name(slot, pid.raw());
                self.slots.entry(slot).or_default().pending = Some((expected, sys.now()));
                self.dirty = true;
                return;
            }
        }
        sys.count("rm.launch_failed", 1);
    }

    fn slot_is_live(&self, slot: Slot) -> bool {
        let prefix = format!("{REPLICA_PREFIX}{slot}/");
        self.last_view.iter().any(|m| m.starts_with(&prefix))
    }

    /// Core reconciliation: make every slot either live or pending.
    fn ensure_degree(&mut self, sys: &mut dyn SysApi) {
        let now = sys.now();
        for slot in (0..self.target_degree).map(Slot) {
            // Clear fulfilled or expired pendings.
            let entry = self.slots.entry(slot).or_default();
            if let Some((expected, since)) = entry.pending.clone() {
                if self.last_view.iter().any(|m| expected == m.as_str()) {
                    self.slots.entry(slot).or_default().pending = None;
                    self.dirty = true;
                } else if now.saturating_since(since) > self.pending_timeout {
                    sys.count("rm.pending_expired", 1);
                    self.slots.entry(slot).or_default().pending = None;
                    self.dirty = true;
                }
            }
            let pending = self.slots.entry(slot).or_default().pending.is_some();
            if !self.slot_is_live(slot) && !pending {
                self.launch(sys, slot);
            }
        }
    }
}

impl Process for RecoveryManager {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let mut gcs = GcsClient::new(self.member_name.clone(), TOKEN_GCS);
        gcs.start(sys);
        gcs.join(sys, SERVER_GROUP);
        if self.replicated {
            gcs.join(sys, MANAGER_GROUP);
        }
        self.gcs = Some(gcs);
        sys.set_timer(SimDuration::from_millis(100), TOKEN_TICK);
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        if let Event::TimerFired {
            token: TOKEN_TICK, ..
        } = event
        {
            if self.initial_launched && self.is_leader() {
                self.ensure_degree(sys);
                self.share_state(sys);
            }
            sys.set_timer(SimDuration::from_millis(100), TOKEN_TICK);
            return;
        }
        let deliveries = self
            .gcs
            .as_mut()
            .and_then(|gcs| gcs.handle_event(sys, &event));
        let Some(deliveries) = deliveries else {
            return;
        };
        for d in deliveries {
            match d {
                GcsDelivery::Ready => {
                    // Initial deployment of the replicated server. A
                    // replicated manager waits for the manager-group view
                    // to know whether it is the leader.
                    if !self.initial_launched && !self.replicated {
                        self.initial_launched = true;
                        for slot in (0..self.target_degree).map(Slot) {
                            self.launch(sys, slot);
                        }
                    }
                }
                GcsDelivery::View { group, members, .. } if group == SERVER_GROUP => {
                    self.last_view = members;
                    sys.count("rm.views", 1);
                    if self.initial_launched && self.is_leader() {
                        self.ensure_degree(sys);
                        self.share_state(sys);
                    }
                }
                GcsDelivery::View { group, members, .. }
                    if self.replicated && group == MANAGER_GROUP =>
                {
                    self.manager_view = members;
                    let leader = self.is_leader();
                    if leader && !self.was_leader {
                        if !self.seen_manager_view {
                            // First view at boot: the initial deployment.
                            if !self.initial_launched {
                                self.initial_launched = true;
                                for slot in (0..self.target_degree).map(Slot) {
                                    self.launch(sys, slot);
                                }
                                self.share_state(sys);
                            }
                        } else {
                            // The previous leader died: take over. Give
                            // inherited pendings a fresh grace period —
                            // their wall clocks started on another
                            // instance.
                            sys.count("rm.leader_elections", 1);
                            self.initial_launched = true;
                            let now = sys.now();
                            for s in self.slots.values_mut() {
                                if let Some((_, since)) = s.pending.as_mut() {
                                    *since = now;
                                }
                            }
                            self.ensure_degree(sys);
                            self.share_state(sys);
                        }
                    }
                    self.was_leader = leader;
                    self.seen_manager_view = true;
                }
                GcsDelivery::Message { payload, .. } => match GroupMsg::decode(&payload) {
                    Ok(GroupMsg::LaunchRequest { member }) => {
                        if !self.is_leader() {
                            continue;
                        }
                        // Proactive fault notification (section 3.3): pre-
                        // launch the replacement before the failure.
                        sys.count("rm.proactive_notices", 1);
                        if let Some(slot) = slot_of_member(&member) {
                            let already_pending = self
                                .slots
                                .get(&slot)
                                .map(|s| s.pending.is_some())
                                .unwrap_or(false);
                            // Skip if a replacement instance for this slot
                            // is already live alongside the notifier.
                            let prefix = format!("{REPLICA_PREFIX}{slot}/");
                            let live_instances = self
                                .last_view
                                .iter()
                                .filter(|m| m.starts_with(&prefix))
                                .count();
                            if !already_pending && live_instances < 2 {
                                self.launch(sys, slot);
                                self.share_state(sys);
                            }
                        }
                    }
                    Ok(GroupMsg::RmState {
                        next_port,
                        pendings,
                    }) => {
                        if self.replicated && !self.is_leader() {
                            self.absorb_state(sys, next_port, pendings);
                        }
                    }
                    // Replica-to-replica traffic on the shared group; not
                    // addressed to the Recovery Manager.
                    Ok(
                        GroupMsg::AddrAdvert { .. }
                        | GroupMsg::IorAdvert { .. }
                        | GroupMsg::SyncList { .. }
                        | GroupMsg::AddressQuery { .. }
                        | GroupMsg::AddressReply { .. }
                        | GroupMsg::Checkpoint { .. },
                    ) => {}
                    Err(_) => {
                        // A corrupted frame is a fault to surface, not a
                        // message to silently drop (chaos satellite).
                        sys.count("rm.bad_group_msg", 1);
                    }
                },
                GcsDelivery::DaemonLost => {
                    sys.count("rm.gcs_lost", 1);
                    // A replicated instance cannot claim leadership on a
                    // stale view: demote until the re-attached daemon
                    // delivers a fresh manager-group view (otherwise two
                    // leaders could launch replicas concurrently).
                    if self.replicated {
                        self.manager_view.clear();
                        self.was_leader = false;
                    }
                }
                GcsDelivery::View { .. } => {}
            }
        }
    }

    fn label(&self) -> &str {
        "recovery-manager"
    }

    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_binding_names() {
        assert_eq!(RecoveryManager::slot_binding(Slot(0)), "replicas/slot0");
        assert_eq!(RecoveryManager::slot_binding(Slot(2)), "replicas/slot2");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_degree_rejected() {
        let factory: ReplicaFactory = Rc::new(|_spec| unreachable!("never launched"));
        let _ = RecoveryManager::new(0, vec![NodeId::from_index(0)], factory);
    }
}

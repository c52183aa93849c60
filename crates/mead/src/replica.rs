//! The replicated server application (the *unmodified* CORBA server the
//! interceptor wraps).
//!
//! A [`ReplicaApp`] embeds a server ORB with the evaluation servant(s),
//! listens on the port its [`ReplicaSpec`](crate::ReplicaSpec) assigned,
//! and registers its objects with the Naming Service under the slot
//! binding name — re-registration after a restart is what refreshes stale
//! naming entries (section 5.2.1). It knows nothing about MEAD, faults or
//! group communication: everything proactive happens in the interceptor
//! underneath it, preserving the paper's transparency claim.

use std::rc::Rc;

use giop::{Ior, ObjectKey};
use orb::{
    encode_bind, host_of, naming_ior, ClientOrb, ClientOrbConfig, CounterState, Servant, ServerOrb,
    ServerOrbConfig, TimeOfDayServant, TIME_TYPE_ID,
};
use simnet::{Event, NodeId, Port, Process, SimDuration, SysApi};

/// Timer token for the periodic naming re-bind (outside the interceptor
/// token namespace, so the wrapping interceptor forwards it here).
const REBIND_TOKEN: u64 = 7_001;

/// The persistent object key shared by every replica of the time server
/// (persistent keys are what make cross-replica forwarding possible,
/// section 4).
pub fn time_object_key() -> ObjectKey {
    ObjectKey::persistent("TimePOA", "TimeOfDay")
}

/// An unmodified replicated server application.
pub struct ReplicaApp {
    orb: ServerOrb,
    client_orb: ClientOrb,
    naming_node: NodeId,
    bind_name: String,
    objects: Vec<(ObjectKey, String)>,
    port: Port,
    rebind_interval: Option<SimDuration>,
}

impl ReplicaApp {
    /// Creates the paper's time-of-day server for `slot`, listening on
    /// `port` and binding `replicas/slot<slot>` at the Naming Service on
    /// `naming_node`.
    pub fn time_server(slot: crate::Slot, port: Port, naming_node: NodeId) -> Self {
        let mut orb = ServerOrb::new(port, ServerOrbConfig::default());
        let key = time_object_key();
        orb.register(key.clone(), Box::new(TimeOfDayServant::default()));
        ReplicaApp {
            orb,
            client_orb: ClientOrb::new(ClientOrbConfig::default()),
            naming_node,
            bind_name: crate::RecoveryManager::slot_binding(slot),
            objects: vec![(key, TIME_TYPE_ID.to_string())],
            port,
            rebind_interval: None,
        }
    }

    /// Re-registers the naming bindings every `interval` (idempotent —
    /// the naming store has rebind semantics). Off by default: the paper
    /// topology binds once at startup. The chaos campaign enables it so
    /// bindings survive a Naming Service crash/restart, whose in-memory
    /// store comes back empty.
    pub fn with_rebind(mut self, interval: SimDuration) -> Self {
        self.rebind_interval = Some(interval);
        self
    }

    fn bind_all(&mut self, sys: &mut dyn SysApi) {
        let naming = naming_ior(self.naming_node);
        for (key, type_id) in self.objects.clone() {
            let ior = self.ior_for(sys, &key, &type_id);
            let body = encode_bind(&self.bind_name, &ior);
            let _ = self.client_orb.invoke(sys, &naming, "bind", &body);
        }
    }

    /// Adds another servant under `key`, also bound for forwarding.
    pub fn with_servant(
        mut self,
        key: ObjectKey,
        type_id: &str,
        servant: Box<dyn Servant>,
    ) -> Self {
        self.orb.register(key.clone(), servant);
        self.objects.push((key, type_id.to_string()));
        self
    }

    /// A copy of this application for a forked simulation, its servants
    /// copied by [`Servant::fork`] — over `state` where they serve from
    /// the replica's shared [`CounterState`]. `None` when a servant
    /// cannot be copied.
    pub fn fork_over(&self, state: Option<&Rc<CounterState>>) -> Option<ReplicaApp> {
        Some(ReplicaApp {
            orb: self.orb.fork(state)?,
            client_orb: self.client_orb.clone(),
            naming_node: self.naming_node,
            bind_name: self.bind_name.clone(),
            objects: self.objects.clone(),
            port: self.port,
            rebind_interval: self.rebind_interval,
        })
    }

    /// The IOR of this instance's object `key`.
    fn ior_for(&self, sys: &dyn SysApi, key: &ObjectKey, type_id: &str) -> Ior {
        Ior::singleton(type_id, &host_of(sys.my_node()), self.port.0, key.clone())
    }
}

impl Process for ReplicaApp {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb.start(sys);
        // Register with the Naming Service; a restarted instance re-binds
        // the slot name with its fresh address.
        self.bind_all(sys);
        if let Some(interval) = self.rebind_interval {
            sys.set_timer(interval, REBIND_TOKEN);
        }
    }

    fn on_event(&mut self, sys: &mut dyn SysApi, event: Event) {
        if let Event::TimerFired {
            token: REBIND_TOKEN,
            ..
        } = event
        {
            if let Some(interval) = self.rebind_interval {
                self.bind_all(sys);
                sys.set_timer(interval, REBIND_TOKEN);
            }
            return;
        }
        if self.client_orb.handle_event(sys, &event).is_some() {
            return; // naming-registration traffic
        }
        let _ = self.orb.handle_event(sys, &event);
    }

    fn label(&self) -> &str {
        "replica-app"
    }

    fn fork(&self) -> Option<Box<dyn Process>> {
        Some(Box::new(self.fork_over(None)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_key_is_persistent_and_shared() {
        assert_eq!(time_object_key(), time_object_key());
        assert_eq!(time_object_key().as_bytes().len(), ObjectKey::CANONICAL_LEN);
    }
}

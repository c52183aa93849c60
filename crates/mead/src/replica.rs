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
    encode_bind, host_of, naming_ior, ClientOrb, CounterState, Servant, ServerOrb,
    TimeOfDayServant, TIME_TYPE_ID,
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
    /// The Naming Service's IOR and one encoded `bind` body per object:
    /// built by the first [`bind_all`](Self::bind_all), once the node is
    /// known, and sent as they are by every re-bind.
    binds: Option<(Ior, Vec<Vec<u8>>)>,
}

impl ReplicaApp {
    /// Creates the paper's time-of-day server for `slot`, listening on
    /// `port` and binding `replicas/slot<slot>` at the Naming Service on
    /// `naming_node`.
    pub fn time_server(slot: crate::Slot, port: Port, naming_node: NodeId) -> Self {
        let mut orb = ServerOrb::new(port);
        let key = time_object_key();
        orb.register(key.clone(), Box::new(TimeOfDayServant));
        ReplicaApp {
            orb,
            client_orb: ClientOrb::new(),
            naming_node,
            bind_name: crate::RecoveryManager::slot_binding(slot),
            objects: vec![(key, TIME_TYPE_ID.to_string())],
            port,
            rebind_interval: None,
            binds: None,
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
        if self.binds.is_none() {
            self.binds = Some(self.encode_binds(sys.my_node()));
        }
        let Some((naming, bodies)) = &self.binds else {
            return;
        };
        for body in bodies {
            let _ = self.client_orb.invoke(sys, naming, "bind", body);
        }
    }

    /// The naming IOR and the `bind` body of each object served on `node`.
    fn encode_binds(&self, node: NodeId) -> (Ior, Vec<Vec<u8>>) {
        let host = host_of(node);
        let bodies = self
            .objects
            .iter()
            .map(|(key, type_id)| {
                let ior = Ior::singleton(type_id, &host, self.port.0, key.clone());
                encode_bind(&self.bind_name, &ior)
            })
            .collect();
        (naming_ior(self.naming_node), bodies)
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
            binds: self.binds.clone(),
        })
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
    use giop::{FrameSplitter, MessageView};
    use orb::{naming_key, CounterServant, COUNTER_TYPE_ID};
    use simnet::testkit::MockSys;
    use simnet::ConnId;

    use super::*;

    /// The bodies of the `bind` requests written on `conn` since the last
    /// `clear_written`.
    fn sent_binds(sys: &MockSys, conn: ConnId) -> Vec<Vec<u8>> {
        let mut split = FrameSplitter::new();
        split.push(sys.written(conn));
        let mut out = Vec::new();
        while let Ok(Some(frame)) = split.next_frame() {
            let Ok(MessageView::Request(req)) = MessageView::parse(&frame.bytes) else {
                panic!("not a request: {frame:?}");
            };
            assert_eq!(req.operation, "bind");
            assert_eq!(req.object_key, naming_key().as_bytes());
            out.push(req.body.to_vec());
        }
        out
    }

    fn fire_rebind(app: &mut ReplicaApp, sys: &mut MockSys) {
        let timer = sys
            .timers()
            .iter()
            .rev()
            .find(|t| t.token == REBIND_TOKEN)
            .expect("re-bind timer armed")
            .timer;
        app.on_event(
            sys,
            Event::TimerFired {
                timer,
                token: REBIND_TOKEN,
            },
        );
    }

    #[test]
    fn cached_bind_bodies_equal_fresh_encodings() {
        let naming_node = NodeId::from_index(0);
        let counter_key = ObjectKey::persistent("CounterPOA", "Counter");
        let mut app = ReplicaApp::time_server(crate::Slot(1), Port(2810), naming_node)
            .with_servant(
                counter_key.clone(),
                COUNTER_TYPE_ID,
                Box::new(CounterServant::new(CounterState::new())),
            )
            .with_rebind(SimDuration::from_millis(150));
        // Each body encoded from scratch.
        let fresh = |key: ObjectKey, type_id: &str| {
            encode_bind(
                "replicas/slot1",
                &Ior::singleton(type_id, "node2", 2810, key),
            )
        };
        let expected = vec![
            fresh(time_object_key(), TIME_TYPE_ID),
            fresh(counter_key, COUNTER_TYPE_ID),
        ];

        let mut sys = MockSys::new(NodeId::from_index(2));
        app.on_start(&mut sys);
        assert_eq!(app.binds, Some((naming_ior(naming_node), expected.clone())));
        let [(conn, _)] = sys.connected()[..] else {
            panic!("one connection, to the Naming Service");
        };
        app.on_event(&mut sys, Event::ConnEstablished { conn });
        assert_eq!(sent_binds(&sys, conn), expected, "first bind");

        for _ in 0..2 {
            sys.clear_written(conn);
            fire_rebind(&mut app, &mut sys);
            assert_eq!(sent_binds(&sys, conn), expected, "re-bind");
        }

        let mut copy = app.fork_over(None).expect("servants fork");
        assert_eq!(copy.binds, app.binds);
        sys.clear_written(conn);
        fire_rebind(&mut copy, &mut sys);
        assert_eq!(sent_binds(&sys, conn), expected, "re-bind after fork_over");
    }

    #[test]
    fn time_key_is_persistent_and_shared() {
        assert_eq!(time_object_key(), time_object_key());
        assert_eq!(time_object_key().as_bytes().len(), ObjectKey::CANONICAL_LEN);
    }
}

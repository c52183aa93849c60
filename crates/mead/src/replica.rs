//! The replicated server application (the *unmodified* CORBA server the
//! interceptor wraps).
//!
//! A [`ReplicaApp`] embeds a server ORB with one servant, listens on the
//! port its [`ReplicaSpec`] assigned, and registers its object with the
//! Naming Service under the slot binding name — re-registration after a
//! restart is what refreshes stale naming entries (section 5.2.1). It
//! knows nothing about MEAD, faults or group communication: everything
//! proactive happens in the interceptor underneath it, preserving the
//! paper's transparency claim.

use std::rc::Rc;

use giop::{Ior, ObjectKey};
use orb::{
    encode_bind, host_of, naming_ior, ClientOrb, CounterState, Servant, ServerOrb, TimeOfDayServant,
};
use simnet::{Event, NodeId, Process, SimDuration, SysApi};

use crate::ReplicaSpec;

/// Timer token for the periodic naming re-bind (outside the interceptor
/// token namespace, so the wrapping interceptor forwards it here).
const REBIND_TOKEN: u64 = 7_001;

/// The persistent object key shared by every replica of the time server
/// (persistent keys are what make cross-replica forwarding possible,
/// section 4).
fn time_object_key() -> ObjectKey {
    ObjectKey::persistent("TimePOA", "TimeOfDay")
}

/// An unmodified replicated server application: one servant under one
/// persistent key, bound under its slot's name.
pub struct ReplicaApp {
    orb: ServerOrb,
    client_orb: ClientOrb,
    rebind_interval: Option<SimDuration>,
    /// The Naming Service's IOR and the encoded `bind` body, sent as they
    /// are by the first bind and every re-bind.
    bind: (Ior, Vec<u8>),
}

impl ReplicaApp {
    /// Creates the replica `spec` describes, serving `servant` under
    /// `key` and binding its IOR as `replicas/slot<slot>` at the Naming
    /// Service on `naming_node`.
    pub fn new(
        spec: &ReplicaSpec,
        naming_node: NodeId,
        key: ObjectKey,
        servant: Box<dyn Servant>,
    ) -> Self {
        let host = host_of(spec.node);
        let ior = Ior::singleton(servant.type_id(), &host, spec.port.0, key.clone());
        let name = crate::RecoveryManager::slot_binding(spec.slot);
        ReplicaApp {
            orb: ServerOrb::new(spec.port, key, servant),
            client_orb: ClientOrb::new(),
            rebind_interval: None,
            bind: (naming_ior(naming_node), encode_bind(&name, &ior)),
        }
    }

    /// The paper's time-of-day server.
    pub fn time_server(spec: &ReplicaSpec, naming_node: NodeId) -> Self {
        let servant = Box::new(TimeOfDayServant);
        Self::new(spec, naming_node, time_object_key(), servant)
    }

    /// Re-registers the object's naming binding every `interval`
    /// (idempotent — the naming store has rebind semantics). Off by
    /// default: the paper topology binds once at startup. The chaos
    /// campaign enables it so the binding survives a Naming Service
    /// crash/restart, whose in-memory store comes back empty.
    pub fn with_rebind(mut self, interval: SimDuration) -> Self {
        self.rebind_interval = Some(interval);
        self
    }

    fn send_bind(&mut self, sys: &mut dyn SysApi) {
        let (naming, body) = &self.bind;
        let _ = self.client_orb.invoke(sys, naming, "bind", body);
    }

    /// A copy of this application for a forked simulation, its servant
    /// copied by [`Servant::fork`] — over `state` where it serves from
    /// the replica's shared [`CounterState`]. `None` when the servant
    /// cannot be copied.
    pub fn fork_over(&self, state: Option<&Rc<CounterState>>) -> Option<ReplicaApp> {
        Some(ReplicaApp {
            orb: self.orb.fork(state)?,
            client_orb: self.client_orb.clone(),
            rebind_interval: self.rebind_interval,
            bind: self.bind.clone(),
        })
    }
}

impl Process for ReplicaApp {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb.start(sys);
        // Register with the Naming Service; a restarted instance re-binds
        // the slot name with its fresh address.
        self.send_bind(sys);
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
                self.send_bind(sys);
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
    use simnet::{ConnId, Port};

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

    /// A counter replica, as the chaos topology builds one, binds one
    /// object: its one `bind` body carries the counter's IOR, on the
    /// first bind, on each re-bind and on a re-bind after `fork_over`.
    #[test]
    fn cached_bind_bodies_equal_fresh_encodings() {
        let naming_node = NodeId::from_index(0);
        let counter_key = ObjectKey::persistent("CounterPOA", "Counter");
        let spec = ReplicaSpec {
            slot: crate::Slot(1),
            port: Port(2810),
            node: NodeId::from_index(2),
        };
        let servant = Box::new(CounterServant::new(CounterState::new()));
        let mut app = ReplicaApp::new(&spec, naming_node, counter_key.clone(), servant)
            .with_rebind(SimDuration::from_millis(150));
        // The one body, encoded from scratch.
        let expected = vec![encode_bind(
            "replicas/slot1",
            &Ior::singleton(COUNTER_TYPE_ID, "node2", 2810, counter_key),
        )];
        assert_eq!(app.bind, (naming_ior(naming_node), expected[0].clone()));

        let mut sys = MockSys::new(NodeId::from_index(2));
        app.on_start(&mut sys);
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

        let mut copy = app.fork_over(None).expect("servant forks");
        assert_eq!(copy.bind, app.bind);
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

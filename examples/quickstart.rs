//! Quickstart: stand up a miniature CORBA world on the simulator — a
//! Naming Service, one time-of-day server, and a client — and perform a
//! few invocations through the client ORB.
//!
//! Run with `cargo run --example quickstart`.

use std::cell::RefCell;
use std::rc::Rc;

use mead_repro::giop::{Ior, ObjectKey};
use mead_repro::orb::{
    decode_resolve_reply, decode_time_reply, encode_bind, encode_name, host_of, naming_ior,
    ClientOrb, NamingService, OrbUpshot, ServerOrb, TimeOfDayServant, TIME_TYPE_ID,
};
use mead_repro::simnet::{
    Event, NodeId, Port, Process, SimConfig, SimDuration, SimTime, Simulation, SysApi,
};

/// A plain CORBA server: listens, registers its servant, binds its IOR.
struct TimeServer {
    orb: ServerOrb,
    naming_node: NodeId,
    client_orb: ClientOrb,
}

impl Process for TimeServer {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.orb.start(sys);
        let key = ObjectKey::persistent("TimePOA", "TimeOfDay");
        let ior = Ior::singleton(TIME_TYPE_ID, &host_of(sys.my_node()), 2810, key);
        let body = encode_bind("demo/time", &ior);
        self.client_orb
            .invoke(sys, &naming_ior(self.naming_node), "bind", &body)
            .expect("naming reference is well-formed");
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if self.client_orb.handle_event(sys, &ev).is_some() {
            return;
        }
        let _ = self.orb.handle_event(sys, &ev);
    }
}

/// A client that resolves `demo/time` and asks for the time five times.
struct DemoClient {
    orb: ClientOrb,
    naming_node: NodeId,
    target: Option<Ior>,
    resolve_rid: Option<u32>,
    sent_at: Option<SimTime>,
    remaining: u32,
    results: Rc<RefCell<Vec<(f64, u64)>>>,
}

impl DemoClient {
    fn fire(&mut self, sys: &mut dyn SysApi) {
        let target = self.target.clone().expect("resolved");
        self.sent_at = Some(sys.now());
        self.orb
            .invoke(sys, &target, "time_of_day", &[])
            .expect("target reference is well-formed");
    }
}

impl Process for DemoClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        let rid = self
            .orb
            .invoke(
                sys,
                &naming_ior(self.naming_node),
                "resolve",
                &encode_name("demo/time"),
            )
            .expect("naming reference is well-formed");
        self.resolve_rid = Some(rid);
    }
    fn on_event(&mut self, sys: &mut dyn SysApi, ev: Event) {
        if let Event::TimerFired { .. } = ev {
            self.fire(sys);
            return;
        }
        let Some(upshots) = self.orb.handle_event(sys, &ev) else {
            return;
        };
        for upshot in upshots {
            match upshot {
                OrbUpshot::Reply {
                    request_id,
                    payload,
                    ..
                } => {
                    if Some(request_id) == self.resolve_rid {
                        self.target =
                            Some(decode_resolve_reply(&payload).expect("resolve reply decodes"));
                        self.fire(sys);
                    } else {
                        let server_time = decode_time_reply(&payload).expect("time reply decodes");
                        let rtt = (sys.now() - self.sent_at.expect("sent")).as_millis_f64();
                        self.results.borrow_mut().push((rtt, server_time));
                        self.remaining -= 1;
                        if self.remaining > 0 {
                            sys.set_timer(SimDuration::from_millis(1), 1);
                        }
                    }
                }
                OrbUpshot::Exception { ex, .. } => panic!("unexpected exception: {ex}"),
                _ => {}
            }
        }
    }
}

fn main() {
    let mut sim = Simulation::new(SimConfig::default());
    let infra = sim.add_node("node0");
    let server_node = sim.add_node("node1");
    let client_node = sim.add_node("node2");

    sim.spawn(infra, "naming", Box::new(NamingService::new()));
    let orb = ServerOrb::new(
        Port(2810),
        ObjectKey::persistent("TimePOA", "TimeOfDay"),
        Box::new(TimeOfDayServant),
    );
    sim.spawn(
        server_node,
        "time-server",
        Box::new(TimeServer {
            orb,
            naming_node: infra,
            client_orb: ClientOrb::new(),
        }),
    );
    // Let the server bind before the client resolves.
    sim.run_until(SimTime::from_millis(200));

    let results = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        client_node,
        "client",
        Box::new(DemoClient {
            orb: ClientOrb::new(),
            naming_node: infra,
            target: None,
            resolve_rid: None,
            sent_at: None,
            remaining: 5,
            results: results.clone(),
        }),
    );
    sim.run_until(SimTime::from_secs(2));

    println!("five time_of_day invocations over simulated CORBA/GIOP:");
    for (i, (rtt, server_time)) in results.borrow().iter().enumerate() {
        println!("  #{i}: rtt = {rtt:.3} ms, server clock = {server_time} ns");
    }
    println!(
        "(the first call is slower: it pays naming resolution plus ORB \
         connection establishment, the paper's 'initial transient spike')"
    );
}

//! Stateful warm-passive scenario: a replicated counter with real
//! checkpoint-based state transfer (extension beyond the paper's
//! stateless evaluation workload; see `DESIGN.md` §8).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use giop::{Ior, ObjectKey};
use mead::{
    ClientInterceptor, MeadConfig, RecoveryManager, RecoveryScheme, ReplicaApp, ServerInterceptor,
    StateHooks,
};
use orb::{
    decode_counter_reply, decode_resolve_reply, encode_increment, encode_name, naming_ior,
    ClientOrb, ClientOrbConfig, OrbUpshot, SharedCounterServant, COUNTER_TYPE_ID,
};
use simnet::{
    Event, FifoScheduler, Metrics, NodeId, NoiseModel, Process, SimConfig, SimDuration, SimTime,
    SysApi,
};

use crate::testbed::{RecoveryManagers, Testbed, TestbedSpec};

/// The persistent key of the replicated counter object.
pub fn counter_key() -> ObjectKey {
    ObjectKey::persistent("CounterPOA", "Counter")
}

/// Parameters of the counter scenario.
#[derive(Clone, Debug)]
pub struct CounterConfig {
    /// Number of `increment` invocations.
    pub increments: u32,
    /// Warm-passive checkpoint interval.
    pub checkpoint_interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Disable the leak for a fault-free control run.
    pub fault_free: bool,
}

impl Default for CounterConfig {
    fn default() -> Self {
        CounterConfig {
            increments: 2000,
            checkpoint_interval: SimDuration::from_millis(50),
            seed: 42,
            fault_free: false,
        }
    }
}

/// Results of a counter run.
#[derive(Clone, Debug)]
pub struct CounterOutcome {
    /// Counter values acknowledged to the client, in invocation order.
    pub values: Vec<u64>,
    /// Kernel metrics.
    pub metrics: Metrics,
    /// Whether all increments were acknowledged.
    pub completed: bool,
}

impl CounterOutcome {
    /// The final acknowledged counter value.
    pub fn final_value(&self) -> u64 {
        self.values.last().copied().unwrap_or(0)
    }

    /// Number of visible state regressions (value not increasing between
    /// consecutive replies — a fail-over onto a slightly stale backup).
    pub fn regressions(&self) -> usize {
        self.values.windows(2).filter(|w| w[1] <= w[0]).count()
    }
}

/// The increment-issuing client.
struct CounterClient {
    orb: ClientOrb,
    naming_node: NodeId,
    target: Option<Ior>,
    naming_rid: Option<u32>,
    current_rid: Option<u32>,
    sent: u32,
    total: u32,
    slot_rr: u32,
    values: Rc<RefCell<Vec<u64>>>,
    done: Rc<Cell<bool>>,
}

impl CounterClient {
    fn resolve(&mut self, sys: &mut dyn SysApi) {
        let name = RecoveryManager::slot_binding(mead::Slot(self.slot_rr));
        self.naming_rid = self
            .orb
            .invoke(
                sys,
                &naming_ior(self.naming_node),
                "resolve",
                &encode_name(&name),
            )
            .ok();
    }
    fn fire(&mut self, sys: &mut dyn SysApi) {
        if self.sent >= self.total {
            self.done.set(true);
            return;
        }
        let Some(target) = self.target.clone() else {
            return;
        };
        match self
            .orb
            .invoke(sys, &target, "increment", &encode_increment(1))
        {
            Ok(rid) => self.current_rid = Some(rid),
            Err(_) => {
                self.slot_rr = (self.slot_rr + 1) % 3;
                self.resolve(sys);
            }
        }
    }
}

impl Process for CounterClient {
    fn on_start(&mut self, sys: &mut dyn SysApi) {
        self.resolve(sys);
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
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        if let Ok(ior) = decode_resolve_reply(&payload) {
                            self.target = Some(ior);
                            self.fire(sys);
                        } else {
                            sys.set_timer(SimDuration::from_millis(25), 1);
                        }
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        if let Ok(value) = decode_counter_reply(&payload) {
                            self.values.borrow_mut().push(value);
                        }
                        self.sent += 1;
                        if self.sent >= self.total {
                            self.done.set(true);
                        } else {
                            sys.set_timer(SimDuration::from_millis(1), 1);
                        }
                    }
                }
                OrbUpshot::Exception { request_id, .. } => {
                    if Some(request_id) == self.naming_rid {
                        self.naming_rid = None;
                        sys.set_timer(SimDuration::from_millis(25), 1);
                    } else if Some(request_id) == self.current_rid {
                        self.current_rid = None;
                        self.slot_rr = (self.slot_rr + 1) % 3;
                        self.resolve(sys);
                    }
                }
                _ => {}
            }
        }
    }
    fn label(&self) -> &str {
        "counter-client"
    }
}

/// Runs the replicated-counter scenario under the MEAD fail-over scheme.
pub fn run_counter_scenario(cfg: &CounterConfig) -> CounterOutcome {
    let mut mead_cfg = MeadConfig::builder(RecoveryScheme::MeadFailover).build();
    mead_cfg.checkpoint_interval = cfg.checkpoint_interval;
    if cfg.fault_free {
        mead_cfg.leak = None;
    }
    let factory_cfg = mead_cfg.clone();
    let mut testbed = Testbed::assemble(TestbedSpec {
        sim: SimConfig {
            seed: cfg.seed,
            noise: NoiseModel::none(),
            ..SimConfig::default()
        },
        scheduler: Box::new(FifoScheduler),
        slots: 3,
        client_nodes: 1,
        mead: mead_cfg.clone(),
        // Counter servant over a shared cell, with the interceptor's
        // warm-passive state hooks capturing and restoring it.
        factory: move |infra| {
            Rc::new(move |spec| {
                let value = Rc::new(Cell::new(0u64));
                let app = ReplicaApp::time_server(spec.slot, spec.port, infra).with_servant(
                    counter_key(),
                    COUNTER_TYPE_ID,
                    Box::new(SharedCounterServant::new(value.clone())),
                );
                let capture = value.clone();
                let restore = value;
                Box::new(
                    ServerInterceptor::new(factory_cfg.clone(), spec.slot, Box::new(app))
                        .with_state_hooks(StateHooks {
                            capture: Box::new(move || capture.get().to_be_bytes().to_vec()),
                            restore: Box::new(move |bytes| {
                                if let Ok(arr) = <[u8; 8]>::try_from(bytes) {
                                    restore.set(u64::from_be_bytes(arr));
                                }
                            }),
                        }),
                )
            })
        },
        recovery_managers: RecoveryManagers::Paper,
        boot_until: SimTime::from_millis(500),
    });
    testbed.boot();

    let values = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));
    let client_node = testbed.client_nodes()[0];
    testbed.sim.spawn(
        client_node,
        "client",
        Box::new(ClientInterceptor::new(
            mead_cfg,
            Box::new(CounterClient {
                orb: ClientOrb::new(ClientOrbConfig::default()),
                naming_node: testbed.infra(),
                target: None,
                naming_rid: None,
                current_rid: None,
                sent: 0,
                total: cfg.increments,
                slot_rr: 0,
                values: values.clone(),
                done: done.clone(),
            }),
        )),
    );
    let deadline = SimTime::from_millis(1000 + cfg.increments as u64 * 8);
    testbed.run_until_done(|| done.get(), deadline);
    let values = values.borrow().clone();
    CounterOutcome {
        completed: done.get(),
        values,
        metrics: testbed.harvest().metrics,
    }
}

//! The paper's testbed, assembled once.
//!
//! Every experiment of section 5 runs on the same Emulab topology: one
//! infrastructure node hosting the Naming Service, the MEAD Recovery
//! Manager and the group-communication sequencer, one node per warm-passive
//! replica slot, and the client node(s) — with a group-communication
//! daemon on every node, as Spread runs one. [`Testbed`] builds that
//! topology, boots it, drives it in slices until the caller's workload is
//! done and hands back the run's measurements. Its two drivers,
//! `run_scenario` (the paper's stateless replicas) and `ChaosBoot`
//! (replicas with state), differ only in the values they put into
//! [`TestbedSpec`] and the client they spawn. A booted testbed
//! can be copied ([`Testbed::fork`]), so runs that share a boot — the
//! schedule explorer's — pay for it once.
//!
//! Node names, process labels and spawn order all reach `Spawn` trace
//! events and process ids, and through them every pinned digest: nodes are
//! created infrastructure first, then servers, then client nodes; daemons
//! are spawned in that node order, then the Naming Service, then the
//! Recovery Manager instance(s). Anything a caller adds before
//! [`Testbed::boot`] (the chaos observer) comes after those.

use std::time::Duration;

use groupcomm::{GcsConfig, GcsDaemon, GCS_PORT};
use mead::{RecoveryManager, ReplicaFactory};
use orb::NamingService;
use simnet::{
    Addr, ForkError, Metrics, NodeId, RunOutcome, Scheduler, SimConfig, SimDuration, SimTime,
    Simulation,
};

/// Simulated time a run advances between two looks at the caller's
/// completion flag.
const SLICE: SimDuration = SimDuration::from_millis(250);

/// Everything that distinguishes one caller's testbed from another's.
pub(crate) struct TestbedSpec<F: FnOnce(NodeId) -> ReplicaFactory> {
    /// Kernel configuration: seed, OS noise, message loss.
    pub sim: SimConfig,
    /// Event-ordering policy and, through `Scheduler::gate`, the window
    /// and budget in which the kernel consults it (`FifoScheduler` — no
    /// gate, never consulted — for everyone but the schedule explorer).
    pub scheduler: Box<dyn Scheduler>,
    /// Replica slots, one server node each.
    pub slots: u32,
    /// Nodes the client processes are spread over.
    pub client_nodes: u32,
    /// Observability verbosity of the run's trace
    /// ([`MeadConfig::trace_level`](mead::MeadConfig::trace_level)).
    pub trace_level: obs::TraceLevel,
    /// Builds the replica factory, given the infrastructure node (where
    /// replicas find the Naming Service).
    pub factory: F,
    /// Recovery Manager instances (the paper deploys one), labelled
    /// `recovery-manager-{i}` and replicated warm-passively when there
    /// are two or more. Instance 0 sits on the infrastructure node,
    /// standbys are spread over the server nodes.
    pub rm_instances: u32,
    /// Instant up to which [`Testbed::boot`] lets the infrastructure come
    /// up and the replicas register before any client starts.
    pub boot_until: SimTime,
}

/// The assembled topology and its simulation.
pub(crate) struct Testbed {
    /// The simulation; callers spawn their clients and inject their
    /// faults on it directly.
    pub sim: Simulation,
    /// Every node in index order — infrastructure, servers, client nodes —
    /// which is also the numbering fault plans use.
    pub nodes: Vec<NodeId>,
    servers: usize,
    boot_until: SimTime,
}

/// What a finished run is measured by.
pub(crate) struct Harvest {
    /// Kernel metrics (counters, byte accounting).
    pub metrics: Metrics,
    /// The observability trace, in emission order.
    pub trace: Vec<obs::TraceEvent>,
    /// Simulated end-of-run instant.
    pub finished_at: SimTime,
    /// Kernel events dispatched (deterministic).
    pub events_processed: u64,
    /// Wall-clock time the kernel spent dispatching them (not
    /// deterministic; never folded into a digest).
    pub wall: Duration,
}

impl Testbed {
    /// Creates the nodes and spawns the daemons, the Naming Service and
    /// the Recovery Manager instance(s). Nothing has run yet.
    pub fn assemble<F: FnOnce(NodeId) -> ReplicaFactory>(spec: TestbedSpec<F>) -> Testbed {
        let mut sim = Simulation::with_scheduler(spec.sim, spec.scheduler);
        sim.set_trace_level(spec.trace_level);

        let server_count = spec.slots.max(1);
        let nodes: Vec<NodeId> = std::iter::once(0)
            .chain(1..=server_count)
            .chain((0..spec.client_nodes.max(1)).map(|i| spec.slots + 1 + i))
            .map(|n| sim.add_node(&format!("node{n}")))
            .collect();
        let mut testbed = Testbed {
            sim,
            nodes,
            servers: server_count as usize,
            boot_until: spec.boot_until,
        };
        let infra = testbed.infra();
        let servers = testbed.servers().to_vec();

        for i in 0..testbed.nodes.len() {
            let node = testbed.nodes[i];
            testbed.spawn_daemon(node);
        }
        testbed.spawn_naming();

        let factory = (spec.factory)(infra);
        let instances = spec.rm_instances.max(1);
        for instance in 0..instances {
            let (nodes, factory) = (servers.clone(), factory.clone());
            let rm = if instances == 1 {
                RecoveryManager::new(spec.slots, nodes, factory)
            } else {
                RecoveryManager::replicated(spec.slots, nodes, factory, instance)
            };
            let node = match instance {
                0 => infra,
                i => servers[(i as usize - 1) % servers.len()],
            };
            let label = format!("recovery-manager-{instance}");
            testbed.sim.spawn(node, &label, Box::new(rm));
        }
        testbed
    }

    /// The infrastructure node (Naming Service, Recovery Manager,
    /// sequencer).
    pub fn infra(&self) -> NodeId {
        self.nodes[0]
    }

    /// The server nodes, one per replica slot.
    pub fn servers(&self) -> &[NodeId] {
        &self.nodes[1..=self.servers]
    }

    /// The client nodes.
    pub fn client_nodes(&self) -> &[NodeId] {
        &self.nodes[self.servers + 1..]
    }

    /// Spawns a group-communication daemon on `node`, pointed at the
    /// sequencer on the infrastructure node.
    pub fn spawn_daemon(&mut self, node: NodeId) {
        let sequencer = Addr::new(self.infra(), GCS_PORT);
        let daemon = GcsDaemon::new(sequencer, GcsConfig::default());
        self.sim.spawn(node, "gcs-daemon", Box::new(daemon));
    }

    /// Spawns the Naming Service on the infrastructure node. Its store is
    /// in memory: a respawned instance comes back empty.
    pub fn spawn_naming(&mut self) {
        let naming = NamingService::new();
        self.sim.spawn(self.infra(), "naming", Box::new(naming));
    }

    /// Lets the infrastructure boot and the replicas register (the paper's
    /// experiments likewise start the servers before the client).
    pub fn boot(&mut self) {
        self.sim.run_until(self.boot_until);
    }

    /// Runs in [`SLICE`]s until `done` reports true, `deadline` passes or
    /// the event queue drains. No slice ends past `deadline`, so a run
    /// that never completes finishes exactly there.
    pub fn run_until_done(&mut self, done: impl Fn() -> bool, deadline: SimTime) {
        while !done() && self.sim.now() < deadline {
            let slice_end = (self.sim.now() + SLICE).min(deadline);
            if self.sim.run_until(slice_end) == RunOutcome::Idle {
                break;
            }
        }
    }

    /// A copy of the testbed whose simulation runs on under `scheduler`
    /// ([`Simulation::fork`]).
    pub fn fork(&self, scheduler: Box<dyn Scheduler>) -> Result<Testbed, ForkError> {
        Ok(Testbed {
            sim: self.sim.fork(scheduler)?,
            nodes: self.nodes.clone(),
            servers: self.servers,
            boot_until: self.boot_until,
        })
    }

    /// The finished run's measurements, moved out of the simulation and
    /// trimmed to size: sweeps keep hundreds of them.
    pub fn harvest(mut self) -> Harvest {
        let mut metrics = self.sim.take_metrics();
        metrics.shrink_to_fit();
        let mut trace = self.sim.take_trace();
        trace.shrink_to_fit();
        Harvest {
            metrics,
            trace,
            finished_at: self.sim.now(),
            events_processed: self.sim.events_processed(),
            wall: self.sim.wall_elapsed(),
        }
    }
}

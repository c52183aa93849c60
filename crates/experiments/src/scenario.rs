//! The paper's experiment: the measuring client(s) of section 5 against
//! three (`REPLICAS`) time-server replicas, on the testbed every
//! simulation shares (`crate::testbed`). A [`ScenarioConfig`] holds what
//! a run chooses — scheme, seed, invocation and client counts,
//! thresholds, faults; the replica count and think time are the paper's
//! constants, and the run's safety deadline is derived from the client
//! and invocation counts.

use std::cell::RefCell;
use std::rc::Rc;

use mead::{ClientInterceptor, MeadConfig, RecoveryScheme, ReplicaApp, ServerInterceptor};
use simnet::{FifoScheduler, Fnv, LossModel, Metrics, NoiseModel, SimConfig, SimDuration, SimTime};

use crate::testbed::{Harvest, Testbed, TestbedSpec};
use crate::workload::{
    ClientPolicy, ClientWorkload, ReportHandle, WorkloadConfig, WorkloadReport, REPLICAS,
};

/// Clients hosted per simulated client node.
pub const CLIENTS_PER_NODE: u32 = 64;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Strategy under test.
    pub scheme: RecoveryScheme,
    /// Master seed (each repetition uses a different seed).
    pub seed: u64,
    /// Logical invocations to run (paper: 10 000).
    pub invocations: u32,
    /// Migrate-threshold override for the Figure 5 sweep (`None` = paper
    /// default 0.9 with launch at 0.8).
    pub threshold: Option<f64>,
    /// Disable fault injection entirely (fault-free baseline).
    pub fault_free: bool,
    /// Enable the OS-noise model (section 5.2.5 jitter); off for clean
    /// calibration runs.
    pub os_noise: bool,
    /// Number of concurrent client processes (paper: 1). Each runs the
    /// full workload; per-connection migration must handle all of them.
    /// The run's safety deadline grows with it (see [`run_scenario`]).
    pub clients: u32,
    /// Optional final adjustment applied to the derived [`MeadConfig`]:
    /// the adaptive comparison's `trigger` and leak speed, a traced run's
    /// `trace_level`.
    pub tweak: Option<fn(&mut MeadConfig)>,
    /// Crash the `i`-th server node at the given time (node-crash fault).
    pub crash_server_node_at: Option<(usize, SimTime)>,
    /// Probability that a transport segment needs a retransmission
    /// (message-loss fault; manifests as added delay on the reliable
    /// streams).
    pub message_loss: f64,
}

impl ScenarioConfig {
    /// The paper's Table 1 setup for `scheme`.
    pub fn paper(scheme: RecoveryScheme) -> Self {
        ScenarioConfig {
            scheme,
            seed: 42,
            invocations: 10_000,
            threshold: None,
            fault_free: false,
            os_noise: true,
            clients: 1,
            tweak: None,
            crash_server_node_at: None,
            message_loss: 0.0,
        }
    }

    /// A shortened run for tests.
    pub fn quick(scheme: RecoveryScheme, invocations: u32) -> Self {
        ScenarioConfig {
            invocations,
            os_noise: false,
            ..Self::paper(scheme)
        }
    }
}

/// The canonical 13-cell paper workload: every Table 1 row plus the full
/// Figure 5 threshold sweep. Shared by the performance ledger and the
/// digest pin test so they can never drift apart.
pub fn paper_workload(invocations: u32) -> Vec<(String, ScenarioConfig)> {
    let mut cells = Vec::new();
    for scheme in RecoveryScheme::ALL {
        cells.push((
            format!("table1/{}", scheme.name().replace(' ', "_")),
            ScenarioConfig {
                invocations,
                ..ScenarioConfig::paper(scheme)
            },
        ));
    }
    for scheme in [
        RecoveryScheme::LocationForward,
        RecoveryScheme::MeadFailover,
    ] {
        for pct in [20u32, 40, 60, 80] {
            cells.push((
                format!("fig5/{}@{pct}", scheme.name().replace(' ', "_")),
                ScenarioConfig {
                    invocations,
                    threshold: Some(pct as f64 / 100.0),
                    ..ScenarioConfig::paper(scheme)
                },
            ));
        }
    }
    cells
}

/// The [`paper_workload`] cells named by `labels`, in the order given:
/// every section-5 command selects its scenarios here. Panics on a label
/// that names no cell (the labels are constants of this crate).
pub(crate) fn paper_cells(labels: &[&str], invocations: u32) -> Vec<ScenarioConfig> {
    let cells = paper_workload(invocations);
    labels
        .iter()
        .map(|&label| {
            let (_, cfg) = cells
                .iter()
                .find(|(name, _)| name == label)
                .unwrap_or_else(|| panic!("`{label}` is not a paper_workload cell"));
            cfg.clone()
        })
        .collect()
}

/// Results of one scenario run.
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Every client's measurements, in spawn order; never empty.
    pub all_reports: Vec<WorkloadReport>,
    /// Full kernel metrics (counters, byte accounting).
    pub metrics: Metrics,
    /// Simulated time at which the run ended.
    pub finished_at: SimTime,
    /// Simulated time at which the workload started.
    pub workload_start: SimTime,
    /// Kernel events dispatched over the whole run (deterministic: a
    /// function of the configuration and seed only).
    pub events_processed: u64,
    /// The observability trace of the run, in emission order
    /// (deterministic; serialise with [`trace_jsonl`](Self::trace_jsonl)).
    pub trace: Vec<obs::TraceEvent>,
    /// Wall-clock time the kernel spent dispatching those events (not
    /// deterministic; excluded from [`digest`](Self::digest)).
    pub wall: std::time::Duration,
}

impl ScenarioOutcome {
    /// The first client's measurements (the paper's single-client view).
    pub fn report(&self) -> &WorkloadReport {
        &self.all_reports[0]
    }

    /// Server-side failures: crashes from resource exhaustion plus
    /// graceful proactive rejuvenations.
    pub fn server_failures(&self) -> u64 {
        self.metrics.counter("mead.crash_exhaustion")
            + self.metrics.counter("mead.graceful_rejuvenations")
    }

    /// Client-visible failures per server-side failure, as a percentage
    /// (the Table 1 "Client Failures" column).
    pub fn client_failure_pct(&self) -> f64 {
        let servers = self.server_failures();
        if servers == 0 {
            return 0.0;
        }
        self.report().client_failures() as f64 * 100.0 / servers as f64
    }

    /// Events dispatched per wall-clock second for this run (0.0 when the
    /// wall time was too short to measure).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// The run's trace as JSON lines; equal traces produce equal bytes.
    pub fn trace_jsonl(&self) -> String {
        obs::jsonl::to_jsonl(&self.trace)
    }

    /// The run's fail-over episodes, reconstructed from the trace.
    pub fn episodes(&self) -> Vec<obs::Episode> {
        obs::episodes(&self.trace)
    }

    /// A 64-bit FNV-1a digest over every deterministic observable of the
    /// outcome: all per-invocation records of every client, all metric
    /// counters and byte-record series, the observability trace, the
    /// simulated timestamps and the event count. Two runs of the same [`ScenarioConfig`] are
    /// *bit-identical* exactly when their digests match — this is what the
    /// determinism regression test compares across thread counts.
    /// Wall-clock accounting is deliberately excluded.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.all_reports.len() as u64);
        for report in &self.all_reports {
            h.u64(report.records.len() as u64);
            for r in &report.records {
                h.u64(r.index as u64);
                h.u64(r.start.as_nanos());
                h.u64(r.end.as_nanos());
                h.u64(r.comm_failures as u64);
                h.u64(r.transients as u64);
                h.u64(r.forwards as u64);
                h.u64(r.resents as u64);
            }
            h.u64(report.completed as u64);
            h.u64(report.comm_failures as u64);
            h.u64(report.transients as u64);
            h.u64(report.naming_lookups as u64);
        }
        for (name, value) in self.metrics.counters() {
            h.bytes(name.as_bytes());
            h.u64(value);
        }
        for tag in self.metrics.byte_tags() {
            h.bytes(tag.as_bytes());
            for rec in self.metrics.byte_records(tag) {
                h.u64(rec.at.as_nanos());
                h.u64(rec.len);
            }
        }
        h.bytes(self.trace_jsonl().as_bytes());
        h.u64(self.finished_at.as_nanos());
        h.u64(self.workload_start.as_nanos());
        h.u64(self.events_processed);
        h.finish()
    }
}

/// Builds and runs one scenario to completion, or to the safety deadline
/// of `1000 + 6 · clients · invocations` ms of simulated time (for one
/// client, the paper formula).
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioOutcome {
    let mut mead_cfg = match cfg.threshold {
        Some(t) => MeadConfig::builder(cfg.scheme).migrate_threshold(t).build(),
        None => MeadConfig::builder(cfg.scheme).build(),
    };
    if cfg.fault_free {
        mead_cfg.leak = None;
    }
    if let Some(tweak) = cfg.tweak {
        tweak(&mut mead_cfg);
    }
    let sim_cfg = SimConfig {
        seed: cfg.seed,
        noise: if cfg.os_noise {
            NoiseModel::default()
        } else {
            NoiseModel::none()
        },
        loss: if cfg.message_loss > 0.0 {
            LossModel {
                probability: cfg.message_loss,
                retransmit_delay: SimDuration::from_millis(20),
            }
        } else {
            LossModel::none()
        },
        ..SimConfig::default()
    };
    let factory_cfg = mead_cfg.clone();
    let mut testbed = Testbed::assemble(TestbedSpec {
        sim: sim_cfg,
        scheduler: Box::new(FifoScheduler),
        slots: REPLICAS,
        // Fleet scenarios spread the client processes over several nodes;
        // up to `CLIENTS_PER_NODE` clients share the paper's single one.
        client_nodes: cfg.clients.div_ceil(CLIENTS_PER_NODE),
        trace_level: mead_cfg.trace_level,
        factory: move |naming_node| {
            Rc::new(move |spec| {
                let app = ReplicaApp::time_server(spec.slot, spec.port, naming_node);
                Box::new(ServerInterceptor::new(
                    factory_cfg.clone(),
                    spec.slot,
                    Box::new(app),
                ))
            })
        },
        rm_instances: 1,
        boot_until: SimTime::from_millis(500),
    });
    testbed.boot();
    let infra = testbed.infra();

    // Client workloads, each wrapped in its own client-side interceptor
    // when the scheme deploys one.
    let policy = match cfg.scheme {
        RecoveryScheme::ReactiveCache => ClientPolicy::CachedReferences,
        _ => ClientPolicy::ResolveOnFailure,
    };
    let mut reports: Vec<ReportHandle> = Vec::new();
    let clients = cfg.clients.max(1);
    for c in 0..clients {
        let report: ReportHandle = Rc::new(RefCell::new(WorkloadReport::default()));
        let workload = ClientWorkload::new(
            WorkloadConfig {
                invocations: cfg.invocations,
                policy,
                naming_node: infra,
            },
            report.clone(),
        );
        let client_proc: Box<dyn simnet::Process> = if cfg.scheme.has_client_interceptor() {
            Box::new(ClientInterceptor::new(cfg.scheme, Box::new(workload)))
        } else {
            Box::new(workload)
        };
        let node = testbed.client_nodes()[c as usize % testbed.client_nodes().len()];
        testbed.sim.spawn(node, &format!("client-{c}"), client_proc);
        reports.push(report);
    }
    let workload_start = testbed.sim.now();

    if let Some((idx, at)) = cfg.crash_server_node_at {
        let node = testbed.servers()[idx % testbed.servers().len()];
        testbed.sim.run_until(at);
        testbed.sim.crash_node(node);
    }
    // Run until the workload completes; generous safety deadline: boot
    // plus ~6 ms of serialised server-side work per invocation of every
    // client, the worst case.
    let total_invocations = u64::from(clients) * u64::from(cfg.invocations);
    let deadline = SimTime::from_millis(1000 + 6 * total_invocations);
    testbed.run_until_done(|| reports.iter().all(|r| r.borrow().completed), deadline);

    let Harvest {
        metrics,
        trace,
        finished_at,
        events_processed,
        wall,
    } = testbed.harvest();
    // Copied, not moved out of their cells: a copy is sized to its
    // records, where the vector the workload grew has up to twice the room.
    let all_reports: Vec<WorkloadReport> = reports.iter().map(|r| r.borrow().clone()).collect();
    ScenarioOutcome {
        all_reports,
        metrics,
        finished_at,
        workload_start,
        events_processed,
        trace,
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_disables_noise() {
        let cfg = ScenarioConfig::quick(RecoveryScheme::MeadFailover, 100);
        assert!(!cfg.os_noise);
        assert_eq!(cfg.invocations, 100);
    }

    #[test]
    fn paper_cells_select_by_label_in_the_order_given() {
        let cells = paper_cells(&["fig5/MEAD_Message@20", "table1/LOCATION_FORWARD"], 300);
        assert_eq!(cells[0].scheme.name(), "MEAD Message");
        assert_eq!(cells[0].threshold, Some(0.2));
        assert_eq!(cells[1].scheme.name(), "LOCATION FORWARD");
        assert_eq!(cells[1].threshold, None);
        assert!(cells.iter().all(|c| c.invocations == 300 && c.seed == 42));
    }
}

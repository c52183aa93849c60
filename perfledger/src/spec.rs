//! The names this benchmark reports, with units, directions and bounds.
//! `BENCHMARK.json` at the repository root lists the same names;
//! `ledger --check` fails when the two disagree.

use crate::workloads::NAMES;
use Better::{Higher, Lower};

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: reported by every workload's timed run.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics. A bound is three times the widest spread (the
/// distance between the quartiles of ten runs at ten seeds, as a share of
/// their median) seen on any workload (README, "Reference values"), and at
/// most the 0.25 the driver contract allows. `ns_per_op` is at that cap:
/// a driver's check saw `sweep` spread 25 % on the shared host this was
/// written on. `peak_heap_mib` repeats exactly at a given seed and moves
/// 3.3 % with the seed on `fleet-1k`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "ns_per_op",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    // The driver contract asks for the widest bound here; four of the
    // seven set-ups are a config constructor of a microsecond or two.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// One per-layer metric. Every traced run prints every one of them; the
/// workloads in `on` must produce it, and on any other workload it is
/// not applicable and printed as 0.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The workloads that produce it.
    pub on: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
    }
}

/// Kernels, span shares and process-wide figures: every workload.
const EVERY: &[&str] = &NAMES;
/// Workloads that run simulations and report kernel events.
const SIMULATIONS: &[&str] = &["paper", "paper-ktrace", "fleet-1k", "fleet-10k", "sweep"];
/// Workloads whose outcomes carry the kernel's own dispatch time.
const SCENARIOS: &[&str] = &["paper", "paper-ktrace", "fleet-1k", "fleet-10k"];
/// Workloads whose outcomes carry `simnet::Metrics` (`FleetOutcome`
/// keeps only totals).
const WITH_KERNEL_METRICS: &[&str] = &["paper", "paper-ktrace", "sweep"];
const PAPER: &[&str] = &["paper", "paper-ktrace"];
const KTRACE: &[&str] = &["paper-ktrace"];
const SWEEP: &[&str] = &["sweep"];
const EXPLORE: &[&str] = &["explore"];
const DETLINT: &[&str] = &["detlint"];

/// The per-layer metrics.
pub const PER_LAYER: [PerLayer; 88] = [
    // simnet
    m("simnet.events_per_op", "count", Lower, SIMULATIONS),
    m("simnet.kernel_share", "%", Lower, SCENARIOS),
    m("simnet.wheel_ns_per_event_1k", "ns", Lower, EVERY),
    m("simnet.wheel_ns_per_event_100k", "ns", Lower, EVERY),
    m("simnet.slab_churn_ns", "ns", Lower, EVERY),
    m("simnet.pingpong_fifo_ns", "ns", Lower, EVERY),
    m("simnet.pingpong_choosing_ns", "ns", Lower, EVERY),
    m("simnet.fanin_ns_per_delivery", "ns", Lower, EVERY),
    m("simnet.recv_queue_ns_per_kib", "ns", Lower, EVERY),
    m("simnet.boot_us", "us", Lower, EVERY),
    // giop
    m("giop.encode_request_ns", "ns", Lower, EVERY),
    m("giop.decode_request_ns", "ns", Lower, EVERY),
    m("giop.encode_reply_ns", "ns", Lower, EVERY),
    m("giop.decode_reply_ns", "ns", Lower, EVERY),
    m("giop.frame_scan_ns", "ns", Lower, EVERY),
    m("giop.ior_roundtrip_ns", "ns", Lower, EVERY),
    m("giop.key_hash16_ns", "ns", Lower, EVERY),
    m("giop.encode_request_allocs", "count", Lower, EVERY),
    m("giop.decode_request_allocs", "count", Lower, EVERY),
    // orb
    m(
        "orb.server_requests_per_op",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m(
        "orb.connections_opened",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m("orb.client_exceptions_per_kop", "count", Lower, SIMULATIONS),
    // mead
    m("mead.notice_roundtrip_ns", "ns", Lower, EVERY),
    m("mead.group_msg_roundtrip_ns", "ns", Lower, EVERY),
    m("mead.directory_on_view_ns", "ns", Lower, EVERY),
    m("mead.migrations", "count", Lower, WITH_KERNEL_METRICS),
    m(
        "mead.checkpoint_bytes_per_op",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m("mead.cell_ns_per_op.reactive", "ns", Lower, PAPER),
    m("mead.cell_ns_per_op.reactive-cache", "ns", Lower, PAPER),
    m("mead.cell_ns_per_op.needs-addressing", "ns", Lower, PAPER),
    m("mead.cell_ns_per_op.location-forward", "ns", Lower, PAPER),
    m("mead.cell_ns_per_op.mead-message", "ns", Lower, PAPER),
    // groupcomm
    m("groupcomm.wire_roundtrip_ns", "ns", Lower, EVERY),
    m("groupcomm.multicast_ns_per_delivery", "ns", Lower, EVERY),
    m(
        "groupcomm.mesh_bytes_per_op",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m(
        "groupcomm.mesh_msgs_per_op",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m("groupcomm.views", "count", Lower, WITH_KERNEL_METRICS),
    // faults
    m("faults.plan_generate_us", "us", Lower, EVERY),
    m("faults.plan_validate_us", "us", Lower, EVERY),
    m("faults.leak_step_ns", "ns", Lower, EVERY),
    // obs
    m("obs.emit_ns", "ns", Lower, EVERY),
    m("obs.jsonl_ns_per_event", "ns", Lower, EVERY),
    m("obs.episodes_ns_per_event", "ns", Lower, EVERY),
    m("obs.hist_record_ns", "ns", Lower, EVERY),
    m(
        "obs.trace_events_per_op",
        "count",
        Lower,
        WITH_KERNEL_METRICS,
    ),
    m("obs.jsonl_bytes_per_op", "count", Lower, KTRACE),
    // experiments
    m("experiments.run_share", "%", Lower, EVERY),
    m("experiments.digest_share", "%", Lower, EVERY),
    m("experiments.report_share", "%", Lower, EVERY),
    m("experiments.digest_ns_per_trace_event", "ns", Lower, EVERY),
    m("experiments.parse_sweep_us", "us", Lower, EVERY),
    m("experiments.expand_sweep_ms", "ms", Lower, EVERY),
    m("experiments.plan_ms_p50", "ms", Lower, SWEEP),
    m("experiments.plan_ms_p98", "ms", Lower, SWEEP),
    m("experiments.chaos_plan_us", "us", Lower, EVERY),
    // explore
    m("explore.runs", "count", Lower, EXPLORE),
    m("explore.distinct_outcomes", "count", Higher, EXPLORE),
    m("explore.run_prefix_us", "us", Lower, EVERY),
    m("explore.seeded_bug_runs_to_catch", "count", Lower, EVERY),
    m("explore.minimize_ms", "ms", Lower, EVERY),
    // lint, synlite, tomlite
    m("lint.collect_sources_ms", "ms", Lower, EVERY),
    m("lint.parse_floor_ms", "ms", Lower, EVERY),
    m("lint.rule_ms.R1", "ms", Lower, EVERY),
    m("lint.rule_ms.R2", "ms", Lower, EVERY),
    m("lint.rule_ms.R3", "ms", Lower, EVERY),
    m("lint.rule_ms.R4", "ms", Lower, EVERY),
    m("lint.rule_ms.R5", "ms", Lower, EVERY),
    m("lint.rule_ms.R6", "ms", Lower, EVERY),
    m("lint.rule_ms.R7", "ms", Lower, EVERY),
    m("lint.rule_ms.R8", "ms", Lower, EVERY),
    m("lint.rule_ms.R9", "ms", Lower, EVERY),
    m("lint.rule_ms.R10", "ms", Lower, EVERY),
    m("lint.rule_ms.R11-R12", "ms", Lower, EVERY),
    m("lint.files", "count", Higher, DETLINT),
    m("lint.source_kib", "count", Higher, DETLINT),
    m("lint.findings", "count", Lower, DETLINT),
    m("lint.suppressed", "count", Lower, DETLINT),
    m("synlite.parse_us_per_kib", "us", Lower, EVERY),
    m("tomlite.parse_us_per_kib", "us", Lower, EVERY),
    // process-wide
    m("heap.allocs_per_op", "count", Lower, EVERY),
    m("heap.bytes_per_op", "count", Lower, EVERY),
    m("bench.trace_overhead_pct", "%", Lower, EVERY),
    m("bench.fail_share", "%", Lower, EVERY),
    // Simulated results: the accuracy the host-time figures must not buy.
    m("paper.failover_err_pct", "%", Lower, PAPER),
    m("paper.rtt_overhead_err_pts", "%", Lower, PAPER),
    m("sweep.worst_goodput_gap_ms", "ms", Lower, SWEEP),
    m("bench.ops_per_pass", "count", Higher, EVERY),
    m("simnet.events_per_pass", "count", Lower, SIMULATIONS),
];

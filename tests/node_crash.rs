//! Node-crash faults (part of the paper's fault model, section 3, though
//! its evaluation only ever kills processes): crashing a whole server node
//! takes down its replica *and* its group-communication daemon. The
//! sequencer must synthesize node-level leaves, the Recovery Manager must
//! re-place the replica on a surviving node, and the client must keep
//! going.

use mead_repro::experiments::{run_scenario, ScenarioConfig};
use mead_repro::mead::RecoveryScheme;
use mead_repro::obs::{self, Phase};
use mead_repro::simnet::SimTime;

#[test]
fn node_crash_is_survived_by_mead_scheme() {
    let out = run_scenario(&ScenarioConfig {
        crash_server_node_at: Some((1, SimTime::from_millis(1500))),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 2000)
    });
    assert!(
        out.report().completed,
        "workload must finish despite the node crash"
    );
    // The sequencer must have synthesized leaves for the dead node's
    // members (at least the GCS daemon's hosted replica).
    assert!(
        out.metrics.counter("gcs.node_crash_leave") > 0,
        "node-level membership must fire"
    );
    // The Recovery Manager must have re-placed the slot on another node.
    assert!(
        out.metrics.counter("rm.fallback_placements") > 0,
        "replacement must land on a surviving node"
    );
    // Whether the client observes the crash depends on which replica it
    // was talking to; what matters is that service continues and at most
    // a couple of failures surface (the node crash is abrupt — no
    // proactive warning is possible for it).
    assert!(
        out.report().client_failures() <= 2,
        "at most the one abrupt failure may surface, got {}",
        out.report().client_failures()
    );
}

#[test]
fn node_crash_under_reactive_scheme_costs_one_comm_failure() {
    let out = run_scenario(&ScenarioConfig {
        crash_server_node_at: Some((0, SimTime::from_millis(1500))),
        ..ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 2000)
    });
    assert!(out.report().completed);
    assert!(
        out.report().comm_failures >= 1,
        "the abrupt node crash must surface"
    );
    // Replication degree restored on surviving nodes.
    assert!(obs::count_phase(&out.trace, Phase::ReplicaLaunch) >= 4);
}

#[test]
fn crashing_two_nodes_still_leaves_service() {
    let mut cfg = ScenarioConfig {
        crash_server_node_at: Some((2, SimTime::from_millis(1200))),
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1500)
    };
    cfg.seed = 5;
    let out = run_scenario(&cfg);
    assert!(
        out.report().completed,
        "one dead node of three must not stop service"
    );
}

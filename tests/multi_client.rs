//! Multiple concurrent clients (the paper evaluates one): per-connection
//! migration must redirect every client of a failing replica, and the
//! schemes' guarantees must hold for each of them.

use mead_repro::experiments::{run_scenario, ScenarioConfig};
use mead_repro::mead::RecoveryScheme;
use mead_repro::obs::{self, Phase};

#[test]
fn mead_masks_failures_for_all_three_clients() {
    let out = run_scenario(&ScenarioConfig {
        clients: 3,
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 900)
    });
    assert_eq!(out.all_reports.len(), 3);
    for (i, report) in out.all_reports.iter().enumerate() {
        assert!(report.completed, "client {i} must finish");
        assert_eq!(
            report.comm_failures + report.transients,
            0,
            "client {i} must see no exceptions"
        );
    }
    // With three clients on the primary, a migration redirects all three.
    assert!(obs::count_phase(&out.trace, Phase::ClientRedirect) >= 3);
}

#[test]
fn location_forward_serves_all_clients_through_forwards() {
    let out = run_scenario(&ScenarioConfig {
        clients: 2,
        ..ScenarioConfig::quick(RecoveryScheme::LocationForward, 900)
    });
    for (i, report) in out.all_reports.iter().enumerate() {
        assert!(report.completed, "client {i} must finish");
        assert_eq!(report.comm_failures + report.transients, 0, "client {i}");
    }
    assert!(out.metrics.counter("mead.forwards_sent") >= 2);
}

#[test]
fn reactive_clients_each_observe_their_own_failures() {
    let out = run_scenario(&ScenarioConfig {
        clients: 2,
        ..ScenarioConfig::quick(RecoveryScheme::ReactiveNoCache, 900)
    });
    for report in &out.all_reports {
        assert!(report.completed);
    }
    // Both clients talk to the same primary (slot 0 first), so each crash
    // surfaces at both: total failures ≈ 2x the crash count.
    let crashes = out.metrics.counter("mead.crash_exhaustion");
    let total: u32 = out.all_reports.iter().map(|r| r.comm_failures).sum();
    assert!(
        total as u64 >= crashes,
        "at least one failure per crash somewhere: {total} vs {crashes}"
    );
}

#[test]
fn the_run_deadline_grows_with_the_client_count() {
    // 256 clients share one server group: their 12 800 invocations take
    // far longer than 50 invocations of a single client would.
    let out = run_scenario(&ScenarioConfig {
        clients: 256,
        ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 50)
    });
    assert_eq!(out.all_reports.len(), 256);
    let done = out.all_reports.iter().filter(|r| r.completed).count();
    assert_eq!(done, 256, "only {done} of 256 clients completed");
}

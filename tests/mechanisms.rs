//! Mechanism-level integration tests: the individual moving parts of the
//! MEAD framework, observed through the full stack.

use mead_repro::experiments::{run_scenario, steady_state_rtt_ms, ScenarioConfig};
use mead_repro::mead::{
    replica_member_name, slot_of_member, MemberName, RecoveryScheme, ReplicaDirectory, Slot,
};
use mead_repro::obs::{self, Phase};

#[test]
fn location_forward_uses_giop_forwards_not_exceptions() {
    let out = run_scenario(&ScenarioConfig::quick(
        RecoveryScheme::LocationForward,
        1200,
    ));
    assert!(
        out.metrics.counter("mead.forwards_sent") > 0,
        "forwards must be sent"
    );
    assert!(
        out.metrics.counter("orb.forwarded") > 0,
        "the ORB must follow them"
    );
    // The forward machinery parses GIOP: the IOR table must have been fed
    // from intercepted naming registrations.
    assert!(out.metrics.counter("mead.ior_captured") > 0);
    // And no MEAD piggyback frames are used by this scheme.
    assert_eq!(out.metrics.counter("mead.piggybacks_sent"), 0);
}

#[test]
fn mead_scheme_uses_piggybacks_not_forwards() {
    let out = run_scenario(&ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1200));
    assert!(out.metrics.counter("mead.piggybacks_sent") > 0);
    assert_eq!(out.metrics.counter("mead.forwards_sent"), 0);
    assert_eq!(out.metrics.counter("orb.forwarded"), 0);
    // The client interceptor must have completed dup2-style redirects.
    assert_eq!(
        out.metrics.counter("mead.client.redirects_started"),
        obs::count_phase(&out.trace, Phase::ClientRedirect),
        "every started redirect must complete"
    );
    // The client ORB never opens extra connections for fail-over: only
    // naming + the first replica connection. (The global counter also
    // includes one naming connection per launched replica instance.)
    let client_opens = out.metrics.counter("orb.connections_opened")
        - obs::count_phase(&out.trace, Phase::ReplicaLaunch);
    assert_eq!(
        client_opens, 2,
        "interceptor-level redirects must bypass the ORB's connection machinery"
    );
    assert_eq!(
        out.report().naming_lookups,
        1,
        "one initial resolve, no re-resolution"
    );
}

#[test]
fn needs_addressing_fabricates_replies_for_in_flight_requests() {
    let out = run_scenario(&ScenarioConfig::quick(
        RecoveryScheme::NeedsAddressing,
        2500,
    ));
    let suppressed = obs::count_phase(&out.trace, Phase::FaultDetected);
    assert!(suppressed > 0);
    // Some of the suppressed EOFs had a request in flight; those must
    // produce a fabricated NEEDS_ADDRESSING_MODE reply and an ORB resend.
    let fabricated = out.metrics.counter("mead.client.fabricated_needs_addr");
    let resends = out.metrics.counter("orb.needs_addressing_resend");
    assert_eq!(
        fabricated, resends,
        "each fabricated reply triggers one resend"
    );
    // Timeouts (lost races) surface as COMM_FAILURE at the application —
    // except possibly a timeout landing at the very end of the run, which
    // the completed workload never discovers.
    let timeouts = out.metrics.counter("mead.client.query_timeout");
    assert!(
        timeouts > 0,
        "the race must produce some timeouts over 2500 invocations"
    );
    assert!(
        u64::from(out.report().comm_failures) + 1 >= timeouts,
        "timeouts must surface as COMM_FAILURE ({} failures, {timeouts} timeouts)",
        out.report().comm_failures
    );
}

#[test]
fn proactive_notifications_prelaunch_replacements() {
    let out = run_scenario(&ScenarioConfig::quick(RecoveryScheme::MeadFailover, 1200));
    let notices = out.metrics.counter("rm.proactive_notices");
    let rejuvenations = out.metrics.counter("mead.graceful_rejuvenations");
    assert!(
        notices >= rejuvenations,
        "every rejuvenation is preceded by a launch request \
         (notices {notices} vs rejuvenations {rejuvenations})"
    );
}

#[test]
fn stale_references_surface_as_transients_with_cache() {
    // Longer run so cache refreshes race replica restarts.
    let out = run_scenario(&ScenarioConfig::quick(RecoveryScheme::ReactiveCache, 3500));
    assert!(out.report().comm_failures > 0);
    assert!(
        out.report().transients > 0,
        "stale cache entries must produce TRANSIENT exceptions (section 5.2.1)"
    );
    assert!(
        out.report().transients < out.report().comm_failures,
        "TRANSIENTs are the minority case"
    );
}

#[test]
fn directory_semantics() {
    let mut dir = ReplicaDirectory::new();
    dir.on_view(vec![
        "mgr/recovery".into(),
        replica_member_name(Slot(0), 1).as_str().to_string(),
        replica_member_name(Slot(1), 2).as_str().to_string(),
        replica_member_name(Slot(2), 3).as_str().to_string(),
    ]);
    // The manager is never a fail-over target.
    assert_eq!(
        dir.next_after(&replica_member_name(Slot(2), 3)),
        Some(&MemberName::from("replica/0/1"))
    );
    assert_eq!(
        slot_of_member(replica_member_name(Slot(7), 9).as_str()),
        Some(Slot(7))
    );
    // Advert retention across the advert/join race: an address recorded
    // before the member appears in a view must survive the next view.
    dir.record_addr("replica/0/99", "node1", 20009);
    dir.on_view(vec![
        replica_member_name(Slot(0), 1).as_str().to_string(),
        "replica/0/99".into(),
    ]);
    assert_eq!(
        dir.addr_of(&MemberName::from("replica/0/99")),
        Some(("node1", 20009))
    );
}

#[test]
fn overhead_is_stable_across_seeds() {
    let mut values = Vec::new();
    for seed in [1u64, 2, 3] {
        let out = run_scenario(&ScenarioConfig {
            seed,
            ..ScenarioConfig::quick(RecoveryScheme::MeadFailover, 600)
        });
        values.push(steady_state_rtt_ms(&out));
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(0.0, f64::max);
    assert!(
        (max - min) / min < 0.05,
        "steady-state RTT should be seed-stable: {values:?}"
    );
}

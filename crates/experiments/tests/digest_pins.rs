//! Pins the 13 paper-workload scenario digests, the fault-free baseline
//! of the jitter table, and the seed-42 `fleet-1k` digests.
//!
//! The DESIGN §11 kernel refactor (slab-indexed state tables, timing-
//! wheel event queue) was performed under the obligation that every one
//! of these digests stays bit-identical — the digest folds the workload
//! reports, metrics, observability trace, timestamps and event count, so
//! any drift in RNG draw order, id allocation, or event dispatch order
//! shows up here. If a future change moves one of these values, that is
//! a *semantic* change to the simulation and needs the baselines
//! regenerated deliberately, not silently.

use experiments::{paper_workload, run_fleet, run_scenario, FleetConfig, ScenarioConfig};
use mead::RecoveryScheme;

/// `(label, digest)`. Every value here, the fault-free baseline and the
/// fleet digests below were re-pinned together when two things left the
/// digests without any run changing: the interceptors stopped recording
/// their one-byte occurrence series (`mead.crash_at`,
/// `mead.migrate_at`, `mead.client.redirect_at`,
/// `mead.client.suppressed_at`) into the byte accounting, since the same
/// instants are trace events; and the paper's lone Recovery Manager is
/// spawned as `recovery-manager-0`, like every other deployment. Records,
/// counters, the other byte series and the trace (but for that one
/// `Spawn` label) stayed equal in every cell.
const PINNED: [(&str, u64); 13] = [
    ("table1/Reactive_Without_Cache", 0xd3e3b7710613cb6d),
    ("table1/Reactive_With_Cache", 0x58b4f335247bf804),
    ("table1/NEEDS_ADDRESSING_Mode", 0xf4454dce230105e1),
    ("table1/LOCATION_FORWARD", 0x901d3cf74ae7e952),
    ("table1/MEAD_Message", 0x64cc0acc1ec4b6f1),
    ("fig5/LOCATION_FORWARD@20", 0x8355ada19c0adf28),
    ("fig5/LOCATION_FORWARD@40", 0xcdf4adcc24dbe163),
    ("fig5/LOCATION_FORWARD@60", 0xa056c0562d775866),
    ("fig5/LOCATION_FORWARD@80", 0x94e061a421ddda2a),
    ("fig5/MEAD_Message@20", 0x5be47ab452ce1c5f),
    ("fig5/MEAD_Message@40", 0xeb938aa35c69ae11),
    ("fig5/MEAD_Message@60", 0x43d13e7f887cb21b),
    ("fig5/MEAD_Message@80", 0xdd22b1a55240d757),
];

#[test]
fn paper_workload_digests_match_committed_values() {
    let cells = paper_workload(10_000);
    assert_eq!(cells.len(), PINNED.len(), "workload shape changed");
    let mut failures = Vec::new();
    for ((label, cfg), (pin_label, pin)) in cells.iter().zip(PINNED) {
        assert_eq!(label, pin_label, "workload order changed");
        let digest = run_scenario(cfg).digest();
        if digest != pin {
            failures.push(format!("{label}: got {digest:#018x}, pinned {pin:#018x}"));
        }
    }
    assert!(
        failures.is_empty(),
        "scenario digests drifted from committed baselines:\n{}",
        failures.join("\n")
    );
}

/// The one scenario behind `results/` outside `paper_workload`: the
/// jitter table's fault-free run (OS noise, no leak), seed 42, 10 000
/// invocations.
#[test]
fn fault_free_baseline_digest_matches_committed_value() {
    let cfg = ScenarioConfig {
        fault_free: true,
        ..ScenarioConfig::paper(RecoveryScheme::ReactiveNoCache)
    };
    assert_eq!(run_scenario(&cfg).digest(), 0x509d17459142d2bd);
}

/// `fleet-1k` at seed 42 (the ledger's workload: 4 groups x 1000 clients
/// x 5 invocations under the MEAD scheme): per-group digests, then the
/// fleet digest that folds them with the fleet totals. Re-pinned when a
/// redirect dial the application had abandoned began to be hung up
/// (26 more kernel events; completions and failures did not move), and
/// again with `PINNED` above (no event, completion or failure moved).
const FLEET_1K_GROUPS: [u64; 4] = [
    0xf1826a205a8e228c,
    0x27020a19f7d71037,
    0xf37dd0e66edc2e27,
    0x9fa3b57e50787f47,
];
const FLEET_1K: u64 = 0xfde24c27dbe3d2f0;

#[test]
fn fleet_1k_digests_match_committed_values() {
    let out = run_fleet(&FleetConfig::new(RecoveryScheme::MeadFailover, 1000), 2);
    assert_eq!(
        out.group_digests, FLEET_1K_GROUPS,
        "a group's outcome moved"
    );
    assert_eq!(out.digest(), FLEET_1K, "the fleet totals moved");
    assert_eq!(out.total_events, 5_327_246);
}

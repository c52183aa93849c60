//! Every run of this crate that `pins.toml` pins: the 14 runs of `paper`
//! (the 13 paper cells and the jitter table's fault-free run), seed-42
//! `fleet-1k` and `fleet --smoke`, the chaos campaign, `sweep --smoke`
//! and `sweep-full.toml` at its thirteen base seeds. A run that moves
//! fails with the components that moved and the entry that would re-pin
//! it (DESIGN §9 "Pinned runs"). The sweeps are `#[ignore]`d; CI runs
//! them in release.

use experiments::pins::{hold, Pins, Run};
use experiments::{
    default_threads, expand_sweep, paper, paper_runs, read_sweep, run_fleet, run_scenario,
    run_sweep, sample_is_thread_independent, FleetConfig,
};
use mead::RecoveryScheme;

fn pins() -> Pins {
    Pins::committed().unwrap_or_else(|e| panic!("{e}"))
}

/// The runs of `paper` at its default count, from the list the command
/// runs: every `paper_workload` cell and the jitter table's fault-free
/// run. Each run is pinned and each pin is a run.
#[test]
fn paper_runs_match_their_pins() {
    let mut runs = paper_runs(paper::DEFAULT_INVOCATIONS);
    runs.sort_by(|a, b| a.0.cmp(&b.0));
    let pins = pins();
    let pinned = pins.keys_under("jitter/").chain(pins.keys_under("paper/"));
    assert!(
        pinned.eq(runs.iter().map(|(key, _)| key.as_str())),
        "pins of no run, or runs of no pin"
    );
    hold(
        runs.iter()
            .map(|(key, cfg)| (key, Run::of(run_scenario(cfg).components()))),
    );
}

/// `fleet-1k` at seed 42 (the ledger's workload: 4 groups x 1000 clients
/// x 5 invocations under the MEAD scheme): each group, then the fleet
/// with its event count.
#[test]
fn fleet_1k_matches_its_pins() {
    let out = run_fleet(&FleetConfig::new(RecoveryScheme::MeadFailover, 1000), 2);
    let pins = pins();
    let groups: Vec<&str> = pins.keys_under("fleet-1k/group").collect();
    assert_eq!(groups.len(), out.groups.len(), "the pinned groups");
    let fleet = Run::of(out.components()).count("events", out.total_events);
    hold(
        groups
            .into_iter()
            .zip(out.groups.into_iter().map(Run::of))
            .chain([("fleet-1k", fleet)]),
    );
}

/// `fleet --smoke` at 1, 2 and 4 worker threads, each at the one pin.
#[test]
fn fleet_smoke_matches_its_pin_at_1_2_and_4_threads() {
    let cfg = FleetConfig::smoke(RecoveryScheme::MeadFailover);
    hold([1, 2, 4].map(|threads| {
        let out = run_fleet(&cfg, threads);
        let run = Run::of(out.components()).count("events", out.total_events);
        ("fleet/smoke", run)
    }));
}

/// The checked-in scenario `file`, its base seed replaced by `base_seed`
/// when given, with its plan and violating-plan counts. Like the `sweep`
/// command, it first checks that a sample of its plans gives one digest
/// at 1 and 4 worker threads.
fn sweep(file: &str, base_seed: Option<u64>) -> Run {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    let mut spec = read_sweep(&path).unwrap_or_else(|e| panic!("{e}"));
    spec.base_seed = base_seed.unwrap_or(spec.base_seed);
    let units = expand_sweep(&spec).expect("expansion validates");
    assert!(
        sample_is_thread_independent(&spec.name, &units, 4),
        "{file}: thread count"
    );
    let out = run_sweep(&spec.name, &units, default_threads());
    Run::of(out.components())
        .count("plans", out.results.len() as u64)
        .count("violating", out.violations().len() as u64)
}

#[test]
#[ignore = "480 chaos plans; CI runs it in release"]
fn chaos_campaign_matches_its_pin() {
    hold([("sweep/chaos-campaign", sweep("chaos-campaign.toml", None))]);
}

#[test]
#[ignore = "23 chaos plans; CI runs it in release"]
fn sweep_smoke_matches_its_pin() {
    hold([("sweep/smoke", sweep("sweep-smoke.toml", None))]);
}

/// `sweep-full.toml` at each pinned base seed (`sweep/full@<seed>`). The
/// seeds differ above bit 5 on purpose (DESIGN §12).
#[test]
#[ignore = "13 x 508 chaos plans; CI runs it in release"]
fn sweep_full_matches_its_pins_at_every_base_seed() {
    let pins = pins();
    let keys: Vec<&str> = pins.keys_under("sweep/full@").collect();
    assert_eq!(keys.len(), 13, "the pinned base seeds");
    hold(keys.into_iter().map(|key| {
        let seed = key["sweep/full@".len()..].parse().expect("a base seed");
        (key, sweep("sweep-full.toml", Some(seed)))
    }));
}

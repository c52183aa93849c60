//! Round-trip determinism of the checked-in sweep scenarios: parsing a
//! scenario file twice yields identical specs and byte-identical plans,
//! and running the expanded units produces the same digest at 1 and 4
//! worker threads — a pinned one, so a change to the chaos executor that
//! moves any plan's outcome fails here.

use experiments::{expand_sweep, parse_sweep, run_sweep, SweepUnit};
use faults::FaultKind;

fn scenario_source(file: &str) -> String {
    let path = format!("{}/../../scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("checked-in {path}: {e}"))
}

/// Parses and expands `file` twice; returns one expansion after checking
/// both agree plan for plan.
fn expand_twice(file: &str) -> Vec<SweepUnit> {
    let src = scenario_source(file);
    let a = parse_sweep(&src).expect("scenario parses");
    let b = parse_sweep(&src).expect("scenario parses");
    let ua = expand_sweep(&a).expect("expansion validates");
    let ub = expand_sweep(&b).expect("expansion validates");
    assert!(!ua.is_empty());
    assert_eq!(ua.len(), ub.len());
    for (x, y) in ua.iter().zip(&ub) {
        assert_eq!(x.cell, y.cell);
        assert_eq!(x.plan, y.plan, "cell {} diverged", x.cell);
    }
    ua
}

fn kills_an_rm(unit: &SweepUnit) -> bool {
    unit.plan
        .events()
        .iter()
        .any(|e| e.kind == FaultKind::CrashRecoveryManager)
}

#[test]
fn parsing_twice_yields_identical_plans() {
    let units = expand_twice("sweep-smoke.toml");
    // The matrix covers both generated mixes and the explicit timeline.
    assert!(units.iter().any(|u| u.cell.ends_with("/classic")));
    assert!(units.iter().any(|u| u.cell.ends_with("/zoo")));
    assert!(units.iter().any(|u| u.cell.ends_with("/explicit")));
}

/// The chaos campaign: 240 plans per topology, and an RM-crash budget
/// capped by the topology — no plan kills `spof`'s only Recovery
/// Manager, while `paper` (two instances) does lose one.
#[test]
fn chaos_campaign_expands_within_each_topologys_rm_budget() {
    let units = expand_twice("chaos-campaign.toml");
    assert_eq!(units.len(), 480);
    let (spof, paper): (Vec<_>, Vec<_>) = units.iter().partition(|u| u.cell.starts_with("spof/"));
    assert_eq!(spof.len(), 240);
    assert!(paper.iter().all(|u| u.cell.starts_with("paper/")));
    assert!(!spof.iter().any(|u| kills_an_rm(u)));
    assert!(paper.iter().any(|u| kills_an_rm(u)));
}

/// The digest of the trimmed smoke sweep below, re-pinned when the
/// counter set every outcome digest folds shrank to the counters
/// something reads (no plan's values, views or trace moved). CI pins
/// the untrimmed scenario files the same way (`digest …` greps in the
/// `chaos-smoke` and `chaos-sweep` jobs). A deliberate behaviour change
/// re-pins all of them together and says why.
const TRIMMED_SMOKE_DIGEST: u64 = 0x50ce_9c8c_1a25_441a;

#[test]
fn sweep_digest_is_thread_count_independent() {
    let mut spec = parse_sweep(&scenario_source("sweep-smoke.toml")).expect("scenario parses");
    // A trimmed workload keeps the debug-mode runtime small.
    spec.increments = 40;
    spec.plans_per_cell = 2;
    let units = expand_sweep(&spec).expect("expansion validates");
    let run = |threads: usize| run_sweep(&spec.name, &units, threads).digest();
    let digest = run(1);
    assert_eq!(digest, run(4), "sweep digest depends on thread count");
    assert_eq!(
        digest, TRIMMED_SMOKE_DIGEST,
        "the chaos executor's observable behaviour moved: {digest:016x}"
    );
}

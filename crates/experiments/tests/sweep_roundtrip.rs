//! Round-trip determinism of the checked-in sweep scenarios: parsing a
//! scenario file twice yields identical specs and byte-identical plans,
//! and running the expanded units produces the same digest at 1 and 4
//! worker threads — a pinned one (`pins.toml`), so a change to the chaos
//! executor that moves any plan's outcome fails here.

use experiments::pins::{hold, Pins, Run};
use experiments::{
    expand_sweep, parse_sweep, run_chaos_plan, run_chaos_plan_with, run_sweep, SweepUnit,
};
use faults::FaultKind;
use simnet::{GateCfg, ReplayScheduler};

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

/// The chaos campaign: as many plans as pin `sweep/chaos-campaign`
/// counts, and an RM-crash budget capped by the topology — no plan kills
/// `spof`'s only Recovery Manager, while `paper` (two instances) does
/// lose one.
#[test]
fn chaos_campaign_expands_within_each_topologys_rm_budget() {
    let pins = Pins::committed().unwrap_or_else(|e| panic!("{e}"));
    let plans = pins
        .count("sweep/chaos-campaign", "plans")
        .expect("a plan count");
    let units = expand_twice("chaos-campaign.toml");
    assert_eq!(units.len() as u64, plans);
    // One scheme and one mix give each of the two topologies one cell of
    // `plans_per_cell` plans, so the single-RM `spof` holds half of them.
    let (spof, paper): (Vec<_>, Vec<_>) = units.iter().partition(|u| u.cell.starts_with("spof/"));
    assert_eq!(spof.len() as u64 * 2, plans);
    assert!(paper.iter().all(|u| u.cell.starts_with("paper/")));
    assert!(!spof.iter().any(|u| kills_an_rm(u)));
    assert!(paper.iter().any(|u| kills_an_rm(u)));
}

/// A trimmed smoke sweep gives the same digest at 1 and 4 worker
/// threads, and the one pinned as `sweep/smoke-trimmed`.
#[test]
fn sweep_digest_is_thread_count_independent() {
    let mut spec = parse_sweep(&scenario_source("sweep-smoke.toml")).expect("scenario parses");
    // A trimmed workload keeps the debug-mode runtime small.
    spec.increments = 40;
    spec.plans_per_cell = 2;
    let units = expand_sweep(&spec).expect("expansion validates");
    let run = |threads: usize| run_sweep(&spec.name, &units, threads);
    let one = run(1);
    assert_eq!(
        one.digest(),
        run(4).digest(),
        "sweep digest depends on thread count"
    );
    hold([(
        "sweep/smoke-trimmed",
        Run::of(one.components()).count("plans", one.results.len() as u64),
    )]);
}

/// The kernel parks a notify for a busy process in one of two ways: in
/// the process's ready list without a gate, as an entry of its own under
/// one. On every smoke plan, a gate that never opens gives the FIFO run's
/// digest and its event count.
#[test]
fn both_parking_paths_give_one_digest_on_every_smoke_plan() {
    let units = expand_twice("sweep-smoke.toml");
    let closed = GateCfg {
        max_steps: 0,
        ..GateCfg::default()
    };
    for unit in &units {
        let fifo = run_chaos_plan(&unit.plan, &unit.chaos);
        let gated = run_chaos_plan_with(
            &unit.plan,
            &unit.chaos,
            Box::new(ReplayScheduler::new(closed, Vec::new())),
        );
        assert_eq!(fifo.digest(), gated.digest(), "cell {}", unit.cell);
        assert_eq!(
            fifo.events_processed, gated.events_processed,
            "cell {}",
            unit.cell
        );
    }
}

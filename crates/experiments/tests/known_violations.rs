//! Generated plans that once broke the chaos invariants.
//!
//! The committed `sweep-full.toml` (`base_seed = 2004`) passes 508/508.
//! Each row below is a plan that turns up when only `base_seed` changes.
//! Every row failed for one of three reasons, each fixed in `mead`, and
//! now expects no violation:
//!
//! - **lost or duplicated state** (the zoo rows): the primary never
//!   pre-launched a replacement at the first threshold, so when it died
//!   of exhaustion and a correlated crash took both other slots inside
//!   the replacement's launch latency, no state holder survived;
//! - **the give-ups** (the classic rows): the client interceptor
//!   suppressed an EOF on the *Naming Service* connection and redirected
//!   it to a replica, after which every `resolve` failed until the retry
//!   budget ran out;
//! - **lost or duplicated state** (the `mead_failover` row): the primary
//!   drained and exited before the successor it launched had started, so
//!   a correlated crash of both backups left no state holder. A primary
//!   with state now exits gracefully only once its successor is in the
//!   view and warm.

use experiments::{expand_sweep, parse_sweep, run_chaos_plan};

/// Runs the plan with seed `plan_seed` of cell `cell` in `sweep-full.toml`
/// as it expands under `base_seed`, and returns its violations.
fn violations_of(base_seed: u64, cell: &str, plan_seed: u64) -> Vec<String> {
    let path = format!(
        "{}/../../scenarios/sweep-full.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("checked-in {path}: {e}"));
    assert!(src.contains("base_seed = 2004"), "the committed seed moved");
    let src = src.replace("base_seed = 2004", &format!("base_seed = {base_seed}"));
    let spec = parse_sweep(&src).expect("scenario parses");
    let units = expand_sweep(&spec).expect("expansion validates");
    let unit = units
        .iter()
        .find(|u| u.cell == cell && u.plan.seed() == plan_seed)
        .unwrap_or_else(|| panic!("base_seed {base_seed} no longer generates {cell}/{plan_seed}"));
    run_chaos_plan(&unit.plan, &unit.chaos).violations
}

const NA_ZOO: &str = "paper/needs_addressing/zoo";

#[test]
fn base_seed_1_keeps_state_across_a_correlated_crash() {
    assert!(violations_of(1, NA_ZOO, 14088326897070232123).is_empty());
}

#[test]
fn base_seed_4096_keeps_state_across_a_correlated_crash() {
    assert!(violations_of(4096, NA_ZOO, 9910067516662377613).is_empty());
}

#[test]
fn base_seed_17842_keeps_state_across_a_correlated_crash() {
    assert!(violations_of(17842, NA_ZOO, 11855738815923485640).is_empty());
}

#[test]
fn base_seed_25761_keeps_state_across_a_correlated_crash() {
    assert!(violations_of(25761, NA_ZOO, 6758631626910312429).is_empty());
}

#[test]
fn base_seed_49518_keeps_state_across_a_correlated_crash() {
    assert!(violations_of(49518, NA_ZOO, 748409730216358911).is_empty());
}

#[test]
fn base_seed_33680_resolves_through_a_failover() {
    let cell = "wide/needs_addressing/classic";
    assert!(violations_of(33680, cell, 9585200432423754835).is_empty());
}

#[test]
fn base_seed_1048576_resolves_through_a_failover() {
    let cell = "wide/needs_addressing/classic";
    assert!(violations_of(1048576, cell, 17486445707976427248).is_empty());
}

/// s1 crosses 80 % and 90 % only 11.5 ms apart, and `CorrelatedCrash
/// [0,2]` at 1153.9 ms kills both backups. It used to drain and exit at
/// 1152.4 ms, before its successor (spawned at 1136.3 ms) had started;
/// now it stays, warms the successor when it joins, and only then dies
/// of exhaustion (1170.5 ms).
#[test]
fn base_seed_777777_mead_primary_stays_until_its_successor_is_warm() {
    let cell = "paper/mead_failover/zoo";
    assert!(violations_of(777777, cell, 5904551164170999097).is_empty());
}

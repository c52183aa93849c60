//! Characterization of ROADMAP item 1's open hole: four generated plans,
//! all under `needs_addressing`, that violate the chaos invariants today.
//!
//! The committed `sweep-full.toml` (`base_seed = 2004`) passes 508/508;
//! these four turn up when only `base_seed` changes (found while the
//! performance ledger was choosing seeds — `perfledger/README.md`, "Why
//! `sweep` is seedless"). Three lose or duplicate counter state across a
//! fail-over (the exactly-once invariant), one exhausts the client's
//! retry budget.
//!
//! Each test asserts the **exact** violation list the plan produces now,
//! so the hole is under CI instead of beside it. This is not the desired
//! behaviour: the fix for item 1 (in `mead`/`orb`, not in the invariants)
//! must flip every `expected` list here to empty — or, for a plan shown
//! to be legitimately unrecoverable, teach `chaos_plan_space_for` not to
//! generate it, at which point the plan seed is no longer found and the
//! row is deleted with that explanation.

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

#[test]
fn base_seed_17842_loses_state_at_increment_41() {
    assert_eq!(
        violations_of(17842, "paper/needs_addressing/zoo", 11855738815923485640),
        [
            "increment 41 acknowledged value 1 (lost or duplicated state)",
            "1 operation-id gap(s) observed at replicas",
        ]
    );
}

#[test]
fn base_seed_25761_loses_state_at_increment_119() {
    assert_eq!(
        violations_of(25761, "paper/needs_addressing/zoo", 6758631626910312429),
        [
            "increment 119 acknowledged value 1 (lost or duplicated state)",
            "1 operation-id gap(s) observed at replicas",
        ]
    );
}

#[test]
fn base_seed_49518_loses_state_at_increment_116() {
    assert_eq!(
        violations_of(49518, "paper/needs_addressing/zoo", 748409730216358911),
        [
            "increment 116 acknowledged value 1 (lost or duplicated state)",
            "1 operation-id gap(s) observed at replicas",
        ]
    );
}

#[test]
fn base_seed_33680_exhausts_the_retry_budget() {
    assert_eq!(
        violations_of(33680, "wide/needs_addressing/classic", 9585200432423754835),
        ["client exhausted its retry budget (typed give-up)"]
    );
}

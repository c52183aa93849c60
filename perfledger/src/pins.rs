//! Known-good results at the reference seed.
//!
//! `tests/pins.rs` asserts them. The ledger itself only *reports*
//! whether they hold, in the full report: a deliberate re-pin (ROADMAP
//! item 2 changes kernel event counts on purpose) must still be
//! measurable with this benchmark unchanged.

use crate::run::Report;
use crate::workloads::{Size, REFERENCE_SEED};

/// The 13 `paper` digests, as pinned in
/// `crates/experiments/tests/digest_pins.rs`.
pub const PAPER_DIGESTS: [(&str, u64); 13] = [
    ("table1/Reactive_Without_Cache", 0x47800b489ed93fe3),
    ("table1/Reactive_With_Cache", 0x1ad5656549033ee1),
    ("table1/NEEDS_ADDRESSING_Mode", 0x52d127518fab14b7),
    ("table1/LOCATION_FORWARD", 0x820130c21c46a4dd),
    ("table1/MEAD_Message", 0x8e5e0417fcd8c135),
    ("fig5/LOCATION_FORWARD@20", 0x9da9f25d7991f221),
    ("fig5/LOCATION_FORWARD@40", 0xfd7ce9dc9761b071),
    ("fig5/LOCATION_FORWARD@60", 0xcc76a92c66f2c2f9),
    ("fig5/LOCATION_FORWARD@80", 0xe8d8c44ccf2b651f),
    ("fig5/MEAD_Message@20", 0xfe86a26a4f19e82b),
    ("fig5/MEAD_Message@40", 0x838e3f85fdc41021),
    ("fig5/MEAD_Message@60", 0xbe5b1b333e4744fa),
    ("fig5/MEAD_Message@80", 0xfbd454d763cad9b9),
];

/// Kernel events of one `fleet-1k` pass (`BENCH_harness.json`).
pub const FLEET_1K_EVENTS: u64 = 5_327_220;
/// Runs and distinct outcomes of exhausting the `pair` fixture.
pub const EXPLORE_RUNS: u64 = 318;
/// See [`EXPLORE_RUNS`].
pub const EXPLORE_OUTCOMES: f64 = 8.0;
/// Plans in `scenarios/sweep-full.toml`, all of which hold every
/// invariant.
pub const SWEEP_PLANS: u64 = 508;

/// The pins that apply to `report`, each with whether it holds. Empty
/// away from the reference seed, at check size, or for a workload with
/// nothing pinned.
pub fn status(report: &Report) -> Vec<(&'static str, bool)> {
    if report.seed != REFERENCE_SEED || report.size != Size::Full {
        return Vec::new();
    }
    let pass = &report.pass;
    let clean = report.failed == 0;
    match report.workload.as_str() {
        "paper" => vec![(
            "13 digests equal crates/experiments/tests/digest_pins.rs",
            report
                .digests
                .iter()
                .map(|(label, digest)| (label.as_str(), *digest))
                .eq(PAPER_DIGESTS),
        )],
        "fleet-1k" => vec![("5327220 kernel events", pass.events == FLEET_1K_EVENTS)],
        "explore" => vec![(
            "318 runs, 8 distinct outcomes, exhausted, none violating",
            pass.ops == EXPLORE_RUNS
                && pass
                    .counts
                    .contains(&("explore.distinct_outcomes", EXPLORE_OUTCOMES))
                && clean,
        )],
        "sweep" => vec![(
            "508 of 508 plans hold every invariant",
            pass.ops == SWEEP_PLANS && clean,
        )],
        _ => Vec::new(),
    }
}

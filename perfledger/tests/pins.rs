//! Correctness pins at the reference seed and full size: the ledger's
//! inputs are the ones the repository's own pins were taken on.
//!
//! The ledger only reports these (a deliberate re-pin must stay
//! measurable); this test is where they fail.

use std::path::Path;

use perfledger::run::{run, RunArgs};
use perfledger::workloads::{Size, REFERENCE_SEED};

fn pins_hold(workload: &str) {
    let root = perfledger::repo_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("inside the repository");
    let args = RunArgs {
        workload: workload.to_string(),
        seed: REFERENCE_SEED,
        seconds: 0.0,
        traced: false,
        size: Size::Full,
    };
    let report = run(&args, &root).expect("the workload runs");
    assert!(report.correct, "{workload}: {:?}", report.problems);
    let pins = perfledger::pins::status(&report);
    assert!(!pins.is_empty(), "{workload} has a pin");
    for (pin, holds) in pins {
        assert!(holds, "{workload}: {pin}");
    }
}

#[test]
fn paper_digests() {
    pins_hold("paper");
}

#[test]
fn fleet_1k_events() {
    pins_hold("fleet-1k");
}

#[test]
fn explore_exhausts_pair() {
    pins_hold("explore");
}

#[test]
fn sweep_is_clean() {
    pins_hold("sweep");
}

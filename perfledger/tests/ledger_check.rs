//! The benchmark checking itself: `ledger --check` as a test.

use std::path::Path;

fn root() -> std::path::PathBuf {
    perfledger::repo_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the repository")
}

#[test]
fn ledger_check_passes() {
    let errors = perfledger::check::check(&root());
    assert!(
        errors.is_empty(),
        "ledger --check failed:\n{}",
        errors.join("\n")
    );
}

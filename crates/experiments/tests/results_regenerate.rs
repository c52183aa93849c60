//! Every committed file under `results/` regenerates byte for byte.
//!
//! Runs the two commands that write `results/`, `paper` and `adaptive`,
//! at their default invocation counts on one worker thread, and compares
//! every file each would write with the committed copy; together they
//! must write every committed file. The digest pins fix what each
//! scenario computes; this fixes which runs each file is rendered from
//! and how, so a renderer that picks the wrong run fails here even when
//! every pin holds.

use std::path::Path;

use experiments::{adaptive, paper};

#[test]
fn paper_and_adaptive_regenerate_every_committed_result() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files = [
        paper::paper_report(paper::DEFAULT_INVOCATIONS, 1),
        adaptive::adaptive_report(adaptive::DEFAULT_INVOCATIONS, 1),
    ]
    .into_iter()
    .flat_map(|report| report.files);
    let mut written = Vec::new();
    let mut drifted = Vec::new();
    for (path, body) in files {
        let committed = std::fs::read_to_string(root.join(&path));
        if committed.as_deref().ok() != Some(body.as_str()) {
            drifted.push(path.clone());
        }
        written.push(path);
    }
    assert!(
        drifted.is_empty(),
        "regenerated results differ from the committed files:\n{}",
        drifted.join("\n")
    );
    let mut committed: Vec<String> = std::fs::read_dir(root.join("results"))
        .expect("results/")
        .map(|e| {
            format!(
                "results/{}",
                e.expect("entry").file_name().to_string_lossy()
            )
        })
        .collect();
    committed.sort();
    written.sort();
    assert_eq!(written, committed, "a committed file no command writes");
}

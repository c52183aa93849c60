//! Every committed file under `results/` regenerates byte for byte.
//!
//! Runs each `EXPERIMENTS` row at its default invocation count on one
//! worker thread and compares its stdout text with `results/<name>.txt`
//! (`results/<name>_preview.txt` for the RTT figures) and every file it
//! would write with the committed copy. The digest pins fix what each
//! scenario computes; this fixes which scenarios each command runs and
//! how it renders them, so a command that picks the wrong cell fails
//! here even when every pin holds.

use std::path::Path;

use experiments::EXPERIMENTS;

fn committed(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_experiment_regenerates_its_committed_results() {
    let mut drifted = Vec::new();
    for exp in &EXPERIMENTS {
        let report = (exp.run)(exp.default_invocations, 1);
        let text = match exp.name {
            "fig3" | "fig4" => format!("results/{}_preview.txt", exp.name),
            name => format!("results/{name}.txt"),
        };
        for (path, body) in report.files.into_iter().chain([(text, report.text)]) {
            if committed(&path) != body {
                drifted.push(format!("{}: {path}", exp.name));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "regenerated results differ from the committed files:\n{}",
        drifted.join("\n")
    );
}

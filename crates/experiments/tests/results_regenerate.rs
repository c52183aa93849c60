//! Every committed file under `results/` regenerates byte for byte.
//!
//! Runs each `EXPERIMENTS` row at its default invocation count on one
//! worker thread and compares its stdout text with `results/<name>.txt`
//! (`results/<name>_preview.txt` for the RTT figures; `breakdown` commits
//! no text) and every file it would write with the committed copy. The
//! digest pins fix what each scenario computes; this fixes which
//! scenarios each command runs and how it renders them, so a command
//! that picks the wrong cell fails here even when every pin holds.

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
        let text_file = match exp.name {
            "breakdown" => None,
            "fig3" | "fig4" => Some(format!("results/{}_preview.txt", exp.name)),
            name => Some(format!("results/{name}.txt")),
        };
        let mut expected: Vec<(String, &str)> = report
            .files
            .iter()
            .map(|(path, body)| (path.clone(), body.as_str()))
            .collect();
        expected.extend(text_file.map(|path| (path, report.text.as_str())));
        for (path, body) in expected {
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

//! SARIF 2.1.0 output for code-scanning upload.
//!
//! One run, driver `detlint`, static rule metadata for R1–R12, one result
//! per unsuppressed finding. Hand-rolled (the build is offline and no
//! JSON crate is vendored) against the subset of the SARIF 2.1.0 schema
//! GitHub code scanning consumes: `tool.driver.rules[]`,
//! `results[].ruleId/level/message/locations[].physicalLocation`.

use std::fmt::Write as _;

use crate::{json_escape, Finding, Report};

/// Rule ids and short descriptions, in metadata order.
pub const RULES: &[(&str, &str)] = &[
    (
        "R1",
        "Iteration over hash-ordered containers in deterministic code",
    ),
    (
        "R2",
        "Ambient nondeterminism (wall clock, OS RNG, hash seeding)",
    ),
    ("R3", "Panic path in a decoder or kernel hot path"),
    ("R4", "Non-exhaustive match over a wire-protocol enum"),
    (
        "R5",
        "Nondeterministic source reaches a digest/trace sink through a call chain",
    ),
    (
        "R6",
        "Truncating `as` cast or wrapping/unchecked arithmetic in a codec",
    ),
    (
        "R7",
        "Unbounded loop in kernel dispatch or a client retry path",
    ),
    (
        "R8",
        "Protocol-conformance violation (dead/unconsumed event variant, codec asymmetry)",
    ),
    (
        "R9",
        "Protocol-FSM spec conformance (missing handler, undeclared transition, unreachable state, dead message)",
    ),
    (
        "R10",
        "Interval-dataflow bounds proof failure (unproven index/arithmetic or silent narrowing in a codec)",
    ),
    (
        "R11",
        "Handler effect footprint exceeds the spec's declared reads/writes for its transition",
    ),
    (
        "R12",
        "Retry-exposed handler writes a non-idempotent cell with no dedup-table guard",
    ),
];

const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Renders `report` as a SARIF 2.1.0 log.
pub fn render(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"detlint\",\n");
    let _ = writeln!(out, "          \"version\": \"{VERSION}\",");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        let _ = writeln!(
            out,
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}",
            id,
            json_escape(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        );
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.findings.iter().enumerate() {
        push_result(&mut out, f, i + 1 < report.findings.len());
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn push_result(out: &mut String, f: &Finding, comma: bool) {
    let _ = writeln!(
        out,
        "        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
         \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
         \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{}",
        f.rule,
        json_escape(&f.message),
        json_escape(&f.path),
        f.line,
        f.col,
        if comma { "," } else { "" }
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rules_and_results() {
        let report = Report {
            findings: vec![Finding {
                rule: "R6",
                path: "crates/giop/src/cdr.rs".to_string(),
                line: 120,
                col: 9,
                message: "truncating `as u8` cast".to_string(),
            }],
            ..Report::default()
        };
        let sarif = render(&report);
        assert!(sarif.contains("\"version\": \"2.1.0\""));
        assert!(sarif.contains("\"name\": \"detlint\""));
        for (id, _) in RULES {
            assert!(sarif.contains(&format!("\"id\": \"{id}\"")), "{id} missing");
        }
        assert!(sarif.contains("\"ruleId\": \"R6\", \"level\": \"error\""));
        assert!(sarif.contains("\"startLine\": 120"));
        // Exactly one run.
        assert_eq!(sarif.matches("\"tool\"").count(), 1);
    }

    #[test]
    fn empty_report_has_empty_results() {
        let sarif = render(&Report::default());
        assert!(sarif.contains("\"results\": [\n      ]"));
    }
}

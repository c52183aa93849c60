//! Fixture tests for the determinism lint engine.
//!
//! Each `tests/fixtures/r*.rs` file annotates every line that must fire
//! with a trailing `//~ <RULE>` marker. The tests lint the fixture and
//! assert the *exact* set of (rule, line) pairs — a missing finding, an
//! extra finding, or a finding under the wrong rule all fail — plus the
//! allowlist's justification-required suppression semantics end to end.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{
    lint_files, lint_source, AllowList, CallGraph, ConformanceConfig, Contract, FileAst, RuleSet,
};

/// Protocol enums the R4 fixture matches over.
fn protocol_enums() -> Vec<String> {
    vec!["WireMsg".to_string()]
}

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Parses `//~ RULE` markers into the expected (rule, line) set.
fn expected_markers(src: &str) -> BTreeSet<(String, usize)> {
    src.lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            let (_, marker) = line.split_once("//~")?;
            Some((marker.trim().to_string(), idx + 1))
        })
        .collect()
}

fn findings_as_set(name: &str, src: &str) -> BTreeSet<(String, usize)> {
    let findings = lint_source(
        &format!("tests/fixtures/{name}.rs"),
        src,
        RuleSet::all(),
        &protocol_enums(),
    )
    .unwrap_or_else(|e| panic!("fixture {name} failed to lex: {e:?}"));
    for f in &findings {
        assert!(f.line >= 1, "finding with zero line: {f}");
        assert!(f.col >= 1, "finding with zero column: {f}");
        assert!(
            f.path.ends_with(&format!("{name}.rs")),
            "finding carries wrong path: {f}"
        );
    }
    findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line as usize))
        .collect()
}

fn assert_fixture_matches(name: &str) {
    let src = fixture(name);
    let expected = expected_markers(&src);
    assert!(
        !expected.is_empty(),
        "fixture {name} has no //~ markers; it would pass vacuously"
    );
    let actual = findings_as_set(name, &src);
    assert_eq!(
        actual, expected,
        "fixture {name}: findings (left) diverge from //~ markers (right)"
    );
}

#[test]
fn r1_hash_iteration_fixture() {
    assert_fixture_matches("r1");
}

#[test]
fn r2_ambient_nondeterminism_fixture() {
    assert_fixture_matches("r2");
}

#[test]
fn r3_panic_paths_fixture() {
    assert_fixture_matches("r3");
}

#[test]
fn r4_protocol_match_fixture() {
    assert_fixture_matches("r4");
}

#[test]
fn r6_codec_arithmetic_fixture() {
    assert_fixture_matches("r6");
}

#[test]
fn r7_loop_bound_fixture() {
    assert_fixture_matches("r7");
}

/// Loads every file of a multi-file fixture directory as
/// (workspace-relative path, source) pairs, sorted by path.
fn fixture_dir(name: &str) -> Vec<(String, String)> {
    let dir = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {dir}: {e}")) {
        let path = entry.expect("dir entry").path();
        let file = path.file_name().expect("file name").to_string_lossy();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        sources.push((format!("tests/fixtures/{name}/{file}"), src));
    }
    sources.sort();
    sources
}

/// `(marker, path, line)` triples for every `//~` marker in `sources`.
fn dir_markers(sources: &[(String, String)]) -> BTreeSet<(String, String, usize)> {
    sources
        .iter()
        .flat_map(|(path, src)| {
            src.lines().enumerate().filter_map(move |(idx, line)| {
                let (_, marker) = line.split_once("//~")?;
                Some((marker.trim().to_string(), path.clone(), idx + 1))
            })
        })
        .collect()
}

fn findings_as_triples(
    findings: &[lint::Finding],
    marker: &str,
) -> BTreeSet<(String, String, usize)> {
    findings
        .iter()
        .map(|f| (marker.to_string(), f.path.clone(), f.line as usize))
        .collect()
}

/// A contract that runs only the R5 taint pass over the fixture tree.
fn r5_contract() -> Contract {
    Contract {
        r1_scopes: vec![],
        r2_scopes: vec![],
        r3_scopes: vec![],
        r4_scopes: vec![],
        r5_scopes: vec!["tests/fixtures/r5/".to_string()],
        r5_sinks: vec!["digest".to_string()],
        r6_scopes: vec![],
        r7_scopes: vec![],
        protocol_enums: vec![],
        conformance: None,
        fsm: None,
        dataflow: None,
        effects: None,
    }
}

#[test]
fn r5_taint_chains_fixture() {
    // Without the allowlist every sink that reaches `stamp` is flagged:
    // the 1-hop chain, the 2-hop chain, and both chains in the
    // suppression fixture.
    let sources = fixture_dir("r5");
    let report = lint_files(&sources, &r5_contract(), &AllowList::empty()).expect("lints");
    let expected: BTreeSet<(String, String, usize)> = dir_markers(&sources)
        .into_iter()
        .map(|(m, p, l)| {
            assert!(m.starts_with("R5"), "non-R5 marker {m} in r5 fixture");
            ("R5".to_string(), p, l)
        })
        .collect();
    assert_eq!(findings_as_triples(&report.findings, "R5"), expected);
    assert!(report.suppressed.is_empty());

    let two_hop = report
        .findings
        .iter()
        .find(|f| f.path.ends_with("two_hop.rs"))
        .expect("two-hop chain finding");
    // The message spells out the whole chain, hop by hop.
    assert!(
        two_hop.message.contains("session_tag") && two_hop.message.contains("stamp"),
        "chain not spelled out: {}",
        two_hop.message
    );
}

#[test]
fn r5_suppressed_edge_silences_one_chain_only() {
    let sources = fixture_dir("r5");
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R5"
path = "tests/fixtures/r5/suppressed.rs"
pattern = "audited ambient flow"
justification = "fixture: this one edge was audited"
"#,
    )
    .expect("valid allowlist");
    let report = lint_files(&sources, &r5_contract(), &allow).expect("lints");
    let expected: BTreeSet<(String, String, usize)> = dir_markers(&sources)
        .into_iter()
        .filter(|(m, _, _)| m == "R5")
        .collect();
    assert_eq!(findings_as_triples(&report.findings, "R5"), expected);
    // The blessed chain shows up as suppressed, not dropped.
    let suppressed_expected: BTreeSet<(String, String, usize)> = dir_markers(&sources)
        .into_iter()
        .filter(|(m, _, _)| m == "R5(suppressed)")
        .map(|(_, p, l)| ("R5".to_string(), p, l))
        .collect();
    assert_eq!(
        findings_as_triples(&report.suppressed, "R5"),
        suppressed_expected
    );
    // The entry suppressed a real edge, so it is not stale.
    assert!(report.stale_allows.is_empty(), "{:?}", report.stale_allows);
}

#[test]
fn r8_conformance_fixture() {
    let sources = fixture_dir("r8");
    let contract = Contract {
        r1_scopes: vec![],
        r2_scopes: vec![],
        r3_scopes: vec![],
        r4_scopes: vec![],
        r5_scopes: vec![],
        r5_sinks: vec![],
        r6_scopes: vec![],
        r7_scopes: vec![],
        protocol_enums: vec![],
        conformance: Some(ConformanceConfig {
            event_enums: vec!["Ev".to_string()],
            consumer_files: vec!["tests/fixtures/r8/breakdown.rs".to_string()],
            serializer_files: vec![],
            report_only: vec!["ReportOnly".to_string()],
            codec_enums: vec!["WireZ".to_string()],
            codec_structs: vec![],
            ..ConformanceConfig::default()
        }),
        fsm: None,
        dataflow: None,
        effects: None,
    };
    let report = lint_files(&sources, &contract, &AllowList::empty()).expect("lints");
    assert_eq!(
        findings_as_triples(&report.findings, "R8"),
        dir_markers(&sources)
    );
}

#[test]
fn stale_allow_entry_is_reported_as_config_error() {
    let sources = fixture_dir("r5");
    // Matches no finding and no edge: the path exists but the pattern
    // never occurs.
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R5"
path = "tests/fixtures/r5/suppressed.rs"
pattern = "no such call site"
justification = "stale on purpose"
"#,
    )
    .expect("valid allowlist");
    let report = lint_files(&sources, &r5_contract(), &allow).expect("lints");
    assert_eq!(report.stale_allows.len(), 1, "{:?}", report.stale_allows);
    assert!(report.stale_allows[0]
        .starts_with("2: stale suppression (R5 on tests/fixtures/r5/suppressed.rs)"));
}

/// `taint::check` ignores a sink name that matches no function (a
/// partial tree legitimately lacks most sinks), so a renamed or deleted
/// digest fn would leave a dead entry guarding nothing. Over the whole
/// workspace every default sink must resolve, in the R5-scoped call graph
/// `lint_files` analyses.
#[test]
fn every_default_r5_sink_resolves_in_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let contract = Contract::default();
    let sources = lint::collect_sources(&root).expect("workspace sources");
    let files: Vec<FileAst> = sources
        .iter()
        .filter(|(path, _)| contract.in_r5_scope(path))
        .map(|(path, src)| {
            FileAst::parse(path, src).unwrap_or_else(|e| panic!("lexing {path}: {e}"))
        })
        .collect();
    let graph = CallGraph::build(&files);
    for sink in &contract.r5_sinks {
        assert!(
            graph.nodes.iter().any(|n| lint::taint::is_sink(n, sink)),
            "R5 sink `{sink}` names no function in the workspace call graph"
        );
    }
}

/// The lint engine and its parser must pass their own determinism rules.
#[test]
fn self_lint_is_clean() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut sources = Vec::new();
    for dir in ["crates/lint/src", "vendor/synlite/src"] {
        let abs = repo_root.join(dir);
        for entry in std::fs::read_dir(&abs).unwrap_or_else(|e| panic!("read {dir}: {e}")) {
            let path = entry.expect("dir entry").path();
            if path.extension().map(|e| e == "rs").unwrap_or(false) {
                let file = path
                    .file_name()
                    .expect("file name")
                    .to_string_lossy()
                    .to_string();
                let src = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("read {dir}/{file}: {e}"));
                sources.push((format!("{dir}/{file}"), src));
            }
        }
    }
    sources.sort();
    assert!(sources.len() >= 8, "missing sources: {sources:?}");
    let report = lint_files(&sources, &Contract::default(), &AllowList::empty()).expect("lints");
    assert!(
        report.findings.is_empty(),
        "the linter fails its own rules:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn justified_allow_entry_suppresses_matching_findings() {
    let src = fixture("r2");
    let findings = lint_source(
        "tests/fixtures/r2.rs",
        &src,
        RuleSet::all(),
        &protocol_enums(),
    )
    .expect("fixture lexes");
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R2"
path = "tests/fixtures/r2.rs"
pattern = "Instant::now"
justification = "fixture exercising suppression"
"#,
    )
    .expect("valid allowlist");

    let lines: Vec<&str> = src.lines().collect();
    let (suppressed, kept): (Vec<_>, Vec<_>) = findings.iter().partition(|f| {
        let text = lines.get(f.line as usize - 1).copied().unwrap_or("");
        allow.suppresses(f, text)
    });
    // Exactly the one Instant::now site is silenced; every other R2
    // finding survives.
    assert_eq!(suppressed.len(), 1, "suppressed: {suppressed:?}");
    assert!(suppressed[0].message.contains("Instant::now"));
    assert!(kept.iter().all(|f| f.rule == "R2"));
    assert_eq!(kept.len(), findings.len() - 1);
}

#[test]
fn allow_entry_without_justification_is_rejected() {
    let err = AllowList::parse(
        r#"
[[allow]]
rule = "R2"
path = "tests/fixtures/r2.rs"
justification = "   "
"#,
    )
    .expect_err("blank justification must not parse");
    assert!(
        err.msg.contains("justification"),
        "error should name the missing justification: {err:?}"
    );
}

#[test]
fn allow_entry_for_other_rule_does_not_suppress() {
    let src = fixture("r3");
    let findings = lint_source(
        "tests/fixtures/r3.rs",
        &src,
        RuleSet::all(),
        &protocol_enums(),
    )
    .expect("fixture lexes");
    // An R2 entry matching the file must not silence R3 findings.
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R2"
path = "tests/fixtures/r3.rs"
justification = "wrong rule on purpose"
"#,
    )
    .expect("valid allowlist");
    let lines: Vec<&str> = src.lines().collect();
    assert!(findings.iter().all(|f| {
        let text = lines.get(f.line as usize - 1).copied().unwrap_or("");
        !allow.suppresses(f, text)
    }));
}

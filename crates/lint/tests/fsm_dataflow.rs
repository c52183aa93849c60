//! Integration fixtures for the R9 protocol-FSM conformance pass and
//! the R10 interval-dataflow pass (DESIGN §9).
//!
//! The R9 fixture pins all four diff categories — missing handler,
//! undeclared transition, unreachable state, dead message variant —
//! with exact (rule, path, line) assertions plus the evidence-chain
//! text. The R10 fixture uses `//~ R10` line markers like the other
//! rule fixtures. A final test runs both passes over the real
//! workspace with the real spec and asserts they are clean and
//! non-vacuous.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{dataflow, fsm, lint_files, AllowList, Contract};

/// A contract with every pass disabled; tests enable exactly one.
fn empty_contract() -> Contract {
    Contract {
        r1_scopes: vec![],
        r2_scopes: vec![],
        r3_scopes: vec![],
        r4_scopes: vec![],
        r5_scopes: vec![],
        r5_sinks: vec![],
        r6_scopes: vec![],
        r7_scopes: vec![],
        protocol_enums: vec![],
        conformance: None,
        fsm: None,
        dataflow: None,
        effects: None,
    }
}

/// Loads the `.rs` files of a fixture directory as (workspace-relative
/// path, source) pairs, sorted by path.
fn fixture_sources(name: &str) -> Vec<(String, String)> {
    let dir = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for entry in std::fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {dir}: {e}")) {
        let path = entry.expect("dir entry").path();
        if path.extension().map(|e| e == "rs") != Some(true) {
            continue;
        }
        let file = path
            .file_name()
            .expect("file name")
            .to_string_lossy()
            .to_string();
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        sources.push((format!("tests/fixtures/{name}/{file}"), src));
    }
    sources.sort();
    sources
}

/// 1-based line of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> u32 {
    text.lines()
        .position(|l| l.contains(needle))
        .map(|i| (i + 1) as u32)
        .unwrap_or_else(|| panic!("needle {needle:?} not found"))
}

fn r9_spec() -> String {
    let path = format!("{}/tests/fixtures/r9/spec.toml", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn r9_contract(spec_src: String) -> Contract {
    Contract {
        fsm: Some(fsm::FsmConfig {
            spec_path: "tests/fixtures/r9/spec.toml".to_string(),
            spec_src: Some(spec_src),
            enums: vec!["ToyWire".to_string()],
            codec_structs: vec![],
            reject_markers: vec!["protocol_error".to_string()],
        }),
        ..empty_contract()
    }
}

#[test]
fn r9_fixture_reports_all_four_diff_categories() {
    let sources = fixture_sources("r9");
    let spec = r9_spec();
    let report =
        lint_files(&sources, &r9_contract(spec.clone()), &AllowList::empty()).expect("lints");
    assert!(report.suppressed.is_empty());

    let by_path = |p: &str| -> String { format!("tests/fixtures/r9/{p}") };
    let client = sources
        .iter()
        .find(|(p, _)| p.ends_with("client.rs"))
        .unwrap();
    let server = sources
        .iter()
        .find(|(p, _)| p.ends_with("server.rs"))
        .unwrap();
    let wire = sources
        .iter()
        .find(|(p, _)| p.ends_with("wire.rs"))
        .unwrap();

    // Each [[transition]]/[[state]] header sits a fixed number of lines
    // above its unique field (see the fixture's leading comment).
    let missing_line = line_of(&spec, "recv = \"ToyWire::Bye\"") - 4;
    let lost_line = line_of(&spec, "name = \"Lost\"") - 1;
    let expected: BTreeSet<(&str, String, u32)> = [
        ("R9", by_path("spec.toml"), missing_line),
        ("R9", by_path("spec.toml"), lost_line),
        (
            "R9",
            client.0.clone(),
            line_of(&client.1, "io.send(ToyWire::Bye)"),
        ),
        ("R9", wire.0.clone(), line_of(&wire.1, "Orphan,")),
    ]
    .into();
    let actual: BTreeSet<(&str, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.clone(), f.line))
        .collect();
    assert_eq!(actual, expected, "findings: {:#?}", report.findings);

    let msg_of = |path: &str, line: u32| {
        report
            .findings
            .iter()
            .find(|f| f.path == path && f.line == line)
            .map(|f| f.message.as_str())
            .expect("finding present")
    };

    // Missing handler: names the transition and the rejecting arm.
    let missing = msg_of(&by_path("spec.toml"), missing_line);
    assert!(missing.contains("missing handler"), "{missing}");
    assert!(
        missing.contains("`server` receives `ToyWire::Bye`"),
        "{missing}"
    );
    let bye_arm = line_of(&server.1, "ToyWire::Bye =>");
    assert!(
        missing.contains(&format!(
            "treated as a protocol error at {}:{bye_arm}",
            server.0
        )),
        "{missing}"
    );

    // Undeclared transition: hop-by-hop evidence chain down to the send.
    let undeclared = msg_of(&client.0, line_of(&client.1, "io.send(ToyWire::Bye)"));
    assert!(undeclared.contains("undeclared transition"), "{undeclared}");
    assert!(
        undeclared.contains("`client` sends `ToyWire::Bye`"),
        "{undeclared}"
    );
    assert!(
        undeclared.contains("reached via `run`") && undeclared.contains("-> `shutdown`"),
        "no evidence chain: {undeclared}"
    );

    // Unreachable state and dead variant.
    let lost = msg_of(&by_path("spec.toml"), lost_line);
    assert!(lost.contains("unreachable state: `Lost`"), "{lost}");
    let dead = msg_of(&wire.0, line_of(&wire.1, "Orphan,"));
    assert!(
        dead.contains("dead message variant: `ToyWire::Orphan`"),
        "{dead}"
    );
}

#[test]
fn r9_malformed_spec_is_an_engine_error() {
    let sources = fixture_sources("r9");
    let bad = r9_spec().replace("to = \"Busy\"", "to = \"Nowhere\"");
    let err = lint_files(&sources, &r9_contract(bad), &AllowList::empty())
        .expect_err("undeclared state must not lint cleanly");
    let msg = err.to_string();
    assert!(
        msg.contains("tests/fixtures/r9/spec.toml") && msg.contains("Nowhere"),
        "{msg}"
    );
}

#[test]
fn r10_fixture_matches_markers() {
    let sources = fixture_sources("r10");
    let contract = Contract {
        dataflow: Some(dataflow::DataflowConfig {
            scopes: vec!["tests/fixtures/r10".to_string()],
            exact_len_calls: vec!["take".to_string()],
        }),
        ..empty_contract()
    };
    let report = lint_files(&sources, &contract, &AllowList::empty()).expect("lints");
    let expected: BTreeSet<(String, u32)> = sources
        .iter()
        .flat_map(|(path, src)| {
            src.lines().enumerate().filter_map(move |(idx, line)| {
                let (_, marker) = line.split_once("//~")?;
                assert_eq!(marker.trim(), "R10", "non-R10 marker in r10 fixture");
                Some((path.clone(), (idx + 1) as u32))
            })
        })
        .collect();
    assert!(!expected.is_empty(), "fixture has no //~ markers");
    let actual: BTreeSet<(String, u32)> = report
        .findings
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "R10", "{f}");
            (f.path.clone(), f.line)
        })
        .collect();
    assert_eq!(actual, expected, "findings: {:#?}", report.findings);
}

#[test]
fn r10_findings_are_suppressible_and_stale_entries_reported() {
    let sources = fixture_sources("r10");
    let contract = Contract {
        dataflow: Some(dataflow::DataflowConfig {
            scopes: vec!["tests/fixtures/r10".to_string()],
            exact_len_calls: vec!["take".to_string()],
        }),
        ..empty_contract()
    };
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R10"
path = "tests/fixtures/r10/codec.rs"
pattern = "x as u8"
justification = "fixture: audited narrowing"
"#,
    )
    .expect("valid allowlist");
    let report = lint_files(&sources, &contract, &allow).expect("lints");
    assert!(report.stale_allows.is_empty(), "{:?}", report.stale_allows);
    assert_eq!(report.suppressed.len(), 1, "{:#?}", report.suppressed);
    assert!(report.suppressed[0].message.contains("narrowing"));
    assert!(report
        .findings
        .iter()
        .all(|f| !f.message.contains("x as u8")));
}

/// The real workspace, real spec, real allowlist: both new passes must
/// be clean — and non-vacuous (the extractor recovers actual protocol
/// sites from the groupcomm/mead crates).
#[test]
fn workspace_r9_r10_are_clean_and_non_vacuous() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow_text =
        std::fs::read_to_string(root.join("lint-allow.toml")).expect("workspace allowlist");
    let allow = AllowList::parse(&allow_text).expect("valid workspace allowlist");
    let report = lint::lint_workspace(&root, &Contract::default(), &allow).expect("lints");
    let new_rules: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == "R9" || f.rule == "R10")
        .collect();
    assert!(
        new_rules.is_empty(),
        "R9/R10 findings in the real workspace:\n{}",
        new_rules
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    let sources = lint::collect_sources(&root).expect("workspace sources");
    let contract = lint::load_spec(&root, &Contract::default()).expect("spec loads");
    let ws = lint::Workspace::parse(&sources).expect("workspace parses");
    let json = lint::fsm_report(&ws, &contract).expect("fsm report renders");
    assert!(json.contains("\"schema\": \"detlint-fsm/1\""), "{json}");
    // The extractor really recovered transition sites, not an empty map.
    assert!(json.contains("GcsWire::"), "no GcsWire sites extracted");
    assert!(json.contains("GroupMsg::"), "no GroupMsg sites extracted");
}

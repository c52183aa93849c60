//! Integration fixtures for the R11 effect-footprint pass and the R12
//! retry-idempotence pass (DESIGN §9).
//!
//! The fixture pins the two findings with exact (rule, path, line) and
//! message assertions — including the interprocedural case where the
//! undeclared write happens in a helper the handler calls — plus a
//! guarded handler that must stay clean, a suppressed-edge case, and
//! the malformed-effect-spec engine errors that surface as CLI exit 2.
//! A final test runs the pass over the real workspace with the real
//! spec and asserts it is clean and non-vacuous.

use std::collections::BTreeSet;
use std::path::Path;

use lint::{effects, fsm, lint_files, AllowList, Contract, Finding};

/// A contract with every pass disabled; tests enable exactly R9+R11/12
/// (the effect pass rides on the R9 extraction).
fn empty_contract() -> Contract {
    Contract {
        r1_scopes: vec![],
        r2_scopes: vec![],
        r3_scopes: vec![],
        r4_scopes: vec![],
        r5_scopes: vec![],
        r6_scopes: vec![],
        r7_scopes: vec![],
        r5_sinks: vec![],
        protocol_enums: vec![],
        conformance: None,
        fsm: None,
        dataflow: None,
        effects: None,
    }
}

fn fixture_sources() -> Vec<(String, String)> {
    let dir = format!("{}/tests/fixtures/r11", env!("CARGO_MANIFEST_DIR"));
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
        sources.push((format!("tests/fixtures/r11/{file}"), src));
    }
    sources.sort();
    sources
}

fn spec() -> String {
    let path = format!(
        "{}/tests/fixtures/r11/spec.toml",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn contract(spec_src: String) -> Contract {
    Contract {
        fsm: Some(fsm::FsmConfig {
            spec_path: "tests/fixtures/r11/spec.toml".to_string(),
            spec_src: Some(spec_src),
            enums: vec!["ToyWire".to_string()],
            codec_structs: vec![],
            reject_markers: vec!["protocol_error".to_string()],
        }),
        effects: Some(effects::EffectsConfig {
            retry_roots: vec!["Client::handle_event".to_string()],
            ..effects::EffectsConfig::default()
        }),
        ..empty_contract()
    }
}

/// 1-based line of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> u32 {
    text.lines()
        .position(|l| l.contains(needle))
        .map(|i| (i + 1) as u32)
        .unwrap_or_else(|| panic!("needle {needle:?} not found"))
}

#[test]
fn r11_r12_fixture_matches_exact_findings() {
    let sources = fixture_sources();
    let spec = spec();
    let report = lint_files(&sources, &contract(spec.clone()), &AllowList::empty()).expect("lints");
    assert!(report.suppressed.is_empty());

    let server = sources
        .iter()
        .find(|(p, _)| p.ends_with("server.rs"))
        .unwrap();
    let ping_line = line_of(&server.1, "ToyWire::Ping =>");
    let job_line = line_of(&server.1, "ToyWire::Job =>");

    let expected: BTreeSet<(&str, String, u32)> = [
        ("R11", server.0.clone(), ping_line),
        ("R12", server.0.clone(), job_line),
    ]
    .into();
    let actual: BTreeSet<(&str, String, u32)> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.path.clone(), f.line))
        .collect();
    assert_eq!(actual, expected, "findings: {:#?}", report.findings);

    let msg_of = |rule: &str| -> &str {
        report
            .findings
            .iter()
            .find(|f| f.rule == rule)
            .map(|f| f.message.as_str())
            .expect("finding present")
    };

    // R11: names handler, message, role, cell, and the spec line whose
    // declared footprint the helper's write escapes. The `stats` bump
    // lives in `audit`, so the finding proves interprocedural closure.
    let r11 = msg_of("R11");
    // The `recv` field sits 4 lines below its `[[transition]]` header.
    let ping_spec = line_of(&spec, "recv = \"ToyWire::Ping\"") - 4;
    assert!(
        r11.contains("handler `Server::on_control` for `ToyWire::Ping` (role server)"),
        "{r11}"
    );
    assert!(r11.contains("writes cell `stats`"), "{r11}");
    assert!(r11.contains(&format!("(spec line {ping_spec})")), "{r11}");

    // R12: names the retry root that re-sends the message and the
    // non-idempotent cell.
    let r12 = msg_of("R12");
    assert!(
        r12.contains("handler `Server::on_job` for retry-exposed `ToyWire::Job`"),
        "{r12}"
    );
    assert!(r12.contains("re-sent via `Client::handle_event`"), "{r12}");
    assert!(
        r12.contains("writes non-idempotent cell `jobs` with no dedup-table guard"),
        "{r12}"
    );

    // The guarded `on_ack` handler makes the same queue write behind a
    // dedup probe and must not appear anywhere.
    assert!(
        report
            .findings
            .iter()
            .all(|f| !f.message.contains("on_ack")),
        "guarded handler flagged: {:#?}",
        report.findings
    );
}

#[test]
fn r11_and_r12_findings_are_suppressible() {
    let sources = fixture_sources();
    let allow = AllowList::parse(
        r#"
[[allow]]
rule = "R11"
path = "tests/fixtures/r11/server.rs"
pattern = "ToyWire::Ping"
justification = "fixture: audited footprint escape"

[[allow]]
rule = "R12"
path = "tests/fixtures/r11/server.rs"
pattern = "ToyWire::Job"
justification = "fixture: audited duplicate delivery"
"#,
    )
    .expect("valid allowlist");
    let report = lint_files(&sources, &contract(spec()), &allow).expect("lints");
    assert!(report.stale_allows.is_empty(), "{:?}", report.stale_allows);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    let suppressed: BTreeSet<&str> = report.suppressed.iter().map(|f| f.rule).collect();
    assert_eq!(suppressed, ["R11", "R12"].into());
}

/// Each way an effect spec can be malformed is an engine error (CLI
/// exit 2), not a finding: misplaced clause, undeclared cell, unknown
/// cell kind, duplicate cell.
#[test]
fn malformed_effect_specs_are_engine_errors() {
    let sources = fixture_sources();
    let cases = [
        (
            spec().replace(
                "send = \"ToyWire::Job\"",
                "send = \"ToyWire::Job\"\nwrites = [\"jobs\"]",
            ),
            "effect clauses (`reads`/`writes`) are only valid on recv transitions",
        ),
        (
            spec().replace("writes = [\"peers\"]", "writes = [\"ghost\"]"),
            "transition references undeclared cell `ghost`",
        ),
        (
            spec().replace("kind = \"queue\"", "kind = \"bag\""),
            "cell `jobs` has unknown kind `bag`",
        ),
        (
            spec().replace("name = \"stats\"", "name = \"peers\""),
            "duplicate cell `peers`",
        ),
    ];
    for (bad_spec, want) in cases {
        let err = lint_files(&sources, &contract(bad_spec), &AllowList::empty())
            .expect_err("malformed spec must not lint cleanly");
        let msg = err.to_string();
        assert!(
            msg.contains("tests/fixtures/r11/spec.toml") && msg.contains(want),
            "want {want:?} in {msg}"
        );
    }
}

/// The real workspace, real spec, real allowlist: R11/R12 must be
/// clean — and non-vacuously so. Deleting one declared `reads` clause
/// from the live spec must reintroduce R11 findings against the same
/// tree, and the derived conflict report must carry the twin
/// data-readable independence entry the explorer consumes.
#[test]
fn workspace_r11_r12_are_clean_and_non_vacuous() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allow_text =
        std::fs::read_to_string(root.join("lint-allow.toml")).expect("workspace allowlist");
    let allow = AllowList::parse(&allow_text).expect("valid workspace allowlist");
    let report = lint::lint_workspace(&root, &Contract::default(), &allow).expect("lints");
    let effect_rules: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "R11" || f.rule == "R12")
        .collect();
    assert!(
        effect_rules.is_empty(),
        "R11/R12 findings in the real workspace:\n{}",
        effect_rules
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );

    let sources = lint::collect_sources(&root).expect("workspace sources");
    let full = lint::load_spec(&root, &Contract::default()).expect("spec loads");

    // Non-vacuity: strip the GCS client's declared read and the pass
    // must complain about exactly that cell.
    let fsm_cfg = full.fsm.clone().expect("R9 enabled");
    let stripped = fsm_cfg
        .spec_src
        .as_ref()
        .expect("spec text loaded")
        .replace("reads = [\"joined_groups\"]\n", "");
    let mut weakened = full.clone();
    weakened.fsm.as_mut().expect("fsm").spec_src = Some(stripped);
    let weak_report = lint_files(&sources, &weakened, &AllowList::empty()).expect("lints");
    assert!(
        weak_report
            .findings
            .iter()
            .any(|f| f.rule == "R11" && f.message.contains("reads cell `joined_groups`")),
        "stripping a declared read produced no R11 finding — the pass is vacuous"
    );

    // The conflict report derives from the same analysis and must emit
    // the twin wake-up entry (every role drain is full).
    let ws = lint::Workspace::parse(&sources).expect("workspace parses");
    let json = lint::conflict_report(&ws, &full).expect("conflict report renders");
    assert!(
        json.contains("\"schema\": \"conflict-relation/1\""),
        "{json}"
    );
    assert!(
        json.contains("same_touch_conn"),
        "twin entry withheld: {json}"
    );
}

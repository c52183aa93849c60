//! `mead-repro lint` driven as a process: the exit-status contract
//! (0 clean, 1 unsuppressed findings or an unwritable report, 2 a bad
//! flag or a configuration error — malformed or stale allowlist,
//! unreadable tree, missing or malformed protocol spec) and the message
//! each configuration error prints. Each test builds a throwaway
//! workspace under the target directory and lints it with `--root`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A minimal valid R9 spec: a machine with one state and no roles.
const MINIMAL_SPEC: &str =
    "[machine]\nname = \"t\"\ninitial = \"Idle\"\n\n[[state]]\nname = \"Idle\"\n";

/// Creates `<target tmp>/<name>` fresh and returns it.
fn workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-cli-{name}"));
    if root.exists() {
        std::fs::remove_dir_all(&root).expect("clear stale fixture root");
    }
    std::fs::create_dir_all(&root).expect("create fixture root");
    root
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(&path, text).expect("write fixture file");
}

/// A workspace with one clean source file and `spec` as its protocol spec.
fn workspace_with_spec(name: &str, spec: &str) -> PathBuf {
    let root = workspace(name);
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    write(&root, "specs/recovery-protocol.toml", spec);
    root
}

fn path_arg(path: &Path) -> String {
    path.to_str().expect("utf-8 path").to_string()
}

/// `mead-repro lint --root <root> <args>`.
fn lint(root: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mead-repro"))
        .args(["lint", "--root", &path_arg(root)])
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn mead-repro lint {args:?}: {e}"))
}

/// The exit status of `out`, after checking that a status 2 came with
/// an `error: …` line and no panic.
fn status(out: &Output) -> i32 {
    let code = out.status.code().expect("exited");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    if code == 2 {
        assert!(stderr.starts_with("error: "), "{stderr}");
    }
    code
}

/// Asserts `out` exited 2 with `message` on stderr.
fn assert_config_error(out: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(status(out), 2, "{stderr}");
    assert!(stderr.contains(message), "want `{message}` in: {stderr}");
}

#[test]
fn clean_workspace_exits_zero() {
    let root = workspace_with_spec("clean", MINIMAL_SPEC);
    assert_eq!(status(&lint(&root, &[])), 0);
    // --timings and --fsm-report ride along without changing the code.
    let report = root.join("fsm-report.json");
    let out = lint(&root, &["--timings", "--fsm-report", &path_arg(&report)]);
    assert_eq!(status(&out), 0);
    let json = std::fs::read_to_string(&report).expect("fsm report written");
    assert!(json.contains("\"schema\": \"detlint-fsm/1\""), "{json}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("detlint:   R11+R12 "), "{stderr}");
}

#[test]
fn format_takes_both_flag_forms() {
    let root = workspace_with_spec("format", MINIMAL_SPEC);
    for format in ["text", "json", "sarif"] {
        let spaced = lint(&root, &["--format", format]);
        let joined = lint(&root, &[&format!("--format={format}")]);
        assert_eq!(status(&spaced), 0, "{format}");
        assert_eq!(status(&joined), 0, "{format}");
        assert_eq!(spaced.stdout, joined.stdout, "{format}");
    }
}

#[test]
fn unsuppressed_finding_exits_one() {
    let root = workspace("finding");
    // In the default R10 scope: an unguarded subtraction.
    write(
        &root,
        "crates/giop/src/cdr.rs",
        "pub fn rem(a: usize, b: usize) -> usize {\n    a - b\n}\n",
    );
    write(&root, "specs/recovery-protocol.toml", MINIMAL_SPEC);
    assert_eq!(status(&lint(&root, &[])), 1);
}

/// An allowlist whose one entry suppresses nothing in a clean tree.
const STALE_ALLOW: &str = "[[allow]]\nrule = \"R10\"\npath = \"crates/demo/src/lib.rs\"\n\
                           pattern = \"nothing\"\njustification = \"stale on purpose\"\n";

/// A stale entry is reported under the path the list was read from,
/// the default `<root>/lint-allow.toml` or whatever `--allow` named.
#[test]
fn stale_allow_entry_exits_two() {
    let root = workspace_with_spec("stale-allow", MINIMAL_SPEC);
    write(&root, "lint-allow.toml", STALE_ALLOW);
    assert_config_error(&lint(&root, &[]), "lint-allow.toml:1: stale suppression");

    write(
        &root,
        "other-allow.toml",
        &format!("# stale\n{STALE_ALLOW}"),
    );
    let other = path_arg(&root.join("other-allow.toml"));
    assert_config_error(
        &lint(&root, &["--allow", &other]),
        &format!("error: {other}:2: stale suppression (R10 on crates/demo/src/lib.rs)"),
    );
}

#[test]
fn unknown_flag_exits_two() {
    let root = workspace_with_spec("flags", MINIMAL_SPEC);
    for (args, named) in [
        (&["--frobnicate"][..], "`--frobnicate`"),
        (&["--format", "yaml"], "`yaml`"),
        (&["--help"], "`--help`"),
        (&["extra"], "`extra`"),
        (&["--allow"], "--allow requires a value"),
    ] {
        let out = lint(&root, args);
        assert_config_error(&out, named);
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
}

#[test]
fn unwritable_report_exits_one() {
    let root = workspace_with_spec("unwritable", MINIMAL_SPEC);
    let nowhere = path_arg(&root.join("no/such/dir/report.json"));
    for flag in ["--fsm-report", "--conflict-report"] {
        let out = lint(&root, &[flag, &nowhere]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(status(&out), 1, "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("to {nowhere}")),
            "{flag}: {stderr}"
        );
    }
}

#[test]
fn missing_spec_exits_two() {
    let root = workspace("no-spec");
    write(&root, "crates/demo/src/lib.rs", "pub fn ok() {}\n");
    assert_config_error(
        &lint(&root, &[]),
        "reading protocol spec specs/recovery-protocol.toml",
    );
}

#[test]
fn malformed_spec_exits_two() {
    // The initial state is never declared as a [[state]].
    let root = workspace_with_spec(
        "bad-spec",
        "[machine]\nname = \"t\"\ninitial = \"Ghost\"\n\n[[state]]\nname = \"Idle\"\n",
    );
    assert_eq!(status(&lint(&root, &[])), 2);
}

#[test]
fn malformed_effect_spec_exits_two() {
    let root = workspace_with_spec(
        "bad-effect-spec",
        &format!("{MINIMAL_SPEC}\n[[cell]]\nname = \"x\"\nkind = \"bag\"\nfields = [\"x\"]\n"),
    );
    assert_eq!(status(&lint(&root, &[])), 2);
}

#[test]
fn misspelled_spec_key_exits_two_at_its_section() {
    // A misspelled `fields` would otherwise leave the cell with no fields,
    // and R11/R12 would silently stop seeing them.
    let root = workspace_with_spec(
        "spec-typo",
        &format!(
            "{MINIMAL_SPEC}\n[[cell]]\nname = \"c\"\nkind = \"counter\"\nfeilds = [\"count\"]\n"
        ),
    );
    assert_config_error(
        &lint(&root, &[]),
        "error: specs/recovery-protocol.toml:8: unknown key `feilds`",
    );

    let machine = MINIMAL_SPEC.replace("initial", "start = \"Idle\"\ninitial");
    write(&root, "specs/recovery-protocol.toml", &machine);
    assert_config_error(
        &lint(&root, &[]),
        "error: specs/recovery-protocol.toml:1: unknown key `start`",
    );
}

#[test]
fn malformed_allow_file_is_reported_under_its_own_path() {
    let root = workspace_with_spec("other-allow", MINIMAL_SPEC);
    write(
        &root,
        "other-allow.toml",
        "# R13 does not exist\n[[allow]]\nrule = \"R13\"\npath = \"a.rs\"\njustification = \"j\"\n",
    );
    let other = path_arg(&root.join("other-allow.toml"));
    assert_config_error(
        &lint(&root, &["--allow", &other]),
        &format!("error: {other}:2: unknown rule `R13` (expected R1..R12)"),
    );
}

#[test]
fn file_that_does_not_lex_exits_two() {
    let root = workspace_with_spec("no-lex", MINIMAL_SPEC);
    write(&root, "crates/demo/src/deep.rs", &"(".repeat(100_000));
    let why = "error: lexing crates/demo/src/deep.rs: 1:257: nesting deeper than 256";
    assert_config_error(&lint(&root, &[]), why);
    // `--timings` times the same parse: it cannot skip the file.
    assert_config_error(&lint(&root, &["--timings"]), why);
}

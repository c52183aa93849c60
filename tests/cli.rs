//! The `mead-repro` command line, driven as a process: the command
//! table, the usage errors (exit 2, a message, no panic) and byte-equal
//! output across worker-thread counts.

use std::process::{Command, Output};

fn mead_repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mead-repro"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawn mead-repro {args:?}: {e}"))
}

#[test]
fn help_names_every_command() {
    let out = mead_repro(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Command rows are indented two spaces, their descriptions six.
    let listed: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("commands"))
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let experiments = experiments::EXPERIMENTS.iter().map(|e| e.name);
    let expected: Vec<&str> = experiments
        .chain(["sweep", "fleet", "explore", "lint", "digest-probe", "help"])
        .collect();
    assert_eq!(listed, expected, "{text}");
    assert_eq!(listed.len(), 13 + 1, "thirteen commands and `help`");
}

#[test]
fn usage_errors_exit_2_with_a_message() {
    let dir = std::env::temp_dir().join(format!("mead-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let malformed = dir.join("malformed.toml");
    std::fs::write(&malformed, "[sweep]\nname = \"x\"\nbase_seed = \n").expect("write scenario");
    let missing = dir.join("missing.toml");
    let cases: [&[&str]; 11] = [
        &[],
        &["tabel1"],
        &["table1", "--threads"],
        &["fleet", "--threads", "many"],
        &["fleet", "--smoke", "--scheme", "mead"],
        &["table1", "--thread", "1", "150"],
        &["table1", "10k"],
        &["table1", "150", "200"],
        &["fleet", "1e4"],
        &["sweep", missing.to_str().expect("utf-8 path")],
        &["sweep", malformed.to_str().expect("utf-8 path")],
    ];
    for args in cases {
        let out = mead_repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn table1_prints_the_same_bytes_at_1_and_2_threads() {
    let one = mead_repro(&["table1", "--threads", "1", "200"]);
    let two = mead_repro(&["table1", "--threads", "2", "200"]);
    assert!(one.status.success() && two.status.success());
    assert!(String::from_utf8_lossy(&one.stdout).contains("MEAD Message"));
    assert_eq!(one.stdout, two.stdout);
}

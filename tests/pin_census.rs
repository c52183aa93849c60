//! The pin census: every value a run is pinned at lives once, in
//! `pins.toml` (DESIGN §9 "Pinned runs"), and a test reads each entry.
//!
//! A test reads an entry when its body names the entry's key as a string
//! literal, or names a prefix of it in a `keys_under("…")` call that
//! walks the file. The census fails when an entry has no reader, and when
//! a 16-hex-digit digest appears in CI or in a document other than
//! CHANGES and ROADMAP, which keep their history.

use std::fs;
use std::path::{Path, PathBuf};

use experiments::pins::Pins;

/// Where a pinned value must not be copied.
const NO_DIGESTS: &[&str] = &[
    ".github/workflows/ci.yml",
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The text of every test file: `tests/*.rs` and `crates/*/tests/*.rs`.
fn test_files() -> Vec<String> {
    let mut dirs = vec![root().join("tests")];
    for krate in fs::read_dir(root().join("crates")).unwrap() {
        dirs.push(krate.unwrap().path().join("tests"));
    }
    let mut files: Vec<PathBuf> = dirs
        .iter()
        .filter(|d| d.is_dir())
        .flat_map(|d| fs::read_dir(d).unwrap().map(|e| e.unwrap().path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| fs::read_to_string(p).unwrap())
        .collect()
}

/// The name of the function whose body holds byte offset `at`.
fn enclosing_fn(text: &str, at: usize) -> &str {
    let start = text[..at].rfind("fn ").map_or(0, |i| i + 3);
    let rest = &text[start..];
    &rest[..rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len())]
}

/// Whether the function holding byte offset `at` is a `#[test]`.
fn in_a_test(text: &str, at: usize) -> bool {
    let name = enclosing_fn(text, at);
    text.match_indices("#[test]")
        .any(|(t, _)| enclosing_fn(text, text[t..].find("fn ").map_or(t, |f| t + f + 3)) == name)
}

#[test]
fn every_pin_is_read_by_a_named_test() {
    let pins = Pins::committed().unwrap_or_else(|e| panic!("{e}"));
    let files = test_files();
    let reads = |text: &str, key: &str| {
        let exact = format!("\"{key}\"");
        let literal = text.match_indices(&exact).map(|(at, _)| at);
        let walk = text
            .match_indices("keys_under(\"")
            .filter_map(|(at, call)| {
                let prefix = &text[at + call.len()..];
                let prefix = &prefix[..prefix.find('"')?];
                (!prefix.is_empty() && key.starts_with(prefix)).then_some(at)
            });
        literal.chain(walk).any(|at| in_a_test(text, at))
    };
    let unread: Vec<&str> = pins
        .keys_under("")
        .filter(|key| !files.iter().any(|text| reads(text, key)))
        .collect();
    assert!(unread.is_empty(), "pins no test reads: {unread:?}");
}

/// Whether `word` (a run of `[0-9A-Za-z_]`, an optional `0x` prefix
/// included) is a 64-bit digest written out: 16 hex digits, `_`
/// separators aside.
fn is_digest(word: &str) -> bool {
    let digits: String = word.strip_prefix("0x").unwrap_or(word).replace('_', "");
    digits.len() == 16 && digits.chars().all(|c| c.is_ascii_hexdigit())
}

#[test]
fn no_digest_is_copied_outside_the_pin_file() {
    let mut copies = Vec::new();
    for file in NO_DIGESTS {
        let text = fs::read_to_string(root().join(file)).unwrap();
        for (n, line) in text.lines().enumerate() {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            for word in words.filter(|w| is_digest(w)) {
                copies.push(format!("{file}:{}: {word}", n + 1));
            }
        }
    }
    assert!(
        copies.is_empty(),
        "digests copied outside pins.toml (cite the pin's key instead):\n{}",
        copies.join("\n")
    );
}

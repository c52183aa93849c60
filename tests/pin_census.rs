//! The pin census: every value a run is pinned at lives once, in
//! `pins.toml` (DESIGN §9 "Pinned runs"), and a test reads each entry.
//!
//! A test reads an entry when its body names the entry's key as a string
//! literal, or names a prefix of it in a `keys_under("…")` call that
//! walks the file. The census fails when an entry has no reader, and when
//! a 16-hex-digit digest, an explorer run or outcome count or a sweep
//! plan count appears in CI, `mead-repro help` or a document other than
//! CHANGES and ROADMAP, which keep their history. README's Table 1 block,
//! which quotes `results/table1.txt`, must agree with that file, and so
//! must each measured number EXPERIMENTS copies from `results/table1.txt`
//! and `results/failover.txt`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

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

/// `file:line: what` for each `what` that `find(line, context)` reports
/// in a `NO_DIGESTS` file or the `mead-repro help` text; `context` is the
/// line and the one before it, since a sentence wraps.
fn copies(find: impl Fn(&str, &str) -> Vec<String>) -> Vec<String> {
    let help = Command::new(env!("CARGO_BIN_EXE_mead-repro"))
        .arg("help")
        .output();
    let help = String::from_utf8(help.expect("spawn mead-repro").stdout).unwrap();
    let files = NO_DIGESTS
        .iter()
        .map(|&f| (f, fs::read_to_string(root().join(f)).unwrap()));
    let mut found = Vec::new();
    for (file, text) in files.chain([("mead-repro help", help)]) {
        let lines: Vec<&str> = [""].into_iter().chain(text.lines()).collect();
        for (n, two) in lines.windows(2).enumerate() {
            let what = find(two[1], &two.join(" ")).into_iter();
            found.extend(what.map(|w| format!("{file}:{}: {w}", n + 1)));
        }
    }
    found
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
    let copies = copies(|line, _| {
        let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
        words.filter(|w| is_digest(w)).map(String::from).collect()
    })
    .join("\n");
    assert!(
        copies.is_empty(),
        "digests copied outside pins.toml (cite the pin's key instead):\n{copies}"
    );
}

/// `word`'s leading number, after an opening `(` or `` ` ``, and the rest.
fn count(word: &str) -> Option<(u64, &str)> {
    let word = word.trim_start_matches(['(', '`']);
    let digits = word
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(word.len());
    Some((word[..digits].parse().ok()?, &word[digits..]))
}

/// The pin counts `line` quotes: a number, at most one plain word, then
/// `run(s)` or `outcome(s)` where `context` names an explorer fixture, or
/// `plan(s)` where it names a sweep; `480-plan` and `0/508 plans` count
/// too, and so does `508/508` (all of a count) wherever `context` names
/// either. Other punctuation breaks a match.
fn quoted_counts(line: &str, context: &str) -> Vec<String> {
    let words: Vec<&str> = context
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
        .collect();
    let names = |set: &[&str]| set.iter().any(|name| words.contains(name));
    let fixture = names(&["pair", "relaunch", "trio", "seeded-bug"]);
    let sweep = names(&["sweep", "sweep-full", "smoke", "campaign", "chaos-campaign"]);
    let counted = |w: &str| match w.trim_end_matches(|c: char| !c.is_ascii_alphabetic()) {
        "run" | "runs" | "outcome" | "outcomes" => fixture,
        "plan" | "plans" => sweep,
        _ => false,
    };
    let plain = |w: &str| w.bytes().all(|b| b.is_ascii_lowercase() || b == b'-');
    let w: Vec<&str> = line.split_whitespace().chain(["", ""]).collect();
    let quoted = w.windows(3).filter_map(|t| {
        let (n, rest) = count(t[0])?;
        let hit = match rest.strip_prefix('/').and_then(count) {
            // `508/508`, all of a count, or `0/508 plans`.
            Some((m, tail)) => {
                m == n && !tail.starts_with('/') && (fixture || sweep)
                    || tail.is_empty() && counted(t[1])
            }
            // `480-plan`.
            None if !rest.is_empty() => rest.strip_prefix('-').is_some_and(counted),
            None if counted(t[1]) => return Some(t[..2].join(" ")),
            None => return (plain(t[1]) && counted(t[2])).then(|| t.join(" ")),
        };
        hit.then(|| t[0].to_string())
    });
    quoted.collect()
}

#[test]
fn no_run_or_plan_count_is_copied_outside_the_pin_file() {
    let line = "# pair (318 runs / 8 distinct outcomes, now 32 / 4); campaign: 480 plans";
    let caught = ["(318 runs", "8 distinct outcomes,", "480 plans"];
    assert_eq!(quoted_counts(line, line), caught);
    let line = "the 480-plan chaos campaign; `sweep_is_clean` (508/508) passes";
    assert_eq!(quoted_counts(line, line), ["480-plan", "(508/508)"]);
    let line = "sweep: 0/508 plans";
    assert_eq!(quoted_counts(line, line), ["0/508"]);
    let spared = "| Fig. 3 | RTT trace (10 000 runs) | `sweep` (§12): every plan";
    assert!(quoted_counts(spared, spared).is_empty());
    let spared = "sweep --smoke at 1/2/4 threads, (3/4 slots), 80/90 % thresholds, 0/0/8";
    assert!(quoted_counts(spared, spared).is_empty());
    let copies = copies(quoted_counts).join("\n");
    assert!(
        copies.is_empty(),
        "counts copied outside pins.toml (cite the pin's key):\n{copies}"
    );
}

/// The rows of README's Table 1 block that are not the start of the same
/// row of `table` (the table of `results/table1.txt`, from its header to
/// the first blank line), and a missing or surplus row.
fn table1_rows_off(readme: &str, table: &str) -> Vec<String> {
    let block = readme
        .split_once("as committed in `results/table1.txt`")
        .and_then(|(_, after)| after.split_once("```text\n"))
        .and_then(|(_, block)| block.split_once("```"))
        .map_or("", |(block, _)| block);
    let mut want = table
        .lines()
        .skip_while(|l| !l.starts_with("Recovery Strategy"))
        .take_while(|l| !l.is_empty());
    let mut off = Vec::new();
    for row in block.lines() {
        match want.next() {
            Some(full) if full.starts_with(row) => {}
            full => off.push(format!("README `{row}`, results `{}`", full.unwrap_or("—"))),
        }
    }
    off.extend(want.map(|full| format!("README lacks `{full}`")));
    off
}

#[test]
fn readme_table1_is_a_prefix_of_the_committed_table() {
    let table = "Title\n\nRecovery Strategy | RTT | more\n---+---+---\nMEAD | 2.9% | 42\n";
    let readme = "as committed in `results/table1.txt`:\n\n```text\n\
                  Recovery Strategy | RTT\n---+---\nMEAD | 2.9%\n```\n";
    assert!(table1_rows_off(readme, table).is_empty());
    let stale = readme.replace("2.9%", "3.0%");
    assert_eq!(
        table1_rows_off(&stale, table),
        ["README `MEAD | 3.0%`, results `MEAD | 2.9% | 42`"]
    );
    let short = readme.replace("MEAD | 2.9%\n", "");
    assert_eq!(
        table1_rows_off(&short, table),
        ["README lacks `MEAD | 2.9% | 42`"]
    );

    let readme = fs::read_to_string(root().join("README.md")).unwrap();
    let table = fs::read_to_string(root().join("results/table1.txt")).unwrap();
    let off = table1_rows_off(&readme, &table);
    assert!(
        off.is_empty(),
        "README's Table 1 copies results/table1.txt wrong:\n{}",
        off.join("\n")
    );
}

/// The cells of each row of the table whose header line starts with
/// `header` (a markdown table, `| a | b |`, or a results table,
/// `a | b`), up to the first line that is not a row; the separator line
/// under the header is skipped.
fn table_rows(text: &str, header: &str) -> Vec<Vec<String>> {
    let is_separator = |l: &str| l.chars().all(|c| "|-+ ".contains(c));
    text.lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(1)
        .skip_while(|l| is_separator(l))
        .take_while(|l| l.contains('|') && !is_separator(l))
        .map(|l| {
            let l = l.trim().trim_start_matches('|').trim_end_matches('|');
            l.split('|').map(|c| c.trim().to_string()).collect()
        })
        .collect()
}

/// A document cell's measured number as the results file prints it: the
/// part after `→`, with the typographic minus and the space before `%`
/// dropped; `None` for a cell that is not a number (a name, `baseline`,
/// `—`, a sum of stages).
fn measured(cell: &str) -> Option<String> {
    let value = cell.rsplit('→').next()?.trim();
    let value = value.replace('−', "-").replace(" %", "%");
    value
        .trim_end_matches('%')
        .parse::<f64>()
        .is_ok()
        .then_some(value)
}

/// `doc` row by row against `results` (the rows of the same table, in
/// the same order): every measured number of a document row that is not
/// a cell of its results row, and a missing or surplus row.
fn stale_numbers(doc: &[Vec<String>], results: &[Vec<String>]) -> Vec<String> {
    let mut off = Vec::new();
    for (n, row) in doc.iter().enumerate() {
        let Some(want) = results.get(n) else {
            off.push(format!("`{}` has no results row", row[0]));
            continue;
        };
        for value in row.iter().filter_map(|c| measured(c)) {
            if !want.contains(&value) {
                off.push(format!(
                    "`{}`: {value} is not in `{}`",
                    row[0],
                    want.join(" | ")
                ));
            }
        }
    }
    off.extend(
        results[doc.len().min(results.len())..]
            .iter()
            .map(|r| format!("no row for `{}`", r[0])),
    );
    off
}

#[test]
fn experiments_measured_columns_are_in_the_committed_results() {
    let results = table_rows(
        "Title\n\nScheme | RTT | ms\n---+---+---\nA | -1.4% | 10.329\n\n",
        "Scheme",
    );
    let doc =
        "| Scheme | RTT (paper → measured) | ms |\n|---|---|---|\n| a | +2 % → −1.4 % | 10.329 |\n";
    assert!(stale_numbers(&table_rows(doc, "| Scheme"), &results).is_empty());
    let stale = doc.replace("10.329", "10.177");
    assert_eq!(
        stale_numbers(&table_rows(&stale, "| Scheme"), &results),
        ["`a`: 10.177 is not in `A | -1.4% | 10.329`"]
    );
    assert_eq!(
        stale_numbers(&[], &results),
        ["no row for `A`"],
        "a row the document lacks"
    );

    let doc = fs::read_to_string(root().join("EXPERIMENTS.md")).unwrap();
    let read = |file: &str| fs::read_to_string(root().join("results").join(file)).unwrap();
    for (section, header, file, results_header) in [
        ("Table 1", "| Strategy |", "table1.txt", "Recovery Strategy"),
        (
            "§5.2.3",
            "| Scheme | measured mean",
            "failover.txt",
            "Scheme ",
        ),
    ] {
        let copied = table_rows(&doc, header);
        let committed = table_rows(&read(file), results_header);
        assert!(
            !copied.is_empty() && !committed.is_empty(),
            "{section}: no table"
        );
        let off = stale_numbers(&copied, &committed);
        assert!(
            off.is_empty(),
            "EXPERIMENTS {section} copies results/{file} wrong:\n{}",
            off.join("\n")
        );
    }
}

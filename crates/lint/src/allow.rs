//! The `lint-allow.toml` suppression list.
//!
//! Determinism findings may only be silenced through an explicit,
//! *justified* entry here — never with an inline attribute — so every
//! exception to the contract is reviewable in one place. The file is
//! read through [`tomlite::Reader`], the same schema layer the chaos
//! scenarios and the protocol spec use:
//!
//! ```toml
//! [[allow]]
//! rule = "R2"                       # which rule to suppress
//! path = "crates/simnet/src/sim.rs" # exact workspace-relative path
//! pattern = "Instant::now"          # optional: source line must contain
//! justification = "wall-clock accounting only; never feeds sim time"
//! ```
//!
//! `path` must equal the finding's workspace-relative path exactly — a
//! suppression for `crates/simnet/src/sim.rs` can never widen to a future
//! `tests/sim.rs`. An entry with an empty or missing `justification` is a
//! configuration *error*, not a silent no-op: `detlint` refuses to run.
//! So is an entry that suppresses nothing in the current tree (a *stale*
//! suppression): refactoring away the code an entry covered must also
//! delete the entry.
//!
//! R5 entries are special: they suppress one *call-graph edge*, not a
//! finding. `path` names the caller's file and `pattern` must match the
//! call-site line. A taint chain is only silenced when one of its own
//! edges is suppressed, so blessing one flow never blesses a new
//! transitive flow through the same source.
//!
//! Every error is a [`tomlite::TomlError`]: a syntax error at the
//! offending line, a semantic one (missing/unknown keys, bad rule ids)
//! at the `[[allow]]` header line of the entry it belongs to.
//! [`crate::load_allow`] prefixes the path it read (`<path>:<line>: …`),
//! and `mead-repro lint` does the same for a stale entry.

use tomlite::{Reader, TomlError};

use crate::Finding;

/// One suppression entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule id this entry suppresses (`R1`..`R12`).
    pub rule: String,
    /// Exact workspace-relative path of the finding's file (for R5: of
    /// the suppressed edge's caller).
    pub path: String,
    /// Optional substring the offending source line must contain.
    pub pattern: Option<String>,
    /// Required human rationale (must be non-empty).
    pub justification: String,
    /// Line in the allow file where the entry starts (for diagnostics).
    pub defined_at: u32,
}

/// A parsed `lint-allow.toml`.
#[derive(Clone, Debug, Default)]
pub struct AllowList {
    entries: Vec<AllowEntry>,
}

/// Rule ids that may appear in `rule = "..."`.
const KNOWN_RULES: [&str; 12] = [
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R11", "R12",
];

impl AllowList {
    /// An empty list (suppresses nothing).
    pub fn empty() -> Self {
        AllowList::default()
    }

    /// The parsed entries.
    pub fn entries(&self) -> &[AllowEntry] {
        &self.entries
    }

    /// Parses the allow file. See the module docs for the format.
    ///
    /// # Errors
    ///
    /// A [`TomlError`] at the offending line: a syntax error's own line,
    /// or the `[[allow]]` header of the entry a schema error belongs to.
    pub fn parse(text: &str) -> Result<AllowList, TomlError> {
        let doc = tomlite::parse(text)?;
        let root = doc.root();
        root.reject_unknown(&["allow"])?;
        let entries = root
            .tables("allow")?
            .iter()
            .map(entry_from)
            .collect::<Result<_, _>>()?;
        Ok(AllowList { entries })
    }

    /// Whether `finding` (whose offending source line is `line_text`) is
    /// suppressed by some entry.
    pub fn suppresses(&self, finding: &Finding, line_text: &str) -> bool {
        self.suppression_for(finding, line_text).is_some()
    }

    /// The index of the first entry suppressing `finding`, if any. The
    /// caller records the index so stale (never-used) entries can be
    /// reported as configuration errors.
    pub fn suppression_for(&self, finding: &Finding, line_text: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == finding.rule
                && finding.path == e.path
                && e.pattern
                    .as_deref()
                    .map(|p| line_text.contains(p))
                    .unwrap_or(true)
        })
    }

    /// The index of the first R5 entry suppressing a call-graph edge
    /// whose *caller* lives in `caller_path` and whose call-site source
    /// line is `line_text`.
    pub fn edge_suppression_for(&self, caller_path: &str, line_text: &str) -> Option<usize> {
        self.entries.iter().position(|e| {
            e.rule == "R5"
                && caller_path == e.path
                && e.pattern
                    .as_deref()
                    .map(|p| line_text.contains(p))
                    .unwrap_or(true)
        })
    }
}

/// Validates one `[[allow]]` table into an [`AllowEntry`].
fn entry_from(r: &Reader) -> Result<AllowEntry, TomlError> {
    r.reject_unknown(&["rule", "path", "pattern", "justification"])?;
    let rule = r.str_req("rule")?;
    if !KNOWN_RULES.contains(&rule) {
        return Err(r.error(format!("unknown rule `{rule}` (expected R1..R12)")));
    }
    let path = r.str_req("path")?;
    if path.is_empty() {
        return Err(r.error("`path` must be non-empty"));
    }
    let justification = r.str_opt("justification")?.unwrap_or_default();
    if justification.trim().is_empty() {
        return Err(r.error("suppression requires a non-empty `justification`"));
    }
    Ok(AllowEntry {
        rule: rule.to_string(),
        path: path.to_string(),
        pattern: r.str_opt("pattern")?.map(str::to_string),
        justification: justification.to_string(),
        defined_at: r.line(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_matches() {
        let list = AllowList::parse(
            r#"
# comment
[[allow]]
rule = "R2"
path = "crates/simnet/src/sim.rs"
pattern = "Instant::now"
justification = "wall-clock accounting only"
"#,
        )
        .expect("parses");
        assert_eq!(list.entries().len(), 1);
        let f = Finding {
            rule: "R2",
            path: "crates/simnet/src/sim.rs".to_string(),
            line: 481,
            col: 23,
            message: "x".to_string(),
        };
        assert!(list.suppresses(&f, "let started = Instant::now();"));
        assert!(!list.suppresses(&f, "let started = clock();"));
        let other_file = Finding {
            path: "crates/simnet/src/rng.rs".to_string(),
            ..f
        };
        assert!(!list.suppresses(&other_file, "Instant::now()"));
    }

    #[test]
    fn path_must_match_exactly_not_as_suffix() {
        let list = AllowList::parse(
            "[[allow]]\nrule = \"R2\"\npath = \"sim.rs\"\njustification = \"j\"\n",
        )
        .expect("parses");
        let f = Finding {
            rule: "R2",
            path: "crates/simnet/src/sim.rs".to_string(),
            line: 1,
            col: 1,
            message: "x".to_string(),
        };
        // A bare-filename entry no longer matches a nested path; only the
        // exact workspace-relative path does.
        assert!(!list.suppresses(&f, "Instant::now()"));
        let exact = Finding {
            path: "sim.rs".to_string(),
            ..f
        };
        assert!(list.suppresses(&exact, "Instant::now()"));
    }

    #[test]
    fn edge_suppression_matches_caller_file_and_line() {
        let list = AllowList::parse(
            "[[allow]]\nrule = \"R5\"\npath = \"crates/a/src/lib.rs\"\npattern = \"stamp()\"\njustification = \"audited flow\"\n",
        )
        .expect("parses");
        assert_eq!(
            list.edge_suppression_for("crates/a/src/lib.rs", "let t = stamp();"),
            Some(0)
        );
        assert_eq!(
            list.edge_suppression_for("crates/a/src/lib.rs", "let t = other();"),
            None
        );
        assert_eq!(
            list.edge_suppression_for("crates/b/src/lib.rs", "let t = stamp();"),
            None
        );
    }

    #[test]
    fn empty_justification_is_an_error() {
        let err =
            AllowList::parse("[[allow]]\nrule = \"R2\"\npath = \"a.rs\"\njustification = \"  \"\n")
                .expect_err("must fail");
        assert!(err.msg.contains("justification"));
    }

    #[test]
    fn missing_justification_is_an_error() {
        let err =
            AllowList::parse("[[allow]]\nrule = \"R3\"\npath = \"a.rs\"\n").expect_err("must fail");
        assert!(err.msg.contains("justification"));
    }

    #[test]
    fn unknown_rule_or_key_is_an_error() {
        // R11/R12 are valid rule ids as of detlint v4; R13 is not.
        assert!(AllowList::parse(
            "[[allow]]\nrule = \"R11\"\npath = \"a\"\njustification = \"j\"\n"
        )
        .is_ok());
        assert!(AllowList::parse(
            "[[allow]]\nrule = \"R13\"\npath = \"a\"\njustification = \"j\"\n"
        )
        .is_err());
        assert!(AllowList::parse(
            "[[allow]]\nrule = \"R1\"\nfile = \"a\"\njustification = \"j\"\n"
        )
        .is_err());
    }

    #[test]
    fn errors_anchor_at_entry_header_line() {
        let err = AllowList::parse(
            "# leading comment\n\n[[allow]]\nrule = \"R2\"\npath = \"a.rs\"\njustification = \"j\"\n\n[[allow]]\nrule = \"R3\"\npath = \"b.rs\"\n",
        )
        .expect_err("second entry invalid");
        assert_eq!(err.line, 8);
        let err = AllowList::parse("[x]\ny = 1\n").expect_err("unknown section");
        assert!(err.msg.contains("unknown section"));
    }
}

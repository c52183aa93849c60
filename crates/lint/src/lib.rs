//! `detlint` — the determinism lint engine for the MEAD reproduction.
//!
//! The simulator's headline property (bit-identical digests across runs and
//! thread counts) is only as strong as the code's freedom from ambient
//! nondeterminism and panic paths. This crate makes that a *checked*
//! property: a structural scan over `synlite` token trees and its
//! lightweight AST enforces the determinism contract written down in
//! DESIGN §9:
//!
//! - **R1–R4** (see [`rules`]) are per-file sequence rules: hash-order
//!   iteration, ambient nondeterminism, panic paths, protocol-match
//!   exhaustiveness.
//! - **R6–R7** (also [`rules`]) audit codec arithmetic (truncating `as`
//!   casts, `wrapping_*`/`unchecked_*` calls) and loop boundedness in the
//!   kernel dispatch and client retry paths.
//! - **R5** (see [`taint`]) is interprocedural: a workspace
//!   [call graph](callgraph) propagates taint from ambient-nondeterminism
//!   sources to digest/trace sinks through any call chain.
//! - **R8** (see [`conformance`]) cross-checks the event and wire
//!   vocabularies: every emitted variant is consumed or declared
//!   report-only, and codec encode/decode sides cover the same variants
//!   and wire types.
//! - **R9** (see [`fsm`]) extracts the *implemented* recovery-protocol
//!   transition relation from match arms and send sites and diffs it
//!   against the declared state machine in `specs/recovery-protocol.toml`:
//!   missing handlers, undeclared transitions, unreachable spec states,
//!   dead message variants.
//! - **R10** (see [`dataflow`]) proves the codec bounds discipline with
//!   an interval abstract interpretation over lowered CFGs: every
//!   subtraction, index, split, and narrowing conversion in the GIOP
//!   decoders and the simnet receive queue must be dominated by a check.
//! - **R11/R12** (see [`effects`]) infer each protocol handler's
//!   read/write footprint over the abstract state cells declared in the
//!   spec and check it against the per-transition `reads`/`writes`
//!   clauses (R11) and retry-idempotence (R12: handlers of messages a
//!   retry path can re-send must not write non-commutative cells
//!   without a dedup guard). The same analysis derives the
//!   `conflict-relation/1` artifact (`--conflict-report`) that
//!   `explore --conflict-relation` uses for persistent-set pruning.
//!
//! A run lexes and parses the tree **once** ([`Workspace::parse`]):
//! every pass, report and [`timings`] row borrows that one value — the
//! token trees, the item trees, and the call graph over them (R5 uses
//! the induced subgraph of its scope, R9/R11/R12 the full graph).
//!
//! Suppressions are allowed only through a justified
//! [`lint-allow.toml`](allow) entry; stale entries are configuration
//! errors. Both TOML inputs, the allowlist and the protocol spec, are
//! read through [`tomlite::Reader`]: unknown sections and keys are
//! rejected, and every malformed entry is a [`tomlite::TomlError`]
//! reported as `<path>:<line>: …` at its header line.
//!
//! This crate is a library with no command line: it parses, lints and
//! renders ([`Report::to_text`], [`Report::to_json`], [`sarif::render`],
//! [`fsm_report`], [`conflict_report`], [`timings`]) and returns
//! [`EngineError`]s. The `mead-repro lint` command in the root package
//! parses the flags, owns the wall clock `--timings` reads (this crate
//! is in R2 scope, so the clock is injected) and maps errors to exit
//! statuses; CI runs it as a blocking job and uploads the
//! `--format sarif` report to code scanning and the `--format json`
//! summary as an artifact.

pub mod allow;
pub mod callgraph;
pub mod conformance;
pub mod dataflow;
pub mod effects;
pub mod fsm;
pub mod rules;
pub mod sarif;
pub mod taint;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use allow::AllowList;
pub use callgraph::{CallGraph, FileAst};
pub use conformance::ConformanceConfig;
pub use rules::RuleSet;

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`R1`..`R10`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}:{}:{}: {}",
            self.rule, self.path, self.line, self.col, self.message
        )
    }
}

/// The determinism contract: which parts of the workspace each rule
/// applies to, which enums count as wire protocols for R4, which
/// functions are R5 sinks, and the R8 conformance vocabulary.
#[derive(Clone, Debug)]
pub struct Contract {
    /// Directories (path prefixes) where R1 applies.
    pub r1_scopes: Vec<String>,
    /// Directories where R2 applies.
    pub r2_scopes: Vec<String>,
    /// Paths (files or directories) where R3 applies.
    pub r3_scopes: Vec<String>,
    /// Directories where R4 applies.
    pub r4_scopes: Vec<String>,
    /// Directories whose functions join the R5 call graph.
    pub r5_scopes: Vec<String>,
    /// Sink functions (`Type::name` or bare `name`) taint must not reach.
    pub r5_sinks: Vec<String>,
    /// Paths (files or directories) where R6 applies.
    pub r6_scopes: Vec<String>,
    /// Paths (files or directories) where R7 applies.
    pub r7_scopes: Vec<String>,
    /// Enum names whose matches must be exhaustive (R4).
    pub protocol_enums: Vec<String>,
    /// R8 conformance vocabulary; `None` disables the pass.
    pub conformance: Option<ConformanceConfig>,
    /// R9 protocol-FSM conformance; `None` disables the pass.
    pub fsm: Option<fsm::FsmConfig>,
    /// R10 interval-dataflow proofs; `None` disables the pass.
    pub dataflow: Option<dataflow::DataflowConfig>,
    /// R11/R12 effect & idempotence analysis; `None` disables the pass.
    /// Runs only when the R9 spec is also loaded (it shares the spec's
    /// cell vocabulary and site extraction).
    pub effects: Option<effects::EffectsConfig>,
}

impl Default for Contract {
    fn default() -> Self {
        let sim_crates = [
            "crates/simnet/src",
            "crates/orb/src",
            "crates/groupcomm/src",
            "crates/mead/src",
            "crates/faults/src",
            "crates/experiments/src",
            "crates/explore/src",
        ];
        // The lint engine and its parsers must themselves be deterministic:
        // their output feeds CI gates, so they are in scope for R1/R2.
        let self_scopes = [
            "crates/obs/src",
            "crates/lint/src",
            "vendor/synlite/src",
            "vendor/tomlite/src",
        ];
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        Contract {
            r1_scopes: sim_crates
                .iter()
                .chain(self_scopes.iter())
                .map(|s| s.to_string())
                .collect(),
            r2_scopes: sim_crates
                .iter()
                .chain(self_scopes.iter())
                .chain(["crates/giop/src"].iter())
                .map(|s| s.to_string())
                .collect(),
            r3_scopes: strs(&[
                "crates/giop/src",
                "crates/simnet/src/sim.rs",
                "crates/simnet/src/recv_queue.rs",
                "crates/simnet/src/table.rs",
                "crates/simnet/src/wheel.rs",
            ]),
            r4_scopes: strs(&["crates/mead/src", "crates/groupcomm/src"]),
            r5_scopes: sim_crates
                .iter()
                .chain(["crates/obs/src", "crates/giop/src"].iter())
                .map(|s| s.to_string())
                .collect(),
            r5_sinks: strs(&[
                "ScenarioOutcome::digest",
                "ScenarioOutcome::trace_jsonl",
                "ChaosOutcome::digest",
                "SweepOutcome::digest",
                "FleetOutcome::digest",
                "DecisionTrace::digest",
                "ViolationReport::to_json",
                "to_jsonl",
                "push_event_line",
                "push_json_str",
            ]),
            r6_scopes: strs(&[
                "crates/giop/src",
                "crates/groupcomm/src/wire.rs",
                "crates/mead/src/messages.rs",
            ]),
            r7_scopes: strs(&[
                "crates/simnet/src/sim.rs",
                "crates/simnet/src/table.rs",
                "crates/simnet/src/wheel.rs",
                "crates/orb/src/client.rs",
                "crates/orb/src/retry.rs",
                "crates/groupcomm/src/client.rs",
            ]),
            protocol_enums: strs(&["GcsWire", "GroupMsg"]),
            conformance: Some(ConformanceConfig::default()),
            fsm: Some(fsm::FsmConfig::default()),
            dataflow: Some(dataflow::DataflowConfig::default()),
            effects: Some(effects::EffectsConfig::default()),
        }
    }
}

impl Contract {
    /// The per-file sequence rules that apply to `path`
    /// (workspace-relative, `/`-separated). R5/R8 are cross-file passes
    /// and are not part of the returned set.
    pub fn rules_for(&self, path: &str) -> RuleSet {
        let in_scope = |scopes: &[String]| scopes.iter().any(|s| path.starts_with(s.as_str()));
        RuleSet {
            r1: in_scope(&self.r1_scopes),
            r2: in_scope(&self.r2_scopes),
            r3: in_scope(&self.r3_scopes),
            r4: in_scope(&self.r4_scopes),
            r6: in_scope(&self.r6_scopes),
            r7: in_scope(&self.r7_scopes),
        }
    }

    /// Whether `path` is inside the R5 call-graph scope.
    pub fn in_r5_scope(&self, path: &str) -> bool {
        self.r5_scopes.iter().any(|s| path.starts_with(s.as_str()))
    }
}

/// Lints one in-memory source file with an explicit rule set; the entry
/// point fixture tests use.
pub fn lint_source(
    path: &str,
    src: &str,
    rule_set: RuleSet,
    protocol_enums: &[String],
) -> Result<Vec<Finding>, synlite::LexError> {
    let file = FileAst::parse(path, src)?;
    let mut findings = Vec::new();
    rules::run(path, &file.trees, rule_set, protocol_enums, &mut findings);
    Ok(findings)
}

/// The outcome of a workspace scan.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Unsuppressed findings, sorted by (path, line, col).
    pub findings: Vec<Finding>,
    /// Findings silenced by a justified allowlist entry (for R5: chains
    /// silenced through a suppressed edge).
    pub suppressed: Vec<Finding>,
    /// Allowlist entries that suppressed nothing — a configuration error.
    /// Each reads `<line>: stale suppression …`, anchored at the entry's
    /// `[[allow]]` header; the caller prefixes the path it loaded the
    /// list from, as for a malformed entry.
    pub stale_allows: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Finding count per rule id (over unsuppressed findings).
    pub fn counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = [
            ("R1", 0),
            ("R2", 0),
            ("R3", 0),
            ("R4", 0),
            ("R5", 0),
            ("R6", 0),
            ("R7", 0),
            ("R8", 0),
            ("R9", 0),
            ("R10", 0),
            ("R11", 0),
            ("R12", 0),
        ]
        .into();
        for f in &self.findings {
            *counts.entry(f.rule).or_insert(0) += 1;
        }
        counts
    }

    /// The human-readable report: one line per finding, then the summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{f}");
        }
        let summary: Vec<String> = self
            .counts()
            .iter()
            .map(|(r, n)| format!("{r}={n}"))
            .collect();
        let _ = writeln!(
            out,
            "detlint: {} file(s) scanned, {} finding(s) [{}], {} suppressed",
            self.files_scanned,
            self.findings.len(),
            summary.join(" "),
            self.suppressed.len()
        );
        out
    }

    /// Machine-readable JSON summary (schema `detlint/5`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"detlint/5\",\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"total\": {},", self.findings.len());
        let _ = writeln!(out, "  \"suppressed\": {},", self.suppressed.len());
        out.push_str("  \"stale_allows\": [");
        for (i, s) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(s));
        }
        out.push_str("],\n  \"counts\": {");
        let counts = self.counts();
        let mut first = true;
        for (rule, n) in &counts {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{rule}\": {n}");
        }
        out.push_str("},\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\"}}{}",
                f.rule,
                json_escape(&f.path),
                f.line,
                f.col,
                json_escape(&f.message),
                if i + 1 < self.findings.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A fatal engine failure (I/O, lex error, bad allowlist).
#[derive(Debug)]
pub struct EngineError {
    /// What went wrong, with enough context to act on.
    pub message: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EngineError {}

/// Every source of one command, lexed and parsed once, and the call
/// graph over it. The sources own the text; everything here borrows it.
#[derive(Debug)]
pub struct Workspace<'a> {
    /// One entry per source, in the order given.
    pub files: Vec<FileAst<'a>>,
    /// The call graph over every file, shared by the interprocedural
    /// passes (R5 restricts it to its scope; R9/R11/R12 use it whole).
    pub graph: CallGraph<'a>,
}

impl<'a> Workspace<'a> {
    /// Lexes and parses `sources` (workspace-relative path, text) and
    /// builds the call graph. A file that does not lex is an error.
    pub fn parse(sources: &'a [(String, String)]) -> Result<Workspace<'a>, EngineError> {
        Self::parse_timed(sources, &|| 0).map(|(ws, _)| ws)
    }

    /// [`Workspace::parse`], also returning the nanoseconds `now_nanos`
    /// saw pass while lexing + parsing and while building the graph (the
    /// first two [`timings`] rows).
    pub fn parse_timed(
        sources: &'a [(String, String)],
        now_nanos: &dyn Fn() -> u64,
    ) -> Result<(Workspace<'a>, [u64; 2]), EngineError> {
        let t0 = now_nanos();
        let mut files = Vec::with_capacity(sources.len());
        for (rel, src) in sources {
            files.push(FileAst::parse(rel, src).map_err(|e| EngineError {
                message: format!("lexing {rel}: {e}"),
            })?);
        }
        let t1 = now_nanos();
        let graph = CallGraph::build(&files);
        let spent = [t1.saturating_sub(t0), now_nanos().saturating_sub(t1)];
        Ok((Workspace { files, graph }, spent))
    }
}

/// Lints a set of in-memory sources (workspace-relative path, text) with
/// every pass the contract enables. This is the whole engine:
/// [`Workspace::parse`] then [`lint_parsed`]; [`lint_workspace`] only
/// adds the directory walk.
pub fn lint_files(
    sources: &[(String, String)],
    contract: &Contract,
    allow: &AllowList,
) -> Result<Report, EngineError> {
    lint_parsed(&Workspace::parse(sources)?, contract, allow)
}

/// Runs every pass the contract enables over an already-parsed
/// workspace: per-file sequence rules, the R5 taint analysis over the
/// call graph, the R8 conformance checks, R9, R11/R12 and R10.
pub fn lint_parsed(
    ws: &Workspace<'_>,
    contract: &Contract,
    allow: &AllowList,
) -> Result<Report, EngineError> {
    let mut report = Report {
        files_scanned: ws.files.len(),
        ..Report::default()
    };
    let mut allow_used = vec![false; allow.entries().len()];
    let by_path: BTreeMap<&str, &FileAst> = ws.files.iter().map(|f| (f.path, f)).collect();
    let route = |f: Finding, report: &mut Report, allow_used: &mut Vec<bool>| {
        // Findings may land in files we did not scan (the spec file);
        // those have no source line to pattern-match against.
        let line_text = by_path
            .get(f.path.as_str())
            .map(|fa| fa.line_text(f.line))
            .unwrap_or("");
        match allow.suppression_for(&f, line_text) {
            Some(i) => {
                allow_used[i] = true;
                report.suppressed.push(f);
            }
            None => report.findings.push(f),
        }
    };

    for file in &ws.files {
        let mut found = Vec::new();
        let rule_set = contract.rules_for(file.path);
        rules::run(
            file.path,
            &file.trees,
            rule_set,
            &contract.protocol_enums,
            &mut found,
        );
        for f in found {
            route(f, &mut report, &mut allow_used);
        }
    }

    // R5: interprocedural taint over the call graph of in-scope files.
    if !contract.r5_sinks.is_empty() && ws.files.iter().any(|f| contract.in_r5_scope(f.path)) {
        let r5_graph = ws.graph.restrict(|file| contract.in_r5_scope(file));
        let (mut found, mut silenced) = taint::check(
            &r5_graph,
            &ws.files,
            &contract.r5_sinks,
            allow,
            &mut allow_used,
        );
        report.findings.append(&mut found);
        report.suppressed.append(&mut silenced);
    }

    // R8: event/codec conformance over the whole parsed set (liveness
    // needs to see emitters wherever they live).
    if let Some(cfg) = &contract.conformance {
        for f in conformance::check(&ws.files, cfg) {
            route(f, &mut report, &mut allow_used);
        }
    }

    // R9: protocol-FSM conformance against the declared state machine.
    // The analysis (parsed spec + extracted sites) is kept for R11/R12.
    let mut fsm_analysis: Option<fsm::Analysis> = None;
    if let Some(cfg) = &contract.fsm {
        if cfg.spec_src.is_some() {
            let mut analysis = fsm_analysis_of(ws, cfg)?;
            for f in std::mem::take(&mut analysis.findings) {
                route(f, &mut report, &mut allow_used);
            }
            fsm_analysis = Some(analysis);
        }
    }

    // R11/R12: effect-footprint conformance and retry idempotence over
    // the spec's cell vocabulary (needs the R9 extraction).
    if let Some(cfg) = &contract.effects {
        if let Some(analysis) = &fsm_analysis {
            for f in effects::check(&ws.graph, analysis, cfg) {
                route(f, &mut report, &mut allow_used);
            }
        }
    }

    // R10: interval-dataflow bounds proofs over the codec scopes.
    if let Some(cfg) = &contract.dataflow {
        for f in dataflow::check(&ws.files, cfg) {
            route(f, &mut report, &mut allow_used);
        }
    }

    for (e, _) in allow
        .entries()
        .iter()
        .zip(&allow_used)
        .filter(|(_, used)| !**used)
    {
        report.stale_allows.push(format!(
            "{}: stale suppression ({} on {}) matches nothing in the current tree; \
             delete the entry",
            e.defined_at, e.rule, e.path
        ));
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    report
        .suppressed
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(report)
}

/// The R9 extraction and diff over `ws` against the loaded spec.
fn fsm_analysis_of(ws: &Workspace<'_>, cfg: &fsm::FsmConfig) -> Result<fsm::Analysis, EngineError> {
    let spec_src = cfg.spec_src.as_ref().ok_or_else(|| EngineError {
        message: format!("fsm report: spec {} not loaded", cfg.spec_path),
    })?;
    fsm::check(&ws.files, cfg, spec_src, &ws.graph).map_err(|e| EngineError {
        message: format!("{}:{}: {}", cfg.spec_path, e.line, e.msg),
    })
}

/// Reads every `.rs` file under `root`'s `crates/` and `vendor/` trees
/// into (workspace-relative path, text) pairs, sorted by path.
pub fn collect_sources(root: &Path) -> Result<Vec<(String, String)>, EngineError> {
    let mut files = Vec::new();
    for tree in ["crates", "vendor"] {
        collect_rs_files(&root.join(tree), &mut files).map_err(|e| EngineError {
            message: format!("walking {}: {e}", root.display()),
        })?;
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let src = std::fs::read_to_string(&file).map_err(|e| EngineError {
            message: format!("reading {rel}: {e}"),
        })?;
        sources.push((rel, src));
    }
    Ok(sources)
}

/// Fills `contract.fsm.spec_src` from disk when the R9 pass is enabled
/// but the spec text has not been provided in-memory. A missing or
/// unreadable spec file is a configuration error (exit 2), not a clean
/// run: the spec is the whole point of R9.
pub fn load_spec(root: &Path, contract: &Contract) -> Result<Contract, EngineError> {
    let mut contract = contract.clone();
    if let Some(cfg) = &mut contract.fsm {
        if cfg.spec_src.is_none() {
            let path = root.join(&cfg.spec_path);
            let src = std::fs::read_to_string(&path).map_err(|e| EngineError {
                message: format!("reading protocol spec {}: {e}", cfg.spec_path),
            })?;
            cfg.spec_src = Some(src);
        }
    }
    Ok(contract)
}

/// Reads the allowlist at `path`; a missing file allows nothing. An
/// unreadable or malformed file is a configuration error naming `path`
/// (and, when malformed, the offending line: `<path>:<line>: …`).
pub fn load_allow(path: &Path) -> Result<AllowList, EngineError> {
    if !path.exists() {
        return Ok(AllowList::empty());
    }
    let text = std::fs::read_to_string(path).map_err(|e| EngineError {
        message: format!("reading {}: {e}", path.display()),
    })?;
    AllowList::parse(&text).map_err(|e| EngineError {
        message: format!("{}:{}: {}", path.display(), e.line, e.msg),
    })
}

/// Scans every `.rs` file under `root`'s `crates/` and `vendor/` trees
/// and applies the allowlist. Loads the R9 protocol spec from `root`
/// when the contract enables the pass without embedding the spec text.
pub fn lint_workspace(
    root: &Path,
    contract: &Contract,
    allow: &AllowList,
) -> Result<Report, EngineError> {
    let sources = collect_sources(root)?;
    let contract = load_spec(root, contract)?;
    lint_files(&sources, &contract, allow)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the R9 extractor alone over `ws` and renders its
/// machine-readable report (`detlint-fsm/1`): the parsed spec, every
/// recovered code site, and the conformance diff.
pub fn fsm_report(ws: &Workspace<'_>, contract: &Contract) -> Result<String, EngineError> {
    let cfg = contract.fsm.as_ref().ok_or_else(|| EngineError {
        message: "fsm report: the R9 pass is disabled in this contract".to_string(),
    })?;
    Ok(fsm::report_json(&fsm_analysis_of(ws, cfg)?))
}

/// Derives the `conflict-relation/1` artifact for
/// `explore --conflict-relation` (CLI `--conflict-report`): statically
/// proven-independent kernel wake-up pairs, justified by the drain-
/// idempotence analysis in [`effects::conflict_report`].
pub fn conflict_report(ws: &Workspace<'_>, contract: &Contract) -> Result<String, EngineError> {
    let fsm_cfg = contract.fsm.as_ref().ok_or_else(|| EngineError {
        message: "conflict report: the R9 pass is disabled in this contract".to_string(),
    })?;
    let spec_src = fsm_cfg.spec_src.as_ref().ok_or_else(|| EngineError {
        message: format!("conflict report: spec {} not loaded", fsm_cfg.spec_path),
    })?;
    let effects_cfg = contract.effects.as_ref().ok_or_else(|| EngineError {
        message: "conflict report: the R11/R12 pass is disabled in this contract".to_string(),
    })?;
    let spec = fsm::parse_spec(spec_src).map_err(|e| EngineError {
        message: format!("{}:{}: {}", fsm_cfg.spec_path, e.line, e.msg),
    })?;
    Ok(effects::conflict_report(&ws.graph, &spec, effects_cfg))
}

/// Tokens in `trees`, groups and their contents included.
fn count_tokens(trees: &[synlite::TokenTree]) -> usize {
    let inner = |t: &synlite::TokenTree| match &t.tok {
        synlite::Tok::Group(_, inner) => count_tokens(inner),
        _ => 0,
    };
    trees.len() + trees.iter().map(inner).sum::<usize>()
}

/// One contract per rule with every other pass disabled, so each rule's
/// cost can be measured in isolation for `--timings`.
fn per_rule_contracts(full: &Contract) -> Vec<(&'static str, Contract)> {
    let base = Contract {
        r1_scopes: Vec::new(),
        r2_scopes: Vec::new(),
        r3_scopes: Vec::new(),
        r4_scopes: Vec::new(),
        r5_scopes: Vec::new(),
        r5_sinks: Vec::new(),
        r6_scopes: Vec::new(),
        r7_scopes: Vec::new(),
        protocol_enums: full.protocol_enums.clone(),
        conformance: None,
        fsm: None,
        dataflow: None,
        effects: None,
    };
    vec![
        (
            "R1",
            Contract {
                r1_scopes: full.r1_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R2",
            Contract {
                r2_scopes: full.r2_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R3",
            Contract {
                r3_scopes: full.r3_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R4",
            Contract {
                r4_scopes: full.r4_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R5",
            Contract {
                r5_scopes: full.r5_scopes.clone(),
                r5_sinks: full.r5_sinks.clone(),
                ..base.clone()
            },
        ),
        (
            "R6",
            Contract {
                r6_scopes: full.r6_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R7",
            Contract {
                r7_scopes: full.r7_scopes.clone(),
                ..base.clone()
            },
        ),
        (
            "R8",
            Contract {
                conformance: full.conformance.clone(),
                ..base.clone()
            },
        ),
        (
            "R9",
            Contract {
                fsm: full.fsm.clone(),
                ..base.clone()
            },
        ),
        (
            "R10",
            Contract {
                dataflow: full.dataflow.clone(),
                ..base.clone()
            },
        ),
        // R11/R12 cannot run without the R9 extraction they share, so
        // their row includes it; subtract the R9 row for the pass alone.
        (
            "R11+R12",
            Contract {
                fsm: full.fsm.clone(),
                effects: full.effects.clone(),
                ..base
            },
        ),
    ]
}

/// Files a rule actually looks at, for the `--timings` report. R8 and R9
/// are whole-tree passes (liveness and the transition extractor must see
/// every file); the rest are scope-filtered.
fn files_for_rule(rule: &str, contract: &Contract, sources: &[(String, String)]) -> usize {
    let scope_count = |scopes: &[String]| {
        sources
            .iter()
            .filter(|(p, _)| scopes.iter().any(|s| p.starts_with(s.as_str())))
            .count()
    };
    match rule {
        "R1" => scope_count(&contract.r1_scopes),
        "R2" => scope_count(&contract.r2_scopes),
        "R3" => scope_count(&contract.r3_scopes),
        "R4" => scope_count(&contract.r4_scopes),
        "R5" => scope_count(&contract.r5_scopes),
        "R6" => scope_count(&contract.r6_scopes),
        "R7" => scope_count(&contract.r7_scopes),
        "R8" | "R9" | "R11+R12" => sources.len(),
        "R10" => contract
            .dataflow
            .as_ref()
            .map(|d| sources.iter().filter(|(p, _)| d.in_scope(p)).count())
            .unwrap_or(0),
        _ => 0,
    }
}

/// The `--timings` report over one shared parse: the `parse` and
/// `callgraph` rows from `spent` (as [`Workspace::parse_timed`] returns
/// it), then one row per rule, each that pass alone over `ws` timed on
/// `now_nanos`. The empty allowlist keeps suppression cost out of the
/// rule rows.
pub fn timings(
    sources: &[(String, String)],
    ws: &Workspace<'_>,
    [parse_ns, graph_ns]: [u64; 2],
    contract: &Contract,
    now_nanos: &dyn Fn() -> u64,
) -> String {
    let no_allow = AllowList::empty();
    let ms = |ns: u64| ns as f64 / 1e6;
    let n = sources.len();
    let mut out = String::from("detlint: per-rule timings:\n");
    let _ = writeln!(
        out,
        "detlint:   {:<7} {:>9.2}ms  {n} file(s), {} KiB, {} token(s) — lexed and parsed once, shared by every row",
        "parse",
        ms(parse_ns),
        sources.iter().map(|(_, src)| src.len()).sum::<usize>().div_ceil(1024),
        ws.files.iter().map(|f| count_tokens(&f.trees)).sum::<usize>(),
    );
    let _ = writeln!(
        out,
        "detlint:   {:<7} {:>9.2}ms  {n} file(s), {} node(s) — built once, shared by R5/R9/R11+R12",
        "callgraph",
        ms(graph_ns),
        ws.graph.nodes.len(),
    );
    for (name, rule_contract) in per_rule_contracts(contract) {
        let n = files_for_rule(name, contract, sources);
        let t0 = now_nanos();
        let _ = lint_parsed(ws, &rule_contract, &no_allow);
        let dt = now_nanos().saturating_sub(t0);
        let _ = writeln!(out, "detlint:   {name:<7} {:>9.2}ms  {n} file(s)", ms(dt));
    }
    out
}

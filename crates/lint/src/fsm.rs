//! R9 — protocol state-machine conformance.
//!
//! `specs/recovery-protocol.toml` declares the recovery protocol as an
//! explicit state machine: states, per-role message transitions, and the
//! initial state. This pass recovers the *implemented* transition
//! relation from the AST of every file a `[[role]]` owns —
//!
//! - a match arm whose pattern names `Enum::Variant` is a **receive**
//!   site, classified by its body: *handled* (real logic), *ignored*
//!   (empty body), or *rejected* (body counts a protocol-error metric);
//! - an expression-position `Enum::Variant` construction is a **send**
//!   site (pattern positions inside `let`/`if let` and macro arguments
//!   are excluded);
//! - `Codec::decode(..)` is a receive and `Codec::new(..)`/
//!   `Codec::encode(..)` a send for declared codec structs
//!   (`FailoverNotice`).
//!
//! The relation is diffed against the spec at `(role, direction,
//! message)` granularity, producing four finding categories: **missing
//! handler** (spec transition with no code site), **undeclared
//! transition** (handled/send site with no spec transition, reported
//! with an R5-style hop-by-hop evidence chain from a call-graph entry
//! point), **unreachable state** (no path from the initial state), and
//! **dead message variant** (enum variant in no transition at all).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use synlite::ast::{Item, ItemKind, MatchArm};
use synlite::{Delim, Span, Tok, TokenTree};
use tomlite::TomlError;

use crate::callgraph::{CallGraph, FileAst};
use crate::{json_escape, Finding};

/// Configuration for the R9 pass.
#[derive(Clone, Debug)]
pub struct FsmConfig {
    /// Workspace-relative path of the spec file (used in finding paths).
    pub spec_path: String,
    /// The spec text; `None` disables the pass (the workspace driver
    /// fills it from `spec_path`, fixtures inject it directly).
    pub spec_src: Option<String>,
    /// Protocol enums whose variants are transition messages.
    pub enums: Vec<String>,
    /// Codec structs treated as messages (`decode` = recv, `new`/
    /// `encode` = send).
    pub codec_structs: Vec<String>,
    /// Substrings of metric/string literals marking an arm as an
    /// explicit protocol-error rejection rather than a handler.
    pub reject_markers: Vec<String>,
}

impl Default for FsmConfig {
    fn default() -> Self {
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        FsmConfig {
            spec_path: "specs/recovery-protocol.toml".to_string(),
            spec_src: None,
            enums: strs(&["GcsWire", "GroupMsg"]),
            codec_structs: strs(&["FailoverNotice"]),
            reject_markers: strs(&["protocol_error", "bad_group_msg"]),
        }
    }
}

/// Message direction, from the role's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dir {
    /// The role sends the message.
    Send,
    /// The role receives the message.
    Recv,
}

impl Dir {
    fn verb(self) -> &'static str {
        match self {
            Dir::Send => "sends",
            Dir::Recv => "receives",
        }
    }

    fn key(self) -> &'static str {
        match self {
            Dir::Send => "send",
            Dir::Recv => "recv",
        }
    }
}

/// One declared state.
#[derive(Clone, Debug)]
pub struct SpecState {
    /// State name.
    pub name: String,
    /// `[[state]]` header line in the spec file.
    pub line: u32,
}

/// One declared role.
#[derive(Clone, Debug)]
pub struct SpecRole {
    /// Role name.
    pub name: String,
    /// Workspace-relative file or directory prefix the role owns.
    pub path: String,
}

/// One declared transition.
#[derive(Clone, Debug)]
pub struct SpecTransition {
    /// Source state.
    pub from: String,
    /// Destination state.
    pub to: String,
    /// Acting role.
    pub role: String,
    /// Direction.
    pub dir: Dir,
    /// Message (`Enum::Variant` or a codec struct name).
    pub msg: String,
    /// Cells the handler may read (recv transitions only; R11).
    pub reads: Vec<String>,
    /// Cells the handler may write (recv transitions only; R11).
    pub writes: Vec<String>,
    /// `[[transition]]` header line in the spec file.
    pub line: u32,
}

/// Commutativity kinds an abstract state cell may declare.
pub const CELL_KINDS: [&str; 6] = ["counter", "set", "map", "queue", "scalar", "dedup"];

/// One declared abstract state cell (the effect vocabulary for R11/R12).
#[derive(Clone, Debug)]
pub struct SpecCell {
    /// Cell name, referenced by transition `reads`/`writes` clauses.
    pub name: String,
    /// Commutativity kind, one of [`CELL_KINDS`].
    pub kind: String,
    /// Concrete fields the cell abstracts: `Type::field` or bare `field`.
    pub fields: Vec<String>,
    /// `[[cell]]` header line in the spec file.
    pub line: u32,
}

/// A parsed, validated protocol spec.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Machine name.
    pub name: String,
    /// Initial state.
    pub initial: String,
    /// Declared states.
    pub states: Vec<SpecState>,
    /// Declared roles.
    pub roles: Vec<SpecRole>,
    /// Declared abstract state cells.
    pub cells: Vec<SpecCell>,
    /// Declared transitions.
    pub transitions: Vec<SpecTransition>,
}

/// How a receive site treats the matched message.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SiteKind {
    /// Real handling logic (or any send site).
    Handled,
    /// Explicitly matched and dropped (`=> {}`).
    Ignored,
    /// Matched and counted as a protocol error.
    Rejected,
}

/// One extracted code site.
#[derive(Clone, Debug)]
pub struct CodeSite {
    /// Owning role name.
    pub role: String,
    /// File the site lives in.
    pub path: String,
    /// Position of the message name.
    pub span: Span,
    /// Direction.
    pub dir: Dir,
    /// Message (`Enum::Variant` or codec struct name).
    pub msg: String,
    /// Receive classification (always `Handled` for sends).
    pub kind: SiteKind,
    /// Qualified name of the enclosing function.
    pub fn_qual: String,
}

/// The full R9 result: findings plus the extracted relation (for
/// `--fsm-report`).
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Conformance findings.
    pub findings: Vec<Finding>,
    /// The parsed spec.
    pub spec: Spec,
    /// Every extracted site (all kinds), in deterministic order.
    pub sites: Vec<CodeSite>,
}

/// Parses and validates the spec text. Only the five sections and the
/// keys listed in DESIGN §9 are accepted, so a misspelled key fails here
/// instead of silently emptying a cell or transition.
///
/// # Errors
///
/// A [`TomlError`] (detlint exits 2) at the offending line: a syntax
/// error's own line, or the header of the section a schema error is in.
pub fn parse_spec(src: &str) -> Result<Spec, TomlError> {
    let doc = tomlite::parse(src)?;
    let root = doc.root();
    root.reject_unknown(&["machine", "state", "role", "cell", "transition"])?;
    let machine = root
        .table("machine")?
        .ok_or_else(|| root.error("spec is missing the `[machine]` table"))?;
    machine.reject_unknown(&["name", "initial"])?;
    let name = machine.str_req("name")?.to_string();
    let initial = machine.str_req("initial")?.to_string();

    let mut states = Vec::new();
    for r in root.tables("state")? {
        r.reject_unknown(&["name", "about"])?;
        let name = r.str_req("name")?.to_string();
        if states.iter().any(|s: &SpecState| s.name == name) {
            return Err(r.error(format!("duplicate state `{name}`")));
        }
        states.push(SpecState {
            name,
            line: r.line(),
        });
    }
    let mut roles = Vec::new();
    for r in root.tables("role")? {
        r.reject_unknown(&["name", "path"])?;
        let name = r.str_req("name")?.to_string();
        let path = r.str_req("path")?.to_string();
        if roles.iter().any(|role: &SpecRole| role.name == name) {
            return Err(r.error(format!("duplicate role `{name}`")));
        }
        roles.push(SpecRole { name, path });
    }
    let state_names: BTreeSet<&str> = states.iter().map(|s| s.name.as_str()).collect();
    if !state_names.contains(initial.as_str()) {
        return Err(machine.error(format!(
            "initial state `{initial}` is not a declared [[state]]"
        )));
    }
    let mut cells: Vec<SpecCell> = Vec::new();
    for r in root.tables("cell")? {
        r.reject_unknown(&["name", "kind", "fields"])?;
        let name = r.str_req("name")?.to_string();
        let kind = r.str_req("kind")?.to_string();
        if !CELL_KINDS.contains(&kind.as_str()) {
            return Err(r.error(format!(
                "cell `{name}` has unknown kind `{kind}` (expected one of {})",
                CELL_KINDS.join("/")
            )));
        }
        if cells.iter().any(|c| c.name == name) {
            return Err(r.error(format!("duplicate cell `{name}`")));
        }
        cells.push(SpecCell {
            name,
            kind,
            fields: r.str_array("fields")?,
            line: r.line(),
        });
    }
    let cell_names: BTreeSet<&str> = cells.iter().map(|c| c.name.as_str()).collect();
    let mut transitions = Vec::new();
    for r in root.tables("transition")? {
        r.reject_unknown(&["from", "to", "role", "send", "recv", "reads", "writes"])?;
        let from = r.str_req("from")?.to_string();
        let to = r.str_req("to")?.to_string();
        let role = r.str_req("role")?.to_string();
        for s in [&from, &to] {
            if !state_names.contains(s.as_str()) {
                return Err(r.error(format!("transition references undeclared state `{s}`")));
            }
        }
        if !roles.iter().any(|r| r.name == role) {
            return Err(r.error(format!("transition references undeclared role `{role}`")));
        }
        let (dir, msg) = match (r.get("send"), r.get("recv")) {
            (Some(v), None) => (Dir::Send, v),
            (None, Some(v)) => (Dir::Recv, v),
            _ => return Err(r.error("transition needs exactly one of `send`/`recv`")),
        };
        let msg = msg
            .as_str()
            .ok_or_else(|| r.error("`send`/`recv` must be a string message name"))?
            .to_string();
        let reads = r.str_array("reads")?;
        let writes = r.str_array("writes")?;
        if dir == Dir::Send && (!reads.is_empty() || !writes.is_empty()) {
            return Err(
                r.error("effect clauses (`reads`/`writes`) are only valid on recv transitions")
            );
        }
        for cell in reads.iter().chain(writes.iter()) {
            if !cell_names.contains(cell.as_str()) {
                return Err(r.error(format!("transition references undeclared cell `{cell}`")));
            }
        }
        transitions.push(SpecTransition {
            from,
            to,
            role,
            dir,
            msg,
            reads,
            writes,
            line: r.line(),
        });
    }
    Ok(Spec {
        name,
        initial,
        states,
        roles,
        cells,
        transitions,
    })
}

/// Runs the full R9 analysis over the parsed workspace. `graph` is the
/// shared workspace call graph (built once per detlint invocation).
pub fn check(
    files: &[FileAst],
    cfg: &FsmConfig,
    spec_src: &str,
    graph: &CallGraph,
) -> Result<Analysis, TomlError> {
    let spec = parse_spec(spec_src)?;
    let enums: BTreeSet<&str> = cfg.enums.iter().map(String::as_str).collect();
    let codecs: BTreeSet<&str> = cfg.codec_structs.iter().map(String::as_str).collect();

    // Enum-variant inventory (for site matching and dead-variant checks)
    // from every parsed file, wherever the enum is declared.
    let mut variants: BTreeMap<String, Vec<(String, String, Span)>> = BTreeMap::new();
    let mut codec_decls: BTreeMap<String, (String, Span)> = BTreeMap::new();
    for file in files {
        collect_decls(
            file.path,
            &file.items,
            &enums,
            &codecs,
            &mut variants,
            &mut codec_decls,
        );
    }
    let variant_names: BTreeMap<&str, BTreeSet<&str>> = variants
        .iter()
        .map(|(e, vs)| {
            (
                e.as_str(),
                vs.iter()
                    .map(|(v, _, _)| v.as_str())
                    .collect::<BTreeSet<&str>>(),
            )
        })
        .collect();

    // Extract code sites from each role's files.
    let mut sites: Vec<CodeSite> = Vec::new();
    for file in files {
        let Some(role) = owning_role(&spec.roles, file.path) else {
            continue;
        };
        let mut scanner = Scanner {
            variant_names: &variant_names,
            codecs: &codecs,
            reject_markers: &cfg.reject_markers,
            raw: Vec::new(),
        };
        scan_items(&file.items, None, &mut scanner);
        for raw in scanner.raw {
            sites.push(CodeSite {
                role: role.to_string(),
                path: file.path.to_string(),
                span: raw.span,
                dir: raw.dir,
                msg: raw.msg,
                kind: raw.kind,
                fn_qual: raw.fn_qual,
            });
        }
    }
    sites.sort_by(|a, b| (&a.path, a.span, &a.msg, a.dir).cmp(&(&b.path, b.span, &b.msg, b.dir)));

    let mut findings = Vec::new();
    diff_missing(&spec, &sites, cfg, &mut findings);
    diff_undeclared(&spec, &sites, cfg, graph, &mut findings);
    diff_unreachable(&spec, cfg, &mut findings);
    diff_dead_variants(&spec, &variants, &codec_decls, &mut findings);

    Ok(Analysis {
        findings,
        spec,
        sites,
    })
}

/// The role owning `path`: longest declared path prefix wins.
fn owning_role<'a>(roles: &'a [SpecRole], path: &str) -> Option<&'a str> {
    roles
        .iter()
        .filter(|r| {
            path == r.path || path.starts_with(&format!("{}/", r.path.trim_end_matches('/')))
        })
        .max_by_key(|r| r.path.len())
        .map(|r| r.name.as_str())
}

fn collect_decls(
    path: &str,
    items: &[Item],
    enums: &BTreeSet<&str>,
    codecs: &BTreeSet<&str>,
    variants: &mut BTreeMap<String, Vec<(String, String, Span)>>,
    codec_decls: &mut BTreeMap<String, (String, Span)>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Enum(e) if enums.contains(e.name) => {
                let entry = variants.entry(e.name.to_string()).or_default();
                for v in &e.variants {
                    entry.push((v.name.to_string(), path.to_string(), v.span));
                }
            }
            ItemKind::Struct(s) if codecs.contains(s.name) => {
                codec_decls
                    .entry(s.name.to_string())
                    .or_insert((path.to_string(), item.span));
            }
            ItemKind::Mod(m) => collect_decls(path, &m.items, enums, codecs, variants, codec_decls),
            ItemKind::Impl(_) | ItemKind::Fn(_) | ItemKind::Enum(_) | ItemKind::Struct(_) => {}
        }
    }
}

struct RawSite {
    span: Span,
    dir: Dir,
    msg: String,
    kind: SiteKind,
    fn_qual: String,
}

struct Scanner<'a> {
    variant_names: &'a BTreeMap<&'a str, BTreeSet<&'a str>>,
    codecs: &'a BTreeSet<&'a str>,
    reject_markers: &'a [String],
    raw: Vec<RawSite>,
}

fn scan_items(items: &[Item], self_ty: Option<&str>, scanner: &mut Scanner<'_>) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(f) => {
                if let Some(body) = &f.body {
                    let qual = match self_ty {
                        Some(ty) => format!("{ty}::{}", f.name),
                        None => f.name.to_string(),
                    };
                    scan_tokens(body, Mode::Expr, &qual, scanner);
                }
            }
            ItemKind::Impl(b) => scan_items(&b.items, Some(b.self_ty), scanner),
            ItemKind::Mod(m) => scan_items(&m.items, None, scanner),
            ItemKind::Enum(_) | ItemKind::Struct(_) => {}
        }
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Expr,
    Pattern(SiteKind),
}

fn scan_tokens(trees: &[TokenTree], mode: Mode, fn_qual: &str, scanner: &mut Scanner<'_>) {
    let mut i = 0usize;
    while i < trees.len() {
        let t = &trees[i];
        // Macro invocation `name!(..)`: arguments are neither expressions
        // nor patterns of ours (`matches!`, `format!`); skip wholesale.
        if t.ident().is_some()
            && matches!(trees.get(i + 1), Some(n) if n.is_punct('!'))
            && matches!(trees.get(i + 2), Some(n) if matches!(n.tok, Tok::Group(..)))
        {
            i += 3;
            continue;
        }
        if let Mode::Expr = mode {
            // `let PAT = ..`: the pattern is not a receive site.
            if t.is_ident("let") {
                i += 1;
                while i < trees.len() {
                    if trees[i].is_punct(';') {
                        break;
                    }
                    if trees[i].is_punct('=')
                        && !matches!(trees.get(i + 1), Some(n) if n.is_punct('='))
                    {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                continue;
            }
            // `match SCRUT { arms }`.
            if t.is_ident("match") {
                let mut b = i + 1;
                while b < trees.len() && trees[b].group(Delim::Brace).is_none() {
                    b += 1;
                }
                scan_tokens(
                    &trees[i + 1..b.min(trees.len())],
                    Mode::Expr,
                    fn_qual,
                    scanner,
                );
                if let Some(arms_body) = trees.get(b).and_then(|t| t.group(Delim::Brace)) {
                    for arm in synlite::ast::match_arms(arms_body) {
                        scan_arm(&arm, fn_qual, scanner);
                    }
                }
                i = b + 1;
                continue;
            }
        }
        // `Enum::Variant` / `Codec::method`.
        if let Some(head) = t.ident() {
            let qualified = matches!(trees.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(trees.get(i + 2), Some(n) if n.is_punct(':'));
            if qualified {
                if let Some(tail) = trees.get(i + 3).and_then(|n| n.ident()) {
                    if scanner
                        .variant_names
                        .get(head)
                        .map(|vs| vs.contains(tail))
                        .unwrap_or(false)
                    {
                        let (dir, kind) = match mode {
                            Mode::Expr => (Dir::Send, SiteKind::Handled),
                            Mode::Pattern(k) => (Dir::Recv, k),
                        };
                        scanner.raw.push(RawSite {
                            span: t.span,
                            dir,
                            msg: format!("{head}::{tail}"),
                            kind,
                            fn_qual: fn_qual.to_string(),
                        });
                        i += 4;
                        continue;
                    }
                    if scanner.codecs.contains(head) {
                        let dir = match tail {
                            "decode" => Some(Dir::Recv),
                            "new" | "encode" | "encode_into" => Some(Dir::Send),
                            _ => None,
                        };
                        if let Some(dir) = dir {
                            scanner.raw.push(RawSite {
                                span: t.span,
                                dir,
                                msg: head.to_string(),
                                kind: SiteKind::Handled,
                                fn_qual: fn_qual.to_string(),
                            });
                        }
                        i += 4;
                        continue;
                    }
                }
            }
        }
        if let Tok::Group(_, inner) = &t.tok {
            scan_tokens(inner, mode, fn_qual, scanner);
        }
        i += 1;
    }
}

fn scan_arm(arm: &MatchArm<'_, '_>, fn_qual: &str, scanner: &mut Scanner<'_>) {
    // Split a trailing `if` guard off the pattern.
    let guard_at = top_level_if(arm.pattern);
    let (pattern, guard) = match guard_at {
        Some(g) => (&arm.pattern[..g], &arm.pattern[g + 1..]),
        None => (arm.pattern, &arm.pattern[arm.pattern.len()..]),
    };
    let kind = classify_arm_body(arm.body, scanner.reject_markers);
    scan_tokens(pattern, Mode::Pattern(kind), fn_qual, scanner);
    scan_tokens(guard, Mode::Expr, fn_qual, scanner);
    scan_tokens(arm.body, Mode::Expr, fn_qual, scanner);
}

fn top_level_if(pattern: &[TokenTree]) -> Option<usize> {
    pattern.iter().position(|t| t.is_ident("if"))
}

/// Handled / ignored / rejected, from the arm body's tokens.
///
/// An arm counts as *rejected* only when its **leading statement** (the
/// tokens before the first top-level `;` of the arm body) mentions a
/// reject marker — catch-all error arms lead with the rejection. A
/// marker deeper in the arm is a guarded corner case inside a genuine
/// handler (e.g. a handler that rejects only when some state is
/// missing), and must not demote the whole arm.
fn classify_arm_body(body: &[TokenTree], reject_markers: &[String]) -> SiteKind {
    fn has_marker(trees: &[TokenTree], markers: &[String]) -> bool {
        trees.iter().any(|t| match &t.tok {
            Tok::Lit(l) => markers.iter().any(|m| l.contains(m.as_str())),
            Tok::Group(_, inner) => has_marker(inner, markers),
            _ => false,
        })
    }
    fn count_leaves(trees: &[TokenTree]) -> usize {
        trees
            .iter()
            .map(|t| match &t.tok {
                Tok::Group(_, inner) => count_leaves(inner),
                _ => 1,
            })
            .sum()
    }
    if count_leaves(body) == 0 {
        return SiteKind::Ignored;
    }
    // Unwrap a `{ ... }` arm body to see its statement list.
    let stmts: &[TokenTree] = match body {
        [one] => one.group(Delim::Brace).unwrap_or(body),
        _ => body,
    };
    let lead_end = stmts
        .iter()
        .position(|t| matches!(&t.tok, Tok::Punct(';')))
        .map(|p| p + 1)
        .unwrap_or(stmts.len());
    if has_marker(&stmts[..lead_end], reject_markers) {
        return SiteKind::Rejected;
    }
    SiteKind::Handled
}

// ------------------------------------------------------------ diffing

type Tuple<'a> = (&'a str, Dir, &'a str);

fn tuple_of(site: &CodeSite) -> Tuple<'_> {
    (site.role.as_str(), site.dir, site.msg.as_str())
}

fn diff_missing(spec: &Spec, sites: &[CodeSite], cfg: &FsmConfig, out: &mut Vec<Finding>) {
    let implemented: BTreeSet<Tuple<'_>> = sites
        .iter()
        .filter(|s| s.kind == SiteKind::Handled)
        .map(tuple_of)
        .collect();
    let mut seen: BTreeSet<Tuple<'_>> = BTreeSet::new();
    for t in &spec.transitions {
        let key = (t.role.as_str(), t.dir, t.msg.as_str());
        if implemented.contains(&key) || !seen.insert(key) {
            continue;
        }
        let role_path = spec
            .roles
            .iter()
            .find(|r| r.name == t.role)
            .map(|r| r.path.as_str())
            .unwrap_or("?");
        let mut message = format!(
            "missing handler: spec transition `{}` {} `{}` ({} -> {}) has no {} in `{}`",
            t.role,
            t.dir.verb(),
            t.msg,
            t.from,
            t.to,
            match t.dir {
                Dir::Recv => "matching receive handler",
                Dir::Send => "send site",
            },
            role_path,
        );
        // If the message *is* matched but only ignored/rejected, say so —
        // that is the actionable hop.
        if let Some(site) = sites
            .iter()
            .find(|s| tuple_of(s) == key && s.kind != SiteKind::Handled)
        {
            let how = match site.kind {
                SiteKind::Ignored => "explicitly ignored",
                SiteKind::Rejected => "treated as a protocol error",
                SiteKind::Handled => unreachable!(),
            };
            let _ = write!(
                message,
                "; the message is matched but {how} at {}:{}",
                site.path, site.span.line
            );
        }
        out.push(Finding {
            rule: "R9",
            path: cfg.spec_path.clone(),
            line: t.line,
            col: 1,
            message,
        });
    }
}

fn diff_undeclared(
    spec: &Spec,
    sites: &[CodeSite],
    cfg: &FsmConfig,
    graph: &CallGraph,
    out: &mut Vec<Finding>,
) {
    let declared: BTreeSet<(&str, Dir, &str)> = spec
        .transitions
        .iter()
        .map(|t| (t.role.as_str(), t.dir, t.msg.as_str()))
        .collect();
    for site in sites {
        if site.kind != SiteKind::Handled || declared.contains(&tuple_of(site)) {
            continue;
        }
        let mut message = format!(
            "undeclared transition: role `{}` {} `{}` in `{}` but the spec (`{}`) declares no \
             such transition",
            site.role,
            site.dir.verb(),
            site.msg,
            site.fn_qual,
            cfg.spec_path,
        );
        let _ = write!(message, "{}", evidence_chain(graph, site));
        out.push(Finding {
            rule: "R9",
            path: site.path.clone(),
            line: site.span.line,
            col: site.span.col,
            message,
        });
    }
}

/// An R5-style hop chain from a call-graph entry point down to the
/// function containing `site`: `; reached via \`a\` (f:l) -> \`b\` (f:l)`.
fn evidence_chain(graph: &CallGraph, site: &CodeSite) -> String {
    let Some(target) = graph
        .nodes
        .iter()
        .position(|n| n.file == site.path && n.qual == site.fn_qual)
    else {
        return String::new();
    };
    // Reverse adjacency: callee -> (caller, call-site span).
    let mut callers: BTreeMap<usize, Vec<(usize, Span)>> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        for edge in &node.calls {
            for &c in &edge.callees {
                callers.entry(c).or_default().push((i, edge.span));
            }
        }
    }
    // BFS upward to the first node with no callers; parent pointers give
    // the chain. Node order is deterministic, so so is the chain.
    let mut parent: BTreeMap<usize, (usize, Span)> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([target]);
    let mut seen = BTreeSet::from([target]);
    let mut root = target;
    while let Some(n) = queue.pop_front() {
        let Some(ins) = callers.get(&n).filter(|v| !v.is_empty()) else {
            root = n;
            break;
        };
        for &(caller, at) in ins {
            if seen.insert(caller) {
                parent.insert(caller, (n, at));
                queue.push_back(caller);
            }
        }
    }
    if root == target {
        return String::new();
    }
    let mut hops = vec![root];
    let mut cur = root;
    while let Some(&(next, _)) = parent.get(&cur) {
        hops.push(next);
        cur = next;
        if next == target {
            break;
        }
    }
    let rendered: Vec<String> = hops
        .iter()
        .map(|&i| {
            let n = &graph.nodes[i];
            format!("`{}` ({}:{})", n.qual, n.file, n.span.line)
        })
        .collect();
    format!("; reached via {}", rendered.join(" -> "))
}

fn diff_unreachable(spec: &Spec, cfg: &FsmConfig, out: &mut Vec<Finding>) {
    let mut reach: BTreeSet<&str> = BTreeSet::from([spec.initial.as_str()]);
    loop {
        let before = reach.len();
        for t in &spec.transitions {
            if reach.contains(t.from.as_str()) {
                reach.insert(t.to.as_str());
            }
        }
        if reach.len() == before {
            break;
        }
    }
    for s in &spec.states {
        if !reach.contains(s.name.as_str()) {
            out.push(Finding {
                rule: "R9",
                path: cfg.spec_path.clone(),
                line: s.line,
                col: 1,
                message: format!(
                    "unreachable state: `{}` has no path from initial state `{}` in the \
                     declared transition relation",
                    s.name, spec.initial
                ),
            });
        }
    }
}

fn diff_dead_variants(
    spec: &Spec,
    variants: &BTreeMap<String, Vec<(String, String, Span)>>,
    codec_decls: &BTreeMap<String, (String, Span)>,
    out: &mut Vec<Finding>,
) {
    let used: BTreeSet<&str> = spec.transitions.iter().map(|t| t.msg.as_str()).collect();
    for (enum_name, vs) in variants {
        for (variant, path, span) in vs {
            let msg = format!("{enum_name}::{variant}");
            if !used.contains(msg.as_str()) {
                out.push(Finding {
                    rule: "R9",
                    path: path.clone(),
                    line: span.line,
                    col: span.col,
                    message: format!(
                        "dead message variant: `{msg}` appears in no spec transition — \
                         either remove the variant or declare its transition"
                    ),
                });
            }
        }
    }
    for (codec, (path, span)) in codec_decls {
        if !used.contains(codec.as_str()) {
            out.push(Finding {
                rule: "R9",
                path: path.clone(),
                line: span.line,
                col: span.col,
                message: format!(
                    "dead message codec: `{codec}` appears in no spec transition — \
                     either remove the codec or declare its transition"
                ),
            });
        }
    }
}

// ------------------------------------------------------------- report

/// Renders the extracted relation + spec as JSON for `--fsm-report`.
pub fn report_json(analysis: &Analysis) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"detlint-fsm/1\",\n");
    let _ = writeln!(
        out,
        "  \"machine\": \"{}\",",
        json_escape(&analysis.spec.name)
    );
    let _ = writeln!(
        out,
        "  \"initial\": \"{}\",",
        json_escape(&analysis.spec.initial)
    );
    out.push_str("  \"states\": [");
    for (i, s) in analysis.spec.states.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\"", json_escape(&s.name));
    }
    out.push_str("],\n  \"spec_transitions\": [\n");
    for (i, t) in analysis.spec.transitions.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"role\": \"{}\", \"dir\": \"{}\", \"msg\": \"{}\", \"from\": \"{}\", \
             \"to\": \"{}\"}}{}",
            json_escape(&t.role),
            t.dir.key(),
            json_escape(&t.msg),
            json_escape(&t.from),
            json_escape(&t.to),
            if i + 1 < analysis.spec.transitions.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  ],\n  \"code_sites\": [\n");
    for (i, s) in analysis.sites.iter().enumerate() {
        let kind = match s.kind {
            SiteKind::Handled => "handled",
            SiteKind::Ignored => "ignored",
            SiteKind::Rejected => "rejected",
        };
        let _ = writeln!(
            out,
            "    {{\"role\": \"{}\", \"dir\": \"{}\", \"msg\": \"{}\", \"kind\": \"{}\", \
             \"fn\": \"{}\", \"path\": \"{}\", \"line\": {}}}{}",
            json_escape(&s.role),
            s.dir.key(),
            json_escape(&s.msg),
            kind,
            json_escape(&s.fn_qual),
            json_escape(&s.path),
            s.span.line,
            if i + 1 < analysis.sites.len() {
                ","
            } else {
                ""
            }
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"findings\": {}", analysis.findings.len());
    out.push_str("}\n");
    out
}

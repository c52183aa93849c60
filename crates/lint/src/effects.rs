//! R11/R12 — static effect and independence analysis over protocol
//! handlers.
//!
//! The spec (`specs/recovery-protocol.toml`) declares a vocabulary of
//! **abstract state cells** (`[[cell]]`: a name, a commutativity kind,
//! and the concrete struct fields it abstracts) and, on every `recv`
//! transition, the cells the handler is allowed to `reads`/`writes`.
//! This pass recovers each handler's *actual* footprint from the AST —
//! direct field accesses via [`synlite::ast::field_accesses`], closed
//! interprocedurally over the shared workspace [`CallGraph`] — and
//! checks two properties:
//!
//! - **R11 — effect-footprint conformance.** A handled receive site
//!   whose computed footprint touches a declared cell outside the
//!   spec'd `reads`/`writes` of its `(role, message)` transitions is a
//!   finding: the handler mutates state the protocol design says it
//!   must not.
//! - **R12 — retry idempotence.** Messages re-sent by a retry path
//!   (the client reconnect/re-attach logic re-issues `Attach`, standing
//!   `Join`s and the backlog after capped backoff; ORB invocations are
//!   retried the same way) can be *delivered twice*. A handler of such
//!   a message that writes a non-commutative cell (kind `map`, `queue`
//!   or `scalar`) without touching any `dedup`-kind cell cannot be
//!   proven idempotent and is flagged. `counter` cells are tolerated
//!   (metric drift, not protocol state) and `set` writes are
//!   idempotent by construction.
//!
//! The same machinery derives the **conflict relation** artifact
//! (schema `conflict-relation/1`, CLI `--conflict-report`): pairs of
//! kernel wake-up classes that provably commute, which
//! `explore --conflict-relation` loads to prune redundant DPOR-lite
//! branches. The only pair derived today is the identical-twin
//! `notify:data_readable` pair on the same connection, emitted iff
//! every role's data-readable path is *drain-idempotent*: each
//! `.read(..)` call in role-owned code drains the socket fully
//! (`usize::MAX`), so re-delivering the same wake-up finds no residual
//! bytes and is a no-op.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use synlite::ast::{self, AccessMode};
use synlite::{Delim, Tok, TokenTree};

use crate::callgraph::CallGraph;
use crate::fsm::{Analysis, Dir, SiteKind, Spec, SpecCell};
use crate::rules::contains_ident;
use crate::{json_escape, Finding};

/// Configuration for the R11/R12 pass.
#[derive(Clone, Debug)]
pub struct EffectsConfig {
    /// Qualified (`Type::fn`) or bare function names rooting the retry
    /// paths: every send site reachable from one of these marks its
    /// message as retry-exposed for R12.
    pub retry_roots: Vec<String>,
    /// Method names that mutate their receiver (`x.cell.insert(..)`
    /// counts as a write to `cell`).
    pub mutating_methods: Vec<String>,
}

impl Default for EffectsConfig {
    fn default() -> Self {
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        EffectsConfig {
            // The GCS client re-issues Attach/Join/backlog after a
            // reconnect (capped backoff timer), and the ORB client
            // re-invokes after backoff: handlers of anything those paths
            // send must tolerate duplicate delivery.
            retry_roots: strs(&["GcsClient::handle_event", "ClientOrb::invoke"]),
            mutating_methods: strs(&[
                "push",
                "push_back",
                "push_front",
                "pop",
                "pop_back",
                "pop_front",
                "insert",
                "remove",
                "take",
                "replace",
                "clear",
                "extend",
                "drain",
                "retain",
                "append",
                "truncate",
                "entry",
                "get_mut",
                "push_incoming",
                "sort",
                "sort_by",
                "reset",
            ]),
        }
    }
}

/// Per-function effect masks over the declared cell vocabulary (bit `i`
/// = cell `i` in spec declaration order; at most 64 cells).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EffectMask {
    /// Cells read.
    pub reads: u64,
    /// Cells written.
    pub writes: u64,
}

impl EffectMask {
    fn union(self, other: EffectMask) -> EffectMask {
        EffectMask {
            reads: self.reads | other.reads,
            writes: self.writes | other.writes,
        }
    }
}

/// Cell-name lookup tables derived from the spec.
struct CellTable<'a> {
    cells: &'a [SpecCell],
    /// `Type::field` → cell index (qualified declarations).
    qualified: BTreeMap<&'a str, usize>,
    /// `field` → cell index (bare declarations).
    bare: BTreeMap<&'a str, usize>,
}

impl<'a> CellTable<'a> {
    fn new(cells: &'a [SpecCell]) -> CellTable<'a> {
        let mut qualified = BTreeMap::new();
        let mut bare = BTreeMap::new();
        for (i, cell) in cells.iter().enumerate().take(64) {
            for field in &cell.fields {
                if field.contains("::") {
                    qualified.insert(field.as_str(), i);
                } else {
                    bare.insert(field.as_str(), i);
                }
            }
        }
        CellTable {
            cells,
            qualified,
            bare,
        }
    }

    fn mask_of(&self, name: &str) -> u64 {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(|i| 1u64 << i)
            .unwrap_or(0)
    }

    fn kind_mask(&self, kinds: &[&str]) -> u64 {
        let mut mask = 0u64;
        for (i, cell) in self.cells.iter().enumerate().take(64) {
            if kinds.contains(&cell.kind.as_str()) {
                mask |= 1 << i;
            }
        }
        mask
    }

    fn names(&self, mask: u64) -> Vec<&str> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, c)| c.name.as_str())
            .collect()
    }
}

/// The computed interprocedural effect closure: one mask per call-graph
/// node, in node order.
pub struct EffectClosure<'g> {
    masks: Vec<EffectMask>,
    /// (file, qual) → node index, for handler lookup.
    by_site: BTreeMap<(&'g str, &'g str), usize>,
}

impl EffectClosure<'_> {
    /// The closed effect mask of the node implementing `qual` in `file`,
    /// if the call graph has it.
    pub fn of(&self, file: &str, qual: &str) -> Option<EffectMask> {
        self.by_site.get(&(file, qual)).map(|&i| self.masks[i])
    }
}

/// Computes direct effects per node and closes them over the call graph
/// (iterative fixpoint; the graph is small and the mask lattice flat).
///
/// The closure follows call edges only between functions in the
/// **same role-owned file**. That matches both the cell model and the
/// resolution the call graph can actually deliver: a role is one file
/// (the spec's `[[role]]` table), cells abstract fields of that file's
/// structs, and those fields are only accessible by name inside it —
/// role code never hands `&mut self` to infrastructure (it passes
/// `&mut dyn SysApi`), so an out-of-file callee cannot touch the
/// caller's cells. The restriction is also what keeps the closure
/// *useful*: method calls resolve by bare receiver-less name, so an
/// unrestricted fixpoint walks `sys.write` into the interceptors'
/// SysApi facade impls (every role file calls `write`/`read`/`count`)
/// and through the kernel's dynamic `Process::on_event` dispatch,
/// merging all footprints into one.
pub fn effect_closure<'g>(
    graph: &'g CallGraph,
    spec: &Spec,
    cfg: &EffectsConfig,
) -> EffectClosure<'g> {
    let table = CellTable::new(&spec.cells);
    let mutating: BTreeSet<&str> = cfg.mutating_methods.iter().map(String::as_str).collect();
    let role_node: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| role_owned(spec, n.file))
        .collect();
    let mut masks: Vec<EffectMask> = graph
        .nodes
        .iter()
        .map(|node| {
            let self_ty = node.qual.rsplit_once("::").map(|(ty, _)| ty);
            direct_effects(&node.body, self_ty, &table, &mutating)
        })
        .collect();

    // Fixpoint: union every callee's mask into its caller until stable.
    // Deterministic regardless of iteration order (pure unions).
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            let mut acc = masks[i];
            for edge in &graph.nodes[i].calls {
                for &callee in &edge.callees {
                    if role_node[callee] && graph.nodes[callee].file == graph.nodes[i].file {
                        acc = acc.union(masks[callee]);
                    }
                }
            }
            if acc != masks[i] {
                masks[i] = acc;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let mut by_site = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        by_site.entry((node.file, node.qual.as_str())).or_insert(i);
    }
    EffectClosure { masks, by_site }
}

/// Direct (intraprocedural) effects of one token body.
fn direct_effects(
    body: &[TokenTree],
    self_ty: Option<&str>,
    table: &CellTable<'_>,
    mutating: &BTreeSet<&str>,
) -> EffectMask {
    let mut mask = EffectMask::default();
    for acc in ast::field_accesses(body) {
        let last = acc.fields.len() - 1;
        for (i, field) in acc.fields.iter().enumerate() {
            let mut cell = table.bare.get(field).copied();
            if cell.is_none() && i == 0 && acc.base == "self" {
                if let Some(ty) = self_ty {
                    cell = table
                        .qualified
                        .get(format!("{ty}::{field}").as_str())
                        .copied();
                }
            }
            let Some(cell) = cell else { continue };
            let bit = 1u64 << cell;
            // Only the chain's final place carries the access mode;
            // every prefix is a read (you traverse it to get there).
            let writes = i == last
                && match (&acc.method, acc.mode) {
                    (Some(m), _) => mutating.contains(m),
                    (None, AccessMode::Write) | (None, AccessMode::ReadWrite) => true,
                    (None, AccessMode::Read) => false,
                };
            if writes {
                mask.writes |= bit;
                if acc.mode != AccessMode::Write {
                    mask.reads |= bit;
                }
            } else {
                mask.reads |= bit;
            }
        }
    }
    mask
}

/// Runs R11 and R12 over the R9 extraction (`analysis` carries the
/// parsed spec and every code site) using the shared call graph.
pub fn check(graph: &CallGraph, analysis: &Analysis, cfg: &EffectsConfig) -> Vec<Finding> {
    let spec = &analysis.spec;
    let table = CellTable::new(&spec.cells);
    let closure = effect_closure(graph, spec, cfg);
    let mut findings = Vec::new();

    // Declared footprint per (role, msg): union over that pair's recv
    // transitions (static analysis cannot distinguish source states).
    let mut declared: BTreeMap<(&str, &str), (EffectMask, u32)> = BTreeMap::new();
    for t in &spec.transitions {
        if t.dir != Dir::Recv {
            continue;
        }
        let entry = declared
            .entry((t.role.as_str(), t.msg.as_str()))
            .or_insert((EffectMask::default(), t.line));
        for cell in &t.reads {
            entry.0.reads |= table.mask_of(cell);
        }
        for cell in &t.writes {
            entry.0.writes |= table.mask_of(cell);
        }
    }

    // R11: computed footprint ⊆ declared footprint for every handled
    // receive site of a declared transition.
    for site in &analysis.sites {
        if site.dir != Dir::Recv || site.kind != SiteKind::Handled {
            continue;
        }
        let Some((allowed, spec_line)) = declared.get(&(site.role.as_str(), site.msg.as_str()))
        else {
            continue; // undeclared transition: R9's finding, not ours
        };
        let Some(computed) = closure.of(&site.path, &site.fn_qual) else {
            continue;
        };
        let bad_writes = computed.writes & !allowed.writes;
        // An undeclared write subsumes the read of the same cell.
        let bad_reads = computed.reads & !(allowed.reads | allowed.writes) & !bad_writes;
        for cell in table.names(bad_writes) {
            findings.push(Finding {
                rule: "R11",
                path: site.path.clone(),
                line: site.span.line,
                col: site.span.col,
                message: format!(
                    "handler `{}` for `{}` (role {}) writes cell `{cell}` outside the \
                     declared effect footprint (spec line {spec_line})",
                    site.fn_qual, site.msg, site.role
                ),
            });
        }
        for cell in table.names(bad_reads) {
            findings.push(Finding {
                rule: "R11",
                path: site.path.clone(),
                line: site.span.line,
                col: site.span.col,
                message: format!(
                    "handler `{}` for `{}` (role {}) reads cell `{cell}` outside the \
                     declared effect footprint (spec line {spec_line})",
                    site.fn_qual, site.msg, site.role
                ),
            });
        }
    }

    // R12: handlers of retry-exposed messages must be provably
    // idempotent.
    let retry_msgs = retry_exposed_msgs(graph, analysis, cfg);
    let non_commuting = table.kind_mask(&["map", "queue", "scalar"]);
    let dedup = table.kind_mask(&["dedup"]);
    for site in &analysis.sites {
        if site.dir != Dir::Recv || site.kind != SiteKind::Handled {
            continue;
        }
        let Some(root) = retry_msgs.get(site.msg.as_str()) else {
            continue;
        };
        let Some(computed) = closure.of(&site.path, &site.fn_qual) else {
            continue;
        };
        let risky = computed.writes & non_commuting;
        let guarded = (computed.reads | computed.writes) & dedup != 0;
        if risky != 0 && !guarded {
            for cell in table.names(risky) {
                findings.push(Finding {
                    rule: "R12",
                    path: site.path.clone(),
                    line: site.span.line,
                    col: site.span.col,
                    message: format!(
                        "handler `{}` for retry-exposed `{}` (re-sent via `{root}`) writes \
                         non-idempotent cell `{cell}` with no dedup-table guard",
                        site.fn_qual, site.msg
                    ),
                });
            }
        }
    }

    findings
}

/// Messages re-sendable by a retry path: forward call-graph
/// reachability from the configured roots to send sites. Traversal is
/// confined to same-file role-owned edges for the same reason as
/// [`effect_closure`]: send sites only exist in role files, and an
/// unrestricted walk through the interceptors' SysApi facades and the
/// kernel's dynamic dispatch would mark every message retry-exposed.
/// Returns message → the root that exposes it.
fn retry_exposed_msgs<'a>(
    graph: &CallGraph,
    analysis: &'a Analysis,
    cfg: &EffectsConfig,
) -> BTreeMap<&'a str, String> {
    let role_node: Vec<bool> = graph
        .nodes
        .iter()
        .map(|n| role_owned(&analysis.spec, n.file))
        .collect();
    let mut reachable = vec![false; graph.nodes.len()];
    let mut root_of: Vec<Option<&str>> = vec![None; graph.nodes.len()];
    let mut queue = Vec::new();
    for root in &cfg.retry_roots {
        for i in graph.matching(root) {
            if !reachable[i] {
                reachable[i] = true;
                root_of[i] = Some(root.as_str());
                queue.push(i);
            }
        }
    }
    while let Some(i) = queue.pop() {
        for edge in &graph.nodes[i].calls {
            for &callee in &edge.callees {
                if role_node[callee]
                    && graph.nodes[callee].file == graph.nodes[i].file
                    && !reachable[callee]
                {
                    reachable[callee] = true;
                    root_of[callee] = root_of[i];
                    queue.push(callee);
                }
            }
        }
    }
    let mut node_at: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for (i, node) in graph.nodes.iter().enumerate() {
        node_at.entry((node.file, node.qual.as_str())).or_insert(i);
    }
    let mut msgs = BTreeMap::new();
    for site in &analysis.sites {
        if site.dir != Dir::Send {
            continue;
        }
        let Some(&i) = node_at.get(&(site.path.as_str(), site.fn_qual.as_str())) else {
            continue;
        };
        if reachable[i] {
            msgs.entry(site.msg.as_str())
                .or_insert_with(|| root_of[i].unwrap_or("?").to_string());
        }
    }
    msgs
}

/// Derives the `conflict-relation/1` artifact for
/// `explore --conflict-relation`.
///
/// The identical-twin `notify:data_readable` pair (two parked wake-ups
/// for the *same* process and connection) is declared independent iff
/// every role's data-readable path is drain-idempotent: each `.read(..)`
/// call in role-owned, non-test code passes `usize::MAX` (full drain),
/// or the enclosing function's effect closure touches a `dedup` cell.
/// Then the second wake-up finds an empty receive queue and the handler
/// is a no-op, so both orders produce identical outcomes.
///
/// Functions *named* `read` are exempt from the scan: those are the
/// interceptors' `SysApi` facade impls, which forward the wrapped
/// application's bound (`stream.read(max)`) over streams the role
/// already staged with its own full drain. A forwarder never
/// originates a partial socket read — the bound, if any, belongs to
/// its caller, and every role-originated drain on a data-readable
/// path passes `usize::MAX` (daemon, GCS client, and both
/// interceptors' `pump_incoming`).
pub fn conflict_report(graph: &CallGraph, spec: &Spec, cfg: &EffectsConfig) -> String {
    let closure = effect_closure(graph, spec, cfg);
    let table = CellTable::new(&spec.cells);
    let dedup = table.kind_mask(&["dedup"]);
    let mut partial_reads: Vec<String> = Vec::new();
    for node in &graph.nodes {
        if !role_owned(spec, node.file) || node.name == "read" {
            continue;
        }
        if has_partial_read(&node.body) {
            let guarded = closure
                .of(node.file, &node.qual)
                .map(|m| (m.reads | m.writes) & dedup != 0)
                .unwrap_or(false);
            if !guarded {
                partial_reads.push(format!("{} ({})", node.qual, node.file));
            }
        }
    }

    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"conflict-relation/1\",\n");
    out.push_str("  \"independent\": [\n");
    if partial_reads.is_empty() {
        out.push_str(
            "    {\"a\": \"notify:data_readable\", \"b\": \"notify:data_readable\", \
             \"when\": \"same_touch_conn\", \"why\": \"every role's data-readable path \
             drains the socket fully (read(conn, usize::MAX)); a re-delivered wake-up \
             for the same process and connection finds no residual bytes and commutes \
             with its twin\"}\n",
        );
    }
    out.push_str("  ]");
    if !partial_reads.is_empty() {
        out.push_str(",\n  \"withheld_because\": [");
        for (i, what) in partial_reads.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"partial read in {}\"", json_escape(what));
        }
        out.push(']');
    }
    out.push_str("\n}\n");
    out
}

/// Whether `path` is owned by any spec role (prefix match, same rule as
/// the R9 extractor).
fn role_owned(spec: &Spec, path: &str) -> bool {
    spec.roles
        .iter()
        .any(|r| path == r.path || path.starts_with(&format!("{}/", r.path.trim_end_matches('/'))))
}

/// Whether the body contains a `.read(..)` method call whose arguments
/// do not include `MAX` (i.e. a bounded, partial socket read).
fn has_partial_read(trees: &[TokenTree]) -> bool {
    let mut i = 0;
    while i < trees.len() {
        if let Tok::Group(_, inner) = &trees[i].tok {
            if has_partial_read(inner) {
                return true;
            }
            i += 1;
            continue;
        }
        if trees[i].is_punct('.') && matches!(trees.get(i + 1), Some(t) if t.is_ident("read")) {
            if let Some(args) = trees.get(i + 2).and_then(|t| t.group(Delim::Paren)) {
                if !contains_ident(args, "MAX") {
                    return true;
                }
                i += 3;
                continue;
            }
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileAst;
    use crate::fsm::{self, FsmConfig};

    fn parse<'a>(sources: &[(&'a str, &'a str)]) -> Vec<FileAst<'a>> {
        sources
            .iter()
            .map(|(path, src)| FileAst::parse(path, src).expect("lexes"))
            .collect()
    }

    const SPEC: &str = r#"
[machine]
name = "m"
initial = "idle"

[[state]]
name = "idle"

[[role]]
name = "daemon"
path = "d"

[[role]]
name = "client"
path = "c"

[[cell]]
name = "members"
kind = "set"
fields = ["members"]

[[cell]]
name = "pending"
kind = "queue"
fields = ["pending"]

[[cell]]
name = "seen_ops"
kind = "dedup"
fields = ["seen_ops"]

[[transition]]
from = "idle"
to = "idle"
role = "client"
send = "GcsWire::Join"

[[transition]]
from = "idle"
to = "idle"
role = "daemon"
recv = "GcsWire::Join"
writes = ["members"]
"#;

    const WIRE: &str = "pub enum GcsWire { Join { group: String }, Nop }\n";

    fn run<'a>(
        daemon_src: &'a str,
        client_src: &'a str,
    ) -> (Vec<Finding>, CallGraph<'a>, Analysis) {
        let files = parse(&[
            ("c/client.rs", client_src),
            ("d/daemon.rs", daemon_src),
            ("w/wire.rs", WIRE),
        ]);
        let graph = CallGraph::build(&files);
        let cfg = FsmConfig {
            spec_src: Some(SPEC.to_string()),
            ..FsmConfig::default()
        };
        let analysis = fsm::check(&files, &cfg, SPEC, &graph).expect("spec parses");
        let ecfg = EffectsConfig {
            retry_roots: vec!["Client::handle_event".to_string()],
            ..EffectsConfig::default()
        };
        let findings = check(&graph, &analysis, &ecfg);
        (findings, graph, analysis)
    }

    const CLIENT: &str = "impl Client {\n\
         pub fn handle_event(&mut self, sys: &mut dyn SysApi) {\n\
             let _ = sys.write(0, &GcsWire::Join { group: g }.encode());\n\
         }\n\
     }\n";

    #[test]
    fn conforming_handler_is_clean() {
        let daemon = "impl Daemon {\n\
             fn on_msg(&mut self, msg: GcsWire) {\n\
                 match msg {\n\
                     GcsWire::Join { group } => { self.members.insert(group); }\n\
                     _ => {}\n\
                 }\n\
             }\n\
         }\n";
        let (findings, _, _) = run(daemon, CLIENT);
        assert!(findings.is_empty(), "unexpected: {findings:?}");
    }

    #[test]
    fn undeclared_write_is_r11() {
        let daemon = "impl Daemon {\n\
             fn on_msg(&mut self, msg: GcsWire) {\n\
                 match msg {\n\
                     GcsWire::Join { group } => { self.enqueue(group); }\n\
                     _ => {}\n\
                 }\n\
             }\n\
             fn enqueue(&mut self, g: Group) { self.pending.push(g); }\n\
         }\n";
        let (findings, _, _) = run(daemon, CLIENT);
        let r11: Vec<&Finding> = findings.iter().filter(|f| f.rule == "R11").collect();
        assert_eq!(r11.len(), 1, "findings: {findings:?}");
        assert_eq!(r11[0].path, "d/daemon.rs");
        assert!(r11[0].message.contains("writes cell `pending`"));
        assert!(r11[0].message.contains("Daemon::on_msg"));
        // The same write also trips R12: Join is retry-exposed (the
        // client root sends it) and `pending` is a queue cell.
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "R12" && f.message.contains("non-idempotent cell `pending`")),
            "findings: {findings:?}"
        );
    }

    #[test]
    fn dedup_guard_silences_r12() {
        // The queue write is declared (no R11) and guarded by a dedup
        // probe (no R12).
        let spec = SPEC.replace(
            "writes = [\"members\"]",
            "writes = [\"members\", \"pending\"]\nreads = [\"seen_ops\"]",
        );
        let daemon = "impl Daemon {\n\
             fn on_msg(&mut self, msg: GcsWire) {\n\
                 match msg {\n\
                     GcsWire::Join { group } => {\n\
                         if self.seen_ops.insert(group.id) { self.pending.push(group); }\n\
                         self.members.insert(group);\n\
                     }\n\
                     _ => {}\n\
                 }\n\
             }\n\
         }\n";
        let files = parse(&[
            ("c/client.rs", CLIENT),
            ("d/daemon.rs", daemon),
            ("w/wire.rs", WIRE),
        ]);
        let graph = CallGraph::build(&files);
        let cfg = FsmConfig {
            spec_src: Some(spec.clone()),
            ..FsmConfig::default()
        };
        let analysis = fsm::check(&files, &cfg, &spec, &graph).expect("spec parses");
        let ecfg = EffectsConfig {
            retry_roots: vec!["Client::handle_event".to_string()],
            ..EffectsConfig::default()
        };
        let findings = check(&graph, &analysis, &ecfg);
        // seen_ops is written via a mutating method but dedup writes are
        // the guard itself, so only the undeclared-write rule could
        // complain — and the spec declares everything it touches...
        let spurious: Vec<&Finding> = findings
            .iter()
            .filter(|f| !(f.rule == "R11" && f.message.contains("seen_ops")))
            .collect();
        assert!(spurious.is_empty(), "findings: {findings:?}");
    }

    #[test]
    fn partial_read_withholds_the_twin_entry() {
        let daemon_full = "impl Daemon {\n\
             fn pump(&mut self, sys: &mut dyn SysApi, conn: ConnId) {\n\
                 let r = sys.read(conn, usize::MAX);\n\
             }\n\
         }\n";
        let daemon_partial = "impl Daemon {\n\
             fn pump(&mut self, sys: &mut dyn SysApi, conn: ConnId) {\n\
                 let r = sys.read(conn, 64);\n\
             }\n\
         }\n";
        // A SysApi facade forwarder — a role-owned `fn read` that passes
        // its caller's bound along — must not withhold the twin entry.
        let daemon_facade = "impl Daemon {\n\
             fn pump(&mut self, sys: &mut dyn SysApi, conn: ConnId) {\n\
                 let r = sys.read(conn, usize::MAX);\n\
             }\n\
         }\n\
         impl SysApi for Facade {\n\
             fn read(&mut self, conn: ConnId, max: usize) -> Result<Read, ()> {\n\
                 self.sys.read(conn, max)\n\
             }\n\
         }\n";
        let ecfg = EffectsConfig::default();
        let spec = fsm::parse_spec(SPEC).expect("spec parses");
        for (src, expect_pair) in [
            (daemon_full, true),
            (daemon_partial, false),
            (daemon_facade, true),
        ] {
            let files = parse(&[("d/daemon.rs", src)]);
            let graph = CallGraph::build(&files);
            let report = conflict_report(&graph, &spec, &ecfg);
            assert_eq!(
                report.contains("same_touch_conn"),
                expect_pair,
                "report: {report}"
            );
            assert!(report.contains("\"schema\": \"conflict-relation/1\""));
        }
    }
}

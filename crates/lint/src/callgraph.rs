//! A workspace-wide, name-resolved call graph over the synlite AST.
//!
//! The graph is deliberately conservative in what it links: a method call
//! `recv.next_frame()` resolves to every non-test `fn next_frame` that
//! takes a receiver; a qualified call `Type::func(..)` resolves to the
//! matching `impl Type` method when one exists, falling back to free
//! functions of the same name (module-qualified paths like
//! `stats::sum_f64(..)` carry no type information at token level); a bare
//! call `helper(..)` resolves to free functions only. Over-approximation
//! is acceptable — R5 verifies reachability of *taint*, so a spurious
//! edge can only surface a chain a human then audits — but silently
//! missing edges would let nondeterminism slip through, so unresolvable
//! names simply produce no edge rather than aborting the scan.
//!
//! Test-gated functions are excluded from the graph entirely.
//!
//! Nothing here copies source: a [`FileAst`] is the one lexed-and-parsed
//! form of a file, a [`FnNode`] shares its body with that file's token
//! tree, and each body's call sites are extracted once, when the node is
//! built — [`CallGraph::restrict`] re-resolves them, it does not re-walk
//! the body.

use std::rc::Rc;

use synlite::ast::{self, CallKind, CallSite, Item, ItemKind};
use synlite::{LexError, Span, TokenTree};

/// One source file, lexed and parsed once; every pass borrows it. The
/// source text owns the bytes: `path`, token text and item names are
/// slices of what the caller read from disk.
#[derive(Debug)]
pub struct FileAst<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// The lexed token trees.
    pub trees: Vec<TokenTree<'a>>,
    /// The parsed item tree.
    pub items: Vec<Item<'a>>,
    src: &'a str,
    /// Byte offset where each line starts (for allow-pattern matching).
    line_starts: Vec<usize>,
}

impl<'a> FileAst<'a> {
    /// Lexes and parses `src`: the one place the engine calls the lexer.
    pub fn parse(path: &'a str, src: &'a str) -> Result<FileAst<'a>, LexError> {
        let trees = synlite::parse_file(src)?;
        let items = ast::parse_items(&trees);
        let line_starts = std::iter::once(0)
            .chain(src.match_indices('\n').map(|(at, _)| at + 1))
            .collect();
        Ok(FileAst {
            path,
            trees,
            items,
            src,
            line_starts,
        })
    }

    /// The text of 1-based `line` without its line ending, or `""`.
    pub fn line_text(&self, line: u32) -> &'a str {
        let Some(&start) = self.line_starts.get(line.saturating_sub(1) as usize) else {
            return "";
        };
        let rest = &self.src[start..];
        let text = rest.split_once('\n').map_or(rest, |(text, _)| text);
        text.strip_suffix('\r').unwrap_or(text)
    }
}

/// One resolved call edge.
#[derive(Clone, Debug)]
pub struct CallEdge {
    /// Position of the called name at the call site.
    pub span: Span,
    /// Indices of candidate callee nodes.
    pub callees: Vec<usize>,
}

/// One non-test function in the workspace.
#[derive(Clone, Debug)]
pub struct FnNode<'a> {
    /// File the function lives in.
    pub file: &'a str,
    /// Qualified name: `Type::name` for methods, `name` for free fns.
    pub qual: String,
    /// Bare function name.
    pub name: &'a str,
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// Position of the `fn` keyword.
    pub span: Span,
    /// The body token stream, shared with the file's trees (empty for
    /// body-less signatures).
    pub body: Rc<[TokenTree<'a>]>,
    /// Every call expression in the body, extracted once; a restricted
    /// graph shares them and only re-resolves.
    sites: Rc<[CallSite<'a>]>,
    /// Resolved outgoing calls.
    pub calls: Vec<CallEdge>,
}

/// The workspace call graph.
#[derive(Clone, Debug, Default)]
pub struct CallGraph<'a> {
    /// All non-test functions, in (file, declaration) order.
    pub nodes: Vec<FnNode<'a>>,
}

impl<'a> CallGraph<'a> {
    /// Builds the graph from parsed files (must be pre-sorted by path for
    /// deterministic node order).
    pub fn build(files: &[FileAst<'a>]) -> CallGraph<'a> {
        let mut graph = CallGraph::default();
        for file in files {
            collect_fns(file.path, &file.items, None, &mut graph.nodes);
        }
        graph.resolve();
        graph
    }

    /// Resolves every call site against the node table.
    fn resolve(&mut self) {
        // Name index: bare name -> node indices.
        let mut by_name: std::collections::BTreeMap<&str, Vec<usize>> = Default::default();
        for (i, n) in self.nodes.iter().enumerate() {
            by_name.entry(n.name).or_default().push(i);
        }
        let mut resolved: Vec<Vec<CallEdge>> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let enclosing_ty = node.qual.rsplit_once("::").map(|(ty, _)| ty);
            let mut edges = Vec::new();
            for site in node.sites.iter() {
                let Some(candidates) = site.segments.last().and_then(|last| by_name.get(last))
                else {
                    continue;
                };
                let receiver_is = |has_self: bool| -> Vec<usize> {
                    let takes = |&i: &usize| self.nodes[i].has_self == has_self;
                    candidates.iter().copied().filter(takes).collect()
                };
                let callees = match (site.kind, site.segments.as_slice()) {
                    (CallKind::Method, _) => receiver_is(true),
                    (CallKind::Path, [.., prefix, last]) => {
                        let prefix = match *prefix {
                            "Self" | "self" => enclosing_ty.unwrap_or(prefix),
                            other => other,
                        };
                        // `qual == "{prefix}::{last}"`, without building it.
                        let exact = |&i: &usize| {
                            let ty = self.nodes[i].qual.strip_suffix(*last);
                            ty.and_then(|ty| ty.strip_suffix("::")) == Some(prefix)
                        };
                        let exact: Vec<usize> = candidates.iter().copied().filter(exact).collect();
                        if exact.is_empty() {
                            // Module-qualified call: fall back to free fns.
                            receiver_is(false)
                        } else {
                            exact
                        }
                    }
                    (CallKind::Path, _) => receiver_is(false),
                };
                if !callees.is_empty() {
                    edges.push(CallEdge {
                        span: site.span,
                        callees,
                    });
                }
            }
            resolved.push(edges);
        }
        for (node, edges) in self.nodes.iter_mut().zip(resolved) {
            node.calls = edges;
        }
    }

    /// The subgraph induced by files matching `keep`: nodes are filtered
    /// in order and every call site re-resolved against the reduced
    /// table, so the result is identical to [`CallGraph::build`] over
    /// the filtered file set (shared-graph path for scoped passes).
    pub fn restrict(&self, keep: impl Fn(&str) -> bool) -> CallGraph<'a> {
        let kept = self.nodes.iter().filter(|n| keep(n.file));
        let mut graph = CallGraph {
            nodes: kept
                .map(|n| FnNode {
                    qual: n.qual.clone(),
                    body: Rc::clone(&n.body),
                    sites: Rc::clone(&n.sites),
                    calls: Vec::new(),
                    ..*n
                })
                .collect(),
        };
        graph.resolve();
        graph
    }

    /// Node indices whose qualified or bare name equals `name`.
    pub fn matching(&self, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.qual == name || (!name.contains("::") && n.name == name))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Flattens non-test `fn` items into `out`, carrying the enclosing impl's
/// self type as the qualifier.
fn collect_fns<'a>(
    path: &'a str,
    items: &[Item<'a>],
    self_ty: Option<&str>,
    out: &mut Vec<FnNode<'a>>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(f) => {
                let body = f.body.clone().unwrap_or_else(|| Rc::new([]));
                out.push(FnNode {
                    file: path,
                    qual: match self_ty {
                        Some(ty) => format!("{ty}::{}", f.name),
                        None => f.name.to_string(),
                    },
                    name: f.name,
                    has_self: f.has_self,
                    span: item.span,
                    sites: ast::call_sites(&body).into(),
                    body,
                    calls: Vec::new(),
                });
            }
            ItemKind::Impl(b) => {
                collect_fns(path, &b.items, Some(b.self_ty), out);
            }
            ItemKind::Mod(m) => {
                collect_fns(path, &m.items, None, out);
            }
            ItemKind::Enum(_) | ItemKind::Struct(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of<'a>(sources: &[(&'a str, &'a str)]) -> CallGraph<'a> {
        let files: Vec<FileAst> = sources
            .iter()
            .map(|(path, src)| FileAst::parse(path, src).expect("lexes"))
            .collect();
        CallGraph::build(&files)
    }

    #[test]
    fn links_free_method_and_qualified_calls() {
        let g = graph_of(&[
            (
                "a.rs",
                "pub fn helper() -> u64 { 1 }\n\
                 impl Widget { pub fn poke(&self) -> u64 { helper() } }",
            ),
            (
                "b.rs",
                "pub fn caller(w: &Widget) -> u64 { w.poke() + Widget::poke(w) }",
            ),
        ]);
        let names: Vec<&str> = g.nodes.iter().map(|n| n.qual.as_str()).collect();
        assert_eq!(names, ["helper", "Widget::poke", "caller"]);
        let poke = &g.nodes[1];
        assert_eq!(poke.calls.len(), 1);
        assert_eq!(g.nodes[poke.calls[0].callees[0]].qual, "helper");
        let caller = &g.nodes[2];
        // both the method call and the qualified call resolve to the method
        assert_eq!(caller.calls.len(), 2);
        for edge in &caller.calls {
            assert_eq!(edge.callees, vec![1]);
        }
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph_of(&[(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests { fn dead() { live(); } }",
        )]);
        assert_eq!(g.nodes.len(), 1);
        assert_eq!(g.nodes[0].qual, "live");
    }

    #[test]
    fn self_qualified_calls_resolve_to_the_impl() {
        let g = graph_of(&[(
            "a.rs",
            "impl Codec { fn size() -> u64 { 8 } fn total(&self) -> u64 { Self::size() } }",
        )]);
        let total = g
            .nodes
            .iter()
            .find(|n| n.name == "total")
            .expect("total present");
        assert_eq!(total.calls.len(), 1);
        assert_eq!(g.nodes[total.calls[0].callees[0]].qual, "Codec::size");
    }
}

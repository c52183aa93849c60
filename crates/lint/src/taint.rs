//! R5 — interprocedural nondeterminism taint.
//!
//! A function is a *source* when its body directly reads ambient
//! nondeterminism (`Instant::now`, `SystemTime`, `thread_rng`,
//! `RandomState`/`DefaultHasher`, or iteration over a `HashMap`/`HashSet`
//! binding). Taint propagates from callee to caller over the
//! [`CallGraph`](crate::callgraph::CallGraph); a *sink* (digest, trace
//! serialization, JSONL writer — see `Contract::r5_sinks`) is flagged when
//! any call chain from it reaches a source.
//!
//! Suppression is **per edge**: an R5 `lint-allow.toml` entry names the
//! caller's file (`path`) and the call-site line (`pattern`), and a chain
//! is silenced only when one of its own edges is suppressed. Allowing one
//! audited flow therefore never blesses a *new* transitive flow through
//! the same source — the central fix over the R2-era, per-line model,
//! where one entry at the source file silenced every future caller.

use synlite::{Delim, Span, Tok, TokenTree};

use crate::allow::AllowList;
use crate::callgraph::{CallGraph, FileAst, FnNode};
use crate::{rules, Finding};

/// One direct ambient-nondeterminism read inside a function body.
#[derive(Clone, Debug)]
pub struct SourceHit {
    /// Where the read happens.
    pub span: Span,
    /// Short description (`Instant::now`, `HashMap iteration over x`).
    pub what: String,
}

/// Scans a function body for direct nondeterminism sources.
pub fn direct_sources(body: &[TokenTree]) -> Vec<SourceHit> {
    let mut hash_idents = Vec::new();
    rules::collect_hash_idents(body, &mut hash_idents);
    hash_idents.sort();
    hash_idents.dedup();
    let mut out = Vec::new();
    scan(body, &hash_idents, &mut out);
    out
}

fn scan(trees: &[TokenTree], hash_idents: &[&str], out: &mut Vec<SourceHit>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tok::Group(_, inner) = &t.tok {
            scan(inner, hash_idents, out);
            continue;
        }
        let path_seq = |a: &str, b: &str| -> bool {
            t.is_ident(a)
                && matches!(trees.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(trees.get(i + 2), Some(n) if n.is_punct(':'))
                && matches!(trees.get(i + 3), Some(n) if n.is_ident(b))
        };
        if path_seq("Instant", "now") {
            out.push(SourceHit {
                span: t.span,
                what: "Instant::now".to_string(),
            });
        }
        if t.is_ident("SystemTime") {
            out.push(SourceHit {
                span: t.span,
                what: "SystemTime".to_string(),
            });
        }
        if t.is_ident("thread_rng") {
            out.push(SourceHit {
                span: t.span,
                what: "thread_rng".to_string(),
            });
        }
        if t.is_ident("RandomState") || t.is_ident("DefaultHasher") {
            out.push(SourceHit {
                span: t.span,
                what: "hash-seeded RandomState/DefaultHasher".to_string(),
            });
        }
        // Hash-ordered iteration: `<hash binding>.iter()`-family calls.
        if let Some(name) = t.ident() {
            if hash_idents.contains(&name) && matches!(trees.get(i + 1), Some(n) if n.is_punct('.'))
            {
                if let Some(method) = trees.get(i + 2).and_then(|n| n.ident()) {
                    let has_call = trees
                        .get(i + 3)
                        .map(|n| n.group(Delim::Paren).is_some())
                        .unwrap_or(false);
                    if has_call && rules::R1_ITER_METHODS.contains(&method) {
                        out.push(SourceHit {
                            span: t.span,
                            what: format!("hash-ordered iteration over `{name}`"),
                        });
                    }
                }
            }
        }
    }
}

/// Whether `node` is the sink `spec` names: `Type::name` matches the
/// qualified name, a bare `name` matches any function of that name. A
/// spec that matches no node protects nothing (and is not an error:
/// a partial tree legitimately lacks most sinks).
pub fn is_sink(node: &FnNode, spec: &str) -> bool {
    node.qual == spec || (!spec.contains("::") && node.name == spec)
}

/// Runs the R5 analysis. Returns `(findings, suppressed)`; `allow_used`
/// is marked for every R5 entry that actually suppressed an edge.
pub fn check(
    graph: &CallGraph,
    files: &[FileAst],
    sinks: &[String],
    allow: &AllowList,
    allow_used: &mut [bool],
) -> (Vec<Finding>, Vec<Finding>) {
    let n = graph.nodes.len();
    let by_path: std::collections::BTreeMap<&str, &FileAst> =
        files.iter().map(|f| (f.path, f)).collect();
    let sources: Vec<Vec<SourceHit>> = graph
        .nodes
        .iter()
        .map(|node| direct_sources(&node.body))
        .collect();

    // Taint fixpoint: a node is tainted when it is a direct source or can
    // reach one through any call chain.
    let mut tainted = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = Default::default();
    for (i, hits) in sources.iter().enumerate() {
        if !hits.is_empty() {
            tainted[i] = true;
            queue.push_back(i);
        }
    }
    // Reverse adjacency (callee -> callers).
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in graph.nodes.iter().enumerate() {
        for edge in &node.calls {
            for &c in &edge.callees {
                callers[c].push(i);
            }
        }
    }
    while let Some(c) = queue.pop_front() {
        for &caller in &callers[c] {
            if !tainted[caller] {
                tainted[caller] = true;
                queue.push_back(caller);
            }
        }
    }

    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for (s, node) in graph.nodes.iter().enumerate() {
        if !sinks.iter().any(|spec| is_sink(node, spec)) || !tainted[s] {
            continue;
        }
        // Pass 1: honour edge suppressions. Pass 2 (only when pass 1 finds
        // nothing): ignore them, to report the chain as suppressed.
        let clean_chain = reach_source(
            graph, &sources, &tainted, s, true, allow, allow_used, &by_path,
        );
        if let Some(chain) = clean_chain {
            findings.push(chain_finding(graph, &sources, node, &chain));
        } else if let Some(chain) = reach_source(
            graph, &sources, &tainted, s, false, allow, allow_used, &by_path,
        ) {
            suppressed.push(chain_finding(graph, &sources, node, &chain));
        }
    }
    (findings, suppressed)
}

/// One step of a reported chain: `(node index, call display)`.
type Chain = Vec<usize>;

/// BFS from sink `s` over tainted callees; returns the node chain from
/// the sink to a directly-sourced function, or `None`. When
/// `honour_suppressions` is set, suppressed edges are not traversed (and
/// are marked used in `allow_used`).
#[allow(clippy::too_many_arguments)]
fn reach_source(
    graph: &CallGraph,
    sources: &[Vec<SourceHit>],
    tainted: &[bool],
    s: usize,
    honour_suppressions: bool,
    allow: &AllowList,
    allow_used: &mut [bool],
    by_path: &std::collections::BTreeMap<&str, &FileAst>,
) -> Option<Chain> {
    if !sources[s].is_empty() {
        return Some(vec![s]);
    }
    let n = graph.nodes.len();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[s] = true;
    let mut queue: std::collections::VecDeque<usize> = [s].into();
    while let Some(cur) = queue.pop_front() {
        for edge in &graph.nodes[cur].calls {
            let line_text = by_path
                .get(graph.nodes[cur].file)
                .map(|f| f.line_text(edge.span.line))
                .unwrap_or("");
            let suppression = allow.edge_suppression_for(graph.nodes[cur].file, line_text);
            for &callee in &edge.callees {
                if !tainted[callee] || seen[callee] {
                    continue;
                }
                if honour_suppressions {
                    if let Some(idx) = suppression {
                        if let Some(flag) = allow_used.get_mut(idx) {
                            *flag = true;
                        }
                        continue;
                    }
                }
                seen[callee] = true;
                prev[callee] = Some(cur);
                if !sources[callee].is_empty() {
                    // Rebuild sink → source chain.
                    let mut chain = vec![callee];
                    let mut at = callee;
                    while let Some(p) = prev[at] {
                        chain.push(p);
                        at = p;
                    }
                    chain.reverse();
                    return Some(chain);
                }
                queue.push_back(callee);
            }
        }
    }
    None
}

fn chain_finding(
    graph: &CallGraph,
    sources: &[Vec<SourceHit>],
    sink: &FnNode,
    chain: &Chain,
) -> Finding {
    let last = *chain.last().expect("chain is non-empty");
    let hit = &sources[last][0];
    let hops: Vec<String> = chain
        .iter()
        .map(|&i| {
            let n = &graph.nodes[i];
            format!("{} ({}:{})", n.qual, n.file, n.span.line)
        })
        .collect();
    Finding {
        rule: "R5",
        path: sink.file.to_string(),
        line: sink.span.line,
        col: sink.span.col,
        message: format!(
            "nondeterministic source `{}` ({}:{}) reaches sink `{}` via {}",
            hit.what,
            graph.nodes[last].file,
            hit.span.line,
            sink.qual,
            hops.join(" -> "),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileAst;

    fn files_of<'a>(sources: &[(&'a str, &'a str)]) -> Vec<FileAst<'a>> {
        sources
            .iter()
            .map(|(path, src)| FileAst::parse(path, src).expect("lexes"))
            .collect()
    }

    #[test]
    fn detects_direct_sources() {
        let trees =
            synlite::parse_file("let t = Instant::now(); let r = thread_rng();").expect("lexes");
        let hits = direct_sources(&trees);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].what, "Instant::now");
    }

    #[test]
    fn two_hop_chain_is_found_and_reported() {
        let files = files_of(&[(
            "crates/x/src/lib.rs",
            "fn wall() -> u64 { Instant::now().elapsed().as_nanos() }\n\
             fn stamp() -> u64 { wall() }\n\
             impl Outcome { pub fn digest(&self) -> u64 { stamp() } }",
        )]);
        let graph = CallGraph::build(&files);
        let sinks = vec!["Outcome::digest".to_string()];
        let allow = AllowList::empty();
        let mut used: Vec<bool> = Vec::new();
        let (findings, suppressed) = check(&graph, &files, &sinks, &allow, &mut used);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(suppressed.is_empty());
        let f = &findings[0];
        assert_eq!(f.rule, "R5");
        assert_eq!(f.line, 3, "anchored at the sink decl");
        assert!(f.message.contains("Instant::now"));
        assert!(f.message.contains("digest"));
        assert!(f.message.contains("stamp"));
        assert!(f.message.contains("wall"));
    }

    #[test]
    fn suppressed_edge_silences_only_its_own_chain() {
        let files = files_of(&[(
            "crates/x/src/lib.rs",
            "fn wall() -> u64 { Instant::now().elapsed().as_nanos() }\n\
             fn stamp() -> u64 { wall() }\n\
             impl Outcome {\n\
                 pub fn digest(&self) -> u64 { stamp() }\n\
                 pub fn digest2(&self) -> u64 { wall() }\n\
             }",
        )]);
        let graph = CallGraph::build(&files);
        let sinks = vec![
            "Outcome::digest".to_string(),
            "Outcome::digest2".to_string(),
        ];
        // Suppress the digest -> stamp edge only.
        let allow = AllowList::parse(
            "[[allow]]\nrule = \"R5\"\npath = \"crates/x/src/lib.rs\"\npattern = \"stamp()\"\njustification = \"audited\"\n",
        )
        .expect("parses");
        let mut used = vec![false];
        let (findings, suppressed) = check(&graph, &files, &sinks, &allow, &mut used);
        // digest's only chain crosses the suppressed edge -> suppressed;
        // digest2 reaches the same source via a different edge -> flagged.
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("digest2"));
        assert_eq!(suppressed.len(), 1, "{suppressed:?}");
        assert!(suppressed[0].message.contains("digest"));
        assert!(used[0], "the edge suppression must count as used");
    }
}

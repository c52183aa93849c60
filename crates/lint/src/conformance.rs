//! R8 — protocol-conformance checks over the parsed workspace.
//!
//! Three cross-file properties are enforced:
//!
//! 1. **Liveness** — every variant of an event enum (`EventKind`,
//!    `Phase`) must be constructed somewhere outside its defining file
//!    and the serializer/consumer layer. A variant only ever touched by
//!    its own codec is dead vocabulary.
//! 2. **Consumption** — every *live* event-enum variant must be consumed
//!    by a breakdown consumer (`obs::breakdown`) or be explicitly listed
//!    report-only in the contract. Emitting a recovery phase nobody folds
//!    into the paper's stage table is a silent reporting gap.
//! 3. **Codec coverage** — every variant of a wire codec enum
//!    (`GcsWire`, `GroupMsg`) must appear on both the encode side
//!    (`kind`/`encode`) and the decode side (`decode`) of its defining
//!    file, and
//!    the `write_*`/`read_*` type suffixes used by the two sides of each
//!    codec impl (including codec structs like `FailoverNotice`) must
//!    agree — an encoder writing a field no decoder reads back is a wire
//!    drift waiting for a version skew to expose it.

use std::collections::{BTreeMap, BTreeSet};

use synlite::ast::{EnumDecl, Item, ItemKind};
use synlite::{Span, Tok, TokenTree};

use crate::callgraph::FileAst;
use crate::Finding;

/// Configuration for the conformance pass (part of the contract).
#[derive(Clone, Debug)]
pub struct ConformanceConfig {
    /// Event enums whose variants need emitters and consumers.
    pub event_enums: Vec<String>,
    /// Files that count as breakdown consumers.
    pub consumer_files: Vec<String>,
    /// Files whose references are serialization, not emission.
    pub serializer_files: Vec<String>,
    /// Event-enum variants exempt from the consumption check.
    pub report_only: Vec<String>,
    /// Wire enums checked for encode/decode variant coverage.
    pub codec_enums: Vec<String>,
    /// Wire structs checked for read/write symmetry only.
    pub codec_structs: Vec<String>,
    /// Function names treated as the encode side of a codec.
    pub encode_fns: Vec<String>,
    /// Function names treated as the decode side of a codec.
    pub decode_fns: Vec<String>,
}

impl Default for ConformanceConfig {
    fn default() -> Self {
        let strs = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        ConformanceConfig {
            event_enums: strs(&["EventKind", "Phase"]),
            consumer_files: strs(&["crates/obs/src/breakdown.rs"]),
            serializer_files: strs(&["crates/obs/src/jsonl.rs"]),
            // Kernel/bookkeeping vocabulary: serialized into traces for
            // offline inspection, deliberately not part of the fail-over
            // breakdown. Reviewed when `obs::breakdown` grows new stages.
            report_only: strs(&[
                "ConnectAttempt",
                "ConnectOutcome",
                "Partition",
                "Heal",
                "PartitionOneway",
                "HealOneway",
                "LinkJitter",
                "FaultInjected",
                "ResourcePressure",
                "Spawn",
                "Dispatch",
                "Retry",
                "ProtocolError",
            ]),
            codec_enums: strs(&["GcsWire", "GroupMsg"]),
            codec_structs: strs(&["FailoverNotice"]),
            encode_fns: strs(&["kind", "encode"]),
            decode_fns: strs(&["decode", "from_u8", "from_u32"]),
        }
    }
}

/// Runs the conformance pass over the parsed files.
pub fn check(files: &[FileAst], cfg: &ConformanceConfig) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Locate the enum declarations we care about.
    let mut enums: Vec<(&str, &EnumDecl)> = Vec::new(); // (file, decl)
    for f in files {
        collect_enums(f.path, &f.items, &mut enums);
    }

    // (enum, variant) reference sets per file, from non-test fn bodies.
    let mut refs: BTreeMap<&str, Pairs> = BTreeMap::new();
    for f in files {
        let mut set = BTreeSet::new();
        collect_refs(&f.items, &mut set);
        refs.insert(f.path, set);
    }

    for (file, decl) in enums {
        if cfg.event_enums.iter().any(|e| e == decl.name) {
            check_event_enum(file, decl, cfg, &refs, &mut findings);
        }
        if cfg.codec_enums.iter().any(|e| e == decl.name) {
            check_codec_enum(file, decl, cfg, files, &mut findings);
        }
    }
    for ty in cfg.codec_enums.iter().chain(cfg.codec_structs.iter()) {
        check_codec_symmetry(ty, cfg, files, &mut findings);
    }
    findings
}

/// `(Enum, Variant)` ident pairs, borrowed from the source.
type Pairs<'a> = BTreeSet<(&'a str, &'a str)>;

fn check_event_enum(
    file: &str,
    decl: &EnumDecl,
    cfg: &ConformanceConfig,
    refs: &BTreeMap<&str, Pairs>,
    findings: &mut Vec<Finding>,
) {
    for v in &decl.variants {
        let key = (decl.name, v.name);
        let live = refs.iter().any(|(path, set)| {
            *path != file
                && !cfg.serializer_files.iter().any(|s| s == path)
                && !cfg.consumer_files.iter().any(|c| c == path)
                && set.contains(&key)
        });
        if !live {
            findings.push(finding(
                file,
                v.span,
                format!(
                    "`{}::{}` is never emitted outside its codec/serializer; delete the \
                     variant or wire up an emitter",
                    decl.name, v.name
                ),
            ));
            continue;
        }
        let consumed = cfg.consumer_files.iter().any(|c| {
            refs.get(c.as_str())
                .map(|set| set.contains(&key))
                .unwrap_or(false)
        });
        if !consumed && !cfg.report_only.iter().any(|r| r == v.name) {
            findings.push(finding(
                file,
                v.span,
                format!(
                    "`{}::{}` is emitted but never consumed by a breakdown consumer; \
                     consume it or list it report-only in the contract",
                    decl.name, v.name
                ),
            ));
        }
    }
}

fn check_codec_enum(
    file: &str,
    decl: &EnumDecl,
    cfg: &ConformanceConfig,
    files: &[FileAst],
    findings: &mut Vec<Finding>,
) {
    let Some(f) = files.iter().find(|f| f.path == file) else {
        return;
    };
    let mut encode_refs = BTreeSet::new();
    let mut decode_refs = BTreeSet::new();
    collect_codec_refs(&f.items, decl.name, cfg, &mut encode_refs, &mut decode_refs);
    for v in &decl.variants {
        if !encode_refs.is_empty() && !encode_refs.contains(v.name) {
            findings.push(finding(
                file,
                v.span,
                format!(
                    "`{}::{}` is not covered by the encode side ({}); every variant must \
                     round-trip",
                    decl.name,
                    v.name,
                    cfg.encode_fns.join("/")
                ),
            ));
        }
        if !decode_refs.is_empty() && !decode_refs.contains(v.name) {
            findings.push(finding(
                file,
                v.span,
                format!(
                    "`{}::{}` is not covered by the decode side ({}); every variant must \
                     round-trip",
                    decl.name,
                    v.name,
                    cfg.decode_fns.join("/")
                ),
            ));
        }
    }
}

/// Compares the `write_*` suffixes used by encode-side fns with the
/// `read_*` suffixes used by decode-side fns, over every impl of `ty`.
fn check_codec_symmetry(
    ty: &str,
    cfg: &ConformanceConfig,
    files: &[FileAst],
    findings: &mut Vec<Finding>,
) {
    for f in files {
        let mut writes = BTreeSet::new();
        let mut reads = BTreeSet::new();
        let mut impl_span: Option<Span> = None;
        collect_rw_suffixes(&f.items, ty, cfg, &mut writes, &mut reads, &mut impl_span);
        let (Some(span), false, false) = (impl_span, writes.is_empty(), reads.is_empty()) else {
            continue;
        };
        if writes != reads {
            let only_written: Vec<&str> = writes.difference(&reads).copied().collect();
            let only_read: Vec<&str> = reads.difference(&writes).copied().collect();
            findings.push(finding(
                f.path,
                span,
                format!(
                    "codec `{ty}` reads and writes different wire types (written-only: \
                     [{}], read-only: [{}]); encode and decode must agree",
                    only_written.join(", "),
                    only_read.join(", "),
                ),
            ));
        }
    }
}

fn finding(path: &str, span: Span, message: String) -> Finding {
    Finding {
        rule: "R8",
        path: path.to_string(),
        line: span.line,
        col: span.col,
        message,
    }
}

fn collect_enums<'t, 'a>(
    path: &'a str,
    items: &'t [Item<'a>],
    out: &mut Vec<(&'a str, &'t EnumDecl<'a>)>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Enum(e) => out.push((path, e)),
            ItemKind::Mod(m) => collect_enums(path, &m.items, out),
            ItemKind::Impl(b) => collect_enums(path, &b.items, out),
            _ => {}
        }
    }
}

/// Collects `Enum::Variant` pairs from non-test fn bodies.
fn collect_refs<'a>(items: &[Item<'a>], out: &mut Pairs<'a>) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(f) => {
                if let Some(body) = &f.body {
                    collect_pairs(body, out);
                }
            }
            ItemKind::Impl(b) => collect_refs(&b.items, out),
            ItemKind::Mod(m) => collect_refs(&m.items, out),
            _ => {}
        }
    }
}

/// Records every `A::B` ident pair in `trees`, recursing into groups.
fn collect_pairs<'a>(trees: &[TokenTree<'a>], out: &mut Pairs<'a>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tok::Group(_, inner) = &t.tok {
            collect_pairs(inner, out);
            continue;
        }
        if let Some(a) = t.ident() {
            if matches!(trees.get(i + 1), Some(n) if n.is_punct(':'))
                && matches!(trees.get(i + 2), Some(n) if n.is_punct(':'))
            {
                if let Some(b) = trees.get(i + 3).and_then(|n| n.ident()) {
                    out.insert((a, b));
                }
            }
        }
    }
}

/// Collects variant refs of `enum_name` from encode-side and decode-side
/// fns inside impls of that type (or free fns with codec names).
fn collect_codec_refs<'a>(
    items: &[Item<'a>],
    enum_name: &str,
    cfg: &ConformanceConfig,
    encode_refs: &mut BTreeSet<&'a str>,
    decode_refs: &mut BTreeSet<&'a str>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Impl(b) if b.self_ty == enum_name => {
                for sub in &b.items {
                    if sub.test_only {
                        continue;
                    }
                    let ItemKind::Fn(f) = &sub.kind else { continue };
                    let Some(body) = &f.body else { continue };
                    let mut pairs = BTreeSet::new();
                    collect_pairs(body, &mut pairs);
                    let variants = pairs
                        .into_iter()
                        .filter(|(a, _)| *a == enum_name || *a == "Self")
                        .map(|(_, b)| b);
                    if cfg.encode_fns.iter().any(|e| e == f.name) {
                        encode_refs.extend(variants);
                    } else if cfg.decode_fns.iter().any(|d| d == f.name) {
                        decode_refs.extend(variants);
                    }
                }
            }
            ItemKind::Impl(b) => {
                collect_codec_refs(&b.items, enum_name, cfg, encode_refs, decode_refs)
            }
            ItemKind::Mod(m) => {
                collect_codec_refs(&m.items, enum_name, cfg, encode_refs, decode_refs)
            }
            _ => {}
        }
    }
}

/// Collects `write_X`/`read_X` suffix sets from the encode/decode fns of
/// every impl of `ty`.
fn collect_rw_suffixes<'a>(
    items: &[Item<'a>],
    ty: &str,
    cfg: &ConformanceConfig,
    writes: &mut BTreeSet<&'a str>,
    reads: &mut BTreeSet<&'a str>,
    impl_span: &mut Option<Span>,
) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Impl(b) if b.self_ty == ty => {
                if impl_span.is_none() {
                    *impl_span = Some(item.span);
                }
                for sub in &b.items {
                    let ItemKind::Fn(f) = &sub.kind else { continue };
                    let Some(body) = &f.body else { continue };
                    if cfg.encode_fns.iter().any(|e| e == f.name) {
                        collect_prefixed(body, "write_", writes);
                    } else if cfg.decode_fns.iter().any(|d| d == f.name) {
                        collect_prefixed(body, "read_", reads);
                    }
                }
            }
            ItemKind::Impl(b) => collect_rw_suffixes(&b.items, ty, cfg, writes, reads, impl_span),
            ItemKind::Mod(m) => collect_rw_suffixes(&m.items, ty, cfg, writes, reads, impl_span),
            _ => {}
        }
    }
}

fn collect_prefixed<'a>(trees: &[TokenTree<'a>], prefix: &str, out: &mut BTreeSet<&'a str>) {
    for t in trees {
        match &t.tok {
            Tok::Ident(s) => {
                if let Some(suffix) = s.strip_prefix(prefix) {
                    if !suffix.is_empty() {
                        out.insert(suffix);
                    }
                }
            }
            Tok::Group(_, inner) => collect_prefixed(inner, prefix, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files_of<'a>(sources: &[(&'a str, &'a str)]) -> Vec<FileAst<'a>> {
        sources
            .iter()
            .map(|(path, src)| FileAst::parse(path, src).expect("lexes"))
            .collect()
    }

    fn cfg_for(event_enum: &str, consumer: &str) -> ConformanceConfig {
        ConformanceConfig {
            event_enums: vec![event_enum.to_string()],
            consumer_files: vec![consumer.to_string()],
            serializer_files: vec![],
            report_only: vec!["ReportOnly".to_string()],
            codec_enums: vec![],
            codec_structs: vec![],
            ..ConformanceConfig::default()
        }
    }

    #[test]
    fn dead_and_unconsumed_variants_are_flagged() {
        let files = files_of(&[
            (
                "crates/x/src/ev.rs",
                "pub enum Ev {\n    Used,\n    ReportOnly,\n    Unconsumed,\n    Dead,\n}\n\
                 impl Ev { fn name(&self) -> u8 { match self { Ev::Used => 0, Ev::ReportOnly => 1, Ev::Unconsumed => 2, Ev::Dead => 3 } } }",
            ),
            (
                "crates/x/src/emit.rs",
                "fn emit(f: impl Fn(Ev)) { f(Ev::Used); f(Ev::ReportOnly); f(Ev::Unconsumed); }",
            ),
            (
                "crates/x/src/breakdown.rs",
                "fn consume(e: Ev) -> bool { matches!(e, Ev::Used) }",
            ),
        ]);
        let cfg = cfg_for("Ev", "crates/x/src/breakdown.rs");
        let findings = check(&files, &cfg);
        let lines: Vec<(u32, bool)> = findings
            .iter()
            .map(|f| (f.line, f.message.contains("never emitted")))
            .collect();
        // Unconsumed (line 4): emitted, not consumed, not report-only.
        // Dead (line 5): never emitted.
        assert_eq!(lines, vec![(4, false), (5, true)], "{findings:?}");
    }

    #[test]
    fn codec_coverage_and_symmetry() {
        let files = files_of(&[(
            "crates/x/src/wire.rs",
            "pub enum WireX { A, B, C }\n\
             impl WireX {\n\
                 fn kind(&self) -> u8 { match self { WireX::A => 0, WireX::B => 1, WireX::C => 2 } }\n\
                 fn encode(&self, w: &mut W) { w.write_u8(self.kind()); w.write_u16(7); match self { WireX::A => {} WireX::B => {} WireX::C => {} } }\n\
                 fn decode(r: &mut R) -> Option<WireX> { match r.read_u8()? { 0 => Some(WireX::A), 1 => Some(WireX::B), _ => None } }\n\
             }",
        )]);
        let cfg = ConformanceConfig {
            event_enums: vec![],
            codec_enums: vec!["WireX".to_string()],
            codec_structs: vec![],
            ..ConformanceConfig::default()
        };
        let findings = check(&files, &cfg);
        // C is missing on the decode side (line 1 decl: variants live on
        // line 1), and u16 is written but never read back.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("WireX::C") && f.message.contains("decode side")));
        assert!(findings
            .iter()
            .any(|f| f.message.contains("written-only: [u16]")));
    }
}

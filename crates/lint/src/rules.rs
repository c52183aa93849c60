//! The determinism-contract rules (DESIGN §9), implemented as structural
//! scans over `synlite` token trees.
//!
//! * **R1** — no iteration over `HashMap`/`HashSet` values: their order is
//!   randomized per process, so any behaviour derived from it diverges
//!   across runs.
//! * **R2** — no ambient nondeterminism: `Instant::now`, `SystemTime`,
//!   `thread_rng`, `thread::sleep`, `RandomState`/`DefaultHasher` (the
//!   seeded siphash state behind argless `Hasher::default`).
//! * **R3** — no panic paths (`unwrap`/`expect`/`panic!`/`unreachable!`/
//!   `todo!`/`unimplemented!`/slice indexing) in wire-decode code and the
//!   simulation kernel.
//! * **R4** — protocol-enum `match`es must be exhaustive: no `_`, bare
//!   binding, or `Ok(_)` arm may swallow variants of a wire enum, so adding
//!   a variant is a compile break, not a silent drop.
//! * **R6** — no truncating `as` casts (`as u8`/`u16`/`u32`/`i8`/`i16`/
//!   `i32`) and no `wrapping_*`/`unchecked_*`/`overflowing_*` arithmetic in
//!   wire-codec code: length fields and discriminants must go through
//!   `From`/`TryFrom` or a documented helper so silent truncation is
//!   impossible.
//! * **R7** — every `loop`/`while` in kernel-dispatch and client-retry
//!   code must carry a provable budget: a comparison bound, a
//!   limit/deadline/attempt counter with an exit, or a draining call
//!   (`pop`/`next_*`/`recv`/..) that empties a finite queue.
//!
//! The interprocedural rules R5 (nondeterminism taint) and R8 (protocol
//! conformance) live in [`crate::taint`] and [`crate::conformance`]; they
//! run over the whole workspace rather than one file at a time.
//!
//! Code under `#[cfg(test)]` / `#[test]` is exempt from every rule.

use synlite::{Delim, Tok, TokenTree};

use crate::Finding;

/// Which rules to run over one file.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuleSet {
    /// R1: hash-order iteration.
    pub r1: bool,
    /// R2: ambient nondeterminism.
    pub r2: bool,
    /// R3: panic paths.
    pub r3: bool,
    /// R4: protocol-match exhaustiveness.
    pub r4: bool,
    /// R6: truncating casts / wrapping arithmetic in codecs.
    pub r6: bool,
    /// R7: unbounded loops in dispatch/retry paths.
    pub r7: bool,
}

impl RuleSet {
    /// Every per-file rule enabled (used by fixtures).
    pub fn all() -> Self {
        RuleSet {
            r1: true,
            r2: true,
            r3: true,
            r4: true,
            r6: true,
            r7: true,
        }
    }

    /// Exactly one rule enabled, by id (`"R1"`, .., `"R7"`).
    pub fn only(rule: &str) -> Self {
        RuleSet {
            r1: rule == "R1",
            r2: rule == "R2",
            r3: rule == "R3",
            r4: rule == "R4",
            r6: rule == "R6",
            r7: rule == "R7",
        }
    }

    /// No rule enabled.
    pub fn is_empty(&self) -> bool {
        !(self.r1 || self.r2 || self.r3 || self.r4 || self.r6 || self.r7)
    }
}

pub(crate) const R1_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Keywords that may legitimately precede a `[` without it being an index
/// expression (`let [a, b] = ..`, `for [x, y] in ..`, `if let [..] = ..`).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "mut", "ref", "move", "as", "break", "continue",
    "use", "pub", "where", "for", "while", "loop", "impl", "fn", "dyn", "await", "yield", "static",
    "const", "type", "enum", "struct", "union", "unsafe", "extern", "crate", "box",
];

/// Runs `rules` over already-lexed `trees`, appending to `findings`.
pub fn run(
    path: &str,
    trees: &[TokenTree],
    rules: RuleSet,
    protocol_enums: &[String],
    findings: &mut Vec<Finding>,
) {
    if rules.is_empty() {
        return;
    }
    let mut hash_idents = Vec::new();
    if rules.r1 {
        collect_hash_idents(trees, &mut hash_idents);
        hash_idents.sort();
        hash_idents.dedup();
    }
    let cx = Cx {
        path,
        rules,
        protocol_enums,
        hash_idents,
    };
    scan_stream(&cx, trees, findings);
    findings.sort_by_key(|f| (f.path.clone(), f.line, f.col));
}

struct Cx<'a> {
    path: &'a str,
    rules: RuleSet,
    protocol_enums: &'a [String],
    hash_idents: Vec<&'a str>,
}

impl Cx<'_> {
    fn finding(&self, rule: &'static str, t: &TokenTree, message: String) -> Finding {
        Finding {
            rule,
            path: self.path.to_string(),
            line: t.span.line,
            col: t.span.col,
            message,
        }
    }
}

/// Records every identifier declared with a `HashMap`/`HashSet` type or
/// initialised from one (`name: HashMap<..>`, `let name = HashSet::new()`).
pub(crate) fn collect_hash_idents<'a>(trees: &[TokenTree<'a>], out: &mut Vec<&'a str>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tok::Group(_, inner) = &t.tok {
            collect_hash_idents(inner, out);
            continue;
        }
        // `name : ... HashMap` (field declarations, struct-literal inits,
        // typed lets) — scan forward from the colon to the end of this
        // "slot" (`,`, `;` or the stream end).
        if t.ident().is_some() && matches!(trees.get(i + 1), Some(n) if n.is_punct(':')) {
            // Skip `::` paths (`foo::bar`): a second colon means this was
            // not a type ascription.
            if matches!(trees.get(i + 2), Some(n) if n.is_punct(':')) {
                continue;
            }
            let name = t.ident().unwrap_or_default();
            for next in &trees[i + 2..] {
                if next.is_punct(',') || next.is_punct(';') || next.is_punct('=') {
                    break;
                }
                if next.is_ident("HashMap") || next.is_ident("HashSet") {
                    out.push(name);
                    break;
                }
            }
        }
        // `let [mut] name ... = ... HashMap ... ;`
        if t.is_ident("let") {
            let mut j = i + 1;
            if matches!(trees.get(j), Some(n) if n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = trees.get(j).and_then(|n| n.ident()) else {
                continue;
            };
            for next in &trees[j + 1..] {
                if next.is_punct(';') {
                    break;
                }
                if next.is_ident("HashMap") || next.is_ident("HashSet") {
                    out.push(name);
                    break;
                }
            }
        }
    }
}

/// Scans one token stream, skipping `#[test]`/`#[cfg(test)]` items, then
/// recurses into nested groups.
fn scan_stream(cx: &Cx<'_>, trees: &[TokenTree], findings: &mut Vec<Finding>) {
    // Indices of groups that belong to a test-gated item.
    let mut skip_groups: Vec<usize> = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        if is_test_attribute(trees, i) {
            // Skip the attributed item: everything up to and including its
            // body brace (or a terminating `;` for brace-less items).
            let mut j = i + 1;
            // step over the attribute tokens themselves
            while j < trees.len() && !matches!(trees[j].tok, Tok::Group(Delim::Bracket, _)) {
                j += 1;
            }
            j += 1; // past the `[...]`
            while j < trees.len() {
                match &trees[j].tok {
                    Tok::Group(Delim::Brace, _) => {
                        skip_groups.push(j);
                        break;
                    }
                    Tok::Punct(';') => break,
                    _ => j += 1,
                }
            }
        }
        i += 1;
    }

    run_sequence_rules(cx, trees, &skip_groups, findings);

    for (idx, t) in trees.iter().enumerate() {
        if skip_groups.contains(&idx) {
            continue;
        }
        if let Tok::Group(_, inner) = &t.tok {
            scan_stream(cx, inner, findings);
        }
    }
}

/// `true` when index `i` starts an attribute containing the ident `test`
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(all(test, ..))]`, ...).
fn is_test_attribute(trees: &[TokenTree], i: usize) -> bool {
    if !trees[i].is_punct('#') {
        return false;
    }
    let next = match trees.get(i + 1) {
        Some(n) => n,
        None => return false,
    };
    let group = match &next.tok {
        Tok::Group(Delim::Bracket, inner) => inner,
        _ => return false,
    };
    contains_ident(group, "test")
}

pub(crate) fn contains_ident(trees: &[TokenTree], name: &str) -> bool {
    trees.iter().any(|t| match &t.tok {
        Tok::Ident(s) => *s == name,
        Tok::Group(_, inner) => contains_ident(inner, name),
        _ => false,
    })
}

fn run_sequence_rules(
    cx: &Cx<'_>,
    trees: &[TokenTree],
    skip_groups: &[usize],
    findings: &mut Vec<Finding>,
) {
    let in_skipped =
        |range: std::ops::Range<usize>| -> bool { skip_groups.iter().any(|g| range.contains(g)) };
    for i in 0..trees.len() {
        if skip_groups.contains(&i) {
            continue;
        }
        let t = &trees[i];
        if cx.rules.r1 {
            r1_at(cx, trees, i, findings);
        }
        if cx.rules.r2 {
            r2_at(cx, trees, i, findings);
        }
        if cx.rules.r3 {
            r3_at(cx, trees, i, findings);
        }
        if cx.rules.r6 {
            r6_at(cx, trees, i, findings);
        }
        if cx.rules.r7 {
            r7_at(cx, trees, i, findings);
        }
        if cx.rules.r4 && t.is_ident("match") {
            // The match body is the next top-level brace group; make sure
            // it is not a skipped test body.
            if let Some((body_idx, body)) = trees[i + 1..]
                .iter()
                .enumerate()
                .find_map(|(k, n)| n.group(Delim::Brace).map(|g| (i + 1 + k, g)))
            {
                if !in_skipped(i..body_idx + 1) {
                    r4_check_match(cx, body, findings);
                }
            }
        }
    }
}

/// R1 at index `i`: `<hash ident>.iter()`-style calls and
/// `for .. in <hash ident>` loops.
fn r1_at(cx: &Cx<'_>, trees: &[TokenTree], i: usize, findings: &mut Vec<Finding>) {
    let t = &trees[i];
    // `x.iter()` / `self.x.drain()` ...
    if let Some(name) = t.ident() {
        if cx.hash_idents.contains(&name) && matches!(trees.get(i + 1), Some(n) if n.is_punct('.'))
        {
            if let Some(method) = trees.get(i + 2).and_then(|n| n.ident()) {
                let has_call = trees
                    .get(i + 3)
                    .map(|n| n.group(Delim::Paren).is_some())
                    .unwrap_or(false);
                if has_call && R1_ITER_METHODS.contains(&method) {
                    findings.push(cx.finding(
                        "R1",
                        &trees[i + 2],
                        format!("iteration over hash-ordered `{name}` via `.{method}()`"),
                    ));
                }
            }
        }
    }
    // `for <pat> in <expr-containing-hash-ident> { .. }`
    if t.is_ident("for") {
        // find the `in` belonging to this `for`, then the body brace
        let mut in_idx = None;
        for (k, n) in trees[i + 1..].iter().enumerate() {
            if n.is_ident("in") {
                in_idx = Some(i + 1 + k);
                break;
            }
            if n.group(Delim::Brace).is_some() {
                break;
            }
        }
        let Some(in_idx) = in_idx else { return };
        for n in &trees[in_idx + 1..] {
            if n.group(Delim::Brace).is_some() {
                break;
            }
            if let Some(name) = n.ident() {
                if cx.hash_idents.contains(&name) {
                    findings.push(cx.finding(
                        "R1",
                        n,
                        format!("`for` loop over hash-ordered `{name}`"),
                    ));
                    break;
                }
            }
        }
    }
}

/// R2 at index `i`: ambient nondeterminism sources.
fn r2_at(cx: &Cx<'_>, trees: &[TokenTree], i: usize, findings: &mut Vec<Finding>) {
    let t = &trees[i];
    let path_seq = |a: &str, b: &str| -> bool {
        t.is_ident(a)
            && matches!(trees.get(i + 1), Some(n) if n.is_punct(':'))
            && matches!(trees.get(i + 2), Some(n) if n.is_punct(':'))
            && matches!(trees.get(i + 3), Some(n) if n.is_ident(b))
    };
    if path_seq("Instant", "now") {
        findings.push(cx.finding(
            "R2",
            t,
            "`Instant::now()` reads the wall clock; use simulated time".to_string(),
        ));
    }
    if t.is_ident("SystemTime") {
        findings.push(cx.finding(
            "R2",
            t,
            "`SystemTime` is ambient wall-clock state".to_string(),
        ));
    }
    if t.is_ident("thread_rng") {
        findings.push(cx.finding(
            "R2",
            t,
            "`thread_rng()` is OS-seeded; use the seeded SimRng".to_string(),
        ));
    }
    if path_seq("thread", "sleep") {
        findings.push(cx.finding(
            "R2",
            t,
            "`thread::sleep` couples behaviour to the OS scheduler".to_string(),
        ));
    }
    if t.is_ident("RandomState") || t.is_ident("DefaultHasher") {
        findings.push(cx.finding(
            "R2",
            t,
            "hash-seeded state (`RandomState`/`DefaultHasher`) varies per process".to_string(),
        ));
    }
}

/// R3 at index `i`: panic paths.
fn r3_at(cx: &Cx<'_>, trees: &[TokenTree], i: usize, findings: &mut Vec<Finding>) {
    let t = &trees[i];
    // `.unwrap()` / `.expect(..)`
    if t.is_punct('.') {
        if let Some(m) = trees.get(i + 1).and_then(|n| n.ident()) {
            if (m == "unwrap" || m == "expect")
                && matches!(trees.get(i + 2), Some(n) if n.group(Delim::Paren).is_some())
            {
                findings.push(cx.finding(
                    "R3",
                    &trees[i + 1],
                    format!("`.{m}()` can panic; return a typed error instead"),
                ));
            }
        }
    }
    // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
    if let Some(name) = t.ident() {
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && matches!(trees.get(i + 1), Some(n) if n.is_punct('!'))
        {
            findings.push(cx.finding("R3", t, format!("`{name}!` aborts the process")));
        }
    }
    // Index/slice expressions: `expr[..]` where `expr` ends in an ident,
    // call, or another index. Macro bodies (`vec![..]`), attributes
    // (`#[..]`), array types and slice patterns are excluded by the shape
    // of the preceding token.
    if i > 0 && matches!(t.tok, Tok::Group(Delim::Bracket, _)) {
        let prev = &trees[i - 1];
        let indexable = match &prev.tok {
            Tok::Ident(name) => !NON_INDEX_KEYWORDS.contains(name),
            Tok::Group(Delim::Paren, _) | Tok::Group(Delim::Bracket, _) => {
                // `(..)[i]` / `a[i][j]` — but not a macro `m!(..)[..]`
                // (still an index, keep it) and not `#[attr]` handled by
                // the Ident arm above.
                true
            }
            // `expr?[i]` — the `?` operator can only be followed by `[`
            // in an index expression.
            Tok::Punct('?') => true,
            _ => false,
        };
        if indexable {
            findings.push(cx.finding(
                "R3",
                t,
                "slice indexing can panic on truncated input; use `.get()`".to_string(),
            ));
        }
    }
}

/// Integer targets an `as` cast can truncate to (or reinterpret the sign
/// of). `usize`/`u64`/`u128` are excluded: widening from wire-sized
/// fields cannot lose bits.
const R6_NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// R6 at index `i`: truncating casts and overflow-hiding arithmetic in
/// wire-codec code.
fn r6_at(cx: &Cx<'_>, trees: &[TokenTree], i: usize, findings: &mut Vec<Finding>) {
    let t = &trees[i];
    if t.is_ident("as") {
        if let Some(ty) = trees.get(i + 1).and_then(|n| n.ident()) {
            if R6_NARROW_TARGETS.contains(&ty) {
                findings.push(cx.finding(
                    "R6",
                    &trees[i + 1],
                    format!(
                        "`as {ty}` can truncate or reinterpret; use `{ty}::from`/`try_from` \
                         or a documented length helper"
                    ),
                ));
            }
        }
    }
    if t.is_punct('.') {
        if let Some(m) = trees.get(i + 1).and_then(|n| n.ident()) {
            let hides_overflow = m.starts_with("wrapping_")
                || m.starts_with("unchecked_")
                || m.starts_with("overflowing_");
            if hides_overflow
                && matches!(trees.get(i + 2), Some(n) if n.group(Delim::Paren).is_some())
            {
                findings.push(cx.finding(
                    "R6",
                    &trees[i + 1],
                    format!(
                        "`{m}` hides overflow in codec arithmetic; use `checked_*` and \
                             surface the error"
                    ),
                ));
            }
        }
    }
}

/// Method names that drain a finite container or budget, bounding the
/// loop that calls them.
const R7_DRAIN_METHODS: &[&str] = &[
    "pop",
    "pop_front",
    "pop_back",
    "next",
    "next_frame",
    "next_message",
    "next_delay",
    "next_event",
    "recv",
    "try_recv",
    "drain",
    "dequeue",
    "take",
];

/// Identifier fragments that signal an explicit iteration budget.
const R7_BUDGET_WORDS: &[&str] = &[
    "limit",
    "budget",
    "deadline",
    "attempt",
    "fuel",
    "remaining",
    "retries",
];

/// R7 at index `i`: `loop`/`while` without a provable bound.
fn r7_at(cx: &Cx<'_>, trees: &[TokenTree], i: usize, findings: &mut Vec<Finding>) {
    let t = &trees[i];
    if t.is_ident("loop") {
        let Some(body) = trees.get(i + 1).and_then(|n| n.group(Delim::Brace)) else {
            return;
        };
        let has_exit = contains_ident(body, "break") || contains_ident(body, "return");
        let bounded = has_exit && (has_budget_ident(body) || has_drain_call(body));
        if !bounded {
            findings.push(
                cx.finding(
                    "R7",
                    t,
                    "`loop` without a provable budget (no limit/deadline exit, no draining \
                 call); bound it or add a justified allow"
                        .to_string(),
                ),
            );
        }
        return;
    }
    if t.is_ident("while") {
        // The condition runs up to the body brace at this nesting level.
        let Some(body_idx) = trees[i + 1..]
            .iter()
            .position(|n| n.group(Delim::Brace).is_some())
            .map(|k| i + 1 + k)
        else {
            return;
        };
        let cond = &trees[i + 1..body_idx];
        let is_while_let = cond.first().map(|n| n.is_ident("let")).unwrap_or(false);
        let bounded = if is_while_let {
            // `while let Some(x) = q.pop()` — bounded iff the scrutinee
            // drains something finite or tracks a budget.
            has_drain_call(cond) || cond.iter().any(drain_or_budget_ident) || has_budget_ident(cond)
        } else {
            has_comparison(cond)
                || has_budget_ident(cond)
                || has_drain_call(cond)
                || cond.iter().any(drain_or_budget_ident)
        };
        if !bounded {
            findings.push(
                cx.finding(
                    "R7",
                    t,
                    "`while` condition has no visible bound (no comparison, budget counter, or \
                 draining call); bound it or add a justified allow"
                        .to_string(),
                ),
            );
        }
    }
}

fn has_budget_ident(trees: &[TokenTree]) -> bool {
    trees.iter().any(|t| match &t.tok {
        Tok::Ident(s) => {
            let lower = s.to_lowercase();
            R7_BUDGET_WORDS.iter().any(|w| lower.contains(w))
        }
        Tok::Group(_, inner) => has_budget_ident(inner),
        _ => false,
    })
}

fn drain_or_budget_ident(t: &TokenTree) -> bool {
    match &t.tok {
        Tok::Ident(s) => R7_DRAIN_METHODS.contains(s),
        Tok::Group(_, inner) => inner.iter().any(drain_or_budget_ident),
        _ => false,
    }
}

/// `true` when `trees` contains a `.m(..)` call with `m` in the drain
/// list, at any nesting depth.
fn has_drain_call(trees: &[TokenTree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Tok::Group(_, inner) = &t.tok {
            if has_drain_call(inner) {
                return true;
            }
        }
        if t.is_punct('.') {
            if let Some(m) = trees.get(i + 1).and_then(|n| n.ident()) {
                if R7_DRAIN_METHODS.contains(&m)
                    && matches!(trees.get(i + 2), Some(n) if n.group(Delim::Paren).is_some())
                {
                    return true;
                }
            }
        }
    }
    false
}

/// `true` when the condition contains a comparison operator (`<`, `>`,
/// `<=`, `>=`, `!=`) at any depth.
fn has_comparison(trees: &[TokenTree]) -> bool {
    for (i, t) in trees.iter().enumerate() {
        if let Tok::Group(_, inner) = &t.tok {
            if has_comparison(inner) {
                return true;
            }
        }
        if t.is_punct('<') || t.is_punct('>') {
            return true;
        }
        if t.is_punct('!') && matches!(trees.get(i + 1), Some(n) if n.is_punct('=')) {
            return true;
        }
    }
    false
}

/// R4: inside a match body, flag catch-all arms when any arm pattern
/// mentions a protocol enum.
fn r4_check_match(cx: &Cx<'_>, body: &[TokenTree], findings: &mut Vec<Finding>) {
    let arms = synlite::ast::match_arms(body);
    if arms.is_empty() {
        return;
    }
    let is_protocol = arms.iter().any(|arm| {
        cx.protocol_enums
            .iter()
            .any(|e| contains_ident(arm.pattern, e))
    });
    if !is_protocol {
        return;
    }
    for arm in &arms {
        let pat = strip_guard(arm.pattern);
        if let Some(t) = wildcard_token(pat) {
            findings.push(
                cx.finding(
                    "R4",
                    t,
                    "catch-all arm in a protocol-enum match; list the variants so new \
                 ones are a compile error"
                        .to_string(),
                ),
            );
        }
    }
}

/// Drops a trailing `if <guard>` from a pattern.
fn strip_guard<'t, 'a>(pattern: &'t [TokenTree<'a>]) -> &'t [TokenTree<'a>] {
    pattern
        .iter()
        .position(|t| t.is_ident("if"))
        .map(|idx| &pattern[..idx])
        .unwrap_or(pattern)
}

/// If `pattern` is a catch-all (`_`, a bare binding ident, or `Ok(_)` /
/// `Ok(binding)`), returns the token to anchor the finding on.
fn wildcard_token<'t, 'a>(pattern: &'t [TokenTree<'a>]) -> Option<&'t TokenTree<'a>> {
    match pattern {
        [t] if t.is_punct('_') => Some(t),
        [t] if t.ident().is_some() => Some(t),
        [ok, args] if ok.is_ident("Ok") => {
            let inner = args.group(Delim::Paren)?;
            match inner {
                [a] if a.is_punct('_') => Some(ok),
                [a] if a.ident().is_some() => Some(ok),
                _ => None,
            }
        }
        _ => None,
    }
}

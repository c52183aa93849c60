//! R10 — interval dataflow proofs for the codec bounds discipline.
//!
//! The GIOP decoders and the simnet receive queue promise (DESIGN §9)
//! that every index, length subtraction, and narrowing conversion on the
//! untrusted wire path is *dominated* by a bounds check: a `get()`, a
//! [`take`-style exact-length read](DataflowConfig::exact_len_calls), a
//! guard comparison, or an explicitly saturating/checked operator. This
//! pass proves that claim per function with an intraprocedural abstract
//! interpretation:
//!
//! - function bodies are lowered to a CFG ([`synlite::cfg`]) and each
//!   statement re-parsed as an expression tree ([`synlite::expr`]);
//! - the abstract state tracks an integer **interval** per symbolic key
//!   (`take`, `self.pos`, `front.len()`) plus **relational facts**
//!   (`take <= self.len`) seeded by `min`/`%`/guard refinement;
//! - a fixpoint joins states at merge points (unreachable inputs stay
//!   `None`, so a `guard { return }` refines everything after it), with
//!   widening after a few visits of a loop head;
//! - a final pass walks every reachable statement and classifies each
//!   *site*: subtraction, addition/multiplication, division/remainder,
//!   slice indexing, `split_to`/`split_off`, narrowing `as` casts, and
//!   `try_into`/`try_from` with an `unwrap_or` fallback. Sites the state
//!   cannot discharge become `R10` findings.
//!
//! The integer model is unsigned 64-bit (the discipline is about `usize`
//! indices and `u32` wire lengths); `.len()` results are capped at
//! `isize::MAX`. A `try_from(..).unwrap_or(MAX)` with an *extremal*
//! default is saturation and passes; a non-extremal default is flagged as
//! silently-truncating narrowing even though no `as` appears.

use std::collections::{BTreeMap, BTreeSet};

use synlite::ast::{FnDecl, Item, ItemKind};
use synlite::cfg::{self, Cfg, StmtKind, Term};
use synlite::expr::{parse_expr, BinOp, Expr, ExprKind};
use synlite::{Span, Tok, TokenTree};

use crate::{FileAst, Finding};

/// Where R10 runs and which calls establish exact-length facts.
#[derive(Clone, Debug)]
pub struct DataflowConfig {
    /// Files (or directory prefixes) whose functions must prove every
    /// site.
    pub scopes: Vec<String>,
    /// Method names whose first argument is the exact length of the
    /// returned slice (`let s = r.take(2, ..)?` ⇒ `s.len() == 2`).
    pub exact_len_calls: Vec<String>,
}

impl Default for DataflowConfig {
    fn default() -> Self {
        DataflowConfig {
            scopes: vec![
                "crates/giop/src/cdr.rs".to_string(),
                "crates/giop/src/message.rs".to_string(),
                "crates/simnet/src/recv_queue.rs".to_string(),
            ],
            exact_len_calls: vec!["take".to_string()],
        }
    }
}

impl DataflowConfig {
    /// Whether `path` is inside one of the configured scopes.
    pub fn in_scope(&self, path: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| path == s || path.starts_with(&format!("{s}/")))
    }
}

/// Upper bound of the unsigned-64 value model.
const TOP_HI: i128 = u64::MAX as i128;
/// Upper bound for `.len()` results (`isize::MAX` on 64-bit targets).
const LEN_HI: i128 = i64::MAX as i128;

/// A closed integer interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Interval {
    lo: i128,
    hi: i128,
}

impl Interval {
    const TOP: Interval = Interval { lo: 0, hi: TOP_HI };

    fn exact(v: i128) -> Interval {
        Interval { lo: v, hi: v }
    }

    fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// `None` when the meet is empty (an infeasible path).
    fn meet(self, o: Interval) -> Option<Interval> {
        let m = Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        };
        (m.lo <= m.hi).then_some(m)
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(o.lo),
            hi: self.hi.saturating_add(o.hi).min(TOP_HI),
        }
    }

    /// Unsigned-model subtraction: results clamp at zero.
    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: (self.lo.saturating_sub(o.hi)).max(0),
            hi: (self.hi.saturating_sub(o.lo)).max(0),
        }
    }

    fn mul(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_mul(o.lo).max(0),
            hi: self.hi.saturating_mul(o.hi).min(TOP_HI),
        }
    }
}

/// How one symbolic key is ordered against another.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Rel {
    Lt,
    Le,
}

/// Abstract state at a program point. Only *refined* keys are stored:
/// absent keys mean the per-key default ([`default_for`]), which keeps
/// equality canonical for the fixpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct State {
    vars: BTreeMap<String, Interval>,
    /// `(a, b, rel)` meaning `a rel b`.
    rels: BTreeSet<(String, String, Rel)>,
}

/// The interval an unstored key denotes.
fn default_for(key: &str) -> Interval {
    if key.ends_with(".len()") {
        Interval { lo: 0, hi: LEN_HI }
    } else {
        Interval::TOP
    }
}

/// Whether a key is precise enough to index state (no opaque `?` holes).
fn storable(key: &str) -> bool {
    !key.contains('?') && !key.is_empty()
}

impl State {
    fn get(&self, key: &str) -> Interval {
        self.vars
            .get(key)
            .copied()
            .unwrap_or_else(|| default_for(key))
    }

    fn set(&mut self, key: &str, iv: Interval) {
        if !storable(key) {
            return;
        }
        if iv == default_for(key) {
            self.vars.remove(key);
        } else {
            self.vars.insert(key.to_string(), iv);
        }
    }

    /// Narrows `key` to the meet with `iv`; `false` means infeasible.
    fn refine(&mut self, key: &str, iv: Interval) -> bool {
        if !storable(key) {
            return true;
        }
        match self.get(key).meet(iv) {
            Some(m) => {
                self.set(key, m);
                true
            }
            None => false,
        }
    }

    fn add_rel(&mut self, a: &str, b: &str, rel: Rel) {
        if storable(a) && storable(b) && a != b {
            self.rels.insert((a.to_string(), b.to_string(), rel));
        }
    }

    /// Whether the state proves `a <= b` (or `a < b` for `Rel::Lt`).
    fn proves(&self, a: &str, b: &str, rel: Rel) -> bool {
        self.rels.contains(&(a.to_string(), b.to_string(), rel))
            || (rel == Rel::Le && self.rels.contains(&(a.to_string(), b.to_string(), Rel::Lt)))
    }

    /// Kills every fact mentioning `root` (the key itself, its fields,
    /// projections, and any relation touching them).
    fn kill(&mut self, root: &str) {
        if root.is_empty() {
            return;
        }
        let hit = |k: &str| {
            k == root || k.starts_with(&format!("{root}.")) || k.starts_with(&format!("{root}["))
        };
        self.vars.retain(|k, _| !hit(k));
        self.rels.retain(|(a, b, _)| !hit(a) && !hit(b));
    }

    fn join(&self, o: &State) -> State {
        let mut out = State::default();
        for key in self.vars.keys().chain(o.vars.keys()) {
            out.set(key, self.get(key).join(o.get(key)));
        }
        out.rels = self.rels.intersection(&o.rels).cloned().collect();
        out
    }
}

/// One analyzed function: its declaration plus the enclosing impl type.
struct FnUnit<'a> {
    decl: &'a FnDecl<'a>,
}

/// Collects non-test functions with bodies, recursing through impls and
/// inline modules.
fn collect_fns<'a>(items: &'a [Item<'a>], out: &mut Vec<FnUnit<'a>>) {
    for item in items {
        if item.test_only {
            continue;
        }
        match &item.kind {
            ItemKind::Fn(f) if f.body.is_some() => out.push(FnUnit { decl: f }),
            ItemKind::Impl(ib) => collect_fns(&ib.items, out),
            ItemKind::Mod(m) => collect_fns(&m.items, out),
            _ => {}
        }
    }
}

/// Bit width of a primitive integer type name, if it is one.
fn int_width(ty: &str) -> Option<u32> {
    let ty = ty
        .trim()
        .trim_start_matches('&')
        .trim_start_matches("mut ")
        .trim();
    match ty {
        "u8" | "i8" => Some(8),
        "u16" | "i16" => Some(16),
        "u32" | "i32" => Some(32),
        "u64" | "i64" | "usize" | "isize" => Some(64),
        "u128" | "i128" => Some(128),
        _ => None,
    }
}

/// Largest value of a primitive integer type in the unsigned-64 model.
fn ty_hi(ty: &str) -> Option<i128> {
    let signed = ty.trim().starts_with('i');
    int_width(ty).map(|w| {
        let bits = if signed { w - 1 } else { w };
        if bits >= 64 {
            TOP_HI
        } else {
            (1i128 << bits) - 1
        }
    })
}

/// `u32::MAX`-style intrinsic constants.
fn intrinsic_const(path: &str) -> Option<i128> {
    let (ty, which) = path.rsplit_once("::")?;
    match which {
        "MAX" => ty_hi(ty),
        "MIN" => int_width(ty).map(|_| 0),
        _ => None,
    }
}

/// Scans a token stream for `const NAME: _ = <int expr>;` items (top
/// level and inside impl blocks) and evaluates the integer ones.
fn collect_consts(trees: &[TokenTree], consts: &mut BTreeMap<String, i128>) {
    let mut i = 0usize;
    while i < trees.len() {
        if let Tok::Group(_, inner) = &trees[i].tok {
            collect_consts(inner, consts);
            i += 1;
            continue;
        }
        if trees[i].is_ident("const") {
            if let Some(name) = trees.get(i + 1).and_then(|t| t.ident()) {
                let mut eq = i + 2;
                while eq < trees.len() && !trees[eq].is_punct('=') && !trees[eq].is_punct(';') {
                    eq += 1;
                }
                let mut end = eq;
                while end < trees.len() && !trees[end].is_punct(';') {
                    end += 1;
                }
                if eq < end && trees[eq].is_punct('=') {
                    let e = parse_expr(&trees[eq + 1..end]);
                    if let Some(v) = const_eval(&e, consts) {
                        consts.insert(name.to_string(), v);
                    }
                }
                i = end;
                continue;
            }
        }
        i += 1;
    }
}

/// Evaluates an expression to a single integer, if possible.
fn const_eval(e: &Expr, consts: &BTreeMap<String, i128>) -> Option<i128> {
    match &e.kind {
        ExprKind::Int(v) => Some(*v),
        ExprKind::Path(p) => consts.get(p).copied().or_else(|| intrinsic_const(p)),
        ExprKind::Binary { op, lhs, rhs } => {
            let a = const_eval(lhs, consts)?;
            let b = const_eval(rhs, consts)?;
            match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                _ => None,
            }
        }
        ExprKind::Cast { inner, .. } => const_eval(inner, consts),
        _ => None,
    }
}

/// Methods that do not invalidate facts about their receiver.
const PURE_METHODS: &[&str] = &[
    "len",
    "is_empty",
    "min",
    "max",
    "get",
    "first",
    "last",
    "split_last",
    "split_first",
    "iter",
    "clone",
    "copied",
    "cloned",
    "to_vec",
    "to_string",
    "as_bytes",
    "as_ref",
    "as_slice",
    "ok",
    "ok_or",
    "err",
    "map",
    "map_err",
    "and_then",
    "unwrap_or",
    "unwrap_or_default",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "checked_div",
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "try_into",
    "to_be_bytes",
    "to_le_bytes",
    "to_ne_bytes",
    "contains",
    "starts_with",
    "ends_with",
];

/// What a `try_into`/`try_from` chain narrows from (and into, when the
/// target type is syntactically visible).
struct Narrowing<'a> {
    src: &'a Expr,
    target_ty: Option<String>,
}

/// Recognises `x.try_into()` and `T::try_from(x)` chains.
fn narrowing_chain(e: &Expr) -> Option<Narrowing<'_>> {
    match &e.kind {
        ExprKind::MethodCall { recv, name, args } if name == "try_into" && args.is_empty() => {
            Some(Narrowing {
                src: recv,
                target_ty: None,
            })
        }
        ExprKind::Call { func, args } if args.len() == 1 => func
            .strip_suffix("::try_from")
            .filter(|ty| int_width(ty).is_some())
            .map(|ty| Narrowing {
                src: &args[0],
                target_ty: Some(ty.to_string()),
            }),
        _ => None,
    }
}

/// Per-function analysis context.
struct FnCx<'a> {
    path: &'a str,
    consts: &'a BTreeMap<String, i128>,
    exact_len: &'a [String],
    /// `false` during the fixpoint (state only), `true` in the reporting
    /// pass (sites become findings).
    emit: bool,
    findings: Vec<Finding>,
}

impl FnCx<'_> {
    fn flag(&mut self, span: Span, message: String) {
        if self.emit {
            self.findings.push(Finding {
                rule: "R10",
                path: self.path.to_string(),
                line: span.line,
                col: span.col,
                message,
            });
        }
    }

    /// Proves `need rel bound` (e.g. `take <= front.len()`) via a
    /// relational fact or by interval separation.
    fn proved(&self, st: &State, need: &Expr, niv: Interval, bound: &Expr, biv: Interval) -> bool {
        let (nk, bk) = (need.key(), bound.key());
        st.proves(&nk, &bk, Rel::Le) || niv.hi <= biv.lo
    }

    /// Evaluates `e` under `st`, checking sites and applying kill effects
    /// of mutating calls along the way.
    fn eval(&mut self, e: &Expr, st: &mut State) -> Interval {
        match &e.kind {
            ExprKind::Int(v) => Interval::exact(*v),
            ExprKind::Lit(_) => Interval::TOP,
            ExprKind::Path(p) => self
                .consts
                .get(p)
                .copied()
                .or_else(|| intrinsic_const(p))
                .map(Interval::exact)
                .unwrap_or_else(|| st.get(p)),
            ExprKind::Field { base, .. } => {
                self.eval(base, st);
                st.get(&e.key())
            }
            ExprKind::MethodCall { recv, name, args } => self.eval_method(e, recv, name, args, st),
            ExprKind::Call { args, .. } => {
                for a in args {
                    self.eval(a, st);
                }
                Interval::TOP
            }
            ExprKind::Binary { op, lhs, rhs } => self.eval_binary(e, *op, lhs, rhs, st),
            ExprKind::Unary { op, inner } => {
                let iv = self.eval(inner, st);
                match op {
                    '&' | '*' => iv,
                    '-' => Interval {
                        lo: -iv.hi,
                        hi: -iv.lo,
                    },
                    _ => Interval::TOP,
                }
            }
            ExprKind::Cast { inner, ty } => {
                let iv = self.eval(inner, st);
                match int_width(ty) {
                    None => Interval::TOP,
                    Some(w) if w >= 64 => iv.meet(Interval::TOP).unwrap_or(Interval::TOP),
                    Some(_) => {
                        let hi = ty_hi(ty).unwrap_or(TOP_HI);
                        if iv.hi > hi || iv.lo < 0 {
                            self.flag(
                                e.span,
                                format!(
                                    "silently-truncating narrowing: cannot prove `{}` fits in \
                                     `{ty}` (value may reach {}, `{ty}` holds at most {hi})",
                                    inner.key(),
                                    iv.hi
                                ),
                            );
                        }
                        Interval {
                            lo: 0,
                            hi: iv.hi.min(hi),
                        }
                    }
                }
            }
            ExprKind::Try(inner) => self.eval(inner, st),
            ExprKind::Index { base, index } => {
                let len_key = format!("{}.len()", base.key());
                let len_iv = st.get(&len_key);
                self.eval(base, st);
                match &index.kind {
                    ExprKind::Range { lo, hi, inclusive } => {
                        if let Some(hi) = hi {
                            let hiv = self.eval(hi, st);
                            let rel = if *inclusive { Rel::Lt } else { Rel::Le };
                            let ok = st.proves(&hi.key(), &len_key, rel)
                                || (if *inclusive {
                                    hiv.hi < len_iv.lo
                                } else {
                                    hiv.hi <= len_iv.lo
                                });
                            if !ok {
                                self.flag(
                                    e.span,
                                    format!(
                                        "unproven range index: cannot show `{}` <= `{len_key}` \
                                         in `{}`",
                                        hi.key(),
                                        e.key()
                                    ),
                                );
                            }
                        }
                        if let Some(lo) = lo {
                            let liv = self.eval(lo, st);
                            if hi.is_none()
                                && !(st.proves(&lo.key(), &len_key, Rel::Le) || liv.hi <= len_iv.lo)
                            {
                                self.flag(
                                    e.span,
                                    format!(
                                        "unproven range index: cannot show `{}` <= `{len_key}` \
                                         in `{}`",
                                        lo.key(),
                                        e.key()
                                    ),
                                );
                            }
                        }
                    }
                    _ => {
                        let iiv = self.eval(index, st);
                        let ok = st.proves(&index.key(), &len_key, Rel::Lt) || iiv.hi < len_iv.lo;
                        if !ok {
                            self.flag(
                                e.span,
                                format!(
                                    "unproven index: cannot show `{}` < `{len_key}` in `{}`",
                                    index.key(),
                                    e.key()
                                ),
                            );
                        }
                    }
                }
                Interval::TOP
            }
            ExprKind::Range { lo, hi, .. } => {
                if let Some(lo) = lo {
                    self.eval(lo, st);
                }
                if let Some(hi) = hi {
                    self.eval(hi, st);
                }
                Interval::TOP
            }
            ExprKind::Repeat { elem, len } => {
                self.eval(elem, st);
                self.eval(len, st);
                Interval::TOP
            }
            ExprKind::Opaque(children) => {
                for c in children {
                    self.eval(c, st);
                }
                Interval::TOP
            }
        }
    }

    fn eval_method(
        &mut self,
        e: &Expr,
        recv: &Expr,
        name: &str,
        args: &[Expr],
        st: &mut State,
    ) -> Interval {
        // `unwrap_or` closing a try_into/try_from chain is the narrowing
        // site; handle it before generic evaluation so the chain is
        // classified as a whole.
        if name == "unwrap_or" && args.len() == 1 {
            if let Some(n) = narrowing_chain(recv) {
                return self.eval_narrowing(e, &n, &args[0], st);
            }
        }
        let riv = self.eval(recv, st);
        let aivs: Vec<Interval> = args.iter().map(|a| self.eval(a, st)).collect();
        let result = match (name, aivs.as_slice()) {
            ("len", []) => st.get(&e.key()),
            ("min", [a]) => Interval {
                lo: riv.lo.min(a.lo),
                hi: riv.hi.min(a.hi),
            },
            ("max", [a]) => Interval {
                lo: riv.lo.max(a.lo),
                hi: riv.hi.max(a.hi),
            },
            ("saturating_add" | "checked_add", [a]) => riv.add(*a),
            ("saturating_sub" | "checked_sub", [a]) => riv.sub(*a),
            ("saturating_mul" | "checked_mul", [a]) => riv.mul(*a),
            ("split_to" | "split_off", [niv]) => {
                let n = &args[0];
                let len_key = format!("{}.len()", recv.key());
                let ok = st.proves(&n.key(), &len_key, Rel::Le) || niv.hi <= st.get(&len_key).lo;
                if !ok {
                    self.flag(
                        e.span,
                        format!(
                            "unproven split: cannot show `{}` <= `{len_key}` at `{}`",
                            n.key(),
                            e.key()
                        ),
                    );
                }
                Interval::TOP
            }
            _ => Interval::TOP,
        };
        if !PURE_METHODS.contains(&name) {
            st.kill(&root_key(recv));
        }
        result
    }

    /// Classifies `chain.unwrap_or(default)` where `chain` narrows.
    fn eval_narrowing(
        &mut self,
        e: &Expr,
        n: &Narrowing<'_>,
        default: &Expr,
        st: &mut State,
    ) -> Interval {
        let src_iv = self.eval(n.src, st);
        match &default.kind {
            // `[0; N]` — an exact-length conversion of a slice; fine iff
            // the source length provably equals N.
            ExprKind::Repeat { len, .. } => {
                let n_iv = self.eval(len, st);
                let len_key = format!("{}.len()", n.src.key());
                let have = st.get(&len_key);
                if !(n_iv.lo == n_iv.hi && have == n_iv) {
                    self.flag(
                        e.span,
                        format!(
                            "silently-truncating narrowing: cannot prove `{len_key}` == `{}` \
                             for `{}` — a short or long slice is replaced by the fallback",
                            len.key(),
                            e.key()
                        ),
                    );
                }
                Interval::TOP
            }
            _ => {
                let div = self.eval(default, st);
                let extremal = match &n.target_ty {
                    Some(ty) => {
                        let hi = ty_hi(ty).unwrap_or(TOP_HI);
                        div == Interval::exact(0) || div == Interval::exact(hi)
                    }
                    None => {
                        div == Interval::exact(0)
                            || matches!(&default.kind, ExprKind::Path(p) if p.ends_with("::MAX") || p.ends_with("::MIN"))
                    }
                };
                let fits = match &n.target_ty {
                    Some(ty) => ty_hi(ty).map(|hi| src_iv.hi <= hi).unwrap_or(false),
                    None => false,
                };
                if !extremal && !fits {
                    self.flag(
                        e.span,
                        format!(
                            "silently-truncating narrowing: `{}` falls back to `{}` on overflow \
                             — saturate with an extremal default or prove the value fits",
                            e.key(),
                            default.key()
                        ),
                    );
                }
                match &n.target_ty {
                    Some(ty) => Interval {
                        lo: 0,
                        hi: ty_hi(ty).unwrap_or(TOP_HI),
                    },
                    None => Interval::TOP,
                }
            }
        }
    }

    fn eval_binary(
        &mut self,
        e: &Expr,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        st: &mut State,
    ) -> Interval {
        let a = self.eval(lhs, st);
        let b = self.eval(rhs, st);
        match op {
            BinOp::Sub => {
                if !self.sub_proved(st, lhs, a, rhs, b) {
                    self.flag(
                        e.span,
                        format!(
                            "unproven subtraction: cannot show `{}` <= `{}` at `{}` — guard \
                             the range or use `saturating_sub`",
                            rhs.key(),
                            lhs.key(),
                            e.key()
                        ),
                    );
                }
                a.sub(b)
            }
            BinOp::Add => {
                if a.hi.saturating_add(b.hi) > TOP_HI {
                    self.flag(
                        e.span,
                        format!(
                            "unproven addition: `{}` may overflow — no bound on the operands; \
                             use `saturating_add` or tighten them",
                            e.key()
                        ),
                    );
                }
                a.add(b)
            }
            BinOp::Mul => {
                if a.hi.saturating_mul(b.hi) > TOP_HI {
                    self.flag(
                        e.span,
                        format!(
                            "unproven multiplication: `{}` may overflow — use `saturating_mul` \
                             or bound the operands",
                            e.key()
                        ),
                    );
                }
                a.mul(b)
            }
            BinOp::Div | BinOp::Rem => {
                if b.lo < 1 {
                    self.flag(
                        e.span,
                        format!(
                            "unproven division: cannot show `{}` != 0 in `{}`",
                            rhs.key(),
                            e.key()
                        ),
                    );
                }
                if op == BinOp::Rem {
                    Interval {
                        lo: 0,
                        hi: (b.hi - 1).max(0),
                    }
                } else {
                    Interval { lo: 0, hi: a.hi }
                }
            }
            _ => Interval::TOP,
        }
    }

    /// Whether `lhs - rhs` cannot underflow: relational fact, interval
    /// separation, or the structural `m - x % m` shape (the alignment
    /// idiom, sound whenever `m >= 1`).
    fn sub_proved(&self, st: &State, lhs: &Expr, a: Interval, rhs: &Expr, b: Interval) -> bool {
        if self.proved(st, rhs, b, lhs, a) {
            return true;
        }
        if let ExprKind::Binary {
            op: BinOp::Rem,
            rhs: m,
            ..
        } = &rhs.kind
        {
            if m.key() == lhs.key() && st.get(&m.key()).lo >= 1 {
                return true;
            }
            // `align.max(1)` inlined as the modulus reads the same key.
            if let ExprKind::MethodCall { .. } = &m.kind {
                if m.key() == lhs.key() {
                    return true;
                }
            }
        }
        false
    }

    /// Executes one statement against the state.
    fn exec(&mut self, stmt: &cfg::Stmt, st: &mut State) {
        match &stmt.kind {
            StmtKind::Let {
                name,
                bindings,
                init,
                ..
            } => {
                let init_expr = init.as_ref().map(|t| parse_expr(t));
                let iv = init_expr.as_ref().map(|e| self.eval(e, st));
                for b in bindings {
                    st.kill(b);
                }
                let (Some(n), Some(e), Some(iv)) = (name, init_expr.as_ref(), iv) else {
                    return;
                };
                st.set(n, iv);
                self.bind_facts(n, e, st);
            }
            StmtKind::Assign { target, op, value } => {
                let t = parse_expr(target);
                let v = parse_expr(value);
                let old = st.get(&t.key());
                let vv = self.eval(&v, st);
                // Site-check reads embedded in the target (`a[i] = ..`).
                if !matches!(t.kind, ExprKind::Path(_) | ExprKind::Field { .. }) {
                    self.eval(&t, st);
                }
                let new_iv = match op {
                    None => vv,
                    Some('-') => {
                        if !(st.proves(&v.key(), &t.key(), Rel::Le) || vv.hi <= old.lo) {
                            self.flag(
                                stmt.span,
                                format!(
                                    "unproven subtraction: cannot show `{v}` <= `{t}` at `{t} -= \
                                     {v}` — guard the range or use `saturating_sub`",
                                    v = v.key(),
                                    t = t.key()
                                ),
                            );
                        }
                        old.sub(vv)
                    }
                    Some('+') => {
                        if old.hi.saturating_add(vv.hi) > TOP_HI {
                            self.flag(
                                stmt.span,
                                format!(
                                    "unproven addition: `{} += {}` may overflow — use \
                                     `saturating_add` or bound the operands",
                                    t.key(),
                                    v.key()
                                ),
                            );
                        }
                        old.add(vv)
                    }
                    Some('*') => {
                        if old.hi.saturating_mul(vv.hi) > TOP_HI {
                            self.flag(
                                stmt.span,
                                format!(
                                    "unproven multiplication: `{} *= {}` may overflow",
                                    t.key(),
                                    v.key()
                                ),
                            );
                        }
                        old.mul(vv)
                    }
                    Some('/' | '%') => {
                        if vv.lo < 1 {
                            self.flag(
                                stmt.span,
                                format!("unproven division: cannot show `{}` != 0", v.key()),
                            );
                        }
                        Interval { lo: 0, hi: old.hi }
                    }
                    Some(_) => Interval::TOP,
                };
                let tk = t.key();
                st.kill(&root_key(&t));
                st.set(&tk, new_iv);
            }
            StmtKind::Expr(tokens) => {
                let e = parse_expr(tokens);
                self.eval(&e, st);
            }
        }
    }

    /// Relational facts derivable from the *shape* of a `let` initialiser
    /// (facts an interval alone cannot carry).
    fn bind_facts(&mut self, n: &str, e: &Expr, st: &mut State) {
        let mut e = e;
        while let ExprKind::Try(inner) = &e.kind {
            e = inner;
        }
        match &e.kind {
            ExprKind::MethodCall { recv, name, args } if name == "min" && args.len() == 1 => {
                st.add_rel(n, &recv.key(), Rel::Le);
                st.add_rel(n, &args[0].key(), Rel::Le);
            }
            ExprKind::MethodCall { name, args, .. } if self.exact_len.iter().any(|c| c == name) => {
                if let Some(first) = args.first() {
                    let mut probe = State::default();
                    std::mem::swap(&mut probe, st);
                    let iv = self.eval(first, &mut probe);
                    std::mem::swap(&mut probe, st);
                    st.set(&format!("{n}.len()"), iv);
                }
            }
            ExprKind::Binary {
                op: BinOp::Rem,
                rhs,
                ..
            } if st.get(&rhs.key()).lo >= 1 => {
                st.add_rel(n, &rhs.key(), Rel::Lt);
            }
            ExprKind::Path(p) => {
                // `let a = b;` — `a` inherits `b`'s relations.
                let copied: Vec<_> = st
                    .rels
                    .iter()
                    .filter(|(x, y, _)| x == p || y == p)
                    .cloned()
                    .collect();
                for (x, y, r) in copied {
                    let x = if x == *p { n.to_string() } else { x };
                    let y = if y == *p { n.to_string() } else { y };
                    st.add_rel(&x, &y, r);
                }
                st.add_rel(n, p, Rel::Le);
                st.add_rel(p, n, Rel::Le);
            }
            _ => {}
        }
    }
}

/// The root identifier a mutation through `e` invalidates (`self.buf` for
/// `self.buf.split_to(n)`, `front` for `front.split_to(n)`).
fn root_key(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(p) => p.clone(),
        ExprKind::Field { .. } => e.key(),
        ExprKind::Unary { inner, .. } | ExprKind::Try(inner) => root_key(inner),
        ExprKind::MethodCall { recv, .. } => root_key(recv),
        ExprKind::Index { base, .. } => root_key(base),
        _ => String::new(),
    }
}

/// Applies the truth (or falsity) of `cond` to `st`. Returns `false` when
/// the branch is infeasible.
fn refine_cond(cond: &Expr, truth: bool, st: &mut State) -> bool {
    match &cond.kind {
        ExprKind::Unary { op: '!', inner } => refine_cond(inner, !truth, st),
        ExprKind::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } if truth => refine_cond(lhs, true, st) && refine_cond(rhs, true, st),
        ExprKind::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } if !truth => refine_cond(lhs, false, st) && refine_cond(rhs, false, st),
        ExprKind::Binary { op, lhs, rhs } => {
            // Normalise to `a < b` / `a <= b` / `a == b` under `truth`.
            let (a, b, rel) = match (op, truth) {
                (BinOp::Lt, true) | (BinOp::Ge, false) => (lhs, rhs, Some(Rel::Lt)),
                (BinOp::Le, true) | (BinOp::Gt, false) => (lhs, rhs, Some(Rel::Le)),
                (BinOp::Gt, true) | (BinOp::Le, false) => (rhs, lhs, Some(Rel::Lt)),
                (BinOp::Ge, true) | (BinOp::Lt, false) => (rhs, lhs, Some(Rel::Le)),
                (BinOp::Eq, true) | (BinOp::Ne, false) => (lhs, rhs, None),
                (BinOp::Ne, true) | (BinOp::Eq, false) => {
                    return refine_ne(lhs, rhs, st);
                }
                _ => return true,
            };
            let (ak, bk) = (a.key(), b.key());
            let (aiv, biv) = (value_of(a, st), value_of(b, st));
            match rel {
                Some(rel) => {
                    st.add_rel(&ak, &bk, rel);
                    let slack = if rel == Rel::Lt { 1 } else { 0 };
                    st.refine(
                        &ak,
                        Interval {
                            lo: i128::MIN,
                            hi: biv.hi - slack,
                        },
                    ) && st.refine(
                        &bk,
                        Interval {
                            lo: aiv.lo + slack,
                            hi: i128::MAX,
                        },
                    )
                }
                None => {
                    st.add_rel(&ak, &bk, Rel::Le);
                    st.add_rel(&bk, &ak, Rel::Le);
                    match aiv.meet(biv) {
                        Some(m) => st.refine(&ak, m) && st.refine(&bk, m),
                        None => false,
                    }
                }
            }
        }
        _ => true,
    }
}

/// `a != b`: only refines when one side is a singleton at the other's
/// boundary.
fn refine_ne(lhs: &Expr, rhs: &Expr, st: &mut State) -> bool {
    let (a, b) = (value_of(lhs, st), value_of(rhs, st));
    if b.lo == b.hi {
        let c = b.lo;
        let k = lhs.key();
        let cur = st.get(&k);
        if cur.lo == c {
            return st.refine(
                &k,
                Interval {
                    lo: c + 1,
                    hi: i128::MAX,
                },
            );
        }
        if cur.hi == c {
            return st.refine(
                &k,
                Interval {
                    lo: i128::MIN,
                    hi: c - 1,
                },
            );
        }
    }
    if a.lo == a.hi {
        let c = a.lo;
        let k = rhs.key();
        let cur = st.get(&k);
        if cur.lo == c {
            return st.refine(
                &k,
                Interval {
                    lo: c + 1,
                    hi: i128::MAX,
                },
            );
        }
        if cur.hi == c {
            return st.refine(
                &k,
                Interval {
                    lo: i128::MIN,
                    hi: c - 1,
                },
            );
        }
    }
    true
}

/// Side-effect-free read of an expression's interval (used by condition
/// refinement, which must not re-fire sites or kills).
fn value_of(e: &Expr, st: &State) -> Interval {
    match &e.kind {
        ExprKind::Int(v) => Interval::exact(*v),
        ExprKind::Path(p) => intrinsic_const(p)
            .map(Interval::exact)
            .unwrap_or_else(|| st.get(p)),
        ExprKind::Field { .. } | ExprKind::MethodCall { .. } => st.get(&e.key()),
        ExprKind::Cast { inner, .. } => value_of(inner, st),
        ExprKind::Try(inner) => value_of(inner, st),
        _ => default_for(&e.key()),
    }
}

/// Splits a match-arm pattern at a top-level `if` guard.
fn split_guard<'t>(pat: cfg::Tokens<'t>) -> (cfg::Tokens<'t>, Option<cfg::Tokens<'t>>) {
    for (i, t) in pat.iter().enumerate() {
        if t.is_ident("if") {
            return (&pat[..i], Some(&pat[i + 1..]));
        }
    }
    (pat, None)
}

/// Successor edges of a block with the refined state flowing into each.
fn out_edges(cx: &mut FnCx<'_>, term: &Term, base: &State) -> Vec<(usize, State)> {
    match term {
        Term::Goto(to) => vec![(*to, base.clone())],
        Term::Return => Vec::new(),
        Term::Branch {
            cond,
            then_to,
            else_to,
        } => {
            let cond = (!cond.is_empty()).then(|| parse_expr(cond));
            let mut out = Vec::new();
            for (to, truth) in [(*then_to, true), (*else_to, false)] {
                let mut s = base.clone();
                let feasible = cond
                    .as_ref()
                    .map(|c| refine_cond(c, truth, &mut s))
                    .unwrap_or(true);
                if feasible {
                    out.push((to, s));
                }
            }
            out
        }
        Term::Match { arms } => {
            let mut out = Vec::new();
            for (pat, to) in arms {
                let (pat, guard) = split_guard(pat);
                let mut s = base.clone();
                for b in cfg::pattern_bindings(pat) {
                    s.kill(b);
                }
                let feasible = match guard {
                    Some(g) => {
                        let g = parse_expr(g);
                        cx.eval(&g, &mut s);
                        refine_cond(&g, true, &mut s)
                    }
                    None => true,
                };
                if feasible {
                    out.push((*to, s));
                }
            }
            out
        }
    }
}

/// Runs the fixpoint and reporting pass over one function.
fn analyze_fn(
    unit: &FnUnit<'_>,
    path: &str,
    consts: &BTreeMap<String, i128>,
    cfgc: &DataflowConfig,
) -> Vec<Finding> {
    let Some(body) = &unit.decl.body else {
        return Vec::new();
    };
    let graph: Cfg = cfg::lower(body);
    let mut init = State::default();
    for p in unit.decl.params() {
        if let Some(hi) = ty_hi(&p.ty) {
            init.set(p.name, Interval { lo: 0, hi });
        }
    }
    let mut cx = FnCx {
        path,
        consts,
        exact_len: &cfgc.exact_len_calls,
        emit: false,
        findings: Vec::new(),
    };
    let n = graph.blocks.len();
    let mut inputs: Vec<Option<State>> = vec![None; n];
    let mut joins = vec![0u32; n];
    inputs[0] = Some(init);
    let mut work: BTreeSet<usize> = BTreeSet::from([0]);
    let mut steps = 0usize;
    while let Some(&b) = work.iter().next() {
        work.remove(&b);
        steps += 1;
        if steps > 64 * n.max(1) {
            break;
        }
        let Some(mut st) = inputs[b].clone() else {
            continue;
        };
        for stmt in &graph.blocks[b].stmts {
            cx.exec(stmt, &mut st);
        }
        // Evaluate branch conditions for their kill effects too.
        if let Term::Branch { cond, .. } = &graph.blocks[b].term {
            if !cond.is_empty() {
                let c = parse_expr(cond);
                cx.eval(&c, &mut st);
            }
        }
        for (succ, edge_state) in out_edges(&mut cx, &graph.blocks[b].term, &st) {
            let merged = match &inputs[succ] {
                None => edge_state,
                Some(prev) => prev.join(&edge_state),
            };
            let merged = match &inputs[succ] {
                Some(prev) if joins[succ] >= 3 => widen(prev, &merged),
                _ => merged,
            };
            if inputs[succ].as_ref() != Some(&merged) {
                joins[succ] += 1;
                inputs[succ] = Some(merged);
                work.insert(succ);
            }
        }
    }
    // Reporting pass: every reachable block once, with its stable input.
    cx.emit = true;
    for (b, input) in inputs.iter().enumerate() {
        let Some(input) = input else { continue };
        let mut st = input.clone();
        for stmt in &graph.blocks[b].stmts {
            cx.exec(stmt, &mut st);
        }
        match &graph.blocks[b].term {
            Term::Branch { cond, .. } if !cond.is_empty() => {
                let c = parse_expr(cond);
                cx.eval(&c, &mut st);
            }
            Term::Match { arms } => {
                for (pat, _) in arms {
                    if let (_, Some(g)) = split_guard(pat) {
                        let g = parse_expr(g);
                        let mut s = st.clone();
                        cx.eval(&g, &mut s);
                    }
                }
            }
            _ => {}
        }
    }
    cx.findings
}

/// Widens `new` against `prev`: any key still changing after repeated
/// joins falls to its default, bounding the fixpoint.
fn widen(prev: &State, new: &State) -> State {
    let mut out = new.clone();
    let keys: Vec<String> = out.vars.keys().cloned().collect();
    for k in keys {
        if prev.get(&k) != out.get(&k) {
            let d = default_for(&k);
            out.set(&k, d);
        }
    }
    out.rels = prev.rels.intersection(&out.rels).cloned().collect();
    out
}

/// Runs R10 over every in-scope source, returning findings sorted by
/// position.
pub fn check(files: &[FileAst], cfgc: &DataflowConfig) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| cfgc.in_scope(f.path)) {
        let mut consts = BTreeMap::new();
        collect_consts(&file.trees, &mut consts);
        let mut fns = Vec::new();
        collect_fns(&file.items, &mut fns);
        for unit in &fns {
            findings.extend(analyze_fn(unit, file.path, &consts, cfgc));
        }
    }
    findings.sort_by(|a, b| {
        (&a.path, a.line, a.col, &a.message).cmp(&(&b.path, b.line, b.col, &b.message))
    });
    findings.dedup_by(|a, b| {
        (&a.path, a.line, a.col, &a.message) == (&b.path, b.line, b.col, &b.message)
    });
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let cfgc = DataflowConfig {
            scopes: vec!["fix.rs".to_string()],
            exact_len_calls: vec!["take".to_string()],
        };
        check(&[FileAst::parse("fix.rs", src).expect("lexes")], &cfgc)
    }

    #[test]
    fn min_fact_proves_subtraction() {
        let f =
            run("fn f(&mut self, max: usize) { let take = max.min(self.len); self.len -= take; }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unguarded_subtraction_is_flagged() {
        let f = run("fn f(a: usize, b: usize) -> usize { a - b }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].message.contains("unproven subtraction"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn guard_with_early_return_refines_fall_through() {
        let f = run(
            "fn f(&mut self, total: usize) { if self.buf.len() < total { return; } \
             let frame = self.buf.split_to(total); }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn f(&mut self, total: usize) { let frame = self.buf.split_to(total); }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unproven split"));
    }

    #[test]
    fn alignment_idiom_proves_after_max() {
        let f = run(
            "fn align(&mut self, align: usize) { let align = align.max(1); \
             let pos = self.buf.len(); let pad = (align - pos % align) % align; }",
        );
        assert!(f.is_empty(), "{f:?}");
        // Without the `max(1)` the remainders divide by a possibly-zero
        // alignment.
        let f = run(
            "fn align(&mut self, align: usize) { let pos = self.buf.len(); \
             let pad = (align - pos % align) % align; }",
        );
        assert!(!f.is_empty());
        assert!(f.iter().any(|f| f.message.contains("!= 0")), "{f:?}");
    }

    #[test]
    fn exact_len_take_proves_array_conversion() {
        let f = run(
            "fn read_u16(&mut self) -> u16 { let s = self.take(2, \"ushort\")?; \
             let raw: [u8; 2] = s.try_into().unwrap_or([0; 2]); u16::from_be_bytes(raw) }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run(
            "fn read_u16(&mut self) -> u16 { let s = self.take(4, \"ulong\")?; \
             let raw: [u8; 2] = s.try_into().unwrap_or([0; 2]); u16::from_be_bytes(raw) }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("narrowing"));
    }

    #[test]
    fn extremal_default_is_saturation_non_extremal_is_not() {
        let f = run("fn wire_len(len: usize) -> u32 { u32::try_from(len).unwrap_or(u32::MAX) }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn wire_len(len: usize) -> u32 { u32::try_from(len).unwrap_or(7) }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("silently-truncating narrowing"));
    }

    #[test]
    fn bounded_addition_proves_unbounded_flags() {
        let f = run(
            "const HEADER_LEN: usize = 12; fn cap(body: &[u8]) -> usize { \
             HEADER_LEN + body.len() }",
        );
        assert!(f.is_empty(), "{f:?}");
        let f = run(
            "const HEADER_LEN: usize = 12; fn cap(&mut self) -> usize { \
             let body_len = self.read_len(); HEADER_LEN + body_len }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unproven addition"));
    }

    #[test]
    fn loop_guard_proves_spanning_read() {
        let f = run(
            "fn read(&mut self, take: usize) { let mut remaining = take; \
             while remaining > 0 { let Some(front) = self.segments.front_mut() else { break; }; \
             if front.len() > remaining { front.split_to(remaining); break; } \
             remaining -= front.len(); self.segments.pop_front(); } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn match_guard_refines_arm() {
        let f = run(
            "fn f(&mut self, take: usize) { match self.segments.front_mut() { \
             Some(front) if take < front.len() => { front.split_to(take); } _ => {} } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unproven_index_is_flagged() {
        let f = run("fn f(buf: &[u8], i: usize) -> u8 { buf[i] }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("unproven index"));
        let f = run("fn f(buf: &[u8], i: usize) -> u8 { if i < buf.len() { buf[i] } else { 0 } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn narrowing_cast_needs_interval_proof() {
        let f = run("fn f(x: usize) -> u8 { (x % 16) as u8 }");
        assert!(f.is_empty(), "{f:?}");
        let f = run("fn f(x: usize) -> u8 { x as u8 }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("narrowing"));
    }

    #[test]
    fn test_functions_are_skipped() {
        let f = run("#[test] fn t() { let x = 1 - 2; }");
        assert!(f.is_empty(), "{f:?}");
    }
}

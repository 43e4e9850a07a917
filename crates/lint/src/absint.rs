//! Abstract interpretation over the whole catalog.
//!
//! A *product domain* of three abstractions per predicate column:
//!
//! * **constant** ([`ConstDom`]) — the column always holds one value;
//! * **integer interval** ([`Interval`]) — bounds on integer columns;
//! * **type** — declared column types, checked separately by
//!   [`check_types`] against the [`TypeRegistry`] lattice.
//!
//! [`analyze`] propagates the constant/interval component to fixpoint
//! across every derived predicate, visiting strongly-connected
//! components in dependency order (the same Tarjan pass L002 uses).
//! Members of a recursive SCC are summarized against ⊤ inputs, which
//! over-approximates every fixpoint iterate and keeps the analysis
//! sound without iteration.
//!
//! On top of the engine sit four lint passes:
//!
//! * **L006** [`check_types`] — a variable used at columns of
//!   incompatible declared types, constants that cannot inhabit their
//!   column, comparisons/arithmetic over incompatible operand types.
//! * **L007** [`check_provably_empty`] — clauses whose abstract state
//!   is ⊥ (contradictory intervals *across* predicate boundaries, which
//!   the purely syntactic L005 cannot see). The network builder uses
//!   [`Analysis::clause_provably_empty`] to prune the matching
//!   differentials.
//! * **L008** [`check_subsumption`] — rule A's condition implies rule
//!   B's (every A-match already satisfies B): redundant monitoring.
//! * **L009** [`check_const_fold`] — a subcondition that always holds
//!   under the abstraction; the diagnostic shows the folded residual.
//!
//! Soundness notes: interval narrowing is only applied to classes with
//! *integer evidence* (an integer-typed column, an integer constant, or
//! integer arithmetic) — narrowing a `real`-valued variable with integer
//! bounds would wrongly conclude `0 < x < 1` is empty. `i64::MIN`/`MAX`
//! bounds are treated as ∓∞ and survive arithmetic untouched.

use std::collections::{HashMap, HashSet};
use std::fmt;

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::{Clause, Literal, Term, Var};
use amos_storage::{Polarity, StateEpoch};
use amos_types::{ArithOp, CmpOp, TypeId, TypeRegistry, Value};

use crate::{clause_statically_false, tarjan_sccs, Diagnostic, LintCode, LintConfig, Span};

// ---------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------

/// A closed integer interval; `i64::MIN`/`i64::MAX` bounds mean ∓∞.
/// `lo > hi` is the empty interval (⊥).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound (`i64::MIN` = −∞).
    pub lo: i64,
    /// Inclusive upper bound (`i64::MAX` = +∞).
    pub hi: i64,
}

impl Interval {
    /// The full interval (⊤).
    pub const TOP: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The singleton `[k, k]`.
    pub fn point(k: i64) -> Interval {
        Interval { lo: k, hi: k }
    }

    /// Whether no integer is contained.
    pub fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    /// Whether this is the full interval.
    pub fn is_top(self) -> bool {
        self == Interval::TOP
    }

    /// Whether `k` is contained.
    pub fn contains(self, k: i64) -> bool {
        self.lo <= k && k <= self.hi
    }

    /// Intersection.
    pub fn meet(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// Convex hull (empty operands are identities).
    pub fn join(self, o: Interval) -> Interval {
        if self.is_empty() {
            return o;
        }
        if o.is_empty() {
            return self;
        }
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Number of contained integers when finitely bounded.
    pub fn width(self) -> Option<f64> {
        if self.is_empty() || self.lo == i64::MIN || self.hi == i64::MAX {
            return None;
        }
        Some((self.hi as i128 - self.lo as i128 + 1) as f64)
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: if self.lo == i64::MIN || o.lo == i64::MIN {
                i64::MIN
            } else {
                self.lo.saturating_add(o.lo)
            },
            hi: if self.hi == i64::MAX || o.hi == i64::MAX {
                i64::MAX
            } else {
                self.hi.saturating_add(o.hi)
            },
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: if self.lo == i64::MIN || o.hi == i64::MAX {
                i64::MIN
            } else {
                self.lo.saturating_sub(o.hi)
            },
            hi: if self.hi == i64::MAX || o.lo == i64::MIN {
                i64::MAX
            } else {
                self.hi.saturating_sub(o.lo)
            },
        }
    }

    fn mul(self, o: Interval) -> Interval {
        if self.lo == i64::MIN || self.hi == i64::MAX || o.lo == i64::MIN || o.hi == i64::MAX {
            return Interval::TOP;
        }
        let corners = [
            self.lo.saturating_mul(o.lo),
            self.lo.saturating_mul(o.hi),
            self.hi.saturating_mul(o.lo),
            self.hi.saturating_mul(o.hi),
        ];
        Interval {
            lo: *corners.iter().min().unwrap(),
            hi: *corners.iter().max().unwrap(),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("∅");
        }
        match (self.lo, self.hi) {
            (i64::MIN, i64::MAX) => f.write_str("[−∞, +∞]"),
            (i64::MIN, h) => write!(f, "[−∞, {h}]"),
            (l, i64::MAX) => write!(f, "[{l}, +∞]"),
            (l, h) => write!(f, "[{l}, {h}]"),
        }
    }
}

/// Constant-propagation lattice: ⊤ (unknown) / one value / ⊥.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum ConstDom {
    /// No information.
    #[default]
    Top,
    /// The column/variable always holds exactly this value.
    Const(Value),
    /// Contradiction — no value is possible.
    Bottom,
}

impl ConstDom {
    /// Greatest lower bound. Two constants meet to ⊥ unless they compare
    /// equal under runtime semantics (numeric promotion included).
    pub fn meet(&self, other: &ConstDom) -> ConstDom {
        match (self, other) {
            (ConstDom::Bottom, _) | (_, ConstDom::Bottom) => ConstDom::Bottom,
            (ConstDom::Top, x) | (x, ConstDom::Top) => x.clone(),
            (ConstDom::Const(a), ConstDom::Const(b)) => {
                if const_eq(a, b) {
                    ConstDom::Const(a.clone())
                } else {
                    ConstDom::Bottom
                }
            }
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &ConstDom) -> ConstDom {
        match (self, other) {
            (ConstDom::Bottom, x) | (x, ConstDom::Bottom) => x.clone(),
            (ConstDom::Top, _) | (_, ConstDom::Top) => ConstDom::Top,
            (ConstDom::Const(a), ConstDom::Const(b)) => {
                if const_eq(a, b) {
                    ConstDom::Const(a.clone())
                } else {
                    ConstDom::Top
                }
            }
        }
    }
}

/// Runtime equality (with numeric promotion: `2 = 2.0`).
fn const_eq(a: &Value, b: &Value) -> bool {
    CmpOp::Eq.apply(a, b).unwrap_or(false)
}

/// Abstraction of one predicate column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColAbs {
    /// Constant component.
    pub konst: ConstDom,
    /// Integer-interval component (⊤ for non-integer columns).
    pub range: Interval,
}

impl ColAbs {
    /// The no-information abstraction.
    pub fn top() -> ColAbs {
        ColAbs {
            konst: ConstDom::Top,
            range: Interval::TOP,
        }
    }

    fn of_const(v: &Value) -> ColAbs {
        ColAbs {
            konst: ConstDom::Const(v.clone()),
            range: match v {
                Value::Int(k) => Interval::point(*k),
                _ => Interval::TOP,
            },
        }
    }

    fn join(&self, other: &ColAbs) -> ColAbs {
        ColAbs {
            konst: self.konst.join(&other.konst),
            range: self.range.join(other.range),
        }
    }
}

/// Whole-predicate abstraction: one [`ColAbs`] per column, plus a
/// provable-emptiness flag.
#[derive(Debug, Clone, PartialEq)]
pub struct PredAbs {
    /// Per-column abstractions (over-approximate the extent).
    pub cols: Vec<ColAbs>,
    /// Whether the predicate's extent is provably empty.
    pub empty: bool,
}

impl PredAbs {
    fn top(arity: usize) -> PredAbs {
        PredAbs {
            cols: vec![ColAbs::top(); arity],
            empty: false,
        }
    }
}

// ---------------------------------------------------------------------
// Catalog fixpoint
// ---------------------------------------------------------------------

/// Result of a whole-catalog analysis: one [`PredAbs`] per predicate.
#[derive(Debug, Clone)]
pub struct Analysis {
    preds: HashMap<PredId, PredAbs>,
}

/// Analyze the whole catalog. Stored predicates are ⊤
/// (their extents are dynamic); derived predicates are summarized in
/// Tarjan SCC order so every influent is summarized first.
pub fn analyze(catalog: &Catalog) -> Analysis {
    let mut preds: HashMap<PredId, PredAbs> = HashMap::new();
    let mut derived: Vec<PredId> = Vec::new();
    for def in catalog.iter() {
        match &def.kind {
            PredKind::Derived(_) => derived.push(def.id),
            _ => {
                preds.insert(def.id, PredAbs::top(def.arity));
            }
        }
    }
    let is_derived = |p: PredId| matches!(catalog.def(p).kind, PredKind::Derived(_));
    // Tarjan emits SCCs in reverse topological order of the condensation
    // (edges point at influents), so dependencies are summarized first.
    let sccs = tarjan_sccs(&derived, &|p| {
        catalog
            .direct_influents(p)
            .into_iter()
            .filter(|q| is_derived(*q))
            .collect()
    });
    for scc in sccs {
        // Seed every member at ⊤ so recursive references over-approximate
        // any fixpoint iterate, then refine each member once.
        for &p in &scc {
            preds.insert(p, PredAbs::top(catalog.def(p).arity));
        }
        for &p in &scc {
            let abs = summarize(catalog, &preds, p);
            preds.insert(p, abs);
        }
    }
    Analysis { preds }
}

impl Analysis {
    /// The abstraction of one predicate.
    pub fn pred(&self, p: PredId) -> Option<&PredAbs> {
        self.preds.get(&p)
    }

    /// Whether one clause body is provably empty under this analysis.
    /// Works on differential clauses too (Δ-literals are abstracted like
    /// positive occurrences of their predicate).
    pub fn clause_provably_empty(&self, catalog: &Catalog, clause: &Clause) -> bool {
        eval_clause(catalog, &self.preds, clause).empty
    }

    /// The inferred interval of a column, when it is a proper bound.
    pub fn column_interval(&self, p: PredId, col: usize) -> Option<Interval> {
        self.preds
            .get(&p)
            .and_then(|pa| pa.cols.get(col))
            .map(|c| c.range)
            .filter(|r| !r.is_top())
    }

    /// A static upper bound on the number of distinct values a column can
    /// hold, from a finitely bounded inferred interval. Feeds the
    /// planner's statistics as an NDV ceiling on cold start.
    pub fn ndv_bound(&self, p: PredId, col: usize) -> Option<f64> {
        let pa = self.preds.get(&p)?;
        if pa.empty {
            return Some(0.0);
        }
        let c = pa.cols.get(col)?;
        if matches!(c.konst, ConstDom::Const(_)) {
            return Some(1.0);
        }
        c.range.width()
    }

    /// The hull of the interval constraints column `col` of `target` is
    /// subject to across **every** positive occurrence in the analyzed
    /// catalog's clauses, or `None` when any occurrence leaves it
    /// unbounded (or it never occurs).
    ///
    /// Stored relations get no content abstraction (anything may be
    /// inserted), but cost estimation only cares about the tuples that
    /// can *participate* in some clause — and if every use site bounds
    /// the column to an interval, at most hull-width distinct values are
    /// ever probed. That hull is therefore a static NDV ceiling for the
    /// planner (`StaticBounds` in `amos-core`), not a claim about the
    /// relation's contents.
    pub fn stored_column_usage(
        &self,
        catalog: &Catalog,
        target: PredId,
        col: usize,
    ) -> Option<Interval> {
        let mut hull: Option<Interval> = None;
        for def in catalog.iter() {
            let Some(clauses) = def.clauses() else {
                continue;
            };
            for clause in clauses {
                let mut ev = eval_clause(catalog, &self.preds, clause);
                if ev.empty {
                    continue; // an empty clause constrains nothing
                }
                for lit in &clause.body {
                    let (Literal::Pred {
                        pred,
                        args,
                        negated: false,
                        ..
                    }
                    | Literal::Delta { pred, args, .. }) = lit
                    else {
                        continue;
                    };
                    if *pred != target {
                        continue;
                    }
                    let Some(t) = args.get(col) else {
                        continue;
                    };
                    let (_, range, is_int, _) = ev.operand(t);
                    if !is_int || range.is_top() {
                        return None;
                    }
                    hull = Some(match hull {
                        Some(h) => h.join(range),
                        None => range,
                    });
                }
            }
        }
        hull.filter(|h| !h.is_top())
    }
}

/// Summarize one derived predicate from its clauses: join of per-clause
/// head abstractions, empty iff every clause is provably empty.
fn summarize(catalog: &Catalog, preds: &HashMap<PredId, PredAbs>, p: PredId) -> PredAbs {
    let def = catalog.def(p);
    let clauses = def.clauses().unwrap_or(&[]);
    let mut cols: Option<Vec<ColAbs>> = None;
    for clause in clauses {
        let mut ev = eval_clause(catalog, preds, clause);
        if ev.empty {
            continue;
        }
        let head: Vec<ColAbs> = clause.head.iter().map(|t| ev.term_abs(t)).collect();
        cols = Some(match cols {
            None => head,
            Some(prev) => prev
                .iter()
                .zip(head.iter())
                .map(|(a, b)| a.join(b))
                .collect(),
        });
    }
    match cols {
        Some(cols) => PredAbs { cols, empty: false },
        None => PredAbs {
            cols: vec![ColAbs::top(); def.arity],
            empty: true,
        },
    }
}

// ---------------------------------------------------------------------
// Per-clause transfer function
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct VarAbs {
    konst: ConstDom,
    range: Interval,
    /// Whether the class provably holds integers (integer-typed column,
    /// integer constant, or integer arithmetic). Interval reasoning is
    /// gated on this — narrowing a real with integer bounds is unsound.
    is_int: bool,
}

impl Default for VarAbs {
    fn default() -> Self {
        VarAbs {
            konst: ConstDom::Top,
            range: Interval::TOP,
            is_int: false,
        }
    }
}

fn uf_find(parent: &mut [usize], i: usize) -> usize {
    let mut root = i;
    while parent[root] != root {
        root = parent[root];
    }
    let mut cur = i;
    while parent[cur] != root {
        let next = parent[cur];
        parent[cur] = root;
        cur = next;
    }
    root
}

fn uf_union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (uf_find(parent, a), uf_find(parent, b));
    if ra != rb {
        parent[ra] = rb;
    }
}

/// Abstract state of one clause body after local fixpoint: a union-find
/// over variables (result vars of identical calls are one class) with a
/// [`VarAbs`] per class.
pub(crate) struct ClauseEval {
    parent: Vec<usize>,
    state: Vec<VarAbs>,
    /// The body is provably unsatisfiable.
    pub(crate) empty: bool,
    /// Body literal indexes that hold trivially (state-independent):
    /// const/const comparisons and unifications, reflexive comparisons.
    pub(crate) trivially_true: Vec<usize>,
}

/// Run the transfer function over one clause body to a local fixpoint.
pub(crate) fn eval_clause(
    catalog: &Catalog,
    preds: &HashMap<PredId, PredAbs>,
    clause: &Clause,
) -> ClauseEval {
    let n = clause.n_vars as usize;
    let mut parent: Vec<usize> = (0..n).collect();
    // Identical positive calls (same predicate, same non-result args,
    // same state epoch) bind equal result variables — unify them, plus
    // explicit var/var unifications. Δ-literals evaluate against the
    // epoch their polarity reads (Δ₊ ⊆ new state, Δ₋ ⊆ old state).
    let mut groups: HashMap<String, usize> = HashMap::new();
    let mut group = |parent: &mut [usize], key: String, res: usize| match groups.get(&key) {
        Some(&prev) => uf_union(parent, prev, res),
        None => {
            groups.insert(key, res);
        }
    };
    for lit in &clause.body {
        match lit {
            Literal::Pred {
                pred,
                args,
                negated: false,
                epoch,
            } if args.len() >= 2 => {
                if let Some(res) = args.last().and_then(Term::as_var) {
                    let key = format!("{pred:?}|{epoch:?}|{:?}", &args[..args.len() - 1]);
                    group(&mut parent, key, res.0 as usize);
                }
            }
            Literal::Delta {
                pred,
                polarity,
                args,
            } if args.len() >= 2 => {
                if let Some(res) = args.last().and_then(Term::as_var) {
                    let epoch = match polarity {
                        Polarity::Plus => StateEpoch::New,
                        Polarity::Minus => StateEpoch::Old,
                    };
                    let key = format!("{pred:?}|{epoch:?}|{:?}", &args[..args.len() - 1]);
                    group(&mut parent, key, res.0 as usize);
                }
            }
            Literal::Unify {
                lhs: Term::Var(a),
                rhs: Term::Var(b),
            } => uf_union(&mut parent, a.0 as usize, b.0 as usize),
            _ => {}
        }
    }
    let mut ev = ClauseEval {
        parent,
        state: vec![VarAbs::default(); n],
        empty: false,
        trivially_true: Vec::new(),
    };
    // Narrowing is monotone, so a handful of passes converges for the
    // short bodies clauses have; integer evidence discovered in pass 1
    // unlocks interval logic from pass 2 on.
    let passes = clause.body.len().min(8) + 2;
    for _ in 0..passes {
        ev.trivially_true.clear();
        for (li, lit) in clause.body.iter().enumerate() {
            ev.apply(catalog, preds, li, lit);
            if ev.empty {
                return ev;
            }
        }
    }
    ev
}

impl ClauseEval {
    fn find(&mut self, v: Var) -> usize {
        uf_find(&mut self.parent, v.0 as usize)
    }

    pub(crate) fn same_class(&mut self, a: Var, b: Var) -> bool {
        self.find(a) == self.find(b)
    }

    /// Meet new facts into a variable's class.
    fn narrow(&mut self, v: Var, konst: &ConstDom, range: Interval, is_int: bool) {
        let r = self.find(v);
        let s = &mut self.state[r];
        if is_int {
            s.is_int = true;
        }
        s.konst = s.konst.meet(konst);
        if s.konst == ConstDom::Bottom {
            self.empty = true;
            return;
        }
        if let ConstDom::Const(Value::Int(k)) = &s.konst {
            let k = *k;
            s.is_int = true;
            s.range = s.range.meet(Interval::point(k));
        }
        if s.is_int {
            s.range = s.range.meet(range);
            if s.range.is_empty() {
                self.empty = true;
            }
        }
    }

    fn set_range(&mut self, class: usize, range: Interval) {
        let s = &mut self.state[class];
        s.is_int = true;
        s.range = s.range.meet(range);
        if s.range.is_empty() {
            self.empty = true;
        }
    }

    /// Resolve a term to `(constant, interval, integer evidence, class)`.
    pub(crate) fn operand(&mut self, t: &Term) -> (ConstDom, Interval, bool, Option<usize>) {
        match t {
            Term::Const(c) => {
                let iv = match c {
                    Value::Int(k) => Interval::point(*k),
                    _ => Interval::TOP,
                };
                (
                    ConstDom::Const(c.clone()),
                    iv,
                    matches!(c, Value::Int(_)),
                    None,
                )
            }
            Term::Var(v) => {
                let r = self.find(*v);
                let s = &self.state[r];
                let iv = if s.is_int { s.range } else { Interval::TOP };
                (s.konst.clone(), iv, s.is_int, Some(r))
            }
        }
    }

    /// The final constant abstraction of a variable.
    pub(crate) fn var_konst(&mut self, v: Var) -> ConstDom {
        let r = self.find(v);
        self.state[r].konst.clone()
    }

    /// Head-term abstraction for predicate summarization.
    fn term_abs(&mut self, t: &Term) -> ColAbs {
        match t {
            Term::Const(c) => ColAbs::of_const(c),
            Term::Var(v) => {
                let r = self.find(*v);
                let s = &self.state[r];
                ColAbs {
                    konst: s.konst.clone(),
                    range: if s.is_int { s.range } else { Interval::TOP },
                }
            }
        }
    }

    fn apply(
        &mut self,
        catalog: &Catalog,
        preds: &HashMap<PredId, PredAbs>,
        li: usize,
        lit: &Literal,
    ) {
        match lit {
            Literal::Pred { negated: true, .. } => {}
            Literal::Pred { pred, args, .. } | Literal::Delta { pred, args, .. } => {
                let Some(pa) = preds.get(pred) else { return };
                if pa.empty {
                    self.empty = true;
                    return;
                }
                let sig = &catalog.def(*pred).signature;
                for (i, t) in args.iter().enumerate() {
                    let (ck, cr) = pa
                        .cols
                        .get(i)
                        .map(|c| (c.konst.clone(), c.range))
                        .unwrap_or((ConstDom::Top, Interval::TOP));
                    // A non-⊤ column range is itself integer evidence:
                    // ranges are only ever narrowed on integer classes.
                    let col_int = sig.get(i) == Some(&TypeId::INTEGER) || !cr.is_top();
                    match t {
                        Term::Var(v) => self.narrow(*v, &ck, cr, col_int),
                        Term::Const(c) => {
                            if let ConstDom::Const(k) = &ck {
                                if !const_eq(k, c) {
                                    self.empty = true;
                                    return;
                                }
                            }
                            if let Value::Int(k) = c {
                                if !cr.contains(*k) {
                                    self.empty = true;
                                    return;
                                }
                            }
                        }
                    }
                }
            }
            Literal::Cmp { op, lhs, rhs } => self.apply_cmp(li, *op, lhs, rhs),
            Literal::Arith {
                op,
                result,
                lhs,
                rhs,
            } => self.apply_arith(*op, result, lhs, rhs),
            Literal::Unify { lhs, rhs } => self.apply_unify(li, lhs, rhs),
        }
    }

    fn apply_cmp(&mut self, li: usize, op: CmpOp, lhs: &Term, rhs: &Term) {
        if let (Term::Var(a), Term::Var(b)) = (lhs, rhs) {
            if self.same_class(*a, *b) {
                match op {
                    CmpOp::Eq | CmpOp::Le | CmpOp::Ge => self.trivially_true.push(li),
                    CmpOp::Lt | CmpOp::Gt | CmpOp::Ne => self.empty = true,
                }
                return;
            }
        }
        let (lk, lr, lint, lc) = self.operand(lhs);
        let (rk, rr, rint, rc) = self.operand(rhs);
        if let (ConstDom::Const(a), ConstDom::Const(b)) = (&lk, &rk) {
            match op.apply(a, b) {
                Ok(true) => {
                    if matches!((lhs, rhs), (Term::Const(_), Term::Const(_))) {
                        self.trivially_true.push(li);
                    }
                }
                Ok(false) => self.empty = true,
                Err(_) => {}
            }
            return;
        }
        if op == CmpOp::Eq {
            // Equality propagates constants of any type.
            if let (Term::Var(v), ConstDom::Const(k)) = (lhs, &rk) {
                let k = k.clone();
                self.narrow(*v, &ConstDom::Const(k), Interval::TOP, false);
            }
            if let (Term::Var(v), ConstDom::Const(k)) = (rhs, &lk) {
                let k = k.clone();
                self.narrow(*v, &ConstDom::Const(k), Interval::TOP, false);
            }
            if self.empty {
                return;
            }
        }
        if lint && rint && !lr.is_empty() && !rr.is_empty() {
            if !can_sat(op, lr, rr) {
                self.empty = true;
                return;
            }
            let (nl, nr) = narrow_ranges(op, lr, rr);
            if let Some(c) = lc {
                self.set_range(c, nl);
            }
            if self.empty {
                return;
            }
            if let Some(c) = rc {
                self.set_range(c, nr);
            }
        }
    }

    fn apply_arith(&mut self, op: ArithOp, result: &Term, lhs: &Term, rhs: &Term) {
        let (lk, lr, lint, _) = self.operand(lhs);
        let (rk, rr, rint, _) = self.operand(rhs);
        if let (ConstDom::Const(a), ConstDom::Const(b)) = (&lk, &rk) {
            if let Ok(v) = op.apply(a, b) {
                match result {
                    Term::Var(rv) => {
                        let iv = match &v {
                            Value::Int(k) => Interval::point(*k),
                            _ => Interval::TOP,
                        };
                        let is_int = matches!(v, Value::Int(_));
                        self.narrow(*rv, &ConstDom::Const(v), iv, is_int);
                    }
                    Term::Const(c) => {
                        if !const_eq(c, &v) {
                            self.empty = true;
                        }
                    }
                }
            }
            return;
        }
        if lint && rint && op != ArithOp::Div && !lr.is_empty() && !rr.is_empty() {
            let iv = match op {
                ArithOp::Add => lr.add(rr),
                ArithOp::Sub => lr.sub(rr),
                ArithOp::Mul => lr.mul(rr),
                ArithOp::Div => unreachable!(),
            };
            match result {
                Term::Var(rv) => self.narrow(*rv, &ConstDom::Top, iv, true),
                Term::Const(Value::Int(k)) => {
                    if !iv.contains(*k) {
                        self.empty = true;
                    }
                }
                Term::Const(_) => {}
            }
        }
    }

    fn apply_unify(&mut self, li: usize, lhs: &Term, rhs: &Term) {
        match (lhs, rhs) {
            (Term::Const(a), Term::Const(b)) => {
                if a == b {
                    self.trivially_true.push(li);
                } else {
                    self.empty = true;
                }
            }
            (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
                let iv = match c {
                    Value::Int(k) => Interval::point(*k),
                    _ => Interval::TOP,
                };
                self.narrow(
                    *v,
                    &ConstDom::Const(c.clone()),
                    iv,
                    matches!(c, Value::Int(_)),
                );
            }
            // var/var pairs were merged in the union step.
            (Term::Var(_), Term::Var(_)) => {}
        }
    }
}

/// Whether `a op b` can hold for some choice in the (nonempty) intervals.
fn can_sat(op: CmpOp, a: Interval, b: Interval) -> bool {
    match op {
        CmpOp::Eq => !a.meet(b).is_empty(),
        CmpOp::Ne => !(a.lo == a.hi && b.lo == b.hi && a.lo == b.lo),
        CmpOp::Lt => a.lo < b.hi,
        CmpOp::Le => a.lo <= b.hi,
        CmpOp::Gt => a.hi > b.lo,
        CmpOp::Ge => a.hi >= b.lo,
    }
}

/// Whether `a op b` holds for every choice in the (nonempty) intervals.
fn must_sat(op: CmpOp, a: Interval, b: Interval) -> bool {
    match op {
        CmpOp::Eq => {
            a.lo == a.hi && b.lo == b.hi && a.lo == b.lo && a.lo != i64::MIN && a.lo != i64::MAX
        }
        CmpOp::Ne => a.meet(b).is_empty(),
        CmpOp::Lt => a.hi < b.lo,
        CmpOp::Le => a.hi <= b.lo,
        CmpOp::Gt => a.lo > b.hi,
        CmpOp::Ge => a.lo >= b.hi,
    }
}

fn inc(x: i64) -> i64 {
    if x == i64::MIN || x == i64::MAX {
        x
    } else {
        x + 1
    }
}

fn dec(x: i64) -> i64 {
    if x == i64::MIN || x == i64::MAX {
        x
    } else {
        x - 1
    }
}

/// Narrow both operand intervals assuming `a op b` holds.
fn narrow_ranges(op: CmpOp, a: Interval, b: Interval) -> (Interval, Interval) {
    match op {
        CmpOp::Eq => {
            let m = a.meet(b);
            (m, m)
        }
        CmpOp::Ne => {
            let mut a2 = a;
            let mut b2 = b;
            if b.lo == b.hi {
                if a2.lo == b.lo {
                    a2.lo = inc(a2.lo);
                }
                if a2.hi == b.lo {
                    a2.hi = dec(a2.hi);
                }
            }
            if a.lo == a.hi {
                if b2.lo == a.lo {
                    b2.lo = inc(b2.lo);
                }
                if b2.hi == a.lo {
                    b2.hi = dec(b2.hi);
                }
            }
            (a2, b2)
        }
        CmpOp::Lt => (
            Interval {
                lo: a.lo,
                hi: a.hi.min(dec(b.hi)),
            },
            Interval {
                lo: b.lo.max(inc(a.lo)),
                hi: b.hi,
            },
        ),
        CmpOp::Le => (
            Interval {
                lo: a.lo,
                hi: a.hi.min(b.hi),
            },
            Interval {
                lo: b.lo.max(a.lo),
                hi: b.hi,
            },
        ),
        CmpOp::Gt => (
            Interval {
                lo: a.lo.max(inc(b.lo)),
                hi: a.hi,
            },
            Interval {
                lo: b.lo,
                hi: b.hi.min(dec(a.hi)),
            },
        ),
        CmpOp::Ge => (
            Interval {
                lo: a.lo.max(b.lo),
                hi: a.hi,
            },
            Interval {
                lo: b.lo,
                hi: b.hi.min(a.hi),
            },
        ),
    }
}

// ---------------------------------------------------------------------
// L006 — type mismatch
// ---------------------------------------------------------------------

/// The registry type a constant value inhabits (`None` for OIDs, whose
/// user type the registry cannot recover from the value alone).
fn value_type_id(v: &Value) -> Option<TypeId> {
    match v {
        Value::Bool(_) => Some(TypeId::BOOLEAN),
        Value::Int(_) => Some(TypeId::INTEGER),
        Value::Real(_) => Some(TypeId::REAL),
        Value::Str(_) => Some(TypeId::CHARSTRING),
        Value::Oid(_) => None,
    }
}

fn is_numeric(ty: TypeId) -> bool {
    ty == TypeId::INTEGER || ty == TypeId::REAL
}

/// Greatest lower bound in the type lattice, with numeric blur:
/// `integer` and `real` are mutually compatible (the runtime promotes),
/// and everything is a subtype of `object`.
fn type_meet(types: &TypeRegistry, a: TypeId, b: TypeId) -> Option<TypeId> {
    if types.is_subtype(a, b) {
        Some(a)
    } else if types.is_subtype(b, a) {
        Some(b)
    } else if is_numeric(a) && is_numeric(b) {
        Some(a)
    } else {
        None
    }
}

/// L006: type-check clause bodies against declared column signatures.
/// Reports a variable used at columns of incompatible types, constants
/// that cannot inhabit their column, comparisons between incompatible
/// operand types, and arithmetic over non-numeric operands.
///
/// `roots` restricts the check to predicates reachable from the given
/// set (like [`crate::check_stratification`]); `None` checks the whole
/// catalog. `spans` anchors findings by predicate.
pub fn check_types(
    config: &LintConfig,
    catalog: &Catalog,
    types: &TypeRegistry,
    roots: Option<&[PredId]>,
    spans: &dyn Fn(PredId) -> Option<Span>,
) -> Vec<Diagnostic> {
    let in_scope: Option<HashSet<PredId>> = roots.map(|rs| {
        let mut seen = HashSet::new();
        let mut stack: Vec<PredId> = rs.to_vec();
        while let Some(p) = stack.pop() {
            if seen.insert(p) {
                stack.extend(catalog.direct_influents(p));
            }
        }
        seen
    });
    let mut out = Vec::new();
    for def in catalog.iter() {
        if let Some(scope) = &in_scope {
            if !scope.contains(&def.id) {
                continue;
            }
        }
        let PredKind::Derived(clauses) = &def.kind else {
            continue;
        };
        let span = spans(def.id);
        let subject = def.name.as_str();
        for (ci, c) in clauses.iter().enumerate() {
            // Phase 1: column constraints from the head and every
            // predicate literal (negated ones included — a mistyped
            // negated literal is just as much a programmer error).
            let mut constraints: Vec<(Term, TypeId, String)> = Vec::new();
            for (i, t) in c.head.iter().enumerate() {
                if let Some(&ty) = def.signature.get(i) {
                    constraints.push((t.clone(), ty, format!("column {i} of {}", def.name)));
                }
            }
            for lit in &c.body {
                let (pred, args) = match lit {
                    Literal::Pred { pred, args, .. } | Literal::Delta { pred, args, .. } => {
                        (pred, args)
                    }
                    _ => continue,
                };
                let pdef = catalog.def(*pred);
                for (i, t) in args.iter().enumerate() {
                    if let Some(&ty) = pdef.signature.get(i) {
                        constraints.push((t.clone(), ty, format!("column {i} of {}", pdef.name)));
                    }
                }
            }
            let mut var_ty: HashMap<u32, (TypeId, String)> = HashMap::new();
            let mut conflicted: HashSet<u32> = HashSet::new();
            for (t, ty, what) in constraints {
                match t {
                    Term::Var(v) => match var_ty.get(&v.0) {
                        None => {
                            var_ty.insert(v.0, (ty, what));
                        }
                        Some((prev, pwhat)) => match type_meet(types, *prev, ty) {
                            Some(m) => {
                                let keep = if m == *prev {
                                    pwhat.clone()
                                } else {
                                    what.clone()
                                };
                                var_ty.insert(v.0, (m, keep));
                            }
                            None => {
                                if conflicted.insert(v.0) {
                                    out.extend(config.diag(
                                        LintCode::L006,
                                        span,
                                        Some(subject),
                                        format!(
                                            "clause {ci}: variable {v} is used both as {} \
                                             ({pwhat}) and as {} ({what})",
                                            types.name(*prev),
                                            types.name(ty)
                                        ),
                                    ));
                                }
                            }
                        },
                    },
                    Term::Const(cv) => {
                        if let Some(vt) = value_type_id(&cv) {
                            if type_meet(types, vt, ty).is_none() {
                                out.extend(config.diag(
                                    LintCode::L006,
                                    span,
                                    Some(subject),
                                    format!(
                                        "clause {ci}: constant {cv} has type {}, but {what} \
                                         is {}",
                                        types.name(vt),
                                        types.name(ty)
                                    ),
                                ));
                            }
                        }
                    }
                }
            }
            // Conflicted variables get no derived type: suppress cascades.
            let term_ty = |var_ty: &HashMap<u32, (TypeId, String)>, t: &Term| match t {
                Term::Var(v) => {
                    if conflicted.contains(&v.0) {
                        None
                    } else {
                        var_ty.get(&v.0).map(|(ty, _)| *ty)
                    }
                }
                Term::Const(cv) => value_type_id(cv),
            };
            // Phase 2: arithmetic operand/result typing.
            for lit in &c.body {
                let Literal::Arith {
                    result, lhs, rhs, ..
                } = lit
                else {
                    continue;
                };
                let mut op_tys = Vec::new();
                for t in [lhs, rhs] {
                    if let Some(ty) = term_ty(&var_ty, t) {
                        if !(is_numeric(ty) || ty == TypeId::OBJECT) {
                            out.extend(config.diag(
                                LintCode::L006,
                                span,
                                Some(subject),
                                format!(
                                    "clause {ci}: arithmetic operand {} has non-numeric \
                                     type {}",
                                    render_term(t),
                                    types.name(ty)
                                ),
                            ));
                        } else if is_numeric(ty) {
                            op_tys.push(ty);
                        }
                    }
                }
                if op_tys.len() == 2 {
                    let rty = if op_tys.contains(&TypeId::REAL) {
                        TypeId::REAL
                    } else {
                        TypeId::INTEGER
                    };
                    if let Some(ety) = term_ty(&var_ty, result) {
                        if type_meet(types, ety, rty).is_none() {
                            out.extend(config.diag(
                                LintCode::L006,
                                span,
                                Some(subject),
                                format!(
                                    "clause {ci}: arithmetic result {} is used as {}, but \
                                     the operation yields {}",
                                    render_term(result),
                                    types.name(ety),
                                    types.name(rty)
                                ),
                            ));
                        }
                    }
                }
            }
            // Phase 3: comparison operand compatibility.
            for lit in &c.body {
                let Literal::Cmp { op, lhs, rhs } = lit else {
                    continue;
                };
                if let (Some(a), Some(b)) = (term_ty(&var_ty, lhs), term_ty(&var_ty, rhs)) {
                    if type_meet(types, a, b).is_none() {
                        out.extend(config.diag(
                            LintCode::L006,
                            span,
                            Some(subject),
                            format!(
                                "clause {ci}: comparison {} {op} {} compares incompatible \
                                 types {} and {}",
                                render_term(lhs),
                                render_term(rhs),
                                types.name(a),
                                types.name(b)
                            ),
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// L007 — provably-empty differential
// ---------------------------------------------------------------------

/// L007: report clauses (reachable from each condition) whose abstract
/// state is ⊥ — the semantic strengthening of L004's syntactic
/// statically-false check, which is skipped here to avoid duplicate
/// findings. The network builder prunes the matching differentials via
/// [`Analysis::clause_provably_empty`].
pub fn check_provably_empty(
    config: &LintConfig,
    catalog: &Catalog,
    analysis: &Analysis,
    conditions: &[(String, PredId)],
    spans: &dyn Fn(&str) -> Option<Span>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rule, cond) in conditions {
        let span = spans(rule);
        let mut seen = HashSet::new();
        let mut stack = vec![*cond];
        while let Some(p) = stack.pop() {
            if !seen.insert(p) {
                continue;
            }
            let Some(clauses) = catalog.def(p).clauses() else {
                continue;
            };
            for (ci, c) in clauses.iter().enumerate() {
                for lit in &c.body {
                    if let Some(q) = lit.pred() {
                        stack.push(q);
                    }
                }
                if clause_statically_false(c) {
                    continue; // L004's finding, syntactically visible.
                }
                if analysis.clause_provably_empty(catalog, c) {
                    out.extend(config.diag(
                        LintCode::L007,
                        span,
                        Some(rule),
                        format!(
                            "clause {ci} of {} is provably empty under abstract \
                             interpretation; its differentials can never fire (pruned)",
                            catalog.name(p)
                        ),
                    ));
                }
            }
            if p == *cond && analysis.pred(p).is_some_and(|pa| pa.empty) {
                out.extend(config.diag(
                    LintCode::L007,
                    span,
                    Some(rule),
                    format!(
                        "condition {} is provably empty — rule {rule} can never fire",
                        catalog.name(p)
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// L008 — cross-rule condition subsumption
// ---------------------------------------------------------------------

/// L008: rule A's condition implies rule B's — every tuple A monitors
/// already satisfies B, so monitoring both is redundant. Implication is
/// established clause-wise: every clause of A must imply some clause of
/// B under a variable mapping seeded by the head columns, with B's
/// residual comparisons discharged by A's inferred intervals.
/// Syntactically identical conditions are left to L005's duplicate pass.
pub fn check_subsumption(
    config: &LintConfig,
    catalog: &Catalog,
    analysis: &Analysis,
    conditions: &[(String, PredId)],
    spans: &dyn Fn(&str) -> Option<Span>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, (ra, pa)) in conditions.iter().enumerate() {
        let Some(ca) = catalog.def(*pa).clauses() else {
            continue;
        };
        // An empty condition vacuously implies everything — that finding
        // belongs to L007, not here.
        if ca.is_empty() || analysis.pred(*pa).is_some_and(|x| x.empty) {
            continue;
        }
        for (j, (rb, pb)) in conditions.iter().enumerate() {
            if i == j || pa == pb {
                continue;
            }
            let Some(cb) = catalog.def(*pb).clauses() else {
                continue;
            };
            if cb.is_empty() || catalog.def(*pa).arity != catalog.def(*pb).arity {
                continue;
            }
            if format!("{ca:?}") == format!("{cb:?}") {
                continue; // exact duplicate — L005 reports it.
            }
            if ca
                .iter()
                .all(|c| cb.iter().any(|d| clause_implies(catalog, analysis, c, d)))
            {
                out.extend(config.diag(
                    LintCode::L008,
                    spans(ra),
                    Some(ra),
                    format!(
                        "condition of rule {ra} implies the condition of rule {rb}: every \
                         match of {ra} already satisfies {rb} (redundant monitoring)"
                    ),
                ));
            }
        }
    }
    out
}

/// Whether every satisfying assignment of `ac` yields a tuple of `bc`
/// (same head arity). Sound, not complete: B's predicate literals must
/// match A's under a consistent substitution θ (seeded by the heads),
/// and B's built-ins must either match an A literal exactly under θ or
/// be implied by A's abstract state.
fn clause_implies(catalog: &Catalog, analysis: &Analysis, ac: &Clause, bc: &Clause) -> bool {
    if ac.head.len() != bc.head.len() {
        return false;
    }
    if bc.body.iter().any(|l| matches!(l, Literal::Delta { .. })) {
        return false;
    }
    let mut ev = eval_clause(catalog, &analysis.preds, ac);
    if ev.empty {
        return true; // an empty A-clause implies anything.
    }
    let mut theta: HashMap<u32, Term> = HashMap::new();
    for (bt, at) in bc.head.iter().zip(ac.head.iter()) {
        if !bind(&mut ev, &mut theta, bt, at) {
            return false;
        }
    }
    let a_preds: Vec<&Literal> = ac
        .body
        .iter()
        .filter(|l| matches!(l, Literal::Pred { .. }))
        .collect();
    let b_preds: Vec<&Literal> = bc
        .body
        .iter()
        .filter(|l| matches!(l, Literal::Pred { .. }))
        .collect();
    let a_builtins: Vec<&Literal> = ac
        .body
        .iter()
        .filter(|l| !matches!(l, Literal::Pred { .. } | Literal::Delta { .. }))
        .collect();
    let b_builtins: Vec<&Literal> = bc
        .body
        .iter()
        .filter(|l| !matches!(l, Literal::Pred { .. } | Literal::Delta { .. }))
        .collect();
    search_match(
        &mut ev,
        &b_preds,
        &a_preds,
        &b_builtins,
        &a_builtins,
        &theta,
    )
}

/// Equality of A-side terms modulo A's union-find classes and constant
/// propagation.
fn terms_equal(ev: &mut ClauseEval, a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Var(x), Term::Var(y)) => ev.same_class(*x, *y),
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
            matches!(ev.var_konst(*x), ConstDom::Const(k) if k == *c)
        }
    }
}

/// Extend θ so the B-term maps to the A-term; fails on inconsistency.
fn bind(ev: &mut ClauseEval, theta: &mut HashMap<u32, Term>, bt: &Term, at: &Term) -> bool {
    match bt {
        Term::Const(_) => terms_equal(ev, at, bt),
        Term::Var(v) => match theta.get(&v.0) {
            Some(prev) => {
                let prev = prev.clone();
                terms_equal(ev, &prev, at)
            }
            None => {
                theta.insert(v.0, at.clone());
                true
            }
        },
    }
}

fn subst(theta: &HashMap<u32, Term>, t: &Term) -> Option<Term> {
    match t {
        Term::Const(_) => Some(t.clone()),
        Term::Var(v) => theta.get(&v.0).cloned(),
    }
}

/// Backtracking match of B's predicate literals onto A's; when all are
/// placed, discharge B's built-ins under the final θ.
fn search_match(
    ev: &mut ClauseEval,
    b_rest: &[&Literal],
    a_preds: &[&Literal],
    b_builtins: &[&Literal],
    a_builtins: &[&Literal],
    theta: &HashMap<u32, Term>,
) -> bool {
    let Some((bl, rest)) = b_rest.split_first() else {
        return b_builtins
            .iter()
            .all(|l| builtin_implied(ev, a_builtins, l, theta));
    };
    let Literal::Pred {
        pred: bp,
        args: bargs,
        negated: bneg,
        epoch: bep,
    } = bl
    else {
        return false;
    };
    for al in a_preds {
        let Literal::Pred {
            pred: ap,
            args: aargs,
            negated: aneg,
            epoch: aep,
        } = al
        else {
            continue;
        };
        if ap != bp || aneg != bneg || aep != bep || aargs.len() != bargs.len() {
            continue;
        }
        let mut t2 = theta.clone();
        if bargs
            .iter()
            .zip(aargs.iter())
            .all(|(bt, at)| bind(ev, &mut t2, bt, at))
            && search_match(ev, rest, a_preds, b_builtins, a_builtins, &t2)
        {
            return true;
        }
    }
    false
}

/// Whether a B built-in, θ-substituted into A's variable space, is
/// guaranteed by A: an exact (or flipped) match against an A literal,
/// or implied by A's constant/interval state.
fn builtin_implied(
    ev: &mut ClauseEval,
    a_builtins: &[&Literal],
    lit: &Literal,
    theta: &HashMap<u32, Term>,
) -> bool {
    match lit {
        Literal::Cmp { op, lhs, rhs } => {
            let (Some(l), Some(r)) = (subst(theta, lhs), subst(theta, rhs)) else {
                return false;
            };
            for al in a_builtins {
                if let Literal::Cmp {
                    op: aop,
                    lhs: alh,
                    rhs: arh,
                } = al
                {
                    if *aop == *op && terms_equal(ev, alh, &l) && terms_equal(ev, arh, &r) {
                        return true;
                    }
                    if *aop == op.flipped() && terms_equal(ev, alh, &r) && terms_equal(ev, arh, &l)
                    {
                        return true;
                    }
                }
            }
            let (lk, lr, lint, _) = ev.operand(&l);
            let (rk, rr, rint, _) = ev.operand(&r);
            if let (ConstDom::Const(a), ConstDom::Const(b)) = (&lk, &rk) {
                return op.apply(a, b).unwrap_or(false);
            }
            lint && rint && !lr.is_empty() && !rr.is_empty() && must_sat(*op, lr, rr)
        }
        Literal::Unify { lhs, rhs } => {
            let (Some(l), Some(r)) = (subst(theta, lhs), subst(theta, rhs)) else {
                return false;
            };
            if terms_equal(ev, &l, &r) {
                return true;
            }
            a_builtins.iter().any(|al| {
                matches!(al, Literal::Unify { lhs: alh, rhs: arh }
                    if (terms_equal(ev, alh, &l) && terms_equal(ev, arh, &r))
                        || (terms_equal(ev, alh, &r) && terms_equal(ev, arh, &l)))
            })
        }
        Literal::Arith {
            op,
            result,
            lhs,
            rhs,
        } => {
            let (Some(res), Some(l), Some(r)) =
                (subst(theta, result), subst(theta, lhs), subst(theta, rhs))
            else {
                return false;
            };
            a_builtins.iter().any(|al| {
                matches!(al, Literal::Arith { op: aop, result: ares, lhs: alh, rhs: arh }
                    if *aop == *op
                        && terms_equal(ev, ares, &res)
                        && terms_equal(ev, alh, &l)
                        && terms_equal(ev, arh, &r))
            })
        }
        Literal::Pred { .. } | Literal::Delta { .. } => false,
    }
}

// ---------------------------------------------------------------------
// L009 — constant-foldable subcondition
// ---------------------------------------------------------------------

/// L009: subconditions that always hold (or fold to a constant) under
/// the abstraction, shown with the residual body after folding. A
/// comparison is judged against the fixpoint of the body *without* it
/// (leave-one-out), so a bound never justifies its own removal.
pub fn check_const_fold(
    config: &LintConfig,
    catalog: &Catalog,
    analysis: &Analysis,
    conditions: &[(String, PredId)],
    spans: &dyn Fn(&str) -> Option<Span>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (rule, cond) in conditions {
        let span = spans(rule);
        let Some(clauses) = catalog.def(*cond).clauses() else {
            continue;
        };
        for (ci, c) in clauses.iter().enumerate() {
            let base = eval_clause(catalog, &analysis.preds, c);
            if base.empty {
                continue; // L007's finding.
            }
            let mut reported: HashSet<usize> = HashSet::new();
            // State-independent trivial folds (skip const/const
            // comparisons — L005 already reports those).
            for &li in &base.trivially_true {
                let lit = &c.body[li];
                if matches!(
                    lit,
                    Literal::Cmp {
                        lhs: Term::Const(_),
                        rhs: Term::Const(_),
                        ..
                    }
                ) {
                    continue;
                }
                if reported.insert(li) {
                    out.extend(config.diag(
                        LintCode::L009,
                        span,
                        Some(rule),
                        format!(
                            "clause {ci}: subcondition {} always holds and can be folded \
                             away; residual: {}",
                            render_literal(catalog, lit),
                            render_residual(catalog, c, li)
                        ),
                    ));
                }
            }
            for (li, lit) in c.body.iter().enumerate() {
                if reported.contains(&li) {
                    continue;
                }
                match lit {
                    Literal::Cmp { op, lhs, rhs } => {
                        if matches!((lhs, rhs), (Term::Const(_), Term::Const(_))) {
                            continue; // L005's finding.
                        }
                        if literal_implied_without(catalog, analysis, c, li, *op, lhs, rhs)
                            && reported.insert(li)
                        {
                            out.extend(config.diag(
                                LintCode::L009,
                                span,
                                Some(rule),
                                format!(
                                    "clause {ci}: subcondition {} always holds and can be \
                                     folded away; residual: {}",
                                    render_literal(catalog, lit),
                                    render_residual(catalog, c, li)
                                ),
                            ));
                        }
                    }
                    Literal::Arith {
                        op,
                        lhs: Term::Const(a),
                        rhs: Term::Const(b),
                        ..
                    } => {
                        if let Ok(v) = op.apply(a, b) {
                            if reported.insert(li) {
                                out.extend(config.diag(
                                    LintCode::L009,
                                    span,
                                    Some(rule),
                                    format!(
                                        "clause {ci}: arithmetic {} folds to constant {v}; \
                                         residual: {}",
                                        render_literal(catalog, lit),
                                        render_residual(catalog, c, li)
                                    ),
                                ));
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Whether a comparison is implied by the fixpoint of the clause body
/// with that literal removed.
fn literal_implied_without(
    catalog: &Catalog,
    analysis: &Analysis,
    c: &Clause,
    li: usize,
    op: CmpOp,
    lhs: &Term,
    rhs: &Term,
) -> bool {
    let mut reduced = c.clone();
    reduced.body.remove(li);
    let mut ev = eval_clause(catalog, &analysis.preds, &reduced);
    if ev.empty {
        return false;
    }
    if let (Term::Var(a), Term::Var(b)) = (lhs, rhs) {
        if ev.same_class(*a, *b) {
            return matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge);
        }
    }
    let (lk, lr, lint, _) = ev.operand(lhs);
    let (rk, rr, rint, _) = ev.operand(rhs);
    if let (ConstDom::Const(a), ConstDom::Const(b)) = (&lk, &rk) {
        return op.apply(a, b).unwrap_or(false);
    }
    lint && rint && !lr.is_empty() && !rr.is_empty() && must_sat(op, lr, rr)
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn render_term(t: &Term) -> String {
    match t {
        Term::Var(v) => v.to_string(),
        Term::Const(c) => c.to_string(),
    }
}

/// Render one literal with catalog names (for residual display).
pub fn render_literal(catalog: &Catalog, lit: &Literal) -> String {
    let args_of = |args: &[Term]| args.iter().map(render_term).collect::<Vec<_>>().join(", ");
    match lit {
        Literal::Pred {
            pred,
            args,
            negated,
            epoch,
        } => format!(
            "{}{}{}({})",
            if *negated { "¬" } else { "" },
            catalog.name(*pred),
            if *epoch == StateEpoch::Old {
                "@old"
            } else {
                ""
            },
            args_of(args)
        ),
        Literal::Delta {
            pred,
            polarity,
            args,
        } => format!("{polarity}{}({})", catalog.name(*pred), args_of(args)),
        Literal::Cmp { op, lhs, rhs } => {
            format!("{} {op} {}", render_term(lhs), render_term(rhs))
        }
        Literal::Arith {
            op,
            result,
            lhs,
            rhs,
        } => format!(
            "{} = {} {op} {}",
            render_term(result),
            render_term(lhs),
            render_term(rhs)
        ),
        Literal::Unify { lhs, rhs } => {
            format!("{} = {}", render_term(lhs), render_term(rhs))
        }
    }
}

/// Render a clause body with one literal folded away.
fn render_residual(catalog: &Catalog, c: &Clause, skip: usize) -> String {
    let parts: Vec<String> = c
        .body
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != skip)
        .map(|(_, l)| render_literal(catalog, l))
        .collect();
    if parts.is_empty() {
        "true".to_string()
    } else {
        parts.join(" ∧ ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Severity;
    use amos_objectlog::clause::ClauseBuilder;
    use amos_storage::RelId;

    /// `quantity(item, integer)` plus helpers, mirroring the paper schema.
    fn typed_cat() -> (Catalog, TypeRegistry, PredId) {
        let mut types = TypeRegistry::new();
        let item = types.create("item", None).unwrap();
        let mut cat = Catalog::new();
        let q = cat
            .define_stored("quantity", vec![item, TypeId::INTEGER], RelId(0), 1)
            .unwrap();
        (cat, types, q)
    }

    #[test]
    fn interval_lattice_and_arith() {
        let a = Interval { lo: 0, hi: 10 };
        let b = Interval { lo: 5, hi: 20 };
        assert_eq!(a.meet(b), Interval { lo: 5, hi: 10 });
        assert_eq!(a.join(b), Interval { lo: 0, hi: 20 });
        assert!(Interval { lo: 3, hi: 2 }.is_empty());
        assert_eq!(a.width(), Some(11.0));
        assert_eq!(Interval::TOP.width(), None);
        assert_eq!(a.add(b), Interval { lo: 5, hi: 30 });
        assert_eq!(a.sub(b), Interval { lo: -20, hi: 5 });
        assert_eq!(
            Interval { lo: -2, hi: 3 }.mul(Interval { lo: 4, hi: 5 }),
            Interval { lo: -10, hi: 15 }
        );
        // Infinite bounds survive arithmetic as infinities.
        let half = Interval {
            lo: 0,
            hi: i64::MAX,
        };
        assert_eq!(
            half.add(Interval::point(5)),
            Interval {
                lo: 5,
                hi: i64::MAX
            }
        );
        assert!(must_sat(
            CmpOp::Lt,
            Interval { lo: 0, hi: 4 },
            Interval::point(5)
        ));
        assert!(!can_sat(
            CmpOp::Gt,
            Interval { lo: 0, hi: 4 },
            Interval::point(9)
        ));
        assert_eq!(
            format!(
                "{}",
                Interval {
                    lo: 1,
                    hi: i64::MAX
                }
            ),
            "[1, +∞]"
        );
    }

    #[test]
    fn analyze_infers_head_intervals_and_ndv_bounds() {
        let (mut cat, _types, q) = typed_cat();
        // val(G) ← quantity(X, G) ∧ G ≥ 0 ∧ G < 5
        let val = cat
            .define_derived(
                "val",
                vec![TypeId::INTEGER],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Ge, Term::val(0))
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        assert_eq!(
            analysis.column_interval(val, 0),
            Some(Interval { lo: 0, hi: 4 })
        );
        assert_eq!(analysis.ndv_bound(val, 0), Some(5.0));
        assert!(!analysis.pred(val).unwrap().empty);
        // Stored predicates stay ⊤.
        assert_eq!(analysis.column_interval(q, 1), None);
    }

    #[test]
    fn cross_predicate_emptiness_is_semantic_not_syntactic() {
        let (mut cat, _types, q) = typed_cat();
        // mid(X, G) ← quantity(X, G) ∧ G ≥ 10
        let mid = cat
            .define_derived(
                "mid",
                vec![TypeId::OBJECT, TypeId::INTEGER],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Ge, Term::val(10))
                    .build()],
            )
            .unwrap();
        // c(X) ← mid(X, G) ∧ G < 5 — empty only via mid's head interval.
        let c = cat
            .define_derived(
                "cnd_c",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(mid, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let clause = &cat.def(c).clauses().unwrap()[0];
        assert!(!clause_statically_false(clause));
        assert!(analysis.clause_provably_empty(&cat, clause));
        assert!(analysis.pred(c).unwrap().empty);
        // The satisfiable sibling is not empty.
        assert!(!analysis.pred(mid).unwrap().empty);
    }

    #[test]
    fn delta_literals_and_unified_result_vars() {
        let (cat, _types, q) = typed_cat();
        // Differential-style body: Δ₊quantity(X, G1) ∧ G1 < 3 ∧
        // quantity(X, G2) ∧ G2 > 9 — G1/G2 unify (same call, new epoch).
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .cmp(Term::var(1), CmpOp::Lt, Term::val(3))
            .pred(q, [Term::var(0), Term::var(2)])
            .cmp(Term::var(2), CmpOp::Gt, Term::val(9))
            .build();
        let analysis = analyze(&cat);
        assert!(analysis.clause_provably_empty(&cat, &clause));
        // Δ₋ reads the old state: no unification with the new-state call,
        // so the same bounds are satisfiable.
        let old_clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Minus, [Term::var(0), Term::var(1)])
            .cmp(Term::var(1), CmpOp::Lt, Term::val(3))
            .pred(q, [Term::var(0), Term::var(2)])
            .cmp(Term::var(2), CmpOp::Gt, Term::val(9))
            .build();
        assert!(!analysis.clause_provably_empty(&cat, &old_clause));
    }

    #[test]
    fn recursive_predicates_are_soundly_top() {
        let (mut cat, _types, q) = typed_cat();
        let tc = cat
            .define_derived("tc", vec![TypeId::OBJECT, TypeId::INTEGER], Vec::new())
            .unwrap();
        cat.replace_clauses(
            tc,
            vec![
                ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .build(),
                ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(1)])
                    .pred(tc, [Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(2), Term::var(1)])
                    .build(),
            ],
        )
        .unwrap();
        let analysis = analyze(&cat);
        // The recursive clause references tc itself (seeded ⊤), so the
        // join over clauses must stay ⊤-ish: no column interval claimed.
        assert!(!analysis.pred(tc).unwrap().empty);
        assert_eq!(analysis.column_interval(tc, 1), None);
    }

    #[test]
    fn l006_type_mismatch_positive_and_negative() {
        let mut types = TypeRegistry::new();
        let item = types.create("item", None).unwrap();
        let supplier = types.create("supplier", None).unwrap();
        let mut cat = Catalog::new();
        let q = cat
            .define_stored("quantity", vec![item, TypeId::INTEGER], RelId(0), 1)
            .unwrap();
        let owner = cat
            .define_stored("owner", vec![supplier, TypeId::CHARSTRING], RelId(1), 1)
            .unwrap();
        // bad(X) ← quantity(X, G) ∧ owner(X, N) ∧ N < G ∧ quantity("oops", G)
        let bad = cat
            .define_derived(
                "bad",
                vec![item],
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(owner, [Term::var(0), Term::var(2)])
                    .cmp(Term::var(2), CmpOp::Lt, Term::var(1))
                    .pred(q, [Term::val(Value::str("oops")), Term::var(1)])
                    .build()],
            )
            .unwrap();
        let config = LintConfig::default();
        let diags = check_types(&config, &cat, &types, None, &|p| {
            (p == bad).then_some(Span::new(7, 3))
        });
        let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
        assert!(
            msgs.iter()
                .any(|m| m.contains("used both as item") && m.contains("as supplier")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("constant \"oops\" has type charstring")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter()
                .any(|m| m.contains("compares incompatible types charstring and integer")),
            "{msgs:?}"
        );
        assert!(diags.iter().all(|d| d.code == LintCode::L006));
        assert!(diags.iter().all(|d| d.severity == Severity::Deny));
        assert!(diags.iter().all(|d| d.span == Some(Span::new(7, 3))));
        // Negative: numeric blur (integer vs real) and object columns
        // are compatible.
        let price = cat
            .define_stored("price", vec![item, TypeId::REAL], RelId(2), 1)
            .unwrap();
        let ok = cat
            .define_derived(
                "ok",
                vec![item],
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(price, [Term::var(0), Term::var(2)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
                    .build()],
            )
            .unwrap();
        assert!(check_types(&config, &cat, &types, Some(&[ok]), &|_| None).is_empty());
    }

    #[test]
    fn l006_arith_on_non_numeric() {
        let mut types = TypeRegistry::new();
        let item = types.create("item", None).unwrap();
        let mut cat = Catalog::new();
        let name = cat
            .define_stored("name", vec![item, TypeId::CHARSTRING], RelId(0), 1)
            .unwrap();
        let bad = cat
            .define_derived(
                "badsum",
                vec![item],
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(name, [Term::var(0), Term::var(1)])
                    .arith(Term::var(2), Term::var(1), ArithOp::Add, Term::val(1))
                    .build()],
            )
            .unwrap();
        let config = LintConfig::default();
        let diags = check_types(&config, &cat, &types, Some(&[bad]), &|_| None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("non-numeric type charstring"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn l007_positive_and_negative_with_spans() {
        let (mut cat, _types, q) = typed_cat();
        let mid = cat
            .define_derived(
                "mid",
                vec![TypeId::OBJECT, TypeId::INTEGER],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Ge, Term::val(10))
                    .build()],
            )
            .unwrap();
        let dead = cat
            .define_derived(
                "cnd_dead",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(mid, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .build()],
            )
            .unwrap();
        let live = cat
            .define_derived(
                "cnd_live",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(mid, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(50))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let config = LintConfig::default();
        let conds = vec![("dead".to_string(), dead), ("live".to_string(), live)];
        let diags = check_provably_empty(&config, &cat, &analysis, &conds, &|r| {
            (r == "dead").then_some(Span::new(9, 1))
        });
        assert_eq!(diags.len(), 2, "{diags:?}"); // clause-level + condition-level
        assert!(diags.iter().all(|d| d.code == LintCode::L007));
        assert!(diags.iter().all(|d| d.rule.as_deref() == Some("dead")));
        assert!(diags.iter().all(|d| d.span == Some(Span::new(9, 1))));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("provably empty under abstract")),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.message.contains("can never fire")),
            "{diags:?}"
        );
    }

    #[test]
    fn l008_subsumption_positive_and_negative() {
        let (mut cat, _types, q) = typed_cat();
        let mk = |hi: i64| {
            ClauseBuilder::new(2)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .cmp(Term::var(1), CmpOp::Lt, Term::val(hi))
                .build()
        };
        let tight = cat
            .define_derived("cnd_tight", vec![TypeId::OBJECT], vec![mk(5)])
            .unwrap();
        let loose = cat
            .define_derived("cnd_loose", vec![TypeId::OBJECT], vec![mk(10)])
            .unwrap();
        let other = cat
            .define_derived(
                "cnd_other",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Gt, Term::val(100))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let config = LintConfig::default();
        let conds = vec![
            ("tight".to_string(), tight),
            ("loose".to_string(), loose),
            ("other".to_string(), other),
        ];
        let diags = check_subsumption(&config, &cat, &analysis, &conds, &|r| {
            (r == "tight").then_some(Span::new(11, 1))
        });
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::L008);
        assert_eq!(diags[0].rule.as_deref(), Some("tight"));
        assert_eq!(diags[0].span, Some(Span::new(11, 1)));
        assert!(
            diags[0]
                .message
                .contains("condition of rule tight implies the condition of rule loose"),
            "{}",
            diags[0].message
        );
        // Exact duplicates are L005's finding, not L008's.
        let dup = cat
            .define_derived("cnd_dup", vec![TypeId::OBJECT], vec![mk(5)])
            .unwrap();
        let analysis = analyze(&cat);
        let conds = vec![("tight".to_string(), tight), ("dup".to_string(), dup)];
        assert!(check_subsumption(&config, &cat, &analysis, &conds, &|_| None).is_empty());
    }

    #[test]
    fn l009_foldable_subcondition_with_residual() {
        let (mut cat, _types, q) = typed_cat();
        // redundant(X) ← quantity(X, G) ∧ G < 5 ∧ G < 10
        let red = cat
            .define_derived(
                "cnd_red",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(10))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let config = LintConfig::default();
        let conds = vec![("red".to_string(), red)];
        let diags = check_const_fold(&config, &cat, &analysis, &conds, &|_| {
            Some(Span::new(13, 2))
        });
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, LintCode::L009);
        assert_eq!(diags[0].span, Some(Span::new(13, 2)));
        assert_eq!(
            diags[0].message,
            "clause 0: subcondition _G1 < 10 always holds and can be folded away; \
             residual: quantity(_G0, _G1) ∧ _G1 < 5"
        );
        // Arithmetic over constants folds with a shown residual.
        let ar = cat
            .define_derived(
                "cnd_ar",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .arith(Term::var(1), Term::val(2), ArithOp::Mul, Term::val(3))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let conds = vec![("ar".to_string(), ar)];
        let diags = check_const_fold(&config, &cat, &analysis, &conds, &|_| None);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("folds to constant 6"),
            "{}",
            diags[0].message
        );
        // Negative: a single proper bound is not foldable.
        let tight = cat
            .define_derived(
                "cnd_tight2",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(5))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        let conds = vec![("tight2".to_string(), tight)];
        assert!(check_const_fold(&config, &cat, &analysis, &conds, &|_| None).is_empty());
    }

    #[test]
    fn real_typed_columns_are_not_interval_narrowed() {
        // 0 < x < 1 over a real column is satisfiable (x = 0.5): the
        // integer-evidence gate must keep the clause alive.
        let mut types = TypeRegistry::new();
        let item = types.create("item", None).unwrap();
        let mut cat = Catalog::new();
        let price = cat
            .define_stored("price", vec![item, TypeId::REAL], RelId(0), 1)
            .unwrap();
        let frac = cat
            .define_derived(
                "cnd_frac",
                vec![TypeId::OBJECT],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(price, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Gt, Term::val(0))
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(1))
                    .build()],
            )
            .unwrap();
        let analysis = analyze(&cat);
        assert!(!analysis.pred(frac).unwrap().empty);
        assert!(!analysis.clause_provably_empty(&cat, &cat.def(frac).clauses().unwrap()[0]));
    }
}

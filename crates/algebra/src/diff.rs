//! Partial differencing of relational-algebra expressions (fig. 4).
//!
//! For an expression `P` and each *influent* base relation `X`, partial
//! differencing produces small queries — **partial differentials** —
//! that compute the contribution of `Δ₊X` / `Δ₋X` to `Δ₊P` / `Δ₋P`.
//! Positive contributions evaluate side operands in the *new* state;
//! negative contributions in the *old* state (logical rollback), exactly
//! per fig. 4:
//!
//! | P | → Δ₊P | → Δ₋P |
//! |---|-------|-------|
//! | σ_c Q | σ_c Δ₊Q | σ_c Δ₋Q |
//! | π_a Q | π_a Δ₊Q | π_a Δ₋Q |
//! | Q ∪ R | Δ₊Q − R_old, Δ₊R − Q_old | Δ₋Q − R, Δ₋R − Q |
//! | Q − R | Δ₊Q − R, Q ∩ Δ₋R | Δ₋Q − R_old, Q_old ∩ Δ₊R |
//! | Q × R | Δ₊Q × R, Q × Δ₊R | Δ₋Q × R_old, Q_old × Δ₋R |
//! | Q ⋈ R | Δ₊Q ⋈ R, Q ⋈ Δ₊R | Δ₋Q ⋈ R_old, Q_old ⋈ Δ₋R |
//! | Q ∩ R | Δ₊Q ∩ R, Q ∩ Δ₊R | Δ₋Q ∩ R_old, Q_old ∩ Δ₋R |
//!
//! The implementation is *compositional*: the table's `Δ₊Q` slot is
//! filled recursively with Q's own partial differentials, so arbitrarily
//! nested expressions difference into a flat list of differentials, one
//! per (influent occurrence, polarity).
//!
//! Projection (and unions deriving the same tuple twice) make raw
//! differentials over-approximate. §7.2's correction checks are exposed
//! as [`Correction`]: `Negative` verifies candidate deletions against the
//! new state (mandatory for correct triggering — under-reaction is
//! unacceptable), `Strict` additionally verifies candidate insertions
//! against the old state (false→true transitions only).

use amos_types::FxHashSet as HashSet;
use std::fmt;

pub use amos_storage::Polarity;
use amos_storage::{DeltaSet, StateEpoch};
use amos_types::Tuple;

use crate::db::AlgebraDb;
use crate::expr::RelExpr;
use crate::predicate::Predicate;

/// A differential query: a chain from a Δ-set seed up through the
/// operators of the original expression, with side operands evaluated as
/// full expressions in a fixed state epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffExpr {
    /// The seed: `Δ₊X` or `Δ₋X` of a base relation.
    Delta(String, Polarity),
    /// σ over the chain.
    Select(Box<DiffExpr>, Predicate),
    /// π over the chain.
    Project(Box<DiffExpr>, Vec<usize>),
    /// `chain − other@epoch` (anti-semijoin against a side operand).
    Minus(Box<DiffExpr>, RelExpr, StateEpoch),
    /// `chain ∩ other@epoch` (semijoin against a side operand).
    Intersect(Box<DiffExpr>, RelExpr, StateEpoch),
    /// `chain × other@epoch` (chain on the left).
    ProductL(Box<DiffExpr>, RelExpr, StateEpoch),
    /// `other@epoch × chain` (chain on the right).
    ProductR(RelExpr, StateEpoch, Box<DiffExpr>),
    /// `chain ⋈ other@epoch`.
    JoinL(Box<DiffExpr>, RelExpr, StateEpoch, Vec<(usize, usize)>),
    /// `other@epoch ⋈ chain`.
    JoinR(RelExpr, StateEpoch, Box<DiffExpr>, Vec<(usize, usize)>),
}

impl DiffExpr {
    /// Evaluate the differential against the database's Δ-sets and
    /// relation states. The chain is seeded by a (small) Δ-set, so side
    /// operands of −/∩ are probed point-wise rather than evaluated in
    /// full — the "optimizer assumes few changes to a single influent".
    pub fn eval(&self, db: &AlgebraDb) -> HashSet<Tuple> {
        match self {
            DiffExpr::Delta(x, Polarity::Plus) => db.delta_plus(x),
            DiffExpr::Delta(x, Polarity::Minus) => db.delta_minus(x),
            DiffExpr::Select(d, pred) => d.eval(db).into_iter().filter(|t| pred.eval(t)).collect(),
            DiffExpr::Project(d, cols) => d.eval(db).into_iter().map(|t| t.project(cols)).collect(),
            DiffExpr::Minus(d, other, epoch) => d
                .eval(db)
                .into_iter()
                .filter(|t| !other.contains(db, t, *epoch))
                .collect(),
            DiffExpr::Intersect(d, other, epoch) => d
                .eval(db)
                .into_iter()
                .filter(|t| other.contains(db, t, *epoch))
                .collect(),
            DiffExpr::ProductL(d, other, epoch) => {
                let seed = d.eval(db);
                if seed.is_empty() {
                    return HashSet::default();
                }
                let side = other.eval(db, *epoch);
                let mut out =
                    HashSet::with_capacity_and_hasher(seed.len() * side.len(), Default::default());
                for a in &seed {
                    for b in &side {
                        out.insert(a.concat(b));
                    }
                }
                out
            }
            DiffExpr::ProductR(other, epoch, d) => {
                let seed = d.eval(db);
                if seed.is_empty() {
                    return HashSet::default();
                }
                let side = other.eval(db, *epoch);
                let mut out =
                    HashSet::with_capacity_and_hasher(seed.len() * side.len(), Default::default());
                for b in &seed {
                    for a in &side {
                        out.insert(a.concat(b));
                    }
                }
                out
            }
            DiffExpr::JoinL(d, other, epoch, on) => {
                let seed = d.eval(db);
                if seed.is_empty() {
                    return HashSet::default();
                }
                let side = other.eval(db, *epoch);
                let mut out = HashSet::default();
                for a in &seed {
                    for b in &side {
                        if on.iter().all(|&(qa, rb)| a[qa] == b[rb]) {
                            out.insert(a.concat(b));
                        }
                    }
                }
                out
            }
            DiffExpr::JoinR(other, epoch, d, on) => {
                let seed = d.eval(db);
                if seed.is_empty() {
                    return HashSet::default();
                }
                let side = other.eval(db, *epoch);
                let mut out = HashSet::default();
                for b in &seed {
                    for a in &side {
                        if on.iter().all(|&(qa, rb)| a[qa] == b[rb]) {
                            out.insert(a.concat(b));
                        }
                    }
                }
                out
            }
        }
    }

    /// The influent base relation this differential's seed reads.
    pub fn influent(&self) -> (&str, Polarity) {
        match self {
            DiffExpr::Delta(x, p) => (x, *p),
            DiffExpr::Select(d, _)
            | DiffExpr::Project(d, _)
            | DiffExpr::Minus(d, _, _)
            | DiffExpr::Intersect(d, _, _)
            | DiffExpr::ProductL(d, _, _)
            | DiffExpr::JoinL(d, _, _, _) => d.influent(),
            DiffExpr::ProductR(_, _, d) | DiffExpr::JoinR(_, _, d, _) => d.influent(),
        }
    }
}

impl fmt::Display for DiffExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn ep(e: StateEpoch) -> &'static str {
            match e {
                StateEpoch::New => "",
                StateEpoch::Old => "_old",
            }
        }
        match self {
            DiffExpr::Delta(x, p) => write!(f, "{p}{x}"),
            DiffExpr::Select(d, p) => write!(f, "σ[{p}]({d})"),
            DiffExpr::Project(d, cols) => write!(f, "π{cols:?}({d})"),
            DiffExpr::Minus(d, o, e) => write!(f, "({d} − {o}{})", ep(*e)),
            DiffExpr::Intersect(d, o, e) => write!(f, "({d} ∩ {o}{})", ep(*e)),
            DiffExpr::ProductL(d, o, e) => write!(f, "({d} × {o}{})", ep(*e)),
            DiffExpr::ProductR(o, e, d) => write!(f, "({o}{} × {d})", ep(*e)),
            DiffExpr::JoinL(d, o, e, on) => write!(f, "({d} ⋈{on:?} {o}{})", ep(*e)),
            DiffExpr::JoinR(o, e, d, on) => write!(f, "({o}{} ⋈{on:?} {d})", ep(*e)),
        }
    }
}

/// One partial differential of an expression `P`: the contribution of one
/// polarity of one influent occurrence to one side of `ΔP`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialDifferential {
    /// The base relation whose Δ-set seeds this differential.
    pub influent: String,
    /// Which side of the influent's Δ-set is consumed.
    pub seed: Polarity,
    /// Which side of `ΔP` this differential contributes to. Differs from
    /// `seed` under set difference: deletions from `R` *insert* into
    /// `Q − R`.
    pub output: Polarity,
    /// The differential query.
    pub expr: DiffExpr,
}

impl fmt::Display for PartialDifferential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ΔP/{}{} ⇒ {}: {}",
            self.seed, self.influent, self.output, self.expr
        )
    }
}

/// Generate all partial differentials of `expr`, one per (influent
/// occurrence, polarity), in deterministic left-to-right order.
pub fn diff_expr(expr: &RelExpr) -> Vec<PartialDifferential> {
    let mut out = Vec::new();
    diff_rec(expr, &mut out);
    out
}

/// Wrap every differential in `from..` with `f` applied to its chain.
fn wrap(out: &mut [PartialDifferential], from: usize, f: impl Fn(DiffExpr) -> DiffExpr) {
    for pd in &mut out[from..] {
        let chain = std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
        pd.expr = f(chain);
    }
}

fn diff_rec(expr: &RelExpr, out: &mut Vec<PartialDifferential>) {
    match expr {
        RelExpr::Rel(name, _) => {
            out.push(PartialDifferential {
                influent: name.clone(),
                seed: Polarity::Plus,
                output: Polarity::Plus,
                expr: DiffExpr::Delta(name.clone(), Polarity::Plus),
            });
            out.push(PartialDifferential {
                influent: name.clone(),
                seed: Polarity::Minus,
                output: Polarity::Minus,
                expr: DiffExpr::Delta(name.clone(), Polarity::Minus),
            });
        }
        RelExpr::Select(q, pred) => {
            let from = out.len();
            diff_rec(q, out);
            wrap(out, from, |d| DiffExpr::Select(Box::new(d), pred.clone()));
        }
        RelExpr::Project(q, cols) => {
            let from = out.len();
            diff_rec(q, out);
            wrap(out, from, |d| DiffExpr::Project(Box::new(d), cols.clone()));
        }
        RelExpr::Union(q, r) => {
            // Δ₊Q − R_old / Δ₋Q − R, and symmetrically for R.
            let from = out.len();
            diff_rec(q, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::Old,
                    Polarity::Minus => StateEpoch::New,
                };
                pd.expr = DiffExpr::Minus(Box::new(chain), (**r).clone(), epoch);
            }
            let from = out.len();
            diff_rec(r, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::Old,
                    Polarity::Minus => StateEpoch::New,
                };
                pd.expr = DiffExpr::Minus(Box::new(chain), (**q).clone(), epoch);
            }
        }
        RelExpr::Diff(q, r) => {
            // Q side keeps its polarity: Δ₊Q − R (new), Δ₋Q − R_old.
            let from = out.len();
            diff_rec(q, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::Minus(Box::new(chain), (**r).clone(), epoch);
            }
            // R side flips polarity: Q ∩ Δ₋R inserts, Q_old ∩ Δ₊R deletes.
            let from = out.len();
            diff_rec(r, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let (output, epoch) = match pd.output {
                    // insertion into R ⇒ deletion from P, other side old
                    Polarity::Plus => (Polarity::Minus, StateEpoch::Old),
                    // deletion from R ⇒ insertion into P, other side new
                    Polarity::Minus => (Polarity::Plus, StateEpoch::New),
                };
                pd.output = output;
                pd.expr = DiffExpr::Intersect(Box::new(chain), (**q).clone(), epoch);
            }
        }
        RelExpr::Product(q, r) => {
            let from = out.len();
            diff_rec(q, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::ProductL(Box::new(chain), (**r).clone(), epoch);
            }
            let from = out.len();
            diff_rec(r, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::ProductR((**q).clone(), epoch, Box::new(chain));
            }
        }
        RelExpr::Join(q, r, on) => {
            let from = out.len();
            diff_rec(q, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::JoinL(Box::new(chain), (**r).clone(), epoch, on.clone());
            }
            let from = out.len();
            diff_rec(r, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::JoinR((**q).clone(), epoch, Box::new(chain), on.clone());
            }
        }
        RelExpr::Intersect(q, r) => {
            let from = out.len();
            diff_rec(q, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::Intersect(Box::new(chain), (**r).clone(), epoch);
            }
            let from = out.len();
            diff_rec(r, out);
            for pd in &mut out[from..] {
                let chain =
                    std::mem::replace(&mut pd.expr, DiffExpr::Delta(String::new(), Polarity::Plus));
                let epoch = match pd.output {
                    Polarity::Plus => StateEpoch::New,
                    Polarity::Minus => StateEpoch::Old,
                };
                pd.expr = DiffExpr::Intersect(Box::new(chain), (**q).clone(), epoch);
            }
        }
    }
}

/// §7.2 correction level for assembling `ΔP` from raw differentials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Correction {
    /// Raw fig. 4 differentials, no checks. May over-report both sides
    /// (and, through `∪Δ` cancellation, under-react) when projections or
    /// unions derive a tuple from several sources.
    None,
    /// Verify every candidate against the new state: deletions must be
    /// absent, insertions present. This is the paper's mandatory check
    /// ("the rules might under-react, which is unacceptable") and the
    /// default — suitable for *nervous* rule semantics.
    #[default]
    Negative,
    /// Additionally verify against the old state: insertions must be
    /// absent (false→true only), deletions present. Yields the exact
    /// `<P_new − P_old, P_old − P_new>` — *strict* rule semantics.
    Strict,
}

/// Evaluate all partial differentials of `expr` and assemble `ΔP`.
///
/// Raw contributions are collected per output polarity, filtered per the
/// chosen [`Correction`], and finally folded with `∪Δ`.
pub fn delta_of(expr: &RelExpr, db: &AlgebraDb, correction: Correction) -> DeltaSet {
    let diffs = diff_expr(expr);
    delta_from_differentials(expr, &diffs, db, correction)
}

/// Assemble `ΔP` from pre-generated differentials (lets callers cache
/// [`diff_expr`] output across transactions, as the rule compiler does).
pub fn delta_from_differentials(
    expr: &RelExpr,
    diffs: &[PartialDifferential],
    db: &AlgebraDb,
    correction: Correction,
) -> DeltaSet {
    let mut plus: HashSet<Tuple> = HashSet::default();
    let mut minus: HashSet<Tuple> = HashSet::default();
    for pd in diffs {
        let result = pd.expr.eval(db);
        match pd.output {
            Polarity::Plus => plus.extend(result),
            Polarity::Minus => minus.extend(result),
        }
    }
    match correction {
        Correction::None => {}
        Correction::Negative => {
            plus.retain(|t| expr.contains(db, t, StateEpoch::New));
            minus.retain(|t| !expr.contains(db, t, StateEpoch::New));
        }
        Correction::Strict => {
            plus.retain(|t| {
                expr.contains(db, t, StateEpoch::New) && !expr.contains(db, t, StateEpoch::Old)
            });
            minus.retain(|t| {
                !expr.contains(db, t, StateEpoch::New) && expr.contains(db, t, StateEpoch::Old)
            });
        }
    }
    // Fold with ∪Δ; under None the sides may overlap and cancel — the
    // behaviour the paper warns about, preserved for study.
    let mut ds = DeltaSet::new();
    for t in plus {
        ds.apply_insert(t);
    }
    for t in minus {
        ds.apply_delete(t);
    }
    ds
}

/// Ground truth: recompute `ΔP` as `<P_new − P_old, P_old − P_new>` by
/// full evaluation in both states (the "naive" method of §6).
pub fn recompute_delta(expr: &RelExpr, db: &AlgebraDb) -> DeltaSet {
    let new = expr.eval(db, StateEpoch::New);
    let old = expr.eval(db, StateEpoch::Old);
    DeltaSet::from_parts(
        new.difference(&old).cloned().collect(),
        old.difference(&new).cloned().collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    /// The §4.3 worked example: p(X,Z) ← q(X,Y) ∧ r(Y,Z), insertions only.
    #[test]
    fn section_4_3_positive_example() {
        let mut db = AlgebraDb::new();
        db.set_relation("q", [tuple![1, 1]]);
        db.set_relation("r", [tuple![1, 2], tuple![2, 3]]);

        // p = π[0,3](q ⋈ r on q.1 = r.0)
        let p = RelExpr::Project(
            Box::new(RelExpr::Join(
                Box::new(RelExpr::rel("q", 2)),
                Box::new(RelExpr::rel("r", 2)),
                vec![(1, 0)],
            )),
            vec![0, 3],
        );
        assert_eq!(
            p.eval(&db, StateEpoch::New),
            [tuple![1, 2]].into_iter().collect()
        );

        // assert q(1,2), assert r(1,4)
        db.insert("q", tuple![1, 2]);
        db.insert("r", tuple![1, 4]);

        let dp = delta_of(&p, &db, Correction::Negative);
        assert_eq!(
            dp.plus(),
            &[tuple![1, 3], tuple![1, 4]]
                .into_iter()
                .collect::<HashSet<_>>()
        );
        assert!(dp.minus().is_empty());
    }

    /// The §4.4 worked example with deletions: old state used for q in
    /// Δp/Δ₋r, otherwise Δ₋p would wrongly contain (1,3).
    #[test]
    fn section_4_4_negative_example() {
        let mut db = AlgebraDb::new();
        db.set_relation("q", [tuple![1, 1]]);
        db.set_relation("r", [tuple![1, 2], tuple![2, 3]]);
        let p = RelExpr::Project(
            Box::new(RelExpr::Join(
                Box::new(RelExpr::rel("q", 2)),
                Box::new(RelExpr::rel("r", 2)),
                vec![(1, 0)],
            )),
            vec![0, 3],
        );

        // assert q(1,2), assert r(1,4), retract r(1,2), retract r(2,3)
        db.insert("q", tuple![1, 2]);
        db.insert("r", tuple![1, 4]);
        db.delete("r", &tuple![1, 2]);
        db.delete("r", &tuple![2, 3]);

        let dp = delta_of(&p, &db, Correction::Negative);
        assert_eq!(
            dp.plus(),
            &[tuple![1, 4]].into_iter().collect::<HashSet<_>>()
        );
        assert_eq!(
            dp.minus(),
            &[tuple![1, 2]].into_iter().collect::<HashSet<_>>(),
            "without old-state evaluation this would wrongly include (1,3)"
        );
    }

    /// Demonstrate the failure mode the paper warns about: evaluating the
    /// *new* state of q in Δp/Δ₋r would yield the wrong Δ₋p = {(1,2),(1,3)}.
    #[test]
    fn new_state_in_negative_differential_is_wrong() {
        let mut db = AlgebraDb::new();
        db.set_relation("q", [tuple![1, 1]]);
        db.set_relation("r", [tuple![1, 2], tuple![2, 3]]);
        db.insert("q", tuple![1, 2]);
        db.insert("r", tuple![1, 4]);
        db.delete("r", &tuple![1, 2]);
        db.delete("r", &tuple![2, 3]);

        // Hand-build the *incorrect* differential: q evaluated new.
        let wrong = DiffExpr::Project(
            Box::new(DiffExpr::JoinR(
                RelExpr::rel("q", 2),
                StateEpoch::New, // should be Old
                Box::new(DiffExpr::Delta("r".into(), Polarity::Minus)),
                vec![(1, 0)],
            )),
            vec![0, 3],
        );
        let result = wrong.eval(&db);
        assert_eq!(
            result,
            [tuple![1, 2], tuple![1, 3]].into_iter().collect(),
            "the naive new-state evaluation over-reports (1,3), as §4.4 shows"
        );
    }

    #[test]
    fn differential_count_and_tagging() {
        // P = (q ∪ r) − s has 3 influents, 2 polarities each.
        let p = RelExpr::Diff(
            Box::new(RelExpr::Union(
                Box::new(RelExpr::rel("q", 1)),
                Box::new(RelExpr::rel("r", 1)),
            )),
            Box::new(RelExpr::rel("s", 1)),
        );
        let diffs = diff_expr(&p);
        assert_eq!(diffs.len(), 6);
        // s's polarities flip through the difference.
        let s_plus: Vec<_> = diffs
            .iter()
            .filter(|d| d.influent == "s" && d.seed == Polarity::Plus)
            .collect();
        assert_eq!(s_plus.len(), 1);
        assert_eq!(s_plus[0].output, Polarity::Minus);
    }

    #[test]
    fn strict_correction_is_exact_under_projection() {
        // P = π[0](q): deleting (1,1) while (1,2) remains must NOT delete
        // π-tuple (1).
        let mut db = AlgebraDb::new();
        db.set_relation("q", [tuple![1, 1], tuple![1, 2]]);
        let p = RelExpr::Project(Box::new(RelExpr::rel("q", 2)), vec![0]);
        db.delete("q", &tuple![1, 1]);

        let raw = delta_of(&p, &db, Correction::None);
        assert!(
            raw.minus().contains(&tuple![1]),
            "raw differential over-reports the deletion"
        );
        let strict = delta_of(&p, &db, Correction::Strict);
        assert!(strict.is_empty(), "P did not actually change");
        assert_eq!(strict, recompute_delta(&p, &db));
    }

    #[test]
    fn negative_correction_prevents_under_reaction() {
        // π over q: insert (2,1) and delete (1,1) — π result gains (2)
        // and keeps (1) if (1,2) remains.
        let mut db = AlgebraDb::new();
        db.set_relation("q", [tuple![1, 1], tuple![1, 2]]);
        let p = RelExpr::Project(Box::new(RelExpr::rel("q", 2)), vec![0]);
        db.insert("q", tuple![2, 7]);
        db.delete("q", &tuple![1, 1]);

        let corrected = delta_of(&p, &db, Correction::Negative);
        assert!(corrected.plus().contains(&tuple![2]));
        assert!(
            !corrected.minus().contains(&tuple![1]),
            "candidate deletion of (1) filtered: still derivable from (1,2)"
        );
    }
}

//! Plan compilation: greedy literal reordering with index-backed probes.
//!
//! Each partial differential "is a relatively simple database query which
//! is optimized using traditional query optimization techniques \[22\].
//! The optimizer assumes few changes to a single influent." We implement
//! that assumption directly in the cost model: Δ-literals cost nothing
//! (their cardinality is assumed tiny) and are scheduled first, seeding
//! the join; remaining literals are ordered greedily by boundness so
//! every stored access becomes an index probe whenever possible.
//!
//! A [`Plan`] is compiled for a clause plus a *binding pattern* (which
//! head columns the caller has bound) and is reusable across
//! transactions — the rule compiler compiles every differential once at
//! activation time.

use std::collections::HashSet;

use amos_storage::{Polarity, RelId, StateEpoch, Storage};
use amos_types::{ArithOp, CmpOp};

use crate::catalog::{Catalog, PredId, PredKind};
use crate::clause::{Clause, Literal, Term, Var};
use crate::error::ObjectLogError;

/// One executable step of a compiled plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Access a stored predicate: probe by `bound_cols` (empty = full
    /// scan, all columns = membership check), binding the remaining
    /// argument variables.
    Stored {
        /// Predicate (for diagnostics).
        pred: PredId,
        /// Backing relation.
        rel: RelId,
        /// Argument terms.
        args: Vec<Term>,
        /// Columns bound at this point in the plan.
        bound_cols: Vec<usize>,
        /// State epoch the literal must be evaluated in.
        epoch: StateEpoch,
    },
    /// Access one side of an influent's Δ-set: scan when `bound_cols` is
    /// empty, probe the Δ-set's lazy hash index when partially bound,
    /// membership-test when fully bound.
    Delta {
        /// The influent predicate.
        pred: PredId,
        /// Which side of the Δ-set.
        polarity: Polarity,
        /// Argument terms.
        args: Vec<Term>,
        /// Columns bound at this point in the plan.
        bound_cols: Vec<usize>,
    },
    /// Goal-directed call of a derived predicate with the
    /// currently bound argument positions as the pattern.
    Call {
        /// Callee.
        pred: PredId,
        /// Argument terms.
        args: Vec<Term>,
        /// Argument positions bound at call time.
        bound_cols: Vec<usize>,
        /// State epoch for the callee's evaluation.
        epoch: StateEpoch,
    },
    /// Negation-as-failure check; all argument variables are bound.
    NegCheck {
        /// Negated predicate.
        pred: PredId,
        /// Argument terms (fully bound).
        args: Vec<Term>,
        /// State epoch.
        epoch: StateEpoch,
    },
    /// Comparison test (operands bound).
    Cmp {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Term,
        /// Right operand.
        rhs: Term,
    },
    /// Arithmetic: bind or test `result = lhs op rhs`.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Result term.
        result: Term,
        /// Left operand (bound).
        lhs: Term,
        /// Right operand (bound).
        rhs: Term,
    },
    /// Unification `lhs = rhs` (at least one side resolvable).
    Unify {
        /// Left term.
        lhs: Term,
        /// Right term.
        rhs: Term,
    },
}

/// A compiled, reusable execution plan for one clause under one binding
/// pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Ordered steps.
    pub steps: Vec<PlanStep>,
    /// The clause head (projection producing result tuples).
    pub head: Vec<Term>,
    /// Total variable count of the clause.
    pub n_vars: u32,
    /// Estimated result rows under the statistics the plan was compiled
    /// with; `None` for plans compiled with the static cost table.
    pub est_rows: Option<f64>,
}

/// Cost model constants — relative magnitudes are what matters.
mod cost {
    /// Δ-literal: assumed tiny ("few changes to a single influent").
    pub const DELTA: f64 = 0.0;
    /// Executable built-in (comparison/arith/unify): pure CPU.
    pub const BUILTIN: f64 = 0.1;
    /// Fully-bound negation check: one lookup.
    pub const NEG_CHECK: f64 = 0.5;
    /// Fully-bound positive stored literal: one membership lookup.
    pub const LOOKUP: f64 = 1.0;
    /// Partially-bound stored literal: one index probe.
    pub const PROBE: f64 = 10.0;
    /// Fully-bound derived call: still a rule evaluation, not a lookup.
    pub const DERIVED_LOOKUP: f64 = 25.0;
    /// Partially-bound derived call.
    pub const DERIVED_PROBE: f64 = 50.0;
    /// Unbound stored scan.
    pub const SCAN: f64 = 10_000.0;
    /// Unbound derived materialization.
    pub const DERIVED_SCAN: f64 = 20_000.0;
    /// Not executable yet.
    pub const INF: f64 = f64::INFINITY;

    // Stats-backed variants: fixed per-operation overheads added to the
    // estimated row count, so that equal row estimates still prefer the
    // structurally cheaper access.
    /// Per-probe overhead (hash lookup).
    pub const PROBE_BASE: f64 = 2.0;
    /// Per-scan overhead (iterator setup; scans also pay per row).
    pub const SCAN_BASE: f64 = 8.0;
    /// Per-Δ-access overhead — slightly under a lookup so an empty or
    /// tiny Δ-set still seeds the join first.
    pub const DELTA_BASE: f64 = 0.5;
    /// Selectivity credited to each bound column of a Δ-literal probe
    /// (Δ-sets keep no per-column NDV, so a fixed factor stands in).
    pub const DELTA_BOUND_SELECTIVITY: f64 = 0.1;
}

/// Runtime statistics the cardinality-aware cost estimator draws on.
///
/// Every method may answer `None`, in which case the estimator falls
/// back to the paper's fixed cost table for that literal — a source
/// that always answers `None` (see [`NoStats`]) reproduces the static
/// planner exactly.
pub trait PlanStats {
    /// Current cardinality of the relation backing a stored predicate.
    fn cardinality(&self, rel: RelId) -> Option<f64>;
    /// Number of distinct values in one column of a stored relation.
    fn ndv(&self, rel: RelId, col: usize) -> Option<f64>;
    /// Live size of one side of an influent's Δ-set.
    fn delta_len(&self, pred: PredId, polarity: Polarity) -> Option<f64>;
}

/// The "no statistics" source: compilation uses the static cost table.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoStats;

impl PlanStats for NoStats {
    fn cardinality(&self, _rel: RelId) -> Option<f64> {
        None
    }
    fn ndv(&self, _rel: RelId, _col: usize) -> Option<f64> {
        None
    }
    fn delta_len(&self, _pred: PredId, _polarity: Polarity) -> Option<f64> {
        None
    }
}

fn term_bound(t: &Term, bound: &HashSet<Var>) -> bool {
    match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    }
}

/// Cost and estimated output rows of scheduling one literal next.
struct LitEstimate {
    /// Greedy ranking key.
    cost: f64,
    /// Estimated rows the literal contributes to the running result
    /// (multiplied into the plan's `est_rows`); `None` when the static
    /// table was used and no row estimate is meaningful.
    rows: Option<f64>,
}

impl LitEstimate {
    fn fixed(cost: f64) -> Self {
        LitEstimate { cost, rows: None }
    }
}

fn literal_cost(
    catalog: &Catalog,
    lit: &Literal,
    bound: &HashSet<Var>,
    stats: &dyn PlanStats,
) -> LitEstimate {
    match lit {
        Literal::Delta {
            pred,
            polarity,
            args,
        } => match stats.delta_len(*pred, *polarity) {
            Some(d) => {
                // Bound columns shrink the Δ access (index probe or, when
                // fully bound, a membership test).
                let n_bound = args.iter().filter(|t| term_bound(t, bound)).count();
                let rows = d * cost::DELTA_BOUND_SELECTIVITY.powi(n_bound as i32);
                LitEstimate {
                    cost: cost::DELTA_BASE + rows,
                    rows: Some(rows),
                }
            }
            None => LitEstimate::fixed(cost::DELTA),
        },
        Literal::Cmp { lhs, rhs, .. } => {
            if term_bound(lhs, bound) && term_bound(rhs, bound) {
                LitEstimate::fixed(cost::BUILTIN)
            } else {
                LitEstimate::fixed(cost::INF)
            }
        }
        Literal::Arith {
            result, lhs, rhs, ..
        } => {
            if term_bound(lhs, bound) && term_bound(rhs, bound) {
                // result may bind or test; both are fine
                let _ = result;
                LitEstimate::fixed(cost::BUILTIN)
            } else {
                LitEstimate::fixed(cost::INF)
            }
        }
        Literal::Unify { lhs, rhs } => {
            if term_bound(lhs, bound) || term_bound(rhs, bound) {
                LitEstimate::fixed(cost::BUILTIN)
            } else {
                LitEstimate::fixed(cost::INF)
            }
        }
        Literal::Pred {
            pred,
            args,
            negated,
            ..
        } => {
            let n_bound = args.iter().filter(|t| term_bound(t, bound)).count();
            let all_bound = n_bound == args.len();
            if *negated {
                return if all_bound {
                    LitEstimate::fixed(cost::NEG_CHECK)
                } else {
                    LitEstimate::fixed(cost::INF)
                };
            }
            let def = catalog.def(*pred);
            let stored_rel = match def.kind {
                PredKind::Stored { rel, .. } => Some(rel),
                _ => None,
            };
            if let Some(rel) = stored_rel {
                if let Some(card) = stats.cardinality(rel) {
                    return stored_estimate(card, rel, args, bound, all_bound, stats);
                }
            }
            let derived = stored_rel.is_none();
            LitEstimate::fixed(match (all_bound, n_bound > 0, derived) {
                (true, _, false) => cost::LOOKUP,
                (true, _, true) => cost::DERIVED_LOOKUP,
                (false, true, false) => cost::PROBE,
                (false, true, true) => cost::DERIVED_PROBE,
                (false, false, false) => cost::SCAN,
                (false, false, true) => cost::DERIVED_SCAN,
            })
        }
    }
}

/// Statistics-backed estimate for a positive stored literal: `|R|` for
/// scans, `|R| / Π ndv(c)` over the bound columns for probes, one row
/// for full membership lookups.
fn stored_estimate(
    card: f64,
    rel: RelId,
    args: &[Term],
    bound: &HashSet<Var>,
    all_bound: bool,
    stats: &dyn PlanStats,
) -> LitEstimate {
    if all_bound {
        return LitEstimate {
            cost: cost::LOOKUP,
            rows: Some(1.0_f64.min(card)),
        };
    }
    let bound_cols: Vec<usize> = args
        .iter()
        .enumerate()
        .filter(|(_, t)| term_bound(t, bound))
        .map(|(i, _)| i)
        .collect();
    if bound_cols.is_empty() {
        return LitEstimate {
            cost: cost::SCAN_BASE + card,
            rows: Some(card),
        };
    }
    let mut selectivity = 1.0;
    for &c in &bound_cols {
        let ndv = stats.ndv(rel, c).filter(|&n| n >= 1.0).unwrap_or(1.0);
        selectivity /= ndv;
    }
    let rows = (card * selectivity).min(card);
    LitEstimate {
        cost: cost::PROBE_BASE + rows,
        rows: Some(rows),
    }
}

/// Drop every stored membership test that an earlier step of the same
/// plan already decided: same relation, same epoch, and arguments equal
/// under the variable equalities the plan's own `unify var = var` steps
/// establish. `for each item i` over a function that itself ranges over
/// `item` compiles to exactly this: `unify _G0 = _G3`, `item_extent(_G0)`,
/// `item_extent(_G3)`. Only fully bound steps are dropped — they bind
/// nothing, and the conjunction is the same wherever the `unify` sits.
fn drop_decided_steps(steps: &mut Vec<PlanStep>, n_vars: u32) {
    // Quick-find: `class[v]` names v's equivalence class.
    let mut class: Vec<u32> = (0..n_vars).collect();
    for step in steps.iter() {
        let PlanStep::Unify { lhs, rhs } = step else {
            continue;
        };
        if let (Some(a), Some(b)) = (lhs.as_var(), rhs.as_var()) {
            let (from, to) = (class[a.0 as usize], class[b.0 as usize]);
            class
                .iter_mut()
                .for_each(|c| *c = if *c == from { to } else { *c });
        }
    }
    let canonical = |t: &Term| match t {
        Term::Var(v) => Term::Var(Var(class[v.0 as usize])),
        constant => constant.clone(),
    };
    let mut seen: Vec<(RelId, StateEpoch, Vec<Term>)> = Vec::new();
    steps.retain(|step| {
        let PlanStep::Stored {
            rel,
            args,
            bound_cols,
            epoch,
            ..
        } = step
        else {
            return true;
        };
        let access = (*rel, *epoch, args.iter().map(canonical).collect());
        let decided = bound_cols.len() == args.len() && seen.contains(&access);
        seen.push(access);
        !decided
    });
}

/// Compile a clause into a [`Plan`], given the set of head variables the
/// caller binds, using the static cost table. Greedy: repeatedly
/// schedule the cheapest executable literal; ties break toward textual
/// order.
pub fn compile_clause(
    catalog: &Catalog,
    clause: &Clause,
    bound_at_entry: &HashSet<Var>,
) -> Result<Plan, ObjectLogError> {
    compile_clause_with(catalog, clause, bound_at_entry, &NoStats)
}

/// Compile a clause with a [`PlanStats`] source feeding the estimator:
/// literals are ranked by estimated output rows instead of the fixed
/// cost table wherever the source has an answer. Join semantics are
/// order-independent, so any ordering this produces computes the same
/// result set as [`compile_clause`] — only the cost differs.
pub fn compile_clause_with(
    catalog: &Catalog,
    clause: &Clause,
    bound_at_entry: &HashSet<Var>,
    stats: &dyn PlanStats,
) -> Result<Plan, ObjectLogError> {
    let mut bound = bound_at_entry.clone();
    let mut remaining: Vec<&Literal> = clause.body.iter().collect();
    let mut steps = Vec::with_capacity(remaining.len());
    let mut est_rows = 1.0;
    let mut any_stats = false;

    while !remaining.is_empty() {
        let (best_idx, best) = remaining
            .iter()
            .enumerate()
            .map(|(i, lit)| (i, literal_cost(catalog, lit, &bound, stats)))
            .min_by(|a, b| {
                a.1.cost
                    .partial_cmp(&b.1.cost)
                    .expect("costs are never NaN")
            })
            .expect("remaining is non-empty");
        if best.cost.is_infinite() {
            return Err(ObjectLogError::NotSchedulable {
                literal: format!("{:?}", remaining[best_idx]),
            });
        }
        if let Some(rows) = best.rows {
            est_rows *= rows;
            any_stats = true;
        }
        let lit = remaining.remove(best_idx);
        let step = lower(catalog, lit, &bound)?;
        // Update boundness.
        match lit {
            Literal::Pred { negated: false, .. } | Literal::Delta { .. } => {
                for v in lit.vars() {
                    bound.insert(v);
                }
            }
            Literal::Arith { result, .. } => {
                if let Some(v) = result.as_var() {
                    bound.insert(v);
                }
            }
            Literal::Unify { lhs, rhs } => {
                if let Some(v) = lhs.as_var() {
                    bound.insert(v);
                }
                if let Some(v) = rhs.as_var() {
                    bound.insert(v);
                }
            }
            _ => {}
        }
        steps.push(step);
    }

    drop_decided_steps(&mut steps, clause.n_vars);

    Ok(Plan {
        steps,
        head: clause.head.clone(),
        n_vars: clause.n_vars,
        est_rows: any_stats.then_some(est_rows),
    })
}

fn lower(
    catalog: &Catalog,
    lit: &Literal,
    bound: &HashSet<Var>,
) -> Result<PlanStep, ObjectLogError> {
    Ok(match lit {
        Literal::Delta {
            pred,
            polarity,
            args,
        } => PlanStep::Delta {
            pred: *pred,
            polarity: *polarity,
            bound_cols: args
                .iter()
                .enumerate()
                .filter(|(_, t)| term_bound(t, bound))
                .map(|(i, _)| i)
                .collect(),
            args: args.clone(),
        },
        Literal::Cmp { op, lhs, rhs } => PlanStep::Cmp {
            op: *op,
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        },
        Literal::Arith {
            op,
            result,
            lhs,
            rhs,
        } => PlanStep::Arith {
            op: *op,
            result: result.clone(),
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        },
        Literal::Unify { lhs, rhs } => PlanStep::Unify {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        },
        Literal::Pred {
            pred,
            args,
            negated,
            epoch,
        } => {
            let def = catalog.def(*pred);
            if args.len() != def.arity {
                return Err(ObjectLogError::LiteralArityMismatch {
                    pred: def.name.clone(),
                    expected: def.arity,
                    found: args.len(),
                });
            }
            let bound_cols: Vec<usize> = args
                .iter()
                .enumerate()
                .filter(|(_, t)| term_bound(t, bound))
                .map(|(i, _)| i)
                .collect();
            if *negated {
                PlanStep::NegCheck {
                    pred: *pred,
                    args: args.clone(),
                    epoch: *epoch,
                }
            } else if let PredKind::Stored { rel, .. } = def.kind {
                PlanStep::Stored {
                    pred: *pred,
                    rel,
                    args: args.clone(),
                    bound_cols,
                    epoch: *epoch,
                }
            } else {
                PlanStep::Call {
                    pred: *pred,
                    args: args.clone(),
                    bound_cols,
                    epoch: *epoch,
                }
            }
        }
    })
}

/// Create the hash indexes a plan's stored probes need. Called once per
/// plan at rule-activation (and adaptive re-plan) time.
///
/// Δ-probes are covered too: the Δ-set itself builds its hash index
/// lazily at execution time, but the influent's *base* relation gets an
/// index over the same columns so the §7.2 checks and old-state views
/// that probe it on the Δ-join key never hit the scan fallback.
pub fn ensure_plan_indexes(catalog: &Catalog, plan: &Plan, storage: &mut Storage) {
    for step in &plan.steps {
        match step {
            // Probe (not scan, not full membership check) → index needed.
            PlanStep::Stored {
                rel,
                bound_cols,
                args,
                ..
            } if !bound_cols.is_empty() && bound_cols.len() < args.len() => {
                storage.ensure_index(*rel, bound_cols);
            }
            PlanStep::Delta {
                pred,
                bound_cols,
                args,
                ..
            } if !bound_cols.is_empty() && bound_cols.len() < args.len() => {
                if let PredKind::Stored { rel, .. } = catalog.def(*pred).kind {
                    storage.ensure_index(rel, bound_cols);
                }
            }
            _ => {}
        }
    }
}

/// Create the hash indexes for *every* probe pattern the greedy
/// optimizer could choose for this clause, not just the ones the current
/// plan uses. Called at rule-activation time so that adaptive wave-front
/// re-optimization — which runs against an immutable storage snapshot
/// and cannot create indexes — never degrades a reordered probe into the
/// O(n) scan fallback.
///
/// A stored literal can only ever be probed on argument positions whose
/// terms are constants or variables bindable by some *other* body
/// literal, so the enumeration is over subsets of those "joinable"
/// columns (capped to keep index count bounded on wide literals).
pub fn ensure_join_indexes(catalog: &Catalog, clause: &Clause, storage: &mut Storage) {
    /// Whether scheduling `lit` binds variable `v` (mirrors the
    /// boundness update in [`compile_clause_with`]).
    fn binds(lit: &Literal, v: Var) -> bool {
        match lit {
            Literal::Pred { negated: false, .. } | Literal::Delta { .. } => lit.vars().contains(&v),
            Literal::Arith { result, .. } => result.as_var() == Some(v),
            Literal::Unify { lhs, rhs } => lhs.as_var() == Some(v) || rhs.as_var() == Some(v),
            _ => false,
        }
    }

    const MAX_JOINABLE: usize = 4;
    for (li, lit) in clause.body.iter().enumerate() {
        let Literal::Pred {
            pred,
            args,
            negated: false,
            ..
        } = lit
        else {
            continue;
        };
        let PredKind::Stored { rel, .. } = catalog.def(*pred).kind else {
            continue;
        };
        let joinable: Vec<usize> = args
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                Term::Const(_) => true,
                Term::Var(v) => clause
                    .body
                    .iter()
                    .enumerate()
                    .any(|(lj, other)| lj != li && binds(other, *v)),
            })
            .map(|(i, _)| i)
            .collect();
        if joinable.is_empty() || joinable.len() > MAX_JOINABLE {
            continue;
        }
        for mask in 1u32..(1 << joinable.len()) {
            let cols: Vec<usize> = joinable
                .iter()
                .enumerate()
                .filter(|(b, _)| mask & (1 << b) != 0)
                .map(|(_, &c)| c)
                .collect();
            // A fully-bound access is a membership check, not a probe.
            if cols.len() < args.len() {
                storage.ensure_index(rel, &cols);
            }
        }
    }
}

impl Plan {
    /// Human-readable plan rendering, for tests and `explain`.
    pub fn render(&self, catalog: &Catalog) -> String {
        let mut out = String::new();
        for (i, step) in self.steps.iter().enumerate() {
            let line = match step {
                PlanStep::Stored {
                    pred,
                    bound_cols,
                    args,
                    epoch,
                    ..
                } => {
                    let access = if bound_cols.len() == args.len() {
                        "lookup"
                    } else if bound_cols.is_empty() {
                        "scan"
                    } else {
                        "probe"
                    };
                    format!(
                        "{access} {}{}{:?}",
                        catalog.name(*pred),
                        if *epoch == StateEpoch::Old {
                            "_old"
                        } else {
                            ""
                        },
                        bound_cols
                    )
                }
                PlanStep::Delta {
                    pred,
                    polarity,
                    bound_cols,
                    args,
                } => {
                    let access = if bound_cols.is_empty() {
                        "delta-scan"
                    } else if bound_cols.len() == args.len() {
                        "delta-lookup"
                    } else {
                        "delta-probe"
                    };
                    if bound_cols.is_empty() {
                        format!("{access} {polarity}{}", catalog.name(*pred))
                    } else {
                        format!("{access} {polarity}{}{bound_cols:?}", catalog.name(*pred))
                    }
                }
                PlanStep::Call {
                    pred,
                    bound_cols,
                    epoch,
                    ..
                } => format!(
                    "call {}{}{:?}",
                    catalog.name(*pred),
                    if *epoch == StateEpoch::Old {
                        "_old"
                    } else {
                        ""
                    },
                    bound_cols
                ),
                PlanStep::NegCheck { pred, epoch, .. } => format!(
                    "neg-check {}{}",
                    catalog.name(*pred),
                    if *epoch == StateEpoch::Old {
                        "_old"
                    } else {
                        ""
                    }
                ),
                PlanStep::Cmp { op, lhs, rhs } => format!("test {lhs} {op} {rhs}"),
                PlanStep::Arith {
                    op,
                    result,
                    lhs,
                    rhs,
                } => format!("compute {result} = {lhs} {op} {rhs}"),
                PlanStep::Unify { lhs, rhs } => format!("unify {lhs} = {rhs}"),
            };
            out.push_str(&format!("{i}: {line}\n"));
        }
        if let Some(est) = self.est_rows {
            out.push_str(&format!("est-rows: {est:.2}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::ClauseBuilder;
    use amos_types::TypeId;

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// Build the flat cnd_monitor_items clause of §4.3 and check the plan
    /// seeded by Δ₊quantity orders probes after the delta scan.
    #[test]
    fn differential_plan_is_delta_seeded() {
        let mut cat = Catalog::new();
        let quantity = cat.define_stored("quantity", sig(2), RelId(0), 1).unwrap();
        let consume = cat
            .define_stored("consume_freq", sig(2), RelId(1), 1)
            .unwrap();
        let delivery = cat
            .define_stored("delivery_time", sig(3), RelId(2), 2)
            .unwrap();
        let supplies = cat.define_stored("supplies", sig(2), RelId(3), 1).unwrap();
        let min_stock = cat.define_stored("min_stock", sig(2), RelId(4), 1).unwrap();

        // Δcnd/Δ₊quantity(I) ← Δ₊quantity(I,G1) ∧ consume_freq(I,G2) ∧
        //   delivery_time(I,G3,G4) ∧ supplies(I,G3) ∧ G5=G2*G4 ∧
        //   min_stock(I,G6) ∧ G7=G5+G6 ∧ G1<G7
        let clause = ClauseBuilder::new(8)
            .head([Term::var(0)])
            .delta(quantity, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(consume, [Term::var(0), Term::var(2)])
            .pred(delivery, [Term::var(0), Term::var(3), Term::var(4)])
            .pred(supplies, [Term::var(0), Term::var(3)])
            .arith(Term::var(5), Term::var(2), ArithOp::Mul, Term::var(4))
            .pred(min_stock, [Term::var(0), Term::var(6)])
            .arith(Term::var(7), Term::var(5), ArithOp::Add, Term::var(6))
            .cmp(Term::var(1), CmpOp::Lt, Term::var(7))
            .build();

        let plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        assert!(matches!(plan.steps[0], PlanStep::Delta { .. }));
        // Everything after the seed is a probe/lookup or builtin — no scans.
        for step in &plan.steps[1..] {
            if let PlanStep::Stored {
                bound_cols, args, ..
            } = step
            {
                assert!(
                    !bound_cols.is_empty(),
                    "stored access must be at least a probe: {step:?}"
                );
                let _ = args;
            }
        }
        let rendered = plan.render(&cat);
        assert!(rendered.contains("delta-scan Δ+quantity"), "{rendered}");
    }

    #[test]
    fn builtins_deferred_until_bound() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        // head(X,Z) ← Z = X + 1 ∧ q(X, Y) — arith listed first but must
        // be scheduled after q binds X.
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .arith(Term::var(2), Term::var(0), ArithOp::Add, Term::val(1))
            .pred(q, [Term::var(0), Term::var(1)])
            .build();
        let plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        assert!(matches!(plan.steps[0], PlanStep::Stored { .. }));
        assert!(matches!(plan.steps[1], PlanStep::Arith { .. }));
    }

    #[test]
    fn unschedulable_detected() {
        let cat = Catalog::new();
        // Z = X + 1 with X never bindable.
        let clause = ClauseBuilder::new(2)
            .head([Term::var(1)])
            .arith(Term::var(1), Term::var(0), ArithOp::Add, Term::val(1))
            .build();
        assert!(matches!(
            compile_clause(&cat, &clause, &HashSet::new()),
            Err(ObjectLogError::NotSchedulable { .. })
        ));
    }

    #[test]
    fn bound_head_turns_scan_into_probe() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        let clause = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .pred(q, [Term::var(0), Term::var(1)])
            .build();
        // Unbound: scan.
        let p1 = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        match &p1.steps[0] {
            PlanStep::Stored { bound_cols, .. } => assert!(bound_cols.is_empty()),
            other => panic!("{other:?}"),
        }
        // First head var bound: probe on column 0.
        let mut bound = HashSet::new();
        bound.insert(Var(0));
        let p2 = compile_clause(&cat, &clause, &bound).unwrap();
        match &p2.steps[0] {
            PlanStep::Stored { bound_cols, .. } => assert_eq!(bound_cols, &vec![0]),
            other => panic!("{other:?}"),
        }
    }

    /// A membership test that an earlier step already decided is dropped:
    /// `for each item i where … threshold(i)` puts `item_extent` in the
    /// clause twice, on variables a `unify` makes equal. What differs in
    /// epoch, in arguments, or still binds something stays.
    #[test]
    fn decided_membership_tests_are_dropped() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        let ext = cat.define_stored("ext", sig(1), RelId(1), 1).unwrap();
        let r = cat.define_stored("r", sig(2), RelId(2), 1).unwrap();
        let lookups = |plan: &Plan| plan.render(&cat).matches("lookup ext").count();

        // Δ₊q(X,Y) ∧ ext(X) ∧ X = X3 ∧ ext(X3) ∧ r(X3,Z)
        let clause = ClauseBuilder::new(4)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(ext, [Term::var(0)])
            .unify(Term::var(0), Term::var(3))
            .pred(ext, [Term::var(3)])
            .pred(r, [Term::var(3), Term::var(2)])
            .build();
        let plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        assert_eq!(lookups(&plan), 1, "{}", plan.render(&cat));
        assert_eq!(plan.steps.len(), clause.body.len() - 1);

        // No unify between the two variables: both tests stay.
        let apart = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(ext, [Term::var(0)])
            .pred(ext, [Term::var(1)])
            .build();
        assert_eq!(
            lookups(&compile_clause(&cat, &apart, &HashSet::new()).unwrap()),
            2
        );

        // Same variable, different epochs: both stay.
        let epochs = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(ext, [Term::var(0)])
            .pred_old(ext, [Term::var(0)])
            .build();
        let plan = compile_clause(&cat, &epochs, &HashSet::new()).unwrap();
        assert_eq!(plan.steps.len(), 3, "{}", plan.render(&cat));

        // The same literal twice where the first occurrence binds: the
        // second is a decided membership test, the first stays a probe.
        let twice = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(r, [Term::var(0), Term::var(2)])
            .pred(r, [Term::var(0), Term::var(2)])
            .build();
        let plan = compile_clause(&cat, &twice, &HashSet::new()).unwrap();
        let rendered = plan.render(&cat);
        assert_eq!(plan.steps.len(), 2, "{rendered}");
        assert!(rendered.contains("probe r[0]"), "{rendered}");
    }

    /// Statistics source for estimator tests: fixed per-relation
    /// cardinalities/NDVs and per-predicate Δ sizes.
    struct MockStats {
        cards: Vec<(RelId, f64)>,
        ndvs: Vec<(RelId, usize, f64)>,
        deltas: Vec<(PredId, Polarity, f64)>,
    }

    impl PlanStats for MockStats {
        fn cardinality(&self, rel: RelId) -> Option<f64> {
            self.cards.iter().find(|(r, _)| *r == rel).map(|(_, c)| *c)
        }
        fn ndv(&self, rel: RelId, col: usize) -> Option<f64> {
            self.ndvs
                .iter()
                .find(|(r, c, _)| *r == rel && *c == col)
                .map(|(_, _, n)| *n)
        }
        fn delta_len(&self, pred: PredId, polarity: Polarity) -> Option<f64> {
            self.deltas
                .iter()
                .find(|(p, pol, _)| *p == pred && *pol == polarity)
                .map(|(_, _, d)| *d)
        }
    }

    /// Satellite fix: a fully-bound derived call is a rule evaluation,
    /// not a hash lookup — stored probes must be scheduled before it.
    #[test]
    fn fully_bound_derived_call_costs_as_derived_evaluation() {
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), RelId(0), 1).unwrap();
        let r = cat.define_stored("r", sig(2), RelId(1), 1).unwrap();
        let d = cat
            .define_derived(
                "d",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(r, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        // Δ₊q(X,Y) ∧ d(X) ∧ r(X,Z): after the seed binds X and Y, d(X) is
        // fully bound (old cost: LOOKUP) while r(X,_) is a probe. The
        // probe must win now that d costs as a derived evaluation.
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(d, [Term::var(0)])
            .pred(r, [Term::var(0), Term::var(2)])
            .build();
        let plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        assert!(matches!(plan.steps[0], PlanStep::Delta { .. }));
        assert!(
            matches!(plan.steps[1], PlanStep::Stored { .. }),
            "stored probe must precede the fully-bound derived call: {:?}",
            plan.steps
        );
        assert!(matches!(plan.steps[2], PlanStep::Call { .. }));
        assert!(
            plan.est_rows.is_none(),
            "static compile carries no estimate"
        );
    }

    /// With statistics, probe ordering follows `|R| / ndv(col)`: the
    /// selective (functional) probe runs before the high-fanout one even
    /// though the static table ties them and textual order favors the
    /// fanout literal.
    #[test]
    fn estimator_orders_probes_by_selectivity() {
        let mut cat = Catalog::new();
        let s = cat.define_stored("s", sig(2), RelId(0), 1).unwrap();
        let big = cat.define_stored("big", sig(2), RelId(1), 1).unwrap();
        let pick = cat.define_stored("pick", sig(2), RelId(2), 1).unwrap();
        // Δ₊s(X,G) ∧ big(G,Y) ∧ pick(X,Y)
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(s, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(big, [Term::var(1), Term::var(2)])
            .pred(pick, [Term::var(0), Term::var(2)])
            .build();

        // Static: tie at PROBE → textual order → big first.
        let static_plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        match &static_plan.steps[1] {
            PlanStep::Stored { rel, .. } => assert_eq!(*rel, RelId(1), "textual order picks big"),
            other => panic!("{other:?}"),
        }

        // Stats: big probes at 100k/10 = 10k rows, pick at 100k/100k = 1.
        let stats = MockStats {
            cards: vec![(RelId(1), 100_000.0), (RelId(2), 100_000.0)],
            ndvs: vec![(RelId(1), 0, 10.0), (RelId(2), 0, 100_000.0)],
            deltas: vec![(s, Polarity::Plus, 2.0)],
        };
        let adaptive = compile_clause_with(&cat, &clause, &HashSet::new(), &stats).unwrap();
        assert!(matches!(adaptive.steps[0], PlanStep::Delta { .. }));
        match &adaptive.steps[1] {
            PlanStep::Stored { rel, .. } => {
                assert_eq!(*rel, RelId(2), "selective pick probe goes first")
            }
            other => panic!("{other:?}"),
        }
        match &adaptive.steps[2] {
            PlanStep::Stored {
                rel, bound_cols, ..
            } => {
                assert_eq!(*rel, RelId(1));
                assert_eq!(bound_cols.len(), 2, "big is fully bound by then");
            }
            other => panic!("{other:?}"),
        }
        let est = adaptive.est_rows.expect("stats compile estimates rows");
        assert!(
            est > 0.0 && est < 100.0,
            "tiny Δ → tiny estimate, got {est}"
        );
    }

    /// Δ-seed costing: a bulk-load Δ against a tiny base relation no
    /// longer Δ-seeds — the estimator scans the four-row relation and
    /// probes the Δ-set on the shared variable once per row.
    #[test]
    fn bulk_delta_scans_the_small_side_and_probes_the_delta() {
        let mut cat = Catalog::new();
        let s = cat.define_stored("s", sig(2), RelId(0), 1).unwrap();
        let small = cat.define_stored("small", sig(1), RelId(1), 1).unwrap();
        // Δ₊s(X,G) ∧ small(G)
        let clause = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .delta(s, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(small, [Term::var(1)])
            .build();
        let stats = MockStats {
            cards: vec![(RelId(1), 4.0)],
            ndvs: vec![(RelId(1), 0, 4.0)],
            deltas: vec![(s, Polarity::Plus, 100_000.0)],
        };
        let plan = compile_clause_with(&cat, &clause, &HashSet::new(), &stats).unwrap();
        assert_eq!(
            plan.render(&cat),
            "0: scan small[]\n1: delta-probe Δ+s[1]\nest-rows: 40000.00\n"
        );
        // The same clause with a tiny Δ keeps the Δ-seeded probe order:
        // sorting a two-tuple Δ never beats two hash probes.
        let tiny = MockStats {
            cards: vec![(RelId(1), 4.0)],
            ndvs: vec![(RelId(1), 0, 4.0)],
            deltas: vec![(s, Polarity::Plus, 2.0)],
        };
        let seeded = compile_clause_with(&cat, &clause, &HashSet::new(), &tiny).unwrap();
        assert!(matches!(seeded.steps[0], PlanStep::Delta { .. }));
        assert!(matches!(seeded.steps[1], PlanStep::Stored { .. }));
    }

    #[test]
    fn ensure_indexes_creates_probe_indexes() {
        let mut storage = Storage::new();
        let rel = storage.create_relation("q", 2).unwrap();
        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), rel, 1).unwrap();
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .delta(q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(q, [Term::var(0), Term::var(2)])
            .build();
        let plan = compile_clause(&cat, &clause, &HashSet::new()).unwrap();
        ensure_plan_indexes(&cat, &plan, &mut storage);
        assert!(storage.relation(rel).has_index(&[0]));
    }
}

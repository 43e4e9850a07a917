//! Inline expansion (flattening) of derived predicates.
//!
//! "The AMOSQL compiler expands as many derived relations as possible to
//! have more degrees of freedom for optimizations" (§4.3) — fully
//! expanded conditions yield the *flat* propagation network of fig. 2.
//! §7.1 discusses the alternative: stopping expansion at shared
//! sub-functions (e.g. `threshold`) produces a *bushy* network with
//! intermediate nodes that can be shared between rules.
//!
//! Both take a *keep set*, the predicates left as calls: the empty set
//! expands everything. The engine (`amos-db`'s `shape` module) keeps a
//! derived function iff two or more network nodes call it.
//! [`expand_clauses`] returns the flattened clause set (expansion of a
//! disjunctive sub-predicate multiplies clauses).
//!
//! Negated derived literals are *not* expanded (that would require full
//! DNF through ¬(A ∧ B)); they stay as calls, which the evaluator handles
//! recursively — matching the paper's late-binding caveat that not
//! everything can be flattened.

use std::collections::HashSet;

use crate::catalog::{Catalog, PredId, PredKind};
use crate::clause::{Clause, Literal, Term, Var};
use crate::error::ObjectLogError;

/// Shift every variable in a term by `offset`.
fn shift_term(t: &Term, offset: u32) -> Term {
    match t {
        Term::Var(Var(i)) => Term::Var(Var(i + offset)),
        Term::Const(_) => t.clone(),
    }
}

fn shift_literal(lit: &Literal, offset: u32) -> Literal {
    match lit {
        Literal::Pred {
            pred,
            args,
            negated,
            epoch,
        } => Literal::Pred {
            pred: *pred,
            args: args.iter().map(|t| shift_term(t, offset)).collect(),
            negated: *negated,
            epoch: *epoch,
        },
        Literal::Delta {
            pred,
            polarity,
            args,
        } => Literal::Delta {
            pred: *pred,
            polarity: *polarity,
            args: args.iter().map(|t| shift_term(t, offset)).collect(),
        },
        Literal::Cmp { op, lhs, rhs } => Literal::Cmp {
            op: *op,
            lhs: shift_term(lhs, offset),
            rhs: shift_term(rhs, offset),
        },
        Literal::Arith {
            op,
            result,
            lhs,
            rhs,
        } => Literal::Arith {
            op: *op,
            result: shift_term(result, offset),
            lhs: shift_term(lhs, offset),
            rhs: shift_term(rhs, offset),
        },
        Literal::Unify { lhs, rhs } => Literal::Unify {
            lhs: shift_term(lhs, offset),
            rhs: shift_term(rhs, offset),
        },
    }
}

/// Expand one clause: replace every positive derived literal outside
/// `keep` by the bodies of its clauses (renamed apart), connecting head
/// terms to call arguments with unifications. Returns one clause per
/// combination of sub-clause choices (disjunction lifting).
pub fn expand_clause(
    catalog: &Catalog,
    clause: &Clause,
    keep: &HashSet<PredId>,
) -> Result<Vec<Clause>, ObjectLogError> {
    let mut results = vec![clause.clone()];
    // Iterate to fixpoint: repeatedly find an expandable literal.
    let mut progress = true;
    while progress {
        progress = false;
        let mut next: Vec<Clause> = Vec::new();
        for c in &results {
            match find_expandable(catalog, c, keep) {
                None => next.push(c.clone()),
                Some(idx) => {
                    progress = true;
                    next.extend(expand_at(catalog, c, idx)?);
                }
            }
        }
        results = next;
    }
    Ok(results)
}

fn find_expandable(catalog: &Catalog, clause: &Clause, keep: &HashSet<PredId>) -> Option<usize> {
    clause.body.iter().position(|lit| match lit {
        Literal::Pred {
            pred,
            negated: false,
            ..
        } => {
            !keep.contains(pred)
                && matches!(catalog.def(*pred).kind, PredKind::Derived(_))
                // Recursive predicates cannot be flattened away — they
                // stay as fixpoint nodes in the propagation network.
                && !catalog.is_self_recursive(*pred)
        }
        _ => false,
    })
}

fn expand_at(
    catalog: &Catalog,
    clause: &Clause,
    idx: usize,
) -> Result<Vec<Clause>, ObjectLogError> {
    let (pred, args, epoch) = match &clause.body[idx] {
        Literal::Pred {
            pred, args, epoch, ..
        } => (*pred, args.clone(), *epoch),
        _ => unreachable!("expand_at on non-pred literal"),
    };
    let sub_clauses = match &catalog.def(pred).kind {
        PredKind::Derived(cs) => cs.clone(),
        _ => unreachable!("expand_at on non-derived predicate"),
    };
    let mut out = Vec::with_capacity(sub_clauses.len());
    for sub in &sub_clauses {
        let offset = clause.n_vars;
        let mut new_clause = Clause {
            n_vars: clause.n_vars + sub.n_vars,
            head: clause.head.clone(),
            body: Vec::with_capacity(clause.body.len() + sub.body.len() + args.len()),
        };
        // Body before the expanded literal.
        new_clause.body.extend(clause.body[..idx].iter().cloned());
        // Connect call args to (shifted) sub head terms.
        for (arg, head_term) in args.iter().zip(&sub.head) {
            let shifted = shift_term(head_term, offset);
            // `arg = shifted` — trivial unifications (same term) skipped.
            if arg != &shifted {
                new_clause.body.push(Literal::Unify {
                    lhs: arg.clone(),
                    rhs: shifted,
                });
            }
        }
        // The sub body (shifted). If the call site was old-state, force
        // the inlined literals old too.
        for lit in &sub.body {
            let mut shifted = shift_literal(lit, offset);
            if epoch == amos_storage::StateEpoch::Old {
                if let Literal::Pred { epoch: e, .. } = &mut shifted {
                    *e = amos_storage::StateEpoch::Old;
                }
            }
            new_clause.body.push(shifted);
        }
        // Body after the expanded literal.
        new_clause
            .body
            .extend(clause.body[idx + 1..].iter().cloned());
        out.push(new_clause);
    }
    Ok(out)
}

/// Expand a clause set (a derived predicate's body) around `keep`.
pub fn expand_clauses(
    catalog: &Catalog,
    clauses: &[Clause],
    keep: &HashSet<PredId>,
) -> Result<Vec<Clause>, ObjectLogError> {
    let mut out = Vec::new();
    for c in clauses {
        out.extend(expand_clause(catalog, c, keep)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::ClauseBuilder;
    use crate::eval::{DeltaMap, EvalContext};
    use amos_storage::{StateEpoch, Storage};
    use amos_types::{tuple, CmpOp, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// threshold-style nesting: top(I) ← q(I,A) ∧ mid(I,B) ∧ A < B;
    /// mid(I,B) ← r(I,B).
    #[test]
    fn expansion_flattens_and_preserves_semantics() {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        storage.insert(rq, tuple![1, 5]).unwrap();
        storage.insert(rq, tuple![2, 50]).unwrap();
        storage.insert(rr, tuple![1, 10]).unwrap();
        storage.insert(rr, tuple![2, 10]).unwrap();

        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(2), rq, 1).unwrap();
        let r = cat.define_stored("r", sig(2), rr, 1).unwrap();
        let mid = cat
            .define_derived(
                "mid",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap();
        let top_clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .pred(q, [Term::var(0), Term::var(1)])
            .pred(mid, [Term::var(0), Term::var(2)])
            .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
            .build();
        let top = cat.define_derived("top", sig(1), vec![top_clause]).unwrap();

        // Unexpanded evaluation.
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &cat, &deltas);
        let before = ctx.eval_pred(top, &[None], StateEpoch::New).unwrap();
        assert_eq!(before, [tuple![1]].into_iter().collect());

        // Expand fully: the mid literal disappears.
        let expanded =
            expand_clauses(&cat, cat.def(top).clauses().unwrap(), &HashSet::new()).unwrap();
        assert_eq!(expanded.len(), 1);
        assert!(expanded[0].body.iter().all(|l| l.pred() != Some(mid)));
        let mut cat2 = cat.clone();
        cat2.replace_clauses(top, expanded).unwrap();
        let ctx2 = EvalContext::new(&storage, &cat2, &deltas);
        let after = ctx2.eval_pred(top, &[None], StateEpoch::New).unwrap();
        assert_eq!(after, before);

        // Keeping `mid` leaves it in place (bushy network boundary).
        let kept =
            expand_clauses(&cat, cat.def(top).clauses().unwrap(), &HashSet::from([mid])).unwrap();
        assert!(kept[0].body.iter().any(|l| l.pred() == Some(mid)));
    }

    /// Disjunctive sub-predicate: expansion multiplies clauses.
    #[test]
    fn disjunction_lifting() {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 1).unwrap();
        let rr = storage.create_relation("r", 1).unwrap();
        storage.insert(rq, tuple![1]).unwrap();
        storage.insert(rr, tuple![2]).unwrap();

        let mut cat = Catalog::new();
        let q = cat.define_stored("q", sig(1), rq, 1).unwrap();
        let r = cat.define_stored("r", sig(1), rr, 1).unwrap();
        let either = cat
            .define_derived(
                "either",
                sig(1),
                vec![
                    ClauseBuilder::new(1)
                        .head([Term::var(0)])
                        .pred(q, [Term::var(0)])
                        .build(),
                    ClauseBuilder::new(1)
                        .head([Term::var(0)])
                        .pred(r, [Term::var(0)])
                        .build(),
                ],
            )
            .unwrap();
        let wrap = cat
            .define_derived(
                "wrap",
                sig(1),
                vec![ClauseBuilder::new(1)
                    .head([Term::var(0)])
                    .pred(either, [Term::var(0)])
                    .build()],
            )
            .unwrap();

        let expanded =
            expand_clauses(&cat, cat.def(wrap).clauses().unwrap(), &HashSet::new()).unwrap();
        assert_eq!(expanded.len(), 2, "two clauses from the disjunction");

        let mut cat2 = cat.clone();
        cat2.replace_clauses(wrap, expanded).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &cat2, &deltas);
        let out = ctx.eval_pred(wrap, &[None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1], tuple![2]].into_iter().collect());
    }

    /// Negated derived literals are kept as calls.
    #[test]
    fn negated_derived_not_expanded() {
        let mut cat = Catalog::new();
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 1).unwrap();
        let q = cat.define_stored("q", sig(1), rq, 1).unwrap();
        let d = cat
            .define_derived(
                "d",
                sig(1),
                vec![ClauseBuilder::new(1)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0)])
                    .build()],
            )
            .unwrap();
        let c = ClauseBuilder::new(1)
            .head([Term::var(0)])
            .pred(q, [Term::var(0)])
            .not_pred(d, [Term::var(0)])
            .build();
        let w = cat.define_derived("w", sig(1), vec![c]).unwrap();
        let expanded =
            expand_clauses(&cat, cat.def(w).clauses().unwrap(), &HashSet::new()).unwrap();
        assert_eq!(expanded.len(), 1);
        assert!(expanded[0].body.iter().any(|l| matches!(
            l,
            Literal::Pred { pred, negated: true, .. } if *pred == d
        )));
    }

    /// Nested expansion terminates and variables stay disjoint.
    #[test]
    fn nested_expansion_renames_apart() {
        let mut cat = Catalog::new();
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let q = cat.define_stored("q", sig(2), rq, 1).unwrap();
        let a = cat
            .define_derived(
                "a",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        let b = cat
            .define_derived(
                "b",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(a, [Term::var(0), Term::var(1)])
                    .pred(a, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        let expanded =
            expand_clauses(&cat, cat.def(b).clauses().unwrap(), &HashSet::new()).unwrap();
        assert_eq!(expanded.len(), 1);
        let c = &expanded[0];
        // all four q literals present
        let q_lits = c.body.iter().filter(|l| l.pred() == Some(q)).count();
        assert_eq!(q_lits, 4);
        assert!(c.unsafe_var().is_none());
    }
}

//! Optimizer soundness: whatever order the greedy planner picks, plan
//! execution must produce exactly the tuples a brute-force reference
//! evaluation produces.
//!
//! The reference enumerates all assignments of clause variables over the
//! active value domain and checks every literal — no plans, no indexes,
//! no ordering decisions to get wrong. The warm leg keeps one planner
//! across a mutation that forces a re-plan, so a cached plan and its
//! replacement are both checked against it.

use std::collections::HashSet;
use std::sync::Arc;

use amos_objectlog::catalog::Catalog;
use amos_objectlog::clause::{Clause, ClauseBuilder, Literal, Term, Var};
use amos_objectlog::eval::{DeltaMap, EvalContext, EvalShared};
use amos_objectlog::planner::DRIFT_RATIO;
use amos_storage::{RelId, StateEpoch, Storage};
use amos_types::{tuple, CmpOp, Tuple, TypeId, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

const DOMAIN: i64 = 4;

/// Brute-force: enumerate all bindings over the domain.
fn reference_eval(
    clause: &Clause,
    q_rows: &HashSet<Tuple>,
    r_rows: &HashSet<Tuple>,
) -> HashSet<Tuple> {
    let n = clause.n_vars as usize;
    let mut out = HashSet::new();
    let mut assignment = vec![0i64; n];
    loop {
        let value = |t: &Term| -> Value {
            match t {
                Term::Const(v) => v.clone(),
                Term::Var(Var(i)) => Value::Int(assignment[*i as usize]),
            }
        };
        let holds = clause.body.iter().all(|lit| match lit {
            Literal::Pred {
                pred,
                args,
                negated,
                ..
            } => {
                let t: Tuple = args.iter().map(value).collect();
                let present = if pred.0 == 0 {
                    q_rows.contains(&t)
                } else {
                    r_rows.contains(&t)
                };
                present != *negated
            }
            Literal::Cmp { op, lhs, rhs } => op.apply(&value(lhs), &value(rhs)).unwrap_or(false),
            Literal::Arith {
                op,
                result,
                lhs,
                rhs,
            } => match op.apply(&value(lhs), &value(rhs)) {
                Ok(v) => v == value(result),
                Err(_) => false,
            },
            Literal::Unify { lhs, rhs } => value(lhs) == value(rhs),
            Literal::Delta { .. } => unreachable!("no deltas in this test"),
        });
        if holds {
            out.insert(clause.head.iter().map(value).collect());
        }
        // Next assignment (odometer).
        let mut i = 0;
        loop {
            if i == n {
                return out;
            }
            assignment[i] += 1;
            if assignment[i] < DOMAIN {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

fn rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..DOMAIN, 0..DOMAIN), 0..8)
}

/// Random conjunctive bodies over q/2 (pred 0) and r/2 (pred 1) with
/// shared variables, comparisons, and optional negation.
#[derive(Debug, Clone)]
struct Shape {
    literals: Vec<(bool, u32, u32, bool)>, // (on_q, var_a, var_b, negated)
    cmp: Option<(u32, CmpOp, u32)>,
    head: Vec<u32>,
    n_vars: u32,
}

fn shapes() -> impl Strategy<Value = Shape> {
    let n_vars = 3u32;
    (
        prop::collection::vec(
            (
                any::<bool>(),
                0..n_vars,
                0..n_vars,
                prop::bool::weighted(0.25),
            ),
            1..4,
        ),
        prop::option::of((
            0..n_vars,
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Eq),
                Just(CmpOp::Ne)
            ],
            0..n_vars,
        )),
        prop::collection::vec(0..n_vars, 1..3),
    )
        .prop_map(move |(literals, cmp, head)| Shape {
            literals,
            cmp,
            head,
            n_vars,
        })
}

fn build_clause(
    shape: &Shape,
    q: amos_objectlog::catalog::PredId,
    r: amos_objectlog::catalog::PredId,
) -> Option<Clause> {
    let mut b = ClauseBuilder::new(shape.n_vars).head(shape.head.iter().map(|&v| Term::var(v)));
    for &(on_q, a, bb, negated) in &shape.literals {
        let pred = if on_q { q } else { r };
        let args = [Term::var(a), Term::var(bb)];
        b = if negated {
            b.not_pred(pred, args)
        } else {
            b.pred(pred, args)
        };
    }
    if let Some((a, op, c)) = shape.cmp {
        b = b.cmp(Term::var(a), op, Term::var(c));
    }
    let clause = b.build();
    // Skip unsafe shapes (e.g. all literals negated).
    if clause.unsafe_var().is_some() {
        return None;
    }
    // Negated literals with variables bound by nothing are rejected
    // above; also skip bodies where the planner can't start (pure
    // negation + cmp).
    Some(clause)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_execution_matches_reference(
        shape in shapes(),
        q_rows in rows(),
        r_rows in rows(),
    ) {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        prop_assume!(q.0 == 0 && r.0 == 1);

        let Some(clause) = build_clause(&shape, q, r) else {
            return Ok(());
        };

        let q_set: HashSet<Tuple> = q_rows.iter().map(|&(a, b)| tuple![a, b]).collect();
        let r_set: HashSet<Tuple> = r_rows.iter().map(|&(a, b)| tuple![a, b]).collect();
        for t in &q_set {
            storage.insert(rq, t.clone()).unwrap();
        }
        for t in &r_set {
            storage.insert(rr, t.clone()).unwrap();
        }

        let pred = catalog
            .define_derived("p", sig(clause.head.len()), vec![clause.clone()])
            .unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        let pattern = vec![None; clause.head.len()];
        let via_plan = ctx.eval_pred(pred, &pattern, StateEpoch::New).unwrap();

        let reference = reference_eval(&clause, &q_set, &r_set);
        prop_assert_eq!(via_plan, reference, "clause: {:?}", clause);
    }

    /// Bound patterns agree with post-filtered unbound evaluation.
    #[test]
    fn bound_pattern_equals_filtered(
        shape in shapes(),
        q_rows in rows(),
        r_rows in rows(),
        key in 0..DOMAIN,
    ) {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        let Some(clause) = build_clause(&shape, q, r) else {
            return Ok(());
        };
        for &(a, b) in &q_rows {
            storage.insert(rq, tuple![a, b]).unwrap();
        }
        for &(a, b) in &r_rows {
            storage.insert(rr, tuple![a, b]).unwrap();
        }
        let arity = clause.head.len();
        let pred = catalog
            .define_derived("p", sig(arity), vec![clause])
            .unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);

        let all = ctx.eval_pred(pred, &vec![None; arity], StateEpoch::New).unwrap();
        let mut bound_pattern = vec![None; arity];
        bound_pattern[0] = Some(Value::Int(key));
        let bound = ctx.eval_pred(pred, &bound_pattern, StateEpoch::New).unwrap();
        let filtered: HashSet<Tuple> = all
            .into_iter()
            .filter(|t| t[0] == Value::Int(key))
            .collect();
        prop_assert_eq!(bound, filtered);
    }
}

/// Rewrite `rel` so its statistics drift past the planner's threshold:
/// an empty relation fills with the whole domain, a small one grows to
/// it (≥ [`DRIFT_RATIO`]×), a larger one empties — each side of the
/// empty boundary or a ratio the fingerprint cannot miss.
fn drift(storage: &mut Storage, rel: RelId) {
    let rows: Vec<Tuple> = storage.relation(rel).scan().cloned().collect();
    let domain = (DOMAIN * DOMAIN) as f64;
    if rows.is_empty() || domain / rows.len() as f64 >= DRIFT_RATIO {
        for a in 0..DOMAIN {
            for b in 0..DOMAIN {
                let t = tuple![a, b];
                if !rows.contains(&t) {
                    storage.insert(rel, t).unwrap();
                }
            }
        }
    } else {
        for t in &rows {
            storage.delete(rel, t).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One `EvalShared` — one planner — evaluates a derived predicate,
    /// unbound and with its first column bound, before and after its
    /// first literal's relation drifts: both times every answer equals
    /// the reference, and the drift re-planned.
    #[test]
    fn warm_plans_stay_exact_across_drift(
        shape in shapes(),
        q_rows in rows(),
        r_rows in rows(),
        key in 0..DOMAIN,
    ) {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        prop_assume!(q.0 == 0 && r.0 == 1);
        let Some(clause) = build_clause(&shape, q, r) else {
            return Ok(());
        };
        for &(a, b) in &q_rows {
            storage.insert(rq, tuple![a, b]).unwrap();
        }
        for &(a, b) in &r_rows {
            storage.insert(rr, tuple![a, b]).unwrap();
        }
        let arity = clause.head.len();
        let pred = catalog
            .define_derived("p", sig(arity), vec![clause.clone()])
            .unwrap();
        let shared = Arc::new(EvalShared::default());
        let mut bound_pattern = vec![None; arity];
        bound_pattern[0] = Some(Value::Int(key));
        let check = |storage: &Storage| -> Result<(), TestCaseError> {
            shared.reset_pass();
            let deltas = DeltaMap::new();
            let ctx = EvalContext::with_shared(storage, &catalog, &deltas, Arc::clone(&shared));
            let contents = |rel| storage.relation(rel).scan().cloned().collect();
            let reference = reference_eval(&clause, &contents(rq), &contents(rr));
            let all = ctx.eval_pred(pred, &vec![None; arity], StateEpoch::New).unwrap();
            prop_assert_eq!(&all, &reference, "unbound: {:?}", clause);
            let bound = ctx.eval_pred(pred, &bound_pattern, StateEpoch::New).unwrap();
            let filtered: HashSet<Tuple> = reference
                .into_iter()
                .filter(|t| t[0] == Value::Int(key))
                .collect();
            prop_assert_eq!(bound, filtered, "bound: {:?}", clause);
            Ok(())
        };
        check(&storage)?;
        let compiled = shared.planner().replan_count();
        let (on_q, ..) = shape.literals[0];
        drift(&mut storage, if on_q { rq } else { rr });
        check(&storage)?;
        prop_assert!(
            shared.planner().replan_count() > compiled,
            "the drift re-planned: {:?}",
            clause
        );
    }
}

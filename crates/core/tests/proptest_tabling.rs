//! Per-pass tabling is a pure caching layer: for random databases,
//! random condition shapes, and random update transactions, propagation
//! with the derived-call memo table enabled produces bit-identical
//! condition Δ-sets (and identical work counters) to propagation with
//! tabling disabled — under every §7.2 check level and both execution
//! strategies.
//!
//! The memo is safe because storage is frozen for the duration of a
//! check phase and derived-predicate source clauses never contain
//! Δ-literals, so a `(pred, pattern, epoch)` call is referentially
//! transparent within one pass. This suite is the property-level
//! enforcement of that argument.

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_adaptive, CheckLevel, ExecStrategy, INLINE_WAVE_THRESHOLD};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_objectlog::eval::EvalShared;
use amos_storage::{RelId, Storage};
use amos_types::{tuple, ArithOp, CmpOp, Tuple, TypeId};
use proptest::prelude::*;
use std::sync::Arc;

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

struct World {
    storage: Storage,
    catalog: Catalog,
    rq: RelId,
    rr: RelId,
    cond: PredId,
}

/// Build a world with base relations q/2, r/2 and a condition of the
/// given shape (same shape table as `proptest_equivalence`). Shape 4 is
/// the important one here: the bushy network keeps `mid` as a derived
/// node, so Nervous/Strict re-checks issue `PlanStep::Call`s that the
/// memo table actually caches.
fn build_world(shape: u8, q0: &[Tuple], r0: &[Tuple]) -> World {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();

    let cond = match shape % 6 {
        // join: p(X,Z) ← q(X,Y) ∧ r(Y,Z)
        0 => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap(),
        // selection + arithmetic: p(X) ← q(X,V) ∧ W = V*2 ∧ W < 6
        1 => catalog
            .define_derived(
                "cond",
                sig(1),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .arith(Term::var(2), Term::var(1), ArithOp::Mul, Term::val(2))
                    .cmp(Term::var(2), CmpOp::Lt, Term::val(6))
                    .build()],
            )
            .unwrap(),
        // negation: p(X,Y) ← q(X,Y) ∧ ¬r(X,Y)
        2 => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .not_pred(r, [Term::var(0), Term::var(1)])
                    .build()],
            )
            .unwrap(),
        // disjunction: p(X) ← q(X,_) ; p(X) ← r(_,X)
        3 => catalog
            .define_derived(
                "cond",
                sig(1),
                vec![
                    ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(q, [Term::var(0), Term::var(1)])
                        .build(),
                    ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(r, [Term::var(1), Term::var(0)])
                        .build(),
                ],
            )
            .unwrap(),
        // bushy: mid(X,Z) ← q(X,Y) ∧ r(Y,Z); p(X) ← mid(X,Z) ∧ Z < 4
        4 => {
            let mid = catalog
                .define_derived(
                    "mid",
                    sig(2),
                    vec![ClauseBuilder::new(3)
                        .head([Term::var(0), Term::var(2)])
                        .pred(q, [Term::var(0), Term::var(1)])
                        .pred(r, [Term::var(1), Term::var(2)])
                        .build()],
                )
                .unwrap();
            catalog
                .define_derived(
                    "cond",
                    sig(1),
                    vec![ClauseBuilder::new(2)
                        .head([Term::var(0)])
                        .pred(mid, [Term::var(0), Term::var(1)])
                        .cmp(Term::var(1), CmpOp::Lt, Term::val(4))
                        .build()],
                )
                .unwrap()
        }
        // self-join: p(X,Z) ← q(X,Y) ∧ q(Y,Z)
        _ => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(q, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap(),
    };

    for t in q0 {
        storage.insert(rq, t.clone()).unwrap();
    }
    for t in r0 {
        storage.insert(rr, t.clone()).unwrap();
    }
    storage.monitor(rq);
    storage.monitor(rr);
    World {
        storage,
        catalog,
        rq,
        rr,
        cond,
    }
}

fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..5, 0i64..5).prop_map(|(a, b)| tuple![a, b])
}

fn tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(small_tuple(), 0..10)
}

fn updates() -> impl Strategy<Value = Vec<(bool, bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), any::<bool>(), small_tuple()), 0..15)
}

fn shared(tabling: bool) -> Arc<EvalShared> {
    Arc::new(if tabling {
        EvalShared::default()
    } else {
        EvalShared::untabled()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tabled ≡ untabled under every check level (serial execution):
    /// identical condition Δ-sets, identical candidate/rejection
    /// counters, identical fired-differential order. The only permitted
    /// difference is the hit/miss counters themselves.
    #[test]
    fn tabled_equals_untabled_all_check_levels(
        shape in 0u8..6,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        for (on_q, is_insert, t) in &ups {
            let rel = if *on_q { w.rq } else { w.rr };
            if *is_insert {
                w.storage.insert(rel, t.clone()).unwrap();
            } else {
                w.storage.delete(rel, t).unwrap();
            }
        }
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            let tabled = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &shared(true), None,
            ).unwrap();
            let untabled = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &shared(false), None,
            ).unwrap();
            prop_assert_eq!(
                &tabled.condition_deltas, &untabled.condition_deltas,
                "Δ-sets diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                tabled.metrics.candidates, untabled.metrics.candidates,
                "candidate counts diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                tabled.metrics.rejected, untabled.metrics.rejected,
                "rejection counts diverged (shape {}, check {:?})", shape, check
            );
            let fired = |r: &amos_core::propagate::PropagationResult| -> Vec<_> {
                r.fired.iter().map(|f| f.diff).collect()
            };
            prop_assert_eq!(
                fired(&tabled), fired(&untabled),
                "fired order diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                untabled.metrics.tabling_hits, 0,
                "untabled run recorded memo hits (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                untabled.metrics.tabling_misses, 0,
                "untabled run recorded memo misses (shape {}, check {:?})", shape, check
            );
        }
    }

    /// Tabled parallel ≡ untabled serial: the memo table composes with
    /// the parallel wave-front without changing semantics. `bulk` adds a
    /// block of fresh q-tuples that puts level 0 past the inline
    /// threshold, so the memo is then filled from real threads.
    #[test]
    fn tabled_parallel_equals_untabled_serial(
        shape in 0u8..6,
        bulk in any::<bool>(),
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        for (on_q, is_insert, t) in &ups {
            let rel = if *on_q { w.rq } else { w.rr };
            if *is_insert {
                w.storage.insert(rel, t.clone()).unwrap();
            } else {
                w.storage.delete(rel, t).unwrap();
            }
        }
        if bulk {
            for i in 0..INLINE_WAVE_THRESHOLD as i64 {
                w.storage.insert(w.rq, tuple![100 + i, i % 5]).unwrap();
            }
        }
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            let tabled = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Parallel, &shared(true), None,
            ).unwrap();
            let untabled = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &shared(false), None,
            ).unwrap();
            prop_assert_eq!(
                &tabled.condition_deltas, &untabled.condition_deltas,
                "Δ-sets diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                tabled.metrics.levels.first().is_some_and(|l| l.parallel), bulk,
                "wrong side of the inline threshold (shape {}, check {:?})", shape, check
            );
        }
    }

    /// A reused `EvalShared` (the long-lived engine path: one shared
    /// state across many passes, `reset_pass` between them) behaves
    /// exactly like a fresh one per pass.
    #[test]
    fn reused_shared_state_is_transparent(
        shape in 0u8..6,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        let reused = shared(true);
        w.storage.begin().unwrap();
        for (on_q, is_insert, t) in &ups {
            let rel = if *on_q { w.rq } else { w.rr };
            if *is_insert {
                w.storage.insert(rel, t.clone()).unwrap();
            } else {
                w.storage.delete(rel, t).unwrap();
            }
        }
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            // First pass on the reused state, then a second with stale
            // memo entries cleared — both must match a fresh shared.
            reused.reset_pass();
            let warm = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &reused, None,
            ).unwrap();
            reused.reset_pass();
            let again = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &reused, None,
            ).unwrap();
            let fresh = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial, &shared(true), None,
            ).unwrap();
            prop_assert_eq!(&warm.condition_deltas, &fresh.condition_deltas);
            prop_assert_eq!(&again.condition_deltas, &fresh.condition_deltas);
        }
    }
}

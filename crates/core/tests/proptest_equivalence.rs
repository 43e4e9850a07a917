//! The central correctness theorem of the reproduction, property-tested:
//! for random databases, random condition shapes, and random update
//! transactions, the incrementally propagated condition delta equals the
//! naive recomputation diff.
//!
//! Shapes exercised: conjunctive joins (the paper's running example),
//! selections with arithmetic, negation, disjunction (multi-clause),
//! flat and bushy (intermediate-node) networks, repeated influent
//! occurrences (self-joins), and a cartesian product (no join key).

use std::collections::HashSet;

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{
    propagate_with, recompute_delta, CheckLevel, ExecStrategy, PropagationResult,
    INLINE_WAVE_THRESHOLD,
};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, ArithOp, CmpOp, Tuple, TypeId};
use proptest::prelude::*;

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

/// Build a world with base relations q/2, r/2, a condition of the given
/// shape, and initial contents.
fn build_world(shape: u8, q0: &[Tuple], r0: &[Tuple]) -> World {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();

    let cond = match shape % 7 {
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
        5 => catalog
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
        // cartesian product: p(X,Y) ← q(X,_) ∧ r(_,Y) — the Δ-literal
        // shares no variable with the rest of the body
        _ => catalog
            .define_derived(
                "cond",
                sig(2),
                vec![ClauseBuilder::new(4)
                    .head([Term::var(0), Term::var(3)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(2), Term::var(3)])
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

fn apply(w: &mut World, ups: &[(bool, bool, Tuple)]) {
    for (on_q, is_insert, t) in ups {
        let rel = if *on_q { w.rq } else { w.rr };
        if *is_insert {
            w.storage.insert(rel, t.clone()).unwrap();
        } else {
            w.storage.delete(rel, t).unwrap();
        }
    }
}

/// Insert a block of fresh q-tuples that alone puts level 0 of the next
/// pass at the executor's inline threshold; q feeds at least two
/// differentials in every shape, so the level then runs on threads.
fn apply_bulk(w: &mut World) {
    for i in 0..INLINE_WAVE_THRESHOLD as i64 {
        w.storage.insert(w.rq, tuple![100 + i, i % 5]).unwrap();
    }
}

fn fired_order(r: &PropagationResult) -> Vec<amos_core::differ::DiffId> {
    r.fired.iter().map(|f| f.diff).collect()
}

/// The 800-tuple wave of a bulk transaction: far past the inline
/// threshold, so the default strategy really fans the four level-0
/// differentials out over threads — and must still match serial exactly.
#[test]
fn large_wave_takes_threads_and_stays_exact() {
    let mut w = build_world(0, &[], &[]);
    let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
    w.storage.begin().unwrap();
    for i in 0..400i64 {
        w.storage.insert(w.rq, tuple![i, i % 17]).unwrap();
        w.storage.insert(w.rr, tuple![i % 17, i]).unwrap();
    }
    for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
        let serial =
            propagate_with(&net, &w.catalog, &w.storage, check, ExecStrategy::Serial).unwrap();
        let parallel =
            propagate_with(&net, &w.catalog, &w.storage, check, ExecStrategy::Parallel).unwrap();
        assert_eq!(serial.condition_deltas, parallel.condition_deltas);
        assert_eq!(serial.metrics.candidates, parallel.metrics.candidates);
        assert_eq!(serial.metrics.rejected, parallel.metrics.rejected);
        assert_eq!(fired_order(&serial), fired_order(&parallel));
        assert_eq!(parallel.metrics.levels[0].wave_tuples, 800);
        assert!(parallel.metrics.levels[0].parallel);
        assert!(serial.metrics.levels.iter().all(|l| !l.parallel));
    }
}

/// What a pass reports per differential, in order: the timing row's
/// counts and the accepted tuples as traced.
fn per_differential(r: &PropagationResult) -> Vec<(usize, usize, usize, Vec<Tuple>)> {
    assert_eq!(r.metrics.differentials.len(), r.fired.len());
    let rows = r.metrics.differentials.iter().zip(&r.fired);
    rows.map(|(t, f)| (t.diff, t.candidates, t.accepted, f.tuples.clone()))
        .collect()
}

/// A bulk Δ-set seeds its differentials in tuple order, so what a pass
/// reports is a property of the Δ-set: the same 800 changes, written in
/// the opposite order (another hash-table history), on threads or not,
/// give the same per-differential counts and the same accepted tuples in
/// the same order. (Every probe here has one match; the order *within* a
/// seed tuple's matches is the index's.)
#[test]
fn bulk_pass_output_order_is_a_property_of_the_delta_set() {
    let pass = |reversed: bool, strategy: ExecStrategy| {
        let mut w = build_world(0, &[], &[]);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        let mut items: Vec<i64> = (0..400).collect();
        if reversed {
            items.reverse();
        }
        for i in items {
            w.storage.insert(w.rq, tuple![i, 1000 + i]).unwrap();
            w.storage.insert(w.rr, tuple![1000 + i, i % 17]).unwrap();
        }
        let result =
            propagate_with(&net, &w.catalog, &w.storage, CheckLevel::Strict, strategy).unwrap();
        per_differential(&result)
    };
    let reference = pass(false, ExecStrategy::Serial);
    assert!(reference.iter().any(|(_, _, accepted, _)| *accepted > 16));
    assert_eq!(
        reference,
        pass(false, ExecStrategy::Serial),
        "same Δ-set twice"
    );
    assert_eq!(
        reference,
        pass(true, ExecStrategy::Serial),
        "other write order"
    );
    assert_eq!(reference, pass(true, ExecStrategy::Parallel), "on threads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Strict propagation == naive recomputation for every shape.
    #[test]
    fn incremental_equals_naive(
        shape in 0u8..7,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();

        w.storage.begin().unwrap();
        apply(&mut w, &ups);

        let result = propagate_with(&net, &w.catalog, &w.storage, CheckLevel::Strict, ExecStrategy::default()).unwrap();
        let truth = recompute_delta(&w.catalog, &w.storage, w.cond).unwrap();
        prop_assert_eq!(
            &result.condition_deltas[&w.cond], &truth,
            "shape {} diverged", shape
        );
    }

    /// Nervous propagation never misses a change (no under-reaction):
    /// real insertions ⊆ Δ₊, reported deletions ⊆ real deletions, and all
    /// real deletions are reported.
    #[test]
    fn nervous_never_under_reacts(
        shape in 0u8..7,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        apply(&mut w, &ups);
        let result = propagate_with(&net, &w.catalog, &w.storage, CheckLevel::Nervous, ExecStrategy::default()).unwrap();
        let truth = recompute_delta(&w.catalog, &w.storage, w.cond).unwrap();
        let got = &result.condition_deltas[&w.cond];

        for t in truth.plus() {
            prop_assert!(got.plus().contains(t), "missed insertion {t} (shape {shape})");
        }
        for t in truth.minus() {
            prop_assert!(got.minus().contains(t), "missed deletion {t} (shape {shape})");
        }
        // The mandatory check: every reported deletion is real.
        for t in got.minus() {
            prop_assert!(truth.minus().contains(t), "false deletion {t} (shape {shape})");
        }
    }

    /// Parallel wave-front execution is an implementation detail: for
    /// every condition shape, every §7.2 check level, and random update
    /// batches, the serial and parallel strategies produce identical
    /// condition Δ-sets (and identical work counters — same candidates,
    /// same rejections — since the merge replays serial order). `bulk`
    /// decides which side of the inline threshold the parallel pass runs
    /// on: without it every level is inline, with it level 0 is threaded.
    #[test]
    fn serial_and_parallel_agree_under_all_check_levels(
        shape in 0u8..7,
        bulk in any::<bool>(),
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        apply(&mut w, &ups);
        if bulk {
            apply_bulk(&mut w);
        }
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            let serial = propagate_with(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial,
            ).unwrap();
            let parallel = propagate_with(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Parallel,
            ).unwrap();
            prop_assert_eq!(
                &serial.condition_deltas, &parallel.condition_deltas,
                "Δ-sets diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                serial.metrics.candidates, parallel.metrics.candidates,
                "candidate counts diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                serial.metrics.rejected, parallel.metrics.rejected,
                "rejection counts diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(
                fired_order(&serial), fired_order(&parallel),
                "fired order diverged (shape {}, check {:?})", shape, check
            );
            prop_assert!(serial.metrics.levels.iter().all(|l| !l.parallel));
            if bulk {
                prop_assert!(
                    parallel.metrics.levels[0].parallel,
                    "bulk wave ran inline (shape {}, check {:?})", shape, check
                );
            } else {
                prop_assert!(
                    parallel.metrics.levels.iter().all(|l| !l.parallel),
                    "small wave spawned threads (shape {}, check {:?})", shape, check
                );
            }
        }
    }

    /// The old-state view used during propagation is consistent: a
    /// rolled-back transaction leaves the condition's full evaluation
    /// exactly where it started.
    #[test]
    fn rollback_restores_condition(
        shape in 0u8..7,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let before: HashSet<Tuple> =
            amos_core::naive::full_eval(&w.catalog, &w.storage, w.cond).unwrap();
        w.storage.begin().unwrap();
        apply(&mut w, &ups);
        w.storage.rollback().unwrap();
        let after: HashSet<Tuple> =
            amos_core::naive::full_eval(&w.catalog, &w.storage, w.cond).unwrap();
        prop_assert_eq!(before, after);
    }
}

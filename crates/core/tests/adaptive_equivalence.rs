//! Adaptive planning is an optimization, not a semantics change: for
//! random databases, condition shapes, and update transactions, the
//! statistics-driven planner (cardinality-aware literal ordering, plan
//! cache with fingerprint-drift re-optimization, Δ-set index probes)
//! produces condition Δ-sets identical to the static activation-time
//! plans — under every §7.2 check level and both execution strategies.
//! Where cardinalities are skewed it does a thousandth of the static
//! plans' work, held here as exact probe, replan and cache-hit counts.

use std::sync::Arc;

use amos_core::adaptive::AdaptivePlanner;
use amos_core::network::PropagationNetwork;
use amos_core::propagate::{
    propagate_adaptive, propagate_with, recompute_delta, CheckLevel, ExecStrategy,
    PropagationResult, INLINE_WAVE_THRESHOLD,
};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_objectlog::eval::EvalShared;
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

/// Same shape zoo as `proptest_equivalence`: join, selection+arith,
/// negation, disjunction, bushy, self-join, cartesian product over q/2
/// and r/2.
fn build_world(shape: u8, q0: &[Tuple], r0: &[Tuple]) -> World {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();

    let cond = match shape % 7 {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adaptive ≡ static condition Δ-sets for every shape, every check
    /// level, and both execution strategies — with one long-lived
    /// planner across all six combinations, so later combinations run
    /// against a warm (possibly drifted) plan cache.
    #[test]
    fn adaptive_equals_static_under_all_checks_and_strategies(
        shape in 0u8..7,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        w.storage.begin().unwrap();
        apply(&mut w, &ups);

        let planner = AdaptivePlanner::new();
        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
                let fixed = propagate_with(
                    &net, &w.catalog, &w.storage, check, strategy,
                ).unwrap();
                let adaptive = propagate_adaptive(
                    &net, &w.catalog, &w.storage, check, strategy,
                    &Arc::new(EvalShared::default()), Some(&planner),
                ).unwrap();
                prop_assert_eq!(
                    &fixed.condition_deltas, &adaptive.condition_deltas,
                    "adaptive diverged from static (shape {}, check {:?}, strategy {:?})",
                    shape, check, strategy
                );
                prop_assert_eq!(
                    fixed.candidates, adaptive.candidates,
                    "candidate counts diverged (shape {}, check {:?}, strategy {:?})",
                    shape, check, strategy
                );
            }
        }
    }

    /// Adaptive serial ≡ adaptive parallel: plan resolution happens
    /// sequentially before the batch, so the planner does not break the
    /// §5 determinism guarantee — Δ-sets, counters, and fired order all
    /// match, and each strategy resolves the same plans (same replan /
    /// cache-hit totals from identical warm planners). `bulk` decides
    /// which side of the inline threshold the parallel pass runs on.
    #[test]
    fn adaptive_serial_and_parallel_agree(
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
            let serial_planner = AdaptivePlanner::new();
            let parallel_planner = AdaptivePlanner::new();
            let serial = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Serial,
                &Arc::new(EvalShared::default()), Some(&serial_planner),
            ).unwrap();
            let parallel = propagate_adaptive(
                &net, &w.catalog, &w.storage, check, ExecStrategy::Parallel,
                &Arc::new(EvalShared::default()), Some(&parallel_planner),
            ).unwrap();
            prop_assert_eq!(
                &serial.condition_deltas, &parallel.condition_deltas,
                "Δ-sets diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(serial.metrics.candidates, parallel.metrics.candidates);
            prop_assert_eq!(serial.metrics.rejected, parallel.metrics.rejected);
            prop_assert_eq!(fired_order(&serial), fired_order(&parallel));
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
            prop_assert_eq!(
                serial_planner.replan_count(), parallel_planner.replan_count(),
                "replan counts diverged (shape {}, check {:?})", shape, check
            );
            prop_assert_eq!(serial_planner.hit_count(), parallel_planner.hit_count());
        }
    }

    /// Multi-pass adaptive monitoring stays exact while the data (and
    /// therefore the statistics fingerprints) drift across committed
    /// transactions: each pass's strict adaptive Δ equals the naive
    /// recomputation diff, with one planner per strategy reused
    /// throughout — and the serial and parallel planners make the very
    /// same replan / cache-hit decisions, mid-stream re-optimizations
    /// included. `bulk` grows q past the drift ratio in the first batch,
    /// on the threaded side of the inline threshold.
    #[test]
    fn adaptive_stays_exact_across_drifting_passes(
        shape in 0u8..7,
        bulk in any::<bool>(),
        q0 in tuples(),
        r0 in tuples(),
        batches in prop::collection::vec(updates(), 1..4),
    ) {
        let mut w = build_world(shape, &q0, &r0);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.cond]).unwrap();
        let serial_planner = AdaptivePlanner::new();
        let parallel_planner = AdaptivePlanner::new();
        let serial_shared = Arc::new(EvalShared::default());
        let parallel_shared = Arc::new(EvalShared::default());

        for (i, ups) in batches.iter().enumerate() {
            w.storage.begin().unwrap();
            apply(&mut w, ups);
            let threaded = bulk && i == 0;
            if threaded {
                apply_bulk(&mut w);
            }
            serial_shared.reset_pass();
            parallel_shared.reset_pass();
            let serial = propagate_adaptive(
                &net, &w.catalog, &w.storage, CheckLevel::Strict,
                ExecStrategy::Serial, &serial_shared, Some(&serial_planner),
            ).unwrap();
            let parallel = propagate_adaptive(
                &net, &w.catalog, &w.storage, CheckLevel::Strict,
                ExecStrategy::Parallel, &parallel_shared, Some(&parallel_planner),
            ).unwrap();
            prop_assert_eq!(&serial.condition_deltas, &parallel.condition_deltas);
            prop_assert_eq!(serial.metrics.candidates, parallel.metrics.candidates);
            prop_assert_eq!(serial.metrics.rejected, parallel.metrics.rejected);
            prop_assert_eq!(fired_order(&serial), fired_order(&parallel));
            prop_assert_eq!(
                parallel.metrics.levels.first().is_some_and(|l| l.parallel), threaded,
                "pass {} ran on the wrong side of the threshold (shape {})", i, shape
            );
            let truth = recompute_delta(&w.catalog, &w.storage, w.cond).unwrap();
            prop_assert_eq!(
                &parallel.condition_deltas[&w.cond], &truth,
                "adaptive pass diverged from naive diff (shape {})", shape
            );
            w.storage.commit().unwrap();
        }
        prop_assert_eq!(
            serial_planner.replan_count(), parallel_planner.replan_count(),
            "replan counts diverged (shape {})", shape
        );
        prop_assert_eq!(serial_planner.hit_count(), parallel_planner.hit_count());
    }
}

/// Rows of `big` in the skew scenario, spread over [`GROUPS`] groups.
const BIG_ROWS: i64 = 20_000;
/// Groups in `big`: its first column's NDV.
const GROUPS: i64 = 10;
/// Δ-tuples inserted into `s` per skew transaction.
const DELTA_K: i64 = 8;

/// Adaptive planning where it matters, as counts. `p(X) ← s(X,G) ∧
/// big(G,Y) ∧ pick(X,Y)`: after a `Δ₊s` seed binds `X` and `G`, both
/// remaining literals are index probes. The static cost model ties them
/// and takes textual order, fanning out through `big`'s 2 000 rows per
/// group before `pick` closes the join; the statistics-backed estimator
/// ranks the functional `pick` first and the differential becomes
/// probe-then-lookup — two probes per Δ-tuple. Plans resolve once per
/// Δ-polarity, and every later pass is a fingerprint-stable cache hit.
#[test]
fn adaptive_planning_probes_the_functional_literal_first_on_skew() {
    let mut storage = Storage::new();
    let rs = storage.create_relation("s", 2).unwrap();
    let rbig = storage.create_relation("big", 2).unwrap();
    let rpick = storage.create_relation("pick", 2).unwrap();
    let mut catalog = Catalog::new();
    let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
    let big = catalog.define_stored("big", sig(2), rbig, 1).unwrap();
    let pick = catalog.define_stored("pick", sig(2), rpick, 1).unwrap();
    let cond = catalog
        .define_derived(
            "p",
            sig(1),
            vec![ClauseBuilder::new(3)
                .head([Term::var(0)])
                .pred(s, [Term::var(0), Term::var(1)])
                .pred(big, [Term::var(1), Term::var(2)])
                .pred(pick, [Term::var(0), Term::var(2)])
                .build()],
        )
        .unwrap();
    let fanout = BIG_ROWS / GROUPS;
    for g in 0..GROUPS {
        for y in 0..fanout {
            storage.insert(rbig, tuple![g, y]).unwrap();
        }
    }
    for x in 0..1_000 {
        storage.insert(rpick, tuple![x, x % fanout]).unwrap();
    }
    for rel in [rs, rbig, rpick] {
        storage.monitor(rel);
    }
    let net = PropagationNetwork::build(&catalog, &mut storage, &[cond]).unwrap();

    // One pass: insert `batch` into `s`, propagate, roll back.
    let mut pass = |batch: i64, shared: &Arc<EvalShared>, planner: Option<&AdaptivePlanner>| {
        storage.begin().unwrap();
        for i in 0..DELTA_K {
            let x = batch * DELTA_K + i;
            storage.insert(rs, tuple![x % 1_000, x % GROUPS]).unwrap();
        }
        shared.reset_pass();
        let result = propagate_adaptive(
            &net,
            &catalog,
            &storage,
            CheckLevel::Nervous,
            ExecStrategy::Parallel,
            shared,
            planner,
        )
        .unwrap();
        storage.rollback().unwrap();
        result
    };

    let (static_shared, adaptive_shared) = (Arc::default(), Arc::default());
    let planner = AdaptivePlanner::new();
    // A warm-up pass on the first batch: both plans monitor identically.
    let fixed = pass(0, &static_shared, None);
    let adaptive = pass(0, &adaptive_shared, Some(&planner));
    assert_eq!(fixed.condition_deltas, adaptive.condition_deltas);
    for batch in 0..9 {
        pass(batch, &static_shared, None);
        pass(batch, &adaptive_shared, Some(&planner));
    }
    let fixed = pass(9, &static_shared, None).metrics;
    let adaptive = pass(9, &adaptive_shared, Some(&planner)).metrics;
    assert_eq!((planner.replan_count(), planner.hit_count()), (2, 20));
    assert_eq!(adaptive.probes, (DELTA_K * 2) as u64);
    // Static: one `big` probe per Δ-tuple, then one `pick` probe per row
    // of its group.
    assert_eq!(fixed.probes, (DELTA_K * (1 + fanout)) as u64);
    assert!(fixed.probes >= 100 * adaptive.probes);
}

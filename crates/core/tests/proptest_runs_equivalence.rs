//! Sorted-run storage is invisible to monitoring.
//!
//! A [`Storage`] with an aggressive seal threshold keeps base data in
//! immutable sorted runs (spilling and compacting every few inserts,
//! tombstoning deletes); one with `usize::MAX` keeps everything in the
//! hash head. For random condition shapes and update transactions the
//! propagated condition Δ-sets, the work counters, and the fired order
//! must be bit-identical between the two layouts across every §7.2
//! check level × execution strategy.

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, CheckLevel, ExecStrategy, PropagationResult};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, Tuple, TypeId};
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

/// q/2, r/2, and a condition of the given shape. `seal_threshold`
/// applies from the first insert, so the initial contents (not just the
/// transaction Δ) live in runs.
fn build_world(shape: u8, seal_threshold: usize, q0: &[Tuple], r0: &[Tuple]) -> World {
    let mut storage = Storage::new();
    storage.set_seal_threshold(seal_threshold);
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();

    let cond = match shape % 3 {
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
        // negation: p(X,Y) ← q(X,Y) ∧ ¬r(X,Y) — exercises old-state
        // views over run-resident tombstoned data
        1 => catalog
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
        // bushy: mid(X,Z) ← q(X,Y) ∧ r(Y,Z); p(X) ← mid(X,Z) ∧ q(Z,_)
        _ => {
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
                    vec![ClauseBuilder::new(3)
                        .head([Term::var(0)])
                        .pred(mid, [Term::var(0), Term::var(1)])
                        .pred(q, [Term::var(1), Term::var(2)])
                        .build()],
                )
                .unwrap()
        }
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

fn fired_diffs(r: &PropagationResult) -> Vec<amos_core::differ::DiffId> {
    r.fired.iter().map(|f| f.diff).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Check summaries are bit-identical between run-resident and
    /// hash-resident storage, for every check level × strategy.
    #[test]
    fn runs_and_hash_storage_monitor_identically(
        shape in 0u8..3,
        threshold in 1usize..6,
        q0 in tuples(),
        r0 in tuples(),
        ups in updates(),
    ) {
        let mut lsm = build_world(shape, threshold, &q0, &r0);
        let mut hash = build_world(shape, usize::MAX, &q0, &r0);

        let lsm_net = PropagationNetwork::build(&lsm.catalog, &mut lsm.storage, &[lsm.cond]).unwrap();
        let hash_net = PropagationNetwork::build(&hash.catalog, &mut hash.storage, &[hash.cond]).unwrap();

        for w in [&mut lsm, &mut hash] {
            w.storage.begin().unwrap();
        }
        for (on_q, is_insert, t) in &ups {
            for w in [&mut lsm, &mut hash] {
                let rel = if *on_q { w.rq } else { w.rr };
                if *is_insert {
                    w.storage.insert(rel, t.clone()).unwrap();
                } else {
                    w.storage.delete(rel, t).unwrap();
                }
            }
        }

        for check in [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict] {
            for strat in [ExecStrategy::Serial, ExecStrategy::Parallel] {
                let a = propagate_with(
                    &lsm_net, &lsm.catalog, &lsm.storage, check, strat,
                ).unwrap();
                let b = propagate_with(
                    &hash_net, &hash.catalog, &hash.storage, check, strat,
                ).unwrap();
                prop_assert_eq!(
                    &a.condition_deltas, &b.condition_deltas,
                    "Δ-sets diverged (shape {}, thr {}, {:?}/{:?})",
                    shape, threshold, check, strat
                );
                prop_assert_eq!(
                    a.metrics.candidates, b.metrics.candidates,
                    "candidates diverged (shape {}, thr {}, {:?}/{:?})",
                    shape, threshold, check, strat
                );
                prop_assert_eq!(
                    a.metrics.rejected, b.metrics.rejected,
                    "rejections diverged (shape {}, thr {}, {:?}/{:?})",
                    shape, threshold, check, strat
                );
                prop_assert_eq!(
                    fired_diffs(&a), fired_diffs(&b),
                    "fired order diverged (shape {}, thr {}, {:?}/{:?})",
                    shape, threshold, check, strat
                );
            }
        }

        // Rolling back run-resident state restores the pre-transaction
        // contents exactly, tombstones and all.
        for w in [&mut lsm, &mut hash] {
            w.storage.rollback().unwrap();
        }
        for rel in [lsm.rq, lsm.rr] {
            let mut a: Vec<Tuple> = lsm.storage.relation(rel).scan().cloned().collect();
            let mut b: Vec<Tuple> = hash.storage.relation(rel).scan().cloned().collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b, "post-rollback contents diverged");
        }
    }
}

//! Linear recursion through the propagation network (§5 note 1):
//! transitive closure (`reach`) monitored incrementally — semi-naive
//! closure for insertions, exact recompute fallback for deletions —
//! always matching naive recomputation.

use amos_types::FxHashSet as HashSet;

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, recompute_delta, CheckLevel, ExecStrategy};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, Tuple, TypeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

struct World {
    storage: Storage,
    catalog: Catalog,
    re: RelId,
    reach: PredId,
}

/// reach(X,Y) ← edge(X,Y) ; reach(X,Y) ← reach(X,Z) ∧ edge(Z,Y)
fn world(edges: &[(i64, i64)]) -> World {
    let mut storage = Storage::new();
    let re = storage.create_relation("edge", 2).unwrap();
    let mut catalog = Catalog::new();
    let edge = catalog.define_stored("edge", sig(2), re, 1).unwrap();
    let reach = catalog.define_derived("reach", sig(2), vec![]).unwrap();
    catalog
        .replace_clauses(
            reach,
            vec![
                ClauseBuilder::new(2)
                    .head([Term::var(0), Term::var(1)])
                    .pred(edge, [Term::var(0), Term::var(1)])
                    .build(),
                ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(reach, [Term::var(0), Term::var(1)])
                    .pred(edge, [Term::var(1), Term::var(2)])
                    .build(),
            ],
        )
        .unwrap();
    for &(a, b) in edges {
        storage.insert(re, tuple![a, b]).unwrap();
    }
    storage.monitor(re);
    World {
        storage,
        catalog,
        re,
        reach,
    }
}

#[test]
fn inserting_an_edge_extends_closure_incrementally() {
    let mut w = world(&[(1, 2), (3, 4)]);
    let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.reach]).unwrap();
    // The recursive node carries self-differentials.
    let self_edges = net
        .differentials()
        .iter()
        .filter(|d| d.affected == w.reach && d.influent == w.reach)
        .count();
    assert!(self_edges > 0, "self-differentials exist");

    w.storage.begin().unwrap();
    // Bridge the two components: 2 → 3 adds 1→3, 1→4, 2→3, 2→4.
    w.storage.insert(w.re, tuple![2, 3]).unwrap();
    let result = propagate_with(
        &net,
        &w.catalog,
        &w.storage,
        CheckLevel::Strict,
        ExecStrategy::default(),
    )
    .unwrap();
    let truth = recompute_delta(&w.catalog, &w.storage, w.reach).unwrap();
    assert_eq!(&result.condition_deltas[&w.reach], &truth);
    let expected: HashSet<Tuple> = [tuple![2, 3], tuple![2, 4], tuple![1, 3], tuple![1, 4]]
        .into_iter()
        .collect();
    assert_eq!(truth.plus(), &expected);
    assert!(truth.minus().is_empty());
}

#[test]
fn deleting_an_edge_falls_back_to_exact_recompute() {
    let mut w = world(&[(1, 2), (2, 3), (3, 4)]);
    let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.reach]).unwrap();
    w.storage.begin().unwrap();
    // Cut the chain in the middle: everything crossing 2→3 disappears.
    w.storage.delete(w.re, &tuple![2, 3]).unwrap();
    let result = propagate_with(
        &net,
        &w.catalog,
        &w.storage,
        CheckLevel::Strict,
        ExecStrategy::default(),
    )
    .unwrap();
    let truth = recompute_delta(&w.catalog, &w.storage, w.reach).unwrap();
    assert_eq!(&result.condition_deltas[&w.reach], &truth);
    let expected: HashSet<Tuple> = [tuple![2, 3], tuple![2, 4], tuple![1, 3], tuple![1, 4]]
        .into_iter()
        .collect();
    assert_eq!(truth.minus(), &expected);
}

#[test]
fn cycle_creation_terminates_and_is_exact() {
    let mut w = world(&[(1, 2), (2, 3)]);
    let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.reach]).unwrap();
    w.storage.begin().unwrap();
    w.storage.insert(w.re, tuple![3, 1]).unwrap(); // close the cycle
    let result = propagate_with(
        &net,
        &w.catalog,
        &w.storage,
        CheckLevel::Strict,
        ExecStrategy::default(),
    )
    .unwrap();
    let truth = recompute_delta(&w.catalog, &w.storage, w.reach).unwrap();
    assert_eq!(&result.condition_deltas[&w.reach], &truth);
    // All 9 pairs now reachable; 2 were already (1→2, 2→3), 1→3 too.
    assert_eq!(truth.plus().len(), 9 - 3);
}

/// Randomized equivalence: arbitrary edge insert/delete transactions on
/// a small node domain, incremental == recompute at every step.
#[test]
fn randomized_transactions_match_recompute() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut w = world(&[]);
    let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.reach]).unwrap();
    for _round in 0..30 {
        w.storage.begin().unwrap();
        for _ in 0..rng.gen_range(1..4) {
            let a = rng.gen_range(0..5i64);
            let b = rng.gen_range(0..5i64);
            if rng.gen_bool(0.65) {
                w.storage.insert(w.re, tuple![a, b]).unwrap();
            } else {
                w.storage.delete(w.re, &tuple![a, b]).unwrap();
            }
        }
        let result = propagate_with(
            &net,
            &w.catalog,
            &w.storage,
            CheckLevel::Strict,
            ExecStrategy::default(),
        )
        .unwrap();
        let truth = recompute_delta(&w.catalog, &w.storage, w.reach).unwrap();
        assert_eq!(&result.condition_deltas[&w.reach], &truth);
        w.storage.commit().unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property form: one random transaction over a random initial graph.
    #[test]
    fn proptest_incremental_equals_recompute(
        init in prop::collection::vec((0i64..5, 0i64..5), 0..8),
        ups in prop::collection::vec((any::<bool>(), 0i64..5, 0i64..5), 1..6),
    ) {
        let edges: Vec<(i64, i64)> = init;
        let mut w = world(&edges);
        let net = PropagationNetwork::build(&w.catalog, &mut w.storage, &[w.reach]).unwrap();
        w.storage.begin().unwrap();
        for (insert, a, b) in ups {
            if insert {
                w.storage.insert(w.re, tuple![a, b]).unwrap();
            } else {
                w.storage.delete(w.re, &tuple![a, b]).unwrap();
            }
        }
        let result = propagate_with(&net, &w.catalog, &w.storage, CheckLevel::Strict, ExecStrategy::default()).unwrap();
        let truth = recompute_delta(&w.catalog, &w.storage, w.reach).unwrap();
        prop_assert_eq!(&result.condition_deltas[&w.reach], &truth);
    }
}

/// A rule over the recursive predicate, end to end through the manager.
#[test]
fn rule_over_transitive_closure() {
    use amos_core::rules::{ActionFn, RuleManager, RuleSemantics};
    use std::sync::{Arc, Mutex};

    let mut w = world(&[(1, 2)]);
    // cnd(X,Y) ← reach(X,Y): fires whenever a new pair becomes reachable.
    let cnd = w
        .catalog
        .define_derived(
            "cnd_connected",
            sig(2),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0), Term::var(1)])
                .pred(w.reach, [Term::var(0), Term::var(1)])
                .build()],
        )
        .unwrap();
    let mut mgr = RuleManager::new();
    let log: Arc<Mutex<Vec<Tuple>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = log.clone();
    let action: ActionFn = Arc::new(move |_ctx, t| {
        sink.lock().unwrap().push(t.clone());
        Ok(())
    });
    let rid = mgr
        .define_rule("connected", cnd, 0, action, 0, RuleSemantics::Strict)
        .unwrap();
    mgr.activate(rid, Tuple::unit(), &w.catalog, &mut w.storage)
        .unwrap();

    w.storage.begin().unwrap();
    w.storage.insert(w.re, tuple![2, 3]).unwrap();
    mgr.check_phase(&w.catalog, &mut w.storage).unwrap();
    let mut fired = log.lock().unwrap().clone();
    fired.sort();
    // New reachable pairs: (1,3) and (2,3).
    assert_eq!(fired, vec![tuple![1, 3], tuple![2, 3]]);
}

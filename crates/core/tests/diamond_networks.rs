//! Propagation through non-trivial network shapes: diamonds (one base
//! relation feeding two intermediate views that reconverge), negation
//! between levels, and three-level chains. The breadth-first bottom-up
//! order must deliver *complete* Δ-sets to every node before its
//! out-edges fire — these shapes are where a wrong order would show.

mod common;

use amos_types::FxHashSet as HashSet;

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, recompute_delta, CheckLevel, ExecStrategy};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, CmpOp, TypeId};

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

struct Diamond {
    storage: Storage,
    catalog: Catalog,
    rq: RelId,
    top: PredId,
}

/// q feeds `cheap` and `pricey`, which reconverge in `both`:
///
/// ```text
///        both(X) ← cheap(X) ∧ pricey(X)
///        /                        \
///   cheap(X) ← q(X,V) ∧ V < 50   pricey(X) ← q(X,V) ∧ V > 10
///        \                        /
///                 q(X, V)
/// ```
fn diamond() -> Diamond {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let cheap = catalog
        .define_derived(
            "cheap",
            sig(1),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .cmp(Term::var(1), CmpOp::Lt, Term::val(50))
                .build()],
        )
        .unwrap();
    let pricey = catalog
        .define_derived(
            "pricey",
            sig(1),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0)])
                .pred(q, [Term::var(0), Term::var(1)])
                .cmp(Term::var(1), CmpOp::Gt, Term::val(10))
                .build()],
        )
        .unwrap();
    let top = catalog
        .define_derived(
            "both",
            sig(1),
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(cheap, [Term::var(0)])
                .pred(pricey, [Term::var(0)])
                .build()],
        )
        .unwrap();
    storage.monitor(rq);
    Diamond {
        storage,
        catalog,
        rq,
        top,
    }
}

#[test]
fn diamond_reconvergence_is_exact() {
    let mut d = diamond();
    // Seed data: 1 in both bands, 2 cheap only, 3 pricey only.
    d.storage.insert(d.rq, tuple![1, 30]).unwrap();
    d.storage.insert(d.rq, tuple![2, 5]).unwrap();
    d.storage.insert(d.rq, tuple![3, 80]).unwrap();
    let net = PropagationNetwork::build(&d.catalog, &mut d.storage, &[d.top]).unwrap();
    assert_eq!(net.levels().len(), 3, "q / {{cheap,pricey}} / both");

    // Move 2 into the overlap, 1 out of it, add 4 in the overlap —
    // changes travel both diamond arms and must reconverge exactly once.
    d.storage.begin().unwrap();
    d.storage.delete(d.rq, &tuple![2, 5]).unwrap();
    d.storage.insert(d.rq, tuple![2, 20]).unwrap();
    d.storage.delete(d.rq, &tuple![1, 30]).unwrap();
    d.storage.insert(d.rq, tuple![1, 90]).unwrap();
    d.storage.insert(d.rq, tuple![4, 25]).unwrap();

    let got = common::strict_pass(&net, &d.catalog, &d.storage, d.top);
    let truth = recompute_delta(&d.catalog, &d.storage, d.top).unwrap();
    assert_eq!(got, truth);
    assert_eq!(
        truth.plus(),
        &[tuple![2], tuple![4]].into_iter().collect::<HashSet<_>>()
    );
    assert_eq!(truth.minus(), &[tuple![1]].into_iter().collect());
}

#[test]
fn diamond_no_double_counting_under_nervous() {
    let mut d = diamond();
    d.storage.insert(d.rq, tuple![7, 5]).unwrap();
    let net = PropagationNetwork::build(&d.catalog, &mut d.storage, &[d.top]).unwrap();
    d.storage.begin().unwrap();
    // 7 moves into the overlap: both arms report +7 to `both`; the ∪Δ
    // accumulation must merge them into one insertion.
    d.storage.delete(d.rq, &tuple![7, 5]).unwrap();
    d.storage.insert(d.rq, tuple![7, 20]).unwrap();
    let result = propagate_with(
        &net,
        &d.catalog,
        &d.storage,
        CheckLevel::Nervous,
        ExecStrategy::default(),
    )
    .unwrap();
    let delta = &result.condition_deltas[&d.top];
    assert_eq!(delta.plus(), &[tuple![7]].into_iter().collect());
    assert!(delta.minus().is_empty());
}

/// Negation at the top of a two-level network: `gap(X) ← cheap(X) ∧
/// ¬pricey(X)` — a deletion from `pricey` (driven by a base update)
/// inserts into `gap` through a flipped-polarity differential against an
/// intermediate node.
#[test]
fn negation_over_intermediate_nodes() {
    let mut d = diamond();
    let cheap = d.catalog.lookup("cheap").unwrap();
    let pricey = d.catalog.lookup("pricey").unwrap();
    let gap = d
        .catalog
        .define_derived(
            "gap",
            sig(1),
            vec![ClauseBuilder::new(1)
                .head([Term::var(0)])
                .pred(cheap, [Term::var(0)])
                .not_pred(pricey, [Term::var(0)])
                .build()],
        )
        .unwrap();
    d.storage.insert(d.rq, tuple![1, 30]).unwrap(); // cheap ∧ pricey → not in gap
    let net = PropagationNetwork::build(&d.catalog, &mut d.storage, &[gap]).unwrap();

    d.storage.begin().unwrap();
    // 30 → 5: still cheap, stops being pricey ⇒ enters the gap.
    d.storage.delete(d.rq, &tuple![1, 30]).unwrap();
    d.storage.insert(d.rq, tuple![1, 5]).unwrap();
    let got = common::strict_pass(&net, &d.catalog, &d.storage, gap);
    let truth = recompute_delta(&d.catalog, &d.storage, gap).unwrap();
    assert_eq!(got, truth);
    assert_eq!(truth.plus(), &[tuple![1]].into_iter().collect());

    // And back out of the gap via the other side.
    d.storage.clear_deltas();
    d.storage.delete(d.rq, &tuple![1, 5]).unwrap();
    d.storage.insert(d.rq, tuple![1, 30]).unwrap();
    let got = common::strict_pass(&net, &d.catalog, &d.storage, gap);
    let truth = recompute_delta(&d.catalog, &d.storage, gap).unwrap();
    assert_eq!(got, truth);
    assert_eq!(truth.minus(), &[tuple![1]].into_iter().collect());
}

/// Three-level chain: base → v1 → v2 → v3 (condition). Levels must be
/// processed strictly bottom-up.
#[test]
fn three_level_chain() {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let level_up = |catalog: &mut Catalog, name: &str, below: PredId| {
        catalog
            .define_derived(
                name,
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(below, [Term::var(0), Term::var(1)])
                    .arith(
                        Term::var(2),
                        Term::var(1),
                        amos_types::ArithOp::Add,
                        Term::val(1),
                    )
                    .build()],
            )
            .unwrap()
    };
    let v1 = level_up(&mut catalog, "v1", q);
    let v2 = level_up(&mut catalog, "v2", v1);
    let v3 = level_up(&mut catalog, "v3", v2);
    storage.monitor(rq);
    storage.insert(rq, tuple![1, 10]).unwrap();

    let net = PropagationNetwork::build(&catalog, &mut storage, &[v3]).unwrap();
    assert_eq!(net.levels().len(), 4);

    storage.begin().unwrap();
    storage.delete(rq, &tuple![1, 10]).unwrap();
    storage.insert(rq, tuple![1, 20]).unwrap();
    let got = common::strict_pass(&net, &catalog, &storage, v3);
    let truth = recompute_delta(&catalog, &storage, v3).unwrap();
    assert_eq!(got, truth);
    assert_eq!(truth.plus(), &[tuple![1, 23]].into_iter().collect());
    assert_eq!(truth.minus(), &[tuple![1, 13]].into_iter().collect());
}

//! Criterion benches for **fig. 4**: per-operator incremental delta
//! evaluation vs naive recomputation, at the relational-algebra level.
//!
//! For each operator row of fig. 4 we build two base relations of `n`
//! tuples, apply a small update (one insert + one delete per relation),
//! and compare:
//!
//! * `differential` — evaluate the fig. 4 partial differentials with
//!   Strict correction (exact delta);
//! * `recompute` — evaluate the operator in both states and diff.
//!
//! The differential side should be ~independent of `n` for selective
//! operators, while recomputation is Ω(n).

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use amos_algebra::diff::{delta_from_differentials, diff_expr, recompute_delta, Correction};
use amos_algebra::predicate::CmpOp;
use amos_algebra::{AlgebraDb, Predicate, RelExpr};
use amos_objectlog::eval::{DeltaMap, EvalContext, EvalShared};
use amos_objectlog::{Catalog, ClauseBuilder, PredId, Term};
use amos_storage::{BaseRelation, StateEpoch, Storage};
use amos_types::hash::FxHasher;
use amos_types::{tuple, Tuple, TypeId, Value};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn make_db(n: i64) -> AlgebraDb {
    let mut db = AlgebraDb::new();
    db.set_relation("q", (0..n).map(|i| tuple![i, i % 10]));
    db.set_relation("r", (0..n).map(|i| tuple![i % 10, i]));
    // A small update: one insert and one delete on each side.
    db.insert("q", tuple![n + 1, 3]);
    db.delete("q", &tuple![0, 0]);
    db.insert("r", tuple![3, n + 1]);
    db.delete("r", &tuple![0, 0]);
    db
}

fn operators() -> Vec<(&'static str, RelExpr)> {
    let q = || Box::new(RelExpr::rel("q", 2));
    let r = || Box::new(RelExpr::rel("r", 2));
    vec![
        (
            "select",
            RelExpr::Select(q(), Predicate::col_const(1, CmpOp::Lt, 5)),
        ),
        ("project", RelExpr::Project(q(), vec![1])),
        ("union", RelExpr::Union(q(), r())),
        ("diff", RelExpr::Diff(q(), r())),
        ("join", RelExpr::Join(q(), r(), vec![(1, 0)])),
        ("intersect", RelExpr::Intersect(q(), r())),
    ]
}

fn bench_operators(c: &mut Criterion) {
    for (name, expr) in operators() {
        let mut group = c.benchmark_group(format!("fig4_{name}"));
        group.sample_size(20);
        for &n in &[100i64, 1_000] {
            let db = make_db(n);
            let diffs = diff_expr(&expr);
            group.bench_with_input(BenchmarkId::new("differential", n), &n, |b, _| {
                b.iter(|| delta_from_differentials(&expr, &diffs, &db, Correction::Strict));
            });
            group.bench_with_input(BenchmarkId::new("recompute", n), &n, |b, _| {
                b.iter(|| recompute_delta(&expr, &db));
            });
        }
        group.finish();
    }
}

/// Hot-path primitive: cloning and hashing interned [`Tuple`]s. A clone
/// is two atomic refcount bumps (values `Arc` + cached fingerprint copy)
/// and a hash writes the precomputed fingerprint — both should be
/// independent of tuple width.
fn bench_tuple_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuple");
    group.sample_size(20);
    for &width in &[2usize, 8, 32] {
        let tuples: Vec<Tuple> = (0..1_000i64)
            .map(|i| {
                Tuple::new(
                    (0..width)
                        .map(|j| Value::Int(i + j as i64))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::new("clone_1000", width), &width, |b, _| {
            b.iter(|| {
                let copies: Vec<Tuple> = tuples.clone();
                black_box(copies)
            });
        });
        group.bench_with_input(BenchmarkId::new("hash_1000", width), &width, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for t in &tuples {
                    let mut h = FxHasher::default();
                    t.hash(&mut h);
                    acc ^= h.finish();
                }
                black_box(acc)
            });
        });
    }
    group.finish();
}

/// Index-backed point probes against a stored relation — the
/// `stored_matches` fast path that replaced full scans.
fn bench_indexed_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("indexed_probe");
    group.sample_size(20);
    for &n in &[1_000i64, 10_000] {
        let mut rel = BaseRelation::new("q", 2);
        for i in 0..n {
            rel.insert(tuple![i, i % 10]);
        }
        rel.ensure_index(&[0]);
        group.bench_with_input(BenchmarkId::new("probe_1000", n), &n, |b, _| {
            b.iter(|| {
                let mut found = 0usize;
                for i in 0..1_000i64 {
                    found += rel.probe(&[0], &[Value::Int((i * 7) % n)]).len();
                }
                black_box(found)
            });
        });
    }
    group.finish();
}

/// One simulated propagation pass issuing the same derived call many
/// times — k differentials all referencing an unchanged shared node.
struct DerivedWorld {
    storage: Storage,
    catalog: Catalog,
    wrapper: PredId,
}

fn derived_world(n: i64) -> DerivedWorld {
    let mut storage = Storage::new();
    let rq = storage.create_relation("q", 2).unwrap();
    let rr = storage.create_relation("r", 2).unwrap();
    // One-to-one join (|p| = n) so the bench measures call sharing,
    // not result-set blowup; index the join column so the plan probes
    // instead of rescanning.
    for i in 0..n {
        storage.insert(rq, tuple![i, (i * 7) % n]).unwrap();
        storage.insert(rr, tuple![i, i + 1_000_000]).unwrap();
    }
    storage.ensure_index(rr, &[0]);
    storage.ensure_index(rq, &[0]);
    let sig = |k: usize| vec![TypeId(0); k];
    let mut catalog = Catalog::new();
    let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
    let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
    let p = catalog
        .define_derived(
            "p",
            sig(2),
            vec![ClauseBuilder::new(3)
                .head([Term::var(0), Term::var(2)])
                .pred(q, [Term::var(0), Term::var(1)])
                .pred(r, [Term::var(1), Term::var(2)])
                .build()],
        )
        .unwrap();
    // Wrapper keeps `p` as a PlanStep::Call instead of inlining it —
    // the bushy-network shape where tabling applies.
    let wrapper = catalog
        .define_derived(
            "w",
            sig(2),
            vec![ClauseBuilder::new(2)
                .head([Term::var(0), Term::var(1)])
                .pred(p, [Term::var(0), Term::var(1)])
                .build()],
        )
        .unwrap();
    DerivedWorld {
        storage,
        catalog,
        wrapper,
    }
}

/// Tabled vs untabled repeated derived calls: each iteration is one
/// "pass" (reset, then 16 identical calls through the wrapper). Tabling
/// computes the join once and serves 15 memo hits.
fn bench_tabled_calls(c: &mut Criterion) {
    let mut group = c.benchmark_group("derived_calls");
    group.sample_size(20);
    for &n in &[1_000i64, 10_000] {
        let world = derived_world(n);
        let deltas = DeltaMap::new();
        for (label, shared) in [
            ("tabled", EvalShared::default()),
            ("untabled", EvalShared::untabled()),
        ] {
            let shared = Arc::new(shared);
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_16calls"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        shared.reset_pass();
                        let ctx = EvalContext::with_shared(
                            &world.storage,
                            &world.catalog,
                            &deltas,
                            Arc::clone(&shared),
                        );
                        let mut total = 0usize;
                        for _ in 0..16 {
                            total += ctx
                                .eval_pred(world.wrapper, &[None, None], StateEpoch::New)
                                .unwrap()
                                .len();
                        }
                        black_box(total)
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_operators,
    bench_tuple_ops,
    bench_indexed_probe,
    bench_tabled_calls
);
criterion_main!(benches);

//! The per-probe cost of the read path, held as a count.
//!
//! A bulk differential used to allocate about fifty times per wave tuple:
//! a pattern `Vec`, bound-column and key `Vec`s, a key `Tuple`, a result
//! `Vec` and a unify trail around every hash lookup. The probe contract
//! (DESIGN.md §3) makes the path from bindings to index allocation-free —
//! borrowed keys, reused candidate buffers, one trail — and this test
//! keeps it that way: a propagation pass over the §3.1 inventory world
//! must allocate fewer times than it has wave tuples, so the only
//! allocations left are per pass, per differential and per *candidate*,
//! never per probe.
//!
//! Its own test binary: the counting allocator is process-wide, and the
//! one test here is the only thread allocating while the count runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, CheckLevel, ExecStrategy};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_storage::{RelId, Storage};
use amos_types::{tuple, ArithOp, CmpOp, TypeId, Value};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ITEMS: i64 = 1_000;
/// Items whose new quantity falls below their threshold.
const LOW: i64 = 10;

/// The §3.1 schema with `monitor_items`' condition in its flat form:
///
/// ```text
/// cnd(I) ← item(I) ∧ quantity(I,Q) ∧ consume_freq(I,C) ∧ supplies(S,I) ∧
///          supplier(S) ∧ delivery_time(I,S,D) ∧ P = C·D ∧ min_stock(I,M) ∧
///          T = P + M ∧ Q < T
/// ```
///
/// Item `i` is supplied by supplier `10_000 + i`, consumes 2 a day, is
/// delivered in 3 days and has a minimum stock of 10: threshold 16.
fn inventory() -> (Storage, Catalog, PredId, RelId, Vec<RelId>) {
    let mut storage = Storage::new();
    let mut cat = Catalog::new();
    let mut rels = Vec::new();
    let mut stored = |name: &str, arity: usize, key: usize| {
        let rel = storage.create_relation(name, arity).unwrap();
        rels.push(rel);
        (
            cat.define_stored(name, vec![TypeId(0); arity], rel, key)
                .unwrap(),
            rel,
        )
    };
    let (item, r_item) = stored("item_extent", 1, 1);
    let (supplier, r_supplier) = stored("supplier_extent", 1, 1);
    let (quantity, r_quantity) = stored("quantity", 2, 1);
    let (consume, r_consume) = stored("consume_freq", 2, 1);
    let (min_stock, r_min) = stored("min_stock", 2, 1);
    let (supplies, r_supplies) = stored("supplies", 2, 1);
    let (delivery, r_delivery) = stored("delivery_time", 3, 2);
    let v = Term::var;
    let cnd = cat
        .define_derived(
            "cnd_monitor_items",
            vec![TypeId(0)],
            vec![ClauseBuilder::new(9)
                .head([v(0)])
                .pred(item, [v(0)])
                .pred(quantity, [v(0), v(1)])
                .pred(consume, [v(0), v(2)])
                .pred(supplies, [v(3), v(0)])
                .pred(supplier, [v(3)])
                .pred(delivery, [v(0), v(3), v(4)])
                .arith(v(5), v(2), ArithOp::Mul, v(4))
                .pred(min_stock, [v(0), v(6)])
                .arith(v(7), v(5), ArithOp::Add, v(6))
                .cmp(v(1), CmpOp::Lt, v(7))
                .build()],
        )
        .unwrap();
    for i in 0..ITEMS {
        let s = 10_000 + i;
        storage.insert(r_item, tuple![i]).unwrap();
        storage.insert(r_supplier, tuple![s]).unwrap();
        storage.insert(r_quantity, tuple![i, 100]).unwrap();
        storage.insert(r_consume, tuple![i, 2]).unwrap();
        storage.insert(r_min, tuple![i, 10]).unwrap();
        storage.insert(r_supplies, tuple![s, i]).unwrap();
        storage.insert(r_delivery, tuple![i, s, 3]).unwrap();
    }
    for rel in &rels {
        storage.monitor(*rel);
    }
    (storage, cat, cnd, r_quantity, rels)
}

#[test]
fn a_bulk_pass_allocates_less_than_once_per_wave_tuple() {
    let (mut storage, cat, cnd, r_quantity, rels) = inventory();
    let net = PropagationNetwork::build(&cat, &mut storage, &[cnd]).unwrap();

    // One transaction updates every quantity; the first LOW items drop
    // below their threshold of 16.
    storage.begin().unwrap();
    for i in 0..ITEMS {
        let q = if i < LOW { 5 } else { 200 + i };
        storage
            .set_functional(r_quantity, &[Value::Int(i)], &[Value::Int(q)])
            .unwrap();
    }
    // One probe per relation folds the lazy index maintenance the writes
    // left behind, so the window below holds the pass and nothing else.
    for rel in &rels {
        storage.relation(*rel).probe(&[0], &[Value::Int(0)]);
    }

    COUNTING.store(true, Ordering::SeqCst);
    let result = propagate_with(
        &net,
        &cat,
        &storage,
        CheckLevel::Nervous,
        ExecStrategy::Serial,
    );
    COUNTING.store(false, Ordering::SeqCst);
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);

    let result = result.unwrap();
    let wave_tuples: usize = result.metrics.levels.iter().map(|l| l.wave_tuples).sum();
    assert_eq!(wave_tuples, 2 * ITEMS as usize + LOW as usize);
    let low: Vec<_> = (0..LOW).map(|i| tuple![i]).collect();
    assert_eq!(
        result.condition_deltas[&cnd].plus(),
        &low.into_iter().collect()
    );
    assert!(result.condition_deltas[&cnd].minus().is_empty());
    // Six stored accesses follow each of the 2 000 seed tuples.
    assert!(result.metrics.probes >= 6 * 2 * ITEMS as u64);
    assert!(
        allocations < wave_tuples as u64,
        "{allocations} allocations for {wave_tuples} wave tuples and {} probes",
        result.metrics.probes
    );
}

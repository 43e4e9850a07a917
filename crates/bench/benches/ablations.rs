//! Ablation studies over the design choices DESIGN.md calls out:
//!
//! * **flat vs bushy** networks (§4.3 full expansion vs §7.1 node
//!   sharing): single-update transaction cost under each shape;
//! * **§7.2 check levels**: Raw vs Nervous vs Strict propagation — the
//!   price of correction point-queries;
//! * **hybrid strategy selection** (§8): per-transaction check cost with
//!   the cost model choosing naive/incremental, on both the fig. 6
//!   (small tx) and fig. 7 (massive tx) workloads.

use amos_bench::InventoryWorld;
use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, CheckLevel, ExecStrategy};
use amos_core::MonitorMode;
use amos_db::engine::NetworkPrep;
use amos_db::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const N_ITEMS: usize = 1_000;

fn bench_flat_vs_bushy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_network_shape");
    group.sample_size(30);
    for (label, prep) in [("flat", NetworkPrep::Flat), ("bushy", NetworkPrep::Bushy)] {
        let mut world = InventoryWorld::new(N_ITEMS, MonitorMode::Incremental, prep);
        let mut v = 10_001i64;
        group.bench_function(BenchmarkId::new(label, N_ITEMS), |b| {
            b.iter(|| {
                v += 1;
                world.tx_single_quantity_update(0, v);
            });
        });
    }
    group.finish();
}

fn bench_check_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_check_level");
    group.sample_size(30);
    for (label, level) in [
        ("raw", CheckLevel::Raw),
        ("nervous", CheckLevel::Nervous),
        ("strict", CheckLevel::Strict),
    ] {
        // Drive propagate_with() directly so the check level is the only
        // variable; the workload drops one item below threshold so the
        // checks actually run on candidates.
        let mut world = InventoryWorld::new(N_ITEMS, MonitorMode::Incremental, NetworkPrep::Flat);
        let catalog = world.db.catalog().clone();
        let cnd = catalog.lookup("cnd_monitor_items").unwrap();
        let net = PropagationNetwork::build(&catalog, world.db.storage_mut(), &[cnd]).unwrap();
        world.db.begin().unwrap();
        let item = Value::Oid(world.items[0]);
        let rel = world.quantity_rel;
        world
            .db
            .storage_mut()
            .set_functional(rel, &[item], &[Value::Int(50)])
            .unwrap();
        group.bench_function(BenchmarkId::new(label, N_ITEMS), |b| {
            b.iter(|| {
                propagate_with(
                    &net,
                    &catalog,
                    world.db.storage(),
                    level,
                    ExecStrategy::default(),
                )
            });
        });
    }
    group.finish();
}

fn bench_hybrid(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hybrid");
    group.sample_size(15);
    for (label, mode) in [
        ("incremental", MonitorMode::Incremental),
        ("naive", MonitorMode::Naive),
        ("hybrid", MonitorMode::Hybrid),
    ] {
        // Small-transaction workload: hybrid should track incremental.
        let mut world = InventoryWorld::new(N_ITEMS, mode, NetworkPrep::Flat);
        let mut v = 10_001i64;
        group.bench_function(
            BenchmarkId::new(format!("{label}_small_tx"), N_ITEMS),
            |b| {
                b.iter(|| {
                    v += 1;
                    world.tx_single_quantity_update(0, v);
                });
            },
        );
        // Massive-transaction workload: hybrid should track naive.
        let mut world = InventoryWorld::new(N_ITEMS, mode, NetworkPrep::Flat);
        let mut round = 1i64;
        group.bench_function(
            BenchmarkId::new(format!("{label}_massive_tx"), N_ITEMS),
            |b| {
                b.iter(|| {
                    round += 1;
                    world.tx_massive_update(round);
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_flat_vs_bushy,
    bench_check_levels,
    bench_hybrid
);
criterion_main!(benches);

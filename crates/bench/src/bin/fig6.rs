//! Regenerates **fig. 6** of the paper: "100 transactions with 1 change
//! to 1 partial differential" over database sizes 1 → 10 000.
//!
//! Expected shape (paper): incremental cost is ~independent of database
//! size; naive cost grows linearly (it re-evaluates the whole condition,
//! scanning all items, at every commit).
//!
//! Run with: `cargo run -p amos-bench --release --bin fig6`
//!
//! Flags (shared with the CI bench-smoke job):
//!   --json PATH         write a BENCH_fig6.json report with per-size
//!                       timings and last-pass propagation metrics
//!   --sizes A,B,C       override the database sizes to sweep
//!   --transactions N    override the per-size transaction count

use amos_bench::report::{BenchArgs, SizeRow};
use amos_bench::{time_secs, InventoryWorld};
use amos_core::MonitorMode;
use amos_db::engine::NetworkPrep;
use amos_metrics::PassMetrics;

const DEFAULT_TRANSACTIONS: usize = 100;
const DEFAULT_SIZES: &[usize] = &[1, 10, 100, 1_000, 10_000];

fn run(n_items: usize, mode: MonitorMode, transactions: usize) -> (f64, Option<PassMetrics>) {
    let mut world = InventoryWorld::new(n_items, mode, NetworkPrep::Flat);
    // Warm up one transaction (index build, first materialization).
    world.tx_single_quantity_update(0, 10_001);
    let secs = time_secs(|| {
        for i in 0..transactions {
            // Always a real net change, always above threshold.
            world.tx_single_quantity_update(i % n_items, 10_002 + i as i64);
        }
    });
    (secs, world.db.last_pass_metrics().cloned())
}

fn main() {
    let args = BenchArgs::parse();
    let transactions = args.transactions.unwrap_or(DEFAULT_TRANSACTIONS);
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| DEFAULT_SIZES.to_vec());

    println!(
        "# Fig. 6 — {transactions} transactions, each with 1 change to 1 partial differential"
    );
    println!("# (times in milliseconds for all {transactions} transactions)");
    println!(
        "{:>8} {:>16} {:>12} {:>18}",
        "items", "incremental_ms", "naive_ms", "naive/incremental"
    );
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let (inc_secs, last_pass) = run(n, MonitorMode::Incremental, transactions);
        let (naive_secs, _) = run(n, MonitorMode::Naive, transactions);
        let inc = inc_secs * 1e3;
        let naive = naive_secs * 1e3;
        println!(
            "{:>8} {:>16.2} {:>12.2} {:>18.2}",
            n,
            inc,
            naive,
            naive / inc
        );
        rows.push(SizeRow {
            n_items: n,
            incremental_ms: inc,
            naive_ms: naive,
            last_pass,
        });
    }
    println!();
    println!("# Paper shape: incremental ≈ flat over db size; naive ≈ linear.");

    if let Some(path) = &args.json {
        amos_bench::report::write_report(
            path,
            "fig6",
            "100 transactions with 1 change to 1 partial differential (paper fig. 6)",
            transactions,
            &rows,
        )
        .expect("write JSON report");
        println!("# wrote {}", path.display());
    }
}

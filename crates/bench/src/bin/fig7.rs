//! Regenerates **fig. 7** of the paper: "1 transaction with n changes to
//! 3 partial differentials" — every item's quantity, delivery time and
//! consume frequency change in a single transaction.
//!
//! Expected shape (paper): incremental monitoring is *slower* than naive
//! here (three overlapping differential executions per item vs one full
//! scan), but only by a roughly constant factor over database size — the
//! paper measured ≈1.6×.
//!
//! Run with: `cargo run -p amos-bench --release --bin fig7`
//!
//! Flags (shared with the CI bench-smoke job):
//!   --json PATH     write a BENCH_fig7.json report with per-size
//!                   timings and last-pass propagation metrics
//!   --sizes A,B,C   override the database sizes to sweep

use amos_bench::report::{BenchArgs, SizeRow};
use amos_bench::{time_secs, InventoryWorld};
use amos_core::MonitorMode;
use amos_db::engine::NetworkPrep;
use amos_metrics::PassMetrics;

const DEFAULT_SIZES: &[usize] = &[10, 100, 1_000, 10_000];

fn run(n_items: usize, mode: MonitorMode) -> (f64, Option<PassMetrics>) {
    let mut world = InventoryWorld::new(n_items, mode, NetworkPrep::Flat);
    // Warm-up round.
    world.tx_massive_update(0);
    let secs = time_secs(|| {
        world.tx_massive_update(1);
    });
    (secs, world.db.last_pass_metrics().cloned())
}

fn main() {
    let args = BenchArgs::parse();
    let sizes: Vec<usize> = args.sizes.clone().unwrap_or_else(|| DEFAULT_SIZES.to_vec());

    println!("# Fig. 7 — 1 transaction with n changes to 3 partial differentials");
    println!("# (times in milliseconds for the single bulk transaction)");
    println!(
        "{:>8} {:>16} {:>12} {:>20}",
        "items", "incremental_ms", "naive_ms", "incremental/naive"
    );
    let mut rows = Vec::with_capacity(sizes.len());
    for &n in &sizes {
        let (inc_secs, last_pass) = run(n, MonitorMode::Incremental);
        let (naive_secs, _) = run(n, MonitorMode::Naive);
        let inc = inc_secs * 1e3;
        let naive = naive_secs * 1e3;
        println!(
            "{:>8} {:>16.2} {:>12.2} {:>20.2}",
            n,
            inc,
            naive,
            inc / naive
        );
        rows.push(SizeRow {
            n_items: n,
            incremental_ms: inc,
            naive_ms: naive,
            last_pass,
        });
    }
    println!();
    println!("# Paper shape: incremental/naive ≈ constant (paper: ≈1.6) over db size.");

    if let Some(path) = &args.json {
        amos_bench::report::write_report(
            path,
            "fig7",
            "1 transaction with n changes to 3 partial differentials (paper fig. 7)",
            1,
            &rows,
        )
        .expect("write JSON report");
        println!("# wrote {}", path.display());
    }
}

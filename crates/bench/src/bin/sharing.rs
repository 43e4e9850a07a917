//! Quantifies the §7.1 node-sharing trade-off: several rules whose
//! conditions all reference `threshold`.
//!
//! Two scenarios:
//!
//! * **flat vs bushy** (`consume_freq` updates): under full expansion
//!   (fig. 2) every rule's condition carries its own copy of threshold's
//!   body — a `consume_freq` update executes one differential *per
//!   rule*, each re-deriving the threshold join. With the shared node
//!   (fig. 1) the update propagates through `threshold` once.
//!
//!   "This would be beneficial if the threshold function is referenced
//!   in other rule conditions as well since this would enable node
//!   sharing."
//!
//! * **tabling** (`quantity` updates, bushy network): here `threshold`
//!   is *not* the changed node, so every rule's `Δcnd/Δ±quantity`
//!   differential issues the same `threshold(i)` call. Per-pass tabling
//!   evaluates it once and serves the other rules from the memo — the
//!   same sharing, realized at the evaluator level. The reported
//!   `hits`/`misses` counters prove the sharing is happening; the
//!   tabled-vs-untabled timing lives in the `operators` criterion bench.
//!
//! Run with: `cargo run -p amos-bench --release --bin sharing`
//!
//! Flags:
//!   --json PATH   write a BENCH_sharing.json report with per-rule-count
//!                 timings and tabling hit/miss counters

use amos_bench::report::BenchArgs;
use amos_bench::{time_secs, SCHEMA};
use amos_db::engine::NetworkPrep;
use amos_db::{Amos, EngineOptions, Value};
use amos_metrics::{JsonValue, PassMetrics};
use amos_storage::RelId;
use amos_types::Oid;

const N_ITEMS: usize = 1_000;
const TRANSACTIONS: usize = 100;
/// More transactions for the tabling scenario: the per-transaction cost
/// is a few microseconds, so the longer series stabilizes the median.
const QUANTITY_TRANSACTIONS: usize = 500;
const RULE_COUNTS: &[usize] = &[1, 2, 4, 8, 16];

struct World {
    db: Amos,
    items: Vec<Oid>,
    quantity_rel: RelId,
    consume_rel: RelId,
}

fn build(prep: NetworkPrep, n_rules: usize) -> World {
    let mut db = Amos::with_options(EngineOptions {
        network_prep: prep,
        ..Default::default()
    });
    db.register_procedure("order", |_ctx, _| Ok(()));
    db.register_procedure("noop", |_ctx, _| Ok(()));
    db.execute(SCHEMA).expect("schema");
    // Extra rules that also reference threshold(i).
    for k in 0..n_rules.saturating_sub(1) {
        db.execute(&format!(
            "create rule extra_{k}() as \
             when for each item i where quantity(i) < threshold(i) + {k} \
             do noop(i);"
        ))
        .expect("extra rule");
    }

    let catalog = db.catalog();
    let rel = |name: &str| {
        catalog
            .def(catalog.lookup(name).unwrap())
            .stored_rel()
            .unwrap()
    };
    let item_extent = rel("item_extent");
    let supplier_extent = rel("supplier_extent");
    let rels = [
        rel("quantity"),
        rel("max_stock"),
        rel("min_stock"),
        rel("consume_freq"),
        rel("supplies"),
        rel("delivery_time"),
    ];
    let (rq, rmax, rmin, rcf, rsup, rdt) = (rels[0], rels[1], rels[2], rels[3], rels[4], rels[5]);
    let mut items = Vec::with_capacity(N_ITEMS);
    {
        let storage = db.storage_mut();
        for _ in 0..N_ITEMS {
            let item = storage.fresh_oid();
            let sup = storage.fresh_oid();
            items.push(item);
            let iv = Value::Oid(item);
            let sv = Value::Oid(sup);
            storage
                .insert(item_extent, amos_types::Tuple::new(vec![iv.clone()]))
                .unwrap();
            storage
                .insert(supplier_extent, amos_types::Tuple::new(vec![sv.clone()]))
                .unwrap();
            storage
                .set_functional(rq, std::slice::from_ref(&iv), &[Value::Int(10_000)])
                .unwrap();
            storage
                .set_functional(rmax, std::slice::from_ref(&iv), &[Value::Int(20_000)])
                .unwrap();
            storage
                .set_functional(rmin, std::slice::from_ref(&iv), &[Value::Int(100)])
                .unwrap();
            storage
                .set_functional(rcf, std::slice::from_ref(&iv), &[Value::Int(20)])
                .unwrap();
            storage
                .set_functional(rsup, std::slice::from_ref(&sv), std::slice::from_ref(&iv))
                .unwrap();
            storage
                .set_functional(rdt, &[iv, sv], &[Value::Int(2)])
                .unwrap();
        }
    }
    db.execute("activate monitor_items();").unwrap();
    for k in 0..n_rules.saturating_sub(1) {
        db.execute(&format!("activate extra_{k}();")).unwrap();
    }
    World {
        db,
        items,
        quantity_rel: rq,
        consume_rel: rcf,
    }
}

/// Time 100 transactions each updating one item's consume_freq — a
/// threshold-side influent, so the structural (network) sharing effect
/// is maximal.
fn run_consume(prep: NetworkPrep, n_rules: usize) -> f64 {
    let mut w = build(prep, n_rules);
    let mut v = 21i64;
    // Warm-up.
    w.db.begin().unwrap();
    w.db.storage_mut()
        .set_functional(w.consume_rel, &[Value::Oid(w.items[0])], &[Value::Int(v)])
        .unwrap();
    w.db.commit().unwrap();
    time_secs(|| {
        for i in 0..TRANSACTIONS {
            v += 1;
            w.db.begin().unwrap();
            w.db.storage_mut()
                .set_functional(
                    w.consume_rel,
                    &[Value::Oid(w.items[i % w.items.len()])],
                    &[Value::Int(v)],
                )
                .unwrap();
            w.db.commit().unwrap();
        }
    }) * 1e3
}

/// Time 100 transactions each updating one item's quantity against the
/// bushy network: every rule's `Δcnd/Δ±quantity` differential calls the
/// unchanged shared `threshold` node — the workload where per-pass
/// tabling shares the derived call across rules.
fn run_quantity(n_rules: usize) -> (f64, Option<PassMetrics>) {
    let mut w = build(NetworkPrep::Bushy, n_rules);
    // Warm-up (plan compilation).
    w.db.begin().unwrap();
    w.db.storage_mut()
        .set_functional(
            w.quantity_rel,
            &[Value::Oid(w.items[0])],
            &[Value::Int(10_001)],
        )
        .unwrap();
    w.db.commit().unwrap();
    let ms = time_secs(|| {
        for i in 0..QUANTITY_TRANSACTIONS {
            w.db.begin().unwrap();
            w.db.storage_mut()
                .set_functional(
                    w.quantity_rel,
                    &[Value::Oid(w.items[i % w.items.len()])],
                    &[Value::Int(10_002 + i as i64)],
                )
                .unwrap();
            w.db.commit().unwrap();
        }
    }) * 1e3;
    (ms, w.db.last_pass_metrics().cloned())
}

struct TablingRow {
    n_rules: usize,
    tabled_ms: f64,
    tabling_hits: u64,
    tabling_misses: u64,
    last_pass: Option<PassMetrics>,
}

fn main() {
    let args = BenchArgs::parse();

    println!("# §7.1 node sharing — {TRANSACTIONS} transactions updating consume_freq of one item");
    println!("# ({N_ITEMS} items; rules all referencing threshold; times in ms)");
    println!(
        "{:>8} {:>10} {:>10} {:>12}",
        "rules", "flat_ms", "bushy_ms", "flat/bushy"
    );
    for &n_rules in RULE_COUNTS {
        let flat = run_consume(NetworkPrep::Flat, n_rules);
        let bushy = run_consume(NetworkPrep::Bushy, n_rules);
        println!(
            "{:>8} {:>10.2} {:>10.2} {:>12.2}",
            n_rules,
            flat,
            bushy,
            flat / bushy
        );
    }
    println!();
    println!("# Paper expectation (§7.1): sharing pays off as more rules reference threshold.");
    println!();

    println!(
        "# Evaluator-level sharing — {QUANTITY_TRANSACTIONS} transactions updating quantity of one item"
    );
    println!("# (bushy network; per-pass tabling of the shared threshold call; times in ms)");
    println!(
        "{:>8} {:>12} {:>8} {:>8}",
        "rules", "tabled_ms", "hits", "misses"
    );
    let mut rows: Vec<TablingRow> = Vec::with_capacity(RULE_COUNTS.len());
    for &n_rules in RULE_COUNTS {
        let (tabled_ms, last_pass) = run_quantity(n_rules);
        let (hits, misses) = last_pass
            .as_ref()
            .map(|m| (m.tabling_hits, m.tabling_misses))
            .unwrap_or((0, 0));
        println!(
            "{:>8} {:>12.2} {:>8} {:>8}",
            n_rules, tabled_ms, hits, misses
        );
        rows.push(TablingRow {
            n_rules,
            tabled_ms,
            tabling_hits: hits,
            tabling_misses: misses,
            last_pass,
        });
    }
    println!();
    println!("# With k rules the shared threshold call is evaluated once and hit k-1 times");
    println!("# per differential polarity; hits=0 would mean the sharing is broken.");

    if let Some(path) = &args.json {
        let total_hits: u64 = rows.iter().map(|r| r.tabling_hits).sum();
        let doc = JsonValue::object()
            .with("bench", "sharing")
            .with(
                "description",
                "node sharing (flat vs bushy) and per-pass tabling of shared derived calls",
            )
            .with("transactions", TRANSACTIONS)
            .with("total_tabling_hits", total_hits)
            .with(
                "results",
                JsonValue::Array(
                    rows.iter()
                        .map(|r| {
                            let mut row = JsonValue::object()
                                .with("n_rules", r.n_rules)
                                .with("tabled_ms", r.tabled_ms)
                                .with("tabling_hits", r.tabling_hits)
                                .with("tabling_misses", r.tabling_misses);
                            row = match &r.last_pass {
                                Some(m) => row.with("last_pass", m.to_json()),
                                None => row.with("last_pass", JsonValue::Null),
                            };
                            row
                        })
                        .collect(),
                ),
            );
        let mut file = std::fs::File::create(path).expect("create JSON report");
        use std::io::Write as _;
        writeln!(file, "{}", doc.to_pretty()).expect("write JSON report");
        println!("# wrote {}", path.display());
    }
}

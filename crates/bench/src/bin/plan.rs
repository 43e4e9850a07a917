//! Adaptive vs static differential planning under skewed cardinalities.
//!
//! One scenario, built directly on the core propagation API so the
//! planner — not parsing or rule bookkeeping — dominates:
//!
//! **skew** (small Δ, large base): `p(X) ← s(X,G) ∧ big(G,Y) ∧
//! pick(X,Y)` where `big` holds `BIG_ROWS` rows in 10 groups (fan-out
//! `BIG_ROWS/10` per group) and `pick` is functional on `X`. After the
//! `Δ₊s` seed binds `X` and `G`, both remaining literals are index
//! probes — a constant-cost model ties and takes textual order,
//! exploding through `big` before `pick` closes the join. The
//! statistics-backed estimator ranks `pick` first (`|pick|/ndv ≈ 1`
//! row vs `|big|/ndv(G) = fan-out` rows), turning the differential
//! into probe-then-lookup.
//!
//! `static_ms`/`adaptive_ms` time the **propagation slice only** — the
//! work the planner controls. Δ-application and rollback are
//! byte-identical in both modes, so they are reported separately as
//! `*_total_ms` rather than folded into the comparison.
//!
//! Run with: `cargo run -p amos-bench --release --bin plan`
//!
//! Flags:
//!   --json PATH        write a BENCH_plan.json report
//!   --sizes BIG        override BIG_ROWS
//!   --transactions N   override the transaction count

use std::sync::Arc;

use amos_bench::report::BenchArgs;
use amos_bench::time_secs;
use amos_core::adaptive::AdaptivePlanner;
use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_adaptive, CheckLevel, ExecStrategy};
use amos_metrics::{JsonValue, PassMetrics};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{ClauseBuilder, Term};
use amos_objectlog::eval::EvalShared;
use amos_storage::{RelId, Storage};
use amos_types::{tuple, Tuple, TypeId};

const DEFAULT_BIG_ROWS: usize = 100_000;
const DEFAULT_TRANSACTIONS: usize = 30;
/// Δ-tuples inserted per skew transaction.
const DELTA_K: usize = 8;
/// Number of groups in `big` (its first-column NDV).
const GROUPS: i64 = 10;

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId(0); n]
}

struct World {
    storage: Storage,
    catalog: Catalog,
    network: PropagationNetwork,
    seed_rel: RelId,
    cond: PredId,
}

/// p(X) ← s(X,G) ∧ big(G,Y) ∧ pick(X,Y), populated with the skewed
/// cardinalities described in the module docs.
fn build_skew(big_rows: usize) -> World {
    let fanout = (big_rows as i64 / GROUPS).max(1);
    let n_picks = 1_000.min(fanout);
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
    for g in 0..GROUPS {
        for y in 0..fanout {
            storage.insert(rbig, tuple![g, y]).unwrap();
        }
    }
    for x in 0..n_picks {
        storage.insert(rpick, tuple![x, x % fanout]).unwrap();
    }
    storage.monitor(rs);
    storage.monitor(rbig);
    storage.monitor(rpick);
    let network = PropagationNetwork::build(&catalog, &mut storage, &[cond]).unwrap();
    World {
        storage,
        catalog,
        network,
        seed_rel: rs,
        cond,
    }
}

/// Execute one monitored transaction: insert `batch` into the seed
/// relation, propagate (static or adaptive), roll back. Returns the
/// pass metrics, the condition-Δ insertion count (for sanity), and the
/// seconds spent in propagation — the slice the planner controls. The
/// surrounding Δ-application and rollback are byte-identical work in
/// both modes, so timing them would only dilute the comparison.
fn run_pass(
    w: &mut World,
    batch: &[Tuple],
    shared: &Arc<EvalShared>,
    planner: Option<&AdaptivePlanner>,
) -> (PassMetrics, usize, f64) {
    w.storage.begin().unwrap();
    for t in batch {
        w.storage.insert(w.seed_rel, t.clone()).unwrap();
    }
    shared.reset_pass();
    let mut result = None;
    let prop_secs = time_secs(|| {
        result = Some(
            propagate_adaptive(
                &w.network,
                &w.catalog,
                &w.storage,
                CheckLevel::Nervous,
                ExecStrategy::Parallel,
                shared,
                planner,
            )
            .unwrap(),
        );
    });
    let result = result.expect("propagation ran");
    let plus = result.condition_deltas[&w.cond].plus().len();
    w.storage.rollback().unwrap();
    (result.metrics, plus, prop_secs)
}

/// Mean relative error of the estimator over the differentials that
/// carried an estimate (`|est − actual| / max(actual, 1)`).
fn est_row_error(metrics: &PassMetrics) -> Option<f64> {
    let errs: Vec<f64> = metrics
        .differentials
        .iter()
        .filter_map(|d| {
            d.est_rows
                .map(|est| (est - d.candidates as f64).abs() / (d.candidates.max(1) as f64))
        })
        .collect();
    if errs.is_empty() {
        None
    } else {
        Some(errs.iter().sum::<f64>() / errs.len() as f64)
    }
}

struct ScenarioRow {
    scenario: &'static str,
    /// Propagation-only milliseconds (the planner-controlled slice).
    static_ms: f64,
    adaptive_ms: f64,
    /// Whole-pass milliseconds including Δ-application and rollback —
    /// mode-independent overhead, reported for context.
    static_total_ms: f64,
    adaptive_total_ms: f64,
    replans: u64,
    plan_cache_hits: u64,
    est_row_error: Option<f64>,
    last_pass: Option<PassMetrics>,
}

impl ScenarioRow {
    fn speedup(&self) -> f64 {
        self.static_ms / self.adaptive_ms
    }

    fn to_json(&self) -> JsonValue {
        let mut row = JsonValue::object()
            .with("scenario", self.scenario)
            .with("static_ms", self.static_ms)
            .with("adaptive_ms", self.adaptive_ms)
            .with("speedup", self.speedup())
            .with("static_total_ms", self.static_total_ms)
            .with("adaptive_total_ms", self.adaptive_total_ms)
            .with("replans", self.replans)
            .with("plan_cache_hits", self.plan_cache_hits);
        row = match self.est_row_error {
            Some(e) => row.with("est_row_error", e),
            None => row.with("est_row_error", JsonValue::Null),
        };
        match &self.last_pass {
            Some(m) => row.with("last_pass", m.to_json()),
            None => row.with("last_pass", JsonValue::Null),
        }
    }
}

/// Time `txns` passes over `batches` in both modes and cross-check that
/// they monitor identically.
fn run_scenario(scenario: &'static str, w: &mut World, batches: &[Vec<Tuple>]) -> ScenarioRow {
    let static_shared = Arc::new(EvalShared::default());
    let adaptive_shared = Arc::new(EvalShared::default());
    let planner = AdaptivePlanner::new();

    // Warm-up (and equivalence check) with the first batch.
    let (_, static_plus, _) = run_pass(w, &batches[0], &static_shared, None);
    let (_, adaptive_plus, _) = run_pass(w, &batches[0], &adaptive_shared, Some(&planner));
    assert_eq!(
        static_plus, adaptive_plus,
        "adaptive and static monitors diverged ({scenario})"
    );

    let mut static_prop = 0.0;
    let static_total_ms = time_secs(|| {
        for batch in batches {
            let (_, _, secs) = run_pass(w, batch, &static_shared, None);
            static_prop += secs;
        }
    }) * 1e3;
    let mut last = None;
    let mut adaptive_prop = 0.0;
    let adaptive_total_ms = time_secs(|| {
        for batch in batches {
            let (metrics, _, secs) = run_pass(w, batch, &adaptive_shared, Some(&planner));
            adaptive_prop += secs;
            last = Some(metrics);
        }
    }) * 1e3;

    ScenarioRow {
        scenario,
        static_ms: static_prop * 1e3,
        adaptive_ms: adaptive_prop * 1e3,
        static_total_ms,
        adaptive_total_ms,
        replans: planner.replan_count(),
        plan_cache_hits: planner.hit_count(),
        est_row_error: last.as_ref().and_then(est_row_error),
        last_pass: last,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let big_rows = match args.sizes.as_deref() {
        Some([b]) => *b,
        Some(_) => panic!("--sizes takes one value: BIG_ROWS"),
        None => DEFAULT_BIG_ROWS,
    };
    let txns = args.transactions.unwrap_or(DEFAULT_TRANSACTIONS);

    println!("# adaptive vs static differential planning");
    println!(
        "# skew: {txns} transactions x {DELTA_K} Δ-tuples against big={big_rows} rows \
         (fan-out {})",
        big_rows as i64 / GROUPS
    );
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>8} {:>6} {:>10}",
        "scenario", "static_ms", "adaptive_ms", "speedup", "replans", "hits", "est_err"
    );

    let mut w = build_skew(big_rows);
    let batches: Vec<Vec<Tuple>> = (0..txns)
        .map(|t| {
            (0..DELTA_K as i64)
                .map(|i| {
                    let x = (t * DELTA_K) as i64 + i;
                    tuple![x % 1_000, x % GROUPS]
                })
                .collect()
        })
        .collect();
    let r = run_scenario("skew", &mut w, &batches);
    println!(
        "{:>8} {:>12.2} {:>12.2} {:>9.2} {:>8} {:>6} {:>10}",
        r.scenario,
        r.static_ms,
        r.adaptive_ms,
        r.speedup(),
        r.replans,
        r.plan_cache_hits,
        r.est_row_error.map_or("n/a".into(), |e| format!("{e:.3}")),
    );
    println!();
    println!("# static_ms/adaptive_ms time propagation only (the planner-controlled slice);");
    println!("# whole-pass totals incl. Δ-apply+rollback are in the JSON as *_total_ms.");
    println!("# Expectation: skew speedup >= 2 (estimator reorders the tied probes).");

    if let Some(path) = &args.json {
        let doc = JsonValue::object()
            .with("bench", "plan")
            .with(
                "description",
                "statistics-driven adaptive differential planning vs static activation-time plans",
            )
            .with("big_rows", big_rows)
            .with("transactions", txns)
            .with("results", JsonValue::Array(vec![r.to_json()]));
        let mut file = std::fs::File::create(path).expect("create JSON report");
        use std::io::Write as _;
        writeln!(file, "{}", doc.to_pretty()).expect("write JSON report");
        println!("# wrote {}", path.display());
    }
}

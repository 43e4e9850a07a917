//! The paper's evaluation (§6, figs. 6 and 7) as exact counts.
//!
//! Both figures are claims about *work*: per-transaction monitoring cost
//! is flat in database size (fig. 6), and a bulk update costs a constant
//! factor over naive re-evaluation (fig. 7). The engine counts that work
//! exactly — stored probes and scans, Δ-set probes and scans, wave
//! tuples — so the claims hold here as identities over the §3.1 world at
//! n ∈ {100, 1 000, 10 000}, under serial and parallel execution alike,
//! and a plan that turned one probe into a scan fails them. The naive
//! side is counted the way `amos_core::naive::full_eval` evaluates: the
//! whole condition, unbound, in the new state.
//!
//! The test also regenerates EXPERIMENTS.md's count tables and fails,
//! printing the expected text, when the committed ones differ. The same
//! world carries the §7.1 tabling and §8 hybrid-choice counts.

use std::fmt::Write as _;

use amos_core::{MonitorMode, Strategy};
use amos_db::{Amos, EngineOptions, ExecStrategy, NetworkPrep, Value};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_storage::{RelId, StateEpoch};
use amos_types::{Oid, Tuple};

/// The §3.1 inventory schema and `monitor_items` rule.
const SCHEMA: &str = r#"
    create type item;
    create type supplier;
    create function quantity(item i) -> integer;
    create function max_stock(item i) -> integer;
    create function min_stock(item i) -> integer;
    create function consume_freq(item i) -> integer;
    create function supplies(supplier s) -> item;
    create function delivery_time(item i, supplier s) -> integer;
    create function threshold(item i) -> integer
        as
        select consume_freq(i) * delivery_time(i, s) + min_stock(i)
        for each supplier s where supplies(s) = i;

    create rule monitor_items() as
        when for each item i
        where quantity(i) < threshold(i)
        do order(i, max_stock(i) - quantity(i));
"#;

const SIZES: [usize; 3] = [100, 1_000, 10_000];
/// One-update transactions checked per world for fig. 6.
const FIG6_TRANSACTIONS: usize = 5;
/// Probes per seed tuple of `cnd_monitor_items`: of the seven stored
/// relations in the flat condition one is the seed — a Δ-set for a
/// differential, the `item_extent` scan for naive evaluation — and the
/// other six are probed once (the planner drops the second
/// `item_extent` literal as decided).
const PROBES_PER_SEED: u64 = 6;

/// The stored accesses and wave size of one propagation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    fired: usize,
    probes: u64,
    scans: u64,
    delta_probes: u64,
    delta_scans: u64,
    wave_tuples: usize,
}

/// The §3.1 world, populated through storage (no parser on the measured
/// path). Quantities start far above every threshold (140), so no
/// transaction below makes the condition true: the counts are
/// monitoring cost alone.
struct World {
    db: Amos,
    items: Vec<Oid>,
    suppliers: Vec<Oid>,
    quantity: RelId,
    delivery_time: RelId,
    consume_freq: RelId,
}

impl World {
    /// `n` items with one supplier each, `monitor_items` plus
    /// `extra_rules` more rules over `threshold`, all activated.
    fn new(n: usize, options: EngineOptions, mode: MonitorMode, extra_rules: usize) -> World {
        let mut db = Amos::with_options(options);
        db.set_monitor_mode(mode);
        db.register_procedure("order", |_ctx, _args| Ok(()));
        db.register_procedure("noop", |_ctx, _args| Ok(()));
        db.execute(SCHEMA).unwrap();
        for k in 0..extra_rules {
            db.execute(&format!(
                "create rule extra_{k}() as \
                 when for each item i where quantity(i) < threshold(i) + {k} \
                 do noop(i);"
            ))
            .unwrap();
        }
        // The workloads never delete items, suppliers or supply links:
        // activation prunes their always-empty Δ₋ differentials (L004).
        for f in ["item_extent", "supplier_extent", "supplies"] {
            db.set_append_only(f, true).unwrap();
        }
        let rel = |name: &str| {
            let catalog = db.catalog();
            catalog
                .def(catalog.lookup(name).unwrap())
                .stored_rel()
                .unwrap()
        };
        let [item_extent, supplier_extent, supplies, delivery_time] = [
            "item_extent",
            "supplier_extent",
            "supplies",
            "delivery_time",
        ]
        .map(rel);
        let [quantity, max_stock, min_stock, consume_freq] =
            ["quantity", "max_stock", "min_stock", "consume_freq"].map(rel);
        let (mut items, mut suppliers) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let storage = db.storage_mut();
        for _ in 0..n {
            let (item, sup) = (storage.fresh_oid(), storage.fresh_oid());
            items.push(item);
            suppliers.push(sup);
            let (i, s) = (Value::Oid(item), Value::Oid(sup));
            storage
                .insert(item_extent, Tuple::new(vec![i.clone()]))
                .unwrap();
            storage
                .insert(supplier_extent, Tuple::new(vec![s.clone()]))
                .unwrap();
            for (f, v) in [
                (quantity, 10_000),
                (max_stock, 20_000),
                (min_stock, 100),
                (consume_freq, 20),
            ] {
                storage
                    .set_functional(f, std::slice::from_ref(&i), &[Value::Int(v)])
                    .unwrap();
            }
            storage
                .set_functional(supplies, std::slice::from_ref(&s), std::slice::from_ref(&i))
                .unwrap();
            storage
                .set_functional(delivery_time, &[i, s], &[Value::Int(2)])
                .unwrap();
        }
        db.execute("activate monitor_items();").unwrap();
        for k in 0..extra_rules {
            db.execute(&format!("activate extra_{k}();")).unwrap();
        }
        World {
            db,
            items,
            suppliers,
            quantity,
            delivery_time,
            consume_freq,
        }
    }

    fn flat(n: usize, strategy: ExecStrategy, mode: MonitorMode) -> World {
        let options = EngineOptions {
            network_prep: NetworkPrep::Flat,
            propagation: strategy,
            ..Default::default()
        };
        World::new(n, options, mode, 0)
    }

    /// A fig. 6 transaction: one item's quantity changes.
    fn update_quantity(&mut self, item: usize, value: i64) {
        self.db.begin().unwrap();
        let i = Value::Oid(self.items[item]);
        self.db
            .storage_mut()
            .set_functional(self.quantity, &[i], &[Value::Int(value)])
            .unwrap();
        self.db.commit().unwrap();
    }

    /// A fig. 7 transaction: every item's quantity, delivery time and
    /// consume frequency change (three of the paper's five partial
    /// differentials). Round 0 rewrites the populated values.
    fn update_all(&mut self, round: i64) {
        self.db.begin().unwrap();
        let storage = self.db.storage_mut();
        for (&item, &sup) in self.items.iter().zip(&self.suppliers) {
            let i = Value::Oid(item);
            storage
                .set_functional(
                    self.quantity,
                    std::slice::from_ref(&i),
                    &[Value::Int(10_000 + round)],
                )
                .unwrap();
            storage
                .set_functional(
                    self.delivery_time,
                    &[i.clone(), Value::Oid(sup)],
                    &[Value::Int(2 + round % 2)],
                )
                .unwrap();
            storage
                .set_functional(self.consume_freq, &[i], &[Value::Int(20 + round % 2)])
                .unwrap();
        }
        self.db.commit().unwrap();
    }

    /// The work of the last check phase's last propagation pass.
    fn last_pass(&self) -> Work {
        let m = self.db.last_pass_metrics().expect("a pass ran at commit");
        Work {
            fired: m.fired,
            probes: m.probes,
            scans: m.scans,
            delta_probes: m.delta_probes,
            delta_scans: m.delta_scans,
            wave_tuples: m.levels.iter().map(|l| l.wave_tuples).sum(),
        }
    }

    /// `(probes, scans)` of one naive check: the whole condition,
    /// evaluated unbound in the new state.
    fn naive(&self) -> (u64, u64) {
        let catalog = self.db.catalog();
        let cnd = catalog.lookup("cnd_monitor_items").unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(self.db.storage(), catalog, &deltas);
        let pattern = vec![None; catalog.def(cnd).arity];
        let rows = ctx.eval_pred(cnd, &pattern, StateEpoch::New).unwrap();
        assert!(rows.is_empty(), "no item is below its threshold");
        (ctx.shared().probe_count(), ctx.shared().scan_count())
    }
}

/// Fig. 6 and fig. 7 at every size, under both execution strategies;
/// then the tables, checked against EXPERIMENTS.md.
#[test]
fn fig6_and_fig7_are_count_identities() {
    let mut fig6 = String::from(
        "| items | fired | probes | scans | delta_probes | delta_scans | wave tuples | naive probes | naive scans |\n\
         |---:|---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    let mut fig7 = String::from(
        "| items | fired | probes | scans | delta_scans | wave tuples | naive probes | incremental/naive probes |\n\
         |---:|---:|---:|---:|---:|---:|---:|---:|\n",
    );
    for n in SIZES {
        let seeds = n as u64;
        let mut measured = None;
        for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
            let at = format!("n = {n}, {strategy:?}");
            let mut w = World::flat(n, strategy, MonitorMode::Incremental);

            // Fig. 6: one quantity update seeds Δ₊ and Δ₋quantity with one
            // tuple each; each seed probes the six other relations once.
            let mut one = None;
            for t in 0..FIG6_TRANSACTIONS {
                w.update_quantity(t % n, 10_002 + t as i64);
                let work = w.last_pass();
                let expected = Work {
                    fired: 2,
                    probes: 2 * PROBES_PER_SEED,
                    scans: 0,
                    delta_probes: 0,
                    delta_scans: 2,
                    wave_tuples: 2,
                };
                assert_eq!(work, expected, "fig. 6 transaction {t}, {at}");
                one = Some(work);
            }
            // L004 prunes the Δ₋ differentials of the append-only
            // relations: `supplier_extent`, `supplies`, and both
            // `item_extent` occurrences of the flat condition.
            let pruned = w.db.last_pass_metrics().unwrap().pruned_differentials;
            assert_eq!(pruned, 4, "{at}");

            // Naive, for either transaction: scan the item extent, probe
            // six relations per item.
            let naive = w.naive();
            assert_eq!(naive, (PROBES_PER_SEED * seeds, 1), "naive check, {at}");

            // Fig. 7: three influents × two polarities × n seed tuples,
            // each probing six relations.
            w.update_all(1);
            let bulk = w.last_pass();
            let expected = Work {
                fired: 6,
                probes: 6 * PROBES_PER_SEED * seeds,
                scans: 0,
                delta_probes: 0,
                delta_scans: 6,
                wave_tuples: 6 * n,
            };
            assert_eq!(bulk, expected, "fig. 7, {at}");
            measured = Some((one.unwrap(), naive, bulk));
        }

        let (one, (naive_probes, naive_scans), bulk) = measured.unwrap();
        writeln!(
            fig6,
            "| {n} | {} | {} | {} | {} | {} | {} | {naive_probes} | {naive_scans} |",
            one.fired, one.probes, one.scans, one.delta_probes, one.delta_scans, one.wave_tuples
        )
        .unwrap();
        writeln!(
            fig7,
            "| {n} | {} | {} | {} | {} | {} | {naive_probes} | {:.3} |",
            bulk.fired,
            bulk.probes,
            bulk.scans,
            bulk.delta_scans,
            bulk.wave_tuples,
            bulk.probes as f64 / naive_probes as f64
        )
        .unwrap();
    }

    let expected = format!(
        "Fig. 6 — one transaction updating one item's `quantity` (every one of \
         {FIG6_TRANSACTIONS} per size reads the same):\n\n{fig6}\n\
         Fig. 7 — one transaction updating `quantity`, `delivery_time` and \
         `consume_freq` of every item:\n\n{fig7}"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md");
    let doc = std::fs::read_to_string(path).unwrap();
    let (begin, end) = ("<!-- paper_curves:begin -->\n", "<!-- paper_curves:end -->");
    let committed = doc
        .split_once(begin)
        .and_then(|(_, rest)| rest.split_once(end))
        .map(|(block, _)| block)
        .expect("EXPERIMENTS.md has the paper_curves markers");
    assert!(
        committed == expected,
        "EXPERIMENTS.md's count tables are stale; the text between the \
         paper_curves markers should read:\n{expected}"
    );
}

/// §7.1 sharing in the evaluator: on the bushy network every rule's
/// `Δcnd/Δ±quantity` differential calls the unchanged `threshold(i)`.
/// Per-pass tabling derives it once per state epoch and serves the other
/// k−1 rules from the memo.
#[test]
fn shared_threshold_call_is_tabled_once_per_state() {
    for k in [1usize, 2, 4, 8, 16] {
        let options = EngineOptions {
            network_prep: NetworkPrep::Bushy,
            ..Default::default()
        };
        let mut w = World::new(100, options, MonitorMode::Incremental, k - 1);
        w.update_quantity(0, 10_001);
        w.update_quantity(1, 10_002);
        let m = w.db.last_pass_metrics().unwrap();
        assert_eq!(
            (m.tabling_hits, m.tabling_misses),
            (2 * (k as u64 - 1), 2),
            "k = {k} rules"
        );
    }
}

/// §8 hybrid monitoring on a mixed workload: 30 transactions, every 5th
/// a whole-database update. The cost model picks naive for exactly the
/// five bulk passes — round 0 rewrites the populated values, so it
/// changes only the item the warm-up touched and stays incremental.
#[test]
fn hybrid_chooses_naive_for_exactly_the_bulk_passes() {
    for n in [100, 1_000] {
        let mut w = World::flat(n, ExecStrategy::default(), MonitorMode::Hybrid);
        w.update_quantity(0, 10_001);
        let (mut incremental, mut naive) = (0, 0);
        for t in 0..30 {
            if t % 5 == 0 {
                w.update_all(t as i64);
            } else {
                w.update_quantity(t % n, 10_002 + t as i64);
            }
            for strategy in w.db.rules().last_strategies().values() {
                match strategy {
                    Strategy::Incremental => incremental += 1,
                    Strategy::Naive => naive += 1,
                }
            }
        }
        assert_eq!((incremental, naive), (25, 5), "n = {n}");
    }
}

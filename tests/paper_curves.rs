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
//! world carries fig. 7 with every item firing, and the §7.1 tabling
//! counts.

use std::fmt::Write as _;

use amos_core::MonitorMode;
use amos_db::{EngineOptions, ExecStrategy, Tuple, Value};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_storage::{Polarity, StateEpoch};

mod common;
use common::World;

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

/// The work of the last check phase's last propagation pass.
fn last_pass(w: &World) -> Work {
    let m = w.db.last_pass_metrics().expect("a pass ran at commit");
    Work {
        fired: m.fired,
        probes: m.probes,
        scans: m.scans,
        delta_probes: m.delta_probes,
        delta_scans: m.delta_scans,
        wave_tuples: m.levels.iter().map(|l| l.wave_tuples).sum(),
    }
}

/// The steady state replans nothing: every plan the last pass resolved
/// — one per executed differential, the flat condition calling no
/// derived body — came from the cache. A fingerprint that drifted on
/// every pass would recompile here.
fn assert_steady(w: &World, at: &str) {
    let m = w.db.last_pass_metrics().expect("a pass ran at commit");
    let resolves = m.fired as u64;
    assert_eq!((m.replans, m.plan_cache_hits), (0, resolves), "{at}");
}

/// `(probes, scans)` of one naive check: the whole condition, evaluated
/// unbound in the new state.
fn naive(w: &World) -> (u64, u64) {
    let catalog = w.db.catalog();
    let cnd = catalog.lookup("cnd_monitor_items").unwrap();
    let deltas = DeltaMap::new();
    let ctx = EvalContext::new(w.db.storage(), catalog, &deltas);
    let pattern = vec![None; catalog.def(cnd).arity];
    let rows = ctx.eval_pred(cnd, &pattern, StateEpoch::New).unwrap();
    assert!(rows.is_empty(), "no item is below its threshold");
    (ctx.shared().probe_count(), ctx.shared().scan_count())
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
                let work = last_pass(&w);
                let expected = Work {
                    fired: 2,
                    probes: 2 * PROBES_PER_SEED,
                    scans: 0,
                    delta_probes: 0,
                    delta_scans: 2,
                    wave_tuples: 2,
                };
                assert_eq!(work, expected, "fig. 6 transaction {t}, {at}");
                if t > 0 {
                    assert_steady(&w, &format!("fig. 6 transaction {t}, {at}"));
                }
                one = Some(work);
            }
            // L004 prunes the Δ₋ differentials of the append-only
            // relations: `supplier_extent`, `supplies`, and both
            // `item_extent` occurrences of the flat condition.
            let pruned = w.db.last_pass_metrics().unwrap().pruned_differentials;
            assert_eq!(pruned, 4, "{at}");

            // Naive, for either transaction: scan the item extent, probe
            // six relations per item.
            let naive = naive(&w);
            assert_eq!(naive, (PROBES_PER_SEED * seeds, 1), "naive check, {at}");

            // Fig. 7: three influents × two polarities × n seed tuples,
            // each probing six relations.
            w.update_all(1);
            let bulk = last_pass(&w);
            let expected = Work {
                fired: 6,
                probes: 6 * PROBES_PER_SEED * seeds,
                scans: 0,
                delta_probes: 0,
                delta_scans: 6,
                wave_tuples: 6 * n,
            };
            assert_eq!(bulk, expected, "fig. 7, {at}");
            // The first bulk pass replans (its Δ-sets grew from one tuple
            // to n); the second runs on the plans it left.
            w.update_all(2);
            assert_eq!(last_pass(&w), expected, "second fig. 7 transaction, {at}");
            assert_steady(&w, &format!("second fig. 7 transaction, {at}"));
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

/// Fig. 7 where every item fires: one transaction drops every item's
/// quantity below its threshold. Δ₊ and Δ₋quantity seed n tuples each,
/// each probing the six other relations; the n insertions are the
/// candidates, each passes the strict filter with two `holds` (false
/// before, true after) through one cached plan, and the action runs
/// once per item. An explanation is built for one sampled instance, on
/// demand.
fn every_item_fires(n: usize) {
    let seeds = n as u64;
    for strategy in [ExecStrategy::Serial, ExecStrategy::Parallel] {
        let at = format!("n = {n}, {strategy:?}");
        let mut w = World::flat(n, strategy, MonitorMode::Incremental);
        let before = w.db.rules().stats().actions_executed;
        let summary = w.fire_all();
        assert_eq!(summary.passes, 1, "{at}");
        assert_eq!(
            summary.executed,
            vec![("monitor_items".to_string(), n)],
            "{at}"
        );
        let actions = w.db.rules().stats().actions_executed - before;
        let m = w.db.last_pass_metrics().unwrap();
        assert_eq!(
            (m.candidates, actions, m.filter_holds, m.probes),
            (n, n, 2 * seeds, 2 * PROBES_PER_SEED * seeds),
            "candidates, actions, filter holds, probes; {at}"
        );
        // The world's first pass compiles its two differentials; the
        // filter's first `holds` compiles the condition's body under a
        // fully bound pattern, and the other 2n − 1 reuse that plan.
        assert_eq!(
            (m.replans, m.plan_cache_hits),
            (3, 2 * seeds - 1),
            "replans, plan-cache hits; {at}"
        );

        let catalog = w.db.catalog();
        let cnd = catalog.lookup("cnd_monitor_items").unwrap();
        let quantity = catalog.lookup("quantity").unwrap();
        let sample = Tuple::new(vec![Value::Oid(w.items[n / 2])]);
        let why = w.db.rules().last_trace().explain(cnd, &sample).unwrap();
        assert_eq!(why.causes, vec![(quantity, Polarity::Plus)], "{at}");
    }
}

#[test]
fn every_item_fires_is_a_count_identity() {
    for n in [100, 1_000] {
        every_item_fires(n);
    }
}

/// The 10 000-item row: release builds only (a debug build takes
/// minutes); CI runs it with `--release -- --ignored`.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn every_item_fires_at_10_000_items() {
    every_item_fires(10_000);
}

/// §7.1 sharing in the evaluator. With k ≥ 2 rules `threshold` has k
/// callers, so it stays a shared node and every rule's `Δcnd/Δ±quantity`
/// differential calls the unchanged `threshold(i)`. Per-pass tabling
/// derives it once per state epoch and serves the other k−1 rules from
/// the memo. With one rule `threshold` is expanded into the condition
/// (fig. 2): there is no call to table, and each differential's plan is
/// the only plan the pass resolves. The second transaction's pass
/// compiles nothing: `threshold`'s body, too, runs on the plan the first
/// left.
#[test]
fn shared_threshold_call_is_tabled_once_per_state() {
    for k in [1usize, 2, 4, 8, 16] {
        let mut w = World::new(
            100,
            EngineOptions::default(),
            MonitorMode::Incremental,
            k - 1,
        );
        w.update_quantity(0, 10_001);
        w.update_quantity(1, 10_002);
        let m = w.db.last_pass_metrics().unwrap();
        let (hits, misses) = if k == 1 {
            (0, 0)
        } else {
            (2 * (k as u64 - 1), 2)
        };
        assert_eq!(
            (m.tabling_hits, m.tabling_misses),
            (hits, misses),
            "k = {k} rules"
        );
        assert_eq!(m.replans, 0, "k = {k} rules");
        if k == 1 {
            assert_eq!(m.plan_cache_hits, m.fired as u64, "k = 1 rule");
        } else {
            assert!(m.plan_cache_hits > m.fired as u64, "k = {k} rules");
        }
    }
}

/// `RuleManager::stats()` sums every pass, not the last: across one
/// cascading check phase its delta equals the sum over the trace's
/// passes, family by family. The world is the benchmark's `mixed_rules`
/// in small: eight rules share `threshold`, and every action restocks
/// its item, so the phase runs a second pass that retracts the other
/// rules' triggered instances.
#[test]
fn stats_sum_every_pass_of_a_cascading_check_phase() {
    let mut w = World::new(100, EngineOptions::default(), MonitorMode::Incremental, 7);
    w.write_back();
    let threshold = w.db.catalog().lookup("threshold").unwrap();
    assert!(w.db.rules().network().node_of(threshold).is_some());
    w.update_quantity(3, 10_001);
    let before = w.db.rules().stats();
    w.update_quantity(0, 0);
    let after = w.db.rules().stats();
    let passes = &w.db.rules().last_trace().passes;
    assert!(
        passes.len() >= 2,
        "the write-back cascades: {}",
        passes.len()
    );
    let metrics: Vec<_> = passes.iter().filter_map(|p| p.metrics.as_ref()).collect();
    assert_eq!(metrics.len(), passes.len());
    macro_rules! family {
        ($($f:ident),*) => {
            [$((stringify!($f), after.$f - before.$f, metrics.iter().map(|m| m.$f).sum::<u64>())),*]
        };
    }
    let families = family!(
        probes,
        scans,
        delta_probes,
        delta_scans,
        fallback_scans,
        tabling_hits,
        tabling_misses,
        replans,
        plan_cache_hits,
        filter_holds,
        filter_probes
    );
    for (family, delta, summed) in families {
        assert_eq!(delta, summed, "{family}");
    }
    let last = w.db.last_pass_metrics().unwrap();
    assert!(
        after.probes - before.probes > last.probes,
        "the first pass probes too"
    );
    assert_eq!(after.fallback_scans, 0);
}

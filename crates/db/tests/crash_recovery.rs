//! Engine-level crash-recovery checks over fixed configurations.
//!
//! A seeded workload (updates + an active self-updating rule) runs with
//! a WAL attached; the suite then
//!
//! * recovers a fresh engine from the WAL and asserts it is
//!   tuple-identical to the engine that never crashed — under each
//!   `ExecStrategy` (serial/parallel);
//! * recovers one engine in incremental mode and one in naive
//!   (full-recompute) mode and asserts their rule behaviour agrees —
//!   the `NaiveMonitor` oracle of §6.
//!
//! The generated histories, and the crash at every byte offset of the
//! WAL, are axes of `equivalence.rs`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use amos_core::propagate::ExecStrategy;
use amos_db::{Amos, EngineOptions, ExecResult, MonitorMode, Tuple, WalConfig};
use amos_storage::{SNAPSHOT_FILE, WAL_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function threshold(item i) -> integer;

    create rule refill() as
        when for each item i
        where quantity(i) < threshold(i)
        do set quantity(i) = 500;
"#;

const POPULATE: &str = r#"
    create item instances :a, :b, :c, :d;
    set threshold(:a) = 100;
    set threshold(:b) = 150;
    set threshold(:c) = 200;
    set threshold(:d) = 250;
    set quantity(:a) = 300;
    set quantity(:b) = 300;
    set quantity(:c) = 300;
    set quantity(:d) = 300;
"#;

const ITEMS: [&str; 4] = ["a", "b", "c", "d"];

/// A scratch directory, removed when dropped (by a failing test too).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("amos-dbcrash-{}-{n}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    /// A copy of the WAL and snapshot, for a recovery to attach to.
    fn copy(&self) -> TempDir {
        let to = TempDir::new();
        for f in [WAL_FILE, SNAPSHOT_FILE] {
            if self.0.join(f).exists() {
                std::fs::copy(self.0.join(f), to.0.join(f)).unwrap();
            }
        }
        to
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Engine with the config applied, the WAL attached, and the schema
/// loaded (which adopts any recovered relations). No instances yet.
fn mk_engine(dir: &Path, strategy: ExecStrategy, mode: MonitorMode) -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        propagation: strategy,
        ..EngineOptions::default()
    });
    db.set_monitor_mode(mode);
    db.attach_wal(dir, WalConfig::default()).unwrap();
    db.execute(SCHEMA).unwrap();
    db
}

/// A fully populated engine with the rule active. On a recovery dir the
/// item interface variables are rebound from the recovered extent.
fn build(dir: &Path, strategy: ExecStrategy, mode: MonitorMode) -> Amos {
    let mut db = mk_engine(dir, strategy, mode);
    let items = db.query("select i for each item i;").unwrap();
    if items.is_empty() {
        db.execute(POPULATE).unwrap();
    } else {
        // Recovered world: oids come back in creation order.
        assert_eq!(items.len(), ITEMS.len());
        for (name, row) in ITEMS.iter().zip(&items) {
            db.bind_iface(name, row[0].clone());
        }
    }
    db.execute("activate refill();").unwrap();
    db
}

/// One seeded transaction: set 1–3 random items to random quantities.
fn txn_script(rng: &mut StdRng) -> String {
    let mut s = String::from("begin;\n");
    for _ in 0..rng.gen_range(1usize..=3) {
        let item = ITEMS[rng.gen_range(0usize..ITEMS.len())];
        let v = rng.gen_range(0i64..600);
        s.push_str(&format!("set quantity(:{item}) = {v};\n"));
    }
    s.push_str("commit;\n");
    s
}

/// Run `n` seeded transactions; returns the rule firings observed.
fn run_txns(db: &mut Amos, rng: &mut StdRng, n: usize) -> Vec<(String, usize)> {
    let mut fired = Vec::new();
    for _ in 0..n {
        for r in db.execute(&txn_script(rng)).unwrap() {
            if let ExecResult::Committed(summary) = r {
                assert!(summary.failed.is_empty());
                fired.extend(summary.executed);
            }
        }
    }
    fired
}

/// Every base relation's contents, keyed by name.
fn all_relations(db: &Amos) -> BTreeMap<String, BTreeSet<Tuple>> {
    let s = db.storage();
    s.relation_ids()
        .map(|id| {
            let r = s.relation(id);
            (r.name().to_string(), r.scan().cloned().collect())
        })
        .collect()
}

#[test]
fn recovered_engine_matches_uncrashed_engine_for_each_config() {
    let strategies = [ExecStrategy::Serial, ExecStrategy::Parallel];
    for (si, strategy) in strategies.into_iter().enumerate() {
        let dir = TempDir::new();
        let seed = 1000 + si as u64;

        let mut live = build(&dir.0, strategy, MonitorMode::Incremental);
        let mut rng = StdRng::seed_from_u64(seed);
        run_txns(&mut live, &mut rng, 10);

        // "Crash": recover a fresh engine from a copy of the WAL.
        let rdir = dir.copy();
        let mut recovered = build(&rdir.0, strategy, MonitorMode::Incremental);
        assert_eq!(
            all_relations(&recovered),
            all_relations(&live),
            "{strategy:?}: recovered state must equal the uncrashed engine"
        );

        // Both engines must behave identically from here on.
        let mut rng_a = StdRng::seed_from_u64(seed + 7);
        let mut rng_b = StdRng::seed_from_u64(seed + 7);
        let fired_live = run_txns(&mut live, &mut rng_a, 4);
        let fired_rec = run_txns(&mut recovered, &mut rng_b, 4);
        assert_eq!(fired_rec, fired_live, "{strategy:?}: probe firings");
        assert_eq!(all_relations(&recovered), all_relations(&live));
    }
}

#[test]
fn recovered_incremental_agrees_with_naive_oracle() {
    // Two seeded histories.
    for seed in [7, 8] {
        let dir = TempDir::new();
        {
            let mut db = build(&dir.0, ExecStrategy::Parallel, MonitorMode::Incremental);
            let mut rng = StdRng::seed_from_u64(seed);
            run_txns(&mut db, &mut rng, 8);
        }

        let (inc_dir, naive_dir) = (dir.copy(), dir.copy());
        let mut inc = build(&inc_dir.0, ExecStrategy::Parallel, MonitorMode::Incremental);
        let mut naive = build(&naive_dir.0, ExecStrategy::Serial, MonitorMode::Naive);
        assert_eq!(all_relations(&inc), all_relations(&naive));

        // Identical probes: the incremental engine must fire exactly as
        // the naive full-recompute oracle does.
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        let fired_inc = run_txns(&mut inc, &mut rng_a, 5);
        let fired_naive = run_txns(&mut naive, &mut rng_b, 5);
        assert_eq!(
            fired_inc, fired_naive,
            "seed {seed}: incremental vs naive oracle"
        );
        assert_eq!(all_relations(&inc), all_relations(&naive));
    }
}

//! Engine-level crash-recovery differential suite.
//!
//! A seeded workload (updates + an active self-updating rule) runs with
//! a WAL attached; the suite then
//!
//! * recovers a fresh engine from the WAL and asserts it is
//!   tuple-identical to the engine that never crashed — under every
//!   `CheckLevel` (raw/nervous/strict) and `ExecStrategy`
//!   (serial/parallel);
//! * simulates a crash at **every byte offset** of the WAL, recovers,
//!   and asserts the recovered relations match an independent replay of
//!   the surviving (CRC-complete) batches — the prefix-durability and
//!   atomic-commit invariants end to end;
//! * recovers one engine in incremental mode and one in naive
//!   (full-recompute) mode and asserts their rule behaviour agrees —
//!   the `NaiveMonitor` oracle of §6.
//!
//! Set `AMOS_SWEEP_STRIDE=<n>` to thin the offset sweep (CI caps
//! runtime this way); default is every offset.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use amos_core::propagate::ExecStrategy;
use amos_db::{Amos, CheckLevel, EngineOptions, ExecResult, MonitorMode, Tuple, WalConfig};
use amos_storage::{read_wal_bytes, LogOp, WAL_FILE};
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

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-dbcrash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_wal(from: &Path, name: &str) -> PathBuf {
    let to = tmpdir(name);
    for f in [WAL_FILE, amos_storage::SNAPSHOT_FILE] {
        if from.join(f).exists() {
            std::fs::copy(from.join(f), to.join(f)).unwrap();
        }
    }
    to
}

/// Engine with the config applied, the WAL attached, and the schema
/// loaded (which adopts any recovered relations). No instances yet.
fn mk_engine(dir: &Path, level: CheckLevel, strategy: ExecStrategy, mode: MonitorMode) -> Amos {
    let mut db = Amos::with_options(EngineOptions {
        propagation: strategy,
        ..EngineOptions::default()
    });
    db.set_check_level(level);
    db.set_monitor_mode(mode);
    db.attach_wal(dir, WalConfig::default()).unwrap();
    db.execute(SCHEMA).unwrap();
    db
}

/// A fully populated engine with the rule active. On a recovery dir the
/// item interface variables are rebound from the recovered extent.
fn build(dir: &Path, level: CheckLevel, strategy: ExecStrategy, mode: MonitorMode) -> Amos {
    let mut db = mk_engine(dir, level, strategy, mode);
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
    let levels = [CheckLevel::Raw, CheckLevel::Nervous, CheckLevel::Strict];
    let strategies = [ExecStrategy::Serial, ExecStrategy::Parallel];
    for (li, level) in levels.into_iter().enumerate() {
        for (si, strategy) in strategies.into_iter().enumerate() {
            let tag = format!("cfg{li}{si}");
            let dir = tmpdir(&tag);
            let seed = 1000 + (li * 2 + si) as u64;

            let mut live = build(&dir, level, strategy, MonitorMode::Incremental);
            let mut rng = StdRng::seed_from_u64(seed);
            run_txns(&mut live, &mut rng, 10);

            // "Crash": recover a fresh engine from a copy of the WAL.
            let rdir = copy_wal(&dir, &format!("{tag}-rec"));
            let mut recovered = build(&rdir, level, strategy, MonitorMode::Incremental);
            assert_eq!(
                all_relations(&recovered),
                all_relations(&live),
                "{level:?}/{strategy:?}: recovered state must equal the uncrashed engine"
            );

            // Both engines must behave identically from here on.
            let mut rng_a = StdRng::seed_from_u64(seed + 7);
            let mut rng_b = StdRng::seed_from_u64(seed + 7);
            let fired_live = run_txns(&mut live, &mut rng_a, 4);
            let fired_rec = run_txns(&mut recovered, &mut rng_b, 4);
            assert_eq!(
                fired_rec, fired_live,
                "{level:?}/{strategy:?}: probe firings"
            );
            assert_eq!(all_relations(&recovered), all_relations(&live));
        }
    }
}

#[test]
fn crash_at_every_wal_offset_recovers_the_durable_prefix() {
    let dir = tmpdir("sweep");
    {
        let mut db = build(
            &dir,
            CheckLevel::Nervous,
            ExecStrategy::Parallel,
            MonitorMode::Incremental,
        );
        let mut rng = StdRng::seed_from_u64(99);
        run_txns(&mut db, &mut rng, 8);
    }
    let bytes = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let stride: usize = std::env::var("AMOS_SWEEP_STRIDE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);

    let crash_dir = tmpdir("sweep-crash");
    let mut cut = 0usize;
    while cut <= bytes.len() {
        std::fs::write(crash_dir.join(WAL_FILE), &bytes[..cut]).unwrap();
        let _ = std::fs::remove_file(crash_dir.join(amos_storage::SNAPSHOT_FILE));

        // Independent oracle: replay the CRC-complete batches of the
        // surviving prefix with plain set semantics.
        let surviving = read_wal_bytes(&bytes[..cut]).unwrap();
        let mut oracle: BTreeMap<String, BTreeSet<Tuple>> = BTreeMap::new();
        for batch in &surviving.batches {
            for rec in &batch.records {
                let rel = oracle.entry(rec.rel.clone()).or_default();
                match rec.op {
                    LogOp::Insert => {
                        rel.insert(rec.tuple.clone());
                    }
                    LogOp::Delete => {
                        rel.remove(&rec.tuple);
                    }
                }
            }
        }

        // Schema-only recovery: POPULATE must not run here — it would
        // re-insert instances and diverge from the durable prefix.
        let recovered = mk_engine(
            &crash_dir,
            CheckLevel::Nervous,
            ExecStrategy::Parallel,
            MonitorMode::Incremental,
        );
        for (name, tuples) in all_relations(&recovered) {
            let expect = oracle.get(&name).cloned().unwrap_or_default();
            assert_eq!(
                tuples, expect,
                "cut at byte {cut}: relation `{name}` must match the oracle replay"
            );
        }
        cut += stride;
    }
    // Make sure a recovered engine is actually usable after a torn cut.
    let torn_cut = bytes.len() - 3;
    std::fs::write(crash_dir.join(WAL_FILE), &bytes[..torn_cut]).unwrap();
    let mut recovered = build(
        &crash_dir,
        CheckLevel::Nervous,
        ExecStrategy::Parallel,
        MonitorMode::Incremental,
    );
    let mut rng = StdRng::seed_from_u64(5);
    run_txns(&mut recovered, &mut rng, 2);
}

#[test]
fn recovered_incremental_agrees_with_naive_oracle() {
    for (i, level) in [CheckLevel::Nervous, CheckLevel::Strict]
        .into_iter()
        .enumerate()
    {
        let tag = format!("oracle{i}");
        let dir = tmpdir(&tag);
        {
            let mut db = build(
                &dir,
                level,
                ExecStrategy::Parallel,
                MonitorMode::Incremental,
            );
            let mut rng = StdRng::seed_from_u64(7 + i as u64);
            run_txns(&mut db, &mut rng, 8);
        }

        let inc_dir = copy_wal(&dir, &format!("{tag}-inc"));
        let naive_dir = copy_wal(&dir, &format!("{tag}-naive"));
        let mut inc = build(
            &inc_dir,
            level,
            ExecStrategy::Parallel,
            MonitorMode::Incremental,
        );
        let mut naive = build(&naive_dir, level, ExecStrategy::Serial, MonitorMode::Naive);
        assert_eq!(all_relations(&inc), all_relations(&naive));

        // Identical probes: the incremental engine must fire exactly as
        // the naive full-recompute oracle does.
        let mut rng_a = StdRng::seed_from_u64(31);
        let mut rng_b = StdRng::seed_from_u64(31);
        let fired_inc = run_txns(&mut inc, &mut rng_a, 5);
        let fired_naive = run_txns(&mut naive, &mut rng_b, 5);
        assert_eq!(
            fired_inc, fired_naive,
            "{level:?}: incremental vs naive oracle"
        );
        assert_eq!(all_relations(&inc), all_relations(&naive));
    }
}

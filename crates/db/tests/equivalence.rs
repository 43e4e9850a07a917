//! The db-side equivalence oracles, as one generated-history harness.
//!
//! The paper's deferred check phase runs once per commit, so sessions
//! are safe for it only while a concurrent history, replayed serially in
//! commit order, leaves the same stored state, firing log and check
//! summaries (DESIGN.md invariant 10), and while recovery adopts exactly
//! the durable prefix of that history. One generator draws a [`Case`]: a
//! world of 4–6 items whose rules note low stock and/or refill it (a
//! write-back cascade), k sessions, an execution strategy, a WAL group window, and a seeded interleaving of
//! transactions over one statement generator. Three drivers produce
//! histories: concurrent sessions ([`concurrent`]), a replay on an
//! embedded engine ([`serial`]), and recovery from a WAL directory
//! ([`Case::engine`] on a directory that holds one). [`drive`] runs the
//! cases through one [`Axis`], and each axis is one `#[test]` line. It
//! asserts that the mechanisms the oracles exist to check engaged: a
//! conflict abort was retried, the write-back cascade fired, a write
//! that cancels out committed, a transaction added and removed one
//! tuple of the multi-valued `tag`, and the parallel executor was
//! drawn. A divergence prints the case as its AMOSQL history.
//!
//! Two named tests pin schedules the generator would only sample: a
//! hot-key conflict, and a transaction whose writes cancel out but whose
//! reads went stale.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use amos_core::rules::CheckSummary;
use amos_db::{
    Amos, DbError, EngineOptions, ExecResult, ExecStrategy, MonitorMode, RecoveryInfo,
    SharedEngine, Tuple, Value, WalConfig,
};
use amos_storage::wal::WAL_MAGIC;
use amos_storage::{read_wal_bytes, LogOp, SNAPSHOT_FILE, WAL_FILE};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// The cases an axis runs unless `PROPTEST_CASES` asks for more: 16
/// histories under each rule set.
const MIN_CASES: u32 = 48;
/// Transactions each session commits.
const TXNS: usize = 3;
/// Every how many cases a byte or a record crash sweep runs. A byte
/// sweep costs one recovery (and one fsync) per WAL byte, a record sweep
/// a whole history per WAL record, so their cases have two sessions.
const SWEEP_PERIOD: u32 = 48;

/// Base relations by name, each as its sorted tuples: what recovery
/// restores and what the drivers compare, below the catalog.
type Relations = BTreeMap<String, String>;

fn render<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> String {
    let sorted: BTreeSet<&Tuple> = tuples.into_iter().collect();
    sorted.iter().map(|t| format!("{t} ")).collect()
}

fn relations(db: &Amos) -> Relations {
    let s = db.storage();
    let rels = s.relation_ids().map(|id| s.relation(id));
    rels.map(|r| (r.name().to_string(), render(r.scan())))
        .collect()
}

fn item(i: usize) -> String {
    format!(":i{i}")
}

/// Whether `stmt` is a write that cancels out: `set quantity(a) = quantity(a);`.
fn cancels(stmt: &str) -> bool {
    let sides = stmt.strip_prefix("set quantity(");
    let sides = sides.and_then(|s| s.split_once(") = quantity("));
    sides.is_some_and(|(a, b)| b == format!("{a});"))
}

/// Whether `group` adds and removes the same `tag` tuple.
fn toggles(group: &str) -> bool {
    let stmts: Vec<&str> = group.split_inclusive(';').map(str::trim).collect();
    let removed = |t: &str| stmts.contains(&format!("remove {t}").as_str());
    stmts
        .iter()
        .any(|s| s.strip_prefix("add ").is_some_and(removed))
}

/// One statement: a blind write, a single-key read-modify-write, a
/// cross-key read, a scan followed by a write, a write that cancels
/// out, an `add` or a `remove` of a `tag` value, or both on one tuple in
/// either order (each of which is a no-op when it does not change the
/// visible state).
fn statement(rng: &mut TestRng, items: usize) -> String {
    let a = item(rng.usize_below(items));
    let b = item(rng.usize_below(items));
    let mut below = |n: usize| rng.usize_below(n);
    let tag = |op: &str, k: usize| format!("{op} tag({a}) = {k};");
    match below(13) {
        0..=1 => format!("set quantity({a}) = {};", below(120)),
        2..=4 => {
            let op = if below(2) == 0 { "+" } else { "-" };
            format!("set quantity({a}) = quantity({a}) {op} {};", 1 + below(19))
        }
        5..=6 => format!("set quantity({a}) = quantity({b}) + {};", below(9)),
        7 => format!(
            "select quantity(i) for each item i; set threshold({a}) = {};",
            40 + below(20)
        ),
        8 => format!("set quantity({a}) = quantity({a});"),
        9 => tag("add", below(3)),
        10 => tag("remove", below(3)),
        _ => {
            let k = below(3);
            let ops = [tag("add", k), tag("remove", k)];
            let first = below(2);
            format!("{} {}", ops[first], ops[1 - first])
        }
    }
}

fn transaction(rng: &mut TestRng, items: usize) -> Vec<String> {
    let n = 1 + rng.usize_below(3);
    (0..n).map(|_| statement(rng, items)).collect()
}

/// One generated history. The rule set follows from the case number, so
/// every 3 cases meet each; the rest is drawn.
/// `trace` keeps the interleaving the last concurrent run took.
struct Case {
    n: u32,
    items: usize,
    low: bool,
    refill: bool,
    strategy: ExecStrategy,
    window: usize,
    seed: u64,
    sessions: Vec<Vec<Vec<String>>>,
    follow_ups: Vec<Vec<String>>,
    trace: RefCell<Vec<String>>,
}

/// A case's engine, with the `note` sink its `low` rule writes to, and
/// what recovery found when it was built on a WAL directory.
struct World {
    db: Amos,
    noted: Arc<Mutex<Vec<Value>>>,
    recovered: Option<RecoveryInfo>,
}

impl Case {
    fn generate(n: u32, rng: &mut TestRng) -> Case {
        let items = 4 + rng.usize_below(3);
        let k = match n % SWEEP_PERIOD {
            1 | 2 => 2,
            _ => 1 + rng.usize_below(8),
        };
        let rules = n % 3;
        let txns = |rng: &mut TestRng| (0..TXNS).map(|_| transaction(rng, items)).collect();
        Case {
            n,
            items,
            low: rules != 1,
            refill: rules != 0,
            strategy: [ExecStrategy::Serial, ExecStrategy::Parallel][rng.usize_below(2)],
            window: 1 + rng.usize_below(4),
            seed: rng.next_u64(),
            sessions: (0..k).map(|_| txns(rng)).collect(),
            follow_ups: (0..4).map(|_| transaction(rng, items)).collect(),
            trace: RefCell::default(),
        }
    }

    fn schema(&self) -> String {
        let mut s = String::from(
            "create type item;\n\
             create function quantity(item i) -> integer;\n\
             create function threshold(item i) -> integer;\n\
             create function tag(item i) -> integer;\n",
        );
        let when = "when for each item i where quantity(i) < threshold(i)";
        if self.low {
            s += &format!("create rule low() as {when} do note(i);\n");
        }
        if self.refill {
            s += &format!("create rule refill() as {when} do set quantity(i) = 500;\n");
        }
        s
    }

    fn populate(&self) -> String {
        let names: Vec<String> = (0..self.items).map(item).collect();
        let mut s = format!("begin;\ncreate item instances {};\n", names.join(", "));
        for (i, name) in names.iter().enumerate() {
            s += &format!("set quantity({name}) = {}; ", 100 + i);
            s += &format!("set threshold({name}) = 50; add tag({name}) = {};\n", i % 3);
        }
        s + "commit;\n"
    }

    fn activate(&self) -> String {
        let rules = [("low", self.low), ("refill", self.refill)];
        let active = rules.iter().filter(|(_, on)| *on);
        active.map(|(r, _)| format!("activate {r}();\n")).collect()
    }

    /// This case's world in `mode`, logging to `wal` when given. On a
    /// directory that already holds a world, the schema adopts the
    /// recovered relations and the item variables are rebound from the
    /// recovered extent (oids come back in creation order).
    fn engine(&self, mode: MonitorMode, wal: Option<(&Path, WalConfig)>) -> World {
        let mut db = Amos::with_options(EngineOptions {
            propagation: self.strategy,
            ..EngineOptions::default()
        });
        db.set_monitor_mode(mode);
        let noted: Arc<Mutex<Vec<Value>>> = Arc::default();
        let sink = noted.clone();
        db.register_procedure("note", move |_ctx, args| {
            sink.lock().unwrap().push(args[0].clone());
            Ok(())
        });
        let recovered = wal.map(|(dir, config)| db.attach_wal(dir, config).unwrap());
        db.execute(&self.schema()).unwrap();
        let items = db.query("select i for each item i;").unwrap();
        if items.is_empty() {
            db.execute(&self.populate()).unwrap();
        } else {
            assert_eq!(items.len(), self.items, "recovered extent");
            for (i, row) in items.iter().enumerate() {
                db.bind_iface(&format!("i{i}"), row[0].clone());
            }
        }
        db.execute(&self.activate()).unwrap();
        World {
            db,
            noted,
            recovered,
        }
    }

    /// This case's incremental world logging to `dir` through `config`.
    fn at(&self, dir: &TempDir, config: WalConfig) -> World {
        self.engine(MonitorMode::Incremental, Some((&dir.0, config)))
    }

    /// The concurrent driver's world, logging through the case's group
    /// window.
    fn logged(&self, dir: &TempDir) -> World {
        self.at(dir, WalConfig::grouped(self.window))
    }
}

/// The case as AMOSQL: its configuration, world, each session's
/// transactions, and the interleaving its last concurrent run took.
impl fmt::Display for Case {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "-- case {}: {:?}, {} sessions, WAL window {}, interleaving seed {}",
            self.n,
            self.strategy,
            self.sessions.len(),
            self.window,
            self.seed
        )?;
        write!(f, "{}{}{}", self.schema(), self.populate(), self.activate())?;
        for (p, txns) in self.sessions.iter().enumerate() {
            for txn in txns {
                writeln!(f, "-- s{p}: begin; {} commit;", txn.join(" "))?;
            }
        }
        for txn in &self.follow_ups {
            writeln!(f, "-- follow-up: begin; {} commit;", txn.join(" "))?;
        }
        writeln!(f, "-- interleaving:")?;
        self.trace
            .borrow()
            .iter()
            .try_for_each(|l| writeln!(f, "{l}"))
    }
}

/// A scratch directory, removed when dropped (by a failing case too).
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let name = format!("amos-dbeq-{}-{n}", std::process::id());
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

    fn wal(&self) -> Vec<u8> {
        std::fs::read(self.0.join(WAL_FILE)).unwrap()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a driver committed and what it left behind.
#[derive(Default)]
struct History {
    /// Every finished transaction in order: committed or aborted, and
    /// its statements.
    log: Vec<(bool, String)>,
    /// One per committed transaction.
    summaries: Vec<CheckSummary>,
    noted: Vec<Value>,
    /// The stored state before the first commit and after each one.
    states: Vec<Relations>,
    /// Batches made durable after each commit (a pipelined replay's
    /// lag its commits until the final wait).
    durable: Vec<u64>,
}

impl History {
    fn committed(&self) -> impl Iterator<Item = &str> {
        self.log.iter().filter(|(c, _)| *c).map(|(_, g)| g.as_str())
    }

    /// The commits that wrote a WAL batch, by position: a commit that
    /// changed nothing (a write-set that nets to nothing, an `add` of a
    /// visible tuple) writes none.
    #[cfg(feature = "fault-injection")]
    fn writers(&self) -> Vec<usize> {
        let wrote = |&i: &usize| self.durable[i + 1] > self.durable[i];
        (0..self.summaries.len()).filter(wrote).collect()
    }

    /// Assert that `twin` passed through the same states, naming the
    /// first commit after which they differ.
    fn assert_same_states(&self, twin: &History) {
        let pairs = self.states.iter().zip(&twin.states);
        if let Some(i) = pairs.clone().position(|(a, b)| a != b) {
            let group = i.checked_sub(1).and_then(|c| self.committed().nth(c));
            panic!(
                "state after commit {i} ({group:?}) diverged:\n  {:?}\n  {:?}",
                self.states[i], twin.states[i]
            );
        }
        assert_eq!(self.states.len(), twin.states.len(), "commits");
    }
}

fn commit_summary(results: &[ExecResult]) -> CheckSummary {
    let summary = results.iter().find_map(|r| match r {
        ExecResult::Committed(s) => Some(s.clone()),
        _ => None,
    });
    summary.expect("a commit summary")
}

/// Driver: the case's sessions on one shared engine over `world`,
/// advanced a statement at a time in the case's seeded interleaving. A
/// transaction that loses validation retries from `begin`.
fn concurrent(case: &Case, world: World) -> (History, Arc<SharedEngine>) {
    let state = |engine: &SharedEngine| engine.with_read(relations);
    let durable =
        |engine: &SharedEngine| engine.with_read(|db| db.wal_metrics().map_or(0, |m| m.batches));
    let engine = SharedEngine::new(world.db);
    let mut h = History {
        states: vec![state(&engine)],
        durable: vec![durable(&engine)],
        ..History::default()
    };
    let mut rng = TestRng::for_test(&format!("interleaving {}", case.seed));
    let k = case.sessions.len();
    let mut sessions: Vec<_> = (0..k).map(|_| engine.session()).collect();
    // Per session: (transaction, step); step 0 is `begin`, the last `commit`.
    let mut at = vec![(0, 0); k];
    let mut trace = case.trace.borrow_mut();
    trace.clear();
    while at.iter().any(|&(t, _)| t < TXNS) {
        assert!(trace.len() < 100_000, "livelock");
        let p = rng.usize_below(k);
        let (t, step) = at[p];
        let Some(txn) = case.sessions[p].get(t) else {
            continue;
        };
        let stmt = match step {
            0 => "begin;",
            s if s <= txn.len() => &txn[s - 1],
            _ => "commit;",
        };
        trace.push(format!("s{p}> {stmt}"));
        match sessions[p].execute(stmt) {
            Ok(results) if step > txn.len() => {
                h.log.push((true, txn.join(" ")));
                h.summaries.push(commit_summary(&results));
                h.states.push(state(&engine));
                h.durable.push(durable(&engine));
                at[p] = (t + 1, 0);
            }
            Ok(_) => at[p].1 += 1,
            Err(e) if e.is_retryable() => {
                trace.push(format!("-- s{p} aborted: {e}"));
                h.log.push((false, txn.join(" ")));
                at[p] = (t, 0);
            }
            Err(e) => panic!("s{p}> {stmt}: {e}"),
        }
    }
    h.noted = world.noted.lock().unwrap().clone();
    (h, engine)
}

/// Driver: `log` replayed in order on an embedded engine; committed
/// transactions commit, aborted ones roll back. `pipelined` commits with
/// deferred durability and waits for every batch only at the end, so
/// the whole history is one WAL group.
fn serial(world: World, log: &[(bool, String)], pipelined: bool) -> History {
    let World { mut db, noted, .. } = world;
    let durable = |db: &Amos| db.wal_metrics().map_or(0, |m| m.batches);
    let mut h = History {
        log: log.to_vec(),
        states: vec![relations(&db)],
        durable: vec![durable(&db)],
        ..History::default()
    };
    let mut waiters = Vec::new();
    for (committed, group) in log {
        db.begin().unwrap();
        db.execute(group).unwrap();
        if !committed {
            db.rollback().unwrap();
            continue;
        }
        let summary = if pipelined {
            let (summary, waiter) = db.commit_deferred_durability().unwrap();
            waiters.extend(waiter);
            summary
        } else {
            db.commit().unwrap()
        };
        h.summaries.push(summary);
        h.states.push(relations(&db));
        h.durable.push(durable(&db));
    }
    waiters.into_iter().for_each(|w| w.wait().unwrap());
    h.noted = noted.lock().unwrap().clone();
    h
}

/// Run `txns` as transactions, returning their check summaries.
fn run_txns(
    txns: &[Vec<String>],
    mut exec: impl FnMut(&str) -> Vec<ExecResult>,
) -> Vec<CheckSummary> {
    let scripts = txns
        .iter()
        .map(|t| format!("begin; {} commit;", t.join(" ")));
    scripts.map(|s| commit_summary(&exec(&s))).collect()
}

/// Crash after every record of a history whose workload writes
/// `records` WAL records, recover, and compare. `run` replays the
/// history onto the world it is given, which logs through `config` and
/// has its fault plan installed. `writers` lists, in order, the commits
/// that wrote a batch; the recovered state must be `expected`'s state
/// after the one that wrote the last adopted batch. Returns how many
/// distinct prefixes were adopted.
#[cfg(feature = "fault-injection")]
fn record_sweep(
    case: &Case,
    config: WalConfig,
    records: usize,
    writers: &[usize],
    expected: &History,
    mut run: impl FnMut(World),
) -> usize {
    use amos_storage::fault::{FaultPlan, WalFault};
    let mut adopted_seen = BTreeSet::new();
    for crash_after in 1..=records as u64 + 1 {
        let dir = TempDir::new();
        let mut world = case.at(&dir, config.clone());
        world.db.checkpoint().unwrap();
        let plan = FaultPlan::wal(WalFault::CrashAfterRecords(crash_after));
        world.db.set_fault_plan(Arc::new(plan));
        run(world);
        let rec = case.at(&dir, WalConfig::default());
        let adopted = rec.recovered.unwrap().batches_replayed;
        assert!(
            adopted <= writers.len(),
            "recovered more batches than commits"
        );
        let after = adopted.checked_sub(1).map_or(0, |a| writers[a] + 1);
        assert_eq!(
            relations(&rec.db),
            expected.states[after],
            "crash after {crash_after} records: the recovery of {adopted} batches is not \
             the state after commit {after}"
        );
        adopted_seen.insert(adopted);
    }
    adopted_seen.len()
}

/// The oracles. Each compares two ways of producing or restoring the
/// same history.
#[derive(Debug, Clone, Copy)]
enum Axis {
    /// Concurrent sessions ≡ their committed transactions replayed in
    /// commit order on an identically configured embedded engine: the
    /// state after every commit, the firing log and every check summary.
    SerialReplay,
    /// Concurrent sessions ≡ a replay on a naive-monitor twin, which
    /// recomputes each condition from scratch: the state after every
    /// commit, the firing log and the rules each commit executed.
    NaiveReplay,
    /// The WAL of a concurrent run recovers the committed state; the
    /// recovered and the live engine then fire alike on the same
    /// follow-up transactions, and so does a naive-mode recovery.
    WalReplay,
    /// A crash at every byte of the WAL recovers exactly its
    /// CRC-complete batches, and a torn log leaves a usable engine.
    CrashEveryOffset,
    /// A crash after every WAL record, through session commits, the
    /// embedded three-commit durability window and a pipelined group,
    /// recovers exactly the commits whose batches landed whole.
    #[cfg(feature = "fault-injection")]
    CrashMidGroup,
}

impl Axis {
    /// Whether `case` meets this axis: the sweeps run every
    /// [`SWEEP_PERIOD`]-th case, the rest every case.
    fn applies(self, case: &Case) -> bool {
        match self {
            Axis::CrashEveryOffset => case.n % SWEEP_PERIOD == 1,
            #[cfg(feature = "fault-injection")]
            Axis::CrashMidGroup => case.n % SWEEP_PERIOD == 2,
            _ => true,
        }
    }

    /// Run `case` through the axis (panicking on a divergence); returns
    /// the concurrent history it checked.
    fn run(self, case: &Case) -> History {
        // Only the axes that read the live run's WAL pay for its fsyncs.
        let dir = TempDir::new();
        let world = match self {
            Axis::WalReplay | Axis::CrashEveryOffset => case.logged(&dir),
            _ => case.engine(MonitorMode::Incremental, None),
        };
        let (live, engine) = concurrent(case, world);
        let committed: Vec<_> = live.log.iter().filter(|(c, _)| *c).cloned().collect();
        let replay = |mode| serial(case.engine(mode, None), &committed, false);
        let executed =
            |h: &[CheckSummary]| h.iter().map(|s| s.executed.clone()).collect::<Vec<_>>();
        match self {
            Axis::SerialReplay => {
                let twin = replay(MonitorMode::Incremental);
                live.assert_same_states(&twin);
                assert_eq!(live.noted, twin.noted, "firing log");
                assert_eq!(live.summaries, twin.summaries, "check summaries");
            }
            Axis::NaiveReplay => {
                let twin = replay(MonitorMode::Naive);
                live.assert_same_states(&twin);
                assert_eq!(live.noted, twin.noted, "firing log");
                let naive_ran = executed(&twin.summaries);
                assert_eq!(executed(&live.summaries), naive_ran, "rules executed");
            }
            Axis::WalReplay => {
                let (inc_dir, naive_dir) = (dir.copy(), dir.copy());
                let config = WalConfig::grouped(case.window);
                let recover =
                    |mode, dir: &TempDir| case.engine(mode, Some((&dir.0, config.clone())));
                let mut rec = recover(MonitorMode::Incremental, &inc_dir);
                let state = live.states.last().unwrap();
                assert_eq!(&relations(&rec.db), state, "recovered state");
                let replayed = rec.recovered.as_ref().unwrap().batches_replayed;
                assert_eq!(
                    Some(&(replayed as u64)),
                    live.durable.last(),
                    "batches recovered"
                );
                let ups = &case.follow_ups;
                let ran = run_txns(ups, |s| engine.with_write(|db| db.execute(s).unwrap()));
                let rec_ran = run_txns(ups, |s| rec.db.execute(s).unwrap());
                assert_eq!(rec_ran, ran, "follow-ups on the recovered engine");
                let after = engine.with_read(relations);
                assert_eq!(relations(&rec.db), after, "state after the follow-ups");
                let mut naive = recover(MonitorMode::Naive, &naive_dir);
                let naive_ran = run_txns(ups, |s| naive.db.execute(s).unwrap());
                assert_eq!(executed(&naive_ran), executed(&rec_ran), "naive recovery");
                assert_eq!(relations(&naive.db), after, "naive recovery's state");
            }
            Axis::CrashEveryOffset => {
                drop(engine);
                crash_every_offset(case, &dir.wal());
            }
            #[cfg(feature = "fault-injection")]
            Axis::CrashMidGroup => {
                drop(engine);
                crash_mid_group(case, &live);
            }
        }
        live
    }
}

/// [`Axis::CrashEveryOffset`] over the WAL `bytes` of a finished run.
/// The oracle walks the frame headers of the whole log (an 8-byte
/// sequence number, a 4-byte payload length, the payload and a 4-byte
/// CRC), so a cut keeps exactly the batches whose frames end at or
/// before it, applied with plain set semantics. It shares no code with
/// the reader's handling of a torn tail.
fn crash_every_offset(case: &Case, bytes: &[u8]) {
    let batches = read_wal_bytes(bytes).unwrap().batches;
    let mut ends = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap());
        pos += 16 + len as usize;
        ends.push(pos);
    }
    assert_eq!((pos, ends.len()), (bytes.len(), batches.len()), "frames");
    assert!(ends.len() > 1, "the sweep must cross frame boundaries");
    // The state after each prefix of whole batches.
    let mut state: BTreeMap<String, BTreeSet<Tuple>> = BTreeMap::new();
    let mut prefixes = vec![Relations::new()];
    for batch in batches {
        for rec in batch.records {
            let rel = state.entry(rec.rel).or_default();
            match rec.op {
                LogOp::Insert => rel.insert(rec.tuple),
                LogOp::Delete => rel.remove(&rec.tuple),
            };
        }
        prefixes.push(state.iter().map(|(r, t)| (r.clone(), render(t))).collect());
    }
    let dir = TempDir::new();
    for cut in 0..=bytes.len() {
        std::fs::write(dir.0.join(WAL_FILE), &bytes[..cut]).unwrap();
        let whole = ends.iter().take_while(|&&end| end <= cut).count();
        let mut db = Amos::new();
        db.attach_wal(&dir.0, WalConfig::default()).unwrap();
        let at = format!("cut at byte {cut}, after {whole} whole frames");
        assert_eq!(relations(&db), prefixes[whole], "{at}");
    }
    // A torn last frame: the engine recovers, adopts the schema and
    // keeps committing.
    std::fs::write(dir.0.join(WAL_FILE), &bytes[..bytes.len() - 3]).unwrap();
    let mut rec = case.at(&dir, WalConfig::default());
    run_txns(&case.follow_ups, |s| rec.db.execute(s).unwrap());
}

/// [`Axis::CrashMidGroup`]: three record sweeps over the history `live`
/// ran, each asserting that the crash points split it in more than one
/// place.
#[cfg(feature = "fault-injection")]
fn crash_mid_group(case: &Case, live: &History) {
    let records = |dir: &TempDir| {
        let batches = read_wal_bytes(&dir.wal()).unwrap().batches;
        batches.iter().map(|b| b.records.len()).sum::<usize>()
    };
    let embedded = case.engine(MonitorMode::Incremental, None);
    let replay = serial(embedded, &live.log, false);
    // Through session commits: the same interleaving reruns at every
    // crash point, so the history is the same. Which commits wrote a
    // batch is learned from a clean run.
    let dir = TempDir::new();
    let mut world = case.logged(&dir);
    world.db.checkpoint().unwrap();
    let (clean, _) = concurrent(case, world);
    assert_eq!(clean.log, live.log);
    let config = WalConfig::grouped(case.window);
    let seen = record_sweep(
        case,
        config,
        records(&dir),
        &clean.writers(),
        &replay,
        |world| {
            assert_eq!(concurrent(case, world).0.log, live.log);
        },
    );
    assert!(seen > 2, "session commits: {seen} prefixes");
    // Through the embedded engine: with a three-commit durability
    // window, and pipelined.
    let dir = TempDir::new();
    let mut world = case.at(&dir, WalConfig::default());
    world.db.checkpoint().unwrap();
    let writers = serial(world, &live.log, false).writers();
    for (config, pipelined, floor) in [
        (WalConfig::grouped(3), false, 2),
        (WalConfig::default(), true, 1),
    ] {
        let seen = record_sweep(case, config, records(&dir), &writers, &replay, |world| {
            serial(world, &live.log, pipelined);
        });
        assert!(seen > floor, "pipelined {pipelined}: {seen} prefixes");
    }
}

/// Run `PROPTEST_CASES` cases (at least [`MIN_CASES`]) through `axis`,
/// each that it applies to, and assert that every mechanism the oracles
/// exist to check engaged: a conflict abort was retried, the refill
/// cascade fired, a write that cancels out committed, a committed
/// transaction added and removed one `tag` tuple, and the parallel
/// executor was drawn. A failure prints the case.
fn drive(axis: Axis) {
    let cases = MIN_CASES.max(ProptestConfig::with_cases(MIN_CASES).resolved_cases());
    let mut rng = TestRng::for_test(&format!("{axis:?}"));
    let (mut retried, mut cascaded, mut cancelled, mut parallel) = (false, false, false, false);
    let mut toggled = false;
    let mut ran = 0;
    for n in 0..cases {
        let case = Case::generate(n, &mut rng);
        if !axis.applies(&case) {
            continue;
        }
        ran += 1;
        let h = match catch_unwind(AssertUnwindSafe(|| axis.run(&case))) {
            Ok(h) => h,
            Err(panic) => {
                let msg = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                panic!("{axis:?} diverged on case {n}: {msg}\n{case}");
            }
        };
        retried |= h.log.iter().any(|(committed, _)| !committed);
        let refills = |s: &CheckSummary| s.executed.iter().any(|(r, n)| r == "refill" && *n > 0);
        cascaded |= h.summaries.iter().any(refills);
        let cancel = |g: &str| g.split_inclusive(';').any(|s| cancels(s.trim()));
        cancelled |= h.committed().any(cancel);
        toggled |= h.committed().any(toggles);
        parallel |= case.strategy == ExecStrategy::Parallel;
    }
    // The sweeps meet too few cases for these; each asserts its own
    // mechanism on every case it runs.
    if ran < cases {
        return;
    }
    assert!(retried, "{axis:?}: no conflict abort was retried");
    assert!(cascaded, "{axis:?}: the refill cascade never fired");
    assert!(cancelled, "{axis:?}: no write that cancels out committed");
    assert!(
        toggled,
        "{axis:?}: no committed transaction added and removed one tag"
    );
    assert!(parallel, "{axis:?}: the parallel executor was never drawn");
}

/// One `#[test]` per axis.
macro_rules! axes {
    ($($(#[$attr:meta])* $test:ident => $axis:ident,)*) => {
        $($(#[$attr])* #[test] fn $test() { drive(Axis::$axis) })*
    };
}

axes! {
    concurrent_history_equals_serial_replay => SerialReplay,
    concurrent_history_equals_naive_replay => NaiveReplay,
    recovery_restores_the_committed_state => WalReplay,
    crash_at_every_wal_offset_recovers_the_durable_prefix => CrashEveryOffset,
    #[cfg(feature = "fault-injection")]
    crash_mid_group_adopts_exactly_the_committed_prefix => CrashMidGroup,
}

/// The world the named tests run in: two items, no rules.
fn pair() -> Arc<SharedEngine> {
    let mut db = Amos::new();
    db.execute(
        "create type item; create function quantity(item i) -> integer;
         create item instances :x, :y; set quantity(:x) = 1; set quantity(:y) = 3;",
    )
    .unwrap();
    SharedEngine::new(db)
}

/// Both sessions read-modify-write the same key, overlapped: the second
/// committer aborts, and its retry lands on top of the first's.
#[test]
fn crafted_hot_key_schedule_aborts() {
    let engine = pair();
    let (mut s1, mut s2) = (engine.session(), engine.session());
    let bump = "begin; set quantity(:x) = quantity(:x) + 1;";
    s1.execute(bump).unwrap();
    s2.execute(bump).unwrap();
    s1.execute("commit;").unwrap();
    let err = s2.execute("commit;").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict { .. }), "got {err}");
    s2.execute(&format!("{bump} commit;")).unwrap();
    let x = s2.query("select quantity(:x);").unwrap();
    assert_eq!(x[0][0], Value::Int(3));
}

/// T1 reads x = 1 and sets y = x + 2 = 3, which y already holds, so its
/// write-set nets to nothing. T2 commits x = 5 in between. In commit
/// order y must become 7, so T1's commit validates its read of x and
/// aborts, and its retry sets y = 7.
#[test]
fn net_empty_write_set_still_validates_its_reads() {
    let engine = pair();
    let (mut t1, mut t2) = (engine.session(), engine.session());
    let t1_body = "begin; set quantity(:y) = quantity(:x) + 2;";
    t1.execute(t1_body).unwrap();
    t2.execute("begin; set quantity(:x) = 5; commit;").unwrap();
    let err = t1.execute("commit;").unwrap_err();
    assert!(
        matches!(&err, DbError::TxnConflict { relation } if relation == "quantity"),
        "got {err}"
    );
    assert!(err.is_retryable());
    t1.execute(&format!("{t1_body} commit;")).unwrap();
    let y = t1.query("select quantity(:y);").unwrap();
    assert_eq!(y[0][0], Value::Int(7));
}

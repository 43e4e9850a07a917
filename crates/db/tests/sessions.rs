//! Session-transaction semantics over a shared engine: snapshot reads,
//! buffered writes, first-committer-wins conflict detection, rule firing
//! at commit, the forwarding policy for out-of-transaction statements,
//! and the exact commit/abort/fsync counts of a seeded round-robin
//! schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amos_db::{Amos, DbError, ExecResult, SharedEngine, Value, WalConfig};
use amos_types::Tuple;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SCHEMA: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function threshold(item i) -> integer;
"#;

fn shared() -> Arc<SharedEngine> {
    let mut db = Amos::new();
    db.execute(SCHEMA).unwrap();
    db.execute(
        r#"
        create item instances :a, :b;
        set quantity(:a) = 100;
        set quantity(:b) = 200;
        set threshold(:a) = 10;
        set threshold(:b) = 10;
    "#,
    )
    .unwrap();
    SharedEngine::new(db)
}

fn ints(rows: &[Tuple]) -> Vec<i64> {
    rows.iter().map(|t| t[0].as_int().unwrap()).collect()
}

#[test]
fn snapshot_read_ignores_concurrent_commit() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [100]);

    // s2 commits a change after s1's snapshot.
    s2.execute("begin; set quantity(:a) = 77; commit;").unwrap();
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [77]);

    // s1 still sees its snapshot…
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [100]);
    s1.execute("rollback;").unwrap();
    // …and the new state once outside the transaction.
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [77]);
}

#[test]
fn own_writes_visible_before_commit_and_invisible_to_others() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin; set quantity(:a) = 5;").unwrap();
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [5]);
    // Buffered only: s2 (non-transactional read) sees the old value.
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [100]);

    s1.execute("commit;").unwrap();
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [5]);
}

#[test]
fn write_write_conflict_first_committer_wins() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    s2.execute("begin;").unwrap();
    s1.execute("set quantity(:a) = 1;").unwrap();
    s2.execute("set quantity(:a) = 2;").unwrap();

    // First committer wins.
    s1.execute("commit;").unwrap();
    let err = s2.execute("commit;").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict { .. }), "got {err}");
    assert!(err.is_retryable());
    assert!(err.to_string().contains("quantity"));
    assert!(!s2.in_transaction(), "conflict must abort the transaction");

    // The loser's write never reached shared state.
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [1]);

    // A retry of the same statements succeeds.
    s2.execute("begin; set quantity(:a) = 2; commit;").unwrap();
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [2]);
}

#[test]
fn disjoint_keys_do_not_conflict() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    s2.execute("begin;").unwrap();
    s1.execute("set quantity(:a) = 1;").unwrap();
    s2.execute("set quantity(:b) = 2;").unwrap();
    s1.execute("commit;").unwrap();
    // Same relation, different conflict keys: no conflict.
    s2.execute("commit;").unwrap();
    assert_eq!(ints(&s2.query("select quantity(:a);").unwrap()), [1]);
    assert_eq!(ints(&s2.query("select quantity(:b);").unwrap()), [2]);
}

#[test]
fn read_write_conflict_on_probed_key() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    s2.execute("begin;").unwrap();
    // s1 reads quantity(:a) (key probe) and writes threshold(:a).
    s1.execute("set threshold(:a) = quantity(:a) + 1;").unwrap();
    // s2 writes the key s1 read.
    s2.execute("set quantity(:a) = 0; commit;").unwrap();
    let err = s1.execute("commit;").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict { .. }), "got {err}");
}

#[test]
fn read_only_transaction_never_aborts() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    // Scan-level read (whole relation) of everything.
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [100]);
    s2.execute("begin; set quantity(:a) = 1; commit;").unwrap();
    // A read-only transaction serializes at its snapshot: commit is
    // always clean, even though its reads were overwritten.
    let results = s1.execute("commit;").unwrap();
    assert!(matches!(results[0], ExecResult::Committed(_)));
}

#[test]
fn select_scan_conflicts_with_any_write_to_relation() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    // A select records a whole-relation read on quantity's backing rel.
    s1.query("select quantity(i) for each item i;").unwrap();
    s1.execute("set threshold(:b) = 42;").unwrap();
    // Concurrent write to a *different* key of the scanned relation.
    s2.execute("begin; set quantity(:b) = 9; commit;").unwrap();
    let err = s1.execute("commit;").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict { .. }), "got {err}");
}

#[test]
fn add_remove_buffer_and_cancel() {
    let mut db = Amos::new();
    db.execute("create type t; create function tags(t x) -> integer;")
        .unwrap();
    db.execute("create t instances :x; add tags(:x) = 1;")
        .unwrap();
    let eng = SharedEngine::new(db);
    let mut s = eng.session();

    s.execute("begin; add tags(:x) = 2; add tags(:x) = 3; remove tags(:x) = 1;")
        .unwrap();
    assert_eq!(ints(&s.query("select tags(:x);").unwrap()), [2, 3]);
    // Δ-fold: removing a buffered insert cancels it.
    s.execute("remove tags(:x) = 3;").unwrap();
    s.execute("commit;").unwrap();
    let mut got = ints(&s.query("select tags(:x);").unwrap());
    got.sort();
    assert_eq!(got, [2]);
}

#[test]
fn rules_fire_on_session_commit() {
    let mut db = Amos::new();
    db.execute(SCHEMA).unwrap();
    let fired = Arc::new(AtomicUsize::new(0));
    let count = fired.clone();
    db.register_procedure("note", move |_ctx, _args| {
        count.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    db.execute(
        r#"
        create rule low() as
            when for each item i
            where quantity(i) < threshold(i)
            do note(i);
        create item instances :a;
        set quantity(:a) = 100;
        set threshold(:a) = 10;
        activate low();
    "#,
    )
    .unwrap();
    let eng = SharedEngine::new(db);
    let mut s = eng.session();

    let results = s.execute("begin; set quantity(:a) = 5; commit;").unwrap();
    // The deferred check phase ran at the session commit and fired the
    // rule exactly once.
    assert_eq!(fired.load(Ordering::SeqCst), 1);
    let committed = results
        .iter()
        .find_map(|r| match r {
            ExecResult::Committed(s) => Some(s),
            _ => None,
        })
        .expect("commit summary");
    assert!(committed
        .executed
        .iter()
        .any(|(name, n)| name == "low" && *n == 1));
}

#[test]
fn statements_refused_inside_transaction() {
    let eng = shared();
    let mut s = eng.session();
    s.execute("begin;").unwrap();
    for stmt in [
        "create type gadget;",
        "create function f(item i) -> integer;",
    ] {
        let err = s.execute(stmt).unwrap_err();
        assert!(
            err.to_string().contains("inside a session transaction"),
            "{stmt}: {err}"
        );
    }
    // The transaction survives refused statements.
    assert!(s.in_transaction());
    s.execute("rollback;").unwrap();
}

/// A select's compile error carries its `line:col` on every path.
#[test]
fn select_compile_error_is_positioned_on_every_path() {
    let bad = "\n  select nosuch(i) for each item i;";
    let positioned = |err: DbError| {
        let msg = err.to_string();
        assert!(
            msg.starts_with("parse error: 2:3: unknown function"),
            "{msg}"
        );
    };
    let mut db = Amos::new();
    db.execute(SCHEMA).unwrap();
    positioned(db.execute(bad).unwrap_err());
    positioned(
        db.execute("\n  explain select nosuch(i) for each item i;")
            .unwrap_err(),
    );
    let eng = shared();
    let mut s = eng.session();
    positioned(s.execute(bad).unwrap_err());
    s.execute("begin;").unwrap();
    positioned(s.execute(bad).unwrap_err());
}

/// A data statement's arity error is one message on every door:
/// embedded outside and inside a transaction, a rule action, a served
/// autocommit and a session transaction.
#[test]
fn write_arity_error_is_one_message_on_every_door() {
    let bad = "add quantity(:a, 1) = 2;";
    let one_message = |msg: String| {
        assert_eq!(
            msg, "storage error: arity mismatch on `quantity`: expected 2, found 3",
            "{msg}"
        );
    };
    let mut db = Amos::new();
    db.execute(SCHEMA).unwrap();
    db.execute("create item instances :a;").unwrap();
    one_message(db.execute(bad).unwrap_err().to_string());
    db.execute("begin;").unwrap();
    one_message(db.execute(bad).unwrap_err().to_string());
    db.execute("rollback;").unwrap();
    db.execute(
        "create rule grow() as when for each item i where quantity(i) > 0
             do add quantity(i, 1) = 2;
         activate grow();",
    )
    .unwrap();
    let ExecResult::Committed(summary) = &db.execute("set quantity(:a) = 1;").unwrap()[0] else {
        panic!("autocommit returns its check summary");
    };
    let [(rule, reason)] = summary.failed.as_slice() else {
        panic!("one failed action: {summary:?}");
    };
    assert_eq!(rule, "grow");
    one_message(reason.clone());
    let eng = shared();
    let mut s = eng.session();
    one_message(s.execute(bad).unwrap_err().to_string());
    s.execute("begin;").unwrap();
    one_message(s.execute(bad).unwrap_err().to_string());
}

/// `create … instances` outside a transaction autocommits like `set`,
/// so its extent inserts reach the check phase embedded as served: the
/// rule over the extent fires once per created item on both doors.
#[test]
fn instance_creation_fires_rules_embedded_as_served() {
    let world = |fired: &Arc<AtomicUsize>| {
        let mut db = Amos::new();
        let count = fired.clone();
        db.register_procedure("note", move |_ctx, _args| {
            count.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        db.execute(SCHEMA).unwrap();
        db.execute(
            "create rule seen() as when for each item i where 1 < 2 do note(i);
             activate seen();",
        )
        .unwrap();
        db
    };
    let script = "create item instances :a; create item instances :b; set quantity(:b) = 1;";
    let (embedded, served) = (Arc::default(), Arc::default());
    world(&embedded).execute(script).unwrap();
    let eng = SharedEngine::new(world(&served));
    eng.session().execute(script).unwrap();
    assert_eq!(served.load(Ordering::Relaxed), 2);
    assert_eq!(
        embedded.load(Ordering::Relaxed),
        served.load(Ordering::Relaxed)
    );
}

#[test]
fn begin_commit_rollback_errors() {
    let eng = shared();
    let mut s = eng.session();
    assert!(s.execute("commit;").is_err());
    assert!(s.execute("rollback;").is_err());
    s.execute("begin;").unwrap();
    assert!(s.execute("begin;").is_err());
    s.execute("rollback;").unwrap();
}

#[test]
fn dropped_session_releases_pin() {
    let eng = shared();
    {
        let mut s = eng.session();
        s.execute("begin; set quantity(:a) = 1;").unwrap();
        // dropped here mid-transaction
    }
    // Pin released: version GC may run; a new txn sees current state and
    // the dropped session's buffered write is gone.
    let mut s = eng.session();
    assert_eq!(ints(&s.query("select quantity(:a);").unwrap()), [100]);
    s.execute("begin; set quantity(:a) = 3; commit;").unwrap();
    assert_eq!(ints(&s.query("select quantity(:a);").unwrap()), [3]);
}

#[test]
fn forwarded_create_instances_publishes_version() {
    let eng = shared();
    let mut s1 = eng.session();
    let mut s2 = eng.session();

    s1.execute("begin;").unwrap();
    assert_eq!(ints(&s1.query("select quantity(:a);").unwrap()), [100]);

    // Non-transactional DDL-ish mutation on another session: must be
    // invisible to s1's pinned snapshot (it is wrapped in an engine
    // transaction, publishing a version that the overlay undoes).
    s2.execute("create item instances :c; set quantity(:c) = 7;")
        .unwrap();
    let rows = s1.query("select quantity(i) for each item i;").unwrap();
    assert_eq!(ints(&rows), [100, 200]);
    s1.execute("rollback;").unwrap();
}

#[test]
fn concurrent_threads_hot_key_all_increments_survive() {
    let eng = shared();
    let threads = 4;
    let per = 8;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let eng = Arc::clone(&eng);
        handles.push(std::thread::spawn(move || {
            let mut s = eng.session();
            let mut aborts = 0usize;
            for _ in 0..per {
                loop {
                    let r = s.execute("begin; set quantity(:a) = quantity(:a) - 1; commit;");
                    match r {
                        Ok(_) => break,
                        Err(e) if e.is_retryable() => aborts += 1,
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
            aborts
        }));
    }
    let total_aborts: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let mut s = eng.session();
    let rows = s.query("select quantity(:a);").unwrap();
    // Every committed decrement is preserved: lost updates are impossible
    // under first-committer-wins, so the counter is exact.
    assert_eq!(ints(&rows), [100 - (threads * per) as i64]);
    // (aborts may be 0 on a fast machine; just exercise the counter.)
    let _ = total_aborts;
}

fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-sess-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An engine over `dir`'s WAL with items `:a`, `:b`, `:c` at quantities
/// 100, 200, 300, checkpointed so later WAL counters and recovered
/// batches cover only what the test itself commits.
fn wal_engine(dir: &std::path::Path, config: WalConfig) -> Amos {
    let mut db = Amos::new();
    db.attach_wal(dir, config).unwrap();
    db.execute(SCHEMA).unwrap();
    db.execute(
        r#"
        create item instances :a, :b, :c;
        set quantity(:a) = 100;
        set quantity(:b) = 200;
        set quantity(:c) = 300;
    "#,
    )
    .unwrap();
    db.checkpoint().unwrap();
    db
}

/// Re-attach `dir` in a fresh engine and count the recovered tuples of
/// `rel` that satisfy `pred`.
fn recovered(dir: &std::path::Path, rel: &str, pred: impl Fn(&Tuple) -> bool) -> usize {
    let mut db = Amos::new();
    db.attach_wal(dir, WalConfig::default()).unwrap();
    let rel = db.storage().relation_id(rel).unwrap();
    db.storage()
        .relation(rel)
        .scan()
        .filter(|t| pred(t))
        .count()
}

/// Three commits frame their batches into the group buffer under the
/// engine lock before any of them waits: the first waiter leads one
/// flush round that writes the whole group — one fsync — and the two
/// followers are acknowledged without ever touching the file.
#[test]
fn pipelined_group_commit_coalesces_fsyncs() {
    let dir = wal_dir("gc");
    let mut db = wal_engine(&dir, WalConfig::default());
    let before = db.wal_metrics().unwrap();
    let waiters: Vec<_> = ["a", "b", "c"]
        .iter()
        .map(|key| {
            db.begin().unwrap();
            db.execute(&format!("set quantity(:{key}) = 7;")).unwrap();
            let (_, waiter) = db.commit_deferred_durability().unwrap();
            waiter.expect("a WAL batch to wait on")
        })
        .collect();
    for w in waiters {
        w.wait().unwrap();
    }
    let after = db.wal_metrics().unwrap();

    assert_eq!(after.batches - before.batches, 3);
    assert_eq!(
        after.fsyncs - before.fsyncs,
        1,
        "three pipelined commits must share one fsync"
    );
    assert_eq!(
        after.waiters_woken - before.waiters_woken,
        2,
        "two followers must be acknowledged by the leader's flush"
    );
    assert!(after.max_group >= 3, "group never formed: {after:?}");

    // Acked ⇒ durable, with no shutdown flush to help: recovery sees
    // all three writes.
    std::mem::forget(db);
    let sevens = recovered(&dir, "quantity", |t| t[1] == Value::Int(7));
    assert_eq!(sevens, 3, "an acknowledged commit was not durable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A served autocommit statement is acknowledged only once durable,
/// whatever the embedded group-commit window: after `COMMITTED` a crash
/// (the engine leaked, so no shutdown flush runs) loses nothing.
#[test]
fn served_autocommit_is_durable_when_acknowledged() {
    let dir = wal_dir("auto");
    let db = wal_engine(
        &dir,
        WalConfig {
            group_commit: 8,
            max_delay_us: 100,
        },
    );
    let eng = SharedEngine::new(db);
    let before = eng.commit_metrics();
    let mut s = eng.session();
    for stmt in ["set quantity(:a) = 7;", "create item instances :d;"] {
        let out = s.execute(stmt).unwrap();
        assert!(
            matches!(out[..], [ExecResult::Committed(_)]),
            "{stmt} was not autocommitted: {out:?}"
        );
    }
    // Both autocommits ran as session commits: counted, and their
    // critical sections timed under the write lock.
    let after = eng.commit_metrics();
    assert_eq!(after.commits - before.commits, 2);
    assert!(after.lock_hold_ns > before.lock_hold_ns);
    std::mem::forget(s);
    std::mem::forget(eng);
    assert_eq!(
        recovered(&dir, "quantity", |t| t[1] == Value::Int(7)),
        1,
        "an acknowledged autocommit `set` was lost"
    );
    assert_eq!(
        recovered(&dir, "item_extent", |_| true),
        4,
        "an acknowledged `create … instances` was lost"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flush leader never waits for stragglers: a lone session commit is
/// synced and acknowledged at once, whatever `WalConfig` says.
#[test]
fn lone_session_commit_does_not_wait_for_a_group() {
    let dir = wal_dir("lone");
    let db = wal_engine(
        &dir,
        WalConfig {
            group_commit: 8,
            max_delay_us: 2_000_000,
        },
    );
    let eng = SharedEngine::new(db);
    let before = eng.commit_metrics();
    let mut s = eng.session();
    let start = std::time::Instant::now();
    s.execute("begin; set quantity(:a) = 7; commit;").unwrap();
    let took = start.elapsed();
    assert!(
        took < std::time::Duration::from_secs(1),
        "a lone commit took {took:?}"
    );
    let after = eng.commit_metrics();
    assert_eq!(after.commits - before.commits, 1);
    assert_eq!(after.wal.unwrap().fsyncs - before.wal.unwrap().fsyncs, 1);
    drop(s);
    drop(eng);
    let _ = std::fs::remove_dir_all(&dir);
}

/// K sessions advanced in strict round-robin from a seeded workload:
/// every transaction of a round overlaps every other, so the commit /
/// abort split is fixed by the seed, and since one thread drives them
/// every commit waits out its own fsync. Each transaction reads
/// `threshold` twice and decrements one item's `quantity`, 30 % of the
/// time item 0's; an aborted transaction is counted, not retried.
#[test]
fn round_robin_sessions_commit_abort_and_sync_deterministically() {
    const ITEMS: usize = 16;
    const PER_SESSION: usize = 30;
    for (k, expected) in [
        (1, (30, 0, 30)),
        (2, (56, 4, 56)),
        (4, (100, 20, 100)),
        (8, (169, 71, 169)),
    ] {
        let dir = std::env::temp_dir().join(format!("amos-sess-rr-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut db = Amos::new();
        db.register_procedure("note", |_ctx, _args| Ok(()));
        db.attach_wal(&dir, WalConfig::grouped(8)).unwrap();
        db.execute(SCHEMA).unwrap();
        db.execute(
            "create rule low() as when for each item i \
             where quantity(i) < threshold(i) do note(i);",
        )
        .unwrap();
        let names: Vec<String> = (0..ITEMS).map(|i| format!(":i{i}")).collect();
        db.execute(&format!("create item instances {};", names.join(", ")))
            .unwrap();
        for (i, name) in names.iter().enumerate() {
            db.execute(&format!(
                "set quantity({name}) = {}; set threshold({name}) = 0;",
                1_000 + i
            ))
            .unwrap();
        }
        db.execute("activate low();").unwrap();
        let eng = SharedEngine::new(db);

        let mut rng = StdRng::seed_from_u64(42);
        let bodies: Vec<Vec<String>> = (0..k)
            .map(|_| {
                (0..PER_SESSION)
                    .map(|_| {
                        let key = if rng.gen_bool(0.3) {
                            0
                        } else {
                            rng.gen_range(0..ITEMS)
                        };
                        format!(
                            "select threshold(i) for each item i; \
                             select threshold(i) for each item i; \
                             set quantity(:i{key}) = quantity(:i{key}) - 1;"
                        )
                    })
                    .collect()
            })
            .collect();
        let fsyncs_before = eng.commit_metrics().wal.unwrap().fsyncs;
        let mut sessions: Vec<_> = (0..k).map(|_| eng.session()).collect();
        let (mut committed, mut aborted) = (0, 0);
        for round in 0..PER_SESSION {
            for s in sessions.iter_mut() {
                s.execute("begin;").unwrap();
            }
            for (s, body) in sessions.iter_mut().zip(&bodies) {
                s.execute(&body[round]).unwrap();
            }
            for s in sessions.iter_mut() {
                match s.execute("commit;") {
                    Ok(_) => committed += 1,
                    Err(e) if e.is_retryable() => aborted += 1,
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
        let fsyncs = eng.commit_metrics().wal.unwrap().fsyncs - fsyncs_before;
        assert_eq!((committed, aborted, fsyncs), expected, "{k} sessions");
        drop(sessions);
        drop(eng);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn values_roundtrip_through_snapshot() {
    let mut db = Amos::new();
    db.execute("create type t; create function name(t x) -> charstring;")
        .unwrap();
    db.execute("create t instances :x; set name(:x) = \"before\";")
        .unwrap();
    let eng = SharedEngine::new(db);
    let mut s1 = eng.session();
    let mut s2 = eng.session();
    s1.execute("begin;").unwrap();
    s2.execute("begin; set name(:x) = \"after\"; commit;")
        .unwrap();
    let rows = s1.query("select name(:x);").unwrap();
    assert_eq!(rows[0][0], Value::Str("before".into()));
    s1.execute("rollback;").unwrap();
    let rows = s1.query("select name(:x);").unwrap();
    assert_eq!(rows[0][0], Value::Str("after".into()));
}

/// A recursive function's fixpoint rounds read through the session's
/// layers like every other stored access: a concurrently committed edge
/// extends no path of the snapshot, a buffered one does.
#[test]
fn recursive_function_reads_its_snapshot() {
    let mut db = Amos::new();
    db.execute(
        r#"
        create type node;
        create function edge(node a, node b) -> boolean;
        create function reach(node a, node b) -> boolean
            as select true
            for each node c
            where edge(a, b) or reach(a, c) and edge(c, b);
        create node instances :n1, :n2, :n3, :n4;
        add edge(:n1, :n2) = true;
    "#,
    )
    .unwrap();
    let eng = SharedEngine::new(db);
    let mut s1 = eng.session();
    let mut s2 = eng.session();
    const PATHS: &str = "select a, b for each node a, node b where reach(a, b);";

    s1.execute("begin;").unwrap();
    s2.execute("begin; add edge(:n2, :n3) = true; commit;")
        .unwrap();
    assert_eq!(s2.query(PATHS).unwrap().len(), 3, "1→2, 2→3, 1→3");
    assert_eq!(s1.query(PATHS).unwrap().len(), 1, "the snapshot has 1→2");

    s1.execute("add edge(:n2, :n4) = true;").unwrap();
    assert_eq!(s1.query(PATHS).unwrap().len(), 3, "1→2, 2→4, 1→4");
    s1.execute("rollback;").unwrap();
}

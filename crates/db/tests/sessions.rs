//! Session-transaction semantics over a shared engine: snapshot reads,
//! buffered writes, first-committer-wins conflict detection, rule firing
//! at commit, and the forwarding policy for out-of-transaction
//! statements.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amos_db::{Amos, DbError, ExecResult, SharedEngine, Value, WalConfig};
use amos_types::Tuple;

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

/// Three sessions commit simultaneously through the pipelined commit
/// path: the critical sections serialize (validate/apply/check under
/// the write lock), but all three durability waits coalesce into a
/// single group — one fsync covers the whole group, and the two
/// non-leader waiters are acknowledged without ever touching the file.
#[test]
fn pipelined_group_commit_coalesces_fsyncs() {
    let dir = std::env::temp_dir().join(format!("amos-sess-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut db = Amos::new();
    // A generous leader delay so the test doesn't depend on scheduler
    // timing: the first committer parks until the other two arrive.
    db.attach_wal(
        &dir,
        WalConfig {
            group_commit: 3,
            max_delay_us: 2_000_000,
        },
    )
    .unwrap();
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
    // Flush + truncate so the deltas below count only the workload.
    db.checkpoint().unwrap();
    let eng = SharedEngine::new(db);

    let before = eng.commit_metrics();
    let barrier = Arc::new(std::sync::Barrier::new(3));
    let mut handles = Vec::new();
    for key in ["a", "b", "c"] {
        let eng = Arc::clone(&eng);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut s = eng.session();
            s.execute(&format!("begin; set quantity(:{key}) = 7;"))
                .unwrap();
            barrier.wait();
            s.execute("commit;").unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let after = eng.commit_metrics();

    assert_eq!(after.commits - before.commits, 3);
    assert!(after.lock_hold_ns > before.lock_hold_ns);
    let (b, a) = (before.wal.unwrap(), after.wal.unwrap());
    assert_eq!(a.batches - b.batches, 3);
    assert_eq!(
        a.fsyncs - b.fsyncs,
        1,
        "three pipelined commits must share one fsync"
    );
    assert_eq!(
        a.waiters_woken - b.waiters_woken,
        2,
        "two followers must be acknowledged by the leader's flush"
    );
    assert!(a.max_group >= 3, "group never formed: {a:?}");

    // Acked ⇒ durable: recovery sees all three writes.
    drop(eng);
    let mut db2 = Amos::new();
    db2.attach_wal(&dir, WalConfig::default()).unwrap();
    let rel = db2.storage().relation_id("quantity").unwrap();
    let sevens = db2
        .storage()
        .relation(rel)
        .scan()
        .filter(|t| t[1] == Value::Int(7))
        .count();
    assert_eq!(sevens, 3, "an acknowledged commit was not durable");
    let _ = std::fs::remove_dir_all(&dir);
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

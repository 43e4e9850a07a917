//! Engine-level fault injection (requires `--features fault-injection`).
//!
//! A `FaultPlan` installed on the engine reaches both layers it is
//! threaded through: the WAL (commit fails transiently, the transaction
//! survives for a retry) and the propagation wave-front (an injected
//! pass failure surfaces as a commit error without corrupting state).

#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use amos_db::{Amos, DbError, ExecResult, SharedEngine, Value, WalConfig};
use amos_storage::fault::{FaultPlan, WalFault};

const SCHEMA: &str = r#"
    create type item;
    create function quantity(item i) -> integer;
    create function threshold(item i) -> integer;

    create rule watch_rule() as
        when for each item i
        where quantity(i) < threshold(i)
        do note(i);
"#;

const POPULATE: &str = r#"
    create item instances :x;
    set threshold(:x) = 100;
    set quantity(:x) = 500;
    activate watch_rule();
"#;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-efault-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn setup(dir: Option<&PathBuf>) -> (Amos, Arc<Mutex<Vec<Value>>>) {
    let mut db = Amos::new();
    if let Some(dir) = dir {
        db.attach_wal(dir, WalConfig::default()).unwrap();
    }
    let noted: Arc<Mutex<Vec<Value>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = noted.clone();
    db.register_procedure("note", move |_ctx, args| {
        sink.lock().unwrap().push(args[0].clone());
        Ok(())
    });
    db.execute(SCHEMA).unwrap();
    db.execute(POPULATE).unwrap();
    (db, noted)
}

#[test]
fn injected_wal_error_fails_the_commit_and_a_retry_succeeds() {
    let dir = tmpdir("walerr");
    let (mut db, noted) = setup(Some(&dir));
    // POPULATE already consumed some WAL batches; fail the next one.
    let next = db.storage_mut().wal_mut().unwrap().next_seq();
    db.set_fault_plan(Arc::new(FaultPlan::wal(WalFault::IoErrorAtBatch(next))));

    let err = db
        .execute("begin; set quantity(:x) = 50; commit;")
        .unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err}");
    // The check phase ran (the rule fired) but durability failed; the
    // transaction is still open so the caller decides.
    assert!(db.storage().in_transaction());
    db.execute("rollback;").unwrap();
    noted.lock().unwrap().clear();

    // The fault was one-shot: the retry commits and fires the rule.
    let results = db.execute("begin; set quantity(:x) = 50; commit;").unwrap();
    assert!(matches!(results.last(), Some(ExecResult::Committed(_))));
    assert_eq!(noted.lock().unwrap().len(), 1);

    // And the retried transaction is durable.
    let mut db2 = Amos::new();
    db2.attach_wal(&dir, WalConfig::default()).unwrap();
    let q = db2.storage().relation_id("quantity").unwrap();
    let tuples: Vec<_> = db2.storage().relation(q).scan().cloned().collect();
    assert!(tuples.iter().any(|t| t[1] == Value::Int(50)), "{tuples:?}");
}

/// A served autocommit waits for its fsync after the write lock is
/// released, so a WAL error reaches the client once the change is
/// already published: like `commit;`, durability is unknown and the
/// change stays visible rather than rolled back. Its batch stays
/// queued, and the next commit's flush writes it.
#[test]
fn served_autocommit_wal_error_leaves_the_change_visible() {
    let dir = tmpdir("autoerr");
    let (mut db, noted) = setup(Some(&dir));
    let next = db.storage_mut().wal_mut().unwrap().next_seq();
    db.set_fault_plan(Arc::new(FaultPlan::wal(WalFault::IoErrorAtBatch(next))));
    let eng = SharedEngine::new(db);
    let mut s = eng.session();

    let err = s.execute("set quantity(:x) = 50;").unwrap_err();
    assert!(matches!(err, DbError::Storage(_)), "{err}");
    assert!(!s.in_transaction());
    let rows = s.query("select quantity(:x);").unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(
        rows[0][0],
        Value::Int(50),
        "the published change was undone"
    );
    assert_eq!(noted.lock().unwrap().len(), 1, "the rule fired at commit");

    // The fault was one-shot: the next autocommit flushes both batches.
    let out = s.execute("set threshold(:x) = 10;").unwrap();
    assert!(matches!(out[..], [ExecResult::Committed(_)]), "{out:?}");
    drop(s);
    drop(eng);

    let mut db2 = Amos::new();
    db2.attach_wal(&dir, WalConfig::default()).unwrap();
    let q = db2.storage().relation_id("quantity").unwrap();
    let tuples: Vec<_> = db2.storage().relation(q).scan().cloned().collect();
    assert!(tuples.iter().any(|t| t[1] == Value::Int(50)), "{tuples:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_propagation_fault_aborts_the_commit_cleanly() {
    let (mut db, noted) = setup(None);
    db.set_fault_plan(Arc::new(FaultPlan::propagation(1)));

    let err = db.execute("set quantity(:x) = 50;").unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    // Autocommit rolled the implicit transaction back: no firing, no
    // leftover state, and the engine is reusable.
    assert!(!db.storage().in_transaction());
    assert!(noted.lock().unwrap().is_empty());

    // The one-shot fault is spent; the same update now goes through.
    let results = db.execute("set quantity(:x) = 50;").unwrap();
    assert!(matches!(results.last(), Some(ExecResult::Committed(_))));
    assert_eq!(noted.lock().unwrap().len(), 1);
}

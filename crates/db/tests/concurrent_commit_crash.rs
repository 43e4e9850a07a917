//! Crash during concurrent session commits (requires
//! `--features fault-injection`).
//!
//! K sessions commit overlapping transactions through the shared
//! engine's group-commit WAL while an injected [`WalFault`] kills the
//! "disk" mid-stream: the record containing the crash point is torn and
//! every later write is silently dropped, exactly as if the process had
//! died inside a group commit. Recovery must adopt **exactly the
//! committed prefix**: every transaction whose WAL batch landed in full
//! is replayed, the torn batch is rejected whole, and nothing of any
//! later commit — or of a transaction that *aborted* on conflict before
//! the crash — is visible. The expected state for each crash point is
//! the serial replay of the first `batches_replayed` committed groups.

#![cfg(feature = "fault-injection")]

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

use amos_db::{Amos, DbError, SharedEngine, WalConfig};
use amos_storage::fault::{FaultPlan, WalFault};
use amos_types::Tuple;

const N_ITEMS: usize = 4;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amos-ccrash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn schema(db: &mut Amos) {
    db.execute("create type item; create function quantity(item i) -> integer;")
        .unwrap();
    let names: Vec<String> = (0..N_ITEMS).map(|i| format!(":i{i}")).collect();
    db.execute(&format!("create item instances {};", names.join(", ")))
        .unwrap();
    for (i, name) in names.iter().enumerate() {
        db.execute(&format!("set quantity({name}) = {};", 100 + i as i64))
            .unwrap();
    }
}

/// The deterministic concurrent workload: overlapping transactions on
/// three sessions, committed in a fixed order, with one conflict abort
/// in the middle. Returns the committed statement groups in commit
/// order.
fn drive(engine: &Arc<SharedEngine>) -> Vec<String> {
    let mut s1 = engine.session();
    let mut s2 = engine.session();
    let mut s3 = engine.session();
    let mut committed = Vec::new();
    let run = |s: &mut amos_db::Session, group: &str, log: &mut Vec<String>| match s
        .execute(&format!("begin; {group} commit;"))
    {
        Ok(_) => log.push(group.to_string()),
        Err(e) => panic!("unexpected error: {e}"),
    };

    // Overlapped, non-conflicting: both validate against the same base.
    s1.execute("begin; set quantity(:i0) = 1;").unwrap();
    s2.execute("begin; set quantity(:i1) = 2;").unwrap();
    s1.execute("commit;").unwrap();
    committed.push("set quantity(:i0) = 1;".to_string());
    s2.execute("commit;").unwrap();
    committed.push("set quantity(:i1) = 2;".to_string());

    // A conflict: s3 loses to s1 and aborts — its write must never be
    // durable, before or after any crash point.
    s1.execute("begin; set quantity(:i2) = 3;").unwrap();
    s3.execute("begin; set quantity(:i2) = 99;").unwrap();
    s1.execute("commit;").unwrap();
    committed.push("set quantity(:i2) = 3;".to_string());
    match s3.execute("commit;") {
        Err(DbError::TxnConflict { .. }) => {}
        other => panic!("expected conflict, got {other:?}"),
    }

    // A few more serial commits past the crash point.
    run(&mut s2, "set quantity(:i3) = 4;", &mut committed);
    run(&mut s3, "set quantity(:i0) = 5;", &mut committed);
    run(&mut s1, "set quantity(:i1) = 6;", &mut committed);
    committed
}

/// Storage-level contents of `quantity` — recovery replays the WAL into
/// base relations; schema DDL is not durable, so comparisons stay below
/// the catalog.
fn quantities(db: &Amos) -> BTreeSet<Tuple> {
    let rel = db.storage().relation_id("quantity").unwrap();
    db.storage().relation(rel).scan().cloned().collect()
}

/// Serial replay of the first `n` committed groups on a fresh engine.
fn prefix_state(committed: &[String], n: usize) -> BTreeSet<Tuple> {
    let mut db = Amos::new();
    schema(&mut db);
    for group in &committed[..n] {
        db.execute(&format!("begin; {group} commit;")).unwrap();
    }
    quantities(&db)
}

#[test]
fn recovery_adopts_exactly_the_committed_prefix() {
    // Each commit writes one 2-record batch (delete old + insert new
    // quantity tuple), so crash points 1..=13 sweep every boundary:
    // mid-batch, between batches, and past the last commit.
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for crash_after in 1..=13u64 {
        let dir = tmpdir(&format!("p{crash_after}"));
        let mut db = Amos::new();
        db.attach_wal(&dir, WalConfig::default()).unwrap();
        schema(&mut db);
        // Truncate the WAL so recovery's batch count below counts
        // exactly the workload's commits.
        db.checkpoint().unwrap();
        db.set_fault_plan(Arc::new(FaultPlan::wal(WalFault::CrashAfterRecords(
            crash_after,
        ))));
        let engine = SharedEngine::new(db);

        // The in-memory engine survives the "crash" (the disk is dead,
        // the process is not) — every commit still succeeds in memory.
        let committed = drive(&engine);
        assert_eq!(committed.len(), 6);
        drop(engine);

        // Recover from what actually reached the disk.
        let mut db2 = Amos::new();
        let info = db2.attach_wal(&dir, WalConfig::default()).unwrap();
        let adopted = info.batches_replayed as usize;
        assert!(
            adopted <= committed.len(),
            "recovered more batches than commits"
        );
        assert_eq!(
            quantities(&db2),
            prefix_state(&committed, adopted),
            "crash after {crash_after} records: recovered state is not \
             the serial replay of the first {adopted} commits"
        );
        // The conflicted transaction's write (quantity(:i2) = 99) must
        // never be visible.
        assert!(
            !quantities(&db2)
                .iter()
                .any(|t| t[1] == amos_db::Value::Int(99)),
            "aborted transaction leaked into recovery"
        );
        prefixes_seen.insert(adopted);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // The sweep must actually have exercised partial prefixes, not just
    // all-or-nothing.
    assert!(
        prefixes_seen.len() > 2,
        "sweep too coarse: {prefixes_seen:?}"
    );
}

/// `drive`'s six commits on an embedded engine, in the same order, with
/// the conflict-aborted write (`quantity(:i2) = 99`) as a rolled-back
/// transaction.
fn drive_embedded(db: &mut Amos) -> Vec<String> {
    let groups = [
        "set quantity(:i0) = 1;",
        "set quantity(:i1) = 2;",
        "set quantity(:i2) = 3;",
        "set quantity(:i3) = 4;",
        "set quantity(:i0) = 5;",
        "set quantity(:i1) = 6;",
    ];
    for (i, group) in groups.iter().enumerate() {
        if i == 3 {
            db.begin().unwrap();
            db.execute("set quantity(:i2) = 99;").unwrap();
            db.rollback().unwrap();
        }
        db.begin().unwrap();
        db.execute(group).unwrap();
        db.commit().unwrap();
    }
    groups.map(String::from).to_vec()
}

/// The same sweep through the *coalesced* sync path: `group_commit = 3`
/// under `Amos::commit` (which syncs on the committing thread) buffers
/// batches in memory and writes them three at a time, so the crash lands
/// inside a multi-commit fsync group. The acked-prefix invariant is
/// unchanged — recovery adopts exactly the complete frames on disk,
/// commits whose group never flushed are lost whole, and the torn frame
/// is rejected whole, never partially.
#[test]
fn crash_mid_coalesced_fsync_adopts_whole_groups_only() {
    let mut prefixes_seen = std::collections::BTreeSet::new();
    for crash_after in 1..=13u64 {
        let dir = tmpdir(&format!("g{crash_after}"));
        let mut db = Amos::new();
        db.attach_wal(&dir, WalConfig::grouped(3)).unwrap();
        schema(&mut db);
        db.checkpoint().unwrap();
        db.set_fault_plan(Arc::new(FaultPlan::wal(WalFault::CrashAfterRecords(
            crash_after,
        ))));

        let committed = drive_embedded(&mut db);
        assert_eq!(committed.len(), 6);
        drop(db);

        let mut db2 = Amos::new();
        let info = db2.attach_wal(&dir, WalConfig::default()).unwrap();
        let adopted = info.batches_replayed as usize;
        assert!(
            adopted <= committed.len(),
            "recovered more batches than commits"
        );
        assert_eq!(
            quantities(&db2),
            prefix_state(&committed, adopted),
            "crash after {crash_after} records inside a coalesced group: \
             recovered state is not the serial replay of the first \
             {adopted} commits"
        );
        assert!(
            !quantities(&db2)
                .iter()
                .any(|t| t[1] == amos_db::Value::Int(99)),
            "aborted transaction leaked into recovery"
        );
        prefixes_seen.insert(adopted);
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        prefixes_seen.len() > 2,
        "sweep too coarse: {prefixes_seen:?}"
    );
}

/// Crash inside a *pipelined* group commit: three commits on disjoint
/// keys frame their batches into the group buffer before any of them
/// waits, so the first waiter's flush round writes all three, and the
/// injected fault kills the disk partway through the group's records.
/// The members that reached the disk in full are recovered; the rest
/// are lost whole — no key ever recovers to a torn or foreign value.
#[test]
fn pipelined_group_crash_loses_unwritten_members_whole() {
    let mut adopted_seen = std::collections::BTreeSet::new();
    for crash_after in 1..=7u64 {
        let dir = tmpdir(&format!("t{crash_after}"));
        let mut db = Amos::new();
        db.attach_wal(&dir, WalConfig::default()).unwrap();
        schema(&mut db);
        db.checkpoint().unwrap();
        db.set_fault_plan(Arc::new(FaultPlan::wal(WalFault::CrashAfterRecords(
            crash_after,
        ))));

        let waiters: Vec<_> = (0..3usize)
            .map(|t| {
                db.begin().unwrap();
                db.execute(&format!("set quantity(:i{t}) = {};", 1000 + t))
                    .unwrap();
                let (_, waiter) = db.commit_deferred_durability().unwrap();
                waiter.expect("a WAL batch to wait on")
            })
            .collect();
        // The in-memory engine survives the dead disk: every commit
        // still succeeds (and its batch may or may not have reached
        // the file).
        for w in waiters {
            w.wait().unwrap();
        }
        drop(db);

        let mut db2 = Amos::new();
        let info = db2.attach_wal(&dir, WalConfig::default()).unwrap();
        let adopted = info.batches_replayed as usize;
        assert!(adopted <= 3, "recovered more batches than commits");

        // Each key is either untouched (its commit's frame was lost
        // whole) or carries exactly its committed value — and the
        // number of new-valued keys equals the adopted frame count.
        let mut new_values = 0usize;
        for tuple in quantities(&db2) {
            let v = match &tuple[1] {
                amos_db::Value::Int(v) => *v,
                other => panic!("non-integer quantity: {other:?}"),
            };
            let initial = (100..100 + N_ITEMS as i64).contains(&v);
            let committed = (1000..1003).contains(&v);
            assert!(
                initial || committed,
                "crash after {crash_after}: torn or foreign value {v}"
            );
            if committed {
                new_values += 1;
            }
        }
        assert_eq!(
            new_values, adopted,
            "crash after {crash_after}: adopted {adopted} frames but \
             {new_values} keys carry committed values"
        );
        adopted_seen.insert(adopted);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Record-granular crash points must split at least one group.
    assert!(adopted_seen.len() > 1, "sweep too coarse: {adopted_seen:?}");
}

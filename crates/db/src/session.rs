//! Multi-session transactions over a shared engine.
//!
//! [`SharedEngine`] wraps one [`Amos`] behind an `RwLock` so many
//! [`Session`]s — one per client connection — run concurrently:
//!
//! * **Snapshot reads.** `begin` pins the storage commit sequence
//!   ([`Storage::pin_snapshot`]); every read inside the transaction is
//!   made through [`LayerStacks::snapshot`]: every transaction committed
//!   after the pin undone, the session's own buffered writes replayed —
//!   the paper's logical-rollback algebra `S_old = (S_new ∪ Δ₋S) − Δ₊S`,
//!   one layer per committed version.
//!   Reads take the engine's *read* lock, so they proceed in parallel.
//! * **Buffered write-sets.** Updates inside a transaction never touch
//!   shared storage. They evaluate through the same executor step as
//!   every other door, against the snapshot, and fold into per-relation
//!   [`DeltaSet`]s exactly like the engine's Δ-accumulation (double
//!   updates cancel, §4.1): `add` folds only when its tuple is not
//!   visible, `remove` only when it is, as in place.
//! * **Commit-time validation (first-committer-wins).** `commit` takes
//!   the write lock, replays nothing, and checks the session's read and
//!   write footprints against every version committed since its pin:
//!   write-write conflicts at conflict-key granularity (the stored
//!   function's key prefix), read-write conflicts at key granularity
//!   for probes and whole-relation granularity for scans. A conflicting
//!   transaction aborts with the retryable [`DbError::TxnConflict`]
//!   without having touched shared state. A clean transaction applies
//!   its write-set inside a normal storage transaction, runs the
//!   deferred check phase (rules fire exactly as if the statements had
//!   run serially at commit point), and group-commits through the WAL.
//!
//! Because validation is conservative and commits are fully serialized
//! by the write lock, the committed history is equivalent to a serial
//! execution of the committed transactions in commit order — the
//! property the `SerialReplay` axis of the db equivalence harness
//! (`crates/db/tests/equivalence.rs`) pins bit-identically.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use amos_amosql::ast::{ProcStmt, Select, Statement};
use amos_amosql::parser::parse_spanned;
use amos_core::rules::CheckSummary;
use amos_objectlog::catalog::PredKind;
use amos_objectlog::eval::EvalContext;
use amos_storage::{CommitWaiter, DeltaSet, LayerStacks, RelId, StateEpoch, Storage, WalMetrics};
use amos_types::{KeyRef, Tuple};

use crate::engine::{Amos, Evaluated, ExecResult, ReadTrace, ScalarEval, Scope, WriteKind};
use crate::error::DbError;

/// One engine shared by many sessions. Reads (snapshot selects, scalar
/// probes) hold the read lock; commits, DDL, and autocommit statements
/// hold the write lock — commit-time check phases are thereby fully
/// serialized, in the same spirit as the WAL's group commit.
pub struct SharedEngine {
    inner: RwLock<Amos>,
    /// Commit-pipeline lock accounting: nanoseconds the engine write
    /// lock was *held* by session commits (acquisition wait excluded),
    /// the single longest hold, and the number of commits measured.
    commit_lock_ns: AtomicU64,
    commit_lock_ns_max: AtomicU64,
    commit_lock_count: AtomicU64,
}

/// Commit-pipeline observability: the WAL's durability counters plus
/// the engine-lock hold accounting — what the benchmark's `wire_oltp`
/// workload reports as its `wal.*` and `db.commit_lock_hold_*` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitMetrics {
    /// WAL durability counters (fsyncs, batch-size histogram, woken
    /// waiters). `None` without an attached WAL.
    pub wal: Option<WalMetrics>,
    /// Total ns the engine write lock was held by session commits.
    pub lock_hold_ns: u64,
    /// Longest single commit critical section, ns.
    pub lock_hold_ns_max: u64,
    /// Session commits measured (read-only, conflicted and autocommitted
    /// statements included).
    pub commits: u64,
}

impl SharedEngine {
    /// Share an engine. Existing state (schema, rules, data) carries
    /// over; the original handle is consumed.
    pub fn new(db: Amos) -> Arc<SharedEngine> {
        Arc::new(SharedEngine {
            inner: RwLock::new(db),
            commit_lock_ns: AtomicU64::new(0),
            commit_lock_ns_max: AtomicU64::new(0),
            commit_lock_count: AtomicU64::new(0),
        })
    }

    /// Snapshot the commit-pipeline metrics (WAL durability counters +
    /// engine-lock hold accounting).
    pub fn commit_metrics(&self) -> CommitMetrics {
        CommitMetrics {
            wal: self.with_read(|eng| eng.wal_metrics()),
            lock_hold_ns: self.commit_lock_ns.load(Ordering::Relaxed),
            lock_hold_ns_max: self.commit_lock_ns_max.load(Ordering::Relaxed),
            commits: self.commit_lock_count.load(Ordering::Relaxed),
        }
    }

    fn note_commit_lock_hold(&self, ns: u64) {
        self.commit_lock_ns.fetch_add(ns, Ordering::Relaxed);
        self.commit_lock_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.commit_lock_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Open a new session over this engine.
    pub fn session(self: &Arc<Self>) -> Session {
        Session {
            engine: Arc::clone(self),
            txn: None,
        }
    }

    /// Run `f` under the engine's read lock (parallel with other
    /// readers; excluded by commits).
    pub fn with_read<R>(&self, f: impl FnOnce(&Amos) -> R) -> R {
        f(&self.inner.read().expect("engine lock poisoned"))
    }

    /// Run `f` under the engine's write lock (exclusive).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Amos) -> R) -> R {
        f(&mut self.inner.write().expect("engine lock poisoned"))
    }
}

/// Buffered state of one open session transaction.
struct OpenTxn {
    /// Commit sequence pinned at `begin`; reads are corrected back to
    /// it, validation runs against every version committed after it.
    begin_seq: u64,
    /// Net buffered write-set per relation (Δ-fold semantics: a delete
    /// of a pending insert cancels, §4.1).
    writes: HashMap<RelId, DeltaSet>,
    /// Conflict keys written, per relation (stored-key prefix, or the
    /// whole tuple for keyless relations).
    write_keys: HashMap<RelId, HashSet<Tuple>>,
    /// Read footprint (whole-relation and key-granular).
    reads: RefCell<ReadTrace>,
}

impl OpenTxn {
    /// What this transaction reads: every version committed since its
    /// pin undone, its own write-set replayed. Borrows `self.writes`, so
    /// it lives for one statement's reads and is gone before the
    /// statement's writes are buffered.
    fn layers<'a>(&'a self, storage: &'a Storage) -> LayerStacks<'a> {
        LayerStacks::snapshot(storage.versions_since(self.begin_seq), &self.writes)
    }
}

/// A client session: executes AMOSQL, optionally inside an isolated
/// transaction (`begin; …; commit;`). Outside a transaction data
/// statements autocommit the way `commit;` does: the change is
/// published under the write lock and acknowledged once its WAL batch
/// is synced, so a flush error reaches the client after the change is
/// already visible ("durability unknown", not rolled back). Dropping a
/// session rolls back any open transaction.
pub struct Session {
    engine: Arc<SharedEngine>,
    txn: Option<OpenTxn>,
}

impl Session {
    /// Execute an AMOSQL script; one result per statement.
    ///
    /// On [`DbError::TxnConflict`] the open transaction has already
    /// been aborted (buffered writes discarded, snapshot unpinned);
    /// the client may simply re-run the transaction.
    pub fn execute(&mut self, src: &str) -> Result<Vec<ExecResult>, DbError> {
        let stmts = parse_spanned(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let at = Some((stmt.line, stmt.col));
            out.push(self.exec_statement(stmt.node, at).inspect_err(|e| {
                if matches!(e, DbError::TxnConflict { .. }) {
                    // The conflicting transaction is dead; make sure the
                    // session is usable for a retry.
                    debug_assert!(self.txn.is_none());
                }
            })?);
        }
        Ok(out)
    }

    /// Execute a single `select` and return its rows (sorted).
    pub fn query(&mut self, src: &str) -> Result<Vec<Tuple>, DbError> {
        let results = self.execute(src)?;
        for r in results {
            if let ExecResult::Rows(rows) = r {
                return Ok(rows);
            }
        }
        Err(DbError::Other("statement was not a query".to_string()))
    }

    /// Is a transaction open on this session?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    fn exec_statement(
        &mut self,
        stmt: Statement,
        at: Option<(usize, usize)>,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::Select(sel) => self.select(&sel, at),
            Statement::Update(p) if self.txn.is_some() => self.buffer(&p),
            Statement::CallProc { name, .. } if self.txn.is_some() => Err(DbError::Other(format!(
                "procedure `{name}` cannot run inside a session transaction \
                 (procedures execute against shared storage); commit first"
            ))),
            // Schema DDL inside a transaction would bypass both the
            // write buffer and conflict validation; refuse it.
            _ if self.txn.is_some() => Err(DbError::Other(
                "only select / set / add / remove / commit / rollback are \
                 allowed inside a session transaction"
                    .to_string(),
            )),
            // Data statements outside a transaction autocommit the way
            // `commit;` does: in an engine transaction, so pinned
            // sessions see a committed version rather than in-place
            // mutation, and acknowledged only once the WAL has synced
            // the batch, waited for after the write lock is released.
            Statement::Update(_)
            | Statement::CallProc { .. }
            | Statement::CreateInstances { .. } => self.commit_with(|eng| {
                let (summary, waiter) = eng.implicit_txn(stmt, Amos::commit_deferred_durability)?;
                Ok((ExecResult::Committed(summary), waiter))
            }),
            // Everything else (schema DDL, activate, explain) behaves
            // exactly as in single-session use, serialized under the
            // write lock.
            _ => self.engine.with_write(|eng| eng.exec_statement(stmt, at)),
        }
    }

    // ------------------------------------------------------------------
    // Transaction control
    // ------------------------------------------------------------------

    fn begin(&mut self) -> Result<ExecResult, DbError> {
        if self.txn.is_some() {
            return Err(DbError::Other("transaction already open".to_string()));
        }
        // Pin under the read lock: commits hold the write lock, so the
        // observed commit_seq cannot move between the read and the pin.
        let begin_seq = self.engine.with_read(|eng| eng.storage().pin_snapshot());
        self.txn = Some(OpenTxn {
            begin_seq,
            writes: HashMap::new(),
            write_keys: HashMap::new(),
            reads: RefCell::new(ReadTrace::default()),
        });
        Ok(ExecResult::Ok)
    }

    fn rollback(&mut self) -> Result<ExecResult, DbError> {
        match self.txn.take() {
            Some(txn) => {
                self.engine
                    .with_read(|eng| eng.storage().unpin_snapshot(txn.begin_seq));
                Ok(ExecResult::Ok)
            }
            None => Err(DbError::Other("no open transaction".to_string())),
        }
    }

    /// Validate against concurrently committed versions, then apply the
    /// buffered write-set and run the deferred check phase — all under
    /// the write lock.
    fn commit(&mut self) -> Result<ExecResult, DbError> {
        let txn = match self.txn.take() {
            Some(t) => t,
            None => return Err(DbError::Other("no open transaction".to_string())),
        };
        self.commit_with(|eng| Self::commit_critical(eng, &txn))
    }

    /// Run a commit critical section under the write lock, then wait
    /// for its durability. The WAL batch only enters the group-commit
    /// buffer inside the critical section; the fsync wait happens
    /// *after* the write lock is released, on the returned
    /// [`CommitWaiter`], so independent sessions coalesce their
    /// durability into one group fsync while the next commit already
    /// holds the lock.
    fn commit_with(
        &self,
        critical: impl FnOnce(&mut Amos) -> Result<(ExecResult, Option<CommitWaiter>), DbError>,
    ) -> Result<ExecResult, DbError> {
        let engine = &self.engine;
        let (result, waiter) = engine.with_write(|eng| {
            let start = Instant::now();
            let out = critical(eng);
            engine.note_commit_lock_hold(start.elapsed().as_nanos() as u64);
            out
        })?;
        // Off-lock durability wait: the engine state (and this commit's
        // rule firings) are already published; only the fsync
        // acknowledgment is pending. On error the batch's durability is
        // unknown — surface it, the transaction is not silently lost
        // (it stays queued for the next flush / shutdown).
        if let Some(w) = waiter {
            w.wait().map_err(DbError::from)?;
        }
        Ok(result)
    }

    /// The commit critical section (runs under the engine write lock):
    /// validate → apply write-set → deferred check phase → frame the
    /// WAL batch. Returns the statement result plus the durability
    /// waiter to block on after the lock is released.
    fn commit_critical(
        eng: &mut Amos,
        txn: &OpenTxn,
    ) -> Result<(ExecResult, Option<CommitWaiter>), DbError> {
        // Read-only means no write was buffered. A write-set that nets
        // to nothing still validates its reads: in commit order its
        // writes may not cancel out.
        if txn.write_keys.is_empty() {
            // A read-only transaction serializes at its snapshot
            // point; nothing to validate, nothing to apply.
            eng.storage().unpin_snapshot(txn.begin_seq);
            return Ok((ExecResult::Committed(CheckSummary::default()), None));
        }
        if let Some(relation) = validate(eng, txn) {
            eng.storage().unpin_snapshot(txn.begin_seq);
            return Err(DbError::TxnConflict { relation });
        }
        // First committer: replay the net write-set inside a normal
        // storage transaction (Δ-sets accumulate for monitored
        // relations; the WAL sees one group-committed batch).
        eng.storage_mut().begin()?;
        let mut rels: Vec<RelId> = txn.writes.keys().copied().collect();
        rels.sort();
        let storage = eng.storage_mut();
        let applied = rels.into_iter().try_for_each(|rel| {
            let d = &txn.writes[&rel];
            let mut minus: Vec<&Tuple> = d.minus().iter().collect();
            minus.sort();
            let mut plus: Vec<&Tuple> = d.plus().iter().collect();
            plus.sort();
            for t in minus {
                storage.delete(rel, t)?;
            }
            plus.into_iter()
                .try_for_each(|t| storage.insert(rel, t.clone()).map(drop))
        });
        let committed = applied
            .map_err(DbError::from)
            .and_then(|()| eng.commit_deferred_durability());
        match committed {
            Ok((summary, waiter)) => {
                eng.storage().unpin_snapshot(txn.begin_seq);
                Ok((ExecResult::Committed(summary), waiter))
            }
            Err(e) => {
                if eng.storage().in_transaction() {
                    let _ = eng.rollback();
                }
                eng.storage().unpin_snapshot(txn.begin_seq);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // In-transaction statements
    // ------------------------------------------------------------------

    /// A select runs under the read lock, in parallel with other
    /// sessions' reads. Inside a transaction it reads the snapshot and
    /// records its scans for commit-time validation.
    fn select(&self, sel: &Select, at: Option<(usize, usize)>) -> Result<ExecResult, DbError> {
        self.engine.with_read(|eng| {
            let rows = match &self.txn {
                Some(txn) => {
                    let layers = txn.layers(eng.storage());
                    eng.select_rows(sel, at, &layers, Some(&txn.reads))?
                }
                None => eng.select_rows(sel, at, &LayerStacks::default(), None)?,
            };
            Ok(ExecResult::Rows(rows))
        })
    }

    /// The buffered door of the statement executor: evaluate `p`
    /// against this transaction's snapshot, recording its reads, and
    /// fold its write into the write-set as the snapshot shows the
    /// state. `set` replaces every visible tuple at its key; `add` folds
    /// only when its tuple is not visible and `remove` only when it is,
    /// as `Storage::insert`/`delete` do in place. The key probe and the
    /// membership test are key reads; the key is written either way.
    fn buffer(&mut self, p: &ProcStmt) -> Result<ExecResult, DbError> {
        let txn = self.txn.as_mut().expect("txn checked by caller");
        self.engine.with_read(|eng| {
            let storage = eng.storage();
            // Read phase: the write, the visible tuples it replaces, and
            // whether it changes the visible state at all.
            let (w, deletes, lands) = {
                let layers = txn.layers(storage);
                let ctx = EvalContext::with_layers(storage, eng.catalog(), &layers);
                let scope = Scope::top(eng.iface_map());
                let scalar = ScalarEval {
                    ctx: &ctx,
                    scope,
                    reads: Some(&txn.reads),
                };
                let Evaluated::Write(w) = scalar.statement(p)? else {
                    unreachable!("procedure calls are refused before evaluation")
                };
                let visible = ctx.state(w.rel, StateEpoch::New);
                let key = &w.tuple.values()[..w.key_arity];
                txn.reads.borrow_mut().record_key(w.rel, w.key_arity, key);
                let mut deletes = Vec::new();
                let lands = match w.kind {
                    WriteKind::Set => {
                        let key_cols: Vec<usize> = (0..w.key_arity).collect();
                        visible.probe_into(&key_cols, &KeyRef::new(key), &mut deletes);
                        true
                    }
                    WriteKind::Add => !visible.contains(&w.tuple),
                    WriteKind::Remove => visible.contains(&w.tuple),
                };
                (w, deletes, lands)
            };
            // Write phase: fold them into the buffered write-set.
            let writes = txn.writes.entry(w.rel).or_default();
            let wkeys = txn.write_keys.entry(w.rel).or_default();
            wkeys.insert(conflict_key(&w.tuple, w.key_arity));
            for t in deletes {
                wkeys.insert(conflict_key(&t, w.key_arity));
                writes.apply_delete(t);
            }
            match w.kind {
                _ if !lands => {}
                WriteKind::Remove => writes.apply_delete(w.tuple),
                WriteKind::Set | WriteKind::Add => writes.apply_insert(w.tuple),
            }
            Ok(ExecResult::Ok)
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            // Disconnected mid-transaction: abort, releasing the pin so
            // version retention does not grow unboundedly.
            self.engine
                .with_read(|eng| eng.storage().unpin_snapshot(txn.begin_seq));
        }
    }
}

/// The conflict key of a written tuple: the stored function's key-column
/// prefix, or the whole tuple when the relation has no proper key
/// (key_arity 0, or key_arity spanning the full tuple — extents).
fn conflict_key(t: &Tuple, key_arity: usize) -> Tuple {
    if key_arity == 0 || key_arity >= t.values().len() {
        t.clone()
    } else {
        Tuple::new(t.values()[..key_arity].to_vec())
    }
}

/// First-committer-wins validation: intersect this transaction's read
/// and write footprints with the write-set of every version committed
/// after its snapshot pin. Returns the name of the first conflicting
/// relation, or `None` when the transaction is safe to commit.
fn validate(eng: &Amos, txn: &OpenTxn) -> Option<String> {
    let catalog = eng.catalog();
    let storage = eng.storage();
    // rel → key_arity, for projecting committed tuples to conflict keys.
    let mut key_arity_of: HashMap<RelId, usize> = HashMap::new();
    for def in catalog.iter() {
        if let PredKind::Stored { rel, key_arity } = def.kind {
            key_arity_of.insert(rel, key_arity);
        }
    }
    let reads = txn.reads.borrow();
    for v in storage.versions_since(txn.begin_seq) {
        for (rel, d) in &v.writes {
            let conflict = || Some(storage.relation(*rel).name().to_string());
            if reads.whole.contains(rel) {
                return conflict();
            }
            let ka = key_arity_of.get(rel).copied().unwrap_or(0);
            let wk = txn.write_keys.get(rel);
            let rk = reads.keys.get(rel);
            if wk.is_none() && rk.is_none() {
                continue;
            }
            for t in d.plus().iter().chain(d.minus()) {
                let k = conflict_key(t, ka);
                if wk.is_some_and(|s| s.contains(&k)) || rk.is_some_and(|s| s.contains(&k)) {
                    return conflict();
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shared engine must be usable from many threads; a session is
    /// movable to a worker thread (`Send`) but owned by exactly one at
    /// a time (its read trace is a `RefCell`, deliberately not `Sync`).
    #[test]
    fn shared_engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        fn assert_send<T: Send>() {}
        assert_send_sync::<SharedEngine>();
        assert_send::<Session>();
    }
}

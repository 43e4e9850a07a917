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
//!   shared storage; they fold into per-relation [`DeltaSet`]s exactly
//!   like the engine's Δ-accumulation (double updates cancel, §4.1).
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
//! property the isolation proptests pin bit-identically.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use amos_amosql::ast::{ProcStmt, Select, Statement};
use amos_amosql::compiler::compile_select_at;
use amos_amosql::parser::parse_spanned;
use amos_core::rules::CheckSummary;
use amos_objectlog::catalog::PredKind;
use amos_objectlog::clause::Literal;
use amos_objectlog::eval::EvalContext;
use amos_objectlog::plan::compile_clause;
use amos_storage::{CommitWaiter, DeltaSet, LayerStacks, RelId, StateEpoch, Storage, WalMetrics};
use amos_types::{KeyRef, Tuple, Value};

use crate::engine::{resolve_stored, Amos, ExecResult, ReadTrace, ScalarEval};
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
/// the engine-lock hold accounting — everything the `concurrent_sessions`
/// bench exports as `commit` metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommitMetrics {
    /// WAL durability counters (fsyncs, batch-size histogram, woken
    /// waiters). `None` without an attached WAL.
    pub wal: Option<WalMetrics>,
    /// Total ns the engine write lock was held by session commits.
    pub lock_hold_ns: u64,
    /// Longest single commit critical section, ns.
    pub lock_hold_ns_max: u64,
    /// Session commits measured (read-only and conflicted included).
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
/// transaction (`begin; …; commit;`). Outside a transaction statements
/// autocommit through the shared engine exactly as in single-session
/// use. Dropping a session rolls back any open transaction.
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
            Statement::Select(sel) if self.txn.is_some() => self.txn_select(&sel, at),
            Statement::Update(p) if self.txn.is_some() => self.txn_update(&p),
            Statement::CallProc { name, .. } if self.txn.is_some() => Err(DbError::Other(format!(
                "procedure `{name}` cannot run inside a session transaction \
                 (procedures execute against shared storage); commit first"
            ))),
            // Read-only statements outside a transaction run under the
            // read lock, in parallel with other sessions' reads.
            Statement::Select(sel) => self
                .engine
                .with_read(|eng| eng.run_select(&sel).map(ExecResult::Rows)),
            // Schema DDL inside a transaction would bypass both the
            // write buffer and conflict validation; refuse it.
            _ if self.txn.is_some() => Err(DbError::Other(
                "only select / set / add / remove / commit / rollback are \
                 allowed inside a session transaction"
                    .to_string(),
            )),
            // Data-mutating statements forwarded outside a transaction
            // are wrapped in an engine transaction so they publish a
            // TxnVersion — pinned sessions must see them as committed
            // versions, not as silent in-place mutation.
            Statement::CreateInstances { .. } => self.engine.with_write(|eng| {
                eng.storage_mut().begin()?;
                match eng
                    .exec_statement(stmt, at)
                    .and_then(|_| eng.commit().map(ExecResult::Committed))
                {
                    Ok(r) => Ok(r),
                    Err(e) => {
                        if eng.storage().in_transaction() {
                            let _ = eng.storage_mut().rollback();
                        }
                        Err(e)
                    }
                }
            }),
            // Everything else (schema DDL, activate, autocommit updates,
            // procedure calls, explain) behaves exactly as in
            // single-session use, serialized under the write lock. The
            // engine's own autocommit already wraps updates and calls in
            // a storage transaction, which publishes versions.
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
    /// the write lock. The WAL batch only enters the group-commit buffer
    /// inside the critical section; the fsync wait happens *after* the
    /// write lock is released, on the returned [`CommitWaiter`], so
    /// independent sessions coalesce their durability into one group
    /// fsync while the next commit already holds the lock.
    fn commit(&mut self) -> Result<ExecResult, DbError> {
        let txn = match self.txn.take() {
            Some(t) => t,
            None => return Err(DbError::Other("no open transaction".to_string())),
        };
        let engine = Arc::clone(&self.engine);
        let (result, waiter) = engine.with_write(|eng| {
            let start = Instant::now();
            let out = Self::commit_critical(eng, &txn);
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
        let read_only = txn.writes.values().all(DeltaSet::is_empty);
        if read_only {
            // A read-only transaction serializes at its snapshot
            // point; nothing to validate, nothing to apply.
            eng.storage().unpin_snapshot(txn.begin_seq);
            return Ok((
                ExecResult::Committed(CheckSummary {
                    executed: Vec::new(),
                    failed: Vec::new(),
                    passes: 0,
                }),
                None,
            ));
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
        let mut applied: Result<(), DbError> = Ok(());
        'apply: for rel in rels {
            let d = &txn.writes[&rel];
            let mut minus: Vec<&Tuple> = d.minus().iter().collect();
            minus.sort();
            let mut plus: Vec<&Tuple> = d.plus().iter().collect();
            plus.sort();
            for t in minus {
                if let Err(e) = eng.storage_mut().delete(rel, t) {
                    applied = Err(e.into());
                    break 'apply;
                }
            }
            for t in plus {
                if let Err(e) = eng.storage_mut().insert(rel, t.clone()) {
                    applied = Err(e.into());
                    break 'apply;
                }
            }
        }
        let committed = applied.and_then(|()| eng.commit_deferred_durability());
        match committed {
            Ok((summary, waiter)) => {
                eng.storage().unpin_snapshot(txn.begin_seq);
                Ok((ExecResult::Committed(summary), waiter))
            }
            Err(e) => {
                if eng.storage().in_transaction() {
                    let _ = eng.storage_mut().rollback();
                }
                eng.storage().unpin_snapshot(txn.begin_seq);
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // In-transaction statements
    // ------------------------------------------------------------------

    fn txn_select(
        &mut self,
        sel: &Select,
        at: Option<(usize, usize)>,
    ) -> Result<ExecResult, DbError> {
        let txn = self.txn.as_ref().expect("txn checked by caller");
        self.engine.with_read(|eng| {
            let q = compile_select_at(&eng.query_env(), sel, &[], at)?;
            // Record the read footprint: a select scans its stored
            // relations (directly or through derived predicates), so
            // the whole relation is a dependency.
            {
                let mut reads = txn.reads.borrow_mut();
                for clause in &q.clauses {
                    for lit in &clause.body {
                        if let Literal::Pred { pred, .. } = lit {
                            reads.record_scan(eng.catalog(), *pred);
                        }
                    }
                }
            }
            let layers = txn.layers(eng.storage());
            let ctx = EvalContext::with_layers(eng.storage(), eng.catalog(), &layers);
            let mut rows: Vec<Tuple> = Vec::new();
            for clause in &q.clauses {
                let plan = compile_clause(eng.catalog(), clause, &Default::default())?;
                ctx.plan_heads(&plan, StateEpoch::New, 0, &mut rows)?;
            }
            rows.sort();
            rows.dedup();
            Ok(ExecResult::Rows(rows))
        })
    }

    fn txn_update(&mut self, p: &ProcStmt) -> Result<ExecResult, DbError> {
        let txn = self.txn.as_mut().expect("txn checked by caller");
        self.engine.with_read(|eng| {
            let storage = eng.storage();
            let catalog = eng.catalog();
            let (func, args, value) = match p {
                ProcStmt::Set { func, args, value }
                | ProcStmt::Add { func, args, value }
                | ProcStmt::Remove { func, args, value } => (func, args, value),
                ProcStmt::Call { name, .. } => {
                    return Err(DbError::Other(format!(
                        "procedure `{name}` cannot run inside a session transaction"
                    )))
                }
            };
            let (rel, key_arity) = resolve_stored(catalog, func).map_err(DbError::Other)?;
            // Read phase: evaluate the statement against the snapshot
            // into the tuples it deletes and inserts.
            let (deletes, insert) = {
                let layers = txn.layers(storage);
                let ctx = EvalContext::with_layers(storage, catalog, &layers);
                let env = HashMap::new();
                let scalar = ScalarEval {
                    ctx: &ctx,
                    env: &env,
                    iface: eng.iface_map(),
                    reads: Some(&txn.reads),
                };
                let mut vals: Vec<Value> = args
                    .iter()
                    .map(|a| scalar.eval(a))
                    .collect::<Result<_, _>>()?;
                let set = matches!(p, ProcStmt::Set { .. });
                if set && vals.len() != key_arity {
                    return Err(DbError::Other(format!(
                        "`set {func}` expects {key_arity} key arguments, got {}",
                        vals.len()
                    )));
                }
                let v = scalar.eval(value)?;
                let mut deletes = Vec::new();
                if set {
                    // `set` semantics: delete every tuple at the key (as
                    // visible in this transaction's snapshot), insert the
                    // new one. The probe itself is a key-granular read.
                    let key_cols: Vec<usize> = (0..key_arity).collect();
                    ctx.state(rel, StateEpoch::New).probe_into(
                        &key_cols,
                        &KeyRef::new(&vals),
                        &mut deletes,
                    );
                    record_key_read(&txn.reads, rel, key_arity, &vals);
                }
                vals.push(v);
                let t = Tuple::new(vals);
                check_arity(storage, rel, &t, func)?;
                match p {
                    ProcStmt::Remove { .. } => (vec![t], None),
                    _ => (deletes, Some(t)),
                }
            };
            // Write phase: fold them into the buffered write-set.
            let writes = txn.writes.entry(rel).or_default();
            let wkeys = txn.write_keys.entry(rel).or_default();
            for t in deletes {
                wkeys.insert(conflict_key(&t, key_arity));
                writes.apply_delete(t);
            }
            if let Some(t) = insert {
                wkeys.insert(conflict_key(&t, key_arity));
                writes.apply_insert(t);
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

fn record_key_read(reads: &RefCell<ReadTrace>, rel: RelId, key_arity: usize, key: &[Value]) {
    let mut reads = reads.borrow_mut();
    if key_arity == 0 {
        reads.whole.insert(rel);
    } else {
        reads
            .keys
            .entry(rel)
            .or_default()
            .insert(Tuple::new(key.to_vec()));
    }
}

fn check_arity(storage: &Storage, rel: RelId, t: &Tuple, func: &str) -> Result<(), DbError> {
    let arity = storage.relation(rel).arity();
    if t.values().len() != arity {
        return Err(DbError::Other(format!(
            "`{func}` stores {arity}-tuples, got {}",
            t.values().len()
        )));
    }
    Ok(())
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

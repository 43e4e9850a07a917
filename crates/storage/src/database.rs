//! The storage database: base relations + transactions + monitored
//! Δ-set accumulation.
//!
//! The paper (§4.1): "During database transactions, before these physical
//! update events are written to the log, a check is made if a stored base
//! relation was updated that might change the truth value of some
//! activated rule condition. If so, the physical events are accumulated
//! in a Δ-set … Only those functions that are influents of some rule
//! condition need Δ-sets." — i.e. *no overhead on operations that do not
//! affect any rule*.
//!
//! [`Storage`] implements exactly that contract: relations are marked
//! monitored when a rule depending on them is activated; only then do
//! updates pay the Δ-set accumulation cost. The rule layer reads the
//! accumulated Δ-sets at the deferred check phase and clears them.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::Mutex;

use amos_types::{KeyRef, Oid, OidGenerator, Tuple, Value};

use crate::delta::DeltaSet;
use crate::error::StorageError;
use crate::log::{LogOp, UpdateLog};
use crate::relation::BaseRelation;
use crate::snapshot::{self, Snapshot, SnapshotRelation, SNAPSHOT_FILE};
use crate::txn::TxnVersion;
use crate::wal::{CommitWaiter, WalConfig, WalMetrics, WalRecord, WalWriter};

/// Identifier of a base relation within a [`Storage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelId(pub u32);

/// An opaque position in the undo log, for partial rollback
/// ([`Storage::rollback_to`]). A savepoint is only valid within the
/// transaction epoch it was taken in: any `begin`, `commit`, or
/// `rollback` invalidates it (the undo log it indexed into is gone),
/// and [`Storage::rollback_to`] rejects it with
/// [`StorageError::StaleSavepoint`] instead of undoing an unrelated
/// log suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Savepoint {
    log_len: usize,
    epoch: u64,
}

/// What [`Storage::attach_wal`] found and replayed from disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Sequence number the snapshot covered (0 without one).
    pub snapshot_seq: u64,
    /// WAL batches replayed on top of the snapshot.
    pub batches_replayed: usize,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: usize,
    /// Bytes of torn tail discarded (crash debris past the last valid
    /// batch).
    pub torn_tail_bytes: u64,
    /// Highest committed sequence number recovered.
    pub last_seq: u64,
}

/// The database of base relations.
#[derive(Debug, Default)]
pub struct Storage {
    relations: Vec<BaseRelation>,
    by_name: HashMap<String, RelId>,
    /// Relations that are influents of some activated rule condition.
    monitored: HashSet<RelId>,
    /// Accumulated logical events for monitored relations, keyed by
    /// relation. Present only while non-empty.
    deltas: HashMap<RelId, DeltaSet>,
    log: UpdateLog,
    txn_open: bool,
    /// Bumped whenever the undo log's identity changes (`begin`,
    /// `commit`, `rollback`); savepoints record it so stale ones are
    /// rejected rather than silently undoing an unrelated log suffix.
    epoch: u64,
    oids: OidGenerator,
    /// Durable log of committed batches, when attached.
    wal: Option<WalWriter>,
    /// Names of relations materialized by recovery that no DDL has
    /// claimed yet: the next `create_relation` with a matching name and
    /// arity *adopts* the recovered data instead of erroring, so
    /// re-running the schema script after a restart just works.
    recovered: HashSet<String>,
    /// Relations declared append-only by the caller. Advisory schema
    /// metadata: the network builder prunes Δ₋ differentials on these
    /// relations, which is sound only while the caller honours the
    /// no-deletes contract.
    append_only: HashSet<RelId>,
    /// Seal-threshold override applied to every relation (existing and
    /// future). `None` keeps the per-relation default. A physical
    /// layout knob only — logical content is identical at any setting
    /// (the sorted-run ≡ hash-map proptests pin this).
    seal_threshold: Option<usize>,
    /// Commit sequence number: bumped by every successful [`commit`]
    /// (never by `begin`/`rollback`, unlike `epoch`). Snapshot pins and
    /// [`TxnVersion`]s are keyed by it.
    commit_seq: u64,
    /// Net write-sets of committed transactions, oldest first, published
    /// by [`commit`] *only while at least one snapshot pin is
    /// registered* — the single-session fast path never pays for
    /// version retention. Garbage-collected up to the oldest pin.
    versions: Vec<TxnVersion>,
    /// Refcounted snapshot pins keyed by the `commit_seq` they hold.
    /// Interior mutability: sessions pin/unpin through `&Storage` while
    /// holding only the engine's read lock (commits, which mutate
    /// `versions`, hold the write lock and therefore never race).
    pins: Mutex<BTreeMap<u64, usize>>,
    /// Where `set_functional` collects the tuples it replaces (kept empty).
    set_scratch: Vec<Tuple>,
}

impl Storage {
    /// An empty database.
    pub fn new() -> Self {
        Storage {
            oids: OidGenerator::new(),
            ..Storage::default()
        }
    }

    // ------------------------------------------------------------------
    // Schema
    // ------------------------------------------------------------------

    /// Register a new base relation.
    pub fn create_relation(
        &mut self,
        name: impl Into<String>,
        arity: usize,
    ) -> Result<RelId, StorageError> {
        let name = name.into();
        // The WAL and snapshot codecs frame names with a u16 length;
        // a longer name would encode a wrong length and decode as
        // corruption at recovery.
        if name.len() > u16::MAX as usize {
            return Err(StorageError::RelationNameTooLong { len: name.len() });
        }
        if let Some(&id) = self.by_name.get(&name) {
            // Recovery may have materialized this relation from the WAL
            // before the schema script re-ran; adopt it.
            if self.recovered.remove(&name) {
                let existing = self.relation(id).arity();
                if existing == arity {
                    return Ok(id);
                }
                return Err(StorageError::ArityMismatch {
                    relation: name,
                    expected: existing,
                    found: arity,
                });
            }
            return Err(StorageError::DuplicateRelation(name));
        }
        let id = RelId(self.relations.len() as u32);
        let mut rel = BaseRelation::new(name.clone(), arity);
        if let Some(t) = self.seal_threshold {
            rel.set_seal_threshold(t);
        }
        self.relations.push(rel);
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Override the sorted-run seal threshold on every relation,
    /// existing and future (`usize::MAX` effectively restores pure
    /// hash-set behaviour; small values exercise runs aggressively).
    pub fn set_seal_threshold(&mut self, threshold: usize) {
        self.seal_threshold = Some(threshold);
        for r in &mut self.relations {
            r.set_seal_threshold(threshold);
        }
    }

    /// Look up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Result<RelId, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownRelation(name.to_string()))
    }

    /// Immutable access to a relation.
    pub fn relation(&self, id: RelId) -> &BaseRelation {
        &self.relations[id.0 as usize]
    }

    /// Ensure an index on a relation (done by the plan compiler at rule
    /// activation time).
    pub fn ensure_index(&mut self, id: RelId, cols: &[usize]) {
        self.relations[id.0 as usize].ensure_index(cols);
    }

    /// Allocate a fresh surrogate object id.
    pub fn fresh_oid(&mut self) -> Oid {
        self.oids.fresh()
    }

    /// All relation ids, in creation order.
    pub fn relation_ids(&self) -> impl Iterator<Item = RelId> {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// Total index-less probes across all relations that silently
    /// degraded to full scans (see [`BaseRelation::fallback_scans`]).
    /// Monotonically increasing; callers diff across a pass.
    pub fn fallback_scans_total(&self) -> u64 {
        self.relations.iter().map(|r| r.fallback_scans()).sum()
    }

    /// Drain the `(relation name, column set)` pairs that triggered a
    /// fallback scan since the previous drain — the once-per-pass log of
    /// missing indexes.
    pub fn take_fallback_sites(&self) -> Vec<(String, Vec<usize>)> {
        let mut out = Vec::new();
        for r in &self.relations {
            for cols in r.take_fallback_sites() {
                out.push((r.name().to_string(), cols));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Monitoring
    // ------------------------------------------------------------------

    /// Mark a relation as an influent of some activated rule: its updates
    /// will accumulate a Δ-set from now on.
    pub fn monitor(&mut self, id: RelId) {
        self.monitored.insert(id);
    }

    /// Stop monitoring a relation (last depending rule deactivated).
    pub fn unmonitor(&mut self, id: RelId) {
        self.monitored.remove(&id);
        self.deltas.remove(&id);
    }

    /// Whether the relation is currently monitored.
    pub fn is_monitored(&self, id: RelId) -> bool {
        self.monitored.contains(&id)
    }

    /// Declare (or retract) a relation as append-only. The minus side of
    /// its Δ-set can then be assumed empty, letting the network builder
    /// drop dead `Δ₋` differentials. The flag is a caller contract —
    /// deletes are *not* rejected here, so marking a relation that does
    /// see deletes makes the pruning unsound.
    pub fn set_append_only(&mut self, id: RelId, on: bool) {
        if on {
            self.append_only.insert(id);
        } else {
            self.append_only.remove(&id);
        }
    }

    /// Whether the relation was declared append-only.
    pub fn is_append_only(&self, id: RelId) -> bool {
        self.append_only.contains(&id)
    }

    /// The accumulated Δ-set of a monitored relation (empty if none).
    pub fn delta(&self, id: RelId) -> Option<&DeltaSet> {
        self.deltas.get(&id)
    }

    /// All relations with non-empty Δ-sets.
    pub fn changed_relations(&self) -> Vec<RelId> {
        let mut v: Vec<RelId> = self
            .deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .map(|(id, _)| *id)
            .collect();
        v.sort();
        v
    }

    /// Whether any monitored relation changed in this transaction.
    pub fn has_changes(&self) -> bool {
        self.deltas.values().any(|d| !d.is_empty())
    }

    /// Clear all accumulated Δ-sets (end of check phase).
    pub fn clear_deltas(&mut self) {
        self.deltas.clear();
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    fn record(&mut self, id: RelId, op: LogOp, tuple: Tuple) -> Result<(), StorageError> {
        // Outside a transaction each event autocommits: it is durable (its
        // own WAL batch) before the update returns. A WAL failure here
        // aborts the whole event — the caller un-applies the relation
        // change, so memory and disk stay in step.
        if !self.txn_open {
            if let Some(wal) = &mut self.wal {
                wal.append(&[WalRecord {
                    rel: self.relations[id.0 as usize].name().to_string(),
                    op,
                    tuple: tuple.clone(),
                }])?;
            }
        }
        if self.monitored.contains(&id) {
            let d = self.deltas.entry(id).or_default();
            match op {
                LogOp::Insert => d.apply_insert(tuple.clone()),
                LogOp::Delete => d.apply_delete(tuple.clone()),
            }
        }
        self.log.push(id, op, tuple);
        Ok(())
    }

    /// Insert a tuple; returns `true` iff the database changed.
    pub fn insert(&mut self, id: RelId, tuple: Tuple) -> Result<bool, StorageError> {
        let rel = &mut self.relations[id.0 as usize];
        if tuple.arity() != rel.arity() {
            return Err(StorageError::ArityMismatch {
                relation: rel.name().to_string(),
                expected: rel.arity(),
                found: tuple.arity(),
            });
        }
        if rel.insert(tuple.clone()) {
            if let Err(e) = self.record(id, LogOp::Insert, tuple.clone()) {
                self.relations[id.0 as usize].delete(&tuple);
                return Err(e);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Delete a tuple; returns `true` iff the database changed.
    pub fn delete(&mut self, id: RelId, tuple: &Tuple) -> Result<bool, StorageError> {
        let rel = &mut self.relations[id.0 as usize];
        if rel.delete(tuple) {
            if let Err(e) = self.record(id, LogOp::Delete, tuple.clone()) {
                self.relations[id.0 as usize].insert(tuple.clone());
                return Err(e);
            }
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Functional update for stored functions: `set f(key…) = rest…`.
    ///
    /// Removes any existing tuples whose first `key.len()` columns equal
    /// `key`, then inserts `key ++ rest` — producing exactly the
    /// `−(f,k,old), +(f,k,new)` physical event sequence of §4.1.
    pub fn set_functional(
        &mut self,
        id: RelId,
        key: &[Value],
        rest: &[Value],
    ) -> Result<(), StorageError> {
        // The replaced tuples are found through the borrowed-key probe and
        // land in a buffer the storage keeps: nothing is allocated here.
        const LEADING: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
        let wide: Vec<usize>;
        let cols = match LEADING.get(..key.len()) {
            Some(cols) => cols,
            None => {
                wide = (0..key.len()).collect();
                &wide
            }
        };
        let mut old = std::mem::take(&mut self.set_scratch);
        self.relation(id)
            .probe_into(cols, &KeyRef::new(key), &mut old);
        let deleted = old
            .drain(..)
            .try_for_each(|t| self.delete(id, &t).map(drop));
        self.set_scratch = old;
        deleted?;
        let mut vals = key.to_vec();
        vals.extend_from_slice(rest);
        self.insert(id, Tuple::new(vals))?;
        Ok(())
    }

    /// Multi-valued add for stored functions: `add f(key…) = rest…`.
    pub fn add_functional(
        &mut self,
        id: RelId,
        key: &[Value],
        rest: &[Value],
    ) -> Result<bool, StorageError> {
        let mut vals = key.to_vec();
        vals.extend_from_slice(rest);
        self.insert(id, Tuple::new(vals))
    }

    /// Multi-valued remove for stored functions: `remove f(key…) = rest…`.
    pub fn remove_functional(
        &mut self,
        id: RelId,
        key: &[Value],
        rest: &[Value],
    ) -> Result<bool, StorageError> {
        let mut vals = key.to_vec();
        vals.extend_from_slice(rest);
        self.delete(id, &Tuple::new(vals))
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Open a transaction.
    pub fn begin(&mut self) -> Result<(), StorageError> {
        if self.txn_open {
            return Err(StorageError::TransactionAlreadyOpen);
        }
        // Updates outside a transaction autocommit; their events are not
        // part of the new transaction's undo scope or Δ-sets.
        self.log.clear();
        self.clear_deltas();
        self.txn_open = true;
        self.epoch += 1;
        Ok(())
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn_open
    }

    /// Commit: make the transaction's surviving events durable (one WAL
    /// batch, if a WAL is attached), then discard the undo log and
    /// Δ-sets. The *rule check phase* must run before this (the engine
    /// layer orchestrates it).
    ///
    /// On a WAL write failure the transaction stays open and nothing is
    /// discarded — the caller may retry the commit or roll back.
    pub fn commit(&mut self) -> Result<(), StorageError> {
        self.commit_inner(false).map(|_| ())
    }

    /// Commit with *deferred durability*: the WAL batch is framed into
    /// the group-commit buffer but not written or synced. Returns a
    /// [`CommitWaiter`] (when a WAL is attached and the transaction
    /// wrote anything) for the caller to block on **after** releasing
    /// whatever lock serializes commits — that off-lock wait is the
    /// commit pipeline's point.
    pub fn commit_buffered(&mut self) -> Result<Option<CommitWaiter>, StorageError> {
        self.commit_inner(true)
    }

    fn commit_inner(&mut self, buffered: bool) -> Result<Option<CommitWaiter>, StorageError> {
        if !self.txn_open {
            return Err(StorageError::NoOpenTransaction);
        }
        let mut waiter = None;
        if let Some(wal) = &mut self.wal {
            if !self.log.is_empty() {
                let records: Vec<WalRecord> = self
                    .log
                    .records()
                    .iter()
                    .map(|r| WalRecord {
                        rel: self.relations[r.rel.0 as usize].name().to_string(),
                        op: r.op,
                        tuple: r.tuple.clone(),
                    })
                    .collect();
                if buffered {
                    waiter = Some(wal.append_buffered(&records));
                } else {
                    wal.append(&records)?;
                }
            }
        }
        self.commit_seq += 1;
        if self.has_pins() && !self.log.is_empty() {
            // Fold the physical update log into net per-relation Δ-sets
            // (rule-action writes from the check phase included) so
            // pinned sessions can correct their snapshot reads and
            // validate conflicts against this commit.
            let mut writes: BTreeMap<RelId, DeltaSet> = BTreeMap::new();
            for r in self.log.records() {
                let d = writes.entry(r.rel).or_default();
                match r.op {
                    LogOp::Insert => d.apply_insert(r.tuple.clone()),
                    LogOp::Delete => d.apply_delete(r.tuple.clone()),
                }
            }
            writes.retain(|_, d| !d.is_empty());
            if !writes.is_empty() {
                self.versions.push(TxnVersion {
                    seq: self.commit_seq,
                    writes: writes.into_iter().collect(),
                });
            }
        }
        self.gc_versions();
        self.log.clear();
        self.clear_deltas();
        self.txn_open = false;
        self.epoch += 1;
        Ok(waiter)
    }

    // ------------------------------------------------------------------
    // Snapshot pins and committed versions (multi-session isolation)
    // ------------------------------------------------------------------

    /// The current commit sequence number (bumped by every successful
    /// commit; `begin`/`rollback` leave it unchanged).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Register a snapshot pin at the current commit sequence and return
    /// it. While any pin is registered, commits publish [`TxnVersion`]s
    /// so the pinned reader can reconstruct its snapshot; the caller
    /// must [`unpin_snapshot`](Storage::unpin_snapshot) the returned
    /// sequence exactly once.
    pub fn pin_snapshot(&self) -> u64 {
        let seq = self.commit_seq;
        *self
            .pins
            .lock()
            .expect("snapshot pins lock")
            .entry(seq)
            .or_insert(0) += 1;
        seq
    }

    /// Release one pin taken at `seq`. Retained versions the pin was
    /// holding are collected at the next commit.
    pub fn unpin_snapshot(&self, seq: u64) {
        let mut pins = self.pins.lock().expect("snapshot pins lock");
        if let Some(n) = pins.get_mut(&seq) {
            *n -= 1;
            if *n == 0 {
                pins.remove(&seq);
            }
        }
    }

    /// Committed versions with `seq` strictly greater than `seq` —
    /// exactly the corrections a session pinned at `seq` must undo to
    /// read its snapshot, and the commits it must validate against.
    pub fn versions_since(&self, seq: u64) -> &[TxnVersion] {
        let start = self.versions.partition_point(|v| v.seq <= seq);
        &self.versions[start..]
    }

    fn has_pins(&self) -> bool {
        !self.pins.lock().expect("snapshot pins lock").is_empty()
    }

    /// Drop versions no pinned snapshot can still need (everything at or
    /// below the oldest pin; everything when no pins remain).
    fn gc_versions(&mut self) {
        if self.versions.is_empty() {
            return;
        }
        let min_pin = self
            .pins
            .lock()
            .expect("snapshot pins lock")
            .keys()
            .next()
            .copied();
        match min_pin {
            Some(m) => self.versions.retain(|v| v.seq > m),
            None => self.versions.clear(),
        }
    }

    /// Roll back: undo all physical events in reverse order, restoring
    /// the pre-transaction state, and discard Δ-sets.
    pub fn rollback(&mut self) -> Result<(), StorageError> {
        if !self.txn_open {
            return Err(StorageError::NoOpenTransaction);
        }
        while let Some(rec) = self.log.pop_for_undo() {
            let rel = &mut self.relations[rec.rel.0 as usize];
            match rec.op {
                LogOp::Insert => {
                    rel.delete(&rec.tuple);
                }
                LogOp::Delete => {
                    rel.insert(rec.tuple);
                }
            }
        }
        self.clear_deltas();
        self.txn_open = false;
        self.epoch += 1;
        Ok(())
    }

    /// Take a savepoint: a position in the undo log that
    /// [`Storage::rollback_to`] can rewind to without aborting the
    /// transaction.
    pub fn savepoint(&self) -> Savepoint {
        Savepoint {
            log_len: self.log.len(),
            epoch: self.epoch,
        }
    }

    /// Partial rollback: undo, in reverse order, every event recorded
    /// after `sp`, rewinding both the relations *and* the Δ-sets (each
    /// undone insert re-applies as a delete to the Δ-set and vice versa,
    /// so the Δ-sets stay net-of-surviving-events — the property the
    /// savepoint-algebra proptests pin down). Returns the number of
    /// events undone.
    ///
    /// Undone events never reach the WAL: durability is decided at
    /// commit, which writes only the records still in the log.
    pub fn rollback_to(&mut self, sp: Savepoint) -> Result<usize, StorageError> {
        if sp.epoch != self.epoch {
            return Err(StorageError::StaleSavepoint {
                savepoint_epoch: sp.epoch,
                current_epoch: self.epoch,
            });
        }
        if sp.log_len > self.log.len() {
            return Err(StorageError::InvalidSavepoint {
                savepoint: sp.log_len,
                log_len: self.log.len(),
            });
        }
        let mut undone = 0;
        while self.log.len() > sp.log_len {
            let rec = self.log.pop_for_undo().expect("length checked");
            let rel = &mut self.relations[rec.rel.0 as usize];
            match rec.op {
                LogOp::Insert => {
                    rel.delete(&rec.tuple);
                    if self.monitored.contains(&rec.rel) {
                        self.deltas
                            .entry(rec.rel)
                            .or_default()
                            .apply_delete(rec.tuple);
                    }
                }
                LogOp::Delete => {
                    rel.insert(rec.tuple.clone());
                    if self.monitored.contains(&rec.rel) {
                        self.deltas
                            .entry(rec.rel)
                            .or_default()
                            .apply_insert(rec.tuple);
                    }
                }
            }
            undone += 1;
        }
        Ok(undone)
    }

    /// The current undo log (introspection / tests).
    pub fn log(&self) -> &UpdateLog {
        &self.log
    }

    // ------------------------------------------------------------------
    // Durability (WAL + snapshots)
    // ------------------------------------------------------------------

    /// Attach a durable WAL at `dir`, first recovering whatever committed
    /// state the directory holds: the snapshot (if any) is loaded, then
    /// every WAL batch past the snapshot is replayed, a torn tail is
    /// truncated, and the oid allocator is advanced past every recovered
    /// oid. From here on every committed transaction (and every
    /// autocommitted update) is appended to the WAL.
    ///
    /// Replay bypasses the undo log and Δ-sets — recovered state is
    /// *committed* state; there is nothing to undo and, at commit
    /// boundaries, all Δ-sets are empty by construction. Relations not
    /// yet declared are materialized and later *adopted* by
    /// [`Storage::create_relation`] when the schema script re-runs.
    pub fn attach_wal(
        &mut self,
        dir: impl AsRef<Path>,
        config: WalConfig,
    ) -> Result<RecoveryInfo, StorageError> {
        if self.wal.is_some() {
            return Err(StorageError::Io("a WAL is already attached".into()));
        }
        if self.txn_open {
            return Err(StorageError::TransactionAlreadyOpen);
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;

        let mut info = RecoveryInfo::default();
        if let Some(snap) = snapshot::read_snapshot(&dir.join(SNAPSHOT_FILE))? {
            info.snapshot_loaded = true;
            info.snapshot_seq = snap.last_seq;
            self.oids
                .ensure_above(Oid::from_raw(snap.next_oid.saturating_sub(1)));
            for rel in snap.relations {
                // Adopt the snapshot's sorted runs directly — no
                // tuple-by-tuple rehydration through hash maps; only the
                // oid scan below touches individual tuples.
                let id = self.recovered_relation_from_runs(&rel.name, rel.arity, rel.runs)?;
                let oids: Vec<Oid> = self.relations[id.0 as usize]
                    .scan()
                    .flat_map(|t| t.iter())
                    .filter_map(|v| match v {
                        Value::Oid(o) => Some(*o),
                        _ => None,
                    })
                    .collect();
                for o in oids {
                    self.oids.ensure_above(o);
                }
            }
        }

        let (mut writer, read) = WalWriter::open(dir, config)?;
        // The log was truncated at the last checkpoint, so the writer's
        // scan-derived sequence may restart below the snapshot's: raise
        // it, or this session's commits would be skipped (as already
        // snapshotted) by the next recovery.
        writer.ensure_seq_above(info.snapshot_seq);
        info.torn_tail_bytes = read.total_bytes.saturating_sub(read.valid_bytes);
        for batch in &read.batches {
            if batch.seq <= info.snapshot_seq {
                continue; // already captured by the snapshot
            }
            info.batches_replayed += 1;
            for rec in &batch.records {
                info.records_replayed += 1;
                let id = self.recovered_relation(&rec.rel, rec.tuple.arity())?;
                self.note_recovered_oids(&rec.tuple);
                let rel = &mut self.relations[id.0 as usize];
                match rec.op {
                    LogOp::Insert => {
                        rel.insert(rec.tuple.clone());
                    }
                    LogOp::Delete => {
                        rel.delete(&rec.tuple);
                    }
                }
            }
        }
        info.last_seq = read.last_seq().max(info.snapshot_seq);
        self.wal = Some(writer);
        Ok(info)
    }

    /// Whether a WAL is attached.
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Mutable access to the attached WAL writer (tests, fault plans).
    pub fn wal_mut(&mut self) -> Option<&mut WalWriter> {
        self.wal.as_mut()
    }

    /// Durability counters of the attached WAL (fsyncs, group sizes,
    /// woken commit waiters). `None` when no WAL is attached.
    pub fn wal_metrics(&self) -> Option<WalMetrics> {
        self.wal.as_ref().map(|w| w.metrics())
    }

    /// Checkpoint: atomically write a snapshot of every relation plus
    /// the oid allocator, then truncate the WAL — bounding recovery time
    /// by the work since this call. Requires an attached WAL and no open
    /// transaction.
    pub fn checkpoint(&mut self) -> Result<(), StorageError> {
        if self.txn_open {
            return Err(StorageError::TransactionAlreadyOpen);
        }
        let next_oid = self.oids.allocated() + 1;
        let relations: Vec<SnapshotRelation> = self
            .relations
            .iter()
            .map(|r| SnapshotRelation {
                name: r.name().to_string(),
                arity: r.arity(),
                runs: r.snapshot_runs(),
            })
            .collect();
        let wal = self
            .wal
            .as_mut()
            .ok_or_else(|| StorageError::Io("no WAL attached".into()))?;
        wal.flush()?;
        let snap = Snapshot {
            last_seq: wal.next_seq() - 1,
            next_oid,
            relations,
        };
        let path = wal
            .path()
            .parent()
            .expect("WAL file lives in a directory")
            .join(SNAPSHOT_FILE);
        snapshot::write_snapshot(&path, &snap)?;
        wal.truncate_after_checkpoint()?;
        Ok(())
    }

    /// Materialize a relation from snapshot runs during recovery,
    /// validating arity. The runs are adopted as the relation's
    /// physical layout ([`BaseRelation::from_runs`]); if the relation
    /// already exists (schema declared before `attach_wal`) the runs
    /// fold in through regular inserts instead.
    fn recovered_relation_from_runs(
        &mut self,
        name: &str,
        arity: usize,
        runs: Vec<Vec<Tuple>>,
    ) -> Result<RelId, StorageError> {
        if let Some(&id) = self.by_name.get(name) {
            let existing = self.relation(id).arity();
            if existing != arity {
                return Err(StorageError::Corrupt(format!(
                    "recovered tuple of arity {arity} for relation `{name}` of arity {existing}"
                )));
            }
            for t in runs.into_iter().flatten() {
                self.relations[id.0 as usize].insert(t);
            }
            return Ok(id);
        }
        let id = RelId(self.relations.len() as u32);
        let mut rel = BaseRelation::from_runs(name, arity, runs);
        if let Some(t) = self.seal_threshold {
            rel.set_seal_threshold(t);
        }
        self.relations.push(rel);
        self.by_name.insert(name.to_string(), id);
        self.recovered.insert(name.to_string());
        Ok(id)
    }

    /// Get-or-create a relation during recovery, validating arity.
    fn recovered_relation(&mut self, name: &str, arity: usize) -> Result<RelId, StorageError> {
        if let Some(&id) = self.by_name.get(name) {
            let existing = self.relation(id).arity();
            if existing != arity {
                return Err(StorageError::Corrupt(format!(
                    "recovered tuple of arity {arity} for relation `{name}` of arity {existing}"
                )));
            }
            return Ok(id);
        }
        let id = RelId(self.relations.len() as u32);
        let mut rel = BaseRelation::new(name, arity);
        if let Some(t) = self.seal_threshold {
            rel.set_seal_threshold(t);
        }
        self.relations.push(rel);
        self.by_name.insert(name.to_string(), id);
        self.recovered.insert(name.to_string());
        Ok(id)
    }

    /// Advance the oid allocator past every oid in a recovered tuple.
    fn note_recovered_oids(&mut self, t: &Tuple) {
        for v in t.iter() {
            if let Value::Oid(o) = v {
                self.oids.ensure_above(*o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{Layer, StateView};
    use amos_types::tuple;

    fn db_with_rel() -> (Storage, RelId) {
        let mut db = Storage::new();
        let q = db.create_relation("q", 2).unwrap();
        (db, q)
    }

    #[test]
    fn unmonitored_updates_accumulate_no_delta() {
        let (mut db, q) = db_with_rel();
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        assert!(
            db.delta(q).is_none(),
            "no Δ-set overhead without monitoring"
        );
        assert!(!db.has_changes());
    }

    #[test]
    fn monitored_updates_accumulate_net_delta() {
        let (mut db, q) = db_with_rel();
        db.monitor(q);
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        db.delete(q, &tuple![1, 2]).unwrap();
        assert!(db.delta(q).unwrap().is_empty(), "net effect is zero");
        db.insert(q, tuple![3, 4]).unwrap();
        assert_eq!(db.delta(q).unwrap().plus().len(), 1);
        assert_eq!(db.changed_relations(), vec![q]);
    }

    #[test]
    fn set_functional_produces_delete_then_insert() {
        let (mut db, q) = db_with_rel();
        db.monitor(q);
        db.begin().unwrap();
        db.insert(q, tuple![1, 100]).unwrap();
        db.commit().unwrap();

        db.begin().unwrap();
        db.set_functional(q, &[Value::Int(1)], &[Value::Int(150)])
            .unwrap();
        let d = db.delta(q).unwrap();
        assert!(d.plus().contains(&tuple![1, 150]));
        assert!(d.minus().contains(&tuple![1, 100]));
        // restore → no net effect (the §4.1 example at database level)
        db.set_functional(q, &[Value::Int(1)], &[Value::Int(100)])
            .unwrap();
        assert!(db.delta(q).unwrap().is_empty());
    }

    #[test]
    fn rollback_restores_state() {
        let (mut db, q) = db_with_rel();
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        db.commit().unwrap();

        db.begin().unwrap();
        db.insert(q, tuple![3, 4]).unwrap();
        db.delete(q, &tuple![1, 2]).unwrap();
        db.rollback().unwrap();
        assert!(db.relation(q).contains(&tuple![1, 2]));
        assert!(!db.relation(q).contains(&tuple![3, 4]));
        assert_eq!(db.relation(q).len(), 1);
    }

    #[test]
    fn undoing_the_transaction_delta_reads_the_pre_transaction_state() {
        let (mut db, q) = db_with_rel();
        db.monitor(q);
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        db.commit().unwrap();

        db.begin().unwrap();
        db.set_functional(q, &[Value::Int(1)], &[Value::Int(9)])
            .unwrap();
        let old = StateView::new(db.relation(q), &[], db.delta(q).map(Layer::Undo));
        assert!(old.contains(&tuple![1, 2]));
        assert!(!old.contains(&tuple![1, 9]));
        assert!(db.relation(q).contains(&tuple![1, 9]));
    }

    #[test]
    fn transaction_state_errors() {
        let (mut db, _) = db_with_rel();
        assert_eq!(db.commit(), Err(StorageError::NoOpenTransaction));
        db.begin().unwrap();
        assert_eq!(db.begin(), Err(StorageError::TransactionAlreadyOpen));
        db.commit().unwrap();
        assert_eq!(db.rollback(), Err(StorageError::NoOpenTransaction));
    }

    #[test]
    fn duplicate_relation_rejected() {
        let (mut db, _) = db_with_rel();
        assert!(matches!(
            db.create_relation("q", 2),
            Err(StorageError::DuplicateRelation(_))
        ));
    }

    #[test]
    fn arity_mismatch_reported() {
        let (mut db, q) = db_with_rel();
        db.begin().unwrap();
        assert!(matches!(
            db.insert(q, tuple![1]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn stale_savepoint_from_earlier_transaction_is_rejected() {
        let (mut db, q) = db_with_rel();
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        let sp = db.savepoint();
        db.insert(q, tuple![3, 4]).unwrap();
        db.commit().unwrap();

        // The next transaction can reach the same log length, so the
        // position check alone would undo an unrelated suffix.
        db.begin().unwrap();
        db.insert(q, tuple![5, 6]).unwrap();
        db.insert(q, tuple![7, 8]).unwrap();
        assert!(matches!(
            db.rollback_to(sp),
            Err(StorageError::StaleSavepoint { .. })
        ));
        assert!(db.relation(q).contains(&tuple![5, 6]), "nothing undone");
        assert!(db.relation(q).contains(&tuple![7, 8]));

        // A savepoint from the live transaction still works.
        let sp2 = db.savepoint();
        db.insert(q, tuple![9, 9]).unwrap();
        assert_eq!(db.rollback_to(sp2).unwrap(), 1);
        assert!(!db.relation(q).contains(&tuple![9, 9]));
    }

    #[test]
    fn savepoint_does_not_survive_rollback() {
        let (mut db, q) = db_with_rel();
        db.begin().unwrap();
        let sp = db.savepoint();
        db.insert(q, tuple![1, 2]).unwrap();
        db.rollback().unwrap();

        db.begin().unwrap();
        assert!(matches!(
            db.rollback_to(sp),
            Err(StorageError::StaleSavepoint { .. })
        ));
    }

    #[test]
    fn overlong_relation_name_rejected() {
        let mut db = Storage::new();
        // The WAL codec frames names with a u16 length; anything longer
        // would encode a wrong length and fail decode at recovery.
        assert!(matches!(
            db.create_relation("x".repeat(u16::MAX as usize + 1), 1),
            Err(StorageError::RelationNameTooLong { len }) if len == u16::MAX as usize + 1
        ));
        // Exactly at the limit is fine.
        db.create_relation("y".repeat(u16::MAX as usize), 1)
            .unwrap();
    }

    #[test]
    fn unmonitor_drops_delta() {
        let (mut db, q) = db_with_rel();
        db.monitor(q);
        db.begin().unwrap();
        db.insert(q, tuple![1, 2]).unwrap();
        assert!(db.has_changes());
        db.unmonitor(q);
        assert!(!db.has_changes());
    }
}

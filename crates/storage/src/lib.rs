//! # amos-storage
//!
//! Storage substrate for the AMOS partial-differencing reproduction:
//! in-memory set-oriented base relations with hash indexes, a logical
//! undo/redo log, transactions, and the Δ-set machinery of §4.1 of the
//! paper (Sköld & Risch, ICDE'96).
//!
//! The pieces map onto the paper as follows:
//!
//! * [`BaseRelation`] — a *stored function* compiled to a base relation
//!   (facts). Set semantics; optional hash indexes on column subsets.
//! * [`DeltaSet`] — the Δ-set `ΔB = <Δ₊B, Δ₋B>` accumulating *logical*
//!   events from physical update events, with the delta-union `∪Δ` that
//!   cancels matching insert/delete pairs ("no net effect" example in
//!   §4.1).
//! * [`UpdateLog`] — the logical undo/redo log that physical events are
//!   written to; undo restores the pre-transaction state.
//! * [`StateView`] — a base relation read through a stack of Δ-set
//!   [`Layer`]s: the *logical rollback* `S_old = (S_new ∪ Δ₋S) − Δ₊S`
//!   (§4, fig. 3) is the one-layer stack, a session's snapshot the stack
//!   of every later [`TxnVersion`] undone plus its write-set replayed.
//!   Membership, scans, and index probes, nothing materialized.
//! * [`Storage`] — the database of base relations with transaction
//!   scoping and per-relation Δ-set accumulation for *monitored*
//!   relations (only influents of some activated rule pay any overhead,
//!   exactly as the paper requires).

//!
//! Durability (this layer's §4.1 "written to the log", made literal):
//!
//! * [`wal`] — an append-only on-disk WAL of committed batches with CRC
//!   framing, group commit, and torn-tail-tolerant recovery scanning.
//! * [`snapshot`] — atomic checkpoint images that bound replay time.
//! * [`Storage::attach_wal`] / [`Storage::checkpoint`] — snapshot +
//!   replay recovery and the ongoing commit → WAL pipeline.
//! * [`Savepoint`] / [`Storage::rollback_to`] — partial rollback by
//!   reverse-undoing a log suffix, rewinding Δ-sets in step.
//! * [`fault`] *(feature `fault-injection`)* — deterministic, seeded
//!   fault plans (crashes, torn writes, I/O errors, failing rule
//!   actions) threaded through the WAL writer and the rule layer.

pub mod arrangement;
pub mod database;
pub mod delta;
pub mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod log;
pub mod relation;
pub mod snapshot;
pub mod txn;
pub mod view;
pub mod wal;

pub use arrangement::{Arrangement, SortedRun};
pub use database::{RecoveryInfo, RelId, Savepoint, Storage};
pub use delta::{DeltaSet, Polarity};
pub use error::StorageError;
pub use log::{LogOp, LogRecord, UndoDrain, UpdateLog};
pub use relation::BaseRelation;
pub use snapshot::{Snapshot, SnapshotRelation, SNAPSHOT_FILE};
pub use txn::TxnVersion;
pub use view::{Layer, LayerStacks, StateEpoch, StateView};
pub use wal::{
    read_wal, read_wal_bytes, CommitWaiter, WalBatch, WalConfig, WalMetrics, WalRecord, WalWriter,
    GROUP_HIST_BUCKETS, WAL_FILE,
};

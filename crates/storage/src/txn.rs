//! Committed transaction versions for concurrent sessions.
//!
//! [`Storage::commit`](crate::Storage::commit) publishes one
//! [`TxnVersion`] per commit — the net per-relation Δ-sets folded from
//! the update log — whenever at least one snapshot pin is registered, so
//! the single-session fast path pays nothing (the paper's "no overhead
//! on operations that do not affect any rule" ethos, applied to MVCC).
//! A session reads its snapshot by undoing the versions committed after
//! its pin: each one is an `Undo` layer of a
//! [`StateView`](crate::view::StateView).

use crate::database::RelId;
use crate::delta::DeltaSet;

/// The net per-relation write-sets of one committed transaction,
/// published by [`Storage::commit`](crate::Storage::commit) while any
/// snapshot pin is registered. `seq` is the commit sequence number the
/// transaction established (strictly increasing, starting at 1).
#[derive(Debug, Clone)]
pub struct TxnVersion {
    /// Commit sequence number of this transaction.
    pub seq: u64,
    /// Net `<Δ₊, Δ₋>` per relation touched, folded from the update log
    /// (rule-action writes performed during the check phase included).
    pub writes: Vec<(RelId, DeltaSet)>,
}

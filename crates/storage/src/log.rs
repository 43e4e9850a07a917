//! The logical undo/redo log (paper §4.1).
//!
//! "All changes to base relations, i.e. stored functions, are logged in a
//! logical undo/redo log." The log records *physical* update events in
//! order; transaction rollback undoes them in reverse. Δ-set
//! accumulation for monitored relations happens as events are appended
//! (see [`crate::Storage`]).

use amos_types::Tuple;

use crate::database::RelId;

/// Kind of a physical update event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogOp {
    /// A tuple was added to a base relation.
    Insert,
    /// A tuple was removed from a base relation.
    Delete,
}

/// One physical update event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogRecord {
    /// The updated relation.
    pub rel: RelId,
    /// Insert or delete.
    pub op: LogOp,
    /// The affected tuple.
    pub tuple: Tuple,
}

/// An append-only log of physical update events for the current
/// transaction.
#[derive(Debug, Clone, Default)]
pub struct UpdateLog {
    records: Vec<LogRecord>,
}

impl UpdateLog {
    /// An empty log.
    pub fn new() -> Self {
        UpdateLog::default()
    }

    /// Append an event.
    pub fn push(&mut self, rel: RelId, op: LogOp, tuple: Tuple) {
        self.records.push(LogRecord { rel, op, tuple });
    }

    /// Number of logged events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Remove and return the most recent record (undo order). This is
    /// the primitive the undo paths build on: a record leaves the log at
    /// exactly the moment its inverse is applied, so an interrupted undo
    /// leaves the log describing precisely the still-applied events.
    pub fn pop_for_undo(&mut self) -> Option<LogRecord> {
        self.records.pop()
    }

    /// Clear the log (transaction committed).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    #[test]
    fn append_and_undo_order() {
        let mut log = UpdateLog::new();
        log.push(RelId(0), LogOp::Insert, tuple![1]);
        log.push(RelId(0), LogOp::Delete, tuple![2]);
        log.push(RelId(1), LogOp::Insert, tuple![3]);
        assert_eq!(log.len(), 3);
        let undo: Vec<_> = std::iter::from_fn(|| log.pop_for_undo()).collect();
        assert_eq!(undo[0].tuple, tuple![3]);
        assert_eq!(undo[2].tuple, tuple![1]);
        assert!(log.is_empty());
    }
}

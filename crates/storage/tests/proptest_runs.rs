//! Property tests: the sorted-run (LSM-lite) representation is
//! observationally identical to plain hash storage, and the indexes and
//! statistics every write keeps current agree with a scan.
//!
//! A [`BaseRelation`] with an aggressive seal threshold spills its head
//! into immutable runs every few inserts and compacts constantly; one
//! with `usize::MAX` never seals and behaves as a pure hash set. Under
//! random insert/delete/seal/index interleavings every observable —
//! mutation return values (set semantics), scan contents, cardinality,
//! membership, statistics, index probes, and checkpoint
//! snapshots — must agree between the two.
//!
//! Writes update the indexes in place, with no rebuild from a scan behind
//! them, so the derived state is checked after every op: every probe, on
//! an indexed column set or not, equals the scan-filter, and `ndv(c)`
//! equals the distinct values of column `c` in the scan. The second
//! property drives the same check through [`Storage`]'s functional
//! updates, transactions and savepoints.

use std::collections::BTreeSet;

use amos_storage::{BaseRelation, RelId, Savepoint, Storage};
use amos_types::{tuple, KeyRef, Tuple, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The value domain of every column. Small, so re-inserts, re-deletes,
/// tombstone hits, and resurrections are frequent.
const DOMAIN: i64 = 6;

/// The column sets indexes are built over.
const INDEXES: [&[usize]; 3] = [&[0], &[1], &[0, 1]];

fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0..DOMAIN, 0..DOMAIN).prop_map(|(a, b)| tuple![a, b])
}

fn index_choice() -> impl Strategy<Value = usize> {
    0..INDEXES.len()
}

/// Every probe over every column set and key equals the scan-filter, and
/// every column's NDV equals the distinct values the scan holds.
fn check_derived(rel: &BaseRelation, context: &str) -> Result<(), TestCaseError> {
    let all: Vec<Tuple> = rel.scan().cloned().collect();
    prop_assert_eq!(all.len(), rel.len(), "len after {}", context);
    for cols in INDEXES {
        let keys = (0..DOMAIN.pow(cols.len() as u32)).map(|i| match cols.len() {
            1 => vec![Value::Int(i)],
            _ => vec![Value::Int(i / DOMAIN), Value::Int(i % DOMAIN)],
        });
        for key in keys {
            let mut probed = Vec::new();
            rel.probe_into(cols, &KeyRef::new(&key), &mut probed);
            probed.sort();
            let mut filtered: Vec<Tuple> = all
                .iter()
                .filter(|t| cols.iter().zip(&key).all(|(&c, v)| t[c] == *v))
                .cloned()
                .collect();
            filtered.sort();
            prop_assert_eq!(
                probed,
                filtered,
                "probe {:?}={:?} (indexed: {}) after {}",
                cols,
                key,
                rel.has_index(cols),
                context
            );
        }
    }
    for c in 0..rel.arity() {
        let distinct: BTreeSet<&Value> = all.iter().map(|t| &t[c]).collect();
        prop_assert_eq!(rel.ndv(c), distinct.len(), "ndv({}) after {}", c, context);
    }
    Ok(())
}

/// One step of a relation interleaving.
#[derive(Debug, Clone)]
enum Op {
    Insert(Tuple),
    Delete(Tuple),
    /// Force the head into a run (and trigger compaction) mid-sequence.
    Seal,
    /// Create the index over `INDEXES[i]` mid-sequence (backfill, then
    /// upkeep at every write from this point on).
    EnsureIndex(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            small_tuple().prop_map(Op::Insert),
            small_tuple().prop_map(Op::Insert),
            small_tuple().prop_map(Op::Insert),
            small_tuple().prop_map(Op::Delete),
            small_tuple().prop_map(Op::Delete),
            Just(Op::Seal),
            index_choice().prop_map(Op::EnsureIndex),
        ],
        0..60,
    )
}

/// One step of a [`Storage`] history over one arity-2 relation.
#[derive(Debug, Clone)]
enum TxnOp {
    Set(i64, i64),
    Add(i64, i64),
    Remove(i64, i64),
    Begin,
    Commit,
    Rollback,
    Savepoint,
    /// Roll back to the `i % n`-th of the `n` live savepoints.
    RollbackTo(usize),
    EnsureIndex(usize),
}

fn txn_ops() -> impl Strategy<Value = Vec<TxnOp>> {
    let pair = || (0..DOMAIN, 0..DOMAIN);
    prop::collection::vec(
        prop_oneof![
            pair().prop_map(|(k, v)| TxnOp::Set(k, v)),
            pair().prop_map(|(k, v)| TxnOp::Set(k, v)),
            pair().prop_map(|(k, v)| TxnOp::Add(k, v)),
            pair().prop_map(|(k, v)| TxnOp::Add(k, v)),
            pair().prop_map(|(k, v)| TxnOp::Remove(k, v)),
            Just(TxnOp::Begin),
            Just(TxnOp::Commit),
            Just(TxnOp::Rollback),
            Just(TxnOp::Savepoint),
            (0usize..4).prop_map(TxnOp::RollbackTo),
            index_choice().prop_map(TxnOp::EnsureIndex),
        ],
        0..80,
    )
}

/// The seal thresholds a history runs at: every run size from one tuple,
/// and never sealing.
fn threshold() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..5, Just(usize::MAX)]
}

/// A model of one relation under transactions: its content, the content
/// at `begin`, and the content at each live savepoint.
#[derive(Default)]
struct Model {
    content: BTreeSet<Tuple>,
    at_begin: Option<BTreeSet<Tuple>>,
    savepoints: Vec<(Savepoint, BTreeSet<Tuple>)>,
}

impl Model {
    fn apply(&mut self, db: &mut Storage, q: RelId, op: &TxnOp) {
        let open = self.at_begin.is_some();
        match *op {
            TxnOp::Set(k, v) => {
                db.set_functional(q, &[Value::Int(k)], &[Value::Int(v)])
                    .unwrap();
                self.content.retain(|t| t[0] != Value::Int(k));
                self.content.insert(tuple![k, v]);
            }
            TxnOp::Add(k, v) => {
                let changed = db
                    .add_functional(q, &[Value::Int(k)], &[Value::Int(v)])
                    .unwrap();
                assert_eq!(changed, self.content.insert(tuple![k, v]));
            }
            TxnOp::Remove(k, v) => {
                let changed = db
                    .remove_functional(q, &[Value::Int(k)], &[Value::Int(v)])
                    .unwrap();
                assert_eq!(changed, self.content.remove(&tuple![k, v]));
            }
            TxnOp::Begin if !open => {
                db.begin().unwrap();
                self.at_begin = Some(self.content.clone());
            }
            TxnOp::Commit if open => {
                db.commit().unwrap();
                self.at_begin = None;
                self.savepoints.clear();
            }
            TxnOp::Rollback if open => {
                db.rollback().unwrap();
                self.content = self.at_begin.take().expect("open");
                self.savepoints.clear();
            }
            TxnOp::Savepoint if open => {
                self.savepoints.push((db.savepoint(), self.content.clone()));
            }
            TxnOp::RollbackTo(i) if open && !self.savepoints.is_empty() => {
                let i = i % self.savepoints.len();
                self.savepoints.truncate(i + 1);
                let (sp, content) = &self.savepoints[i];
                db.rollback_to(*sp).unwrap();
                self.content = content.clone();
            }
            TxnOp::EnsureIndex(i) => db.ensure_index(q, INDEXES[i]),
            _ => {} // a transaction op that does not apply in this state
        }
    }
}

proptest! {
    /// Run-resident and hash-resident relations are indistinguishable,
    /// and both keep their indexes and statistics current at every write.
    #[test]
    fn sorted_runs_equal_hash_storage(threshold in 1usize..5, ops in ops()) {
        let mut lsm = BaseRelation::new("r", 2);
        lsm.set_seal_threshold(threshold);
        let mut reference = BaseRelation::new("r", 2);
        reference.set_seal_threshold(usize::MAX);

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Insert(t) => prop_assert_eq!(
                    lsm.insert(t.clone()),
                    reference.insert(t.clone()),
                    "insert outcome diverged on {}", t
                ),
                Op::Delete(t) => prop_assert_eq!(
                    lsm.delete(t),
                    reference.delete(t),
                    "delete outcome diverged on {}", t
                ),
                Op::Seal => lsm.seal(), // physical-layout-only op
                Op::EnsureIndex(i) => {
                    lsm.ensure_index(INDEXES[*i]);
                    reference.ensure_index(INDEXES[*i]);
                }
            }
            let context = format!("op {step} ({op:?})");
            check_derived(&lsm, &context)?;
            check_derived(&reference, &context)?;
        }

        // Identical logical contents and cardinality.
        let mut a: Vec<Tuple> = lsm.scan().cloned().collect();
        let mut b: Vec<Tuple> = reference.scan().cloned().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(lsm.len(), reference.len());

        // Membership over the whole domain.
        for x in 0..DOMAIN {
            for y in 0..DOMAIN {
                let t = tuple![x, y];
                prop_assert_eq!(lsm.contains(&t), reference.contains(&t));
                // A borrowed key over loose values answers like the tuple,
                // in the head, in the runs and under tombstones.
                let vals = [Value::Int(x), Value::Int(y)];
                prop_assert_eq!(lsm.contains(&KeyRef::new(&vals)), a.binary_search(&t).is_ok());
            }
        }

        // Checkpoint round-trip: serializing the runs and adopting them
        // back reproduces the same relation without rehydration.
        let mut revived = BaseRelation::from_runs("r", 2, lsm.snapshot_runs());
        let mut c: Vec<Tuple> = revived.scan().cloned().collect();
        c.sort();
        prop_assert_eq!(&c, &a);
        prop_assert_eq!(revived.len(), lsm.len());
        for cols in INDEXES {
            revived.ensure_index(cols);
        }
        check_derived(&revived, "from_runs")?;
    }

    /// Functional updates, transactions and savepoints through `Storage`
    /// leave the relation equal to a replayed model, with every probe
    /// equal to the scan-filter and every NDV equal to the scan's.
    #[test]
    fn storage_histories_keep_indexes_current(threshold in threshold(), ops in txn_ops()) {
        let mut db = Storage::new();
        db.set_seal_threshold(threshold);
        let q = db.create_relation("q", 2).unwrap();
        db.monitor(q);
        db.ensure_index(q, INDEXES[0]);
        let mut model = Model::default();
        for (step, op) in ops.iter().enumerate() {
            model.apply(&mut db, q, op);
            let context = format!("op {step} ({op:?}) at threshold {threshold}");
            let content: BTreeSet<Tuple> = db.relation(q).scan().cloned().collect();
            prop_assert_eq!(&content, &model.content, "content after {}", context);
            check_derived(db.relation(q), &context)?;
        }
    }
}

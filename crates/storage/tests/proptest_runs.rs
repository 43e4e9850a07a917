//! Property tests: the sorted-run (LSM-lite) representation is
//! observationally identical to plain hash storage.
//!
//! A [`BaseRelation`] with an aggressive seal threshold spills its head
//! into immutable runs every few inserts and compacts constantly; one
//! with `usize::MAX` never seals and behaves as a pure hash set. Under
//! random insert/delete/seal/index interleavings every observable —
//! mutation return values (set semantics), scan contents, cardinality,
//! membership, statistics, index probes, arrangements, and checkpoint
//! snapshots — must agree between the two.

use amos_storage::BaseRelation;
use amos_types::{tuple, KeyRef, Tuple, Value};
use proptest::prelude::*;

/// A small domain keeps re-inserts, re-deletes, tombstone hits, and
/// resurrections frequent.
fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..6, 0i64..6).prop_map(|(a, b)| tuple![a, b])
}

/// One step of a storage interleaving.
#[derive(Debug, Clone)]
enum Op {
    Insert(Tuple),
    Delete(Tuple),
    /// Force the head into a run (and trigger compaction) mid-sequence.
    Seal,
    /// Create the `[0]` hash index mid-sequence (backfill + lazy
    /// maintenance from this point on).
    EnsureIndex,
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
            Just(Op::EnsureIndex),
        ],
        0..60,
    )
}

proptest! {
    /// Run-resident and hash-resident relations are indistinguishable.
    #[test]
    fn sorted_runs_equal_hash_storage(threshold in 1usize..5, ops in ops()) {
        let mut lsm = BaseRelation::new("r", 2);
        lsm.set_seal_threshold(threshold);
        let mut reference = BaseRelation::new("r", 2);
        reference.set_seal_threshold(usize::MAX);

        for op in &ops {
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
                Op::EnsureIndex => {
                    lsm.ensure_index(&[0]);
                    reference.ensure_index(&[0]);
                }
            }
        }

        // Identical logical contents and cardinality.
        let mut a: Vec<Tuple> = lsm.scan().cloned().collect();
        let mut b: Vec<Tuple> = reference.scan().cloned().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(lsm.len(), reference.len());

        // Membership, statistics, and probes over the whole domain —
        // probes answer via the index when one was created, via the
        // fallback scan otherwise; both must match the reference.
        for x in 0i64..6 {
            for y in 0i64..6 {
                let t = tuple![x, y];
                prop_assert_eq!(lsm.contains(&t), reference.contains(&t));
                // A borrowed key over loose values answers like the tuple,
                // in the head, in the runs and under tombstones.
                let vals = [Value::Int(x), Value::Int(y)];
                prop_assert_eq!(lsm.contains(&KeyRef::new(&vals)), a.binary_search(&t).is_ok());
            }
        }
        for c in 0..2 {
            prop_assert_eq!(lsm.ndv(c), reference.ndv(c), "ndv({}) diverged", c);
        }
        for k in 0i64..6 {
            let key = [Value::Int(k)];
            let mut pa = lsm.probe(&[0], &key);
            let mut pb = reference.probe(&[0], &key);
            pa.sort();
            pb.sort();
            prop_assert_eq!(&pa, &pb, "probe [0]={} diverged", k);
            // … and like a scan-filter, on the indexed column and on the
            // one that never has an index.
            for col in [0usize, 1] {
                let mut by_key = Vec::new();
                lsm.probe_into(&[col], &KeyRef::new(&key), &mut by_key);
                by_key.sort();
                let filtered: Vec<Tuple> = a.iter().filter(|t| t[col] == key[0]).cloned().collect();
                prop_assert_eq!(by_key, filtered, "probe [{}]={} vs scan-filter", col, k);
            }
        }

        // The merge-join arrangement covers exactly the logical content.
        let arr = lsm.arrangement(&[1]);
        prop_assert_eq!(arr.len(), lsm.len());

        // Checkpoint round-trip: serializing the runs and adopting them
        // back reproduces the same relation without rehydration.
        let revived = BaseRelation::from_runs("r", 2, lsm.snapshot_runs());
        let mut c: Vec<Tuple> = revived.scan().cloned().collect();
        c.sort();
        prop_assert_eq!(&c, &a);
        prop_assert_eq!(revived.len(), lsm.len());
        prop_assert_eq!(revived.ndv(0), lsm.ndv(0));
        prop_assert_eq!(revived.ndv(1), lsm.ndv(1));
    }
}

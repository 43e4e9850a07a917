//! Sorted runs and arrangements: the LSM-lite substrate behind
//! [`BaseRelation`](crate::BaseRelation) and [`DeltaSet`](crate::DeltaSet).
//!
//! A **sorted run** is an immutable, duplicate-free `Vec<Tuple>` in the
//! tuples' value order ([`Tuple`]'s `Ord` compares values only, so run
//! order is deterministic and independent of hashing). Relations hold a
//! small mutable head plus a stack of runs compacted size-tiered; the
//! paper's Δ-application `S_old = (S_new ∪ Δ₋S) − Δ₊S` and the
//! delta-union's ±cancellation then become linear merge passes instead
//! of hash-map churn.
//!
//! An **arrangement** is the same idea keyed by a column subset: tuples
//! sorted by their projection onto `cols` (ties broken by full tuple
//! order). Equal-key blocks are contiguous, so a point probe is a
//! `partition_point` pair — no per-tuple key allocation, no hash table.
//! [`DeltaSet`](crate::DeltaSet) arranges its sides this way for sorted
//! seeds and Δ-probes. Tuples are `Arc`-interned, so building either
//! structure moves pointers, never copies values.

use std::cmp::Ordering;

use amos_types::{FxHashSet, KeyRef, Tuple, TupleKey};

/// Compare two tuples on aligned column lists (`a` on `acols` vs `b` on
/// `bcols`), position by position. The lists must have equal length.
fn cmp_on_cols(a: &Tuple, acols: &[usize], b: &Tuple, bcols: &[usize]) -> Ordering {
    debug_assert_eq!(acols.len(), bcols.len());
    for (&ca, &cb) in acols.iter().zip(bcols) {
        match a[ca].cmp(&b[cb]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// An immutable, duplicate-free batch of tuples in full value order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SortedRun {
    tuples: Vec<Tuple>,
}

impl SortedRun {
    /// Sort (and deduplicate) an arbitrary batch into a run.
    pub fn from_unsorted(mut tuples: Vec<Tuple>) -> Self {
        tuples.sort_unstable();
        tuples.dedup();
        SortedRun { tuples }
    }

    /// Adopt a batch that is already strictly sorted; falls back to a
    /// sort+dedup when it is not (defensive — recovery paths hand us
    /// runs we wrote ourselves, but a v1 snapshot or a corrupted file
    /// may not be ordered).
    pub fn from_maybe_sorted(tuples: Vec<Tuple>) -> Self {
        if tuples.windows(2).all(|w| w[0] < w[1]) {
            SortedRun { tuples }
        } else {
            SortedRun::from_unsorted(tuples)
        }
    }

    /// Number of tuples in the run.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the run is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Membership by binary search, for a tuple or a borrowed key.
    pub fn contains(&self, key: &(impl TupleKey + ?Sized)) -> bool {
        self.tuples.binary_search_by(|t| key.order_of(t)).is_ok()
    }

    /// Iterate in value order.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The run's tuples as a sorted slice.
    pub fn as_slice(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Linear two-way merge of `a` and `b`, dropping every tuple found
    /// in `tombstones` (and consuming the matching tombstone, so the
    /// caller's tombstone set shrinks to exactly the deletions still
    /// hiding in unmerged runs). Runs are disjoint by the relation
    /// invariant, but equal tuples are deduplicated anyway.
    pub fn merge_dropping(a: &SortedRun, b: &SortedRun, tombstones: &mut FxHashSet<Tuple>) -> Self {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        let mut push = |t: &Tuple, tombstones: &mut FxHashSet<Tuple>| {
            if !tombstones.remove(t) {
                out.push(t.clone());
            }
        };
        while i < a.tuples.len() && j < b.tuples.len() {
            match a.tuples[i].cmp(&b.tuples[j]) {
                Ordering::Less => {
                    push(&a.tuples[i], tombstones);
                    i += 1;
                }
                Ordering::Greater => {
                    push(&b.tuples[j], tombstones);
                    j += 1;
                }
                Ordering::Equal => {
                    push(&a.tuples[i], tombstones);
                    i += 1;
                    j += 1;
                }
            }
        }
        for t in &a.tuples[i..] {
            push(t, tombstones);
        }
        for t in &b.tuples[j..] {
            push(t, tombstones);
        }
        SortedRun { tuples: out }
    }
}

impl<'a> IntoIterator for &'a SortedRun {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

/// Tuples sorted by their projection onto a column subset, ties broken
/// by full tuple order. Equal-key blocks are contiguous and probes are
/// binary searches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Arrangement {
    cols: Vec<usize>,
    tuples: Vec<Tuple>,
}

impl Arrangement {
    /// Arrange a batch by `cols`.
    pub fn build(mut tuples: Vec<Tuple>, cols: &[usize]) -> Self {
        tuples.sort_unstable_by(|a, b| cmp_on_cols(a, cols, b, cols).then_with(|| a.cmp(b)));
        Arrangement {
            cols: cols.to_vec(),
            tuples,
        }
    }

    /// All tuples, in key order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the arrangement is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The contiguous block of tuples whose projection onto the key
    /// columns equals `key` (empty when absent): a binary search for its
    /// start, then a forward scan to its end — blocks are short, so a
    /// second search over the rest would cost more than it skips.
    pub fn equal_range(&self, key: &KeyRef<'_>) -> &[Tuple] {
        let order_of = |t: &Tuple| key.order_of_projection(t, &self.cols);
        let lo = self.tuples.partition_point(|t| order_of(t).is_lt());
        let rest = &self.tuples[lo..];
        let n = rest.iter().take_while(|t| order_of(t).is_eq()).count();
        &rest[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::{tuple, Value};

    #[test]
    fn run_sorts_dedups_and_searches() {
        let r = SortedRun::from_unsorted(vec![tuple![3], tuple![1], tuple![2], tuple![1]]);
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tuple![2]));
        assert!(!r.contains(&tuple![4]));
        let order: Vec<_> = r.iter().cloned().collect();
        assert_eq!(order, vec![tuple![1], tuple![2], tuple![3]]);
    }

    #[test]
    fn from_maybe_sorted_detects_disorder() {
        let sorted = SortedRun::from_maybe_sorted(vec![tuple![1], tuple![2]]);
        assert_eq!(sorted.len(), 2);
        let unsorted = SortedRun::from_maybe_sorted(vec![tuple![2], tuple![1], tuple![1]]);
        assert_eq!(unsorted.as_slice(), &[tuple![1], tuple![2]]);
    }

    #[test]
    fn merge_drops_tombstones_and_consumes_them() {
        let a = SortedRun::from_unsorted(vec![tuple![1], tuple![3], tuple![5]]);
        let b = SortedRun::from_unsorted(vec![tuple![2], tuple![3], tuple![6]]);
        let mut tombs: FxHashSet<Tuple> = [tuple![3], tuple![9]].into_iter().collect();
        let m = SortedRun::merge_dropping(&a, &b, &mut tombs);
        assert_eq!(
            m.as_slice(),
            &[tuple![1], tuple![2], tuple![5], tuple![6]],
            "3 dropped by its tombstone, duplicates collapsed"
        );
        assert!(!tombs.contains(&tuple![3]), "consumed");
        assert!(tombs.contains(&tuple![9]), "unrelated tombstone survives");
    }

    #[test]
    fn arrangement_groups_equal_keys_contiguously() {
        let a = Arrangement::build(
            vec![tuple![1, 30], tuple![2, 10], tuple![1, 20], tuple![3, 10]],
            &[0],
        );
        assert_eq!(a.equal_range(&KeyRef::new(&[Value::Int(1)])).len(), 2);
        assert_eq!(a.equal_range(&KeyRef::new(&[Value::Int(3)])).len(), 1);
        assert!(a.equal_range(&KeyRef::new(&[Value::Int(9)])).is_empty());
        assert_eq!(
            a.tuples(),
            &[tuple![1, 20], tuple![1, 30], tuple![2, 10], tuple![3, 10]]
        );

        // Blocks of 0, 1 and several tuples, first, in the middle and last.
        for sizes in [[3, 1, 2], [1, 3, 1], [0, 0, 0]] {
            let t = (0..3).flat_map(|b: i64| (0..sizes[b as usize]).map(move |v| tuple![b, v]));
            let a = Arrangement::build(t.rev().collect(), &[0]);
            for k in -1..=3 {
                let key = [Value::Int(k)];
                let want = a.tuples().iter().filter(|t| t[0] == key[0]);
                assert!(
                    a.equal_range(&KeyRef::new(&key)).iter().eq(want),
                    "{sizes:?} key {k}"
                );
            }
        }
    }

    #[test]
    fn arrangement_on_non_prefix_column() {
        let a = Arrangement::build(vec![tuple![7, 2], tuple![8, 1], tuple![9, 2]], &[1]);
        let hits = a.equal_range(&KeyRef::new(&[Value::Int(2)]));
        assert_eq!(hits, &[tuple![7, 2], tuple![9, 2]], "ties in full order");
    }

    #[test]
    fn cross_arrangement_comparison() {
        let d = tuple![100, 5]; // key col 1
        let s = tuple![5]; // key col 0
        assert_eq!(cmp_on_cols(&d, &[1], &s, &[0]), Ordering::Equal);
        assert_eq!(cmp_on_cols(&d, &[0], &s, &[0]), Ordering::Greater);
    }
}

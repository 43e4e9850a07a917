//! Δ-sets and the delta-union operator `∪Δ` (paper §4.1, §4.5).
//!
//! A Δ-set is a **disjoint** pair `<Δ₊S, Δ₋S>` of the tuples added to and
//! removed from a set `S` over a period of time (here: since the start of
//! the current transaction, or since the start of a propagation step for
//! derived relations).
//!
//! Physical update events fold into a Δ-set so that only *logical* (net)
//! events remain: inserting a tuple that is pending deletion cancels the
//! deletion instead of recording an insertion, and vice versa. The §4.1
//! `min_stock` double-update example therefore folds to the empty Δ-set —
//! see the `min_stock_example_has_no_net_effect` unit test.

use std::fmt;
use std::sync::{Arc, RwLock};

use amos_types::{FxHashSet, KeyRef, Tuple};

use crate::arrangement::Arrangement;

/// Whether a change, Δ-set side, or differential concerns insertions
/// (`Δ₊`) or deletions (`Δ₋`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Polarity {
    /// Insertions (`Δ₊`).
    Plus,
    /// Deletions (`Δ₋`).
    Minus,
}

impl Polarity {
    /// The opposite polarity — deletions from `R` *insert* into `Q − R`.
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::Plus => Polarity::Minus,
            Polarity::Minus => Polarity::Plus,
        }
    }
}

impl fmt::Display for Polarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Polarity::Plus => write!(f, "Δ+"),
            Polarity::Minus => write!(f, "Δ-"),
        }
    }
}

/// Below this side size a Δ-probe just scan-filters and a Δ-scan walks
/// the hash side: arranging a handful of tuples costs more than it saves.
const DELTA_INDEX_THRESHOLD: usize = 16;

/// Past this combined size, `∪Δ` switches from hash-set differences to
/// the sorted linear co-traversal (the arrangement idiom: sort once,
/// cancel in one merge pass).
const DELTA_UNION_SORT_THRESHOLD: usize = 64;

/// Cache of lazily-built Δ-side arrangements by side and key columns: a
/// handful of entries, searched linearly so a lookup allocates no key.
type ArrangementCache = RwLock<Vec<(Polarity, Vec<usize>, Arc<Arrangement>)>>;

/// A disjoint pair of inserted (`Δ₊`) and deleted (`Δ₋`) tuples.
///
/// Carries a cache of lazy per-column-set [`Arrangement`]s so that a
/// Δ-literal scheduled *after* binding literals (the adaptive planner's
/// scan-then-probe order for bulk loads) probes the Δ-set by binary
/// search instead of scanning it, and so that a merge join can zipper
/// the Δ-side against a base-relation arrangement without building any
/// hash table. The cache is execution state, not value state: it is
/// invalidated by every mutation and excluded from `Clone`/`PartialEq`.
#[derive(Debug, Default)]
pub struct DeltaSet {
    plus: FxHashSet<Tuple>,
    minus: FxHashSet<Tuple>,
    indexes: ArrangementCache,
}

impl Clone for DeltaSet {
    fn clone(&self) -> Self {
        DeltaSet {
            plus: self.plus.clone(),
            minus: self.minus.clone(),
            indexes: ArrangementCache::default(),
        }
    }
}

impl PartialEq for DeltaSet {
    fn eq(&self, other: &Self) -> bool {
        self.plus == other.plus && self.minus == other.minus
    }
}

impl Eq for DeltaSet {}

impl DeltaSet {
    /// The empty Δ-set.
    pub fn new() -> Self {
        DeltaSet::default()
    }

    fn from_sets(plus: FxHashSet<Tuple>, minus: FxHashSet<Tuple>) -> Self {
        DeltaSet {
            plus,
            minus,
            indexes: ArrangementCache::default(),
        }
    }

    /// Drop all cached Δ-side arrangements; must be called by every
    /// mutator.
    fn invalidate_indexes(&mut self) {
        if let Ok(map) = self.indexes.get_mut() {
            if !map.is_empty() {
                map.clear();
            }
        }
    }

    /// Build from explicit plus/minus sets.
    ///
    /// # Panics
    /// Panics if the two sets are not disjoint — the disjointness
    /// invariant is what makes `∪Δ` and logical rollback correct.
    pub fn from_parts(plus: FxHashSet<Tuple>, minus: FxHashSet<Tuple>) -> Self {
        assert!(
            plus.is_disjoint(&minus),
            "Δ-set invariant violated: Δ₊ ∩ Δ₋ ≠ ∅"
        );
        DeltaSet::from_sets(plus, minus)
    }

    /// The set of inserted tuples `Δ₊S`.
    pub fn plus(&self) -> &FxHashSet<Tuple> {
        &self.plus
    }

    /// The set of deleted tuples `Δ₋S`.
    pub fn minus(&self) -> &FxHashSet<Tuple> {
        &self.minus
    }

    /// The side selected by `polarity`.
    pub fn side(&self, polarity: Polarity) -> &FxHashSet<Tuple> {
        match polarity {
            Polarity::Plus => &self.plus,
            Polarity::Minus => &self.minus,
        }
    }

    /// True when there is no net change.
    pub fn is_empty(&self) -> bool {
        self.plus.is_empty() && self.minus.is_empty()
    }

    /// Total number of net changes (`|Δ₊| + |Δ₋|`).
    pub fn len(&self) -> usize {
        self.plus.len() + self.minus.len()
    }

    /// Fold a physical *insert* event into the Δ-set.
    ///
    /// If the tuple is pending deletion the two events cancel (a logical
    /// no-op); otherwise it becomes a pending insertion.
    pub fn apply_insert(&mut self, t: Tuple) {
        self.invalidate_indexes();
        if !self.minus.remove(&t) {
            self.plus.insert(t);
        }
    }

    /// Fold a physical *delete* event into the Δ-set.
    pub fn apply_delete(&mut self, t: Tuple) {
        self.invalidate_indexes();
        if !self.plus.remove(&t) {
            self.minus.insert(t);
        }
    }

    /// Record an insertion coming from a partial differential during
    /// propagation. Unlike [`apply_insert`](Self::apply_insert) this is
    /// the `∪Δ` single-tuple case: the paper accumulates differential
    /// results with `∪Δ`, performed in the order the changes occurred.
    pub fn delta_union_insert(&mut self, t: Tuple) {
        self.apply_insert(t);
    }

    /// Record a deletion coming from a partial differential (single-tuple
    /// `∪Δ`).
    pub fn delta_union_delete(&mut self, t: Tuple) {
        self.apply_delete(t);
    }

    /// The delta-union `self ∪Δ other`, with `other` the *later* change
    /// (the operator is not commutative under set semantics — §7.2).
    ///
    /// Defined in §4.1/§4.5 as
    /// `<(Δ₊₁ − Δ₋₂) ∪ (Δ₊₂ − Δ₋₁), (Δ₋₁ − Δ₊₂) ∪ (Δ₋₂ − Δ₊₁)>`.
    ///
    /// ```
    /// use amos_storage::DeltaSet;
    /// use amos_types::tuple;
    /// let mut d1 = DeltaSet::new();
    /// d1.apply_insert(tuple![1]);
    /// let mut d2 = DeltaSet::new();
    /// d2.apply_delete(tuple![1]); // later deletion cancels the insert
    /// assert!(d1.delta_union(&d2).is_empty());
    /// ```
    pub fn delta_union(&self, other: &DeltaSet) -> DeltaSet {
        if self.len() + other.len() >= DELTA_UNION_SORT_THRESHOLD {
            return self.delta_union_sorted(other);
        }
        let plus: FxHashSet<Tuple> = self
            .plus
            .difference(&other.minus)
            .chain(other.plus.difference(&self.minus))
            .cloned()
            .collect();
        let minus: FxHashSet<Tuple> = self
            .minus
            .difference(&other.plus)
            .chain(other.minus.difference(&self.plus))
            .cloned()
            .collect();
        DeltaSet::from_sets(plus, minus)
    }

    /// The `∪Δ` cancellation as linear co-traversals over sorted runs:
    /// each side is sorted once, then every set difference in the §4.1
    /// formula is a single merge pass. Identical result to the hash
    /// formula (pinned by `delta_union_sorted_matches_formula`); wins
    /// once the Δ-sets are large enough to make hash churn the cost.
    fn delta_union_sorted(&self, other: &DeltaSet) -> DeltaSet {
        fn sorted(set: &FxHashSet<Tuple>) -> Vec<Tuple> {
            let mut v: Vec<Tuple> = set.iter().cloned().collect();
            v.sort_unstable();
            v
        }
        /// `a − b` for sorted, duplicate-free slices, in one pass.
        fn difference(a: &[Tuple], b: &[Tuple], out: &mut FxHashSet<Tuple>) {
            let mut j = 0;
            for t in a {
                while j < b.len() && b[j] < *t {
                    j += 1;
                }
                if j >= b.len() || b[j] != *t {
                    out.insert(t.clone());
                }
            }
        }
        let (p1, m1) = (sorted(&self.plus), sorted(&self.minus));
        let (p2, m2) = (sorted(&other.plus), sorted(&other.minus));
        let mut plus = FxHashSet::default();
        difference(&p1, &m2, &mut plus);
        difference(&p2, &m1, &mut plus);
        let mut minus = FxHashSet::default();
        difference(&m1, &p2, &mut minus);
        difference(&m2, &p1, &mut minus);
        DeltaSet::from_sets(plus, minus)
    }

    /// In-place `self = self ∪Δ other`, consuming `other`.
    pub fn delta_union_assign(&mut self, other: DeltaSet) {
        // Fold other's events one by one; for disjoint Δ-sets this equals
        // the set formula (each tuple appears on at most one side of each
        // operand) and avoids rebuilding both hash sets.
        for t in other.plus {
            self.apply_insert(t);
        }
        for t in other.minus {
            self.apply_delete(t);
        }
    }

    /// Remove all changes (the paper clears wave-front Δ-sets after a
    /// node's out-edges have been processed, §5).
    pub fn clear(&mut self) {
        self.invalidate_indexes();
        self.plus.clear();
        self.minus.clear();
    }

    /// Take the contents, leaving this Δ-set empty.
    pub fn take(&mut self) -> DeltaSet {
        self.invalidate_indexes();
        DeltaSet::from_sets(
            std::mem::take(&mut self.plus),
            std::mem::take(&mut self.minus),
        )
    }

    /// Check the disjointness invariant (used by debug assertions and
    /// property tests).
    pub fn invariant_holds(&self) -> bool {
        self.plus.is_disjoint(&self.minus)
    }

    /// Append to `out` all tuples on `polarity`'s side whose projection
    /// onto `cols` equals `key`.
    ///
    /// Small sides are scan-filtered directly; past
    /// [`DELTA_INDEX_THRESHOLD`] the side is arranged by `cols` lazily
    /// (sorted once, cached until the next mutation), making repeated
    /// probes a binary search with no per-tuple key allocation.
    pub fn probe_into(
        &self,
        polarity: Polarity,
        cols: &[usize],
        key: &KeyRef<'_>,
        out: &mut Vec<Tuple>,
    ) {
        let side = self.side(polarity);
        if side.len() < DELTA_INDEX_THRESHOLD {
            out.extend(side.iter().filter(|t| key.matches(t, cols)).cloned());
        } else {
            out.extend_from_slice(self.arrangement(polarity, cols).equal_range(key));
        }
    }

    /// Visit the side as the seed of a differential, stopping at the
    /// first error: in tuple order from [`DELTA_INDEX_THRESHOLD`] up (a
    /// bulk differential then walks runs, indexes and tuple storage in key
    /// order, and its output order no longer depends on hashing), as the
    /// hash side lies below it.
    pub fn try_for_each_seed<E>(
        &self,
        polarity: Polarity,
        f: impl FnMut(&Tuple) -> Result<(), E>,
    ) -> Result<(), E> {
        let side = self.side(polarity);
        if side.len() < DELTA_INDEX_THRESHOLD {
            return side.iter().try_for_each(f);
        }
        let sorted = self.arrangement(polarity, &[]);
        sorted.tuples().iter().try_for_each(f)
    }

    /// Number of cached Δ-side arrangements (for tests / introspection).
    pub fn index_count(&self) -> usize {
        self.indexes.read().map(|m| m.len()).unwrap_or(0)
    }

    /// The side's tuples arranged (sorted) by `cols`, built lazily and
    /// cached until the next mutation. The Δ-side input of a merge join
    /// — unlike [`probe_into`](Self::probe_into) this always arranges: the
    /// caller wants the whole sorted sequence, not one key block.
    pub fn arrangement(&self, polarity: Polarity, cols: &[usize]) -> Arc<Arrangement> {
        if let Ok(cache) = self.indexes.read() {
            if let Some((.., a)) = cache.iter().find(|(p, c, _)| *p == polarity && c == cols) {
                return Arc::clone(a);
            }
        }
        let a = Arc::new(Arrangement::build(
            self.side(polarity).iter().cloned().collect(),
            cols,
        ));
        if let Ok(mut cache) = self.indexes.write() {
            cache.push((polarity, cols.to_vec(), Arc::clone(&a)));
        }
        a
    }
}

impl fmt::Display for DeltaSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut plus: Vec<String> = self.plus.iter().map(|t| t.to_string()).collect();
        let mut minus: Vec<String> = self.minus.iter().map(|t| t.to_string()).collect();
        plus.sort();
        minus.sort();
        write!(f, "<+{{{}}}, -{{{}}}>", plus.join(", "), minus.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::{tuple, Value};

    impl DeltaSet {
        fn probe(&self, polarity: Polarity, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
            let mut out = Vec::new();
            self.probe_into(polarity, cols, &KeyRef::new(key), &mut out);
            out
        }
    }

    fn delta(plus: &[Tuple], minus: &[Tuple]) -> DeltaSet {
        DeltaSet::from_parts(
            plus.iter().cloned().collect(),
            minus.iter().cloned().collect(),
        )
    }

    /// The §4.1 running example: two `set min_stock` updates that restore
    /// the original value produce four physical events and an empty
    /// logical Δ-set.
    #[test]
    fn min_stock_example_has_no_net_effect() {
        let item = Value::Int(1); // stands in for :item1
        let mut d = DeltaSet::new();
        // set min_stock(:item1) = 150;  (was 100)
        d.apply_delete(tuple![item.clone(), 100]);
        assert_eq!(d, delta(&[], &[tuple![item.clone(), 100]]));
        d.apply_insert(tuple![item.clone(), 150]);
        assert_eq!(
            d,
            delta(&[tuple![item.clone(), 150]], &[tuple![item.clone(), 100]])
        );
        // set min_stock(:item1) = 100;
        d.apply_delete(tuple![item.clone(), 150]);
        assert_eq!(d, delta(&[], &[tuple![item.clone(), 100]]));
        d.apply_insert(tuple![item.clone(), 100]);
        assert!(d.is_empty());
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut d = DeltaSet::new();
        d.apply_insert(tuple![1]);
        d.apply_delete(tuple![1]);
        assert!(d.is_empty());
    }

    #[test]
    fn delete_then_insert_cancels() {
        let mut d = DeltaSet::new();
        d.apply_delete(tuple![1]);
        d.apply_insert(tuple![1]);
        assert!(d.is_empty());
    }

    #[test]
    fn delta_union_formula() {
        // Δ1 = <{a}, {b}>, Δ2 = <{b}, {a}> — they exactly cancel.
        let d1 = delta(&[tuple![1]], &[tuple![2]]);
        let d2 = delta(&[tuple![2]], &[tuple![1]]);
        assert!(d1.delta_union(&d2).is_empty());
    }

    #[test]
    fn delta_union_merges_disjoint_changes() {
        let d1 = delta(&[tuple![1]], &[]);
        let d2 = delta(&[tuple![2]], &[tuple![3]]);
        let u = d1.delta_union(&d2);
        assert_eq!(u, delta(&[tuple![1], tuple![2]], &[tuple![3]]));
    }

    #[test]
    fn delta_union_assign_matches_formula() {
        let d1 = delta(&[tuple![1], tuple![4]], &[tuple![2]]);
        let d2 = delta(&[tuple![2]], &[tuple![4], tuple![5]]);
        let by_formula = d1.delta_union(&d2);
        let mut by_fold = d1.clone();
        by_fold.delta_union_assign(d2);
        assert_eq!(by_formula, by_fold);
    }

    #[test]
    fn invariant_checked_on_from_parts() {
        let result = std::panic::catch_unwind(|| {
            delta(&[tuple![1]], &[tuple![1]]);
        });
        assert!(result.is_err());
    }

    #[test]
    fn take_empties_the_source() {
        let mut d = delta(&[tuple![1]], &[tuple![2]]);
        let taken = d.take();
        assert!(d.is_empty());
        assert_eq!(taken.len(), 2);
    }

    #[test]
    fn probe_matches_scan_filter_on_both_sides_of_threshold() {
        let mut d = DeltaSet::new();
        // Small side: below DELTA_INDEX_THRESHOLD, no index is built.
        for i in 0..4 {
            d.apply_insert(tuple![i % 2, i]);
        }
        let mut got = d.probe(Polarity::Plus, &[0], &[Value::Int(1)]);
        got.sort();
        assert_eq!(got, vec![tuple![1, 1], tuple![1, 3]]);
        assert_eq!(d.index_count(), 0, "small side stays index-free");

        // Large side: the lazy index kicks in and agrees with the scan.
        for i in 4..40 {
            d.apply_insert(tuple![i % 2, i]);
        }
        let mut indexed = d.probe(Polarity::Plus, &[0], &[Value::Int(0)]);
        indexed.sort();
        let mut scanned: Vec<Tuple> = d
            .plus()
            .iter()
            .filter(|t| t[0] == Value::Int(0))
            .cloned()
            .collect();
        scanned.sort();
        assert_eq!(indexed, scanned);
        assert_eq!(d.index_count(), 1);
        // Cache hit path returns the same answer.
        assert_eq!(d.probe(Polarity::Plus, &[0], &[Value::Int(0)]).len(), 20);
        // Missing key probes return nothing.
        assert!(d.probe(Polarity::Plus, &[0], &[Value::Int(9)]).is_empty());
        assert!(d.probe(Polarity::Minus, &[0], &[Value::Int(0)]).is_empty());
    }

    #[test]
    fn mutation_invalidates_cached_indexes() {
        let mut d = DeltaSet::new();
        for i in 0..40 {
            d.apply_insert(tuple![7, i]);
        }
        assert_eq!(d.probe(Polarity::Plus, &[0], &[Value::Int(7)]).len(), 40);
        assert_eq!(d.index_count(), 1);
        d.apply_insert(tuple![7, 100]);
        assert_eq!(d.index_count(), 0, "insert dropped the stale index");
        assert_eq!(d.probe(Polarity::Plus, &[0], &[Value::Int(7)]).len(), 41);
        d.apply_delete(tuple![7, 100]);
        assert_eq!(d.probe(Polarity::Plus, &[0], &[Value::Int(7)]).len(), 40);
        d.clear();
        assert!(d.probe(Polarity::Plus, &[0], &[Value::Int(7)]).is_empty());
    }

    #[test]
    fn clone_and_eq_ignore_index_cache() {
        let mut d = DeltaSet::new();
        for i in 0..40 {
            d.apply_insert(tuple![i, i]);
        }
        d.probe(Polarity::Plus, &[0], &[Value::Int(1)]);
        assert_eq!(d.index_count(), 1);
        let c = d.clone();
        assert_eq!(c.index_count(), 0, "clone starts with a cold cache");
        assert_eq!(c, d, "equality is on Δ contents only");
    }

    #[test]
    fn delta_union_sorted_matches_formula() {
        // Large overlapping Δ-sets: the sorted co-traversal path engages
        // (combined size past DELTA_UNION_SORT_THRESHOLD) and must agree
        // with the event-fold oracle.
        let mut d1 = DeltaSet::new();
        for i in 0..50 {
            if i % 2 == 0 {
                d1.apply_insert(tuple![i]);
            } else {
                d1.apply_delete(tuple![i]);
            }
        }
        let mut d2 = DeltaSet::new();
        for i in 25..75 {
            if i % 3 == 0 {
                d2.apply_insert(tuple![i]);
            } else {
                d2.apply_delete(tuple![i]);
            }
        }
        assert!(d1.len() + d2.len() >= super::DELTA_UNION_SORT_THRESHOLD);
        let by_sorted = d1.delta_union(&d2);
        let by_fold = {
            let mut c = d1.clone();
            c.delta_union_assign(d2.clone());
            c
        };
        assert_eq!(by_sorted, by_fold);
        assert!(by_sorted.invariant_holds());
    }

    #[test]
    fn arrangement_exposes_sorted_side() {
        let mut d = DeltaSet::new();
        for i in 0..20 {
            d.apply_insert(tuple![i, i % 4]);
        }
        let a = d.arrangement(Polarity::Plus, &[1]);
        assert_eq!(a.len(), 20);
        let two = [Value::Int(2)];
        assert_eq!(a.equal_range(&KeyRef::new(&two)).len(), 5);
        // Cached until mutation, shared with probe's cache.
        assert_eq!(d.index_count(), 1);
        d.apply_insert(tuple![100, 2]);
        assert_eq!(d.index_count(), 0);
        assert_eq!(
            d.arrangement(Polarity::Plus, &[1])
                .equal_range(&KeyRef::new(&two))
                .len(),
            6
        );
        assert!(d.arrangement(Polarity::Minus, &[1]).is_empty());
    }

    #[test]
    fn seed_is_sorted_past_the_cut_off_and_hash_ordered_below() {
        fn seed(d: &DeltaSet) -> Vec<Tuple> {
            let mut out = Vec::new();
            d.try_for_each_seed(Polarity::Plus, |t| {
                out.push(t.clone());
                Ok::<(), ()>(())
            })
            .unwrap();
            out
        }
        let mut d = DeltaSet::new();
        for i in (0..DELTA_INDEX_THRESHOLD as i64 - 1).rev() {
            d.apply_insert(tuple![i % 3, i]);
        }
        let small: Vec<Tuple> = d.plus().iter().cloned().collect();
        assert_eq!(seed(&d), small, "small side: walked as it lies");
        assert_eq!(d.index_count(), 0);
        d.apply_insert(tuple![9, 9]);
        let mut sorted: Vec<Tuple> = d.plus().iter().cloned().collect();
        sorted.sort();
        assert_eq!(seed(&d), sorted, "at the cut-off: tuple order");
        assert_eq!(d.index_count(), 1);
        // The visit stops at the first error.
        let mut seen = 0;
        let stopped = d.try_for_each_seed(Polarity::Plus, |_| {
            seen += 1;
            if seen == 3 {
                Err("stop")
            } else {
                Ok(())
            }
        });
        assert_eq!((stopped, seen), (Err("stop"), 3));
        d.apply_delete(tuple![9, 9]);
        assert_eq!(d.index_count(), 0, "mutation drops the cached seed");
    }

    #[test]
    fn display_is_sorted_and_stable() {
        let d = delta(&[tuple![2], tuple![1]], &[tuple![3]]);
        assert_eq!(d.to_string(), "<+{(1), (2)}, -{(3)}>");
    }
}

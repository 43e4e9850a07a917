//! Set-oriented base relations: an LSM-lite of sorted runs with hash
//! indexes on top.
//!
//! A stored AMOSQL function such as `quantity(item) -> integer` compiles
//! to a base relation of arity 2. Relations have *set* semantics (the
//! calculus of the paper is set-oriented, §7.2); inserting an existing
//! tuple or deleting a missing one is a physical no-op and generates no
//! update event.
//!
//! Physically a relation is a small mutable **head** (hash set) plus a
//! stack of immutable **sorted runs** with a tombstone set for deletes
//! that land on run-resident tuples. When the head outgrows the seal
//! threshold it is sorted into a new run, and size-tiered compaction
//! merges neighbouring runs of similar size (a linear co-traversal that
//! also drains tombstones). Reads merge on the fly: membership is one
//! hash probe plus a binary search per run; scans chain the head with
//! the tombstone-filtered runs. The layout is what makes Δ-application
//! and checkpointing linear passes, and it feeds the merge-join planner:
//! [`arrangement`](BaseRelation::arrangement) exposes the content sorted
//! by any column subset, cached until the next mutation.
//!
//! Hash indexes over column subsets still support the index-seeded joins
//! the partial-differential optimizer emits: a differential binds
//! variables from a (small) Δ-set first and probes the remaining
//! literals by key, which is what makes incremental monitoring O(1)-ish
//! in database size (fig. 6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use amos_types::{FxHashMap, FxHashSet, KeyRef, Tuple, TupleKey, Value};

use crate::arrangement::{Arrangement, SortedRun};

/// Head size at which the mutable head is sealed into a sorted run.
/// Small enough that sealing is cheap, large enough that run counts stay
/// low under bulk loads; overridable per relation for tests and tuning.
pub const DEFAULT_SEAL_THRESHOLD: usize = 1024;

/// Hard cap on the pending maintenance log: a mutation that grows the
/// log to this size folds it immediately, bounding memory for relations
/// that churn heavily but are never probed. The fold's rebuild path
/// makes this O(live content), not O(ops).
const PENDING_FOLD_CAP: usize = 1 << 16;

/// A hash index: projection of the indexed columns → the matching tuples.
#[derive(Debug, Clone, Default)]
struct HashIndex {
    cols: Vec<usize>,
    map: FxHashMap<Tuple, FxHashSet<Tuple>>,
}

impl HashIndex {
    fn key_of(&self, t: &Tuple) -> Tuple {
        t.project(&self.cols)
    }

    fn insert(&mut self, t: &Tuple) {
        self.map
            .entry(self.key_of(t))
            .or_default()
            .insert(t.clone());
    }

    fn remove(&mut self, t: &Tuple) {
        let key = self.key_of(t);
        if let Some(set) = self.map.get_mut(&key) {
            set.remove(t);
            if set.is_empty() {
                self.map.remove(&key);
            }
        }
    }

    /// Append the tuples under `key` to `out`.
    fn hits_into(&self, key: &KeyRef<'_>, out: &mut Vec<Tuple>) {
        if let Some(set) = self.map.get(key as &dyn TupleKey) {
            out.extend(set.iter().cloned());
        }
    }
}

/// The relation's read-optimized derived state — hash indexes and
/// per-column statistics — with merge-on-read maintenance: mutators
/// append one `(is_insert, tuple)` op to `pending` (a single `Vec` push
/// and `Arc` bump no matter how many indexes exist) and the first probe
/// or statistics read after a mutation folds the log in. Derived state
/// that is never read never pays for maintenance, which is what keeps
/// bulk loads (and their rollbacks) off the index-update treadmill.
#[derive(Debug, Clone, Default)]
struct Maintained {
    indexes: Vec<HashIndex>,
    by_cols: FxHashMap<Vec<usize>, usize>,
    /// Per-column value→multiplicity; `ndv(c)` is `col_counts[c].len()`.
    col_counts: Vec<FxHashMap<Value, u32>>,
    /// Mutations not yet folded in, oldest first.
    pending: Vec<(bool, Tuple)>,
}

impl Maintained {
    /// Fold the pending op log into every index and the statistics.
    /// When the log outgrows the live content, rebuilding from `scan`
    /// is cheaper than replaying — a bulk load followed by its rollback
    /// nets to zero content but leaves `2·n` ops, and the rebuild then
    /// costs nothing.
    fn fold_pending<'a>(&mut self, scan: impl Iterator<Item = &'a Tuple> + Clone, live: usize) {
        if self.pending.is_empty() {
            return;
        }
        if self.pending.len() > live.max(16) {
            self.pending.clear();
            for idx in &mut self.indexes {
                idx.map.clear();
            }
            for counts in &mut self.col_counts {
                counts.clear();
            }
            for t in scan {
                self.apply(true, t);
            }
            return;
        }
        for (is_insert, t) in std::mem::take(&mut self.pending) {
            self.apply(is_insert, &t);
        }
    }

    /// Apply one op to every index and the column statistics.
    fn apply(&mut self, is_insert: bool, t: &Tuple) {
        for idx in &mut self.indexes {
            if is_insert {
                idx.insert(t);
            } else {
                idx.remove(t);
            }
        }
        for (c, counts) in self.col_counts.iter_mut().enumerate() {
            if is_insert {
                *counts.entry(t[c].clone()).or_insert(0) += 1;
            } else if let Some(n) = counts.get_mut(&t[c]) {
                *n -= 1;
                if *n == 0 {
                    counts.remove(&t[c]);
                }
            }
        }
    }
}

/// Merge-on-read scan over a relation's physical parts: the head, then
/// each run filtered by the tombstone set. A free function so callers
/// holding a disjoint borrow of the index lock can still scan.
fn scan_parts<'a>(
    head: &'a FxHashSet<Tuple>,
    runs: &'a [SortedRun],
    tombstones: &'a FxHashSet<Tuple>,
) -> impl Iterator<Item = &'a Tuple> + Clone {
    head.iter().chain(
        runs.iter()
            .flat_map(|r| r.iter())
            .filter(move |t| !tombstones.contains(*t)),
    )
}

/// An in-memory, set-oriented base relation over sorted runs.
///
/// Alongside the tuples and indexes it maintains the cheap statistics the
/// adaptive planner feeds on: per-column distinct-value counts (exact,
/// folded in from the maintenance log on read), the run profile (run
/// count and sizes, for merge-join pricing), and a counter of index-less
/// `probe` calls that silently degraded to a full scan.
#[derive(Debug)]
pub struct BaseRelation {
    name: String,
    arity: usize,
    /// Mutable head: recent inserts not yet sealed into a run. Disjoint
    /// from the runs — a tuple lives in exactly one place.
    head: FxHashSet<Tuple>,
    /// Immutable sorted runs, oldest first; mutually disjoint.
    runs: Vec<SortedRun>,
    /// Deletes of run-resident tuples, reconciled at compaction.
    tombstones: FxHashSet<Tuple>,
    /// Logical cardinality: `|head| + Σ|runs| − |tombstones|`.
    live: usize,
    /// Head size that triggers [`seal`](Self::seal).
    seal_threshold: usize,
    /// Runs sealed over the relation's lifetime (introspection).
    seals: u64,
    /// Run merges performed by size-tiered compaction (introspection).
    compactions: u64,
    /// Hash indexes and planner statistics, maintained merge-on-read
    /// (see [`Maintained`]). Behind a lock because probes and statistics
    /// reads (`&self`, possibly parallel) fold the pending op log in
    /// before reading.
    maintained: RwLock<Maintained>,
    /// Lazily built arrangements by column subset; execution state, not
    /// value state — invalidated by every mutation, excluded from
    /// `Clone`.
    arrangements: Mutex<FxHashMap<Vec<usize>, Arc<Arrangement>>>,
    /// Probes that found no matching index and fell back to a scan.
    fallback_scans: AtomicU64,
    /// Distinct column sets that triggered a fallback since the last
    /// [`take_fallback_sites`](Self::take_fallback_sites) drain.
    fallback_sites: Mutex<FxHashSet<Vec<usize>>>,
}

impl Clone for BaseRelation {
    fn clone(&self) -> Self {
        BaseRelation {
            name: self.name.clone(),
            arity: self.arity,
            head: self.head.clone(),
            runs: self.runs.clone(),
            tombstones: self.tombstones.clone(),
            live: self.live,
            seal_threshold: self.seal_threshold,
            seals: self.seals,
            compactions: self.compactions,
            maintained: RwLock::new(
                self.maintained
                    .read()
                    .map(|g| g.clone())
                    .unwrap_or_else(|e| e.into_inner().clone()),
            ),
            arrangements: Mutex::new(FxHashMap::default()),
            fallback_scans: AtomicU64::new(self.fallback_scans.load(Ordering::Relaxed)),
            fallback_sites: Mutex::new(
                self.fallback_sites
                    .lock()
                    .map(|s| s.clone())
                    .unwrap_or_default(),
            ),
        }
    }
}

impl BaseRelation {
    /// Create an empty relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        BaseRelation {
            name: name.into(),
            arity,
            head: FxHashSet::default(),
            runs: Vec::new(),
            tombstones: FxHashSet::default(),
            live: 0,
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            seals: 0,
            compactions: 0,
            maintained: RwLock::new(Maintained {
                col_counts: vec![FxHashMap::default(); arity],
                ..Maintained::default()
            }),
            arrangements: Mutex::new(FxHashMap::default()),
            fallback_scans: AtomicU64::new(0),
            fallback_sites: Mutex::new(FxHashSet::default()),
        }
    }

    /// Rebuild a relation from recovered sorted runs *without* pushing
    /// every tuple through the hash head: the runs are adopted as-is
    /// (re-sorted only if a legacy snapshot was unordered) and the
    /// planner statistics are derived in one linear pass.
    pub fn from_runs(name: impl Into<String>, arity: usize, runs: Vec<Vec<Tuple>>) -> Self {
        let mut rel = BaseRelation::new(name, arity);
        for batch in runs {
            let run = SortedRun::from_maybe_sorted(batch);
            if run.is_empty() {
                continue;
            }
            rel.live += run.len();
            rel.runs.push(run);
        }
        let maintained = match rel.maintained.get_mut() {
            Ok(m) => m,
            Err(e) => e.into_inner(),
        };
        for t in rel.runs.iter().flat_map(|r| r.iter()) {
            debug_assert_eq!(t.arity(), arity);
            for (c, counts) in maintained.col_counts.iter_mut().enumerate() {
                *counts.entry(t[c].clone()).or_insert(0) += 1;
            }
        }
        // Recovered runs may overlap only if the writer was not ours;
        // compaction re-establishes disjointness lazily. We trust our
        // own checkpoints (disjoint by construction).
        rel
    }

    /// The relation's name (the stored function's name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Membership test, for a tuple or a borrowed key: one hash probe on
    /// the head, then a binary search per run (tombstones veto run hits).
    pub fn contains(&self, key: &impl TupleKey) -> bool {
        let hashed: &dyn TupleKey = key;
        if self.head.contains(hashed) {
            return true;
        }
        self.runs.iter().any(|r| r.contains(key)) && !self.tombstones.contains(hashed)
    }

    fn in_runs(&self, t: &Tuple) -> bool {
        self.runs.iter().any(|r| r.contains(t))
    }

    fn invalidate_arrangements(&mut self) {
        if let Ok(map) = self.arrangements.get_mut() {
            if !map.is_empty() {
                map.clear();
            }
        }
    }

    /// Append one op to the maintenance log: a single `Vec` push and
    /// `Arc` bump, however many indexes exist — the derived state
    /// absorbs it at the next read. The cap fold bounds log memory for
    /// relations that churn but are never read; its rebuild path costs
    /// O(live content), not O(ops).
    fn log_op(&mut self, is_insert: bool, t: &Tuple) {
        let m = match self.maintained.get_mut() {
            Ok(m) => m,
            Err(e) => e.into_inner(),
        };
        m.pending.push((is_insert, t.clone()));
        if m.pending.len() >= PENDING_FOLD_CAP {
            let scan = scan_parts(&self.head, &self.runs, &self.tombstones);
            m.fold_pending(scan, self.live);
        }
    }

    /// Insert a tuple. Returns `true` iff the relation changed (set
    /// semantics: re-inserting is a no-op and must not generate a
    /// physical update event).
    ///
    /// # Panics
    /// Panics on arity mismatch — tuples are produced by the compiler
    /// against known signatures, so this is a programming error.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "arity mismatch inserting into `{}`",
            self.name
        );
        if self.head.contains(&t) {
            return false;
        }
        if self.tombstones.remove(&t) {
            // Tombstones only cover run-resident tuples, so clearing one
            // resurrects the tuple without searching the runs.
        } else if self.in_runs(&t) {
            return false; // live in a run already
        } else {
            self.head.insert(t.clone());
        }
        self.live += 1;
        self.log_op(true, &t);
        self.invalidate_arrangements();
        if self.head.len() >= self.seal_threshold {
            self.seal();
        }
        true
    }

    /// Delete a tuple. Returns `true` iff the relation changed.
    pub fn delete(&mut self, t: &Tuple) -> bool {
        if self.head.remove(t) {
            // fall through to bookkeeping
        } else if self.tombstones.contains(t) {
            return false; // already tombstoned — no run search needed
        } else if self.in_runs(t) {
            self.tombstones.insert(t.clone());
        } else {
            return false;
        }
        self.live -= 1;
        self.log_op(false, t);
        self.invalidate_arrangements();
        true
    }

    /// Iterate over all tuples (arbitrary order): the head, then each
    /// run filtered by the tombstone set.
    pub fn scan(&self) -> impl Iterator<Item = &Tuple> + Clone {
        scan_parts(&self.head, &self.runs, &self.tombstones)
    }

    /// Seal the mutable head into a new sorted run and run size-tiered
    /// compaction. Idempotent on an empty head.
    pub fn seal(&mut self) {
        if self.head.is_empty() {
            return;
        }
        let batch: Vec<Tuple> = self.head.drain().collect();
        self.runs.push(SortedRun::from_unsorted(batch));
        self.seals += 1;
        self.compact();
    }

    /// Size-tiered compaction: while the newest run has grown to at
    /// least half its predecessor, merge the two (a linear co-traversal
    /// that drains the tombstones covering them). Logical content is
    /// untouched.
    fn compact(&mut self) {
        while self.runs.len() >= 2 {
            let n = self.runs.len();
            if self.runs[n - 1].len() * 2 < self.runs[n - 2].len() {
                break;
            }
            let newer = self.runs.pop().expect("len checked");
            let older = self.runs.pop().expect("len checked");
            self.runs.push(SortedRun::merge_dropping(
                &older,
                &newer,
                &mut self.tombstones,
            ));
            self.compactions += 1;
        }
    }

    /// Override the seal threshold (tests / tuning). `usize::MAX`
    /// effectively restores pure hash-set behaviour; `1` seals on every
    /// insert. Takes effect on the next insert.
    pub fn set_seal_threshold(&mut self, threshold: usize) {
        self.seal_threshold = threshold.max(1);
    }

    /// Current number of immutable runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Sizes of the immutable runs, oldest first (merge-join pricing).
    pub fn run_sizes(&self) -> Vec<usize> {
        self.runs.iter().map(|r| r.len()).collect()
    }

    /// Tuples in the mutable head (not yet sealed).
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// Lifetime count of head seals (introspection).
    pub fn seal_count(&self) -> u64 {
        self.seals
    }

    /// Lifetime count of compaction merges (introspection).
    pub fn compaction_count(&self) -> u64 {
        self.compactions
    }

    /// The relation's content as tombstone-free sorted runs, the head
    /// sealed into a final run — what a checkpoint serializes. Does not
    /// mutate the relation.
    pub fn snapshot_runs(&self) -> Vec<Vec<Tuple>> {
        let mut out: Vec<Vec<Tuple>> = Vec::with_capacity(self.runs.len() + 1);
        for r in &self.runs {
            let live: Vec<Tuple> = r
                .iter()
                .filter(|t| !self.tombstones.contains(*t))
                .cloned()
                .collect();
            if !live.is_empty() {
                out.push(live);
            }
        }
        if !self.head.is_empty() {
            let mut head: Vec<Tuple> = self.head.iter().cloned().collect();
            head.sort_unstable();
            out.push(head);
        }
        out
    }

    /// The relation's content arranged (sorted) by `cols`, built lazily
    /// and cached until the next mutation. This is the base-side input
    /// of a merge join.
    pub fn arrangement(&self, cols: &[usize]) -> Arc<Arrangement> {
        if let Ok(cache) = self.arrangements.lock() {
            if let Some(a) = cache.get(cols) {
                return Arc::clone(a);
            }
        }
        let a = Arc::new(Arrangement::build(self.scan().cloned().collect(), cols));
        if let Ok(mut cache) = self.arrangements.lock() {
            cache.insert(cols.to_vec(), Arc::clone(&a));
        }
        a
    }

    /// Number of cached arrangements (for tests / introspection).
    pub fn arrangement_count(&self) -> usize {
        self.arrangements.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Ensure a hash index exists over the given columns (sorted,
    /// deduplicated by the caller being consistent; the same column list
    /// always maps to the same index). Any pending maintenance is folded
    /// into the existing indexes first, so the new index (built from a
    /// scan of the current content) and its siblings agree.
    pub fn ensure_index(&mut self, cols: &[usize]) {
        let scan = scan_parts(&self.head, &self.runs, &self.tombstones);
        let m = match self.maintained.get_mut() {
            Ok(m) => m,
            Err(e) => e.into_inner(),
        };
        if m.by_cols.contains_key(cols) {
            return;
        }
        m.fold_pending(scan.clone(), self.live);
        let mut idx = HashIndex {
            cols: cols.to_vec(),
            map: FxHashMap::default(),
        };
        for t in scan {
            idx.insert(t);
        }
        m.by_cols.insert(cols.to_vec(), m.indexes.len());
        m.indexes.push(idx);
    }

    /// Whether an index over exactly these columns exists.
    pub fn has_index(&self, cols: &[usize]) -> bool {
        match self.maintained.read() {
            Ok(m) => m.by_cols.contains_key(cols),
            Err(e) => e.into_inner().by_cols.contains_key(cols),
        }
    }

    /// Probe an index: append to `out` all tuples whose projection onto
    /// `cols` equals `key` (tuples are interned, so the clones are
    /// reference bumps; the caller owns the key and the matches). Requires
    /// [`ensure_index`](Self::ensure_index) to have been called for
    /// `cols` (the plan compiler does this); falls back to a scan-filter
    /// if not, so correctness never depends on index presence. The first
    /// probe after a mutation folds the pending maintenance log in
    /// (merge-on-read).
    pub fn probe_into(&self, cols: &[usize], key: &KeyRef<'_>, out: &mut Vec<Tuple>) {
        {
            let m = match self.maintained.read() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            if let Some(&i) = m.by_cols.get(cols) {
                if m.pending.is_empty() {
                    return m.indexes[i].hits_into(key, out);
                }
                drop(m);
                let mut m = match self.maintained.write() {
                    Ok(g) => g,
                    Err(e) => e.into_inner(),
                };
                m.fold_pending(
                    scan_parts(&self.head, &self.runs, &self.tombstones),
                    self.live,
                );
                return m.indexes[i].hits_into(key, out);
            }
        }
        self.fallback_scans.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut sites) = self.fallback_sites.lock() {
            sites.insert(cols.to_vec());
        }
        out.extend(self.scan().filter(|t| key.matches(t, cols)).cloned());
    }

    /// [`probe_into`](Self::probe_into) with a value slice, into a new `Vec`.
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
        let mut out = Vec::new();
        self.probe_into(cols, &KeyRef::new(key), &mut out);
        out
    }

    /// Number of maintained indexes (for tests / introspection).
    pub fn index_count(&self) -> usize {
        match self.maintained.read() {
            Ok(m) => m.indexes.len(),
            Err(e) => e.into_inner().indexes.len(),
        }
    }

    /// Number of distinct values in column `col` (exact). Like probes,
    /// the first read after a mutation folds the pending maintenance log
    /// in. Out-of-range columns report 0.
    pub fn ndv(&self, col: usize) -> usize {
        {
            let m = match self.maintained.read() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            if m.pending.is_empty() {
                return m.col_counts.get(col).map_or(0, |c| c.len());
            }
        }
        let mut m = match self.maintained.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        m.fold_pending(
            scan_parts(&self.head, &self.runs, &self.tombstones),
            self.live,
        );
        m.col_counts.get(col).map_or(0, |c| c.len())
    }

    /// Total index-less probes that degraded to a full scan-filter.
    pub fn fallback_scans(&self) -> u64 {
        self.fallback_scans.load(Ordering::Relaxed)
    }

    /// Drain the distinct column sets that triggered a fallback scan
    /// since the previous drain (used for once-per-pass logging).
    pub fn take_fallback_sites(&self) -> Vec<Vec<usize>> {
        match self.fallback_sites.lock() {
            Ok(mut sites) => {
                let mut out: Vec<Vec<usize>> = sites.drain().collect();
                out.sort();
                out
            }
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::tuple;

    #[test]
    fn set_semantics() {
        let mut r = BaseRelation::new("q", 2);
        assert!(r.insert(tuple![1, 2]));
        assert!(!r.insert(tuple![1, 2]), "re-insert is a no-op");
        assert!(r.delete(&tuple![1, 2]));
        assert!(!r.delete(&tuple![1, 2]), "re-delete is a no-op");
        assert!(r.is_empty());
    }

    #[test]
    fn set_semantics_across_runs() {
        let mut r = BaseRelation::new("q", 1);
        r.set_seal_threshold(2);
        for i in 0..6 {
            assert!(r.insert(tuple![i]));
        }
        assert!(r.run_count() >= 1, "threshold 2 must have sealed");
        assert!(!r.insert(tuple![0]), "re-insert of run-resident tuple");
        assert!(r.delete(&tuple![0]), "delete tombstones a run tuple");
        assert!(!r.delete(&tuple![0]), "re-delete is a no-op");
        assert!(!r.contains(&tuple![0]));
        assert_eq!(r.len(), 5);
        assert!(r.insert(tuple![0]), "resurrection clears the tombstone");
        assert!(r.contains(&tuple![0]));
        assert_eq!(r.len(), 6);
        let mut all: Vec<_> = r.scan().cloned().collect();
        all.sort();
        assert_eq!(all, (0..6).map(|i| tuple![i]).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_content_and_drains_tombstones() {
        let mut r = BaseRelation::new("q", 1);
        r.set_seal_threshold(4);
        for i in 0..64 {
            r.insert(tuple![i]);
        }
        for i in (0..64).step_by(3) {
            r.delete(&tuple![i]);
        }
        let before: Vec<_> = {
            let mut v: Vec<_> = r.scan().cloned().collect();
            v.sort();
            v
        };
        r.seal(); // force the head out and compact
        assert!(r.compaction_count() > 0, "size-tiered merges happened");
        let mut after: Vec<_> = r.scan().cloned().collect();
        after.sort();
        assert_eq!(before, after);
        assert_eq!(r.len(), after.len());
    }

    #[test]
    fn from_runs_matches_inserts() {
        let mut by_insert = BaseRelation::new("q", 2);
        for i in 0..10 {
            by_insert.insert(tuple![i, i % 3]);
        }
        let by_runs = BaseRelation::from_runs(
            "q",
            2,
            vec![
                (0..5).map(|i| tuple![i, i % 3]).collect(),
                (5..10).map(|i| tuple![i, i % 3]).collect(),
            ],
        );
        assert_eq!(by_runs.len(), 10);
        assert_eq!(by_runs.ndv(0), by_insert.ndv(0));
        assert_eq!(by_runs.ndv(1), by_insert.ndv(1));
        for i in 0..10 {
            assert!(by_runs.contains(&tuple![i, i % 3]));
        }
        assert_eq!(by_runs.run_count(), 2, "runs adopted without rehydration");
        assert_eq!(by_runs.head_len(), 0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let mut r = BaseRelation::new("q", 2);
        r.insert(tuple![1]);
    }

    #[test]
    fn probe_with_index() {
        let mut r = BaseRelation::new("q", 2);
        r.insert(tuple![1, 10]);
        r.insert(tuple![1, 11]);
        r.insert(tuple![2, 20]);
        r.ensure_index(&[0]);
        let mut hits: Vec<_> = r.probe(&[0], &[Value::Int(1)]);
        hits.sort();
        assert_eq!(hits, vec![tuple![1, 10], tuple![1, 11]]);
        assert!(r.probe(&[0], &[Value::Int(3)]).is_empty());
    }

    #[test]
    fn probe_without_index_scans() {
        let mut r = BaseRelation::new("q", 2);
        r.insert(tuple![1, 10]);
        r.insert(tuple![2, 10]);
        let mut hits = r.probe(&[1], &[Value::Int(10)]);
        hits.sort();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn index_maintained_across_updates() {
        let mut r = BaseRelation::new("q", 2);
        r.ensure_index(&[0]);
        r.insert(tuple![1, 10]);
        assert_eq!(r.probe(&[0], &[Value::Int(1)]).len(), 1);
        r.delete(&tuple![1, 10]);
        assert!(r.probe(&[0], &[Value::Int(1)]).is_empty());
    }

    #[test]
    fn index_maintained_across_seal_and_tombstone() {
        let mut r = BaseRelation::new("q", 2);
        r.ensure_index(&[0]);
        r.set_seal_threshold(2);
        for i in 0..8 {
            r.insert(tuple![i % 4, i]);
        }
        assert_eq!(r.probe(&[0], &[Value::Int(1)]).len(), 2);
        r.delete(&tuple![1, 1]);
        assert_eq!(r.probe(&[0], &[Value::Int(1)]).len(), 1, "tombstoned");
        r.insert(tuple![1, 1]);
        assert_eq!(r.probe(&[0], &[Value::Int(1)]).len(), 2, "resurrected");
    }

    #[test]
    fn ensure_index_idempotent_and_backfills() {
        let mut r = BaseRelation::new("q", 2);
        r.insert(tuple![5, 50]);
        r.ensure_index(&[0]);
        r.ensure_index(&[0]);
        assert_eq!(r.index_count(), 1);
        assert_eq!(r.probe(&[0], &[Value::Int(5)]).len(), 1);
    }

    #[test]
    fn ndv_maintained_on_insert_and_delete() {
        let mut r = BaseRelation::new("q", 2);
        assert_eq!(r.ndv(0), 0);
        r.insert(tuple![1, 10]);
        r.insert(tuple![1, 11]);
        r.insert(tuple![2, 10]);
        assert_eq!(r.ndv(0), 2, "two distinct values in col 0");
        assert_eq!(r.ndv(1), 2, "two distinct values in col 1");
        r.delete(&tuple![1, 10]);
        assert_eq!(r.ndv(0), 2, "value 1 still present via (1,11)");
        r.delete(&tuple![1, 11]);
        assert_eq!(r.ndv(0), 1, "value 1 fully gone");
        assert_eq!(r.ndv(7), 0, "out-of-range column");
    }

    #[test]
    fn fallback_scans_counted_and_sites_drained() {
        let mut r = BaseRelation::new("q", 2);
        r.insert(tuple![1, 10]);
        r.ensure_index(&[0]);
        r.probe(&[0], &[Value::Int(1)]);
        assert_eq!(r.fallback_scans(), 0, "indexed probe is not a fallback");
        r.probe(&[1], &[Value::Int(10)]);
        r.probe(&[1], &[Value::Int(11)]);
        assert_eq!(r.fallback_scans(), 2);
        assert_eq!(r.take_fallback_sites(), vec![vec![1]]);
        assert!(r.take_fallback_sites().is_empty(), "drain empties the set");
        let cloned = r.clone();
        assert_eq!(cloned.fallback_scans(), 2);
        assert_eq!(cloned.ndv(0), 1);
    }

    #[test]
    fn arrangement_cached_and_invalidated() {
        let mut r = BaseRelation::new("q", 2);
        r.set_seal_threshold(2);
        for i in 0..8 {
            r.insert(tuple![i, i % 3]);
        }
        let a = r.arrangement(&[1]);
        let zero = [Value::Int(0)];
        assert_eq!(a.equal_range(&KeyRef::new(&zero)).len(), 3);
        assert_eq!(r.arrangement_count(), 1);
        assert!(Arc::ptr_eq(&a, &r.arrangement(&[1])), "cache hit");
        r.insert(tuple![100, 0]);
        assert_eq!(r.arrangement_count(), 0, "mutation invalidates");
        assert_eq!(
            r.arrangement(&[1]).equal_range(&KeyRef::new(&zero)).len(),
            4
        );
    }

    #[test]
    fn snapshot_runs_cover_content_without_tombstones() {
        let mut r = BaseRelation::new("q", 1);
        r.set_seal_threshold(3);
        for i in 0..10 {
            r.insert(tuple![i]);
        }
        r.delete(&tuple![4]);
        let runs = r.snapshot_runs();
        let mut flat: Vec<Tuple> = runs.into_iter().flatten().collect();
        flat.sort();
        let mut expect: Vec<Tuple> = r.scan().cloned().collect();
        expect.sort();
        assert_eq!(flat, expect);
        assert!(!flat.contains(&tuple![4]));
    }

    #[test]
    fn multi_column_index() {
        let mut r = BaseRelation::new("delivery_time", 3);
        r.insert(tuple![1, 7, 2]);
        r.insert(tuple![1, 8, 3]);
        r.ensure_index(&[0, 1]);
        assert_eq!(r.probe(&[0, 1], &[Value::Int(1), Value::Int(7)]).len(), 1);
    }
}

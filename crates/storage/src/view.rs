//! The Δ-layer state view: a base relation read through an ordered
//! stack of Δ-sets (paper §4.2, fig. 3).
//!
//! Negative partial differentials are "historical queries that must be
//! executed in the database state when the deleted data were present".
//! Rather than materializing monitored relations, the paper computes the
//! old state from the new one: `S_old = (S_new ∪ Δ₋S) − Δ₊S`. A snapshot
//! read is the same algebra once per committed transaction, and a
//! session's buffered write-set is its mirror image. All three are one
//! thing: a *layer* is a borrowed [`DeltaSet`] plus a direction, and
//!
//! ```text
//! layer(S) = (S − hide) ∪ add      Undo: hide Δ₊, add Δ₋
//!                                  Redo: hide Δ₋, add Δ₊
//! ```
//!
//! A [`StateView`] is a base relation under a stack of layers, read as
//! the composition `topₙ(… layer₁(base))`. Because each layer's `hide`
//! and `add` are disjoint, the composition has a closed form that needs
//! no intermediate sets: **the topmost layer that mentions a tuple
//! decides it; the base answers for tuples no layer mentions.** Every
//! read below is that sentence, so building a view clones no tuple and
//! costs nothing, and a read costs O(|Δ|) over the stack.
//!
//! The stacks in use:
//!
//! * check phase, [`StateEpoch::New`] — the empty stack;
//! * check phase, [`StateEpoch::Old`] — `[Undo(transaction Δ)]`;
//! * a session pinned before versions `v₁ … vₙ` —
//!   `[Undo(vₙ), …, Undo(v₁), Redo(write-set)]`
//!   ([`LayerStacks::snapshot`]): the newest commit is undone first,
//!   the session's own writes are replayed last.
//!
//! [`Storage::commit`](crate::Storage::commit) publishes a
//! [`TxnVersion`] only while a snapshot pin is registered, so the
//! single-session path never has layers to walk.

use amos_types::{FxHashMap, FxHashSet, KeyRef, Tuple, TupleKey};

use crate::database::RelId;
use crate::delta::DeltaSet;
use crate::relation::BaseRelation;
use crate::txn::TxnVersion;

/// Which database state to evaluate a relation access against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateEpoch {
    /// The current database state ("the current database always reflects
    /// the new state").
    New,
    /// The pre-transaction state, reconstructed by logical rollback.
    Old,
}

/// One correction of the state beneath it: a borrowed Δ-set and the
/// direction to apply it in.
#[derive(Debug, Clone, Copy)]
pub enum Layer<'a> {
    /// Roll the change back — the state *before* the Δ-set happened.
    Undo(&'a DeltaSet),
    /// Replay the change — the state *after* the Δ-set happens.
    Redo(&'a DeltaSet),
}

impl<'a> Layer<'a> {
    fn delta(self) -> &'a DeltaSet {
        match self {
            Layer::Undo(d) | Layer::Redo(d) => d,
        }
    }

    /// Tuples this layer makes absent.
    fn hide(self) -> &'a FxHashSet<Tuple> {
        match self {
            Layer::Undo(d) => d.plus(),
            Layer::Redo(d) => d.minus(),
        }
    }

    /// Tuples this layer makes present.
    fn add(self) -> &'a FxHashSet<Tuple> {
        match self {
            Layer::Undo(d) => d.minus(),
            Layer::Redo(d) => d.plus(),
        }
    }

    /// Whether the layer decides `t` (either way).
    fn mentions(self, t: &dyn TupleKey) -> bool {
        self.hide().contains(t) || self.add().contains(t)
    }
}

/// A read-only view of one base relation through a layer stack:
/// `layers` bottom (applied first) to top, then `top` above them all.
/// The by-value `top` slot is what lets the check phase read
/// `[Undo(transaction Δ)]` — or a session stack with the transaction Δ
/// undone on top of it — without storing a one-element stack anywhere.
#[derive(Debug, Clone, Copy)]
pub struct StateView<'a> {
    base: &'a BaseRelation,
    layers: &'a [Layer<'a>],
    top: Option<Layer<'a>>,
}

impl<'a> StateView<'a> {
    /// View `base` through `layers` (bottom to top) and then `top`.
    pub fn new(base: &'a BaseRelation, layers: &'a [Layer<'a>], top: Option<Layer<'a>>) -> Self {
        StateView { base, layers, top }
    }

    /// The stack from the top layer down.
    fn top_down(self) -> impl Iterator<Item = Layer<'a>> {
        self.top
            .into_iter()
            .chain(self.layers.iter().rev().copied())
    }

    /// Whether one of the `depth` topmost layers mentions `t`.
    fn decided_above(self, depth: usize, t: &dyn TupleKey) -> bool {
        self.top_down().take(depth).any(|l| l.mentions(t))
    }

    /// Total size of the stack's Δ-sets (`Σ |Δ₊| + |Δ₋|`) — what every
    /// read pays on top of the base's own cost, so callers can choose to
    /// amortize a large stack into an index.
    pub fn delta_len(self) -> usize {
        self.top_down().map(|l| l.delta().len()).sum()
    }

    /// Membership, for a tuple or a borrowed key.
    pub fn contains(self, key: &impl TupleKey) -> bool {
        let hashed: &dyn TupleKey = key;
        for l in self.top_down() {
            if l.add().contains(hashed) {
                return true;
            }
            if l.hide().contains(hashed) {
                return false;
            }
        }
        self.base.contains(key)
    }

    /// Every visible tuple exactly once: each layer's `add` side unless
    /// a higher layer decides the tuple, then the base tuples no layer
    /// mentions (one a layer mentions was either hidden or already
    /// emitted from that layer's `add`).
    pub fn scan(self) -> impl Iterator<Item = &'a Tuple> {
        let added = self.top_down().enumerate().flat_map(move |(depth, l)| {
            l.add()
                .iter()
                .filter(move |t| !self.decided_above(depth, *t))
        });
        added.chain(
            self.base
                .scan()
                .filter(move |t| !self.decided_above(usize::MAX, *t)),
        )
    }

    /// Append to `out` the visible tuples whose projection onto `cols`
    /// equals `key`. The caller owns the key and the matches; the clones
    /// are reference bumps and nothing else is allocated.
    pub fn probe_into(self, cols: &[usize], key: &KeyRef<'_>, out: &mut Vec<Tuple>) {
        // Past what the caller already held, drop what a layer decides.
        let (held, mut seen) = (out.len(), 0);
        self.base.probe_into(cols, key, out);
        out.retain(|t| {
            seen += 1;
            seen <= held || !self.decided_above(usize::MAX, t)
        });
        for (depth, l) in self.top_down().enumerate() {
            out.extend(
                l.add()
                    .iter()
                    .filter(|t| key.matches(t, cols))
                    .filter(|t| !self.decided_above(depth, *t))
                    .cloned(),
            );
        }
    }

    /// Number of visible tuples, in O(|Δ|): the base's count corrected
    /// by every mentioned tuple whose deciding layer disagrees with the
    /// base. (No shortcut through `|Δ₋| − |Δ₊|`: `Δ₊ ⊆ base` holds for
    /// the transaction Δ but not for a version that a later one undid.)
    pub fn len(self) -> usize {
        let mut n = self.base.len();
        for (depth, l) in self.top_down().enumerate() {
            let d = l.delta();
            for t in d.plus().iter().chain(d.minus()) {
                if self.decided_above(depth, t) {
                    continue;
                }
                match (l.add().contains(t), self.base.contains(t)) {
                    (true, false) => n += 1,
                    (false, true) => n -= 1,
                    _ => {}
                }
            }
        }
        n
    }

    /// Whether no tuple is visible.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

/// The layer stack of every relation a database-wide stack touches,
/// split per relation once so that a [`StateView`] borrows its slice.
/// Relations absent from the map read straight from the base.
#[derive(Debug, Default)]
pub struct LayerStacks<'a> {
    rels: FxHashMap<RelId, Vec<Layer<'a>>>,
}

impl<'a> LayerStacks<'a> {
    /// The stacks of a session that pinned the snapshot preceding
    /// `versions[0]` and has buffered `writes`: every later commit
    /// undone, newest first, then the session's own write-set replayed.
    /// Borrows every Δ-set where it lies; empty ones are skipped.
    pub fn snapshot(
        versions: &'a [TxnVersion],
        writes: impl IntoIterator<Item = (&'a RelId, &'a DeltaSet)>,
    ) -> Self {
        let mut rels: FxHashMap<RelId, Vec<Layer<'a>>> = FxHashMap::default();
        let mut push = |rel: &RelId, layer: Layer<'a>| {
            if !layer.delta().is_empty() {
                rels.entry(*rel).or_default().push(layer);
            }
        };
        for (rel, d) in versions.iter().rev().flat_map(|v| &v.writes) {
            push(rel, Layer::Undo(d));
        }
        for (rel, d) in writes {
            push(rel, Layer::Redo(d));
        }
        LayerStacks { rels }
    }

    /// The stack of `rel`, bottom to top (empty when nothing touches it).
    pub fn of(&self, rel: RelId) -> &[Layer<'a>] {
        self.rels.get(&rel).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::{tuple, Value};
    use std::collections::HashSet;

    impl StateView<'_> {
        fn probe(self, cols: &[usize], key: &[Value]) -> Vec<Tuple> {
            let mut out = vec![tuple![0, 0]]; // what the caller already holds stays
            self.probe_into(cols, &KeyRef::new(key), &mut out);
            out.remove(0);
            out
        }
    }

    /// Replay events through a relation, folding the effective ones
    /// into a Δ-set as a monitored transaction would.
    fn apply(rel: &mut BaseRelation, delta: &mut DeltaSet, inserts: &[Tuple], deletes: &[Tuple]) {
        for t in inserts {
            if rel.insert(t.clone()) {
                delta.apply_insert(t.clone());
            }
        }
        for t in deletes {
            if rel.delete(t) {
                delta.apply_delete(t.clone());
            }
        }
    }

    fn ds(plus: &[Tuple], minus: &[Tuple]) -> DeltaSet {
        DeltaSet::from_parts(
            plus.iter().cloned().collect(),
            minus.iter().cloned().collect(),
        )
    }

    fn base(tuples: &[Tuple]) -> BaseRelation {
        let mut r = BaseRelation::new("r", 2);
        for t in tuples {
            r.insert(t.clone());
        }
        r
    }

    fn version(seq: u64, plus: &[Tuple], minus: &[Tuple]) -> TxnVersion {
        TxnVersion {
            seq,
            writes: vec![(RelId(0), ds(plus, minus))],
        }
    }

    fn sorted(view: StateView<'_>) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = view.scan().cloned().collect();
        v.sort();
        v
    }

    const NO_WRITES: [(&RelId, &DeltaSet); 0] = [];

    #[test]
    fn rollback_identity() {
        let mut rel = base(&[tuple![1, 2], tuple![2, 3]]);
        let old_snapshot: HashSet<Tuple> = rel.scan().cloned().collect();

        let mut delta = DeltaSet::new();
        apply(
            &mut rel,
            &mut delta,
            &[tuple![1, 4]],
            &[tuple![1, 2], tuple![2, 3]],
        );

        let view = StateView::new(&rel, &[], Some(Layer::Undo(&delta)));
        let reconstructed: HashSet<Tuple> = view.scan().cloned().collect();
        assert_eq!(reconstructed, old_snapshot);
        assert_eq!(view.len(), old_snapshot.len());
        for t in &old_snapshot {
            assert!(view.contains(t));
        }
        assert!(
            !view.contains(&tuple![1, 4]),
            "inserted tuple not in old state"
        );
        assert_eq!(view.delta_len(), 3);
    }

    #[test]
    fn old_probe_sees_deleted_and_hides_inserted() {
        let mut rel = base(&[tuple![1, 10]]);
        rel.ensure_index(&[0]);
        let mut delta = DeltaSet::new();
        apply(&mut rel, &mut delta, &[tuple![1, 11]], &[tuple![1, 10]]);

        let view = StateView::new(&rel, &[], Some(Layer::Undo(&delta)));
        let hits = view.probe(&[0], &[Value::Int(1)]);
        assert_eq!(hits, vec![tuple![1, 10]]);
    }

    #[test]
    fn empty_stack_and_empty_delta_equal_the_relation() {
        let rel = base(&[tuple![1, 1], tuple![2, 2]]);
        let delta = DeltaSet::new();
        for view in [
            StateView::new(&rel, &[], None),
            StateView::new(&rel, &[], Some(Layer::Undo(&delta))),
        ] {
            assert_eq!(view.len(), 2);
            assert!(!view.is_empty());
            assert_eq!(view.delta_len(), 0);
            assert!(view.contains(&tuple![1, 1]));
            assert_eq!(view.scan().count(), 2);
        }
    }

    #[test]
    fn no_net_change_view_equals_relation() {
        let mut rel = base(&[tuple![1, 1]]);
        let mut delta = DeltaSet::new();
        // insert (2,2), delete (2,2) — cancels logically
        apply(&mut rel, &mut delta, &[tuple![2, 2]], &[tuple![2, 2]]);
        assert!(delta.is_empty());
        let view = StateView::new(&rel, &[], Some(Layer::Undo(&delta)));
        assert_eq!(view.scan().count(), 1);
    }

    #[test]
    fn undo_of_later_commits_reconstructs_snapshot() {
        // Snapshot at B: {(1,1),(2,2)}. V1 deletes (2,2), V2 inserts
        // (3,3). Base now: {(1,1),(3,3)}.
        let b = base(&[tuple![1, 1], tuple![3, 3]]);
        let versions = [
            version(1, &[], &[tuple![2, 2]]),
            version(2, &[tuple![3, 3]], &[]),
        ];
        let stacks = LayerStacks::snapshot(&versions, NO_WRITES);
        assert_eq!(stacks.of(RelId(0)).len(), 2);
        let view = StateView::new(&b, stacks.of(RelId(0)), None);
        assert_eq!(sorted(view), vec![tuple![1, 1], tuple![2, 2]]);
        assert!(view.contains(&tuple![2, 2]));
        assert!(!view.contains(&tuple![3, 3]));
        assert_eq!(view.len(), 2);
    }

    #[test]
    fn delete_then_reinsert_across_versions_emits_once() {
        // Snapshot holds (1,1). V1 deletes it, V2 re-inserts it: the
        // lower layer adds (1,1) while it is also present in the base —
        // scan must not emit it twice.
        let b = base(&[tuple![1, 1]]);
        let versions = [
            version(1, &[], &[tuple![1, 1]]),
            version(2, &[tuple![1, 1]], &[]),
        ];
        let stacks = LayerStacks::snapshot(&versions, NO_WRITES);
        let view = StateView::new(&b, stacks.of(RelId(0)), None);
        assert_eq!(sorted(view), vec![tuple![1, 1]]);
        assert_eq!(view.probe(&[0], &[Value::Int(1)]), vec![tuple![1, 1]]);
        assert_eq!(view.len(), 1);
    }

    #[test]
    fn local_writes_compose_on_top_of_the_snapshot() {
        // Base now: {(1,20)}; the snapshot had (1,10), a later commit
        // changed it to (1,20); the session sets it to (1,30) locally.
        let b = base(&[tuple![1, 20]]);
        let versions = [version(3, &[tuple![1, 20]], &[tuple![1, 10]])];
        let local = [(RelId(0), ds(&[tuple![1, 30]], &[tuple![1, 10]]))];
        let stacks = LayerStacks::snapshot(&versions, local.iter().map(|(r, d)| (r, d)));
        let view = StateView::new(&b, stacks.of(RelId(0)), None);
        assert_eq!(sorted(view), vec![tuple![1, 30]]);
        assert_eq!(view.probe(&[0], &[Value::Int(1)]), vec![tuple![1, 30]]);
        assert!(!view.contains(&tuple![1, 10]));
        assert!(!view.contains(&tuple![1, 20]));
        assert_eq!(view.len(), 1);

        // The same stack with the session's own writes rolled back on
        // top is the snapshot again.
        let undone = StateView::new(&b, stacks.of(RelId(0)), Some(Layer::Undo(&local[0].1)));
        assert_eq!(sorted(undone), vec![tuple![1, 10]]);
        assert_eq!(undone.len(), 1);
    }

    #[test]
    fn untouched_relations_read_through() {
        let b = base(&[tuple![7, 7]]);
        // A version that touches another relation, and an empty write-set
        // on this one: neither puts a layer on RelId(0).
        let versions = [TxnVersion {
            seq: 1,
            writes: vec![(RelId(1), ds(&[tuple![9, 9]], &[]))],
        }];
        let local = [(RelId(0), DeltaSet::new())];
        let stacks = LayerStacks::snapshot(&versions, local.iter().map(|(r, d)| (r, d)));
        assert!(stacks.of(RelId(0)).is_empty());
        assert_eq!(stacks.of(RelId(1)).len(), 1);
        let view = StateView::new(&b, stacks.of(RelId(0)), None);
        assert!(view.contains(&tuple![7, 7]));
        assert_eq!(sorted(view), vec![tuple![7, 7]]);
    }
}

//! Property test for the Δ-layer state view (`amos_storage::view`).
//!
//! One timeline per case: a snapshot state, 0–4 transactions committed
//! after it (each published as a `TxnVersion` with its net Δ-set), an
//! optional session write-set buffered against the snapshot, and an
//! optional Δ-set undone on top of everything. The view over the
//! *current* base relation through
//! `[Undo(vₙ) … Undo(v₁), Redo(write-set)]` + `Undo(top)` must read
//! exactly what a `HashSet` reads after the same Δ-sets are replayed
//! into it one by one — membership, scan (each tuple once), probes with
//! and without a base index, and cardinality. Membership and probes are
//! asked both with a tuple and with a borrowed [`KeyRef`] over loose
//! values (the evaluator's form), of the view and of the base under it,
//! and answered by a scan-filter of the model.
//!
//! The tuple domain is small (8 × 8) so that versions collide: a tuple
//! deleted by one version and re-inserted by a later one, and a
//! write-set overwriting a key a later version also changed, come up in
//! most cases (and are pinned as unit tests in `view.rs`). Event counts
//! are bimodal so that a layer's `add` side lands on both sides of the
//! Δ-set's arrangement cut (16 tuples a side), and the test asserts that
//! arranged probes ran both at the top layer and below it.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

use amos_types::FxHashSet as HashSet;

use amos_storage::{BaseRelation, DeltaSet, Layer, LayerStacks, RelId, StateView, TxnVersion};
use amos_types::{tuple, KeyRef, Tuple, Value};
use proptest::prelude::*;

const DOMAIN: i64 = 8;
/// Whether some case probed through an arrangement [at the top layer,
/// below it].
static ARRANGED: [AtomicBool; 2] = [AtomicBool::new(false), AtomicBool::new(false)];

fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0..DOMAIN, 0..DOMAIN).prop_map(|(a, b)| tuple![a, b])
}

/// Physical events — insert (true) or delete (false) — a handful, or a
/// few dozen whose folded sides hold about 10 to 25 tuples each.
fn events() -> impl Strategy<Value = Vec<(bool, Tuple)>> {
    prop_oneof![
        prop::collection::vec((any::<bool>(), small_tuple()), 0..6),
        prop::collection::vec((any::<bool>(), small_tuple()), 24..64),
    ]
}

/// Fold events into a Δ-set without looking at any state, the way a
/// session buffers `add`/`remove` statements.
fn folded(evs: &[(bool, Tuple)]) -> DeltaSet {
    let mut d = DeltaSet::new();
    for (ins, t) in evs {
        if *ins {
            d.apply_insert(t.clone());
        } else {
            d.apply_delete(t.clone());
        }
    }
    d
}

/// Replay one layer into the model: drop what it hides, add what it adds.
fn replay(model: &mut HashSet<Tuple>, hide: &HashSet<Tuple>, add: &HashSet<Tuple>) {
    for t in hide {
        model.remove(t);
    }
    model.extend(add.iter().cloned());
}

fn sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort();
    v
}

proptest! {
    fn layered_view_cases(
        init in prop::collection::vec(small_tuple(), 0..24),
        commits in prop::collection::vec(events(), 0..5),
        write_set in prop::option::of(events()),
        top in prop::option::of(events()),
        indexed in any::<bool>(),
        sealed in any::<bool>(),
    ) {
        // The snapshot state, then the committed transactions applied
        // physically; each publishes the net Δ of its effective events.
        let mut rel = BaseRelation::new("r", 2);
        if indexed {
            rel.ensure_index(&[0]);
        }
        for t in &init {
            rel.insert(t.clone());
        }
        if sealed {
            rel.seal();
        }
        let snapshot: HashSet<Tuple> = rel.scan().cloned().collect();
        let mut versions = Vec::new();
        for (i, evs) in commits.iter().enumerate() {
            let mut d = DeltaSet::new();
            for (ins, t) in evs {
                if *ins {
                    if rel.insert(t.clone()) {
                        d.apply_insert(t.clone());
                    }
                } else if rel.delete(t) {
                    d.apply_delete(t.clone());
                }
            }
            // A decoy write to another relation must not leak into r's stack.
            versions.push(TxnVersion {
                seq: i as u64 + 1,
                writes: vec![(RelId(1), folded(evs)), (RelId(0), d)],
            });
        }
        let write_set = write_set.map(|evs| [(RelId(0), folded(&evs))]);
        let top = top.map(|evs| folded(&evs));

        // The model: start from what the base holds now and replay the
        // stack bottom to top.
        let mut model: HashSet<Tuple> = rel.scan().cloned().collect();
        let mut layers = 0;
        for v in versions.iter().rev() {
            let d = &v.writes[1].1;
            replay(&mut model, d.plus(), d.minus());
            layers += usize::from(!d.is_empty());
        }
        prop_assert_eq!(&model, &snapshot, "undoing every later commit is the snapshot");
        if let Some([(_, d)]) = &write_set {
            replay(&mut model, d.minus(), d.plus());
            layers += usize::from(!d.is_empty());
        }
        if let Some(d) = &top {
            replay(&mut model, d.plus(), d.minus());
        }

        let stacks = LayerStacks::snapshot(
            &versions,
            write_set.iter().flatten().map(|(r, d)| (r, d)),
        );
        prop_assert_eq!(stacks.of(RelId(0)).len(), layers);
        let view = StateView::new(&rel, stacks.of(RelId(0)), top.as_ref().map(Layer::Undo));

        let scanned: Vec<Tuple> = view.scan().cloned().collect();
        prop_assert_eq!(scanned.len(), model.len(), "scan emits each tuple once");
        prop_assert_eq!(&scanned.into_iter().collect::<HashSet<Tuple>>(), &model);
        prop_assert_eq!(view.len(), model.len());
        prop_assert_eq!(view.is_empty(), model.is_empty());

        let base: HashSet<Tuple> = rel.scan().cloned().collect();
        let bare = StateView::new(&rel, &[], None);
        for a in 0..DOMAIN {
            for b in 0..DOMAIN {
                let t = tuple![a, b];
                let vals = [Value::Int(a), Value::Int(b)];
                let key = KeyRef::new(&vals);
                prop_assert_eq!(view.contains(&t), model.contains(&t), "contains {}", t);
                prop_assert_eq!(view.contains(&key), model.contains(&t), "contains key {}", t);
                prop_assert_eq!(rel.contains(&key), base.contains(&t), "base contains key {}", t);
                // Every column bound is still a probe when asked as one
                // (no index over [0, 1]: the scan fallback answers).
                let mut hit = Vec::new();
                view.probe_into(&[0, 1], &key, &mut hit);
                prop_assert_eq!(hit, Vec::from_iter(model.get(&t).cloned()), "probe [0,1] = {}", t);
            }
        }
        for col in [0usize, 1] {
            for k in 0..DOMAIN {
                let k = Value::Int(k);
                let key = KeyRef::new([&k]);
                for (what, state, truth) in [("view", view, &model), ("base", bare, &base)] {
                    // The caller's buffer keeps what it held: matches are appended.
                    let mut probed = vec![tuple![DOMAIN, DOMAIN]];
                    state.probe_into(&[col], &key, &mut probed);
                    prop_assert_eq!(probed.remove(0), tuple![DOMAIN, DOMAIN]);
                    let expected = sorted(truth.iter().filter(|t| t[col] == k).cloned().collect());
                    prop_assert_eq!(sorted(probed), expected, "{} probe col {} = {}", what, col, k);
                }
            }
        }
        let arranged = |d: &DeltaSet| d.index_count() > 0;
        let mut below = versions.iter().map(|v| &v.writes[1].1);
        let below = below.any(arranged) || write_set.iter().flatten().any(|(_, d)| arranged(d));
        ARRANGED[0].fetch_or(top.as_ref().is_some_and(arranged), Relaxed);
        ARRANGED[1].fetch_or(below, Relaxed);
    }
}

/// The cases (64 by default; `PROPTEST_CASES` from 32 up reaches both
/// positions), then whether arranged probes ran at both.
#[test]
fn layered_view_equals_replayed_model() {
    layered_view_cases();
    let arranged = ARRANGED.each_ref().map(|a| a.load(Relaxed));
    assert_eq!(arranged, [true; 2], "arranged probes at [top, below]");
}

//! Property tests for the Δ-set calculus of §4.1.
//!
//! The central invariants, quoted from the paper:
//!
//! * `Δ₊B = B − B_old` and `Δ₋B = B_old − B` — the accumulated Δ-set is
//!   exactly the *net* change of the transaction, whatever physical event
//!   sequence produced it.
//! * `B_old = (B ∪ Δ₋B) − Δ₊B` — logical rollback reconstructs the old
//!   state.
//! * Δ-sets stay disjoint (`Δ₊ ∩ Δ₋ = ∅`).
//! * `∪Δ` accumulation by folding equals the paper's set formula.

use amos_types::FxHashSet as HashSet;

use amos_storage::{BaseRelation, DeltaSet, Layer, StateView, Storage};
use amos_types::{tuple, KeyRef, Tuple, Value};
use proptest::prelude::*;

/// A small domain keeps collisions (and hence cancellations) frequent.
fn small_tuple() -> impl Strategy<Value = Tuple> {
    (0i64..6, 0i64..6).prop_map(|(a, b)| tuple![a, b])
}

/// A physical event: insert (true) or delete (false) of a tuple.
fn events() -> impl Strategy<Value = Vec<(bool, Tuple)>> {
    prop::collection::vec((any::<bool>(), small_tuple()), 0..40)
}

fn initial_tuples() -> impl Strategy<Value = Vec<Tuple>> {
    prop::collection::vec(small_tuple(), 0..12)
}

proptest! {
    /// Replaying arbitrary physical events through a monitored relation
    /// leaves a Δ-set equal to the set difference of final vs initial
    /// state, and the old-state view reconstructs the initial state.
    #[test]
    fn net_delta_equals_state_difference(init in initial_tuples(), evs in events()) {
        let mut db = Storage::new();
        let r = db.create_relation("r", 2).unwrap();
        for t in &init {
            db.insert(r, t.clone()).unwrap();
        }
        let before: HashSet<Tuple> = db.relation(r).scan().cloned().collect();

        db.monitor(r);
        db.begin().unwrap();
        for (is_insert, t) in &evs {
            if *is_insert {
                db.insert(r, t.clone()).unwrap();
            } else {
                db.delete(r, t).unwrap();
            }
        }
        let after: HashSet<Tuple> = db.relation(r).scan().cloned().collect();
        let empty = DeltaSet::new();
        let delta = db.delta(r).unwrap_or(&empty);

        // Δ₊B = B − B_old, Δ₋B = B_old − B
        let expected_plus: HashSet<Tuple> = after.difference(&before).cloned().collect();
        let expected_minus: HashSet<Tuple> = before.difference(&after).cloned().collect();
        prop_assert_eq!(delta.plus(), &expected_plus);
        prop_assert_eq!(delta.minus(), &expected_minus);
        prop_assert!(delta.invariant_holds());

        // B_old = (B ∪ Δ₋B) − Δ₊B
        let view = StateView::new(db.relation(r), &[], db.delta(r).map(Layer::Undo));
        let reconstructed: HashSet<Tuple> = view.scan().cloned().collect();
        prop_assert_eq!(&reconstructed, &before);
        prop_assert_eq!(view.len(), before.len());
        for t in &before {
            prop_assert!(view.contains(t));
        }
        for t in expected_plus.iter() {
            prop_assert!(!view.contains(t));
        }
    }

    /// Rollback restores exactly the pre-transaction state.
    #[test]
    fn rollback_restores(init in initial_tuples(), evs in events()) {
        let mut db = Storage::new();
        let r = db.create_relation("r", 2).unwrap();
        for t in &init {
            db.insert(r, t.clone()).unwrap();
        }
        let before: HashSet<Tuple> = db.relation(r).scan().cloned().collect();
        db.begin().unwrap();
        for (is_insert, t) in &evs {
            if *is_insert {
                db.insert(r, t.clone()).unwrap();
            } else {
                db.delete(r, t).unwrap();
            }
        }
        db.rollback().unwrap();
        let after: HashSet<Tuple> = db.relation(r).scan().cloned().collect();
        prop_assert_eq!(before, after);
    }

    /// Folding a Δ-set into another with `delta_union_assign` equals the
    /// paper's `∪Δ` set formula, and preserves disjointness.
    #[test]
    fn delta_union_fold_equals_formula(evs1 in events(), evs2 in events()) {
        let mut d1 = DeltaSet::new();
        for (ins, t) in &evs1 {
            if *ins { d1.apply_insert(t.clone()); } else { d1.apply_delete(t.clone()); }
        }
        let mut d2 = DeltaSet::new();
        for (ins, t) in &evs2 {
            if *ins { d2.apply_insert(t.clone()); } else { d2.apply_delete(t.clone()); }
        }
        prop_assert!(d1.invariant_holds());
        prop_assert!(d2.invariant_holds());

        let by_formula = d1.delta_union(&d2);
        let mut by_fold = d1.clone();
        by_fold.delta_union_assign(d2);
        prop_assert_eq!(&by_formula, &by_fold);
        prop_assert!(by_formula.invariant_holds());
    }

    /// `∪Δ` with the inverse Δ-set cancels to empty.
    #[test]
    fn delta_union_with_inverse_is_empty(evs in events()) {
        let mut d = DeltaSet::new();
        for (ins, t) in &evs {
            if *ins { d.apply_insert(t.clone()); } else { d.apply_delete(t.clone()); }
        }
        let inverse = DeltaSet::from_parts(d.minus().clone(), d.plus().clone());
        prop_assert!(d.delta_union(&inverse).is_empty());
    }

    /// Old-state probes — the base's index, then the Δ-set's `Δ₋` — agree
    /// with old-state scans.
    #[test]
    fn old_probe_agrees_with_scan(init in initial_tuples(), evs in events(), key in 0i64..6) {
        let mut rel = BaseRelation::new("r", 2);
        rel.ensure_index(&[0]);
        let mut delta = DeltaSet::new();
        for t in &init {
            rel.insert(t.clone());
        }
        for (ins, t) in &evs {
            if *ins {
                if rel.insert(t.clone()) { delta.apply_insert(t.clone()); }
            } else if rel.delete(t) {
                delta.apply_delete(t.clone());
            }
        }
        let view = StateView::new(&rel, &[], Some(Layer::Undo(&delta)));
        let k = Value::Int(key);
        let mut probed: Vec<Tuple> = Vec::new();
        view.probe_into(&[0], &KeyRef::new([&k]), &mut probed);
        let mut scanned: Vec<Tuple> = view.scan().filter(|t| t[0] == k).cloned().collect();
        probed.sort();
        scanned.sort();
        prop_assert_eq!(probed, scanned);
    }
}

/// One step of a savepoint-algebra interleaving.
#[derive(Debug, Clone)]
enum SpOp {
    Insert(Tuple),
    Delete(Tuple),
    Save,
    /// Rewind to the i-th (mod live count) outstanding savepoint.
    RollbackTo(usize),
    /// Abort the whole transaction and open a fresh one.
    Rollback,
}

fn sp_ops() -> impl Strategy<Value = Vec<SpOp>> {
    prop::collection::vec(
        prop_oneof![
            small_tuple().prop_map(SpOp::Insert),
            small_tuple().prop_map(SpOp::Insert),
            small_tuple().prop_map(SpOp::Delete),
            small_tuple().prop_map(SpOp::Delete),
            Just(SpOp::Save),
            (0usize..4).prop_map(SpOp::RollbackTo),
            Just(SpOp::Rollback),
        ],
        0..48,
    )
}

proptest! {
    /// Savepoint algebra (§4.1 partial rollback): any interleaving of
    /// updates, `savepoint`, `rollback_to`, and full `rollback` leaves
    /// the relation, the undo log, the Δ-set, and the old-state overlay
    /// exactly equivalent to replaying only the *surviving* updates —
    /// the events recorded since transaction start and never undone.
    #[test]
    fn savepoint_algebra_equals_surviving_replay(init in initial_tuples(), ops in sp_ops()) {
        let mut db = Storage::new();
        let r = db.create_relation("r", 2).unwrap();
        for t in &init {
            db.insert(r, t.clone()).unwrap();
        }
        let before: HashSet<Tuple> = db.relation(r).scan().cloned().collect();
        db.monitor(r);
        db.begin().unwrap();

        // The model: effective events not undone by any rollback, and
        // the live savepoint stack with the model length at save time.
        let mut surviving: Vec<(bool, Tuple)> = Vec::new();
        let mut stack: Vec<(amos_storage::Savepoint, usize)> = Vec::new();

        for op in &ops {
            match op {
                SpOp::Insert(t) => {
                    if db.insert(r, t.clone()).unwrap() {
                        surviving.push((true, t.clone()));
                    }
                }
                SpOp::Delete(t) => {
                    if db.delete(r, t).unwrap() {
                        surviving.push((false, t.clone()));
                    }
                }
                SpOp::Save => stack.push((db.savepoint(), surviving.len())),
                SpOp::RollbackTo(i) => {
                    if stack.is_empty() {
                        continue;
                    }
                    let idx = i % stack.len();
                    let (sp, keep) = stack[idx];
                    let undone = db.rollback_to(sp).unwrap();
                    prop_assert_eq!(undone, surviving.len() - keep);
                    surviving.truncate(keep);
                    // Savepoints taken after the rewound point are gone;
                    // the rewound-to savepoint itself stays valid.
                    stack.truncate(idx + 1);
                }
                SpOp::Rollback => {
                    db.rollback().unwrap();
                    surviving.clear();
                    stack.clear();
                    db.begin().unwrap();
                }
            }
        }

        // Relation state ≡ initial state + surviving events, in order.
        let mut model = before.clone();
        for (ins, t) in &surviving {
            if *ins {
                model.insert(t.clone());
            } else {
                model.remove(t);
            }
        }
        let after: HashSet<Tuple> = db.relation(r).scan().cloned().collect();
        prop_assert_eq!(&after, &model);

        // Undo log holds exactly the surviving events.
        prop_assert_eq!(db.log().len(), surviving.len());

        // Δ-set is the net of the surviving events.
        let expected_plus: HashSet<Tuple> = after.difference(&before).cloned().collect();
        let expected_minus: HashSet<Tuple> = before.difference(&after).cloned().collect();
        let empty = DeltaSet::new();
        let delta = db.delta(r).unwrap_or(&empty);
        prop_assert_eq!(delta.plus(), &expected_plus);
        prop_assert_eq!(delta.minus(), &expected_minus);
        prop_assert!(delta.invariant_holds());

        // Old-state overlay still reconstructs transaction-start state.
        let view = StateView::new(db.relation(r), &[], db.delta(r).map(Layer::Undo));
        let reconstructed: HashSet<Tuple> = view.scan().cloned().collect();
        prop_assert_eq!(&reconstructed, &before);
    }
}

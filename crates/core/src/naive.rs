//! The naive condition monitor — the §6 baseline.
//!
//! "We have implemented both our incremental algorithm and a 'naive'
//! condition monitoring algorithm that recomputes the whole rule
//! condition every time an update has been made to an influent affecting
//! a condition."
//!
//! The naive monitor materializes each condition's result in the old
//! state of the first pass that needs it and, at every pass, re-evaluates
//! the full condition and diffs against the materialization to obtain the
//! net changes, which the check phase then folds back in. Its per-check
//! cost is linear in the database size (it scans the condition's
//! relations), which is exactly the behaviour fig. 6 plots; its memory
//! cost is the materialization the incremental method avoids.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_storage::{DeltaSet, StateEpoch, Storage};
use amos_types::Tuple;

use crate::error::CoreError;

/// Materialized previous results of monitored conditions.
#[derive(Debug, Default, Clone)]
pub struct NaiveMonitor {
    previous: HashMap<PredId, HashSet<Tuple>>,
}

impl NaiveMonitor {
    /// An empty monitor.
    pub fn new() -> Self {
        NaiveMonitor::default()
    }

    /// Start monitoring the conditions not yet monitored: materialize
    /// each one's result in the old state, the state before the Δ-sets.
    pub fn watch(
        &mut self,
        catalog: &Catalog,
        storage: &Storage,
        conditions: impl IntoIterator<Item = PredId>,
    ) -> Result<(), CoreError> {
        for condition in conditions {
            if let Entry::Vacant(slot) = self.previous.entry(condition) {
                slot.insert(full_eval(catalog, storage, condition, StateEpoch::Old)?);
            }
        }
        Ok(())
    }

    /// Stop monitoring a condition and drop its materialization.
    pub fn unwatch(&mut self, condition: PredId) {
        self.previous.remove(&condition);
    }

    /// The materialized previous result (for tests).
    pub fn previous(&self, condition: PredId) -> Option<&HashSet<Tuple>> {
        self.previous.get(&condition)
    }

    /// Recompute a watched condition in full and return its net changes
    /// against the materialization.
    pub fn check(
        &self,
        catalog: &Catalog,
        storage: &Storage,
        condition: PredId,
    ) -> Result<DeltaSet, CoreError> {
        let new = full_eval(catalog, storage, condition, StateEpoch::New)?;
        let old = &self.previous[&condition];
        Ok(DeltaSet::from_parts(
            new.difference(old).cloned().collect(),
            old.difference(&new).cloned().collect(),
        ))
    }

    /// Fold a condition's net changes into its materialization, if it
    /// has one.
    pub fn apply_delta(&mut self, condition: PredId, delta: &DeltaSet) {
        if let Some(prev) = self.previous.get_mut(&condition) {
            for t in delta.minus() {
                prev.remove(t);
            }
            prev.extend(delta.plus().iter().cloned());
        }
    }
}

/// Evaluate a predicate in full (unbound pattern) in the new or the old
/// state.
pub fn full_eval(
    catalog: &Catalog,
    storage: &Storage,
    pred: PredId,
    epoch: StateEpoch,
) -> Result<HashSet<Tuple>, CoreError> {
    let deltas = DeltaMap::new();
    let ctx = EvalContext::new(storage, catalog, &deltas);
    let pattern = vec![None; catalog.def(pred).arity];
    Ok(ctx.eval_pred(pred, &pattern, epoch)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_types::{tuple, CmpOp, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    #[test]
    fn materialize_diff_cycle() {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        // low(X) ← q(X, V) ∧ V < 10
        let low = catalog
            .define_derived(
                "low",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(10))
                    .build()],
            )
            .unwrap();
        storage.insert(rq, tuple![1, 5]).unwrap();
        storage.insert(rq, tuple![2, 50]).unwrap();

        let mut naive = NaiveMonitor::new();
        naive.watch(&catalog, &storage, [low]).unwrap();
        assert_eq!(naive.previous(low).unwrap().len(), 1);

        // No change → empty delta.
        let d = naive.check(&catalog, &storage, low).unwrap();
        assert!(d.is_empty());
        let before = naive.previous(low).unwrap().clone();

        // 2 drops low, 1 rises.
        storage.delete(rq, &tuple![2, 50]).unwrap();
        storage.insert(rq, tuple![2, 3]).unwrap();
        storage.delete(rq, &tuple![1, 5]).unwrap();
        storage.insert(rq, tuple![1, 99]).unwrap();
        let d = naive.check(&catalog, &storage, low).unwrap();
        assert_eq!(d.plus(), &[tuple![2]].into_iter().collect());
        assert_eq!(d.minus(), &[tuple![1]].into_iter().collect());
        assert_eq!(naive.previous(low), Some(&before), "a check only reads");

        // Applied, the materialization advances: a second check is clean.
        naive.apply_delta(low, &d);
        let d2 = naive.check(&catalog, &storage, low).unwrap();
        assert!(d2.is_empty());

        naive.unwatch(low);
        assert!(naive.previous(low).is_none());
    }
}

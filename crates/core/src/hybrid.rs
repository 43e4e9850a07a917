//! Hybrid evaluation (§8): choosing between naive and incremental
//! monitoring per check phase.
//!
//! "For transactions with many updates affecting monitored relations
//! naive evaluation can be more efficient, but only with a constant
//! factor. Further research is needed on detecting situations where
//! naive evaluation should be chosen and how to mix naive and
//! incremental evaluation into the same execution mechanism in a
//! *hybrid* evaluation method."
//!
//! The cost model compares:
//!
//! * incremental cost ≈ Σ over changed influents of
//!   `|ΔX| × out-degree(X) × probe cost` — each Δ tuple seeds that many
//!   differential executions, each a constant number of index probes
//!   (fig. 7's overlapping-execution effect appears as the out-degree
//!   factor);
//! * naive cost ≈ Σ over the condition's stored influents of `|X|` —
//!   a full recomputation scans each relation once (fig. 6's linear
//!   growth).
//!
//! When the estimated incremental cost exceeds `threshold ×` the naive
//! cost, naive evaluation is chosen. The paper measured the worst-case
//! incremental overhead at ≈1.6× naive; the default threshold of 1.0
//! switches as soon as incremental stops being predicted cheaper.

use amos_objectlog::catalog::{Catalog, PredId};
use amos_storage::Storage;

use crate::network::PropagationNetwork;

/// The strategy chosen for one rule in one check phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Partial differencing propagation.
    Incremental,
    /// Full recomputation + diff.
    Naive,
}

/// Tunable cost model for [`Strategy`] selection.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Estimated probes per differential execution per Δ tuple.
    pub probe_cost: f64,
    /// Estimated cost per tuple scanned during naive recomputation.
    pub scan_cost: f64,
    /// Switch to naive when `incremental > threshold × naive`.
    pub threshold: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            // An index probe costs more than a sequential scan step.
            probe_cost: 4.0,
            scan_cost: 1.0,
            threshold: 1.0,
        }
    }
}

impl CostModel {
    /// Estimated cost of propagating the current transaction's changes
    /// to `condition` incrementally.
    pub fn incremental_cost(
        &self,
        catalog: &Catalog,
        storage: &Storage,
        network: &PropagationNetwork,
        condition: PredId,
    ) -> f64 {
        let mut cost = 0.0;
        for node in network.nodes() {
            let Some(rel) = catalog.def(node.pred).stored_rel() else {
                continue;
            };
            let Some(delta) = storage.delta(rel) else {
                continue;
            };
            if delta.is_empty() {
                continue;
            }
            // Differentials seeded by this node that (transitively) feed
            // the condition. For simplicity, count direct out-edges —
            // deep networks underestimate, which only biases toward
            // incremental for bushy shapes where sharing amortizes.
            let out = node
                .out_diffs
                .iter()
                .filter(|d| {
                    let diff = network.differential(**d);
                    diff.affected == condition || network.node_of(diff.affected).is_some()
                })
                .count();
            cost += delta.len() as f64 * out as f64 * self.probe_cost;
        }
        cost
    }

    /// Estimated cost of re-evaluating `condition` from scratch.
    pub fn naive_cost(&self, catalog: &Catalog, storage: &Storage, condition: PredId) -> f64 {
        let mut cost = 0.0;
        for pred in catalog.stored_influents(condition) {
            if let Some(rel) = catalog.def(pred).stored_rel() {
                cost += storage.relation(rel).len() as f64 * self.scan_cost;
            }
        }
        cost.max(1.0)
    }

    /// Choose a strategy for one condition in the current transaction.
    pub fn choose(
        &self,
        catalog: &Catalog,
        storage: &Storage,
        network: &PropagationNetwork,
        condition: PredId,
    ) -> Strategy {
        let inc = self.incremental_cost(catalog, storage, network, condition);
        let naive = self.naive_cost(catalog, storage, condition);
        if inc > self.threshold * naive {
            Strategy::Naive
        } else {
            Strategy::Incremental
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::catalog::Catalog;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_types::{tuple, CmpOp, TypeId, Value};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    fn setup(n_items: i64) -> (Storage, Catalog, PredId, amos_storage::RelId) {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
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
        for i in 0..n_items {
            storage.insert(rq, tuple![i, 100 + i]).unwrap();
        }
        storage.monitor(rq);
        (storage, catalog, low, rq)
    }

    #[test]
    fn few_changes_choose_incremental() {
        let (mut storage, catalog, low, rq) = setup(1000);
        let net = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
        storage.begin().unwrap();
        storage
            .set_functional(rq, &[Value::Int(1)], &[Value::Int(5)])
            .unwrap();
        let model = CostModel::default();
        assert_eq!(
            model.choose(&catalog, &storage, &net, low),
            Strategy::Incremental
        );
    }

    #[test]
    fn massive_changes_choose_naive() {
        let (mut storage, catalog, low, rq) = setup(1000);
        let net = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
        storage.begin().unwrap();
        for i in 0..1000 {
            storage
                .set_functional(rq, &[Value::Int(i)], &[Value::Int(5)])
                .unwrap();
        }
        let model = CostModel::default();
        assert_eq!(model.choose(&catalog, &storage, &net, low), Strategy::Naive);
    }

    #[test]
    fn empty_transaction_is_free_incremental() {
        let (mut storage, catalog, low, _rq) = setup(100);
        let net = PropagationNetwork::build(&catalog, &mut storage, &[low]).unwrap();
        storage.begin().unwrap();
        let model = CostModel::default();
        assert_eq!(model.incremental_cost(&catalog, &storage, &net, low), 0.0);
        assert_eq!(
            model.choose(&catalog, &storage, &net, low),
            Strategy::Incremental
        );
    }
}

//! User-defined differentials (§8 future work): incrementally maintained
//! views with custom Rust delta logic.
//!
//! The paper closes with: "Another interesting research area is the
//! possibility of incremental evaluation of foreign functions through
//! user defined differentials." This module provides that hook: a
//! [`UserView`] declares which stored relations it reads (its influents)
//! and how to turn their Δ-sets into a Δ-set of its own result — the
//! user-defined differential. The engine materializes the view into an
//! ordinary stored function at every commit, so rule conditions can
//! depend on arbitrarily computed data and still be monitored by partial
//! differencing.
//!
//! [`crate::aggregate::AggregateView`] is the built-in implementation
//! (count/sum/avg/min/max); [`ClosureView`] wraps plain closures for
//! ad-hoc foreign computations.

use std::collections::HashMap;

use amos_objectlog::catalog::Catalog;
use amos_storage::{DeltaSet, RelId, Storage};
use amos_types::Tuple;

use crate::aggregate::AggregateView;
use crate::error::CoreError;

/// Influent Δ-sets handed to a user differential, keyed by relation.
pub type SourceDeltas<'a> = HashMap<RelId, &'a DeltaSet>;

/// An incrementally maintained computation over stored relations.
///
/// `Send + Sync` because registered views live inside the engine, and
/// the engine is shared across session threads behind an `RwLock`
/// ([`apply`](Self::apply) itself only ever runs under the write lock).
pub trait UserView: Send + Sync {
    /// The stored relations this view reads. Changes to any of them
    /// invoke [`apply`](Self::apply) at commit.
    fn sources(&self) -> Vec<RelId>;

    /// Compute the full current result (called once at registration).
    fn initialize(&mut self, catalog: &Catalog, storage: &Storage)
        -> Result<Vec<Tuple>, CoreError>;

    /// The user-defined differential: fold the influents' Δ-sets into
    /// internal state and return the Δ-set of result tuples.
    ///
    /// `storage` is in the *new* state; the old state of any source is
    /// reachable through logical rollback (a `StateView` with
    /// `storage.delta(rel)` as its `Layer::Undo`), exactly like
    /// compiler-generated negative differentials.
    fn apply(
        &mut self,
        deltas: &SourceDeltas<'_>,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<DeltaSet, CoreError>;
}

/// [`AggregateView`] bound to its source relation — the built-in
/// [`UserView`] implementation.
pub struct MaintainedAggregate {
    /// The incremental aggregate state.
    pub view: AggregateView,
    /// The backing relation of the aggregate's source predicate.
    pub source_rel: RelId,
}

impl MaintainedAggregate {
    /// Bind an aggregate view to its resolved source relation.
    pub fn new(view: AggregateView, source_rel: RelId) -> Self {
        MaintainedAggregate { view, source_rel }
    }
}

impl UserView for MaintainedAggregate {
    fn sources(&self) -> Vec<RelId> {
        vec![self.source_rel]
    }

    fn initialize(
        &mut self,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<Vec<Tuple>, CoreError> {
        self.view.initialize(catalog, storage)?;
        self.view.current()
    }

    fn apply(
        &mut self,
        deltas: &SourceDeltas<'_>,
        _catalog: &Catalog,
        _storage: &Storage,
    ) -> Result<DeltaSet, CoreError> {
        match deltas.get(&self.source_rel) {
            Some(d) => self.view.apply_delta(d),
            None => Ok(DeltaSet::new()),
        }
    }
}

/// Closure-based [`UserView`] for ad-hoc foreign computations.
///
/// `init` computes the full result; `diff` is the user-defined
/// differential. State, if any, lives inside the closures (e.g. an
/// `Arc<Mutex<…>>` cache shared with the application).
pub struct ClosureView<I, D>
where
    I: FnMut(&Catalog, &Storage) -> Result<Vec<Tuple>, CoreError> + Send + Sync,
    D: FnMut(&SourceDeltas<'_>, &Catalog, &Storage) -> Result<DeltaSet, CoreError> + Send + Sync,
{
    sources: Vec<RelId>,
    init: I,
    diff: D,
}

impl<I, D> ClosureView<I, D>
where
    I: FnMut(&Catalog, &Storage) -> Result<Vec<Tuple>, CoreError> + Send + Sync,
    D: FnMut(&SourceDeltas<'_>, &Catalog, &Storage) -> Result<DeltaSet, CoreError> + Send + Sync,
{
    /// Build a view over the given source relations.
    pub fn new(sources: Vec<RelId>, init: I, diff: D) -> Self {
        ClosureView {
            sources,
            init,
            diff,
        }
    }
}

impl<I, D> UserView for ClosureView<I, D>
where
    I: FnMut(&Catalog, &Storage) -> Result<Vec<Tuple>, CoreError> + Send + Sync,
    D: FnMut(&SourceDeltas<'_>, &Catalog, &Storage) -> Result<DeltaSet, CoreError> + Send + Sync,
{
    fn sources(&self) -> Vec<RelId> {
        self.sources.clone()
    }

    fn initialize(
        &mut self,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<Vec<Tuple>, CoreError> {
        (self.init)(catalog, storage)
    }

    fn apply(
        &mut self,
        deltas: &SourceDeltas<'_>,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<DeltaSet, CoreError> {
        (self.diff)(deltas, catalog, storage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_types::{tuple, TypeId, Value};

    /// A doubling view: result(k, 2v) for every source(k, v), maintained
    /// by a user differential that maps the source delta tuple-wise.
    #[test]
    fn closure_view_differential() {
        let mut storage = Storage::new();
        let rel = storage.create_relation("src", 2).unwrap();
        let mut catalog = Catalog::new();
        catalog
            .define_stored("src", vec![TypeId(0); 2], rel, 1)
            .unwrap();
        storage.insert(rel, tuple![1, 10]).unwrap();

        let double = |t: &Tuple| -> Tuple { tuple![t[0].clone(), t[1].as_int().unwrap() * 2] };
        let mut view = ClosureView::new(
            vec![rel],
            move |_cat: &Catalog, storage: &Storage| {
                Ok(storage.relation(rel).scan().map(double).collect())
            },
            move |deltas: &SourceDeltas<'_>, _cat: &Catalog, _storage: &Storage| {
                let mut out = DeltaSet::new();
                if let Some(d) = deltas.get(&rel) {
                    for t in d.minus() {
                        out.apply_delete(double(t));
                    }
                    for t in d.plus() {
                        out.apply_insert(double(t));
                    }
                }
                Ok(out)
            },
        );

        let initial = UserView::initialize(&mut view, &catalog, &storage).unwrap();
        assert_eq!(initial, vec![tuple![1, 20]]);

        let mut delta = DeltaSet::new();
        delta.apply_delete(tuple![1, 10]);
        delta.apply_insert(tuple![1, 15]);
        delta.apply_insert(tuple![2, 3]);
        let mut sources = SourceDeltas::new();
        sources.insert(rel, &delta);
        let out = UserView::apply(&mut view, &sources, &catalog, &storage).unwrap();
        assert!(out.plus().contains(&tuple![1, 30]));
        assert!(out.plus().contains(&tuple![2, 6]));
        assert!(out.minus().contains(&tuple![1, 20]));
    }

    #[test]
    fn aggregate_view_through_the_trait() {
        use crate::aggregate::AggFn;
        let mut storage = Storage::new();
        let rel = storage.create_relation("src", 2).unwrap();
        let mut catalog = Catalog::new();
        let src = catalog
            .define_stored("src", vec![TypeId(0); 2], rel, 1)
            .unwrap();
        storage.insert(rel, tuple![1, 10]).unwrap();
        storage.insert(rel, tuple![1, 5]).unwrap();

        let mut view: Box<dyn UserView> = Box::new(MaintainedAggregate::new(
            AggregateView::new(src, vec![0], 1, AggFn::Sum),
            rel,
        ));
        let initial = view.initialize(&catalog, &storage).unwrap();
        assert_eq!(initial, vec![tuple![1, 15]]);

        let mut delta = DeltaSet::new();
        delta.apply_insert(tuple![1, Value::Int(85)]);
        let mut sources = SourceDeltas::new();
        sources.insert(rel, &delta);
        let out = view.apply(&sources, &catalog, &storage).unwrap();
        assert!(out.plus().contains(&tuple![1, 100]));
        assert!(out.minus().contains(&tuple![1, 15]));
    }
}

//! Statistics-driven differential planning: the one planner of a
//! partial differential.
//!
//! The paper optimizes each partial differential **once**, as an ordinary
//! query, under the assumption of "few changes to a single influent".
//! That assumption is exactly what a bulk-load transaction violates — and
//! the inverse (a huge base relation joined from a tiny Δ-set) is where a
//! statistics-blind join order wastes the most work.
//!
//! So a differential is planned where its statistics are known, at the
//! wave front, and its plan is kept while they hold: each plan is cached
//! together with the **statistics fingerprint** it was compiled under
//! (the cardinalities of its stored inputs and the sizes of its Δ-seed
//! sides). At wave-front time the live fingerprint is recomputed from
//! [`Storage`] cardinality/NDV statistics and the frozen wave's Δ-sets;
//! if any dimension drifted past [`DRIFT_RATIO`] (or crossed the
//! empty/non-empty boundary) the differential is re-costed and
//! re-ordered with [`compile_clause_with`] before execution.
//!
//! Re-optimization is semantics-preserving by construction: a plan is a
//! join order over the same literals, every ordering computes the same
//! result set, and the §5 propagation invariants (frozen wave, serial
//! merge order) are untouched — plans are resolved *deterministically,
//! in serial task order* before any task runs. The warm ≡ fresh
//! proptest (a planner kept across passes against a new one per pass)
//! pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::Literal;
use amos_objectlog::eval::DeltaMap;
use amos_objectlog::plan::{compile_clause_with, Plan, PlanStats};
use amos_storage::{Polarity, RelId, Storage};
use amos_types::FxHashMap;

use crate::differ::{DiffId, Differential};
use crate::error::CoreError;

/// Re-plan when any fingerprint dimension changed by at least this
/// factor (in either direction).
pub const DRIFT_RATIO: f64 = 4.0;

/// Live statistics: storage cardinalities/NDVs plus the frozen wave's
/// Δ-set sizes, exposed to the [`compile_clause_with`] estimator.
pub struct LiveStats<'a> {
    /// The (frozen) database of the running pass.
    pub storage: &'a Storage,
    /// Predicate definitions (maps Δ-literal predicates to relations).
    pub catalog: &'a Catalog,
    /// The wave's Δ-sets, keyed by influent predicate.
    pub deltas: &'a DeltaMap,
}

impl PlanStats for LiveStats<'_> {
    fn cardinality(&self, rel: RelId) -> Option<f64> {
        Some(self.storage.relation(rel).len() as f64)
    }

    fn ndv(&self, rel: RelId, col: usize) -> Option<f64> {
        Some(self.storage.relation(rel).ndv(col) as f64)
    }

    fn delta_len(&self, pred: PredId, polarity: Polarity) -> Option<f64> {
        Some(self.deltas.get(&pred).map_or(0, |d| d.side(polarity).len()) as f64)
    }
}

/// The statistics a differential's plan was compiled under: one entry
/// per stored literal (input cardinality) and per Δ-literal (side size),
/// in clause-body order, so two fingerprints of the same differential
/// compare positionally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsFingerprint {
    dims: Vec<u64>,
}

impl StatsFingerprint {
    /// Fingerprint `diff`'s clause against the live state.
    pub fn capture(diff: &Differential, catalog: &Catalog, stats: &LiveStats<'_>) -> Self {
        let mut dims = Vec::new();
        for lit in &diff.clause.body {
            match lit {
                Literal::Delta { pred, polarity, .. } => {
                    dims.push(stats.delta_len(*pred, *polarity).unwrap_or(0.0) as u64);
                }
                Literal::Pred { pred, .. } => {
                    if let PredKind::Stored { rel, .. } = catalog.def(*pred).kind {
                        dims.push(stats.cardinality(rel).unwrap_or(0.0) as u64);
                    }
                }
                _ => {}
            }
        }
        StatsFingerprint { dims }
    }

    /// Whether the statistics moved enough to justify re-optimization:
    /// any dimension changed ≥ [`DRIFT_RATIO`]× or crossed the
    /// empty/non-empty boundary.
    pub fn drifted_from(&self, other: &StatsFingerprint) -> bool {
        if self.dims.len() != other.dims.len() {
            return true;
        }
        self.dims.iter().zip(&other.dims).any(|(&a, &b)| {
            if (a == 0) != (b == 0) {
                return true;
            }
            let lo = a.min(b).max(1) as f64;
            let hi = a.max(b) as f64;
            hi / lo >= DRIFT_RATIO
        })
    }
}

struct CachedPlan {
    plan: Arc<Plan>,
    fingerprint: StatsFingerprint,
}

/// Per-differential plan cache with fingerprint-gated re-optimization.
///
/// Owned by the rule layer (it survives propagation passes and is
/// replaced when the network is rebuilt: differential ids are reassigned,
/// so cached entries would alias new differentials); shared into the
/// wave-front loop by reference. Interior mutability keeps the
/// propagation API `&self` and the cache usable from the level loop.
#[derive(Default)]
pub struct AdaptivePlanner {
    plans: RwLock<FxHashMap<DiffId, CachedPlan>>,
    replans: AtomicU64,
    hits: AtomicU64,
}

impl std::fmt::Debug for AdaptivePlanner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdaptivePlanner")
            .field("cached", &self.plans.read().map(|p| p.len()).unwrap_or(0))
            .field("replans", &self.replan_count())
            .field("hits", &self.hit_count())
            .finish()
    }
}

impl AdaptivePlanner {
    /// Empty planner (no plans cached yet).
    pub fn new() -> Self {
        AdaptivePlanner::default()
    }

    /// Resolve the plan to execute for `diff` under the live statistics:
    /// the cached plan if its fingerprint has not drifted, otherwise a
    /// fresh statistics-aware compilation (counted as a re-plan).
    pub fn plan_for(
        &self,
        id: DiffId,
        diff: &Differential,
        catalog: &Catalog,
        storage: &Storage,
        deltas: &DeltaMap,
    ) -> Result<Arc<Plan>, CoreError> {
        let stats = LiveStats {
            storage,
            catalog,
            deltas,
        };
        let fingerprint = StatsFingerprint::capture(diff, catalog, &stats);
        if let Ok(cache) = self.plans.read() {
            if let Some(hit) = cache.get(&id) {
                if !fingerprint.drifted_from(&hit.fingerprint) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(&hit.plan));
                }
            }
        }
        let plan = Arc::new(
            compile_clause_with(catalog, &diff.clause, &Default::default(), &stats)
                .map_err(CoreError::ObjectLog)?,
        );
        self.replans.fetch_add(1, Ordering::Relaxed);
        if let Ok(mut cache) = self.plans.write() {
            cache.insert(
                id,
                CachedPlan {
                    plan: Arc::clone(&plan),
                    fingerprint,
                },
            );
        }
        Ok(plan)
    }

    /// Cumulative statistics-aware (re)compilations.
    pub fn replan_count(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    /// Cumulative plan-cache hits (fingerprint within threshold).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached plans (for tests / introspection).
    pub fn cached_plans(&self) -> usize {
        self.plans.read().map(|p| p.len()).unwrap_or(0)
    }

    /// The plan `diff` would run, for `explain`: the cached plan the last
    /// pass ran, or, before any pass, the plan compiled under the current
    /// statistics and an empty wave. Reads the cache only: no entry is
    /// written and no counter moves.
    pub fn peek(
        &self,
        id: DiffId,
        diff: &Differential,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<Arc<Plan>, CoreError> {
        let cached = self.plans.read().ok();
        if let Some(hit) = cached.as_ref().and_then(|c| c.get(&id)) {
            return Ok(Arc::clone(&hit.plan));
        }
        let stats = LiveStats {
            storage,
            catalog,
            deltas: &DeltaMap::new(),
        };
        let plan = compile_clause_with(catalog, &diff.clause, &Default::default(), &stats)
            .map_err(CoreError::ObjectLog)?;
        Ok(Arc::new(plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_objectlog::plan::PlanStep;
    use amos_types::{tuple, TypeId};
    use std::collections::HashSet;

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// A world and its Δp/Δ₊s differential
    /// `p(X) ← Δ₊s(X,G) ∧ small(G)`.
    fn world() -> (Catalog, Storage, Differential) {
        let mut storage = Storage::new();
        let rs = storage.create_relation("s", 2).unwrap();
        let rsmall = storage.create_relation("small", 1).unwrap();
        let mut catalog = Catalog::new();
        let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
        let small = catalog.define_stored("small", sig(1), rsmall, 1).unwrap();
        let p = catalog
            .define_derived(
                "p",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(s, [Term::var(0), Term::var(1)])
                    .pred(small, [Term::var(1)])
                    .build()],
            )
            .unwrap();
        let mut node_preds = HashSet::new();
        node_preds.insert(s);
        let diffs = crate::differ::generate_differentials(&catalog, p, &node_preds).unwrap();
        assert_eq!(diffs.len(), 2, "one Δ₊ and one Δ₋ differential");
        let plus = diffs.into_iter().find(|d| d.seed == Polarity::Plus);
        (catalog, storage, plus.unwrap())
    }

    #[test]
    fn plan_cache_hits_until_stats_drift() {
        let (catalog, mut storage, diff) = world();
        let rsmall = RelId(1);
        for i in 0..10 {
            storage.insert(rsmall, tuple![i]).unwrap();
        }
        let mut deltas = DeltaMap::new();
        let mut d = amos_storage::DeltaSet::new();
        d.apply_insert(tuple![1, 1]);
        d.apply_insert(tuple![2, 2]);
        deltas.insert(diff.influent, d);

        let planner = AdaptivePlanner::new();
        let id = DiffId(0);
        let p1 = planner
            .plan_for(id, &diff, &catalog, &storage, &deltas)
            .unwrap();
        assert_eq!(planner.replan_count(), 1, "first resolve compiles");
        assert!(p1.est_rows.is_some());

        // Same stats → cache hit, same plan object.
        let p2 = planner
            .plan_for(id, &diff, &catalog, &storage, &deltas)
            .unwrap();
        assert_eq!(planner.hit_count(), 1);
        assert!(Arc::ptr_eq(&p1, &p2));

        // Δ grows 3×: under the 4× threshold, still a hit.
        let mut d3 = amos_storage::DeltaSet::new();
        for i in 0..6 {
            d3.apply_insert(tuple![i, i]);
        }
        deltas.insert(diff.influent, d3);
        planner
            .plan_for(id, &diff, &catalog, &storage, &deltas)
            .unwrap();
        assert_eq!(planner.hit_count(), 2);
        assert_eq!(planner.replan_count(), 1);

        // Δ explodes past 4× → re-plan: the ten-row `small` now leads
        // and the Δ-set is probed on the shared key once per row.
        let mut dbig = amos_storage::DeltaSet::new();
        for i in 0..1000 {
            dbig.apply_insert(tuple![i, i % 10]);
        }
        deltas.insert(diff.influent, dbig);
        let p3 = planner
            .plan_for(id, &diff, &catalog, &storage, &deltas)
            .unwrap();
        assert_eq!(planner.replan_count(), 2, "drift forces recompilation");
        assert!(
            matches!(
                &p3.steps[..],
                [
                    PlanStep::Stored { rel, bound_cols: scan, .. },
                    PlanStep::Delta { bound_cols: probe, .. },
                ] if *rel == rsmall && scan.is_empty() && *probe == vec![1]
            ),
            "bulk Δ is probed from a scan of small: {:?}",
            p3.steps
        );
    }

    #[test]
    fn empty_boundary_crossing_forces_replan() {
        let (catalog, storage, diff) = world();
        let planner = AdaptivePlanner::new();
        let id = DiffId(0);
        let empty = DeltaMap::new();
        // Before any pass, `peek` compiles without caching or counting.
        let peeked = planner.peek(id, &diff, &catalog, &storage).unwrap();
        assert!(matches!(peeked.steps[0], PlanStep::Delta { .. }));
        assert_eq!((planner.cached_plans(), planner.replan_count()), (0, 0));
        planner
            .plan_for(id, &diff, &catalog, &storage, &empty)
            .unwrap();
        assert_eq!(planner.replan_count(), 1);

        // 0 → 1 is under any ratio but crosses the boundary.
        let mut deltas = DeltaMap::new();
        let mut d = amos_storage::DeltaSet::new();
        d.apply_insert(tuple![1, 1]);
        deltas.insert(diff.influent, d);
        planner
            .plan_for(id, &diff, &catalog, &storage, &deltas)
            .unwrap();
        assert_eq!(planner.replan_count(), 2);
        assert_eq!(planner.hit_count(), 0);
        assert_eq!(planner.cached_plans(), 1);
        // After one, `peek` shows the cached plan and leaves the counters.
        let cached = planner.peek(id, &diff, &catalog, &storage).unwrap();
        let resolved = planner.plan_for(id, &diff, &catalog, &storage, &deltas);
        assert!(Arc::ptr_eq(&cached, &resolved.unwrap()));
        assert_eq!((planner.replan_count(), planner.hit_count()), (2, 1));
    }
}

//! Statistics-driven adaptive differential planning.
//!
//! The paper optimizes each partial differential **once**, at rule
//! activation, under the assumption of "few changes to a single
//! influent". That assumption is exactly what a bulk-load transaction
//! violates — and the inverse (a huge base relation joined from a tiny
//! Δ-set) is where a statistics-blind join order wastes the most work.
//!
//! This module closes the loop: each differential's plan is cached
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
//! in serial task order* before any task runs. The adaptive≡static
//! proptests pin this.

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

/// Static statistic ceilings derived at activation time from the
/// catalog's declared signatures and the whole-catalog abstract
/// interpretation (`amos_lint::absint`): a boolean column can never hold
/// more than two distinct values, and a column whose every use site
/// bounds it to an interval can never have more than interval-width
/// distinct values probed. Live NDV measurements are clamped to these
/// ceilings, which matters most on cold start — an empty or barely
/// loaded relation measures NDV 0/1 and would otherwise leave the cost
/// model blind to the column's real spread.
#[derive(Debug, Clone, Default)]
pub struct StaticBounds {
    ndv_caps: FxHashMap<(RelId, usize), f64>,
}

impl StaticBounds {
    /// Derive ceilings for every stored relation column in the catalog.
    pub fn from_catalog(catalog: &Catalog, analysis: &amos_lint::absint::Analysis) -> Self {
        let mut ndv_caps = FxHashMap::default();
        for def in catalog.iter() {
            let PredKind::Stored { rel, .. } = def.kind else {
                continue;
            };
            for (col, &ty) in def.signature.iter().enumerate() {
                let mut cap: Option<f64> = None;
                if ty == amos_types::TypeId::BOOLEAN {
                    cap = Some(2.0);
                }
                if let Some(width) = analysis
                    .stored_column_usage(catalog, def.id, col)
                    .and_then(|iv| iv.width())
                {
                    cap = Some(cap.map_or(width, |c| c.min(width)));
                }
                if let Some(cap) = cap {
                    ndv_caps.insert((rel, col), cap);
                }
            }
        }
        StaticBounds { ndv_caps }
    }

    /// The static NDV ceiling of a relation column, when one is known.
    pub fn ndv_cap(&self, rel: RelId, col: usize) -> Option<f64> {
        self.ndv_caps.get(&(rel, col)).copied()
    }

    /// Number of bounded columns (introspection / tests).
    pub fn len(&self) -> usize {
        self.ndv_caps.len()
    }

    /// Whether no column has a ceiling.
    pub fn is_empty(&self) -> bool {
        self.ndv_caps.is_empty()
    }
}

/// Live statistics: storage cardinalities/NDVs plus the frozen wave's
/// Δ-set sizes, exposed to the [`compile_clause_with`] estimator.
pub struct LiveStats<'a> {
    /// The (frozen) database of the running pass.
    pub storage: &'a Storage,
    /// Predicate definitions (maps Δ-literal predicates to relations).
    pub catalog: &'a Catalog,
    /// The wave's Δ-sets, keyed by influent predicate.
    pub deltas: &'a DeltaMap,
    /// Static ceilings clamping the live measurements, when available.
    pub bounds: Option<&'a StaticBounds>,
}

impl PlanStats for LiveStats<'_> {
    fn cardinality(&self, rel: RelId) -> Option<f64> {
        Some(self.storage.relation(rel).len() as f64)
    }

    fn ndv(&self, rel: RelId, col: usize) -> Option<f64> {
        let live = self.storage.relation(rel).ndv(col) as f64;
        match self.bounds.and_then(|b| b.ndv_cap(rel, col)) {
            // The ceiling also lifts a cold-start measurement: with no
            // tuples yet, the column's eventual spread is still at most
            // (and plausibly close to) the static cap.
            Some(cap) if live == 0.0 => Some(cap),
            Some(cap) => Some(live.min(cap)),
            None => Some(live),
        }
    }

    fn delta_len(&self, pred: PredId, polarity: Polarity) -> Option<f64> {
        Some(self.deltas.get(&pred).map_or(0, |d| d.side(polarity).len()) as f64)
    }

    fn run_profile(&self, rel: RelId) -> Option<(usize, usize)> {
        let r = self.storage.relation(rel);
        Some((r.run_count(), r.run_sizes().iter().sum()))
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
/// replaced when the network is rebuilt); shared into the wave-front
/// loop by reference. Interior mutability keeps the propagation API
/// `&self` and the cache usable from the level loop.
#[derive(Default)]
pub struct AdaptivePlanner {
    plans: RwLock<FxHashMap<DiffId, CachedPlan>>,
    /// Static ceilings applied to live statistics (set after each
    /// network build, cleared by [`AdaptivePlanner::reset`]).
    bounds: RwLock<Option<Arc<StaticBounds>>>,
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
        let bounds = self.bounds.read().ok().and_then(|b| b.clone());
        let stats = LiveStats {
            storage,
            catalog,
            deltas,
            bounds: bounds.as_deref(),
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

    /// Install static statistic ceilings (computed at activation from
    /// the catalog and abstract interpretation).
    pub fn set_static_bounds(&self, bounds: StaticBounds) {
        if let Ok(mut b) = self.bounds.write() {
            *b = Some(Arc::new(bounds));
        }
    }

    /// The installed static ceilings, if any.
    pub fn static_bounds(&self) -> Option<Arc<StaticBounds>> {
        self.bounds.read().ok().and_then(|b| b.clone())
    }

    /// Drop all cached plans and counters (network rebuilt: DiffIds are
    /// reassigned, so cached entries would alias new differentials).
    pub fn reset(&self) {
        if let Ok(mut cache) = self.plans.write() {
            cache.clear();
        }
        if let Ok(mut b) = self.bounds.write() {
            *b = None;
        }
        self.replans.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
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
        let diffs =
            crate::differ::generate_differentials(&catalog, &mut storage, p, &node_preds).unwrap();
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

        // Δ explodes past 4× → re-plan, and the bulk pair fuses into a
        // sorted merge join on the shared key.
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
                p3.steps[0],
                PlanStep::MergeJoin {
                    ref delta_cols,
                    ref rel_cols,
                    ..
                } if *delta_cols == vec![1] && *rel_cols == vec![0]
            ),
            "bulk Δ fuses into a merge join: {:?}",
            p3.steps
        );
        assert_eq!(p3.steps.len(), 1);
    }

    /// Static bounds clamp (and cold-start-lift) live NDV measurements:
    /// boolean columns cap at 2, interval-bounded uses cap at the hull
    /// width, and unbounded columns pass the live value through.
    #[test]
    fn static_bounds_clamp_ndv() {
        let mut storage = Storage::new();
        let rflag = storage.create_relation("flag", 2).unwrap();
        let mut catalog = Catalog::new();
        let flag = catalog
            .define_stored("flag", vec![TypeId::INTEGER, TypeId::BOOLEAN], rflag, 1)
            .unwrap();
        // Every use of flag's integer column bounds it to [0, 9].
        catalog
            .define_derived(
                "low",
                vec![TypeId::INTEGER],
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(flag, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(0), amos_types::CmpOp::Ge, Term::val(0))
                    .cmp(Term::var(0), amos_types::CmpOp::Lt, Term::val(10))
                    .build()],
            )
            .unwrap();
        let analysis = amos_lint::absint::analyze(&catalog);
        let bounds = StaticBounds::from_catalog(&catalog, &analysis);
        assert_eq!(bounds.ndv_cap(rflag, 0), Some(10.0), "interval hull");
        assert_eq!(bounds.ndv_cap(rflag, 1), Some(2.0), "boolean column");
        assert!(!bounds.is_empty());

        let deltas = DeltaMap::new();
        let stats = LiveStats {
            storage: &storage,
            catalog: &catalog,
            deltas: &deltas,
            bounds: Some(&bounds),
        };
        // Cold start: no tuples, live NDV 0 → lifted to the cap.
        assert_eq!(stats.ndv(rflag, 1), Some(2.0));
        for i in 0..100 {
            storage.insert(rflag, tuple![i, i % 2 == 0]).unwrap();
        }
        let stats = LiveStats {
            storage: &storage,
            catalog: &catalog,
            deltas: &deltas,
            bounds: Some(&bounds),
        };
        // 100 live values clamp to the interval hull; the boolean's live
        // NDV is already within its cap.
        assert_eq!(stats.ndv(rflag, 0), Some(10.0));
        assert_eq!(stats.ndv(rflag, 1), Some(2.0));

        // The planner carries bounds until reset.
        let planner = AdaptivePlanner::new();
        planner.set_static_bounds(bounds);
        assert!(planner.static_bounds().is_some());
        planner.reset();
        assert!(planner.static_bounds().is_none());
    }

    #[test]
    fn empty_boundary_crossing_forces_replan() {
        let (catalog, storage, diff) = world();
        let planner = AdaptivePlanner::new();
        let id = DiffId(0);
        let empty = DeltaMap::new();
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
        planner.reset();
        assert_eq!(planner.cached_plans(), 0);
        assert_eq!(planner.replan_count(), 0);
    }
}

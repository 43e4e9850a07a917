//! The planner: one plan cache for every clause the evaluator runs more
//! than once, with statistics-gated re-optimization (DESIGN.md §8).
//!
//! The paper optimizes each partial differential once, as an ordinary
//! query, assuming "few changes to a single influent" — which a bulk
//! load violates. So a clause is planned where its statistics are known
//! and its plan is kept while they hold: a resolve compares the live
//! **statistics fingerprint** with the one the cached plan was compiled
//! under and recompiles on drift. Re-optimization is
//! semantics-preserving by construction: a plan is a join order over the
//! same literals, and every ordering computes the same result set.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use amos_storage::{Polarity, RelId, Storage};
use amos_types::{FxHashMap, Value};

use crate::catalog::{Catalog, PredId};
use crate::clause::{Clause, Literal, Term, Var};
use crate::error::ObjectLogError;
use crate::eval::{no_deltas, DeltaMap};
use crate::plan::{compile_clause, Plan, PlanStats};

/// Re-plan when any fingerprint dimension changed by at least this
/// factor (in either direction).
pub const DRIFT_RATIO: f64 = 4.0;

/// Why taking the cache lock cannot fail: nothing panics while holding it.
const UNPOISONED: &str = "no resolve panics while holding the plan cache";

/// Live statistics: storage cardinalities/NDVs plus the sizes of the
/// Δ-sets in scope, exposed to the [`compile_clause`] estimator.
pub struct LiveStats<'a> {
    /// The database as published (a session's uncommitted layers are
    /// not counted).
    storage: &'a Storage,
    /// The Δ-sets Δ-literals read, keyed by influent predicate.
    deltas: &'a DeltaMap,
}

impl<'a> LiveStats<'a> {
    /// The statistics of `storage` and of the Δ-sets in `deltas`.
    pub fn new(storage: &'a Storage, deltas: &'a DeltaMap) -> Self {
        LiveStats { storage, deltas }
    }

    /// The statistics of `storage` with no Δ-set in scope: what a select,
    /// a derived body and the naive monitor are planned under.
    pub fn of(storage: &'a Storage) -> Self {
        LiveStats::new(storage, no_deltas())
    }
}

impl PlanStats for LiveStats<'_> {
    fn cardinality(&self, rel: RelId) -> f64 {
        self.storage.relation(rel).len() as f64
    }

    fn ndv(&self, rel: RelId, col: usize) -> f64 {
        self.storage.relation(rel).ndv(col) as f64
    }

    fn delta_len(&self, pred: PredId, polarity: Polarity) -> f64 {
        self.deltas.get(&pred).map_or(0, |d| d.side(polarity).len()) as f64
    }
}

/// What a cached plan was compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanKey {
    /// A partial differential, by its index in the propagation network.
    Differential(u32),
    /// Clause `.1` (its index) of derived predicate `.0`.
    Clause(PredId, usize),
}

/// One cached plan of a key, for one binding pattern.
#[derive(Debug)]
struct CachedPlan {
    /// Which of the caller's pattern slots were bound; empty when nothing
    /// was (a differential).
    bound: Box<[bool]>,
    plan: Arc<Plan>,
    /// The statistics the plan was compiled under (see [`fingerprint`]).
    fingerprint: Vec<u64>,
}

impl CachedPlan {
    fn serves(&self, pattern: &[Option<Value>]) -> bool {
        self.bound.len() == pattern.len()
            && (self.bound.iter().zip(pattern)).all(|(&b, slot)| b == slot.is_some())
    }
}

/// The statistics fingerprint of `clause`: one dimension per stored
/// literal (its relation's cardinality) and per Δ-literal (its side's
/// size), in body order, so that two fingerprints of one clause compare
/// positionally.
fn fingerprint<'c>(
    catalog: &'c Catalog,
    clause: &'c Clause,
    stats: &'c dyn PlanStats,
) -> impl Iterator<Item = u64> + 'c {
    clause.body.iter().filter_map(move |lit| {
        let dim = match lit {
            Literal::Delta { pred, polarity, .. } => stats.delta_len(*pred, *polarity),
            Literal::Pred { pred, .. } => stats.cardinality(catalog.def(*pred).stored_rel()?),
            _ => return None,
        };
        Some(dim as u64)
    })
}

/// Whether the live statistics moved enough from the cached ones to
/// justify re-optimization: any dimension changed ≥ [`DRIFT_RATIO`]× or
/// crossed the empty/non-empty boundary. Compares in place.
fn drifted(cached: &[u64], mut live: impl Iterator<Item = u64>) -> bool {
    let moved = cached.iter().any(|&a| {
        let Some(b) = live.next() else {
            return true;
        };
        if (a == 0) != (b == 0) {
            return true;
        }
        let lo = a.min(b).max(1) as f64;
        let hi = a.max(b) as f64;
        hi / lo >= DRIFT_RATIO
    });
    moved || live.next().is_some()
}

/// The head variables of `clause` that the caller's `pattern` binds.
fn bound_vars(clause: &Clause, pattern: &[Option<Value>]) -> HashSet<Var> {
    (clause.head.iter().zip(pattern))
        .filter_map(|(term, slot)| match (term, slot) {
            (Term::Var(v), Some(_)) => Some(*v),
            _ => None,
        })
        .collect()
}

/// The one plan cache, with fingerprint-gated re-optimization.
///
/// Lives in [`EvalShared`](crate::eval::EvalShared): it survives
/// propagation passes, and the rule layer replaces it with the whole
/// shared state when the network is rebuilt (differential ids are
/// reassigned, so cached entries would alias new differentials).
/// Interior mutability keeps resolution `&self`, so parallel wave-front
/// tasks resolve derived bodies through it. A miss compiles under the
/// write lock, after looking again, so a plan is compiled once however
/// many threads miss it together.
#[derive(Debug, Default)]
pub struct Planner {
    plans: RwLock<FxHashMap<PlanKey, Vec<CachedPlan>>>,
    replans: AtomicU64,
    hits: AtomicU64,
}

impl Planner {
    /// Resolve the plan of `clause`, cached under `key`, for a caller
    /// whose `pattern` binds the head columns that are `Some` (an empty
    /// pattern binds none): the cached plan if its fingerprint has not
    /// drifted under `stats`, otherwise a fresh compilation (counted as a
    /// re-plan). A hit allocates nothing.
    pub fn resolve(
        &self,
        key: PlanKey,
        catalog: &Catalog,
        clause: &Clause,
        pattern: &[Option<Value>],
        stats: &LiveStats<'_>,
    ) -> Result<Arc<Plan>, ObjectLogError> {
        let live = || fingerprint(catalog, clause, stats);
        let current = |c: &CachedPlan| c.serves(pattern) && !drifted(&c.fingerprint, live());
        if let Some(entries) = self.plans.read().expect(UNPOISONED).get(&key) {
            if let Some(hit) = entries.iter().find(|c| current(c)) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&hit.plan));
            }
        }
        let mut plans = self.plans.write().expect(UNPOISONED);
        let entries = plans.entry(key).or_default();
        if let Some(hit) = entries.iter().find(|c| current(c)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(&hit.plan));
        }
        let bound = bound_vars(clause, pattern);
        let plan = Arc::new(compile_clause(catalog, clause, &bound, stats)?);
        self.replans.fetch_add(1, Ordering::Relaxed);
        let cached = CachedPlan {
            bound: pattern.iter().map(Option::is_some).collect(),
            plan: Arc::clone(&plan),
            fingerprint: live().collect(),
        };
        match entries.iter().position(|c| c.serves(pattern)) {
            Some(stale) => entries[stale] = cached,
            None => entries.push(cached),
        }
        Ok(plan)
    }

    /// The plan `clause`, cached under `key` with nothing bound, would
    /// run, for `explain`: the cached plan the last pass ran, or, before
    /// any pass, the plan compiled under `storage`'s statistics and no
    /// Δ-set. Reads the cache only: no entry is written and no counter
    /// moves.
    pub fn peek(
        &self,
        key: PlanKey,
        catalog: &Catalog,
        clause: &Clause,
        storage: &Storage,
    ) -> Result<Arc<Plan>, ObjectLogError> {
        if let Some(entries) = self.plans.read().expect(UNPOISONED).get(&key) {
            if let Some(cached) = entries.iter().find(|c| c.serves(&[])) {
                return Ok(Arc::clone(&cached.plan));
            }
        }
        let plan = compile_clause(catalog, clause, &HashSet::new(), &LiveStats::of(storage))?;
        Ok(Arc::new(plan))
    }

    /// Cumulative compilations (first plans and re-plans).
    pub fn replan_count(&self) -> u64 {
        self.replans.load(Ordering::Relaxed)
    }

    /// Cumulative plan-cache hits (fingerprint within threshold).
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached plans, over every key and binding pattern.
    pub fn cached_plans(&self) -> usize {
        self.plans
            .read()
            .expect(UNPOISONED)
            .values()
            .map(Vec::len)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::ClauseBuilder;
    use crate::plan::PlanStep;
    use amos_storage::DeltaSet;
    use amos_types::{tuple, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// A world and the differential `p(X) ← Δ₊s(X,G) ∧ small(G)`.
    fn world() -> (Catalog, Storage, PredId, Clause) {
        let mut storage = Storage::new();
        let rs = storage.create_relation("s", 2).unwrap();
        let rsmall = storage.create_relation("small", 1).unwrap();
        let mut catalog = Catalog::new();
        let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
        let small = catalog.define_stored("small", sig(1), rsmall, 1).unwrap();
        let diff = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .delta(s, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(small, [Term::var(1)])
            .build();
        (catalog, storage, s, diff)
    }

    fn delta(tuples: impl IntoIterator<Item = (i64, i64)>) -> DeltaSet {
        let mut d = DeltaSet::new();
        tuples
            .into_iter()
            .for_each(|(a, b)| d.apply_insert(tuple![a, b]));
        d
    }

    #[test]
    fn plan_cache_hits_until_stats_drift() {
        let (catalog, mut storage, s, diff) = world();
        let rsmall = RelId(1);
        for i in 0..10 {
            storage.insert(rsmall, tuple![i]).unwrap();
        }
        let mut deltas = DeltaMap::new();
        deltas.insert(s, delta([(1, 1), (2, 2)]));

        let planner = Planner::default();
        let key = PlanKey::Differential(0);
        let resolve = |deltas: &DeltaMap| {
            let stats = LiveStats::new(&storage, deltas);
            planner.resolve(key, &catalog, &diff, &[], &stats).unwrap()
        };
        let p1 = resolve(&deltas);
        assert_eq!(planner.replan_count(), 1, "first resolve compiles");

        // Same stats → cache hit, same plan object.
        let p2 = resolve(&deltas);
        assert_eq!(planner.hit_count(), 1);
        assert!(Arc::ptr_eq(&p1, &p2));

        // Δ grows 3×: under the 4× threshold, still a hit.
        deltas.insert(s, delta((0..6).map(|i| (i, i))));
        resolve(&deltas);
        assert_eq!((planner.replan_count(), planner.hit_count()), (1, 2));

        // Δ explodes past 4× → re-plan: the ten-row `small` now leads
        // and the Δ-set is probed on the shared key once per row.
        deltas.insert(s, delta((0..1000).map(|i| (i, i % 10))));
        let p3 = resolve(&deltas);
        assert_eq!(planner.replan_count(), 2, "drift forces recompilation");
        assert_eq!(planner.cached_plans(), 1, "the re-plan replaced the entry");
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
        let (catalog, storage, s, diff) = world();
        let planner = Planner::default();
        let key = PlanKey::Differential(0);
        // Before any pass, `peek` compiles without caching or counting.
        let peeked = planner.peek(key, &catalog, &diff, &storage).unwrap();
        assert!(matches!(peeked.steps[0], PlanStep::Delta { .. }));
        assert_eq!((planner.cached_plans(), planner.replan_count()), (0, 0));
        let empty = LiveStats::of(&storage);
        planner.resolve(key, &catalog, &diff, &[], &empty).unwrap();
        assert_eq!(planner.replan_count(), 1);

        // 0 → 1 is under any ratio but crosses the boundary.
        let mut deltas = DeltaMap::new();
        deltas.insert(s, delta([(1, 1)]));
        let stats = LiveStats::new(&storage, &deltas);
        planner.resolve(key, &catalog, &diff, &[], &stats).unwrap();
        assert_eq!((planner.replan_count(), planner.hit_count()), (2, 0));
        assert_eq!(planner.cached_plans(), 1);
        // After one, `peek` shows the cached plan and leaves the counters.
        let cached = planner.peek(key, &catalog, &diff, &storage).unwrap();
        let resolved = planner.resolve(key, &catalog, &diff, &[], &stats);
        assert!(Arc::ptr_eq(&cached, &resolved.unwrap()));
        assert_eq!((planner.replan_count(), planner.hit_count()), (2, 1));
    }
}

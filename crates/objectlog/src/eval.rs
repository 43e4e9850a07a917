//! The goal-directed evaluation engine.
//!
//! Evaluates any predicate under a *binding pattern* (some argument
//! positions bound to values) against the database — in the **new** state
//! or, via logical rollback of every stored leaf, in the **old** state.
//! Derived predicates evaluate their clauses through compiled plans
//! (compiled on the fly here; the rule layer pre-compiles and caches the
//! plans of partial differentials).
//!
//! Epoch propagation: once evaluation enters an old-state literal,
//! everything beneath it is old-state too — `Q_old` of a derived `Q` is
//! the derivation over old base relations, which is exactly what the
//! paper's logical rollback gives (all influent Δ-sets are complete when
//! a negative differential runs, thanks to breadth-first bottom-up
//! propagation).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use amos_storage::{DeltaSet, Layer, LayerStacks, RelId, StateEpoch, StateView, Storage};
use amos_types::{FxHashMap, KeyRef, Tuple, TupleKey, Value};

use crate::catalog::{Catalog, PredId, PredKind};
use crate::clause::{Term, Var};
use crate::error::ObjectLogError;
use crate::plan::{compile_clause, Plan, PlanStep};

/// Δ-sets keyed by influent predicate, available to Δ-literals.
pub type DeltaMap = HashMap<PredId, DeltaSet>;

/// Recursion guard for derived-predicate calls.
const DEPTH_LIMIT: usize = 64;

/// Cache state shared by every [`EvalContext`] of one propagation pass.
///
/// The wave-front executes many differentials (often concurrently) whose
/// contexts differ only in their Δ-environment; everything cacheable
/// between them lives here, behind `RwLock`s so parallel tasks read
/// without convoying:
///
/// * **plan cache** — compiled clause plans per (predicate, binding
///   mask). Valid as long as the catalog's clauses are; the rule layer
///   replaces the whole `EvalShared` when the network is rebuilt.
/// * **old-state indexes** — lazily-built hash indexes over old-state
///   views, shared by every negative differential of the pass. Valid for
///   one pass: the next transaction has different Δ-sets.
/// * **memo table** — derived-call results per (predicate, binding
///   pattern, epoch); see [`EvalContext::eval_call`]. Valid for one
///   pass: storage is frozen while a pass runs.
///
/// [`EvalShared::reset_pass`] clears the per-pass state (old indexes +
/// memo) and must be called at every pass boundary when the value is
/// reused across passes.
#[derive(Debug)]
pub struct EvalShared {
    /// Memoize derived-predicate call results for the lifetime of the
    /// per-pass state — the paper's cross-differential sharing, realized
    /// at the evaluator level. Off only in [`EvalShared::untabled`].
    tabling: bool,
    plan_cache: RwLock<PlanCache>,
    old_index: RwLock<OldIndexCache>,
    memo: RwLock<MemoTable>,
    hits: AtomicU64,
    misses: AtomicU64,
    probes: AtomicU64,
    scans: AtomicU64,
    delta_probes: AtomicU64,
    delta_scans: AtomicU64,
    merge_joins: AtomicU64,
}

impl Default for EvalShared {
    /// Fresh, empty, tabled cache state.
    fn default() -> Self {
        EvalShared::with_tabling(true)
    }
}

impl EvalShared {
    /// Fresh cache state that never memoizes derived calls: the
    /// reference the tabled ≡ untabled oracle and the operator bench
    /// compare against.
    pub fn untabled() -> Self {
        EvalShared::with_tabling(false)
    }

    fn with_tabling(tabling: bool) -> Self {
        EvalShared {
            tabling,
            plan_cache: RwLock::new(PlanCache::default()),
            old_index: RwLock::new(OldIndexCache::default()),
            memo: RwLock::new(MemoTable::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            delta_probes: AtomicU64::new(0),
            delta_scans: AtomicU64::new(0),
            merge_joins: AtomicU64::new(0),
        }
    }

    /// Invalidate everything that is only valid within one propagation
    /// pass: old-state indexes (the next transaction rolls back to a
    /// different state) and the derived-call memo table (storage mutates
    /// between passes). The plan cache survives — plans depend only on
    /// the catalog, and the rule layer swaps the whole `EvalShared` when
    /// rules or the network change.
    pub fn reset_pass(&self) {
        self.old_index.write().unwrap().clear();
        self.memo.write().unwrap().clear();
    }

    /// Drop every cache including compiled plans (schema changes).
    pub fn clear_all(&self) {
        self.plan_cache.write().unwrap().clear();
        self.reset_pass();
    }

    /// Cumulative derived-call memo hits since construction.
    pub fn tabling_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative derived-call memo misses since construction.
    pub fn tabling_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative stored accesses served by an index probe or a full
    /// membership lookup.
    pub fn probe_count(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Cumulative stored accesses that scanned the whole relation.
    pub fn scan_count(&self) -> u64 {
        self.scans.load(Ordering::Relaxed)
    }

    /// Cumulative Δ-set accesses served by the lazy Δ-index (or a
    /// membership test).
    pub fn delta_probe_count(&self) -> u64 {
        self.delta_probes.load(Ordering::Relaxed)
    }

    /// Cumulative Δ-set accesses that iterated a whole Δ-side.
    pub fn delta_scan_count(&self) -> u64 {
        self.delta_scans.load(Ordering::Relaxed)
    }

    /// Cumulative sorted merge-join zipper executions.
    pub fn merge_join_count(&self) -> u64 {
        self.merge_joins.load(Ordering::Relaxed)
    }
}

/// When the Δ side of a merge join outnumbers the stored arrangement by
/// this factor, skip sorting it and binary-search each Δ tuple into the
/// stored blocks instead: `O(|Δ|·log s)` beats the `O(|Δ|·log |Δ|)`
/// arrange once `s ≪ |Δ|` (the bulk-load-against-tiny-companion shape).
const LOOKUP_JOIN_FACTOR: usize = 8;

/// Up to this many Δ tuples under an old-state view, a probe pays the
/// view's O(|Δ|) walk itself (the paper's common case: a small
/// transaction); past it, one old-state scan is amortized into a hash
/// index shared by the whole pass — this is what keeps the fig. 7
/// workload linear instead of quadratic.
const OLD_INDEX_MIN_DELTA: usize = 32;

/// The layer stacks of a context that reads the database as it stands.
fn no_layers() -> &'static LayerStacks<'static> {
    static EMPTY: OnceLock<LayerStacks<'static>> = OnceLock::new();
    EMPTY.get_or_init(LayerStacks::default)
}

/// The Δ-environment outside propagation.
fn no_deltas() -> &'static DeltaMap {
    static EMPTY: OnceLock<DeltaMap> = OnceLock::new();
    EMPTY.get_or_init(DeltaMap::new)
}

/// Evaluation context: storage, catalog, and the Δ-environment.
pub struct EvalContext<'a> {
    /// The database of base relations.
    pub storage: &'a Storage,
    /// Predicate definitions.
    pub catalog: &'a Catalog,
    /// Δ-sets readable by Δ-literals (empty map outside propagation).
    pub deltas: &'a DeltaMap,
    /// The Δ-layers between the stored relations and this context's
    /// `New` state: empty in the check phase, a session's snapshot
    /// stacks otherwise. Private, and settable only together with a
    /// fresh `shared`: the memo table is keyed by `(pred, pattern,
    /// epoch)` and is valid for exactly one state.
    layers: &'a LayerStacks<'a>,
    /// Caches shared across the contexts of one propagation pass.
    shared: Arc<EvalShared>,
}

/// Variable bindings during plan execution.
type Bindings = Vec<Option<Value>>;

/// Cache of compiled clause plans, keyed by predicate and bound-argument
/// bitmask. A differential whose Δ-set seeds `n` tuples calls its
/// derived sub-goals `n` times with the same binding pattern — without
/// the cache each call would re-run the greedy optimizer.
type PlanCache = FxHashMap<(PredId, u64), Arc<Vec<(usize, Plan)>>>;

/// One lazily-built old-state hash index: probe-key projection → the
/// matching old-state tuples.
type OldIndex = FxHashMap<Tuple, Vec<Tuple>>;

/// Cache of old-state hash indexes (see [`OLD_INDEX_MIN_DELTA`]): per
/// relation its few probed column sets, searched linearly so that a
/// lookup allocates no key.
type OldIndexCache = FxHashMap<RelId, Vec<(Vec<usize>, Arc<OldIndex>)>>;

/// Memo table for derived-predicate calls: full binding pattern + state
/// epoch → the call's result set. Within one pass the database is
/// frozen, so a derived predicate is a pure function of its pattern and
/// epoch (source clauses never contain Δ-literals).
type MemoTable = FxHashMap<(PredId, Vec<Option<Value>>, StateEpoch), Arc<Vec<Tuple>>>;

/// The working memory of one evaluation task (one public call), reused by
/// every step so that nothing is allocated per probe. The probe contract:
/// the *key* is a [`KeyRef`] over values borrowed from the bindings and
/// lives only for the probe; the *matches* are appended by storage to a
/// buffer from `pool`, returned once the step has consumed them; a
/// [`Tuple`] is built only where one outlives the step (a head, a memo
/// entry, an index under construction) — a fully bound literal is a
/// membership test and builds none.
#[derive(Default)]
struct Scratch {
    /// Cleared candidate buffers; nested steps and plans each hold one.
    pool: Vec<Vec<Tuple>>,
    /// Bound column numbers of the probe being issued.
    cols: Vec<usize>,
    /// The undo trail: variables bound so far, newest last.
    trail: Vec<usize>,
    // Access counts, added to the shared totals when the task ends.
    probes: u64,
    scans: u64,
    delta_probes: u64,
    delta_scans: u64,
}

fn resolve<'v>(t: &'v Term, b: &'v Bindings) -> Option<&'v Value> {
    match t {
        Term::Const(v) => Some(v),
        Term::Var(Var(i)) => b[*i as usize].as_ref(),
    }
}

/// The key of a literal's bound slots (one per column, `None` = free),
/// borrowing the values where they are; their columns are left in `cols`.
fn bound_key<'v>(
    slots: impl Iterator<Item = Option<&'v Value>>,
    cols: &mut Vec<usize>,
) -> KeyRef<'v> {
    cols.clear();
    KeyRef::new(slots.enumerate().filter_map(|(i, v)| {
        cols.extend(v.map(|_| i));
        v
    }))
}

impl<'a> EvalContext<'a> {
    /// Build a context with fresh private caches.
    pub fn new(storage: &'a Storage, catalog: &'a Catalog, deltas: &'a DeltaMap) -> Self {
        EvalContext::with_shared(storage, catalog, deltas, Arc::new(EvalShared::default()))
    }

    /// Build a context over existing shared cache state — the wave-front
    /// executor creates one `EvalShared` per pass and threads it through
    /// every differential's context so plan compilations, old-state
    /// indexes, and derived-call results are computed once per pass
    /// instead of once per differential.
    pub fn with_shared(
        storage: &'a Storage,
        catalog: &'a Catalog,
        deltas: &'a DeltaMap,
        shared: Arc<EvalShared>,
    ) -> Self {
        EvalContext {
            storage,
            catalog,
            deltas,
            layers: no_layers(),
            shared,
        }
    }

    /// Build a context that reads every stored relation through `layers`
    /// (a session's snapshot), outside propagation: no Δ-environment,
    /// and always fresh private caches — memoized derived-call results
    /// are only valid for the stack they were computed under.
    pub fn with_layers(
        storage: &'a Storage,
        catalog: &'a Catalog,
        layers: &'a LayerStacks<'a>,
    ) -> Self {
        EvalContext {
            layers,
            ..EvalContext::new(storage, catalog, no_deltas())
        }
    }

    /// The state of a stored relation at `epoch`: this context's layers
    /// over the base for `New`, and the open transaction's Δ-set undone
    /// on top of them for `Old`.
    pub fn state(&self, rel: RelId, epoch: StateEpoch) -> StateView<'a> {
        let rollback = match epoch {
            StateEpoch::New => None,
            StateEpoch::Old => self.storage.delta(rel).map(Layer::Undo),
        };
        StateView::new(self.storage.relation(rel), self.layers.of(rel), rollback)
    }

    /// The shared cache state this context evaluates through.
    pub fn shared(&self) -> &Arc<EvalShared> {
        &self.shared
    }

    /// Run `f` as one evaluation task: fresh working memory, its access
    /// counts added to the pass totals once at the end.
    fn task<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = Scratch::default();
        let result = f(&mut scratch);
        let (totals, relaxed) = (&self.shared, Ordering::Relaxed);
        totals.probes.fetch_add(scratch.probes, relaxed);
        totals.scans.fetch_add(scratch.scans, relaxed);
        totals.delta_probes.fetch_add(scratch.delta_probes, relaxed);
        totals.delta_scans.fetch_add(scratch.delta_scans, relaxed);
        result
    }

    /// Evaluate a predicate under a binding pattern: return all full
    /// argument tuples consistent with the bound positions.
    pub fn eval_pred(
        &self,
        pred: PredId,
        pattern: &[Option<Value>],
        epoch: StateEpoch,
    ) -> Result<HashSet<Tuple>, ObjectLogError> {
        self.task(|scratch| self.eval_pred_depth(pred, pattern, epoch, 0, scratch))
    }

    /// Existence check: does `tuple` belong to the predicate?
    pub fn holds(
        &self,
        pred: PredId,
        tuple: &Tuple,
        epoch: StateEpoch,
    ) -> Result<bool, ObjectLogError> {
        self.task(|scratch| self.holds_key(pred, tuple, epoch, scratch))
    }

    /// Execute a pre-compiled plan from unbound variables and push the
    /// head tuple of every solution whose head variables are all bound.
    /// `outer_epoch` is the ambient state epoch: `Old` forces every
    /// literal old regardless of its annotation.
    pub fn plan_heads(
        &self,
        plan: &Plan,
        outer_epoch: StateEpoch,
        depth: usize,
        out: &mut Vec<Tuple>,
    ) -> Result<(), ObjectLogError> {
        self.task(|scratch| self.heads_into(plan, outer_epoch, depth, [], scratch, out))
    }

    /// Run a plan with the `given` terms bound beforehand and collect its
    /// solutions' heads — where the evaluator's bindings become tuples.
    fn heads_into<'t>(
        &self,
        plan: &Plan,
        outer_epoch: StateEpoch,
        depth: usize,
        given: impl IntoIterator<Item = (&'t Term, &'t Value)>,
        scratch: &mut Scratch,
        out: &mut impl Extend<Tuple>,
    ) -> Result<(), ObjectLogError> {
        let mut exec = Exec {
            ctx: self,
            plan,
            outer_epoch,
            depth,
            b: vec![None; plan.n_vars as usize],
            scratch,
            emit: &mut |b, head| {
                let vals: Option<Vec<Value>> =
                    head.iter().map(|t| resolve(t, b).cloned()).collect();
                out.extend(vals.map(Tuple::new));
            },
        };
        exec.with_unified(given.into_iter(), |exec| exec.step(0))
    }

    /// Whether the fully given `key` belongs to the predicate.
    fn holds_key(
        &self,
        pred: PredId,
        key: &impl TupleKey,
        epoch: StateEpoch,
        scratch: &mut Scratch,
    ) -> Result<bool, ObjectLogError> {
        // A membership test for stored predicates; otherwise (a lazy
        // evaluator could short-circuit; result sets are small here) the
        // memoized call path — the §7.2 checks issue the same
        // derived-predicate calls over and over.
        if let PredKind::Stored { rel, .. } = self.catalog.def(pred).kind {
            return Ok(self.state(rel, epoch).contains(key));
        }
        let values = (0..key.arity()).map(|i| Some(key.value(i).clone()));
        let pattern: Vec<Option<Value>> = values.collect();
        let found = self.eval_call(pred, &pattern, epoch, 0, scratch)?;
        Ok(!found.is_empty())
    }

    /// Evaluate a predicate call, memoizing derived-predicate results in
    /// the shared per-pass table ("tabling"). `N` differentials sharing
    /// a derived subcondition — the common case in bushy networks where
    /// a node like `threshold` is kept unexpanded — evaluate it once per
    /// (binding pattern, epoch) and pay an `Arc` clone thereafter.
    ///
    /// Only `Derived` predicates are memoized: stored lookups are
    /// already cheap, and foreign predicates may be impure. Correctness
    /// rests on two invariants: storage is frozen while a pass runs, and
    /// source clauses never contain Δ-literals, so a derived call is a
    /// pure function of `(pred, pattern, epoch)` for the pass duration.
    fn eval_call(
        &self,
        pred: PredId,
        pattern: &[Option<Value>],
        epoch: StateEpoch,
        depth: usize,
        scratch: &mut Scratch,
    ) -> Result<Arc<Vec<Tuple>>, ObjectLogError> {
        // Fully-bound patterns are membership probes issued per candidate
        // tuple (the §7.2 accept checks); memoizing them costs a key
        // allocation per tuple with near-zero reuse, so only calls with
        // at least one free column go through the memo table.
        let memoize = self.shared.tabling
            && pattern.iter().any(Option::is_none)
            && matches!(self.catalog.def(pred).kind, PredKind::Derived(_));
        let compute = |scratch: &mut Scratch| -> Result<Arc<Vec<Tuple>>, ObjectLogError> {
            let tuples = self.eval_pred_depth(pred, pattern, epoch, depth, scratch)?;
            Ok(Arc::new(tuples.into_iter().collect()))
        };
        if !memoize {
            return compute(scratch);
        }
        let key = (pred, pattern.to_vec(), epoch);
        if let Some(hit) = self.shared.memo.read().unwrap().get(&key) {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // Compute outside the lock; a racing thread may insert first, in
        // which case its (identical) result wins.
        let computed = compute(scratch)?;
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        let mut memo = self.shared.memo.write().unwrap();
        Ok(Arc::clone(memo.entry(key).or_insert(computed)))
    }

    fn eval_pred_depth(
        &self,
        pred: PredId,
        pattern: &[Option<Value>],
        epoch: StateEpoch,
        depth: usize,
        scratch: &mut Scratch,
    ) -> Result<HashSet<Tuple>, ObjectLogError> {
        if depth > DEPTH_LIMIT {
            return Err(ObjectLogError::DepthExceeded);
        }
        let def = self.catalog.def(pred);
        debug_assert_eq!(pattern.len(), def.arity, "pattern arity for {}", def.name);
        match &def.kind {
            PredKind::Stored { rel, .. } => {
                let mut out = Vec::new();
                let slots = pattern.iter().map(Option::as_ref);
                if self.stored_matches(*rel, epoch, slots, scratch, &mut out) == Some(true) {
                    // The caller wants the tuple it asked about: built here.
                    out.push(pattern.iter().flatten().cloned().collect());
                }
                Ok(out.into_iter().collect())
            }
            PredKind::Foreign(f) => Ok(f(pattern).into_iter().map(Tuple::new).collect()),
            PredKind::Derived(clauses) if self.catalog.is_self_recursive(pred) => {
                self.eval_recursive(pred, clauses, pattern, epoch, depth, scratch)
            }
            PredKind::Derived(clauses) => {
                let plans = self.plans_for(pred, clauses, pattern)?;
                let mut out = HashSet::new();
                for (clause_idx, plan) in plans.iter() {
                    // Bind head terms from the pattern; a head the pattern
                    // contradicts contributes nothing.
                    let head = clauses[*clause_idx].head.iter().zip(pattern);
                    let given = head.filter_map(|(term, slot)| Some((term, slot.as_ref()?)));
                    self.heads_into(plan, epoch, depth, given, scratch, &mut out)?;
                }
                Ok(out)
            }
        }
    }

    /// Semi-naive least-fixpoint evaluation of a (linearly) self-recursive
    /// predicate — the §5 footnote's "fixed point techniques".
    ///
    /// Base clauses (no self-literal) seed the fixpoint; recursive
    /// clauses are rewritten so their self-literal reads a synthetic
    /// Δ-set holding the current *frontier* (tuples derived in the
    /// previous round), exactly the semi-naive restriction. Iteration
    /// stops when a round derives nothing new.
    ///
    /// Bound patterns are answered by computing the full fixpoint and
    /// filtering (goal-directed magic-sets rewriting is out of scope).
    fn eval_recursive(
        &self,
        pred: PredId,
        clauses: &[crate::clause::Clause],
        pattern: &[Option<Value>],
        epoch: StateEpoch,
        depth: usize,
        scratch: &mut Scratch,
    ) -> Result<HashSet<Tuple>, ObjectLogError> {
        use crate::clause::{Clause, Literal};
        let references_self = |c: &Clause| c.body.iter().any(|l| l.pred() == Some(pred));

        // Seed: base clauses, evaluated through the ordinary machinery
        // on a catalog view where only the base clauses exist — achieved
        // by running each base clause's plan directly.
        let mut total: HashSet<Tuple> = HashSet::new();
        for clause in clauses.iter().filter(|c| !references_self(c)) {
            let plan = compile_clause(self.catalog, clause, &HashSet::new())?;
            self.heads_into(&plan, epoch, depth + 1, [], scratch, &mut total)?;
        }

        // Rewrite recursive clauses: self-literal → Δ₊-literal on self.
        let mut rec_plans: Vec<Plan> = Vec::new();
        for clause in clauses.iter().filter(|c| references_self(c)) {
            let body = clause
                .body
                .iter()
                .map(|lit| match lit {
                    Literal::Pred {
                        pred: p,
                        args,
                        negated: false,
                        ..
                    } if *p == pred => Literal::Delta {
                        pred,
                        polarity: amos_storage::Polarity::Plus,
                        args: args.clone(),
                    },
                    other => other.clone(),
                })
                .collect();
            let rewritten = Clause {
                n_vars: clause.n_vars,
                head: clause.head.clone(),
                body,
            };
            rec_plans.push(compile_clause(self.catalog, &rewritten, &HashSet::new())?);
        }

        let mut frontier: HashSet<Tuple> = total.clone();
        let mut rounds = 0usize;
        while !frontier.is_empty() {
            rounds += 1;
            if rounds > 100_000 {
                return Err(ObjectLogError::DepthExceeded);
            }
            let mut delta = DeltaSet::new();
            for t in frontier.drain() {
                delta.apply_insert(t);
            }
            let mut fmap = DeltaMap::new();
            fmap.insert(pred, delta);
            let sub = EvalContext {
                deltas: &fmap,
                ..EvalContext::with_layers(self.storage, self.catalog, self.layers)
            };
            let mut next: Vec<Tuple> = Vec::new();
            for plan in &rec_plans {
                sub.plan_heads(plan, epoch, depth + 1, &mut next)?;
            }
            for t in next {
                if total.insert(t.clone()) {
                    frontier.insert(t);
                }
            }
        }
        // Filter by the caller's bound positions.
        Ok(total
            .into_iter()
            .filter(|t| {
                pattern
                    .iter()
                    .enumerate()
                    .all(|(i, slot)| slot.as_ref().map(|v| &t[i] == v).unwrap_or(true))
            })
            .collect())
    }

    /// Plans for a derived predicate's clauses under a binding mask,
    /// compiled once per shared cache state (read-mostly `RwLock`, so
    /// concurrent wave-front tasks don't convoy on the common hit path).
    fn plans_for(
        &self,
        pred: PredId,
        clauses: &[crate::clause::Clause],
        pattern: &[Option<Value>],
    ) -> Result<Arc<Vec<(usize, Plan)>>, ObjectLogError> {
        debug_assert!(pattern.len() <= 64, "pattern mask is a u64");
        let mask: u64 = pattern
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_some())
            .fold(0, |m, (i, _)| m | (1 << i));
        if let Some(hit) = self.shared.plan_cache.read().unwrap().get(&(pred, mask)) {
            return Ok(Arc::clone(hit));
        }
        let mut plans = Vec::with_capacity(clauses.len());
        for (i, clause) in clauses.iter().enumerate() {
            let bound_vars: HashSet<Var> = clause
                .head
                .iter()
                .zip(pattern)
                .filter_map(|(term, slot)| match (term, slot) {
                    (Term::Var(v), Some(_)) => Some(*v),
                    _ => None,
                })
                .collect();
            plans.push((i, compile_clause(self.catalog, clause, &bound_vars)?));
        }
        let rc = Arc::new(plans);
        let mut cache = self.shared.plan_cache.write().unwrap();
        Ok(Arc::clone(cache.entry((pred, mask)).or_insert(rc)))
    }

    /// Read a stored relation under the bound `slots` of a literal — the
    /// one way the evaluator reaches a stored relation's tuples. Fully
    /// bound, the access is a membership test answered as `Some(found)`:
    /// no tuple is built and `out` is not touched (never an index probe —
    /// those degrade to scans on unindexed column sets). Otherwise the
    /// visible matches are appended to `out` and `None` is returned; a
    /// [`StateView`] emits each visible tuple once, so no deduplication.
    fn stored_matches<'v>(
        &self,
        rel: RelId,
        epoch: StateEpoch,
        slots: impl ExactSizeIterator<Item = Option<&'v Value>>,
        scratch: &mut Scratch,
        out: &mut Vec<Tuple>,
    ) -> Option<bool> {
        let arity = slots.len();
        let key = bound_key(slots, &mut scratch.cols);
        let cols = &scratch.cols;
        if cols.is_empty() {
            scratch.scans += 1;
        } else {
            scratch.probes += 1;
        }
        let state = self.state(rel, epoch);
        if cols.len() == arity {
            return Some(state.contains(&key));
        }
        if cols.is_empty() {
            out.extend(state.scan().cloned());
        } else if epoch == StateEpoch::Old && state.delta_len() > OLD_INDEX_MIN_DELTA {
            // Only the old state has a pass of probes to amortize the
            // build over; a session's stack gets fresh caches per
            // statement, so its probes always walk the layers.
            if let Some(hits) = self.old_state_index(rel, cols).get(&key as &dyn TupleKey) {
                out.extend_from_slice(hits);
            }
        } else {
            state.probe_into(cols, &key, out);
        }
        None
    }

    /// The shared old-state index for `(rel, cols)`, building it on
    /// first use. Probes happen on the returned `Arc` outside the lock.
    fn old_state_index(&self, rel: RelId, cols: &[usize]) -> Arc<OldIndex> {
        let find = |cache: &OldIndexCache| {
            let (_, hit) = cache.get(&rel)?.iter().find(|(c, _)| c == cols)?;
            Some(Arc::clone(hit))
        };
        if let Some(hit) = find(&self.shared.old_index.read().unwrap()) {
            return hit;
        }
        let mut map = OldIndex::default();
        for t in self.state(rel, StateEpoch::Old).scan() {
            map.entry(t.project(cols)).or_default().push(t.clone());
        }
        // A racing task may have built it first; its (identical) index wins.
        let mut cache = self.shared.old_index.write().unwrap();
        find(&cache).unwrap_or_else(|| {
            let built = Arc::new(map);
            let entry = (cols.to_vec(), Arc::clone(&built));
            cache.entry(rel).or_default().push(entry);
            built
        })
    }
}

/// One run of a plan: bindings, solution callback, the task's scratch.
struct Exec<'r, 'a> {
    ctx: &'r EvalContext<'a>,
    plan: &'r Plan,
    /// The ambient state epoch: `Old` forces every literal old.
    outer_epoch: StateEpoch,
    depth: usize,
    b: Bindings,
    scratch: &'r mut Scratch,
    emit: &'r mut dyn FnMut(&Bindings, &[Term]),
}

impl Exec<'_, '_> {
    fn epoch(&self, literal: StateEpoch) -> StateEpoch {
        match self.outer_epoch {
            StateEpoch::Old => StateEpoch::Old,
            StateEpoch::New => literal,
        }
    }

    /// Run `body` with every `(term, value)` pair unified — an unbound
    /// variable is bound and recorded on the trail, anything else is
    /// tested — then undo the bindings. Pairs that do not unify skip it.
    fn with_unified<'t>(
        &mut self,
        mut pairs: impl Iterator<Item = (&'t Term, &'t Value)>,
        body: impl FnOnce(&mut Self) -> Result<(), ObjectLogError>,
    ) -> Result<(), ObjectLogError> {
        let mark = self.scratch.trail.len();
        let unified = pairs.all(|(t, v)| match t {
            Term::Const(c) => c == v,
            Term::Var(Var(i)) => match &self.b[*i as usize] {
                Some(bound) => bound == v,
                None => {
                    self.b[*i as usize] = Some(v.clone());
                    self.scratch.trail.push(*i as usize);
                    true
                }
            },
        });
        let result = if unified { body(self) } else { Ok(()) };
        for var in self.scratch.trail.drain(mark..) {
            self.b[var] = None;
        }
        result
    }

    /// Continue at step `idx` once for every tuple of `candidates` that
    /// unifies with the literal's `args`.
    fn for_each_unified(
        &mut self,
        idx: usize,
        args: &[Term],
        candidates: &[Tuple],
    ) -> Result<(), ObjectLogError> {
        candidates.iter().try_for_each(|tuple| {
            self.with_unified(args.iter().zip(tuple.values()), |exec| exec.step(idx))
        })
    }

    /// A stored literal as a plan step: probe with the bound arguments,
    /// continue at step `idx` for every match.
    fn stored_step(
        &mut self,
        idx: usize,
        rel: RelId,
        epoch: StateEpoch,
        args: &[Term],
    ) -> Result<(), ObjectLogError> {
        let mut buf = self.scratch.pool.pop().unwrap_or_default();
        let slots = args.iter().map(|t| resolve(t, &self.b));
        let ctx = self.ctx;
        match ctx.stored_matches(rel, epoch, slots, self.scratch, &mut buf) {
            Some(true) => self.step(idx)?,
            Some(false) => {}
            None => self.for_each_unified(idx, args, &buf)?,
        }
        buf.clear();
        self.scratch.pool.push(buf);
        Ok(())
    }

    fn step(&mut self, idx: usize) -> Result<(), ObjectLogError> {
        let (ctx, plan, next) = (self.ctx, self.plan, idx + 1);
        let Some(step) = plan.steps.get(idx) else {
            (self.emit)(&self.b, &plan.head);
            return Ok(());
        };
        match step {
            PlanStep::Stored {
                rel, args, epoch, ..
            } => self.stored_step(next, *rel, self.epoch(*epoch), args),
            PlanStep::Delta {
                pred,
                polarity,
                args,
                ..
            } => {
                let Some(delta) = ctx.deltas.get(pred) else {
                    return Ok(()); // no Δ-set: nothing to seed or to find
                };
                // Runtime boundness can exceed the planner's static
                // `bound_cols` (constants, repeated variables), so derive
                // the probe key from the live bindings.
                let slots = args.iter().map(|t| resolve(t, &self.b));
                let key = bound_key(slots, &mut self.scratch.cols);
                if self.scratch.cols.len() == args.len() {
                    // Fully bound: one membership test against the side.
                    self.scratch.delta_probes += 1;
                    if delta.side(*polarity).contains(&key as &dyn TupleKey) {
                        self.step(next)?;
                    }
                } else if !self.scratch.cols.is_empty() {
                    // Partially bound: probe the Δ-set's lazy arrangement
                    // instead of scanning the side per binding.
                    self.scratch.delta_probes += 1;
                    let mut buf = self.scratch.pool.pop().unwrap_or_default();
                    delta.probe_into(*polarity, &self.scratch.cols, &key, &mut buf);
                    self.for_each_unified(next, args, &buf)?;
                    buf.clear();
                    self.scratch.pool.push(buf);
                } else {
                    self.scratch.delta_scans += 1;
                    delta.try_for_each_seed(*polarity, |tuple| {
                        self.for_each_unified(next, args, std::slice::from_ref(tuple))
                    })?;
                }
                Ok(())
            }
            PlanStep::Call {
                pred, args, epoch, ..
            } => {
                let pattern: Vec<Option<Value>> =
                    args.iter().map(|t| resolve(t, &self.b).cloned()).collect();
                let (epoch, depth) = (self.epoch(*epoch), self.depth + 1);
                let results = ctx.eval_call(*pred, &pattern, epoch, depth, self.scratch)?;
                self.for_each_unified(next, args, &results)
            }
            PlanStep::NegCheck { pred, args, epoch } => {
                let key = KeyRef::new(args.iter().map(|t| {
                    resolve(t, &self.b).expect("negation is scheduled once its arguments are bound")
                }));
                if !ctx.holds_key(*pred, &key, self.epoch(*epoch), self.scratch)? {
                    self.step(next)?;
                }
                Ok(())
            }
            PlanStep::Cmp { op, lhs, rhs } => {
                let (Some(l), Some(r)) = (resolve(lhs, &self.b), resolve(rhs, &self.b)) else {
                    return Err(ObjectLogError::NotSchedulable {
                        literal: format!("{lhs} {op} {rhs}"),
                    });
                };
                // Incomparable runtime types simply fail the test.
                if l.compare(r).map(|ord| op.matches(ord)).unwrap_or(false) {
                    self.step(next)?;
                }
                Ok(())
            }
            PlanStep::Arith {
                op,
                result,
                lhs,
                rhs,
            } => {
                let (Some(l), Some(r)) = (resolve(lhs, &self.b), resolve(rhs, &self.b)) else {
                    return Err(ObjectLogError::NotSchedulable {
                        literal: format!("{result} = {lhs} {op} {rhs}"),
                    });
                };
                let value = op.apply(l, r)?;
                self.with_unified([(result, &value)].into_iter(), |exec| exec.step(next))
            }
            PlanStep::MergeJoin {
                delta_pred,
                polarity,
                delta_args,
                rel,
                stored_args,
                delta_cols,
                rel_cols,
                ..
            } => {
                // Only differential plans carry Δ-literals, and those run
                // in the new epoch; the fusion gate additionally required
                // the stored side to be epoch-`New`.
                debug_assert_eq!(self.outer_epoch, StateEpoch::New);
                let Some(delta) = ctx.deltas.get(delta_pred) else {
                    return Ok(()); // no Δ-set: the join is empty
                };
                ctx.shared.merge_joins.fetch_add(1, Ordering::Relaxed);
                let dside = delta.side(*polarity);
                if dside.is_empty() {
                    return Ok(());
                }
                // Continue with one Δ tuple joined to its stored block.
                // Both are unified against the full argument lists, so
                // constants and repeated variables outside the join key
                // still filter.
                let join = |exec: &mut Self, dtu: &Tuple, block: &[Tuple]| {
                    exec.with_unified(delta_args.iter().zip(dtu.values()), |exec| {
                        exec.for_each_unified(next, stored_args, block)
                    })
                };
                if ctx.state(*rel, StateEpoch::New).delta_len() > 0 {
                    // Layers correct this relation and the stored-side
                    // arrangement bypasses them; probe through the view
                    // per Δ tuple instead. (No plan run under layers is
                    // fused today — fusion needs the planner statistics
                    // only differencing plans get — but a recursive
                    // function's frontier rounds do put a Δ-literal
                    // under a session's layers, so the step stays exact.)
                    return delta.try_for_each_seed(*polarity, |dtu| {
                        self.with_unified(delta_args.iter().zip(dtu.values()), |exec| {
                            exec.stored_step(next, *rel, StateEpoch::New, stored_args)
                        })
                    });
                }
                let sarr = ctx.storage.relation(*rel).arrangement(rel_cols);
                if sarr.is_empty() {
                    return Ok(());
                }
                if dside.len() > LOOKUP_JOIN_FACTOR * sarr.len() {
                    // Asymmetric: the Δ side dwarfs the stored
                    // arrangement, so sorting it would dominate the
                    // join. Binary-search each Δ tuple into the stored
                    // blocks instead — O(|Δ|·log s) beats O(|Δ|·log |Δ|).
                    return delta.try_for_each_seed(*polarity, |dtu| {
                        join(self, dtu, sarr.equal_range_on(dtu, delta_cols))
                    });
                }
                let darr = delta.arrangement(*polarity, delta_cols);
                let (dt, st) = (darr.tuples(), sarr.tuples());
                let (mut i, mut j) = (0, 0);
                while i < dt.len() && j < st.len() {
                    use std::cmp::Ordering as Ord_;
                    match amos_storage::arrangement::cmp_on_cols(
                        &dt[i], delta_cols, &st[j], rel_cols,
                    ) {
                        Ord_::Less => i += 1,
                        Ord_::Greater => j += 1,
                        Ord_::Equal => {
                            let di_end = darr.block_end(i);
                            let sj_end = sarr.block_end(j);
                            for dtu in &dt[i..di_end] {
                                join(self, dtu, &st[j..sj_end])?;
                            }
                            i = di_end;
                            j = sj_end;
                        }
                    }
                }
                Ok(())
            }
            PlanStep::Unify { lhs, rhs } => {
                // Bind the unresolved side to the other's value (a test
                // when both resolve).
                let (term, value) = match (resolve(lhs, &self.b), resolve(rhs, &self.b)) {
                    (Some(l), _) => (rhs, l.clone()),
                    (None, Some(r)) => (lhs, r.clone()),
                    (None, None) => {
                        return Err(ObjectLogError::NotSchedulable {
                            literal: format!("{lhs} = {rhs}"),
                        })
                    }
                };
                self.with_unified([(term, &value)].into_iter(), |exec| exec.step(next))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{ClauseBuilder, Term};
    use amos_storage::Polarity;
    use amos_types::{tuple, ArithOp, CmpOp, TypeId};
    use std::sync::Arc;

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    struct Fixture {
        storage: Storage,
        catalog: Catalog,
        q: PredId,
        r: PredId,
        p: PredId,
    }

    /// p(X,Z) ← q(X,Y) ∧ r(Y,Z): the running example of §4.3.
    fn fixture() -> Fixture {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        storage.insert(rq, tuple![1, 1]).unwrap();
        storage.insert(rr, tuple![1, 2]).unwrap();
        storage.insert(rr, tuple![2, 3]).unwrap();

        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        let p = catalog
            .define_derived(
                "p",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        Fixture {
            storage,
            catalog,
            q,
            r,
            p,
        }
    }

    #[test]
    fn derived_evaluation() {
        let f = fixture();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx.eval_pred(f.p, &[None, None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1, 2]].into_iter().collect());
    }

    #[test]
    fn bound_pattern_filters() {
        let f = fixture();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx
            .eval_pred(f.p, &[Some(Value::Int(1)), None], StateEpoch::New)
            .unwrap();
        assert_eq!(out.len(), 1);
        let none = ctx
            .eval_pred(f.p, &[Some(Value::Int(9)), None], StateEpoch::New)
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn old_state_evaluation_of_derived() {
        let mut f = fixture();
        let rq = f.catalog.def(f.q).stored_rel().unwrap();
        f.storage.monitor(rq);
        f.storage.begin().unwrap();
        // Delete q(1,1): p becomes empty in the new state but p_old still
        // derives (1,2).
        f.storage.delete(rq, &tuple![1, 1]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        assert!(ctx
            .eval_pred(f.p, &[None, None], StateEpoch::New)
            .unwrap()
            .is_empty());
        let old = ctx.eval_pred(f.p, &[None, None], StateEpoch::Old).unwrap();
        assert_eq!(old, [tuple![1, 2]].into_iter().collect());
    }

    #[test]
    fn delta_literal_seeds_differential() {
        let mut f = fixture();
        // Δp/Δ₊q ← Δ₊q(X,Y) ∧ r(Y,Z), emitting (X,Z).
        let diff = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(f.r, [Term::var(1), Term::var(2)])
            .build();
        let dp = f
            .catalog
            .define_derived("dp_dq", sig(2), vec![diff])
            .unwrap();

        let mut deltas = DeltaMap::new();
        let mut d = DeltaSet::new();
        d.apply_insert(tuple![1, 2]); // assert q(1,2)
        deltas.insert(f.q, d);

        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx.eval_pred(dp, &[None, None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1, 3]].into_iter().collect());
    }

    /// The fused merge-join step computes exactly what the unfused
    /// Δ-scan + probe pair computes — including residual constraints
    /// (a repeated variable on the Δ side) that are outside the join
    /// key — and bumps the `merge_joins` counter.
    #[test]
    fn merge_join_matches_unfused_pair() {
        use crate::plan::{compile_clause_with, PlanStats};

        struct BulkStats;
        impl PlanStats for BulkStats {
            fn cardinality(&self, _rel: RelId) -> Option<f64> {
                Some(4.0)
            }
            fn ndv(&self, _rel: RelId, _col: usize) -> Option<f64> {
                Some(4.0)
            }
            fn delta_len(&self, _pred: PredId, _polarity: Polarity) -> Option<f64> {
                Some(100_000.0)
            }
        }

        let mut f = fixture();
        // Δp/Δ₊q ← Δ₊q(X,X) ∧ r(X,Z): repeated variable X on the Δ side.
        let diff = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(0)])
            .pred(f.r, [Term::var(0), Term::var(1)])
            .build();

        let fused = compile_clause_with(&f.catalog, &diff, &HashSet::new(), &BulkStats).unwrap();
        assert!(
            matches!(fused.steps[0], PlanStep::MergeJoin { .. }),
            "{:?}",
            fused.steps
        );
        let unfused = compile_clause(&f.catalog, &diff, &HashSet::new()).unwrap();
        assert!(!unfused
            .steps
            .iter()
            .any(|s| matches!(s, PlanStep::MergeJoin { .. })));

        let mut deltas = DeltaMap::new();
        let mut d = DeltaSet::new();
        d.apply_insert(tuple![1, 1]); // matches X=X, joins r(1,2)
        d.apply_insert(tuple![2, 2]); // matches X=X, joins r(2,3)
        d.apply_insert(tuple![1, 2]); // fails the repeated-variable test
        deltas.insert(f.q, d);
        f.storage.insert(RelId(1), tuple![1, 9]).unwrap(); // second block row

        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let run = |plan: &Plan| -> HashSet<Tuple> {
            let mut out = Vec::new();
            ctx.plan_heads(plan, StateEpoch::New, 0, &mut out).unwrap();
            out.into_iter().collect()
        };
        let fused_out = run(&fused);
        let unfused_out = run(&unfused);
        let expected: HashSet<Tuple> = [tuple![1, 2], tuple![1, 9], tuple![2, 3]]
            .into_iter()
            .collect();
        assert_eq!(fused_out, expected);
        assert_eq!(fused_out, unfused_out);
        assert_eq!(ctx.shared.merge_join_count(), 1, "one zipper execution");
    }

    /// When the Δ side outnumbers the stored arrangement past
    /// `LOOKUP_JOIN_FACTOR`, the merge-join step switches to the
    /// asymmetric lookup path (no Δ sort) — which must produce exactly
    /// the zipper's results.
    #[test]
    fn lookup_join_matches_unfused_pair() {
        use crate::plan::{compile_clause_with, PlanStats};

        struct BulkStats;
        impl PlanStats for BulkStats {
            fn cardinality(&self, _rel: RelId) -> Option<f64> {
                Some(3.0)
            }
            fn ndv(&self, _rel: RelId, _col: usize) -> Option<f64> {
                Some(3.0)
            }
            fn delta_len(&self, _pred: PredId, _polarity: Polarity) -> Option<f64> {
                Some(100_000.0)
            }
        }

        let mut f = fixture();
        // Δp/Δ₊q ← Δ₊q(X,Y) ∧ r(Y,Z), bulk Δ against a 3-row r.
        let diff = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(f.r, [Term::var(1), Term::var(2)])
            .build();
        let fused = compile_clause_with(&f.catalog, &diff, &HashSet::new(), &BulkStats).unwrap();
        assert!(matches!(fused.steps[0], PlanStep::MergeJoin { .. }));
        let unfused = compile_clause(&f.catalog, &diff, &HashSet::new()).unwrap();

        let mut deltas = DeltaMap::new();
        let mut d = DeltaSet::new();
        for i in 0..30i64 {
            d.apply_insert(tuple![i, (i % 3) + 1]); // keys 1, 2, 3
        }
        deltas.insert(f.q, d);
        f.storage.insert(RelId(1), tuple![1, 9]).unwrap();
        // r = {(1,2), (2,3), (1,9)}: arrangement of 3 ≪ Δ of 30, so the
        // lookup path engages (factor 8).

        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let run = |plan: &Plan| -> HashSet<Tuple> {
            let mut out = Vec::new();
            ctx.plan_heads(plan, StateEpoch::New, 0, &mut out).unwrap();
            out.into_iter().collect()
        };
        let fused_out = run(&fused);
        let unfused_out = run(&unfused);
        assert_eq!(fused_out, unfused_out);
        // Key 3 never matches; keys 1 and 2 each match 10 Δ tuples,
        // key 1 twice over (r has two rows under it).
        assert_eq!(fused_out.len(), 30);
        assert_eq!(ctx.shared.merge_join_count(), 1);
    }

    #[test]
    fn missing_delta_is_empty() {
        let mut f = fixture();
        let diff = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(f.r, [Term::var(1), Term::var(2)])
            .build();
        let dp = f.catalog.define_derived("dp", sig(2), vec![diff]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        assert!(ctx
            .eval_pred(dp, &[None, None], StateEpoch::New)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn negation_and_builtins() {
        let mut f = fixture();
        // s(X) ← q(X,Y) ∧ ¬r(Y, Z2) … negation needs all bound; use
        // s(X) ← q(X,Y) ∧ Y2 = Y + 1 ∧ ¬r(Y, Y2) ∧ Y < 10
        let s = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .pred(f.q, [Term::var(0), Term::var(1)])
            .arith(Term::var(2), Term::var(1), ArithOp::Add, Term::val(1))
            .not_pred(f.r, [Term::var(1), Term::var(2)])
            .cmp(Term::var(1), CmpOp::Lt, Term::val(10))
            .build();
        let s = f.catalog.define_derived("s", sig(1), vec![s]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        // q(1,1), r(1,2) exists → ¬r(1,2) fails → empty.
        assert!(ctx
            .eval_pred(s, &[None], StateEpoch::New)
            .unwrap()
            .is_empty());

        // Remove r(1,2) → s(1) holds.
        let rr = f.catalog.def(f.r).stored_rel().unwrap();
        let mut storage = f.storage;
        storage.delete(rr, &tuple![1, 2]).unwrap();
        let ctx = EvalContext::new(&storage, &f.catalog, &deltas);
        assert_eq!(
            ctx.eval_pred(s, &[None], StateEpoch::New).unwrap(),
            [tuple![1]].into_iter().collect()
        );
    }

    #[test]
    fn multi_clause_is_union() {
        let mut f = fixture();
        // u(X) ← q(X,_) ;  u(X) ← r(_,X)
        let c1 = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .pred(f.q, [Term::var(0), Term::var(1)])
            .build();
        let c2 = ClauseBuilder::new(2)
            .head([Term::var(0)])
            .pred(f.r, [Term::var(1), Term::var(0)])
            .build();
        let u = f.catalog.define_derived("u", sig(1), vec![c1, c2]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx.eval_pred(u, &[None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1], tuple![2], tuple![3]].into_iter().collect());
    }

    #[test]
    fn foreign_predicate() {
        let mut f = fixture();
        // double(X, Y): Y = 2*X for bound X.
        let double = f
            .catalog
            .define_foreign(
                "double",
                sig(2),
                Arc::new(|pattern: &[Option<Value>]| match &pattern[0] {
                    Some(Value::Int(x)) => vec![vec![Value::Int(*x), Value::Int(2 * x)]],
                    _ => vec![],
                }),
            )
            .unwrap();
        // t(X, D) ← q(X, Y) ∧ double(Y, D)
        let t = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .pred(f.q, [Term::var(0), Term::var(1)])
            .pred(double, [Term::var(1), Term::var(2)])
            .build();
        let t = f.catalog.define_derived("t", sig(2), vec![t]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx.eval_pred(t, &[None, None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1, 2]].into_iter().collect());
    }

    #[test]
    fn constants_in_head_and_args() {
        let mut f = fixture();
        // only1(Y) ← q(1, Y)
        let c = ClauseBuilder::new(1)
            .head([Term::var(0)])
            .pred(f.q, [Term::val(1), Term::var(0)])
            .build();
        let only1 = f.catalog.define_derived("only1", sig(1), vec![c]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let out = ctx.eval_pred(only1, &[None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1]].into_iter().collect());
    }

    #[test]
    fn repeated_head_vars_enforce_equality() {
        let mut f = fixture();
        // eq(X) ← q(X, X)
        let c = ClauseBuilder::new(1)
            .head([Term::var(0)])
            .pred(f.q, [Term::var(0), Term::var(0)])
            .build();
        let eq = f.catalog.define_derived("eq", sig(1), vec![c]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        // q(1,1) matches; nothing else.
        let out = ctx.eval_pred(eq, &[None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1]].into_iter().collect());
    }

    /// The parallel wave-front shares read-only contexts across threads;
    /// regressing this bound breaks `amos-core`'s parallel propagation.
    #[test]
    fn context_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext<'static>>();
    }

    /// Wrap `p` so evaluating the wrapper issues a `PlanStep::Call` on a
    /// derived predicate — the memoized path.
    fn wrap(f: &mut Fixture) -> PredId {
        let c = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .pred(f.p, [Term::var(0), Term::var(1)])
            .build();
        f.catalog.define_derived("w", sig(2), vec![c]).unwrap()
    }

    #[test]
    fn tabling_memoizes_repeated_derived_calls() {
        let mut f = fixture();
        let w = wrap(&mut f);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let expected: HashSet<Tuple> = [tuple![1, 2]].into_iter().collect();

        assert_eq!(
            ctx.eval_pred(w, &[None, None], StateEpoch::New).unwrap(),
            expected
        );
        assert_eq!(ctx.shared().tabling_hits(), 0);
        assert_eq!(ctx.shared().tabling_misses(), 1);

        // Same call pattern again: served from the memo table.
        assert_eq!(
            ctx.eval_pred(w, &[None, None], StateEpoch::New).unwrap(),
            expected
        );
        assert_eq!(ctx.shared().tabling_hits(), 1);
        assert_eq!(ctx.shared().tabling_misses(), 1);

        // A different binding pattern is a different memo key.
        ctx.eval_pred(w, &[Some(Value::Int(1)), None], StateEpoch::New)
            .unwrap();
        assert_eq!(ctx.shared().tabling_misses(), 2);
    }

    #[test]
    fn tabling_disabled_keeps_counters_zero() {
        let mut f = fixture();
        let w = wrap(&mut f);
        let deltas = DeltaMap::new();
        let shared = Arc::new(EvalShared::untabled());
        let ctx = EvalContext::with_shared(&f.storage, &f.catalog, &deltas, shared);
        let expected: HashSet<Tuple> = [tuple![1, 2]].into_iter().collect();
        for _ in 0..2 {
            assert_eq!(
                ctx.eval_pred(w, &[None, None], StateEpoch::New).unwrap(),
                expected
            );
        }
        assert_eq!(ctx.shared().tabling_hits(), 0);
        assert_eq!(ctx.shared().tabling_misses(), 0);
    }

    #[test]
    fn reset_pass_clears_memo_between_passes() {
        let mut f = fixture();
        let w = wrap(&mut f);
        let deltas = DeltaMap::new();
        let shared = Arc::new(EvalShared::default());
        {
            let ctx =
                EvalContext::with_shared(&f.storage, &f.catalog, &deltas, Arc::clone(&shared));
            let out = ctx.eval_pred(w, &[None, None], StateEpoch::New).unwrap();
            assert_eq!(out.len(), 1);
        }
        // Storage changes between passes; the memo entry is now stale.
        let rq = f.catalog.def(f.q).stored_rel().unwrap();
        f.storage.insert(rq, tuple![5, 2]).unwrap();
        shared.reset_pass();
        let ctx = EvalContext::with_shared(&f.storage, &f.catalog, &deltas, Arc::clone(&shared));
        let out = ctx.eval_pred(w, &[None, None], StateEpoch::New).unwrap();
        assert_eq!(out, [tuple![1, 2], tuple![5, 3]].into_iter().collect());
        // It recomputed (a miss), rather than serving the stale entry.
        assert_eq!(shared.tabling_hits(), 0);
        assert_eq!(shared.tabling_misses(), 2);
    }

    /// Regression: a big-transaction old-state index built in one
    /// transaction's check phase must not leak into the next
    /// transaction, where the logical old state is different.
    #[test]
    fn reset_pass_evicts_stale_old_state_index() {
        let mut storage = Storage::new();
        let rs = storage.create_relation("s", 2).unwrap();
        let mut catalog = Catalog::new();
        let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
        for i in 0..40 {
            storage.insert(rs, tuple![i, 0]).unwrap();
        }
        storage.monitor(rs);

        // Transaction 1: delete everything (|Δ| = 40 > 32 forces the
        // hash-indexed old-state path for partially-bound probes).
        storage.begin().unwrap();
        for i in 0..40 {
            storage.delete(rs, &tuple![i, 0]).unwrap();
        }
        let deltas = DeltaMap::new();
        let shared = Arc::new(EvalShared::default());
        {
            let ctx = EvalContext::with_shared(&storage, &catalog, &deltas, Arc::clone(&shared));
            let old = ctx
                .eval_pred(s, &[None, Some(Value::Int(0))], StateEpoch::Old)
                .unwrap();
            assert_eq!(old.len(), 40);
        }
        storage.commit().unwrap();

        // Transaction 2: the old state is now empty. Without the pass
        // reset the cached index would still answer with 40 tuples.
        storage.begin().unwrap();
        storage.insert(rs, tuple![99, 0]).unwrap();
        for i in 0..40 {
            storage.insert(rs, tuple![100 + i, 1]).unwrap();
        }
        shared.reset_pass();
        let ctx = EvalContext::with_shared(&storage, &catalog, &deltas, Arc::clone(&shared));
        let old = ctx
            .eval_pred(s, &[None, Some(Value::Int(0))], StateEpoch::Old)
            .unwrap();
        assert!(old.is_empty(), "stale old-state index leaked across passes");
    }

    /// Arity is not a special case of the probe path: a 0-ary literal is a
    /// membership test with the empty key, and a literal wider than a
    /// [`KeyRef`]'s inline capacity spills its key and is otherwise probed,
    /// tested and rolled back like any other.
    #[test]
    fn nullary_and_wide_literals_take_the_probe_path() {
        let mut storage = Storage::new();
        let rsrc = storage.create_relation("src", 9).unwrap();
        let rflag = storage.create_relation("flag", 0).unwrap();
        let rwide = storage.create_relation("wide", 10).unwrap();
        let mut catalog = Catalog::new();
        let src = catalog.define_stored("src", sig(9), rsrc, 9).unwrap();
        let flag = catalog.define_stored("flag", sig(0), rflag, 0).unwrap();
        let wide = catalog.define_stored("wide", sig(10), rwide, 9).unwrap();
        // last(Z) ← src(A,…,I) ∧ flag() ∧ wide(A,…,I,Z)
        let nine = || (0..9).map(Term::var);
        let clause = ClauseBuilder::new(10)
            .head([Term::var(9)])
            .pred(src, nine())
            .pred(flag, [])
            .pred(wide, nine().chain([Term::var(9)]))
            .build();
        let last = catalog
            .define_derived("last", sig(1), vec![clause])
            .unwrap();

        let key = |x: i64| [x, x + 10, 1, 2, 3, 4, 5, 6, 7].map(Value::Int);
        let row = |x: i64, z: i64| -> Tuple { key(x).into_iter().chain([Value::Int(z)]).collect() };
        for x in 0..4 {
            storage.insert(rsrc, key(x).into_iter().collect()).unwrap();
        }
        storage.insert(rwide, row(0, 8)).unwrap();
        storage.insert(rwide, row(1, 8)).unwrap();
        storage.insert(rwide, row(1, 9)).unwrap();
        storage.insert(rwide, row(7, 8)).unwrap(); // no src row
        storage.ensure_index(rwide, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        storage.ensure_index(rwide, &[9]);
        storage.monitor(rflag);
        storage.monitor(rwide);

        let deltas = DeltaMap::new();
        // Evaluate `pred`; also the stored accesses (probes, scans) made.
        let eval = |storage: &Storage, pred, pattern: &[Option<Value>], epoch| {
            let ctx = EvalContext::new(storage, &catalog, &deltas);
            let out = ctx.eval_pred(pred, pattern, epoch).unwrap();
            let mut out: Vec<Tuple> = out.into_iter().collect();
            out.sort();
            (out, ctx.shared().probe_count(), ctx.shared().scan_count())
        };
        let (new, old) = (StateEpoch::New, StateEpoch::Old);

        // flag is empty: the 0-ary test is scheduled first (nothing to
        // bind) and fails; src and wide are never reached. (An access
        // with no bound column counts as a scan.)
        assert_eq!(eval(&storage, last, &[None], new), (vec![], 0, 1));

        storage.begin().unwrap();
        storage.insert(rflag, Tuple::unit()).unwrap();
        storage.delete(rwide, &row(0, 8)).unwrap();
        storage.insert(rwide, row(3, 8)).unwrap();

        // Free Z: flag, a scan of src, then wide probed by a nine-value key.
        assert_eq!(
            eval(&storage, last, &[None], new),
            (vec![tuple![8], tuple![9]], 4, 2)
        );
        // Bound Z: wide is probed on its last column (three rows with 8),
        // and each hit tests src with a nine-value key — all columns
        // bound, so a membership test that builds no tuple.
        assert_eq!(
            eval(&storage, last, &[Some(Value::Int(8))], new),
            (vec![tuple![8]], 1 + 3, 1)
        );
        // Rolled back, the flag is gone again …
        assert_eq!(eval(&storage, last, &[None], old), (vec![], 0, 1));
        // … and the stored predicates themselves answer by the same path
        // in both states: ten bound columns, nine, none of none.
        let full = |x, z| {
            row(x, z)
                .values()
                .iter()
                .cloned()
                .map(Some)
                .collect::<Vec<_>>()
        };
        let open = |x| {
            key(x)
                .into_iter()
                .map(Some)
                .chain([None])
                .collect::<Vec<_>>()
        };
        assert_eq!(eval(&storage, wide, &full(0, 8), new).0, vec![]);
        assert_eq!(eval(&storage, wide, &full(0, 8), old).0, vec![row(0, 8)]);
        assert_eq!(
            eval(&storage, wide, &open(1), old).0,
            vec![row(1, 8), row(1, 9)]
        );
        assert_eq!(eval(&storage, wide, &open(3), new).0, vec![row(3, 8)]);
        assert_eq!(eval(&storage, wide, &open(3), old).0, vec![]);
        assert_eq!(eval(&storage, flag, &[], new).0, vec![Tuple::unit()]);
        assert_eq!(eval(&storage, flag, &[], old).0, vec![]);
        assert_eq!(
            storage.fallback_scans_total(),
            0,
            "every probe hit an index"
        );
    }

    #[test]
    fn holds_shortcuts_stored_lookup() {
        let f = fixture();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        assert!(ctx.holds(f.q, &tuple![1, 1], StateEpoch::New).unwrap());
        assert!(!ctx.holds(f.q, &tuple![1, 7], StateEpoch::New).unwrap());
    }
}

#[cfg(test)]
mod recursion_tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::clause::{ClauseBuilder, Term};
    use amos_types::{tuple, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    /// reach(X,Y) ← edge(X,Y) ; reach(X,Y) ← reach(X,Z) ∧ edge(Z,Y)
    fn reach_world(edges: &[(i64, i64)]) -> (Storage, Catalog, PredId) {
        let mut storage = Storage::new();
        let re = storage.create_relation("edge", 2).unwrap();
        let mut catalog = Catalog::new();
        let edge = catalog.define_stored("edge", sig(2), re, 1).unwrap();
        let reach = catalog.define_derived("reach", sig(2), vec![]).unwrap();
        catalog
            .replace_clauses(
                reach,
                vec![
                    ClauseBuilder::new(2)
                        .head([Term::var(0), Term::var(1)])
                        .pred(edge, [Term::var(0), Term::var(1)])
                        .build(),
                    ClauseBuilder::new(3)
                        .head([Term::var(0), Term::var(2)])
                        .pred(reach, [Term::var(0), Term::var(1)])
                        .pred(edge, [Term::var(1), Term::var(2)])
                        .build(),
                ],
            )
            .unwrap();
        for &(a, b) in edges {
            storage.insert(re, tuple![a, b]).unwrap();
        }
        (storage, catalog, reach)
    }

    #[test]
    fn transitive_closure_fixpoint() {
        let (storage, catalog, reach) = reach_world(&[(1, 2), (2, 3), (3, 4), (10, 11)]);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        let out = ctx
            .eval_pred(reach, &[None, None], StateEpoch::New)
            .unwrap();
        let expected: HashSet<Tuple> = [
            tuple![1, 2],
            tuple![1, 3],
            tuple![1, 4],
            tuple![2, 3],
            tuple![2, 4],
            tuple![3, 4],
            tuple![10, 11],
        ]
        .into_iter()
        .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn cyclic_graph_terminates() {
        let (storage, catalog, reach) = reach_world(&[(1, 2), (2, 3), (3, 1)]);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        let out = ctx
            .eval_pred(reach, &[None, None], StateEpoch::New)
            .unwrap();
        // Every pair in the 3-cycle reaches every node (incl. itself).
        assert_eq!(out.len(), 9);
        assert!(out.contains(&tuple![1, 1]));
    }

    #[test]
    fn bound_pattern_filters_fixpoint() {
        let (storage, catalog, reach) = reach_world(&[(1, 2), (2, 3), (5, 6)]);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        let from1 = ctx
            .eval_pred(reach, &[Some(Value::Int(1)), None], StateEpoch::New)
            .unwrap();
        assert_eq!(from1, [tuple![1, 2], tuple![1, 3]].into_iter().collect());
        assert!(ctx.holds(reach, &tuple![1, 3], StateEpoch::New).unwrap());
    }

    #[test]
    fn old_state_fixpoint_via_rollback() {
        let (mut storage, catalog, reach) = reach_world(&[(1, 2)]);
        let re = catalog
            .def(catalog.lookup("edge").unwrap())
            .stored_rel()
            .unwrap();
        storage.monitor(re);
        storage.begin().unwrap();
        storage.insert(re, tuple![2, 3]).unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        let new = ctx
            .eval_pred(reach, &[None, None], StateEpoch::New)
            .unwrap();
        assert!(new.contains(&tuple![1, 3]));
        let old = ctx
            .eval_pred(reach, &[None, None], StateEpoch::Old)
            .unwrap();
        assert_eq!(old, [tuple![1, 2]].into_iter().collect());
    }

    #[test]
    fn empty_graph_empty_fixpoint() {
        let (storage, catalog, reach) = reach_world(&[]);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&storage, &catalog, &deltas);
        assert!(ctx
            .eval_pred(reach, &[None, None], StateEpoch::New)
            .unwrap()
            .is_empty());
    }
}

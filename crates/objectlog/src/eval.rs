//! The goal-directed evaluation engine.
//!
//! Evaluates any predicate under a *binding pattern* (some argument
//! positions bound to values) against the database — in the **new** state
//! or, via logical rollback of every stored leaf, in the **old** state.
//! Derived predicates evaluate their clauses through compiled plans,
//! resolved through the shared [`Planner`] under live statistics — the
//! same cache the rule layer resolves partial differentials through.
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
use crate::clause::{Clause, Term, Var};
use crate::error::ObjectLogError;
use crate::plan::{Plan, PlanStep};
use crate::planner::{LiveStats, PlanKey, Planner};

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
/// * **planner** — the one plan cache: every differential's plan, and
///   every derived clause's plan per binding pattern, each kept until its
///   statistics fingerprint drifts (see [`Planner`]). Valid as long as
///   the catalog's clauses and the network's differential ids are; the
///   rule layer replaces the whole `EvalShared` when the network is
///   rebuilt.
/// * **memo table** — derived-call results per (predicate, binding
///   pattern, epoch); see [`EvalContext::eval_call`]. Valid for one
///   pass: storage is frozen while a pass runs.
///
/// Old-state reads need no cache here: a probe reads each Δ-layer
/// through the arrangement its Δ-set caches until its next mutation (see
/// [`StateView::probe_into`]).
///
/// [`EvalShared::reset_pass`] clears the per-pass state (the memo) and
/// must be called at every pass boundary when the value is reused across
/// passes.
#[derive(Debug)]
pub struct EvalShared {
    /// Memoize derived-predicate call results for the lifetime of the
    /// per-pass state — the paper's cross-differential sharing, realized
    /// at the evaluator level. Off only in [`EvalShared::untabled`].
    tabling: bool,
    planner: Planner,
    memo: RwLock<MemoTable>,
    hits: AtomicU64,
    misses: AtomicU64,
    probes: AtomicU64,
    scans: AtomicU64,
    delta_probes: AtomicU64,
    delta_scans: AtomicU64,
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
            planner: Planner::default(),
            memo: RwLock::new(MemoTable::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            delta_probes: AtomicU64::new(0),
            delta_scans: AtomicU64::new(0),
        }
    }

    /// Invalidate what is only valid within one propagation pass: the
    /// derived-call memo table (storage mutates between passes). The
    /// planner survives — a plan stays while its statistics hold, and
    /// the rule layer swaps the whole `EvalShared` when rules or the
    /// network change.
    pub fn reset_pass(&self) {
        self.memo.write().unwrap().clear();
    }

    /// The plan cache every context over this state resolves through.
    pub fn planner(&self) -> &Planner {
        &self.planner
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
}

/// The layer stacks of a context that reads the database as it stands.
fn no_layers() -> &'static LayerStacks<'static> {
    static EMPTY: OnceLock<LayerStacks<'static>> = OnceLock::new();
    EMPTY.get_or_init(LayerStacks::default)
}

/// The Δ-environment outside propagation.
pub(crate) fn no_deltas() -> &'static DeltaMap {
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
/// entry) — a fully bound literal is a membership test and builds none.
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
    /// every differential's context so plan compilations and
    /// derived-call results are computed once per pass instead of once
    /// per differential.
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
    /// already cheap. Correctness
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
            PredKind::Derived(clauses) if self.catalog.is_self_recursive(pred) => {
                self.eval_recursive(pred, clauses, pattern, epoch, depth, scratch)
            }
            PredKind::Derived(clauses) => {
                let mut out = HashSet::new();
                for (i, clause) in clauses.iter().enumerate() {
                    let plan = self.clause_plan(pred, i, clause, pattern, self.deltas)?;
                    // Bind head terms from the pattern; a head the pattern
                    // contradicts contributes nothing.
                    let head = clause.head.iter().zip(pattern);
                    let given = head.filter_map(|(term, slot)| Some((term, slot.as_ref()?)));
                    self.heads_into(&plan, epoch, depth, given, scratch, &mut out)?;
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
    /// previous round), exactly the semi-naive restriction, and each
    /// round's plans are resolved under that frontier's size. Iteration
    /// stops when a round derives nothing new.
    ///
    /// Bound patterns are answered by computing the full fixpoint and
    /// filtering (goal-directed magic-sets rewriting is out of scope).
    fn eval_recursive(
        &self,
        pred: PredId,
        clauses: &[Clause],
        pattern: &[Option<Value>],
        epoch: StateEpoch,
        depth: usize,
        scratch: &mut Scratch,
    ) -> Result<HashSet<Tuple>, ObjectLogError> {
        use crate::clause::Literal;
        let references_self = |c: &Clause| c.body.iter().any(|l| l.pred() == Some(pred));

        // Seed: base clauses, evaluated through the ordinary machinery
        // on a catalog view where only the base clauses exist — achieved
        // by running each base clause's plan directly.
        let mut total: HashSet<Tuple> = HashSet::new();
        for (i, clause) in clauses.iter().enumerate() {
            if !references_self(clause) {
                let plan = self.clause_plan(pred, i, clause, &[], no_deltas())?;
                self.heads_into(&plan, epoch, depth + 1, [], scratch, &mut total)?;
            }
        }

        // Rewrite recursive clauses: self-literal → Δ₊-literal on self.
        let mut rewritten: Vec<(usize, Clause)> = Vec::new();
        for (i, clause) in clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| references_self(c))
        {
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
            let clause = Clause {
                n_vars: clause.n_vars,
                head: clause.head.clone(),
                body,
            };
            rewritten.push((i, clause));
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
            for (i, clause) in &rewritten {
                let plan = self.clause_plan(pred, *i, clause, &[], &fmap)?;
                sub.plan_heads(&plan, epoch, depth + 1, &mut next)?;
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

    /// The plan of clause `idx` of derived `pred` for a caller binding
    /// `pattern`'s `Some` slots (an empty pattern binds none), resolved
    /// through the shared planner under the stored relations' statistics
    /// and the Δ-sets of `deltas`.
    fn clause_plan(
        &self,
        pred: PredId,
        idx: usize,
        clause: &Clause,
        pattern: &[Option<Value>],
        deltas: &DeltaMap,
    ) -> Result<Arc<Plan>, ObjectLogError> {
        let stats = LiveStats::new(self.storage, deltas);
        let key = PlanKey::Clause(pred, idx);
        (self.shared.planner).resolve(key, self.catalog, clause, pattern, &stats)
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
        } else {
            state.probe_into(cols, &key, out);
        }
        None
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
    use crate::clause::{Clause, ClauseBuilder, Term};
    use amos_storage::{Polarity, TxnVersion};
    use amos_types::{tuple, ArithOp, CmpOp, TypeId};
    use std::collections::BTreeSet;
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

    /// Compiles `clause` under bulk statistics (|Δ| = 100 000 against a
    /// three-row `r`) and under few-changes statistics (|Δ| = 1, the
    /// paper's assumption, which seeds the join with the Δ-set), and
    /// checks that the two plans differ in shape yet both return exactly
    /// `heads` for `delta`. `r` = {(1,2), (2,3), (1,9)}.
    fn assert_bulk_plan_matches_seeded(
        mut f: Fixture,
        clause: &Clause,
        delta: Vec<Tuple>,
        heads: Vec<Tuple>,
    ) {
        use crate::plan::{compile_clause, PlanStats};

        /// A three-row `r` (three values per column) and a Δ side of
        /// `.0` tuples.
        struct Stats(f64);
        impl PlanStats for Stats {
            fn cardinality(&self, _rel: RelId) -> f64 {
                3.0
            }
            fn ndv(&self, _rel: RelId, _col: usize) -> f64 {
                3.0
            }
            fn delta_len(&self, _pred: PredId, _polarity: Polarity) -> f64 {
                self.0
            }
        }

        f.storage.insert(RelId(1), tuple![1, 9]).unwrap();

        let compile = |delta| compile_clause(&f.catalog, clause, &HashSet::new(), &Stats(delta));
        let (bulk, seeded) = (compile(100_000.0).unwrap(), compile(1.0).unwrap());
        assert_ne!(bulk.steps, seeded.steps, "the statistics reorder the pair");

        let mut deltas = DeltaMap::new();
        let mut d = DeltaSet::new();
        delta.into_iter().for_each(|t| d.apply_insert(t));
        deltas.insert(f.q, d);
        let ctx = EvalContext::new(&f.storage, &f.catalog, &deltas);
        let run = |plan: &Plan| -> HashSet<Tuple> {
            let mut out = Vec::new();
            ctx.plan_heads(plan, StateEpoch::New, 0, &mut out).unwrap();
            out.into_iter().collect()
        };
        let expected: HashSet<Tuple> = heads.into_iter().collect();
        assert_eq!(run(&bulk), expected, "{}", bulk.render(&f.catalog));
        assert_eq!(run(&seeded), expected, "{}", seeded.render(&f.catalog));
    }

    /// Δp/Δ₊q ← Δ₊q(X,X) ∧ r(X,Z): the plan bulk statistics pick (scan
    /// `r`, probe the Δ-set) and the Δ-seeded scan + probe pair agree,
    /// including the repeated variable `X` on the Δ side, which only a
    /// residual test filters.
    #[test]
    fn merge_join_matches_unfused_pair() {
        let f = fixture();
        let clause = ClauseBuilder::new(2)
            .head([Term::var(0), Term::var(1)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(0)])
            .pred(f.r, [Term::var(0), Term::var(1)])
            .build();
        // (1,2) fails the repeated-variable test; (1,1) joins two r rows.
        assert_bulk_plan_matches_seeded(
            f,
            &clause,
            vec![tuple![1, 1], tuple![2, 2], tuple![1, 2]],
            vec![tuple![1, 2], tuple![1, 9], tuple![2, 3]],
        );
    }

    /// Δp/Δ₊q ← Δ₊q(X,Y) ∧ r(Y,Z) with a 30-tuple Δ against the
    /// three-row `r`: the bulk-statistics plan and the Δ-seeded scan +
    /// probe pair agree.
    #[test]
    fn lookup_join_matches_unfused_pair() {
        let f = fixture();
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0), Term::var(2)])
            .delta(f.q, Polarity::Plus, [Term::var(0), Term::var(1)])
            .pred(f.r, [Term::var(1), Term::var(2)])
            .build();
        // Keys 1, 2, 3: key 3 never matches, key 1 matches twice over.
        let delta = (0..30i64).map(|i| tuple![i, (i % 3) + 1]).collect();
        let heads = (0..30i64)
            .flat_map(|i| match i % 3 {
                0 => vec![tuple![i, 2], tuple![i, 9]],
                1 => vec![tuple![i, 3]],
                _ => vec![],
            })
            .collect();
        assert_bulk_plan_matches_seeded(f, &clause, delta, heads);
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

    /// An old-state read answers for the transaction open now, whatever
    /// an earlier pass read: both sides of each Δ-set hold 20 tuples, so
    /// every layer is probed through its arrangement, and the arrangement
    /// lives with the Δ-set rather than with the evaluator. A session
    /// pinned before both transactions reads the same answer through a
    /// two-layer stack, the lower layer filtered by the upper one.
    #[test]
    fn old_state_reads_follow_the_open_transaction() {
        let mut storage = Storage::new();
        let rs = storage.create_relation("s", 2).unwrap();
        let mut catalog = Catalog::new();
        let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
        for i in 0..40 {
            storage.insert(rs, tuple![i, 0]).unwrap();
        }
        storage.monitor(rs);
        let (deltas, shared) = (DeltaMap::new(), Arc::new(EvalShared::default()));
        let probe = |ctx: &EvalContext<'_>, epoch| {
            let hits = ctx
                .eval_pred(s, &[None, Some(Value::Int(0))], epoch)
                .unwrap();
            hits.iter()
                .map(|t| t[0].as_int().unwrap())
                .collect::<BTreeSet<_>>()
        };
        // One transaction: swap the 20 keys from `gone` for 20 fresh ones
        // from `fresh`, read the old state, commit, and keep the Δ-set as
        // the version a pinned session undoes.
        let mut txn = |gone: i64, fresh: i64, old: BTreeSet<i64>| {
            storage.begin().unwrap();
            for i in 0..20 {
                storage.delete(rs, &tuple![gone + i, 0]).unwrap();
                storage.insert(rs, tuple![fresh + i, 0]).unwrap();
            }
            shared.reset_pass();
            let ctx = EvalContext::with_shared(&storage, &catalog, &deltas, Arc::clone(&shared));
            assert_eq!(probe(&ctx, StateEpoch::Old), old);
            let delta = storage.delta(rs).unwrap();
            assert_eq!((delta.plus().len(), delta.minus().len()), (20, 20));
            assert_eq!(delta.index_count(), 1, "the old state read Δ₋ arranged");
            let delta = delta.clone();
            storage.commit().unwrap();
            delta
        };
        let v1 = txn(0, 100, (0..40).collect());
        let v2 = txn(100, 200, (20..40).chain(100..120).collect());

        let versions = [(1, v1), (2, v2)].map(|(seq, d)| TxnVersion {
            seq,
            writes: vec![(rs, d)],
        });
        let stacks = LayerStacks::snapshot(&versions, None::<(&RelId, &DeltaSet)>);
        assert_eq!(stacks.of(rs).len(), 2);
        let ctx = EvalContext::with_layers(&storage, &catalog, &stacks);
        assert_eq!(probe(&ctx, StateEpoch::New), (0..40).collect());
        for v in &versions {
            assert_eq!(v.writes[0].1.index_count(), 1, "version {}", v.seq);
        }
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

    /// The plan cache keys a binding pattern exactly at any arity: a
    /// 65-ary predicate called with column 0 bound and then with column
    /// 64 bound gets a plan for each. `wide(X0, 1, …, 63, X64) ← X65 =
    /// X0 + 1 ∧ q(X0, X64)`: bound `X0` runs the arithmetic first, which
    /// a plan reused for bound `X64` could not execute.
    #[test]
    fn wide_binding_patterns_get_their_own_plans() {
        let f = fixture();
        let v = Term::var;
        let head = (0..65).map(v);
        let mut body = ClauseBuilder::new(66).head(head);
        body = body.arith(v(65), v(0), ArithOp::Add, Term::val(1));
        body = body.pred(f.q, [v(0), v(64)]);
        for i in 1..64 {
            body = body.unify(v(i), Term::val(i as i64));
        }
        let mut catalog = f.catalog.clone();
        let wide = catalog.define_derived("wide", sig(65), vec![body.build()]);
        let wide = wide.unwrap();
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &catalog, &deltas);
        let all = ctx
            .eval_pred(wide, &vec![None; 65], StateEpoch::New)
            .unwrap();
        assert_eq!(all.len(), 1, "q holds one tuple");
        for col in [0, 64] {
            let mut pattern = vec![None; 65];
            pattern[col] = Some(Value::Int(1));
            let got = ctx.eval_pred(wide, &pattern, StateEpoch::New).unwrap();
            let filtered = all.iter().filter(|t| t[col] == Value::Int(1));
            assert_eq!(got, filtered.cloned().collect(), "column {col} bound");
        }
        assert_eq!(ctx.shared().planner().cached_plans(), 3);
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

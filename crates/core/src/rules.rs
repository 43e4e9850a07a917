//! CA rules and the deferred check phase (§3).
//!
//! A rule is a pair `<Condition, Action>`: the condition is a derived
//! predicate (generated by the rule compiler as `cnd_<rule>`), the action
//! a callback over the triggering instances (generated as `act_<rule>`;
//! here, any Rust closure — the engine layer wraps compiled AMOSQL
//! procedure bodies into these).
//!
//! Semantics implemented exactly as §3.1 describes:
//!
//! * **Net changes**: "If an event of the database changes the truth
//!   value for some instance of the condition to true, the rule is
//!   marked as triggered for that instance. If something happens later in
//!   the transaction which causes the condition to become false again,
//!   the rule is no longer triggered." — the per-rule triggered set is
//!   maintained with `∪Δ` across propagation passes.
//! * **Deferred execution**: nothing runs until [`RuleManager::check_phase`]
//!   (invoked by the engine at commit). Change propagation happens only
//!   when monitored influents actually changed.
//! * **Conflict resolution**: one rule is chosen per pass (highest
//!   priority, then definition order); its action runs **set-oriented**
//!   over all triggered instances; updates made by actions feed the next
//!   pass, to fixpoint (bounded by an iteration limit).
//! * **Strict vs nervous** (§3.2, §7.2): strict rules fire only on
//!   instances whose condition was false at the start of the pass;
//!   nervous rules may over-fire but never under-fire.
//! * **Per-parameter activation**: `activate monitor_item(:item1)` — an
//!   activation binds the leading parameter columns of the condition;
//!   instances not covered by any activation are ignored.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::eval::{DeltaMap, EvalContext, EvalShared};
use amos_objectlog::planner::Planner;
use amos_storage::{DeltaSet, RelId, StateEpoch, Storage};
use amos_types::Tuple;

use crate::error::CoreError;
use crate::explain::{CheckTrace, PassTrace, TriggerExplanation};
use crate::maintained::UserView;
use crate::naive::NaiveMonitor;
use crate::network::PropagationNetwork;
use crate::propagate::{propagate_adaptive, CheckLevel, ExecStrategy};

/// Fixpoint iteration limit for rule cascades: a check phase that still
/// has a rule to fire after this many passes reports
/// [`CoreError::NonTerminatingRules`].
const MAX_ITERATIONS: usize = 100;

/// Strictness (§3.2) on one propagated insertion of condition `cond`:
/// admitted when the instance was false in the old state and is true in
/// the new — an exact false→true transition. The old state is asked
/// first, and `holds` counts every state asked. Propagation is nervous
/// (it may re-derive an instance that already held), so a strict rule
/// filters its condition's insertions with this, once, at the condition.
pub fn strict_admits(
    ctx: &EvalContext<'_>,
    cond: PredId,
    tuple: &Tuple,
    holds: &mut u64,
) -> Result<bool, CoreError> {
    *holds += 1;
    if ctx.holds(cond, tuple, StateEpoch::Old)? {
        return Ok(false);
    }
    *holds += 1;
    Ok(ctx.holds(cond, tuple, StateEpoch::New)?)
}

/// Identifier of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

/// Strict or nervous execution semantics (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RuleSemantics {
    /// Fire only on false→true transitions of condition instances.
    #[default]
    Strict,
    /// May also fire when an update re-derives an already-true instance.
    Nervous,
}

/// Which condition-monitoring implementation the check phase uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorMode {
    /// Partial differencing with breadth-first bottom-up propagation —
    /// the paper's contribution.
    #[default]
    Incremental,
    /// Full recomputation + diff against a materialization of the
    /// condition in the old state, derived by the first pass that needs
    /// it — the §6 baseline.
    Naive,
}

/// Context handed to rule actions.
pub struct ActionCtx<'a> {
    /// Mutable database access — actions perform updates.
    pub storage: &'a mut Storage,
    /// The catalog (read-only; actions cannot change the schema).
    pub catalog: &'a Catalog,
    /// Name of the executing rule.
    pub rule: &'a str,
    /// The instance the action runs for, the rule's condition, and the
    /// pass that triggered the instance.
    instance: &'a Tuple,
    condition: PredId,
    pass: Option<&'a PassTrace>,
}

impl ActionCtx<'_> {
    /// Why this instance triggered (the §8 explainability hook): the
    /// influents whose differentials produced it in the pass that
    /// triggered it, built when asked. `None` when that pass ran no
    /// propagation (naive monitoring).
    pub fn explanation(&self) -> Option<TriggerExplanation> {
        self.pass?.explain(self.condition, self.instance)
    }
}

/// A rule action: called once per triggered instance, set-oriented
/// (all instances of one rule in one pass, in sorted order).
pub type ActionFn = Arc<dyn Fn(&mut ActionCtx<'_>, &Tuple) -> Result<(), String> + Send + Sync>;

/// A CA rule.
pub struct Rule {
    /// Identifier.
    pub id: RuleId,
    /// Rule name.
    pub name: String,
    /// The condition predicate (`cnd_<name>`).
    pub condition: PredId,
    /// Leading condition columns that are rule parameters.
    pub n_params: usize,
    /// The action.
    pub action: ActionFn,
    /// Conflict-resolution priority (higher wins).
    pub priority: i32,
    /// Strict or nervous.
    pub semantics: RuleSemantics,
    /// Active parameter bindings (unit tuple for parameterless rules).
    pub activations: HashSet<Tuple>,
    /// ECA event restriction: when set, the condition is only tested in
    /// passes where one of these relations changed (§1: "the event part
    /// just further restricts when the condition is tested").
    pub events: Option<HashSet<amos_storage::RelId>>,
    /// Net-triggered instances awaiting action execution, each with the
    /// index of the pass (in the check phase's trace) that triggered it.
    triggered: HashMap<Tuple, usize>,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("condition", &self.condition)
            .field("priority", &self.priority)
            .field("semantics", &self.semantics)
            .field("activations", &self.activations.len())
            .finish()
    }
}

impl Rule {
    /// Whether the rule has at least one activation.
    pub fn is_active(&self) -> bool {
        !self.activations.is_empty()
    }

    /// Whether an instance tuple is covered by some activation.
    fn covered(&self, instance: &Tuple) -> bool {
        if self.n_params == 0 {
            return !self.activations.is_empty();
        }
        let params: Tuple = instance.values()[..self.n_params].iter().cloned().collect();
        self.activations.contains(&params)
    }
}

/// Cumulative monitoring statistics (reset with
/// [`RuleManager::reset_stats`]) — the observable cost profile of the
/// paper's evaluation section: how many differentials executed, how many
/// candidate tuples they produced, and how many the §7.2 checks
/// rejected. The evaluator counts from `probes` on are the sums of the
/// same fields of every pass's [`PassMetrics`](amos_metrics::PassMetrics),
/// added as each pass joins the check phase's trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MonitorStats {
    /// Check phases run (one per commit with changes, or per immediate
    /// check).
    pub check_phases: usize,
    /// Propagation / recomputation passes across all check phases.
    pub passes: usize,
    /// Partial differential executions (incremental only).
    pub differentials_executed: usize,
    /// Candidate tuples produced by differentials before §7.2 checks.
    pub tuples_produced: usize,
    /// Candidates rejected by §7.2 checks.
    pub tuples_rejected: usize,
    /// Full condition recomputations (naive only).
    pub naive_recomputations: usize,
    /// Rule action invocations (per instance).
    pub actions_executed: usize,
    /// Rule actions that failed (error or panic); each failure also
    /// quarantined its rule and rolled its updates back to the
    /// pre-action savepoint.
    pub actions_failed: usize,
    /// Stored-relation index probes during propagation.
    pub probes: u64,
    /// Stored-relation full scans during propagation.
    pub scans: u64,
    /// Δ-set probes.
    pub delta_probes: u64,
    /// Unbound Δ-set scans.
    pub delta_scans: u64,
    /// Probes that fell back to a relation scan for lack of an index.
    pub fallback_scans: u64,
    /// Derived-call memo hits.
    pub tabling_hits: u64,
    /// Derived-call memo misses.
    pub tabling_misses: u64,
    /// Plans compiled because none was cached or its statistics drifted.
    pub replans: u64,
    /// Plans served from the plan cache.
    pub plan_cache_hits: u64,
    /// `holds` calls of the strict filter.
    pub filter_holds: u64,
    /// Stored-relation probes those `holds` calls made.
    pub filter_probes: u64,
}

/// Summary of one check phase.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CheckSummary {
    /// (rule name, number of instances acted on), in execution order.
    pub executed: Vec<(String, usize)>,
    /// (rule name, failure reason) for every action that failed this
    /// check phase. A failed action never aborts the phase: its updates
    /// are rolled back to the pre-action savepoint, the rule is
    /// quarantined, and the remaining rules keep firing.
    pub failed: Vec<(String, String)>,
    /// Propagation / recomputation passes performed.
    pub passes: usize,
}

/// What one monitoring pass found, computed by
/// [`RuleManager::monitor`] without writing anything.
#[derive(Debug, Default)]
pub(crate) struct PassOutcome {
    /// Net change of each monitored condition.
    condition_deltas: HashMap<PredId, DeltaSet>,
    /// The rules whose condition the pass tested, each with the
    /// insertions it admits: covered by an activation and, for a strict
    /// rule on a propagated delta, false before the pass and true after.
    admitted: Vec<(RuleId, Vec<Tuple>)>,
    /// The propagation's fired differentials and metrics (with the
    /// strict filter's counts); `triggered` is filled in by the apply
    /// step.
    trace: PassTrace,
}

/// The rule manager: owns rules, the propagation network, the naive
/// baseline, and the deferred check phase.
pub struct RuleManager {
    rules: Vec<Rule>,
    by_name: HashMap<String, RuleId>,
    network: PropagationNetwork,
    naive: NaiveMonitor,
    /// Condition monitoring implementation ([`RuleManager::set_mode`]).
    mode: MonitorMode,
    /// Wave-front execution strategy (parallel, or the serial
    /// reference); set from `EngineOptions::propagation`.
    pub exec: ExecStrategy,
    /// A placeholder the benchmark hands to `propagate_with`: nothing
    /// reads it, and the benchmark change that drops that argument
    /// deletes it (ROADMAP item 9).
    pub check: CheckLevel,
    /// What the most recent check phase did, pass by pass.
    report: CheckTrace,
    /// Cumulative monitoring statistics.
    stats: MonitorStats,
    /// Rules whose action failed (error or panic), keyed to the failure
    /// reason. A quarantined rule no longer triggers or fires until
    /// [`RuleManager::clear_quarantine`] lifts the quarantine.
    quarantined: HashMap<RuleId, String>,
    /// Maintained views, folded at the start of every pass; their
    /// sources stay monitored regardless of active rules.
    views: Vec<ViewReg>,
    /// The commit sequence the latest pass ran at, until a `resync`.
    pass_seq: Option<u64>,
    /// Deterministic fault plan for tests (see `amos_storage::fault`).
    #[cfg(feature = "fault-injection")]
    fault_plan: Option<Arc<amos_storage::fault::FaultPlan>>,
    /// Long-lived shared evaluator state: its planner — the one plan
    /// cache of differentials and derived bodies — survives across check
    /// phases; per-pass state (the derived-call memo) is reset at every
    /// pass boundary. Replaced wholesale on network rebuilds, which
    /// reassign differential ids.
    eval_shared: Arc<EvalShared>,
}

/// A maintained view: its differential, the stored relation it
/// materializes into, and the relations it reads.
struct ViewReg {
    view: Box<dyn UserView>,
    backing: RelId,
    sources: Vec<RelId>,
}

impl fmt::Debug for RuleManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleManager")
            .field("rules", &self.rules.len())
            .field("mode", &self.mode)
            .finish()
    }
}

impl Default for RuleManager {
    fn default() -> Self {
        RuleManager::new()
    }
}

impl RuleManager {
    /// A manager with default settings (incremental monitoring).
    pub fn new() -> Self {
        RuleManager {
            rules: Vec::new(),
            by_name: HashMap::new(),
            network: PropagationNetwork::default(),
            naive: NaiveMonitor::new(),
            mode: MonitorMode::Incremental,
            exec: ExecStrategy::default(),
            check: CheckLevel::Nervous,
            report: CheckTrace::default(),
            stats: MonitorStats::default(),
            quarantined: HashMap::new(),
            views: Vec::new(),
            pass_seq: None,
            #[cfg(feature = "fault-injection")]
            fault_plan: None,
            eval_shared: Arc::new(EvalShared::default()),
        }
    }

    /// Install a deterministic fault plan: injected action failures and
    /// propagation faults fire according to the plan (test-only).
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: Arc<amos_storage::fault::FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// Define a rule (inactive until [`activate`](Self::activate)d).
    pub fn define_rule(
        &mut self,
        name: &str,
        condition: PredId,
        n_params: usize,
        action: ActionFn,
        priority: i32,
        semantics: RuleSemantics,
    ) -> Result<RuleId, CoreError> {
        if self.by_name.contains_key(name) {
            return Err(CoreError::DuplicateRule(name.to_string()));
        }
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule {
            id,
            name: name.to_string(),
            condition,
            n_params,
            action,
            priority,
            semantics,
            activations: HashSet::new(),
            events: None,
            triggered: HashMap::new(),
        });
        self.by_name.insert(name.to_string(), id);
        Ok(id)
    }

    /// Remove a rule entirely: clear its activations and triggered set,
    /// rebuild the network, and drop its definition. The rule's id is
    /// retired (a tombstone remains so other ids stay stable).
    pub fn drop_rule(
        &mut self,
        id: RuleId,
        catalog: &Catalog,
        storage: &mut Storage,
    ) -> Result<(), CoreError> {
        {
            let rule = &mut self.rules[id.0 as usize];
            rule.activations.clear();
            rule.triggered.clear();
            self.naive.unwatch(rule.condition);
        }
        let name = self.rules[id.0 as usize].name.clone();
        self.by_name.remove(&name);
        self.rebuild(catalog, storage)
    }

    /// Restrict a rule to an event set (ECA behaviour): its condition is
    /// only tested in passes where one of `rels` changed.
    pub fn set_events(&mut self, id: RuleId, rels: HashSet<amos_storage::RelId>) {
        self.rules[id.0 as usize].events = Some(rels);
    }

    /// Look up a rule by name.
    pub fn rule_id(&self, name: &str) -> Result<RuleId, CoreError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| CoreError::UnknownRule(name.to_string()))
    }

    /// A rule by id.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// Activate a rule for a parameter binding (`Tuple::unit()` for
    /// parameterless rules). Rebuilds the propagation network and starts
    /// monitoring the condition's stored influents.
    pub fn activate(
        &mut self,
        id: RuleId,
        params: Tuple,
        catalog: &Catalog,
        storage: &mut Storage,
    ) -> Result<(), CoreError> {
        {
            let rule = &self.rules[id.0 as usize];
            if params.arity() != rule.n_params {
                return Err(CoreError::ParameterArityMismatch {
                    rule: rule.name.clone(),
                    expected: rule.n_params,
                    found: params.arity(),
                });
            }
        }
        self.rules[id.0 as usize].activations.insert(params);
        self.rebuild(catalog, storage)
    }

    /// Remove one activation (the rule stays defined). Rebuilds the
    /// network and stops monitoring relations no longer needed.
    pub fn deactivate(
        &mut self,
        id: RuleId,
        params: &Tuple,
        catalog: &Catalog,
        storage: &mut Storage,
    ) -> Result<(), CoreError> {
        self.rules[id.0 as usize].activations.remove(params);
        if !self.rules[id.0 as usize].is_active() {
            self.rules[id.0 as usize].triggered.clear();
            self.naive.unwatch(self.rules[id.0 as usize].condition);
        }
        self.rebuild(catalog, storage)
    }

    /// Rebuild the shared propagation network from all active rules and
    /// reconcile which relations are monitored.
    fn rebuild(&mut self, catalog: &Catalog, storage: &mut Storage) -> Result<(), CoreError> {
        let mut conditions: Vec<PredId> = Vec::new();
        for rule in &self.rules {
            if rule.is_active() && !conditions.contains(&rule.condition) {
                conditions.push(rule.condition);
            }
        }
        self.network = PropagationNetwork::build(catalog, storage, &conditions)?;
        #[cfg(feature = "fault-injection")]
        if let Some(plan) = &self.fault_plan {
            if !self.network.differentials().is_empty() && plan.take_dropped_differential() {
                self.network
                    .testing_remove_differential(crate::differ::DiffId(0));
            }
        }
        // Catalog/network changes invalidate compiled plans, and the
        // rebuild reassigns differential ids: swap the whole shared
        // cache state rather than clearing piecemeal.
        self.eval_shared = Arc::new(EvalShared::default());
        // Monitor exactly the stored influents of active conditions.
        let needed: HashSet<PredId> = self.network.stored_nodes(catalog).into_iter().collect();
        for pred in catalog.iter().map(|d| d.id).collect::<Vec<_>>() {
            if let Some(rel) = catalog.def(pred).stored_rel() {
                let viewed = self.views.iter().any(|v| v.sources.contains(&rel));
                if needed.contains(&pred) || viewed {
                    storage.monitor(rel);
                } else {
                    storage.unmonitor(rel);
                }
            }
        }
        Ok(())
    }

    /// The propagation network (introspection / tests).
    pub fn network(&self) -> &PropagationNetwork {
        &self.network
    }

    /// The one planner, of the network's differentials and the derived
    /// bodies they call (introspection).
    pub fn planner(&self) -> &Planner {
        self.eval_shared.planner()
    }

    /// Trace of the most recent check phase.
    pub fn last_trace(&self) -> &CheckTrace {
        &self.report
    }

    /// Cumulative monitoring statistics.
    pub fn stats(&self) -> MonitorStats {
        self.stats
    }

    /// Reset the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = MonitorStats::default();
    }

    /// Quarantined rules and the failure reason that quarantined them.
    pub fn quarantined(&self) -> &HashMap<RuleId, String> {
        &self.quarantined
    }

    /// Why a rule is quarantined, if it is.
    pub fn quarantine_reason(&self, id: RuleId) -> Option<&str> {
        self.quarantined.get(&id).map(String::as_str)
    }

    /// Lift a rule's quarantine so it can trigger again. The rule
    /// resumes with an empty triggered set and without its condition's
    /// naive materialization, which no pass advanced meanwhile —
    /// instances it would have fired on while quarantined are not
    /// retroactively delivered. Returns whether the rule was quarantined.
    pub fn clear_quarantine(&mut self, id: RuleId) -> bool {
        self.naive.unwatch(self.rules[id.0 as usize].condition);
        self.quarantined.remove(&id).is_some()
    }

    /// Switch the condition-monitoring implementation from the next
    /// pass on, dropping the naive materializations (an incremental
    /// pass does not advance them).
    pub fn set_mode(&mut self, mode: MonitorMode) {
        self.mode = mode;
        self.naive = NaiveMonitor::new();
    }

    /// Whether a pass ran at storage's commit sequence `commit_seq` (in
    /// the open transaction, if that is the current one) since the last
    /// [`resync`](Self::resync).
    pub fn ran_pass_at(&self, commit_seq: u64) -> bool {
        self.pass_seq == Some(commit_seq)
    }

    /// Realign the state kept beside storage after storage moved without
    /// a pass (a rollback past a pass, WAL recovery): re-initialize every
    /// maintained view from `storage`, which moved its backing relation,
    /// and drop every naive materialization.
    pub fn resync(&mut self, catalog: &Catalog, storage: &Storage) -> Result<(), CoreError> {
        self.naive = NaiveMonitor::new();
        self.pass_seq = None;
        for reg in &mut self.views {
            reg.view.initialize(catalog, storage)?;
        }
        Ok(())
    }

    /// The deferred **check phase** (run by the engine at commit time),
    /// a loop over passes: fold the pass's changes into the maintained
    /// views, derive the naive materializations the pass needs and
    /// lacks, monitor the conditions (read-only), apply the outcome to
    /// the triggered sets and materializations, clear the consumed
    /// Δ-sets, then resolve conflicts and run one rule's action
    /// set-oriented; to fixpoint. Each pass is kept in the report
    /// [`last_trace`](Self::last_trace) reads.
    pub fn check_phase(
        &mut self,
        catalog: &Catalog,
        storage: &mut Storage,
    ) -> Result<CheckSummary, CoreError> {
        let mut summary = CheckSummary::default();
        self.report.begin();
        self.stats.check_phases += 1;

        for _ in 0..MAX_ITERATIONS {
            let had_changes = storage.has_changes();
            if had_changes {
                summary.passes += 1;
                self.stats.passes += 1;
                self.pass_seq = Some(storage.commit_seq());
                self.fold_views(catalog, storage)?;
                // Naive passes diff against P(S_old).
                if self.mode == MonitorMode::Naive {
                    let quarantined = &self.quarantined;
                    let live = self
                        .rules
                        .iter()
                        .filter(|r| r.is_active() && !quarantined.contains_key(&r.id));
                    self.naive
                        .watch(catalog, storage, live.map(|r| r.condition))?;
                }
                let outcome = self.monitor(catalog, storage)?;
                self.apply(outcome);
                // The pass consumed the accumulated base Δ-sets; the
                // post-action state becomes the next reference point.
                storage.clear_deltas();
            }
            // Conflict resolution: pick one triggered, active,
            // non-quarantined rule.
            let chosen = self
                .rules
                .iter()
                .filter(|r| {
                    r.is_active()
                        && !r.triggered.is_empty()
                        && !self.quarantined.contains_key(&r.id)
                })
                .max_by_key(|r| (r.priority, std::cmp::Reverse(r.id)))
                .map(|r| r.id);
            let Some(rid) = chosen else {
                if !had_changes {
                    return Ok(summary);
                }
                continue;
            };
            // Execute the chosen rule's action for every triggered
            // instance (set-oriented; sorted for determinism). A
            // savepoint brackets the whole set-oriented execution: if
            // any instance's action fails — by returning an error or by
            // panicking — every update the action made is undone back
            // to the savepoint, the rule is quarantined, and the check
            // phase continues with the remaining rules.
            let rule = &mut self.rules[rid.0 as usize];
            let mut instances: Vec<(Tuple, usize)> = rule.triggered.drain().collect();
            instances.sort();
            let (action, condition) = (Arc::clone(&rule.action), rule.condition);
            let name = rule.name.clone();
            let sp = storage.savepoint();
            #[cfg(feature = "fault-injection")]
            let mut injected = self
                .fault_plan
                .as_ref()
                .and_then(|p| p.take_action_fault(&name));
            let mut failure: Option<String> = None;
            for (instance, pass) in &instances {
                let mut ctx = ActionCtx {
                    storage,
                    catalog,
                    rule: &name,
                    instance,
                    condition,
                    pass: self.report.passes.get(*pass),
                };
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-injection")]
                    if let Some(kind) = injected.take() {
                        match kind {
                            amos_storage::fault::ActionFailureKind::Error => {
                                return Err("injected action error".to_string());
                            }
                            amos_storage::fault::ActionFailureKind::Panic => {
                                panic!("injected action panic");
                            }
                        }
                    }
                    action(&mut ctx, instance)
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(reason)) => {
                        failure = Some(reason);
                        break;
                    }
                    Err(payload) => {
                        failure = Some(format!("action panicked: {}", panic_message(&*payload)));
                        break;
                    }
                }
            }
            if let Some(reason) = failure {
                storage.rollback_to(sp)?;
                self.rules[rid.0 as usize].triggered.clear();
                self.quarantined.insert(rid, reason.clone());
                self.stats.actions_failed += 1;
                if let Some(m) = self.report.last_metrics_mut() {
                    m.failed_actions.push(format!("{name}: {reason}"));
                }
                summary.failed.push((name, reason));
                continue;
            }
            self.stats.actions_executed += instances.len();
            summary.executed.push((name, instances.len()));
        }
        Err(CoreError::NonTerminatingRules {
            limit: MAX_ITERATIONS,
        })
    }

    /// Register a maintained view materialized into `backing`: every
    /// later pass that finds one of its sources changed folds their
    /// Δ-sets into it before propagating, and its sources stay
    /// monitored regardless of active rules.
    pub fn add_view(&mut self, view: Box<dyn UserView>, backing: RelId, storage: &mut Storage) {
        let sources = view.sources();
        for &rel in &sources {
            storage.monitor(rel);
        }
        self.views.push(ViewReg {
            view,
            backing,
            sources,
        });
    }

    /// Fold the pass's source Δ-sets into every view they touch and
    /// write each view's result Δ-set to its backing relation, where
    /// the same pass sees it like any base update.
    fn fold_views(&mut self, catalog: &Catalog, storage: &mut Storage) -> Result<(), CoreError> {
        for reg in &mut self.views {
            let changed = |&rel: &RelId| storage.delta(rel).is_some_and(|d| !d.is_empty());
            if !reg.sources.iter().any(changed) {
                continue;
            }
            let out = reg.view.apply(catalog, storage)?;
            for t in out.minus() {
                storage.delete(reg.backing, t)?;
            }
            for t in out.plus() {
                storage.insert(reg.backing, t.clone())?;
            }
        }
        Ok(())
    }

    /// One monitoring pass, read-only: each live rule's condition delta
    /// (per the mode), the propagation's fired differentials and metrics,
    /// and the strict filter's result —
    /// the insertions each tested rule admits. [`check_phase`]
    /// (Self::check_phase) applies the outcome.
    pub(crate) fn monitor(
        &self,
        catalog: &Catalog,
        storage: &Storage,
    ) -> Result<PassOutcome, CoreError> {
        // Storage changed since the previous pass: evict the derived-call
        // memo so this pass cannot observe stale results. Compiled plans
        // survive.
        self.eval_shared.reset_pass();
        let live = || {
            self.rules
                .iter()
                .filter(|r| r.is_active() && !self.quarantined.contains_key(&r.id))
        };
        let mut out = PassOutcome::default();
        if self.mode == MonitorMode::Incremental {
            // An installed fault plan that schedules a failure for this
            // pass errors it out before any wave-front state is touched:
            // an evaluator crash at pass start, the worst point for the
            // surrounding transaction.
            #[cfg(feature = "fault-injection")]
            if let Some(plan) = &self.fault_plan {
                if plan.take_propagation_fault() {
                    let seed = plan.seed();
                    let pass = format!("propagation pass (seed {seed})");
                    return Err(CoreError::FaultInjected(pass));
                }
            }
            let result = propagate_adaptive(
                &self.network,
                catalog,
                storage,
                self.exec,
                &self.eval_shared,
            )?;
            out.trace.fired = result.fired;
            out.trace.metrics = Some(result.metrics);
            out.condition_deltas = result.condition_deltas;
        } else {
            for rule in live() {
                if let Entry::Vacant(slot) = out.condition_deltas.entry(rule.condition) {
                    slot.insert(self.naive.check(catalog, storage, rule.condition)?);
                }
            }
        }

        // The strict filter, on one context for every check of the pass:
        // the shared memo lets repeated `holds` probes of the same
        // condition reuse derived-call results across rules and
        // instances.
        let deltas_env = DeltaMap::new();
        let shared = Arc::clone(&self.eval_shared);
        let filter_ctx = EvalContext::with_shared(storage, catalog, &deltas_env, shared);
        let probes_before = self.eval_shared.probe_count();
        let planner = self.eval_shared.planner();
        let (replans_before, hits_before) = (planner.replan_count(), planner.hit_count());
        let mut holds = 0;
        for rule in live() {
            // ECA event restriction: skip the condition test entirely
            // when none of the rule's event relations changed.
            if let Some(events) = &rule.events {
                let changed = |&rel: &RelId| storage.delta(rel).is_some_and(|d| !d.is_empty());
                if !events.iter().any(changed) {
                    continue;
                }
            }
            let Some(delta) = out.condition_deltas.get(&rule.condition) else {
                continue;
            };
            // Strict semantics: only false→true transitions. Needed
            // whenever the delta came from nervous propagation.
            let strict =
                rule.semantics == RuleSemantics::Strict && self.mode == MonitorMode::Incremental;
            let mut admitted = Vec::new();
            for t in delta.plus() {
                if !rule.covered(t) {
                    continue;
                }
                if strict && !strict_admits(&filter_ctx, rule.condition, t, &mut holds)? {
                    continue;
                }
                admitted.push(t.clone());
            }
            out.admitted.push((rule.id, admitted));
        }
        if let Some(m) = out.trace.metrics.as_mut() {
            m.filter_holds = holds;
            m.filter_probes = self.eval_shared.probe_count() - probes_before;
            // The filter's `holds` calls resolve derived bodies too.
            m.replans += planner.replan_count() - replans_before;
            m.plan_cache_hits += planner.hit_count() - hits_before;
        }
        Ok(out)
    }

    /// Fold one pass's outcome into the triggered sets (net changes: an
    /// admitted insertion triggers, a deletion untriggers), the naive
    /// materializations and the statistics, and keep it in the report.
    fn apply(&mut self, outcome: PassOutcome) {
        let PassOutcome {
            condition_deltas,
            admitted,
            mut trace,
        } = outcome;
        let pass = self.report.passes.len();
        for (rid, instances) in admitted {
            let rule = &mut self.rules[rid.0 as usize];
            for t in instances {
                if let Entry::Vacant(slot) = rule.triggered.entry(t) {
                    trace.triggered.push((rule.condition, slot.key().clone()));
                    slot.insert(pass);
                }
            }
            for t in condition_deltas[&rule.condition].minus() {
                rule.triggered.remove(t);
            }
        }
        // Advance the naive materializations: a recomputed delta is exact
        // against one.
        if self.mode == MonitorMode::Naive {
            for (cond, delta) in &condition_deltas {
                self.naive.apply_delta(*cond, delta);
            }
            self.stats.naive_recomputations += condition_deltas.len();
        }
        if let Some(m) = &trace.metrics {
            let s = &mut self.stats;
            s.differentials_executed += trace.fired.len();
            s.tuples_produced += m.candidates;
            s.tuples_rejected += m.rejected;
            s.probes += m.probes;
            s.scans += m.scans;
            s.delta_probes += m.delta_probes;
            s.delta_scans += m.delta_scans;
            s.fallback_scans += m.fallback_scans;
            s.tabling_hits += m.tabling_hits;
            s.tabling_misses += m.tabling_misses;
            s.replans += m.replans;
            s.plan_cache_hits += m.plan_cache_hits;
            s.filter_holds += m.filter_holds;
            s.filter_probes += m.filter_probes;
        }
        self.report.passes.push(trace);
    }
}

/// Best-effort rendering of a panic payload (actions that panic get
/// quarantined with this as the reason).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_storage::{Polarity, RelId};
    use amos_types::{tuple, CmpOp, TypeId, Value};
    use std::sync::Mutex;

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    struct Fix {
        storage: Storage,
        catalog: Catalog,
        rq: RelId,
        low: PredId,
    }

    /// low(X) ← q(X,V) ∧ V < 10
    fn fixture() -> Fix {
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
        storage.insert(rq, tuple![1, 50]).unwrap();
        storage.insert(rq, tuple![2, 60]).unwrap();
        Fix {
            storage,
            catalog,
            rq,
            low,
        }
    }

    impl Fix {
        /// Define a parameterless rule over `low` and activate it.
        fn rule(
            &mut self,
            mgr: &mut RuleManager,
            name: &str,
            action: ActionFn,
            priority: i32,
            semantics: RuleSemantics,
        ) -> RuleId {
            let rid = mgr
                .define_rule(name, self.low, 0, action, priority, semantics)
                .unwrap();
            mgr.activate(rid, Tuple::unit(), &self.catalog, &mut self.storage)
                .unwrap();
            rid
        }

        /// A strict rule over `low` logging the instances it fires on.
        fn watch(&mut self, mgr: &mut RuleManager, name: &str) -> Arc<Mutex<Vec<Tuple>>> {
            let log = Arc::new(Mutex::new(Vec::new()));
            let action = recording_action(log.clone());
            self.rule(mgr, name, action, 0, RuleSemantics::Strict);
            log
        }

        /// `set q(item) = value`.
        fn set_q(&mut self, item: i64, value: i64) {
            let (key, value) = ([Value::Int(item)], [Value::Int(value)]);
            self.storage.set_functional(self.rq, &key, &value).unwrap();
        }
    }

    fn recording_action(log: Arc<Mutex<Vec<Tuple>>>) -> ActionFn {
        Arc::new(move |_ctx, t| {
            log.lock().unwrap().push(t.clone());
            Ok(())
        })
    }

    #[test]
    fn rule_triggers_on_transition() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let log = f.watch(&mut mgr, "watch_low");

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        f.storage.commit().unwrap();

        assert_eq!(summary.executed, vec![("watch_low".to_string(), 1)]);
        assert_eq!(log.lock().unwrap().as_slice(), &[tuple![1]]);
    }

    #[test]
    fn net_changes_cancel_triggering() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let log = f.watch(&mut mgr, "watch_low");

        f.storage.begin().unwrap();
        // Down below 10 and back up: no net change → no trigger.
        f.set_q(1, 5);
        f.set_q(1, 50);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert!(summary.executed.is_empty());
        assert!(log.lock().unwrap().is_empty());
    }

    #[test]
    fn strict_fires_once_nervous_may_refire() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let log = f.watch(&mut mgr, "watch_low");

        // Transition to low.
        f.storage.begin().unwrap();
        f.set_q(1, 5);
        mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        f.storage.commit().unwrap();
        assert_eq!(log.lock().unwrap().len(), 1);

        // Still low, lower again: strict must NOT refire.
        f.storage.begin().unwrap();
        f.set_q(1, 3);
        mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        f.storage.commit().unwrap();
        assert_eq!(
            log.lock().unwrap().len(),
            1,
            "strict: no re-fire while true"
        );
    }

    #[test]
    fn per_parameter_activation_filters_instances() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        // One parameter: the item (condition column 0).
        let rid = mgr
            .define_rule(
                "watch_one",
                f.low,
                1,
                recording_action(log.clone()),
                0,
                RuleSemantics::Strict,
            )
            .unwrap();
        mgr.activate(rid, tuple![2], &f.catalog, &mut f.storage)
            .unwrap();

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        f.set_q(2, 5);
        mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert_eq!(
            log.lock().unwrap().as_slice(),
            &[tuple![2]],
            "only the activated parameter fires"
        );
    }

    #[test]
    fn conflict_resolution_priority_then_order() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mk = |tag: &'static str, order: Arc<Mutex<Vec<&'static str>>>| -> ActionFn {
            Arc::new(move |_ctx, _t| {
                order.lock().unwrap().push(tag);
                Ok(())
            })
        };
        f.rule(
            &mut mgr,
            "low_pri",
            mk("low", order.clone()),
            1,
            RuleSemantics::Strict,
        );
        f.rule(
            &mut mgr,
            "high_pri",
            mk("high", order.clone()),
            5,
            RuleSemantics::Strict,
        );

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert_eq!(order.lock().unwrap().as_slice(), &["high", "low"]);
    }

    #[test]
    fn action_updates_cascade() {
        let mut f = fixture();
        let rq = f.rq;
        let mut mgr = RuleManager::new();
        // Action: when X goes low, refill it to 100 (which makes the
        // condition false again — a self-stabilizing cascade).
        let refill: ActionFn = Arc::new(move |ctx, t| {
            let item = t[0].clone();
            ctx.storage
                .set_functional(rq, &[item], &[Value::Int(100)])
                .map_err(|e| e.to_string())?;
            Ok(())
        });
        f.rule(&mut mgr, "refill", refill, 0, RuleSemantics::Strict);

        f.storage.begin().unwrap();
        f.set_q(1, 2);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert_eq!(summary.executed.len(), 1);
        // The refill happened.
        assert!(f.storage.relation(rq).contains(&tuple![1, 100]));
    }

    #[test]
    fn non_terminating_cascade_detected() {
        let mut f = fixture();
        let rq = f.rq;
        let mut mgr = RuleManager::new();
        // Pathological action: keep the condition true by setting the
        // value to something still below 10 but different each time.
        let counter = Arc::new(Mutex::new(0i64));
        let flip: ActionFn = Arc::new(move |ctx, t| {
            let mut c = counter.lock().unwrap();
            *c += 1;
            let v = (*c % 2) + 1; // alternates 1, 2 — always < 10
            ctx.storage
                .set_functional(rq, &[t[0].clone()], &[Value::Int(v)])
                .map_err(|e| e.to_string())?;
            Ok(())
        });
        f.rule(&mut mgr, "flip", flip, 0, RuleSemantics::Nervous);

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let result = mgr.check_phase(&f.catalog, &mut f.storage);
        assert!(matches!(
            result,
            Err(CoreError::NonTerminatingRules { limit: 100 })
        ));
    }

    #[test]
    fn naive_mode_matches_incremental() {
        for mode in [MonitorMode::Incremental, MonitorMode::Naive] {
            let mut f = fixture();
            let mut mgr = RuleManager::new();
            mgr.set_mode(mode);
            let log = f.watch(&mut mgr, "watch");
            f.storage.begin().unwrap();
            f.set_q(1, 5);
            f.set_q(2, 7);
            mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
            let mut fired = log.lock().unwrap().clone();
            fired.sort();
            assert_eq!(fired, vec![tuple![1], tuple![2]], "mode {mode:?}");
        }
    }

    #[test]
    fn deactivate_stops_monitoring() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        f.watch(&mut mgr, "watch");
        let rid = mgr.rule_id("watch").unwrap();
        assert!(f.storage.is_monitored(f.rq));
        mgr.deactivate(rid, &Tuple::unit(), &f.catalog, &mut f.storage)
            .unwrap();
        assert!(!f.storage.is_monitored(f.rq));

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert!(summary.executed.is_empty());
        assert_eq!(summary.passes, 0, "no monitored changes → no passes");
    }

    #[test]
    fn explanation_available_to_action() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let action: ActionFn = Arc::new(move |ctx, _t| {
            if let Some(e) = ctx.explanation() {
                seen2.lock().unwrap().push(e.causes.clone());
            }
            Ok(())
        });
        f.rule(&mut mgr, "watch", action, 0, RuleSemantics::Strict);
        f.storage.begin().unwrap();
        f.set_q(1, 5);
        mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        let causes = seen.lock().unwrap();
        assert_eq!(causes.len(), 1);
        let q = f.catalog.lookup("q").unwrap();
        assert!(causes[0].contains(&(q, Polarity::Plus)));
    }

    /// A nervous rule's action raises the limit its instance is compared
    /// against, which re-derives the instance: the second pass triggers
    /// it again through `lim`, not `q`, and the action must see that
    /// pass's causes — not the first trigger's, nor both passes' mixed.
    #[test]
    fn retriggered_instance_is_explained_by_its_own_pass() {
        let mut f = fixture();
        let q = f.catalog.lookup("q").unwrap();
        let rlim = f.storage.create_relation("lim", 2).unwrap();
        let lim = f.catalog.define_stored("lim", sig(2), rlim, 1).unwrap();
        f.storage.insert(rlim, tuple![1, 10]).unwrap();
        // under(X) ← q(X,V) ∧ lim(X,L) ∧ V < L
        let clause = ClauseBuilder::new(3)
            .head([Term::var(0)])
            .pred(q, [Term::var(0), Term::var(1)])
            .pred(lim, [Term::var(0), Term::var(2)])
            .cmp(Term::var(1), CmpOp::Lt, Term::var(2))
            .build();
        let under = f
            .catalog
            .define_derived("under", sig(1), vec![clause])
            .unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let raise: ActionFn = Arc::new(move |ctx, t| {
            let mut log = log.lock().unwrap();
            log.push(ctx.explanation().map(|e| e.causes));
            if log.len() == 1 {
                let raised = ctx
                    .storage
                    .set_functional(rlim, &[t[0].clone()], &[Value::Int(20)]);
                raised.map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut mgr = RuleManager::new();
        let rid = mgr
            .define_rule("raise", under, 0, raise, 0, RuleSemantics::Nervous)
            .unwrap();
        mgr.activate(rid, Tuple::unit(), &f.catalog, &mut f.storage)
            .unwrap();

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert_eq!(summary.executed.len(), 2, "{summary:?}");
        let causes = |p| Some(vec![(p, Polarity::Plus)]);
        assert_eq!(*seen.lock().unwrap(), vec![causes(q), causes(lim)]);
        // The trace explains the instance by its last triggering.
        let trace = mgr.last_trace();
        let last = trace.explain(under, &tuple![1]).unwrap();
        assert_eq!(Some(last.causes), causes(lim));
        assert_eq!(trace.explanations().len(), 2);
    }

    #[test]
    fn failed_action_quarantines_rule_and_rolls_back() {
        let mut f = fixture();
        let rq = f.rq;
        let mut mgr = RuleManager::new();
        // The failing action updates storage before erroring: the update
        // must be rolled back to the pre-action savepoint.
        let failing: ActionFn = Arc::new(move |ctx, t| {
            ctx.storage
                .set_functional(rq, &[t[0].clone()], &[Value::Int(99)])
                .map_err(|e| e.to_string())?;
            Err("downstream service unavailable".into())
        });
        let rid = f.rule(&mut mgr, "fail", failing, 0, RuleSemantics::Strict);
        let log = Arc::new(Mutex::new(Vec::new()));
        let watch = recording_action(log.clone());
        f.rule(&mut mgr, "watch", watch, -1, RuleSemantics::Strict);

        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();

        // The failing rule is quarantined; the other rule still fires.
        assert_eq!(
            summary.failed,
            vec![("fail".into(), "downstream service unavailable".into())]
        );
        assert_eq!(summary.executed, vec![("watch".to_string(), 1)]);
        assert_eq!(log.lock().unwrap().as_slice(), &[tuple![1]]);
        // The failed action's update was rolled back.
        assert!(!f.storage.relation(rq).contains(&tuple![1, 99]));
        assert!(f.storage.relation(rq).contains(&tuple![1, 5]));
        assert_eq!(
            mgr.quarantine_reason(rid),
            Some("downstream service unavailable")
        );
        assert_eq!(mgr.stats().actions_failed, 1);
    }

    #[test]
    fn panicking_action_quarantines_rule() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let panicking: ActionFn = Arc::new(|_ctx, _t| panic!("boom"));
        let rid = f.rule(&mut mgr, "explode", panicking, 0, RuleSemantics::Strict);
        f.storage.begin().unwrap();
        f.set_q(1, 5);
        let summary = mgr.check_phase(&f.catalog, &mut f.storage).unwrap();
        assert!(summary.executed.is_empty());
        assert_eq!(summary.failed.len(), 1);
        assert!(summary.failed[0].1.contains("boom"), "{:?}", summary.failed);
        let backlog = mgr.rules.iter().map(|r| r.triggered.len()).sum::<usize>();
        assert_eq!(backlog, 0, "quarantined rule holds no backlog");
        assert!(mgr.quarantined().contains_key(&rid));
        // Lifting the quarantine lets the rule trigger again later.
        assert!(mgr.clear_quarantine(rid));
        assert!(mgr.quarantined().is_empty());
    }

    #[test]
    fn duplicate_rule_and_param_arity_errors() {
        let mut f = fixture();
        let mut mgr = RuleManager::new();
        let a: ActionFn = Arc::new(|_, _| Ok(()));
        let rid = mgr
            .define_rule("r", f.low, 1, a.clone(), 0, RuleSemantics::Strict)
            .unwrap();
        assert!(matches!(
            mgr.define_rule("r", f.low, 1, a, 0, RuleSemantics::Strict),
            Err(CoreError::DuplicateRule(_))
        ));
        assert!(matches!(
            mgr.activate(rid, Tuple::unit(), &f.catalog, &mut f.storage),
            Err(CoreError::ParameterArityMismatch { .. })
        ));
    }
}

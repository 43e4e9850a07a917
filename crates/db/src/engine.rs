//! The AMOS engine: statement execution, scalar evaluation, rule
//! wiring, and transaction/check-phase orchestration.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use amos_amosql::ast::{Expr, ProcStmt, Select, Statement, TypedVar};
use amos_amosql::compiler::{compile_predicate_at, compile_select_at, QueryEnv};
use amos_amosql::parser::parse_spanned;
use amos_amosql::ParseError;
use amos_core::aggregate::{AggFn, AggregateView};
use amos_core::maintained::{MaintainedAggregate, UserView};
use amos_core::propagate::ExecStrategy;
use amos_core::rules::{ActionFn, CheckSummary, MonitorMode, RuleId, RuleManager, RuleSemantics};
use amos_lint::{Diagnostic, LintConfig, RuleFacts, RuleWrite, Span};
use amos_objectlog::catalog::{Catalog, PredId, PredKind};
use amos_objectlog::clause::Literal;
use amos_objectlog::eval::EvalContext;
use amos_objectlog::plan::compile_clause;
use amos_objectlog::planner::{LiveStats, PlanKey};
use amos_storage::{
    CommitWaiter, LayerStacks, RecoveryInfo, RelId, StateEpoch, Storage, StorageError, WalConfig,
    WalMetrics,
};
use amos_types::{Tuple, TypeRegistry, Value};

use crate::error::DbError;
use crate::shape::Shapes;

/// A placeholder that nothing reads. The network's shape follows from
/// the active rules (a derived function two or more network nodes call
/// stays a shared node, every other one is expanded; see the `shape`
/// module). The benchmark still names this type, and the benchmark
/// change of ROADMAP item 9 deletes it with [`EngineOptions::network_prep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkPrep {
    /// Unused (fig. 2's flat shape).
    #[default]
    Flat,
    /// Unused (fig. 1's bushy shape).
    Bushy,
}

/// Engine construction options, set once in [`Amos::with_options`] and
/// read back with [`Amos::options`]. Each field is either user-visible
/// behaviour or the reference side of an equivalence oracle; the
/// defaults run the paper's method. The network's shape is not an
/// option: it follows from the active rules by caller count.
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// A placeholder that nothing reads (see [`NetworkPrep`]); ROADMAP
    /// item 9 deletes it.
    pub network_prep: NetworkPrep,
    /// Immediate rule processing (§1): run the rule check after every
    /// update statement instead of deferring to commit. The calculus is
    /// identical; only the check-phase timing changes.
    pub immediate: bool,
    /// Wave-front execution strategy for propagation passes: parallel
    /// by default (levels at or above
    /// [`INLINE_WAVE_THRESHOLD`](amos_core::propagate::INLINE_WAVE_THRESHOLD)
    /// tuples run on threads, smaller ones inline); serial never spawns
    /// and is the reference the equivalence oracles compare against.
    pub propagation: ExecStrategy,
    /// Per-code lint severities. `activate` refuses a rule whose lint
    /// findings include a deny-level diagnostic (L001/L002 by default);
    /// warn-level findings surface in `explain rule` and the `lint`
    /// CLI command.
    pub lint_level: LintConfig,
}

/// Context handed to registered procedures (rule actions' side-effect
/// vocabulary — the paper's `order(...)`).
pub struct ProcCtx<'a> {
    /// Mutable database access.
    pub storage: &'a mut Storage,
    /// The catalog.
    pub catalog: &'a Catalog,
}

/// A registered procedure.
pub type ProcedureFn = Arc<dyn Fn(&mut ProcCtx<'_>, &[Value]) -> Result<(), String> + Send + Sync>;

type Procedures = Arc<Mutex<HashMap<String, ProcedureFn>>>;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub enum ExecResult {
    /// DDL / update / activation succeeded.
    Ok,
    /// Query result rows (sorted).
    Rows(Vec<Tuple>),
    /// Commit ran the check phase.
    Committed(CheckSummary),
    /// `explain` output.
    Text(String),
}

/// Lint-relevant facts about a defined rule, recorded at `create rule`
/// time — the action AST is consumed by the action closure, so the
/// stored-function writes it performs are extracted up front.
struct RuleLintInfo {
    name: String,
    condition: PredId,
    writes: Vec<RuleWrite>,
    span: Option<Span>,
}

/// The embeddable active DBMS.
pub struct Amos {
    storage: Storage,
    catalog: Catalog,
    types: TypeRegistry,
    rules: RuleManager,
    extents: HashMap<String, PredId>,
    iface: HashMap<String, Value>,
    procedures: Procedures,
    rule_lint: Vec<RuleLintInfo>,
    fn_spans: HashMap<String, Span>,
    shapes: Shapes,
    pub(crate) options: EngineOptions,
}

impl Default for Amos {
    fn default() -> Self {
        Amos::new()
    }
}

impl Amos {
    /// A fresh database with default options.
    pub fn new() -> Self {
        Amos::with_options(EngineOptions::default())
    }

    /// A fresh database with the given options.
    pub fn with_options(options: EngineOptions) -> Self {
        let mut rules = RuleManager::new();
        rules.exec = options.propagation;
        Amos {
            storage: Storage::new(),
            catalog: Catalog::new(),
            types: TypeRegistry::new(),
            rules,
            extents: HashMap::new(),
            iface: HashMap::new(),
            procedures: Arc::new(Mutex::new(HashMap::new())),
            rule_lint: Vec::new(),
            fn_spans: HashMap::new(),
            shapes: Shapes::default(),
            options,
        }
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    // ------------------------------------------------------------------
    // Public API
    // ------------------------------------------------------------------

    /// Execute an AMOSQL script; returns one result per statement.
    pub fn execute(&mut self, src: &str) -> Result<Vec<ExecResult>, DbError> {
        let stmts = parse_spanned(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.exec_statement(stmt.node, Some((stmt.line, stmt.col)))?);
        }
        Ok(out)
    }

    /// Execute a single `select` and return its rows (sorted).
    ///
    /// ```
    /// use amos_db::{Amos, Value};
    /// let mut db = Amos::new();
    /// db.execute("create type t; create function f(t x) -> integer;").unwrap();
    /// db.execute("create t instances :a; set f(:a) = 41;").unwrap();
    /// let rows = db.query("select f(:a) + 1;").unwrap();
    /// assert_eq!(rows[0][0], Value::Int(42));
    /// ```
    pub fn query(&mut self, src: &str) -> Result<Vec<Tuple>, DbError> {
        let results = self.execute(src)?;
        for r in results {
            if let ExecResult::Rows(rows) = r {
                return Ok(rows);
            }
        }
        Err(DbError::Other("statement was not a query".to_string()))
    }

    /// Register a procedure callable from rule actions and scripts.
    ///
    /// ```
    /// use amos_db::Amos;
    /// use std::sync::{Arc, Mutex};
    /// let mut db = Amos::new();
    /// let hits = Arc::new(Mutex::new(0));
    /// let h = hits.clone();
    /// db.register_procedure("ping", move |_ctx, _args| {
    ///     *h.lock().unwrap() += 1;
    ///     Ok(())
    /// });
    /// db.execute("ping(1);").unwrap();
    /// assert_eq!(*hits.lock().unwrap(), 1);
    /// ```
    pub fn register_procedure(
        &mut self,
        name: &str,
        f: impl Fn(&mut ProcCtx<'_>, &[Value]) -> Result<(), String> + Send + Sync + 'static,
    ) {
        self.procedures
            .lock()
            .expect("procedures lock")
            .insert(name.to_string(), Arc::new(f));
    }

    /// Register an incrementally maintained aggregate
    /// `name(group…) -> value` = `agg(value_col of source_fn)` grouped
    /// by `group_cols` (§8 extension). The aggregate becomes an ordinary
    /// stored function: rules can monitor conditions over it and the
    /// check phase maintains it at every pass.
    pub fn register_aggregate(
        &mut self,
        name: &str,
        source_fn: &str,
        group_cols: Vec<usize>,
        value_col: usize,
        agg: AggFn,
    ) -> Result<(), DbError> {
        let source = self.catalog.lookup(source_fn)?;
        let source_rel = self
            .catalog
            .def(source)
            .stored_rel()
            .ok_or_else(|| DbError::Other(format!("`{source_fn}` is not a stored function")))?;
        let arity = group_cols.len() + 1;
        let view = MaintainedAggregate::new(
            AggregateView::new(source, group_cols.clone(), value_col, agg),
            source_rel,
        );
        self.register_view(name, arity, group_cols.len(), Box::new(view))
    }

    /// Register an incrementally maintained view with a **user-defined
    /// differential** (§8 future work): `view` declares the stored
    /// relations it reads and computes its own Δ-set from theirs at
    /// every pass of the check phase — rule actions' writes to its
    /// sources included. The result is materialized into an ordinary
    /// stored function named `name`, so rule conditions can monitor it.
    ///
    /// This is the hook for "incremental evaluation of foreign functions
    /// through user defined differentials" — see
    /// [`amos_core::maintained::ClosureView`] for the closure-based
    /// entry point.
    pub fn register_view(
        &mut self,
        name: &str,
        arity: usize,
        key_arity: usize,
        mut view: Box<dyn UserView>,
    ) -> Result<(), DbError> {
        let backing = self.storage.create_relation(name, arity)?;
        let object = self.types.object();
        self.catalog
            .define_stored(name, vec![object; arity], backing, key_arity)?;
        for t in view.initialize(&self.catalog, &self.storage)? {
            self.storage.insert(backing, t)?;
        }
        self.rules.add_view(view, backing, &mut self.storage);
        Ok(())
    }

    /// Switch the condition-monitoring implementation (incremental /
    /// naive). Takes effect from the next pass, which derives
    /// the naive materializations it needs from the state it starts in.
    pub fn set_monitor_mode(&mut self, mode: MonitorMode) {
        self.rules.set_mode(mode);
    }

    /// Instrumentation of the most recent propagation pass, if any.
    pub fn last_pass_metrics(&self) -> Option<&amos_metrics::PassMetrics> {
        self.rules.last_trace().last_metrics()
    }

    /// The session value of an interface variable, if bound.
    pub fn iface_value(&self, name: &str) -> Option<&Value> {
        self.iface.get(name)
    }

    /// Bind an interface variable programmatically.
    pub fn bind_iface(&mut self, name: &str, v: Value) {
        self.iface.insert(name.to_string(), v);
    }

    /// Read access to the storage layer (benchmarks, tests).
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to the storage layer (benchmarks drive updates
    /// directly to exclude parsing from timings). A rollback made here
    /// bypasses [`Amos::rollback`]: the maintained views and naive
    /// materializations a pass in the rolled-back transaction advanced
    /// keep its changes.
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Read access to the rule manager.
    pub fn rules(&self) -> &RuleManager {
        &self.rules
    }

    /// Mutable access to the rule manager (ablation benches flip check
    /// levels).
    pub fn rules_mut(&mut self) -> &mut RuleManager {
        &mut self.rules
    }

    /// Mutable access to the catalog (tests construct predicate graphs —
    /// e.g. mutual recursion through negation — that AMOSQL cannot
    /// express directly).
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Declare a stored function append-only (or clear the mark): its
    /// relation promises to never see deletes, so the engine prunes the
    /// always-empty Δ₋ differentials from the propagation network at
    /// the next activation. Advisory — deletes are not rejected, but a
    /// workload that does delete voids the pruning's soundness.
    pub fn set_append_only(&mut self, func: &str, on: bool) -> Result<(), DbError> {
        let pred = self
            .catalog
            .lookup(func)
            .map_err(|_| DbError::Other(format!("unknown function `{func}`")))?;
        let rel = self
            .catalog
            .def(pred)
            .stored_rel()
            .ok_or_else(|| DbError::Other(format!("`{func}` is not a stored function")))?;
        self.storage.set_append_only(rel, on);
        Ok(())
    }

    /// Run every lint pass over the whole catalog and rule set.
    ///
    /// L001 findings do not appear here: unsafe clauses are rejected at
    /// definition time, so nothing unsafe can reach the catalog — the
    /// [`crate::lint_script`] driver reports them pre-definition.
    pub fn lint_all(&self) -> Vec<Diagnostic> {
        self.lint(None)
    }

    /// Run the lint passes scoped to one rule (see `Amos::lint`). This
    /// is the set `activate` gates on.
    pub fn lint_rule(&self, name: &str) -> Result<Vec<Diagnostic>, DbError> {
        let info = self
            .rule_lint
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| DbError::Other(format!("unknown rule `{name}`")))?;
        Ok(self.lint(Some(info)))
    }

    /// The eight lint passes, in one order, over the whole catalog or
    /// scoped to `rule`: stratification and types then cover what its
    /// condition reaches, triggering findings are kept when attributed
    /// to the rule or mentioning it (cycles span rules), and every other
    /// finding is kept when attributed to the rule. The condition passes
    /// always run over the full rule set — L008 compares conditions
    /// pairwise — and are filtered afterwards.
    fn lint(&self, rule: Option<&RuleLintInfo>) -> Vec<Diagnostic> {
        let config = &self.options.lint_level;
        let scope = rule.map(|r| [r.condition]);
        let scope = scope.as_ref().map(|s| &s[..]);
        let name = rule.map(|r| r.name.as_str());
        let ours = |d: &Diagnostic| name.is_none() || d.rule.as_deref() == name;
        let mentions = |msg: &str| {
            msg.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|tok| Some(tok) == name)
        };
        let conds = self.rule_conditions();
        let spans = |r: &str| self.span_of_rule(r);
        let analysis = amos_lint::absint::analyze(&self.catalog);
        let mut out = amos_lint::check_stratification(config, &self.catalog, scope, &|p| {
            self.span_of_pred(p)
        });
        out.extend(
            amos_lint::check_triggering(config, &self.catalog, &self.rule_facts())
                .into_iter()
                .filter(|d| ours(d) || mentions(&d.message)),
        );
        let is_append_only = |rel| self.storage.is_append_only(rel);
        let rule_passes = [
            amos_lint::check_dead_differentials(
                config,
                &self.catalog,
                &conds,
                &is_append_only,
                &spans,
            ),
            amos_lint::check_conditions(config, &self.catalog, &conds, &spans),
        ];
        out.extend(rule_passes.into_iter().flatten().filter(ours));
        out.extend(amos_lint::absint::check_types(
            config,
            &self.catalog,
            &self.types,
            scope,
            &|p| self.span_of_pred(p),
        ));
        let condition_passes = [
            amos_lint::absint::check_provably_empty(
                config,
                &self.catalog,
                &analysis,
                &conds,
                &spans,
            ),
            amos_lint::absint::check_subsumption(config, &self.catalog, &analysis, &conds, &spans),
            amos_lint::absint::check_const_fold(config, &self.catalog, &analysis, &conds, &spans),
        ];
        out.extend(condition_passes.into_iter().flatten().filter(ours));
        out
    }

    fn rule_facts(&self) -> Vec<RuleFacts> {
        self.rule_lint
            .iter()
            .map(|r| RuleFacts {
                name: r.name.clone(),
                span: r.span,
                influents: self.catalog.stored_influents(r.condition),
                writes: r.writes.clone(),
            })
            .collect()
    }

    fn rule_conditions(&self) -> Vec<(String, PredId)> {
        self.rule_lint
            .iter()
            .map(|r| (r.name.clone(), r.condition))
            .collect()
    }

    fn span_of_rule(&self, name: &str) -> Option<Span> {
        self.rule_lint
            .iter()
            .find(|r| r.name == name)
            .and_then(|r| r.span)
    }

    fn span_of_pred(&self, p: PredId) -> Option<Span> {
        if let Some(r) = self.rule_lint.iter().find(|r| r.condition == p) {
            return r.span;
        }
        self.fn_spans.get(self.catalog.name(p)).copied()
    }

    /// Evaluate `f(args…)` and return its (single, smallest if
    /// multi-valued) value.
    pub fn call_function(&self, name: &str, args: &[Value]) -> Result<Value, DbError> {
        self.with_scalar(|s| s.call(name, args.to_vec()))
    }

    /// Run `f` with a scalar evaluator over the stored state as it
    /// stands, with only the interface variables bound.
    fn with_scalar<R>(&self, f: impl FnOnce(&ScalarEval<'_>) -> R) -> R {
        let none = LayerStacks::default();
        let ctx = EvalContext::with_layers(&self.storage, &self.catalog, &none);
        let scope = Scope::top(&self.iface);
        f(&ScalarEval {
            ctx: &ctx,
            scope,
            reads: None,
        })
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// The global interface-variable bindings (`:name` → value), the
    /// scope a session's statements evaluate in; `create instances`
    /// forwarded from a session writes through them.
    pub(crate) fn iface_map(&self) -> &HashMap<String, Value> {
        &self.iface
    }

    pub(crate) fn query_env(&self) -> QueryEnv<'_> {
        QueryEnv {
            catalog: &self.catalog,
            types: &self.types,
            extents: &self.extents,
            iface: &self.iface,
        }
    }

    pub(crate) fn exec_statement(
        &mut self,
        stmt: Statement,
        at: Option<(usize, usize)>,
    ) -> Result<ExecResult, DbError> {
        match stmt {
            Statement::CreateType { name, under } => {
                self.types.create(&name, under.as_deref())?;
                let rel = self.storage.create_relation(format!("{name}_extent"), 1)?;
                let object = self.types.object();
                let pred =
                    self.catalog
                        .define_stored(&format!("{name}_extent"), vec![object], rel, 1)?;
                self.extents.insert(name, pred);
                Ok(ExecResult::Ok)
            }
            Statement::CreateFunction {
                name,
                params,
                results,
                append_only,
                body,
            } => {
                self.create_function(&name, &params, &results, append_only, body, at)?;
                if let Some((line, col)) = at {
                    self.fn_spans.insert(name, Span::new(line, col));
                }
                Ok(ExecResult::Ok)
            }
            Statement::CreateRule {
                name,
                params,
                events,
                condition,
                action,
                priority,
            } => {
                self.create_rule(&name, &params, &events, condition, action, priority, at)?;
                Ok(ExecResult::Ok)
            }
            Statement::Update(_)
            | Statement::CallProc { .. }
            | Statement::CreateInstances { .. } => self.autocommit(stmt),
            Statement::Select(sel) => {
                let rows = self.select_rows(&sel, at, &LayerStacks::default(), None)?;
                Ok(ExecResult::Rows(rows))
            }
            Statement::Activate { rule, args } => {
                let id = self.rules.rule_id(&rule)?;
                let condition = self.rules.rule(id).condition;
                let mut active = self.rules.network().conditions().to_vec();
                if !active.contains(&condition) {
                    active.push(condition);
                }
                // The shape the rebuild will monitor comes first: the
                // gates below judge it, and a refusal puts the old one
                // back.
                let undo = self.shapes.reshape(&mut self.catalog, &active)?;
                let params = match self.activate_gated(id, &rule, &args) {
                    Ok(params) => params,
                    Err(e) => {
                        self.shapes.restore(&mut self.catalog, undo);
                        return Err(e);
                    }
                };
                // Conformance gate: the rebuilt network must agree with
                // the differencing calculus (one Δ₊/Δ₋ per influent
                // occurrence, monotone levels).
                // A violation means the compiler produced a network that
                // could lose or double-count updates — roll the
                // activation back rather than monitor with it.
                let violations = amos_core::verify::verify_network(
                    &self.catalog,
                    &self.storage,
                    self.rules.network(),
                );
                if !violations.is_empty() {
                    self.shapes.restore(&mut self.catalog, undo);
                    self.rules
                        .deactivate(id, &params, &self.catalog, &mut self.storage)?;
                    return Err(DbError::Conformance(
                        violations.iter().map(ToString::to_string).collect(),
                    ));
                }
                Ok(ExecResult::Ok)
            }
            Statement::Deactivate { rule, args } => {
                let id = self.rules.rule_id(&rule)?;
                let params = Tuple::new(self.with_scalar(|s| s.all(&args))?);
                let rule = self.rules.rule(id);
                if rule.activations.iter().all(|p| *p == params) {
                    let condition = rule.condition;
                    let active = self.active_without(condition);
                    self.shapes.reshape(&mut self.catalog, &active)?;
                }
                self.rules
                    .deactivate(id, &params, &self.catalog, &mut self.storage)?;
                Ok(ExecResult::Ok)
            }
            Statement::DropRule(name) => {
                let id = self.rules.rule_id(&name)?;
                let condition = self.rules.rule(id).condition;
                let active = self.active_without(condition);
                self.shapes.retire(&mut self.catalog, condition);
                self.shapes.reshape(&mut self.catalog, &active)?;
                self.rules.drop_rule(id, &self.catalog, &mut self.storage)?;
                self.rule_lint.retain(|r| r.name != name);
                Ok(ExecResult::Ok)
            }
            Statement::ExplainSelect(sel) => Ok(ExecResult::Text(self.explain_select(&sel, at)?)),
            Statement::ExplainRule(name) => Ok(ExecResult::Text(self.explain_rule(&name)?)),
            Statement::Begin => self.begin().map(|()| ExecResult::Ok),
            Statement::Commit => self.commit().map(ExecResult::Committed),
            Statement::Rollback => self.rollback().map(|()| ExecResult::Ok),
        }
    }

    /// The activation gates before the conformance check: refuse a rule
    /// with deny-level lint findings (unsafe, non-stratifiable, …), then
    /// evaluate the parameters and activate, which rebuilds the network.
    fn activate_gated(&mut self, id: RuleId, rule: &str, args: &[Expr]) -> Result<Tuple, DbError> {
        let diags = self.lint_rule(rule)?;
        if amos_lint::has_deny(&diags) {
            return Err(DbError::Lint(diags));
        }
        let params = Tuple::new(self.with_scalar(|s| s.all(args))?);
        self.rules
            .activate(id, params.clone(), &self.catalog, &mut self.storage)?;
        Ok(params)
    }

    /// The monitored conditions other than `condition`.
    fn active_without(&self, condition: PredId) -> Vec<PredId> {
        let active = self.rules.network().conditions().iter().copied();
        active.filter(|&c| c != condition).collect()
    }

    /// Run one data statement — `set` / `add` / `remove`, a procedure
    /// call, `create … instances` — in place, inside the open
    /// transaction.
    fn run_data(&mut self, stmt: Statement) -> Result<(), DbError> {
        let p = match stmt {
            Statement::Update(p) => p,
            Statement::CallProc { name, args } => ProcStmt::Call { name, args },
            Statement::CreateInstances { type_name, names } => {
                return self.create_instances(&type_name, names)
            }
            other => return Err(DbError::Other(format!("`{other}` is not a data statement"))),
        };
        let scope = Scope::top(&self.iface);
        run_in_place(
            &mut self.storage,
            &self.catalog,
            scope,
            &self.procedures,
            &p,
        )
    }

    /// Insert one fresh object per name into the extent of `type_name`
    /// and of every supertype, so `for each <supertype>` (and rules over
    /// it) sees it, and bind the names to them.
    fn create_instances(&mut self, type_name: &str, names: Vec<String>) -> Result<(), DbError> {
        let mut chain_rels = Vec::new();
        let mut ty = Some(self.types.lookup(type_name)?);
        while let Some(t) = ty {
            let def = self.types.def(t);
            if !def.builtin {
                let pred = *self
                    .extents
                    .get(&def.name)
                    .ok_or_else(|| DbError::Other(format!("type `{}` has no extent", def.name)))?;
                chain_rels.push(
                    self.catalog
                        .def(pred)
                        .stored_rel()
                        .expect("extent is stored"),
                );
            }
            ty = def.supertype;
        }
        if chain_rels.is_empty() {
            return Err(DbError::Other(format!(
                "cannot create instances of builtin type `{type_name}`"
            )));
        }
        for n in names {
            let oid = self.storage.fresh_oid();
            for &rel in &chain_rels {
                self.storage
                    .insert(rel, Tuple::new(vec![Value::Oid(oid)]))?;
            }
            self.iface.insert(n, Value::Oid(oid));
        }
        Ok(())
    }

    /// Run a data statement inside the open transaction (under
    /// immediate processing, with a rule check right after it), or
    /// autocommit it when none is open — the usual active-DBMS
    /// semantics.
    fn autocommit(&mut self, stmt: Statement) -> Result<ExecResult, DbError> {
        if !self.storage.in_transaction() {
            return self
                .implicit_txn(stmt, Self::commit)
                .map(ExecResult::Committed);
        }
        self.run_data(stmt)?;
        if self.options.immediate {
            return Ok(ExecResult::Committed(self.check_now()?));
        }
        Ok(ExecResult::Ok)
    }

    /// Autocommit one data statement: open a transaction, run `stmt`,
    /// end with `commit` — [`Amos::commit`] embedded,
    /// [`Amos::commit_deferred_durability`] for a session — and roll
    /// back if either fails: a failed statement — or a failed commit
    /// (check phase, or a WAL error on the embedded path) — leaves the
    /// implicit transaction open; undo it so autocommit is atomic. With
    /// deferred durability a WAL error only surfaces in
    /// [`CommitWaiter::wait`], after the change is published: that is
    /// `commit;`'s "durability unknown", not a rollback.
    pub(crate) fn implicit_txn<T>(
        &mut self,
        stmt: Statement,
        commit: impl FnOnce(&mut Self) -> Result<T, DbError>,
    ) -> Result<T, DbError> {
        self.begin()?;
        self.run_data(stmt)
            .and_then(|()| commit(self))
            .or_else(|e| {
                if self.storage.in_transaction() {
                    self.rollback()?;
                }
                Err(e)
            })
    }

    /// Commit the open transaction: run the deferred rule check phase
    /// (which maintains the views), then make the changes durable.
    pub fn commit(&mut self) -> Result<CheckSummary, DbError> {
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        self.storage.commit()?;
        Ok(summary)
    }

    /// Commit with deferred durability (the pipelined session path):
    /// identical to [`Amos::commit`] — check phase, apply — except
    /// the WAL batch only enters the group-commit buffer. The caller
    /// must block on the returned [`CommitWaiter`] *after* releasing the
    /// engine lock; `None` means nothing needed logging (no WAL, or a
    /// no-op transaction).
    pub fn commit_deferred_durability(
        &mut self,
    ) -> Result<(CheckSummary, Option<CommitWaiter>), DbError> {
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        let waiter = self.storage.commit_buffered()?;
        Ok((summary, waiter))
    }

    /// Run the rule check phase *now*, inside the open transaction —
    /// immediate rule processing (§1). Maintains views, propagates the
    /// Δ-sets accumulated since the last check, and executes triggered
    /// rules; the transaction stays open.
    pub fn check_now(&mut self) -> Result<CheckSummary, DbError> {
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        Ok(summary)
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> Result<(), DbError> {
        self.storage.begin()?;
        Ok(())
    }

    /// Roll the open transaction back. When a check-phase pass ran in
    /// it, the state kept beside storage — maintained views, naive
    /// materializations — is resynchronized with the restored state
    /// ([`RuleManager::resync`]).
    pub fn rollback(&mut self) -> Result<(), DbError> {
        let seq = self.storage.commit_seq();
        self.storage.rollback()?;
        if self.rules.ran_pass_at(seq) {
            self.rules.resync(&self.catalog, &self.storage)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attach a write-ahead log directory: replay any snapshot + WAL
    /// found there (crash recovery), then log every later commit to it.
    /// Call before or after running the schema script — recovered
    /// relations are adopted by matching `create …` statements. The
    /// state kept beside storage is resynchronized with the recovered
    /// state ([`RuleManager::resync`]): maintained views are
    /// re-initialized, and naive materializations dropped, to be derived
    /// again by the next pass.
    pub fn attach_wal(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        config: WalConfig,
    ) -> Result<RecoveryInfo, DbError> {
        let info = self.storage.attach_wal(dir, config)?;
        self.rules.resync(&self.catalog, &self.storage)?;
        Ok(info)
    }

    /// Whether a WAL is attached.
    pub fn wal_attached(&self) -> bool {
        self.storage.wal_attached()
    }

    /// Durability counters of the attached WAL (fsyncs, batch-size
    /// histogram, woken commit waiters). `None` without a WAL.
    pub fn wal_metrics(&self) -> Option<WalMetrics> {
        self.storage.wal_metrics()
    }

    /// Write a snapshot of all base relations and truncate the WAL
    /// (bounds recovery time). No transaction may be open.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        self.storage.checkpoint()?;
        Ok(())
    }

    /// Lift a rule's quarantine (by name) so it can trigger again.
    pub fn clear_quarantine(&mut self, rule: &str) -> Result<bool, DbError> {
        let id = self.rules.rule_id(rule)?;
        Ok(self.rules.clear_quarantine(id))
    }

    /// Install a deterministic fault plan across the engine: storage WAL
    /// faults, rule-action failures, and propagation faults (test-only).
    #[cfg(feature = "fault-injection")]
    pub fn set_fault_plan(&mut self, plan: Arc<amos_storage::fault::FaultPlan>) {
        self.rules.set_fault_plan(Arc::clone(&plan));
        if let Some(w) = self.storage.wal_mut() {
            w.set_fault_plan(plan);
        }
    }

    fn create_function(
        &mut self,
        name: &str,
        params: &[TypedVar],
        results: &[String],
        append_only: bool,
        body: Option<Select>,
        at: Option<(usize, usize)>,
    ) -> Result<(), DbError> {
        let mut signature = Vec::with_capacity(params.len() + results.len());
        for p in params {
            signature.push(self.types.lookup(&p.type_name)?);
        }
        for r in results {
            signature.push(self.types.lookup(r)?);
        }
        match body {
            None => {
                let arity = signature.len();
                let key_arity = params.len();
                let rel = self.storage.create_relation(name, arity)?;
                if key_arity > 0 && key_arity < arity {
                    // `set` updates probe by key.
                    let key_cols: Vec<usize> = (0..key_arity).collect();
                    self.storage.ensure_index(rel, &key_cols);
                }
                self.catalog
                    .define_stored(name, signature, rel, key_arity)?;
                if append_only {
                    self.storage.set_append_only(rel, true);
                }
            }
            Some(sel) => {
                if sel.exprs.len() != results.len() {
                    return Err(DbError::Parse(ParseError::unpositioned(format!(
                        "function `{name}` declares {} results but selects {}",
                        results.len(),
                        sel.exprs.len()
                    ))));
                }
                // Two-phase definition so the body can reference the
                // function itself — linear recursion (`reach`-style
                // transitive closure, §5 note 1). The name is declared
                // (empty clauses), the body compiled against the catalog
                // that now contains it, and the clauses installed with
                // linearity validation.
                let pred = self.catalog.define_derived(name, signature, Vec::new())?;
                let q = compile_select_at(&self.query_env(), &sel, params, at)?;
                self.catalog.replace_clauses(pred, q.clauses)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn create_rule(
        &mut self,
        name: &str,
        params: &[TypedVar],
        events: &[String],
        condition: amos_amosql::ast::RuleCondition,
        action: Vec<ProcStmt>,
        priority: i32,
        at: Option<(usize, usize)>,
    ) -> Result<(), DbError> {
        let q = compile_predicate_at(
            &self.query_env(),
            &condition.for_each,
            &condition.predicate,
            params,
            at,
        )?;
        let object = self.types.object();
        let condition_pred = self.shapes.define_condition(
            &mut self.catalog,
            &format!("cnd_{name}"),
            vec![object; q.head_arity],
            q.clauses,
        )?;

        // Extract the stored-function writes for the L003 triggering-
        // graph analysis before the action closure consumes the AST:
        // `set` both deletes and inserts, `add` inserts, `remove`
        // deletes. Calls to registered procedures are opaque.
        let mut writes: Vec<RuleWrite> = Vec::new();
        for stmt in &action {
            let (func, inserts, deletes) = match stmt {
                ProcStmt::Set { func, .. } => (func, true, true),
                ProcStmt::Add { func, .. } => (func, true, false),
                ProcStmt::Remove { func, .. } => (func, false, true),
                ProcStmt::Call { .. } => continue,
            };
            if let Ok(pred) = self.catalog.lookup(func) {
                if self.catalog.def(pred).stored_rel().is_some() {
                    if let Some(w) = writes.iter_mut().find(|w| w.pred == pred) {
                        w.inserts |= inserts;
                        w.deletes |= deletes;
                    } else {
                        writes.push(RuleWrite {
                            pred,
                            inserts,
                            deletes,
                        });
                    }
                }
            }
        }

        // Compile the action into a closure over the shared-variable
        // environment (params then for-each vars — the order of the
        // condition head).
        let var_names: Vec<String> = params
            .iter()
            .map(|p| p.var.clone())
            .chain(condition.for_each.iter().map(|tv| tv.var.clone()))
            .collect();
        let iface_snapshot = self.iface.clone();
        let procedures = Arc::clone(&self.procedures);
        let action_fn: ActionFn = Arc::new(move |ctx, instance| {
            let scope = Scope {
                vars: &var_names,
                vals: instance.values(),
                iface: &iface_snapshot,
            };
            for stmt in &action {
                run_in_place(ctx.storage, ctx.catalog, scope, &procedures, stmt)
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let rule_id = self.rules.define_rule(
            name,
            condition_pred,
            params.len(),
            action_fn,
            priority,
            RuleSemantics::default(),
        )?;
        if !events.is_empty() {
            let mut rels = std::collections::HashSet::new();
            for ev in events {
                let pred = self
                    .catalog
                    .lookup(ev)
                    .map_err(|_| DbError::Other(format!("unknown event function `{ev}`")))?;
                let rel = self.catalog.def(pred).stored_rel().ok_or_else(|| {
                    DbError::Other(format!("event function `{ev}` is not stored"))
                })?;
                rels.insert(rel);
            }
            self.rules.set_events(rule_id, rels);
        }
        self.rule_lint.push(RuleLintInfo {
            name: name.to_string(),
            condition: condition_pred,
            writes,
            span: at.map(|(line, col)| Span::new(line, col)),
        });
        Ok(())
    }

    /// Render the compiled clauses and execution plans of a query.
    fn explain_select(&self, sel: &Select, at: Option<(usize, usize)>) -> Result<String, DbError> {
        let q = compile_select_at(&self.query_env(), sel, &[], at)?;
        let mut out = String::new();
        for (i, clause) in q.clauses.iter().enumerate() {
            out.push_str(&format!(
                "clause {i} ({} vars, {} literals):\n",
                clause.n_vars,
                clause.body.len()
            ));
            let stats = LiveStats::of(&self.storage);
            let plan = compile_clause(&self.catalog, clause, &Default::default(), &stats)?;
            out.push_str(&plan.render(&self.catalog));
        }
        Ok(out)
    }

    /// Render a rule's monitoring setup: condition predicate, network
    /// slice, and every partial differential with its plan.
    fn explain_rule(&self, name: &str) -> Result<String, DbError> {
        let id = self.rules.rule_id(name)?;
        let rule = self.rules.rule(id);
        let mut out = String::new();
        out.push_str(&format!(
            "rule {name}: condition {} ({} params, {:?} semantics, priority {})\n",
            self.catalog.name(rule.condition),
            rule.n_params,
            rule.semantics,
            rule.priority,
        ));
        if let Some(reason) = self.rules.quarantine_reason(id) {
            out.push_str(&format!(
                "  QUARANTINED: {reason}\n  (the action failed; updates were rolled back to the \
                 pre-action savepoint — fix the cause and lift the quarantine to resume)\n"
            ));
        }
        let diags = self.lint_rule(name)?;
        if !diags.is_empty() {
            out.push_str("lint:\n");
            for d in &diags {
                out.push_str(&format!("  {d}\n"));
            }
        }
        if !rule.is_active() {
            out.push_str("  (inactive — activate it to build the network)\n");
            return Ok(out);
        }
        out.push_str("propagation network:\n");
        out.push_str(&self.rules.network().render(&self.catalog));
        out.push_str("differentials and plans:\n");
        for (i, d) in self.rules.network().differentials().iter().enumerate() {
            if d.affected != rule.condition {
                continue;
            }
            out.push_str(&format!("{}\n", d.display_name(&self.catalog)));
            let key = PlanKey::Differential(i as u32);
            let plan = (self.rules.planner()).peek(key, &self.catalog, &d.clause, &self.storage)?;
            for line in plan.render(&self.catalog).lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if let Some(metrics) = self.rules.last_trace().last_metrics() {
            out.push_str("last propagation pass:\n");
            for line in metrics.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        Ok(out)
    }

    /// Compile `sel` and evaluate it over the stored state as `layers`
    /// show it (a session transaction's snapshot; empty outside one),
    /// recording its scans in `reads` when given. A compile error
    /// carries the statement's position `at`.
    pub(crate) fn select_rows(
        &self,
        sel: &Select,
        at: Option<(usize, usize)>,
        layers: &LayerStacks<'_>,
        reads: Option<&RefCell<ReadTrace>>,
    ) -> Result<Vec<Tuple>, DbError> {
        let q = compile_select_at(&self.query_env(), sel, &[], at)?;
        if let Some(reads) = reads {
            // A select scans its stored relations (directly or through
            // derived predicates), so the whole relation is a dependency.
            let mut reads = reads.borrow_mut();
            for lit in q.clauses.iter().flat_map(|c| &c.body) {
                if let Literal::Pred { pred, .. } = lit {
                    reads.record_scan(&self.catalog, *pred);
                }
            }
        }
        let ctx = EvalContext::with_layers(&self.storage, &self.catalog, layers);
        let stats = LiveStats::of(&self.storage);
        let mut rows: Vec<Tuple> = Vec::new();
        for clause in &q.clauses {
            let plan = compile_clause(&self.catalog, clause, &Default::default(), &stats)?;
            ctx.plan_heads(&plan, StateEpoch::New, 0, &mut rows)?;
        }
        rows.sort();
        rows.dedup();
        Ok(rows)
    }
}

/// Relations a session transaction has read, at two granularities:
/// whole-relation (scans, derived-function calls) and conflict-key
/// (stored-function probes). Commit-time validation intersects these
/// with the write-sets of concurrently committed transactions.
#[derive(Debug, Default)]
pub(crate) struct ReadTrace {
    /// Relations read in full.
    pub whole: HashSet<RelId>,
    /// Per-relation conflict keys probed (key-column prefix tuples).
    pub keys: HashMap<RelId, HashSet<Tuple>>,
}

impl ReadTrace {
    /// Record the read footprint of a stored/derived function call with
    /// fully-bound arguments: key-granular for stored functions (the
    /// probed key is the conflict key), whole-relation for every stored
    /// influent of a derived function.
    pub(crate) fn record_call(&mut self, catalog: &Catalog, pred: PredId, args: &[Value]) {
        match catalog.def(pred).kind {
            PredKind::Stored { rel, key_arity } => self.record_key(rel, key_arity, args),
            PredKind::Derived(_) => self.record_scan(catalog, pred),
        }
    }

    /// Record a read of `rel` at the key that leads `vals`: the key
    /// columns of a stored function, or the whole relation when it has
    /// no key.
    pub(crate) fn record_key(&mut self, rel: RelId, key_arity: usize, vals: &[Value]) {
        match vals.get(..key_arity) {
            Some(key) if key_arity > 0 => {
                let keys = self.keys.entry(rel).or_default();
                keys.insert(Tuple::new(key.to_vec()));
            }
            _ => {
                self.whole.insert(rel);
            }
        }
    }

    /// Record the read footprint of an unbounded scan over `pred` (a
    /// select clause literal): whole-relation on the backing relation of
    /// a stored predicate, or on every stored influent of a derived one.
    pub(crate) fn record_scan(&mut self, catalog: &Catalog, pred: PredId) {
        match &catalog.def(pred).kind {
            PredKind::Stored { rel, .. } => {
                self.whole.insert(*rel);
            }
            PredKind::Derived(_) => {
                for p in catalog.stored_influents(pred) {
                    if let Some(rel) = catalog.def(p).stored_rel() {
                        self.whole.insert(rel);
                    }
                }
            }
        }
    }
}

/// Where the names of a statement resolve: the variables a rule
/// instance binds (none for a top-level statement), then the interface
/// variables.
#[derive(Clone, Copy)]
pub(crate) struct Scope<'a> {
    pub vars: &'a [String],
    pub vals: &'a [Value],
    pub iface: &'a HashMap<String, Value>,
}

impl<'a> Scope<'a> {
    /// A top-level statement's scope: interface variables only.
    pub(crate) fn top(iface: &'a HashMap<String, Value>) -> Self {
        Scope {
            vars: &[],
            vals: &[],
            iface,
        }
    }
}

/// Scalar-expression evaluator over one evaluation context — the state
/// it reads (session transactions read through their snapshot layers)
/// and the caches every stored-function call of the statement shares;
/// the storage borrow is immutable for as long as `ctx` lives, so its
/// memo table is valid for exactly that long — plus an optional read
/// trace (commit-time conflict validation needs the read footprint).
pub(crate) struct ScalarEval<'a> {
    pub ctx: &'a EvalContext<'a>,
    pub scope: Scope<'a>,
    pub reads: Option<&'a RefCell<ReadTrace>>,
}

/// What kind of write a data statement makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// Replace every tuple at the key.
    Set,
    /// Insert the tuple.
    Add,
    /// Delete the tuple.
    Remove,
}

/// The write a `set` / `add` / `remove` statement makes: the whole
/// tuple, and the stored relation and key arity it goes to.
pub(crate) struct Write {
    pub rel: RelId,
    pub key_arity: usize,
    pub kind: WriteKind,
    pub tuple: Tuple,
}

impl Write {
    /// Land the write in place, through the storage calls the check
    /// phase sees as physical events (§4.1).
    fn land(self, storage: &mut Storage) -> Result<(), StorageError> {
        match self.kind {
            WriteKind::Set => {
                let (key, rest) = self.tuple.values().split_at(self.key_arity);
                storage.set_functional(self.rel, key, rest)
            }
            WriteKind::Add => storage.insert(self.rel, self.tuple).map(drop),
            WriteKind::Remove => storage.delete(self.rel, &self.tuple).map(drop),
        }
    }
}

/// A data statement evaluated: the write it makes, or a procedure call
/// with its argument values.
pub(crate) enum Evaluated<'s> {
    Write(Write),
    Call(&'s str, Vec<Value>),
}

impl ScalarEval<'_> {
    pub(crate) fn eval(&self, expr: &Expr) -> Result<Value, DbError> {
        match expr {
            Expr::Var(n) => {
                let at = self.scope.vars.iter().rposition(|v| v == n);
                at.and_then(|i| self.scope.vals.get(i))
                    .cloned()
                    .ok_or_else(|| DbError::Other(format!("unbound variable `{n}`")))
            }
            Expr::IfaceVar(n) => self
                .scope
                .iface
                .get(n)
                .cloned()
                .ok_or_else(|| DbError::Other(format!("unbound interface variable `:{n}`"))),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Real(r) => Ok(Value::real(*r)?),
            Expr::Str(s) => Ok(Value::str(s.as_str())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Arith { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                Ok(op.apply(&l, &r)?)
            }
            Expr::Neg(e) => {
                let v = self.eval(e)?;
                Ok(v.neg()?)
            }
            Expr::Cmp { op, lhs, rhs } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                Ok(Value::Bool(op.apply(&l, &r)?))
            }
            Expr::And(a, b) => {
                let l = self.eval(a)?.as_bool()?;
                let r = self.eval(b)?.as_bool()?;
                Ok(Value::Bool(l && r))
            }
            Expr::Or(a, b) => {
                let l = self.eval(a)?.as_bool()?;
                let r = self.eval(b)?.as_bool()?;
                Ok(Value::Bool(l || r))
            }
            Expr::Not(e) => {
                let v = self.eval(e)?.as_bool()?;
                Ok(Value::Bool(!v))
            }
            Expr::Call { func, args } => self.call(func, self.all(args)?),
        }
    }

    /// Evaluate every expression of `exprs`, in order.
    pub(crate) fn all(&self, exprs: &[Expr]) -> Result<Vec<Value>, DbError> {
        exprs.iter().map(|e| self.eval(e)).collect()
    }

    /// `func(args…)`: its single value, the smallest if it is
    /// multi-valued.
    pub(crate) fn call(&self, func: &str, args: Vec<Value>) -> Result<Value, DbError> {
        let catalog = self.ctx.catalog;
        let pred = catalog
            .lookup(func)
            .map_err(|_| DbError::Other(format!("unknown function `{func}`")))?;
        let arity = catalog.def(pred).arity;
        if args.len() + 1 != arity {
            return Err(DbError::Other(format!(
                "function `{func}` takes {} arguments, {} supplied",
                arity - 1,
                args.len()
            )));
        }
        if let Some(reads) = self.reads {
            reads.borrow_mut().record_call(catalog, pred, &args);
        }
        let mut pattern: Vec<Option<Value>> = args.into_iter().map(Some).collect();
        pattern.push(None);
        let results = self.ctx.eval_pred(pred, &pattern, StateEpoch::New)?;
        let vals = results.into_iter().map(|t| t[arity - 1].clone());
        vals.min().ok_or_else(|| {
            DbError::Other(format!("no value stored for `{func}` at these arguments"))
        })
    }

    /// The statement executor's one evaluation step, shared by every
    /// door into the engine: resolve the statement's stored function,
    /// evaluate its arguments, check its arity — the key count of a
    /// `set`, the tuple width of every kind — and return the write it
    /// makes. A procedure call evaluates its arguments alone. Each door
    /// lands the result its own way: in place, or folded into a session
    /// transaction's write-set.
    pub(crate) fn statement<'s>(&self, stmt: &'s ProcStmt) -> Result<Evaluated<'s>, DbError> {
        let (kind, func, args, value) = match stmt {
            ProcStmt::Call { name, args } => return Ok(Evaluated::Call(name, self.all(args)?)),
            ProcStmt::Set { func, args, value } => (WriteKind::Set, func, args, value),
            ProcStmt::Add { func, args, value } => (WriteKind::Add, func, args, value),
            ProcStmt::Remove { func, args, value } => (WriteKind::Remove, func, args, value),
        };
        let (rel, key_arity) = resolve_stored(self.ctx.catalog, func)?;
        let mut vals = self.all(args)?;
        if kind == WriteKind::Set && vals.len() != key_arity {
            return Err(DbError::Other(format!(
                "`set {func}` expects {key_arity} key arguments, got {}",
                vals.len()
            )));
        }
        vals.push(self.eval(value)?);
        let relation = self.ctx.storage.relation(rel);
        if vals.len() != relation.arity() {
            return Err(DbError::Storage(StorageError::ArityMismatch {
                relation: relation.name().to_string(),
                expected: relation.arity(),
                found: vals.len(),
            }));
        }
        let tuple = Tuple::new(vals);
        Ok(Evaluated::Write(Write {
            rel,
            key_arity,
            kind,
            tuple,
        }))
    }
}

/// The in-place door of the statement executor — embedded statements,
/// served autocommits and rule actions: evaluate `stmt` against
/// `storage` as it stands, then land its write there or call the
/// procedure.
fn run_in_place(
    storage: &mut Storage,
    catalog: &Catalog,
    scope: Scope<'_>,
    procedures: &Procedures,
    stmt: &ProcStmt,
) -> Result<(), DbError> {
    let evaluated = {
        let none = LayerStacks::default();
        let ctx = EvalContext::with_layers(storage, catalog, &none);
        let reads = None;
        ScalarEval {
            ctx: &ctx,
            scope,
            reads,
        }
        .statement(stmt)?
    };
    match evaluated {
        Evaluated::Write(w) => Ok(w.land(storage)?),
        Evaluated::Call(name, args) => {
            let proc = procedures
                .lock()
                .expect("procedures lock")
                .get(name)
                .cloned();
            let proc = proc.ok_or_else(|| DbError::Other(format!("unknown procedure `{name}`")))?;
            proc(&mut ProcCtx { storage, catalog }, &args).map_err(DbError::Other)
        }
    }
}

fn resolve_stored(catalog: &Catalog, func: &str) -> Result<(RelId, usize), DbError> {
    let unknown = |_| DbError::Other(format!("unknown function `{func}`"));
    match catalog.def(catalog.lookup(func).map_err(unknown)?).kind {
        PredKind::Stored { rel, key_arity } => Ok((rel, key_arity)),
        _ => Err(DbError::Other(format!("`{func}` is not a stored function"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_updates_and_queries() {
        let mut db = Amos::new();
        db.execute(
            r#"
            create type item;
            create function quantity(item i) -> integer;
            create item instances :a, :b;
            set quantity(:a) = 10;
            set quantity(:b) = 20;
        "#,
        )
        .unwrap();
        let rows = db.query("select quantity(:a);").unwrap();
        assert_eq!(rows, vec![Tuple::new(vec![Value::Int(10)])]);
        let rows = db
            .query("select i for each item i where quantity(i) > 15;")
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], *db.iface_value("b").unwrap());
    }

    #[test]
    fn derived_functions_evaluate() {
        let mut db = Amos::new();
        db.execute(
            r#"
            create type item;
            create function price(item i) -> integer;
            create function tax(item i) -> integer as select price(i) / 5;
            create item instances :x;
            set price(:x) = 100;
        "#,
        )
        .unwrap();
        let rows = db.query("select tax(:x);").unwrap();
        assert_eq!(rows, vec![Tuple::new(vec![Value::Int(20)])]);
    }

    /// `drop rule` frees the rule's name, also for a condition of another
    /// parameter and `for each` arity, and the re-created rule fires.
    #[test]
    fn dropped_rule_name_can_be_reused() {
        let mut db = Amos::new();
        let fired: Arc<Mutex<Vec<Vec<Value>>>> = Arc::default();
        let sink = Arc::clone(&fired);
        db.register_procedure("note", move |_ctx, args| {
            sink.lock().unwrap().push(args.to_vec());
            Ok(())
        });
        db.execute(
            r#"
            create type item;
            create function quantity(item i) -> integer;
            create item instances :a, :b;
            create rule r1() as when for each item i where quantity(i) < 5 do note(i);
            activate r1();
            drop rule r1;
            create rule r1(item k) as
                when for each item i, item j where quantity(i) < quantity(k) and j = k
                do note(i, j);
            set quantity(:b) = 50;
            activate r1(:b);
            set quantity(:a) = 1;
        "#,
        )
        .unwrap();
        let [a, b] = ["a", "b"].map(|v| db.iface_value(v).unwrap().clone());
        assert_eq!(*fired.lock().unwrap(), [vec![a, b]]);
    }

    #[test]
    fn unknown_names_error() {
        let mut db = Amos::new();
        assert!(db.execute("select nosuch(1);").is_err());
        assert!(db.execute("set nosuch(1) = 2;").is_err());
        assert!(db.execute("activate nosuch();").is_err());
        assert!(db.execute("create nosuchtype instances :x;").is_err());
    }

    #[test]
    fn autocommit_rolls_back_failed_updates() {
        let mut db = Amos::new();
        db.execute(
            r#"
            create type item;
            create function quantity(item i) -> integer;
            create item instances :a;
            set quantity(:a) = 1;
        "#,
        )
        .unwrap();
        // A procedure that updates then fails: autocommit must undo.
        db.register_procedure("boom", |ctx, _args| {
            let rel = ctx.catalog.lookup("quantity").unwrap();
            let rel = ctx.catalog.def(rel).stored_rel().unwrap();
            ctx.storage
                .set_functional(rel, &[Value::Int(999)], &[Value::Int(1)])
                .map_err(|e| e.to_string())?;
            Err("boom".to_string())
        });
        assert!(db.execute("boom(0);").is_err());
        assert!(!db.storage().in_transaction());
        let rows = db.query("select quantity(:a);").unwrap();
        assert_eq!(rows.len(), 1, "original value intact, junk rolled back");
    }
}

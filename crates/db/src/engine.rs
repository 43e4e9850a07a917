//! The AMOS engine: statement execution, scalar evaluation, rule
//! wiring, and transaction/check-phase orchestration.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

use amos_amosql::ast::{Expr, ProcStmt, Select, Statement, TypedVar};
use amos_amosql::compiler::{compile_predicate_at, compile_select, compile_select_at, QueryEnv};
use amos_amosql::parser::parse_spanned;
use amos_amosql::ParseError;
use amos_core::aggregate::{AggFn, AggregateView};
use amos_core::maintained::{MaintainedAggregate, SourceDeltas, UserView};
use amos_core::propagate::ExecStrategy;
use amos_core::rules::{
    ActionFn, CheckSummary, MonitorMode, RuleManager, RuleSemantics, StrategyPin,
};
use amos_lint::{Diagnostic, LintConfig, RuleFacts, RuleWrite, Span};
use amos_objectlog::catalog::{Catalog, ForeignFn, PredId, PredKind};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_objectlog::expand::{expand_clause, ExpandOptions};
use amos_objectlog::plan::compile_clause;
use amos_storage::{
    CommitWaiter, RecoveryInfo, RelId, Savepoint, StateEpoch, Storage, WalConfig, WalMetrics,
};
use amos_types::{Tuple, TypeRegistry, Value};

use crate::error::DbError;

/// How rule conditions are prepared at rule-creation time, which shapes
/// the propagation network (§4.3 vs §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetworkPrep {
    /// Expand derived sub-functions fully — the AMOS default, producing
    /// the flat network of fig. 2.
    #[default]
    Flat,
    /// Keep derived sub-functions as intermediate nodes — the bushy,
    /// node-sharing network of fig. 1 / §7.1.
    Bushy,
}

/// Engine construction options, set once in [`Amos::with_options`] and
/// read back with [`Amos::options`]. Each field is either user-visible
/// behaviour or the reference side of an equivalence oracle; the
/// defaults run the paper's method.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Condition preparation style.
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
    /// Abstract-interpretation pruning (on by default): differentials
    /// whose differenced clause is provably empty under the interval /
    /// constant analysis (L007) are dropped from the network, and the
    /// inferred column bounds feed the adaptive planner as static NDV
    /// floors. The conformance verifier mirrors the same entitlements,
    /// so pruned networks still verify.
    pub semantic_pruning: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            network_prep: NetworkPrep::default(),
            immediate: false,
            propagation: ExecStrategy::default(),
            lint_level: LintConfig::default(),
            semantic_pruning: true,
        }
    }
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

struct ViewReg {
    view: Box<dyn UserView>,
    backing: RelId,
    sources: Vec<RelId>,
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
    views: Vec<ViewReg>,
    rule_lint: Vec<RuleLintInfo>,
    fn_spans: HashMap<String, Span>,
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
        rules.semantic_pruning = options.semantic_pruning;
        Amos {
            storage: Storage::new(),
            catalog: Catalog::new(),
            types: TypeRegistry::new(),
            rules,
            extents: HashMap::new(),
            iface: HashMap::new(),
            procedures: Arc::new(Mutex::new(HashMap::new())),
            views: Vec::new(),
            rule_lint: Vec::new(),
            fn_spans: HashMap::new(),
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

    /// Register a foreign function (a computed predicate, the paper's
    /// Lisp/C foreign functions — here a Rust closure). `arg_types` and
    /// `result_type` are type names.
    pub fn register_foreign(
        &mut self,
        name: &str,
        arg_types: &[&str],
        result_type: &str,
        f: ForeignFn,
    ) -> Result<(), DbError> {
        let mut signature = Vec::with_capacity(arg_types.len() + 1);
        for t in arg_types {
            signature.push(self.types.lookup(t)?);
        }
        signature.push(self.types.lookup(result_type)?);
        self.catalog.define_foreign(name, signature, f)?;
        Ok(())
    }

    /// Register an incrementally maintained aggregate
    /// `name(group…) -> value` = `agg(value_col of source_fn)` grouped
    /// by `group_cols` (§8 extension). The aggregate becomes an ordinary
    /// stored function: rules can monitor conditions over it and the
    /// engine maintains it at every commit.
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
    /// every commit. The result is materialized into an ordinary stored
    /// function named `name`, so rule conditions can monitor it.
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
            if t.arity() != arity {
                return Err(DbError::Other(format!(
                    "view `{name}` produced a tuple of arity {}, declared {arity}",
                    t.arity()
                )));
            }
            self.storage.insert(backing, t)?;
        }
        let sources = view.sources();
        for &rel in &sources {
            self.rules.pinned.insert(rel);
            self.storage.monitor(rel);
        }
        self.views.push(ViewReg {
            view,
            backing,
            sources,
        });
        Ok(())
    }

    /// Switch the condition-monitoring implementation (incremental /
    /// naive / hybrid). Takes effect from the next activation or check.
    pub fn set_monitor_mode(&mut self, mode: MonitorMode) {
        self.rules.mode = mode;
    }

    /// Switch the §7.2 correction-check level used by propagation passes
    /// (raw / nervous / strict — ablation knob). Takes effect from the
    /// next pass.
    pub fn set_check_level(&mut self, level: amos_core::CheckLevel) {
        self.rules.check = level;
    }

    /// Instrumentation of the most recent propagation pass, if any.
    pub fn last_pass_metrics(&self) -> Option<&amos_metrics::PassMetrics> {
        self.rules.last_metrics()
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
    /// directly to exclude parsing from timings).
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
        let config = &self.options.lint_level;
        let mut out = Vec::new();
        out.extend(amos_lint::check_stratification(
            config,
            &self.catalog,
            None,
            &|p| self.span_of_pred(p),
        ));
        out.extend(amos_lint::check_triggering(
            config,
            &self.catalog,
            &self.rule_facts(),
        ));
        let conds = self.rule_conditions();
        out.extend(amos_lint::check_dead_differentials(
            config,
            &self.catalog,
            &conds,
            &|rel| self.storage.is_append_only(rel),
            &|r| self.span_of_rule(r),
        ));
        out.extend(amos_lint::check_conditions(
            config,
            &self.catalog,
            &conds,
            &|r| self.span_of_rule(r),
        ));
        out.extend(amos_lint::absint::check_types(
            config,
            &self.catalog,
            &self.types,
            None,
            &|p| self.span_of_pred(p),
        ));
        let analysis = amos_lint::absint::analyze(&self.catalog);
        out.extend(amos_lint::absint::check_provably_empty(
            config,
            &self.catalog,
            &analysis,
            &conds,
            &|r| self.span_of_rule(r),
        ));
        out.extend(amos_lint::absint::check_subsumption(
            config,
            &self.catalog,
            &analysis,
            &conds,
            &|r| self.span_of_rule(r),
        ));
        out.extend(amos_lint::absint::check_const_fold(
            config,
            &self.catalog,
            &analysis,
            &conds,
            &|r| self.span_of_rule(r),
        ));
        out
    }

    /// Run the lint passes scoped to one rule: stratification restricted
    /// to predicates reachable from its condition, triggering findings
    /// that involve the rule, and its own dead-differential and
    /// condition findings. This is the set `activate` gates on.
    pub fn lint_rule(&self, name: &str) -> Result<Vec<Diagnostic>, DbError> {
        let info = self
            .rule_lint
            .iter()
            .find(|r| r.name == name)
            .ok_or_else(|| DbError::Other(format!("unknown rule `{name}`")))?;
        let config = &self.options.lint_level;
        let mut out = Vec::new();
        out.extend(amos_lint::check_stratification(
            config,
            &self.catalog,
            Some(&[info.condition]),
            &|p| self.span_of_pred(p),
        ));
        // Triggering cycles span rules: keep findings attributed to this
        // rule or whose cycle rendering names it.
        let mentions = |msg: &str| {
            msg.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|tok| tok == name)
        };
        out.extend(
            amos_lint::check_triggering(config, &self.catalog, &self.rule_facts())
                .into_iter()
                .filter(|d| d.rule.as_deref() == Some(name) || mentions(&d.message)),
        );
        let own = vec![(info.name.clone(), info.condition)];
        out.extend(amos_lint::check_dead_differentials(
            config,
            &self.catalog,
            &own,
            &|rel| self.storage.is_append_only(rel),
            &|_| info.span,
        ));
        out.extend(
            amos_lint::check_conditions(config, &self.catalog, &self.rule_conditions(), &|r| {
                self.span_of_rule(r)
            })
            .into_iter()
            .filter(|d| d.rule.as_deref() == Some(name)),
        );
        out.extend(amos_lint::absint::check_types(
            config,
            &self.catalog,
            &self.types,
            Some(&[info.condition]),
            &|p| self.span_of_pred(p),
        ));
        // The abstract-interpretation condition passes run over the
        // full rule set (L008 compares conditions pairwise) and are
        // filtered down to findings anchored on this rule.
        let analysis = amos_lint::absint::analyze(&self.catalog);
        let conds = self.rule_conditions();
        let spans = |r: &str| self.span_of_rule(r);
        out.extend(
            amos_lint::absint::check_provably_empty(
                config,
                &self.catalog,
                &analysis,
                &conds,
                &spans,
            )
            .into_iter()
            .chain(amos_lint::absint::check_subsumption(
                config,
                &self.catalog,
                &analysis,
                &conds,
                &spans,
            ))
            .chain(amos_lint::absint::check_const_fold(
                config,
                &self.catalog,
                &analysis,
                &conds,
                &spans,
            ))
            .filter(|d| d.rule.as_deref() == Some(name)),
        );
        Ok(out)
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
        let pred = self
            .catalog
            .lookup(name)
            .map_err(|_| DbError::Other(format!("unknown function `{name}`")))?;
        let arity = self.catalog.def(pred).arity;
        if args.len() + 1 != arity {
            return Err(DbError::Other(format!(
                "function `{name}` takes {} arguments, {} supplied",
                arity - 1,
                args.len()
            )));
        }
        let mut pattern: Vec<Option<Value>> = args.iter().cloned().map(Some).collect();
        pattern.push(None);
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&self.storage, &self.catalog, &deltas);
        let results = ctx.eval_pred(pred, &pattern, StateEpoch::New)?;
        let mut vals: Vec<Value> = results.into_iter().map(|t| t[arity - 1].clone()).collect();
        vals.sort();
        vals.into_iter().next().ok_or_else(|| {
            DbError::Other(format!("no value stored for `{name}` at these arguments"))
        })
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// The global interface-variable bindings (`:name` → value).
    /// Sessions snapshot these for scalar evaluation; `create
    /// instances` forwarded from a session writes through them.
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
            Statement::CreateInstances { type_name, names } => {
                // An instance belongs to its type and to every
                // supertype: insert into the whole extent chain so
                // `for each <supertype>` (and rules over it) sees it.
                let mut chain_rels = Vec::new();
                let mut ty = Some(self.types.lookup(&type_name)?);
                while let Some(t) = ty {
                    let def = self.types.def(t);
                    if !def.builtin {
                        let pred = *self.extents.get(&def.name).ok_or_else(|| {
                            DbError::Other(format!("type `{}` has no extent", def.name))
                        })?;
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
                Ok(ExecResult::Ok)
            }
            Statement::Update(p) => self.autocommit(|this| {
                let env = HashMap::new();
                exec_proc_stmt(
                    &mut this.storage,
                    &this.catalog,
                    &env,
                    &this.iface,
                    &this.procedures,
                    &p,
                )
                .map_err(DbError::Other)
            }),
            Statement::CallProc { name, args } => self.autocommit(|this| {
                let env = HashMap::new();
                exec_proc_stmt(
                    &mut this.storage,
                    &this.catalog,
                    &env,
                    &this.iface,
                    &this.procedures,
                    &ProcStmt::Call { name, args },
                )
                .map_err(DbError::Other)
            }),
            Statement::Select(sel) => {
                let rows = self.run_select(&sel)?;
                Ok(ExecResult::Rows(rows))
            }
            Statement::Activate { rule, args } => {
                let id = self.rules.rule_id(&rule)?;
                // Static analysis gate: refuse to monitor a rule with
                // deny-level lint findings (unsafe, non-stratifiable, …).
                let diags = self.lint_rule(&rule)?;
                if amos_lint::has_deny(&diags) {
                    return Err(DbError::Lint(diags));
                }
                let params = self.eval_args(&args)?;
                let params = Tuple::new(params);
                self.rules
                    .activate(id, params.clone(), &self.catalog, &mut self.storage)?;
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
                let params = self.eval_args(&args)?;
                self.rules
                    .deactivate(id, &Tuple::new(params), &self.catalog, &mut self.storage)?;
                Ok(ExecResult::Ok)
            }
            Statement::DropRule(name) => {
                let id = self.rules.rule_id(&name)?;
                self.rules.drop_rule(id, &self.catalog, &mut self.storage)?;
                self.rule_lint.retain(|r| r.name != name);
                Ok(ExecResult::Ok)
            }
            Statement::ExplainSelect(sel) => Ok(ExecResult::Text(self.explain_select(&sel)?)),
            Statement::ExplainRule(name) => Ok(ExecResult::Text(self.explain_rule(&name)?)),
            Statement::MonitorRule { rule, pin } => {
                let id = self.rules.rule_id(&rule)?;
                let pin = match pin.as_str() {
                    "naive" => StrategyPin::Naive,
                    "incremental" => StrategyPin::Incremental,
                    "auto" => StrategyPin::Auto,
                    other => {
                        return Err(DbError::Other(format!(
                            "unknown monitoring strategy `{other}`"
                        )))
                    }
                };
                self.rules
                    .pin_strategy(&self.catalog, &self.storage, id, pin)?;
                Ok(ExecResult::Ok)
            }
            Statement::Begin => {
                self.storage.begin()?;
                Ok(ExecResult::Ok)
            }
            Statement::Commit => {
                let summary = self.commit()?;
                Ok(ExecResult::Committed(summary))
            }
            Statement::Rollback => {
                self.storage.rollback()?;
                Ok(ExecResult::Ok)
            }
        }
    }

    /// Run `f` inside the current transaction, or wrap it in an
    /// implicit begin/commit (with check phase) when none is open —
    /// the usual active-DBMS autocommit semantics.
    fn autocommit(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<(), DbError>,
    ) -> Result<ExecResult, DbError> {
        if self.storage.in_transaction() {
            f(self)?;
            if self.options.immediate {
                let summary = self.check_now()?;
                return Ok(ExecResult::Committed(summary));
            }
            Ok(ExecResult::Ok)
        } else {
            self.storage.begin()?;
            match f(self).and_then(|()| self.commit()) {
                Ok(summary) => Ok(ExecResult::Committed(summary)),
                Err(e) => {
                    // A failed statement — or a failed commit (check
                    // phase or WAL error) — leaves the implicit
                    // transaction open; undo it so autocommit is atomic.
                    if self.storage.in_transaction() {
                        self.storage.rollback()?;
                    }
                    Err(e)
                }
            }
        }
    }

    /// Commit the open transaction: maintain aggregates, run the
    /// deferred rule check phase, then make the changes durable.
    pub fn commit(&mut self) -> Result<CheckSummary, DbError> {
        self.maintain_views()?;
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        self.storage.commit()?;
        Ok(summary)
    }

    /// Commit with deferred durability (the pipelined session path):
    /// identical to [`Amos::commit`] — views, check phase, apply — except
    /// the WAL batch only enters the group-commit buffer. The caller
    /// must block on the returned [`CommitWaiter`] *after* releasing the
    /// engine lock; `None` means nothing needed logging (no WAL, or a
    /// no-op transaction).
    pub fn commit_deferred_durability(
        &mut self,
    ) -> Result<(CheckSummary, Option<CommitWaiter>), DbError> {
        self.maintain_views()?;
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        let waiter = self.storage.commit_buffered()?;
        Ok((summary, waiter))
    }

    /// Run the rule check phase *now*, inside the open transaction —
    /// immediate rule processing (§1). Maintains views, propagates the
    /// Δ-sets accumulated since the last check, and executes triggered
    /// rules; the transaction stays open.
    pub fn check_now(&mut self) -> Result<CheckSummary, DbError> {
        self.maintain_views()?;
        let summary = self.rules.check_phase(&self.catalog, &mut self.storage)?;
        Ok(summary)
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> Result<(), DbError> {
        self.storage.begin()?;
        Ok(())
    }

    /// Roll the open transaction back.
    pub fn rollback(&mut self) -> Result<(), DbError> {
        self.storage.rollback()?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability
    // ------------------------------------------------------------------

    /// Attach a write-ahead log directory: replay any snapshot + WAL
    /// found there (crash recovery), then log every later commit to it.
    /// Call before or after running the schema script — recovered
    /// relations are adopted by matching `create …` statements. Naive /
    /// hybrid condition materializations are recomputed from the
    /// recovered state.
    pub fn attach_wal(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        config: WalConfig,
    ) -> Result<RecoveryInfo, DbError> {
        let info = self.storage.attach_wal(dir, config)?;
        self.rules.rematerialize(&self.catalog, &self.storage)?;
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

    /// Mark a savepoint inside the open transaction. Updates made after
    /// it can be undone with [`Amos::rollback_to`] without aborting the
    /// whole transaction — the mechanism rule quarantine uses to contain
    /// failed actions.
    pub fn savepoint(&self) -> Savepoint {
        self.storage.savepoint()
    }

    /// Undo every update made since the savepoint (relations **and**
    /// Δ-sets); the transaction stays open. Returns how many update
    /// events were undone.
    pub fn rollback_to(&mut self, sp: Savepoint) -> Result<usize, DbError> {
        Ok(self.storage.rollback_to(sp)?)
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

    fn maintain_views(&mut self) -> Result<(), DbError> {
        for reg in &mut self.views {
            // Clone the source Δ-sets out so the view's user differential
            // can also consult storage (old-state views) while applying.
            let deltas: Vec<(RelId, amos_storage::DeltaSet)> = reg
                .sources
                .iter()
                .filter_map(|&rel| {
                    self.storage
                        .delta(rel)
                        .filter(|d| !d.is_empty())
                        .map(|d| (rel, d.clone()))
                })
                .collect();
            if deltas.is_empty() {
                continue;
            }
            let source_deltas: SourceDeltas<'_> = deltas.iter().map(|(rel, d)| (*rel, d)).collect();
            let out = reg
                .view
                .apply(&source_deltas, &self.catalog, &self.storage)?;
            for t in out.minus() {
                self.storage.delete(reg.backing, t)?;
            }
            for t in out.plus() {
                self.storage.insert(reg.backing, t.clone())?;
            }
        }
        Ok(())
    }

    fn eval_args(&self, args: &[Expr]) -> Result<Vec<Value>, DbError> {
        let env = HashMap::new();
        args.iter()
            .map(|a| eval_scalar(&self.storage, &self.catalog, &env, &self.iface, a))
            .collect()
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
        // Prepare the network shape: flat expands derived sub-functions
        // away; bushy keeps them as shared intermediate nodes.
        let clauses = match self.options.network_prep {
            NetworkPrep::Flat => {
                let mut out = Vec::new();
                for c in &q.clauses {
                    out.extend(expand_clause(&self.catalog, c, &ExpandOptions::full())?);
                }
                out
            }
            NetworkPrep::Bushy => q.clauses,
        };
        let object = self.types.object();
        let cnd_name = format!("cnd_{name}");
        let condition_pred =
            self.catalog
                .define_derived(&cnd_name, vec![object; q.head_arity], clauses)?;

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
            let mut env: HashMap<String, Value> = HashMap::with_capacity(var_names.len());
            for (n, v) in var_names.iter().zip(instance.values()) {
                env.insert(n.clone(), v.clone());
            }
            for stmt in &action {
                exec_proc_stmt(
                    ctx.storage,
                    ctx.catalog,
                    &env,
                    &iface_snapshot,
                    &procedures,
                    stmt,
                )?;
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
    fn explain_select(&self, sel: &Select) -> Result<String, DbError> {
        let q = compile_select(&self.query_env(), sel, &[])?;
        let mut out = String::new();
        for (i, clause) in q.clauses.iter().enumerate() {
            out.push_str(&format!(
                "clause {i} ({} vars, {} literals):\n",
                clause.n_vars,
                clause.body.len()
            ));
            let plan = compile_clause(&self.catalog, clause, &Default::default())?;
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
        out.push_str(&format!("monitor strategy: {}\n", self.rules.pin(id)));
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
        for d in self.rules.network().differentials() {
            if d.affected != rule.condition {
                continue;
            }
            out.push_str(&format!("{}\n", d.display_name(&self.catalog)));
            for line in d.plan.render(&self.catalog).lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        if let Some(metrics) = self.rules.last_metrics() {
            out.push_str("last propagation pass:\n");
            for line in metrics.render().lines() {
                out.push_str(&format!("  {line}\n"));
            }
        }
        Ok(out)
    }

    pub(crate) fn run_select(&self, sel: &Select) -> Result<Vec<Tuple>, DbError> {
        let q = compile_select(&self.query_env(), sel, &[])?;
        let deltas = DeltaMap::new();
        let ctx = EvalContext::new(&self.storage, &self.catalog, &deltas);
        let mut rows: Vec<Tuple> = Vec::new();
        for clause in &q.clauses {
            let plan = compile_clause(&self.catalog, clause, &Default::default())?;
            ctx.plan_heads(&plan, StateEpoch::New, 0, &mut rows)?;
        }
        rows.sort();
        rows.dedup();
        Ok(rows)
    }
}

/// Evaluate a scalar expression against the current database state.
pub fn eval_scalar(
    storage: &Storage,
    catalog: &Catalog,
    env: &HashMap<String, Value>,
    iface: &HashMap<String, Value>,
    expr: &Expr,
) -> Result<Value, DbError> {
    ScalarEval {
        ctx: &EvalContext::new(storage, catalog, &DeltaMap::new()),
        env,
        iface,
        reads: None,
    }
    .eval(expr)
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
        match &catalog.def(pred).kind {
            PredKind::Stored { rel, key_arity } => {
                let k = *key_arity;
                if k > 0 && k <= args.len() {
                    self.keys
                        .entry(*rel)
                        .or_default()
                        .insert(Tuple::new(args[..k].to_vec()));
                } else {
                    self.whole.insert(*rel);
                }
            }
            PredKind::Derived(_) => {
                for p in catalog.stored_influents(pred) {
                    if let Some(rel) = catalog.def(p).stored_rel() {
                        self.whole.insert(rel);
                    }
                }
            }
            PredKind::Foreign(_) => {}
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
            PredKind::Foreign(_) => {}
        }
    }
}

/// Scalar-expression evaluator over one evaluation context — the state
/// it reads (session transactions read through their snapshot layers)
/// and the caches every stored-function call of the statement shares;
/// the storage borrow is immutable for as long as `ctx` lives, so its
/// memo table is valid for exactly that long — plus an optional read
/// trace (commit-time conflict validation needs the read footprint).
/// [`eval_scalar`] is the plain single-session instance.
pub(crate) struct ScalarEval<'a> {
    pub ctx: &'a EvalContext<'a>,
    pub env: &'a HashMap<String, Value>,
    pub iface: &'a HashMap<String, Value>,
    pub reads: Option<&'a RefCell<ReadTrace>>,
}

impl ScalarEval<'_> {
    pub(crate) fn eval(&self, expr: &Expr) -> Result<Value, DbError> {
        match expr {
            Expr::Var(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| DbError::Other(format!("unbound variable `{n}`"))),
            Expr::IfaceVar(n) => self
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
            Expr::Call { func, args } => {
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
                let mut vals: Vec<Value> = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                if let Some(reads) = self.reads {
                    reads.borrow_mut().record_call(catalog, pred, &vals);
                }
                let mut pattern: Vec<Option<Value>> = vals.into_iter().map(Some).collect();
                pattern.push(None);
                let results = self.ctx.eval_pred(pred, &pattern, StateEpoch::New)?;
                let mut vals: Vec<Value> =
                    results.into_iter().map(|t| t[arity - 1].clone()).collect();
                vals.sort();
                vals.into_iter().next().ok_or_else(|| {
                    DbError::Other(format!("no value stored for `{func}` at these arguments"))
                })
            }
        }
    }
}

/// Execute one action/update statement in a variable environment.
fn exec_proc_stmt(
    storage: &mut Storage,
    catalog: &Catalog,
    env: &HashMap<String, Value>,
    iface: &HashMap<String, Value>,
    procedures: &Procedures,
    stmt: &ProcStmt,
) -> Result<(), String> {
    let eval = |storage: &Storage, e: &Expr| -> Result<Value, String> {
        eval_scalar(storage, catalog, env, iface, e).map_err(|e| e.to_string())
    };
    match stmt {
        ProcStmt::Set { func, args, value } => {
            let (rel, key_arity) = resolve_stored(catalog, func)?;
            let key: Vec<Value> = args
                .iter()
                .map(|a| eval(storage, a))
                .collect::<Result<_, _>>()?;
            if key.len() != key_arity {
                return Err(format!(
                    "`set {func}` expects {key_arity} key arguments, got {}",
                    key.len()
                ));
            }
            let v = eval(storage, value)?;
            storage
                .set_functional(rel, &key, &[v])
                .map_err(|e| e.to_string())
        }
        ProcStmt::Add { func, args, value } => {
            let (rel, _) = resolve_stored(catalog, func)?;
            let key: Vec<Value> = args
                .iter()
                .map(|a| eval(storage, a))
                .collect::<Result<_, _>>()?;
            let v = eval(storage, value)?;
            storage
                .add_functional(rel, &key, &[v])
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        ProcStmt::Remove { func, args, value } => {
            let (rel, _) = resolve_stored(catalog, func)?;
            let key: Vec<Value> = args
                .iter()
                .map(|a| eval(storage, a))
                .collect::<Result<_, _>>()?;
            let v = eval(storage, value)?;
            storage
                .remove_functional(rel, &key, &[v])
                .map(|_| ())
                .map_err(|e| e.to_string())
        }
        ProcStmt::Call { name, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(storage, a))
                .collect::<Result<_, _>>()?;
            let proc = procedures
                .lock()
                .expect("procedures lock")
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unknown procedure `{name}`"))?;
            let mut ctx = ProcCtx { storage, catalog };
            proc(&mut ctx, &vals)
        }
    }
}

pub(crate) fn resolve_stored(catalog: &Catalog, func: &str) -> Result<(RelId, usize), String> {
    let pred = catalog
        .lookup(func)
        .map_err(|_| format!("unknown function `{func}`"))?;
    match catalog.def(pred).kind {
        amos_objectlog::catalog::PredKind::Stored { rel, key_arity } => Ok((rel, key_arity)),
        _ => Err(format!("`{func}` is not a stored function")),
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

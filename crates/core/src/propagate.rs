//! The breadth-first, bottom-up propagation algorithm (§5).
//!
//! > for each level (starting with the lowest level)
//! >   for each changed node (a non-empty Δ-set)
//! >     for each edge to an above node
//! >       execute the partial differential(s) and accumulate the result
//! >       in the Δ-set of the node above using ∪Δ
//!
//! Δ-sets of interior nodes are temporary "wave-front" materializations:
//! each node's Δ-set is cleared as soon as its out-edges have been
//! processed, so memory usage is bounded by the wave-front, not the
//! database. Base-relation Δ-sets live in [`Storage`] (they are needed
//! throughout for old-state logical rollback) and are *not* cleared here;
//! condition-node Δ-sets are the algorithm's output.
//!
//! The breadth-first, bottom-up order guarantees that when a negative
//! differential evaluates `Q_old` for some influent `Q`, every change to
//! `Q` has already been propagated — `Q_old` over derived predicates
//! reduces to evaluation over old base states, which are complete because
//! base Δ-sets are retained.
//!
//! One §7.2 correction check is applied per candidate change at
//! accumulation time: a deletion is verified absent from the new state.
//! It is mandatory whenever deletions are propagated at all, because a
//! false deletion can cancel a true insertion through `∪Δ` and make
//! rules *under-react*, "which is unacceptable". Insertions are accepted
//! as derived, so the pass is *nervous*: every insertion candidate is
//! derivable in the new state, an accepted deletion is proven absent
//! from it, and so a false insertion never cancels a true deletion.
//! Strictness (§3.2) is a property of a rule, applied once at the
//! condition by [`strict_admits`](crate::rules::strict_admits).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use amos_metrics::{DiffTiming, LevelStats, PassMetrics, Stopwatch};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::eval::{DeltaMap, EvalContext, EvalShared};
use amos_objectlog::plan::Plan;
use amos_storage::{DeltaSet, Polarity, StateEpoch, Storage};
use amos_types::Tuple;

use crate::adaptive::AdaptivePlanner;
use crate::differ::DiffId;
use crate::error::CoreError;
use crate::explain::FiredDifferential;
use crate::naive::full_eval;
use crate::network::PropagationNetwork;

/// Below this many seed tuples in a level's wave the level runs inline:
/// spawning threads costs more than the work it would distribute (on a
/// two-tuple wave, spawn and join were 72 µs of a 97 µs pass). The
/// benchmark workloads sit far from it on either side: 2, ≈13–74 and
/// 59 690 tuples per level.
pub const INLINE_WAVE_THRESHOLD: usize = 256;

/// A placeholder kept for the benchmark's `propagate_with` call, which
/// passes [`RuleManager::check`](crate::rules::RuleManager::check):
/// nothing reads it, and the benchmark change that drops the argument
/// deletes it (ROADMAP item 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckLevel {
    /// The one propagation there is: deletions checked, insertions not.
    #[default]
    Nervous,
}

/// How to execute the differentials of one wave-front level.
///
/// Within a level every differential execution is an independent
/// read-only query: it reads storage and the *current* level's Δ-sets
/// and writes only to strictly higher-level nodes — and the §7.2
/// `accept` check consults storage alone. So a level whose wave holds
/// at least [`INLINE_WAVE_THRESHOLD`] tuples across more than one task
/// snapshots the wave immutably, runs all (node, differential) tasks on
/// scoped threads, and merges their accepted batches *sequentially in
/// serial execution order* — the resulting Δ-sets (and all counters) are
/// identical to inline execution. Smaller levels always run inline. The
/// choice is made per level from the wave's size; the strategy only says
/// whether threads are allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecStrategy {
    /// Never spawn: one differential at a time, in network order. The
    /// reference the equivalence oracles compare against.
    Serial,
    /// Large levels on threads (deterministic merge), small ones inline.
    #[default]
    Parallel,
}

impl ExecStrategy {
    /// Lowercase name for metrics and explain output.
    pub fn name(self) -> &'static str {
        match self {
            ExecStrategy::Serial => "serial",
            ExecStrategy::Parallel => "parallel",
        }
    }
}

/// The outcome of one propagation pass.
#[derive(Debug, Default)]
pub struct PropagationResult {
    /// Net changes of each condition predicate.
    pub condition_deltas: HashMap<PredId, DeltaSet>,
    /// Which differentials executed, in execution order (explainability).
    pub fired: Vec<FiredDifferential>,
    /// Instrumentation for this pass (timings, wave-front sizes, the
    /// candidate and rejection counts).
    pub metrics: PassMetrics,
}

/// Output of one differential execution, before the sequential merge.
struct TaskOutput {
    /// Tuples produced by the plan (count only; the tuples themselves
    /// are dropped once checked).
    candidates: usize,
    /// Tuples surviving the §7.2 check.
    accepted: Vec<Tuple>,
    /// Wall-clock time of plan execution plus the check.
    nanos: u64,
}

/// One unit of wave-front work: execute differential `diff` seeded by
/// its influent node's Δ-set, optionally under an adaptively
/// re-optimized plan resolved before the batch was launched.
struct Task {
    diff: DiffId,
    plan: Option<Arc<Plan>>,
}

/// Run one breadth-first bottom-up propagation pass over the network,
/// reading base-relation Δ-sets from `storage` and returning the
/// condition-level net changes: [`propagate_adaptive`] with fresh
/// evaluator state and each differential's activation-time plan. Nothing
/// reads `_check` (see [`CheckLevel`]).
pub fn propagate_with(
    network: &PropagationNetwork,
    catalog: &Catalog,
    storage: &Storage,
    _check: CheckLevel,
    strategy: ExecStrategy,
) -> Result<PropagationResult, CoreError> {
    let shared = Arc::new(EvalShared::default());
    propagate_adaptive(network, catalog, storage, strategy, &shared, None)
}

/// The propagation pass in full: per level, (1) close changed
/// self-recursive nodes to their fixpoints sequentially, (2) execute
/// every remaining (changed node, out-differential) task — inline, or on
/// scoped threads when the wave is large — against the immutable
/// level-start wave, and (3) merge the accepted batches sequentially in
/// network order with `∪Δ`. Because within-level tasks never read each
/// other's output (differentials write only to strictly higher levels)
/// and the check consults storage only, the merged Δ-sets are identical
/// either way.
///
/// `shared` is caller-owned evaluator state (plan cache, derived-call
/// memo table). The rule manager passes a
/// long-lived [`EvalShared`] so plan compilations survive across passes
/// and tabled derived-call results are shared by every differential of
/// the pass — the paper's cross-differential sharing, realized at the
/// evaluator level. The caller is responsible for calling
/// [`EvalShared::reset_pass`] at pass boundaries (storage changes
/// invalidate per-pass state).
///
/// When `planner` is given, each level's differential plans are resolved
/// against the *live* statistics (base cardinalities, column NDVs,
/// current Δ-set sizes) before the batch launches — cached plans are
/// reused until their statistics fingerprint drifts, at which point the
/// differential is recompiled under the cardinality-aware cost model.
/// Plan resolution is sequential and happens in serial task order, so
/// the plans each task executes — and therefore every Δ-set and counter
/// — do not depend on whether the level then runs on threads. With
/// `planner == None` each differential runs its activation-time plan.
pub fn propagate_adaptive(
    network: &PropagationNetwork,
    catalog: &Catalog,
    storage: &Storage,
    strategy: ExecStrategy,
    shared: &Arc<EvalShared>,
    planner: Option<&AdaptivePlanner>,
) -> Result<PropagationResult, CoreError> {
    let pass_timer = Stopwatch::start();
    let hits_before = shared.tabling_hits();
    let misses_before = shared.tabling_misses();
    let probes_before = shared.probe_count();
    let scans_before = shared.scan_count();
    let delta_probes_before = shared.delta_probe_count();
    let delta_scans_before = shared.delta_scan_count();
    let fallback_before = storage.fallback_scans_total();
    let replans_before = planner.map_or(0, AdaptivePlanner::replan_count);
    let hits_cache_before = planner.map_or(0, AdaptivePlanner::hit_count);
    let mut result = PropagationResult::default();
    result.metrics.strategy = strategy.name().to_owned();

    // Wave-front Δ-sets, keyed by predicate. Level-0 nodes read straight
    // from storage's accumulated transaction Δ-sets.
    let mut wave: DeltaMap = DeltaMap::new();
    for node in network.nodes() {
        if node.level == 0 {
            if let Some(rel) = catalog.def(node.pred).stored_rel() {
                if let Some(delta) = storage.delta(rel) {
                    if !delta.is_empty() {
                        wave.insert(node.pred, delta.clone());
                    }
                }
            }
        }
    }

    let levels = network.levels().len();
    for level in 0..levels {
        // The changed set is fixed at level start: within a level,
        // differentials write only to strictly higher-level nodes, so
        // processing earlier nodes can never (un)change a later one.
        let changed: Vec<&crate::network::Node> = network.levels()[level]
            .iter()
            .map(|node_id| &network.nodes()[node_id.0 as usize])
            .filter(|node| wave.get(&node.pred).map(|d| !d.is_empty()).unwrap_or(false))
            .collect();
        if changed.is_empty() {
            continue;
        }
        let wave_tuples: usize = changed
            .iter()
            .filter_map(|node| wave.get(&node.pred))
            .map(DeltaSet::len)
            .sum();

        // Linearly recursive nodes (§5 note 1): close their Δ-sets to a
        // fixpoint before firing out-edges to other nodes. Sequential:
        // each closure mutates its own node's wave entry.
        for node in &changed {
            if catalog.is_self_recursive(node.pred) {
                close_recursive_node(network, catalog, storage, node, &mut wave, &mut result)?;
            }
        }

        // Gather the level's tasks in serial execution order; self-
        // differentials were consumed by the fixpoint closure above.
        // Adaptive plans are resolved here, sequentially against the
        // level-start wave, so parallel execution sees the same plans
        // (and fills the same caches) as serial execution would.
        let mut tasks: Vec<Task> = Vec::new();
        for node in &changed {
            for diff_id in &node.out_diffs {
                let diff = network.differential(*diff_id);
                if diff.affected == node.pred {
                    continue;
                }
                let plan = match planner {
                    Some(p) => Some(p.plan_for(*diff_id, diff, catalog, storage, &wave)?),
                    None => None,
                };
                tasks.push(Task {
                    diff: *diff_id,
                    plan,
                });
            }
        }

        // Execute on one evaluation context borrowing the frozen wave
        // (dropped before the merge mutates `wave`): on threads when the
        // strategy allows it and the level is large enough to pay for
        // the spawn, inline otherwise.
        let parallel = strategy == ExecStrategy::Parallel
            && tasks.len() > 1
            && wave_tuples >= INLINE_WAVE_THRESHOLD;
        let outputs: Vec<Result<TaskOutput, CoreError>> = {
            let ctx = EvalContext::with_shared(storage, catalog, &wave, Arc::clone(shared));
            if parallel {
                run_tasks_threaded(network, catalog, &ctx, &tasks)
            } else {
                tasks
                    .iter()
                    .map(|task| run_differential(network, catalog, &ctx, task))
                    .collect()
            }
        };

        result.metrics.levels.push(LevelStats {
            level,
            active_nodes: changed.len(),
            wave_tuples,
            tasks: tasks.len(),
            parallel,
        });

        // Merge sequentially, in serial execution order: `∪Δ` into the
        // affected nodes' Δ-sets plus counters, trace, and timings.
        for (task, output) in tasks.iter().zip(outputs) {
            let output = output?;
            let diff = network.differential(task.diff);
            result.metrics.candidates += output.candidates;
            result.metrics.rejected += output.candidates - output.accepted.len();
            result.metrics.differentials.push(DiffTiming {
                diff: task.diff.0 as usize,
                differential: diff.display_name(catalog),
                affected: catalog.name(diff.affected).to_owned(),
                level,
                nanos: output.nanos,
                candidates: output.candidates,
                accepted: output.accepted.len(),
                est_rows: task.plan.as_deref().unwrap_or(&diff.plan).est_rows,
            });
            let target = wave.entry(diff.affected).or_default();
            for t in &output.accepted {
                match diff.output {
                    Polarity::Plus => target.delta_union_insert(t.clone()),
                    Polarity::Minus => target.delta_union_delete(t.clone()),
                }
            }
            result.fired.push(FiredDifferential {
                diff: task.diff,
                affected: diff.affected,
                influent: diff.influent,
                seed: diff.seed,
                output: diff.output,
                tuples: output.accepted,
            });
        }

        // Clear the processed nodes' wave-front Δ-sets (the paper's
        // space optimization). Base Δ-sets live in storage and are
        // untouched; condition deltas are collected below before the
        // wave map is dropped.
        for node in &changed {
            if !node.is_condition {
                wave.remove(&node.pred);
            }
        }
    }

    for cond in network.conditions() {
        let delta = wave.remove(cond).unwrap_or_default();
        result.condition_deltas.insert(*cond, delta);
    }
    result.metrics.fired = result.fired.len();
    result.metrics.tabling_hits = shared.tabling_hits() - hits_before;
    result.metrics.tabling_misses = shared.tabling_misses() - misses_before;
    result.metrics.probes = shared.probe_count() - probes_before;
    result.metrics.scans = shared.scan_count() - scans_before;
    result.metrics.delta_probes = shared.delta_probe_count() - delta_probes_before;
    result.metrics.delta_scans = shared.delta_scan_count() - delta_scans_before;
    result.metrics.replans = planner.map_or(0, AdaptivePlanner::replan_count) - replans_before;
    result.metrics.plan_cache_hits =
        planner.map_or(0, AdaptivePlanner::hit_count) - hits_cache_before;
    result.metrics.fallback_scans = storage.fallback_scans_total() - fallback_before;
    if result.metrics.fallback_scans > 0 {
        result.metrics.fallback_sites = storage
            .take_fallback_sites()
            .into_iter()
            .map(|(name, cols)| {
                let cols: Vec<String> = cols.iter().map(usize::to_string).collect();
                format!("{}[{}]", name, cols.join(","))
            })
            .collect();
    }
    result.metrics.pruned_differentials = network.pruned_count() as u64;
    result.metrics.nanos = pass_timer.elapsed_nanos();
    Ok(result)
}

/// Execute one differential against the frozen wave: run its plan, then
/// apply the §7.2 deletion check. Read-only with respect to `wave` and
/// `storage`, so any number of these can run concurrently.
fn run_differential(
    network: &PropagationNetwork,
    catalog: &Catalog,
    ctx: &EvalContext<'_>,
    task: &Task,
) -> Result<TaskOutput, CoreError> {
    let timer = Stopwatch::start();
    let diff = network.differential(task.diff);
    let plan = task.plan.as_deref().unwrap_or(&diff.plan);
    let mut produced: Vec<Tuple> = Vec::new();
    ctx.plan_heads(plan, StateEpoch::New, 0, &mut produced)?;

    // Candidates feeding a recursive node skip the per-tuple §7.2
    // check: the fixpoint closure (or the exact recompute fallback on
    // deletions) establishes correctness for the whole node at once, and
    // per-tuple `holds` on a recursive predicate would re-run the
    // fixpoint per candidate.
    let unchecked = catalog.is_self_recursive(diff.affected);
    let candidates = produced.len();
    let mut accepted: Vec<Tuple> = Vec::new();
    for t in produced {
        if unchecked || accept(ctx, diff.affected, &t, diff.output)? {
            accepted.push(t);
        }
    }
    Ok(TaskOutput {
        candidates,
        accepted,
        nanos: timer.elapsed_nanos(),
    })
}

/// Run a level's tasks on scoped worker threads pulling from a shared
/// atomic queue. Outputs land in per-task slots, so the caller's merge
/// order is independent of completion order.
fn run_tasks_threaded(
    network: &PropagationNetwork,
    catalog: &Catalog,
    ctx: &EvalContext<'_>,
    tasks: &[Task],
) -> Vec<Result<TaskOutput, CoreError>> {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // At least two workers even on one hardware thread: the strategy's
    // contract (frozen wave, per-slot outputs, deterministic merge) must
    // hold under real concurrency wherever it runs.
    let workers = hw.max(2).min(tasks.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<TaskOutput, CoreError>>>> =
        tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else {
                    break;
                };
                let out = run_differential(network, catalog, ctx, task);
                *slots[i].lock().unwrap() = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled its slot"))
        .collect()
}

/// Close a linearly recursive node's Δ-set to a fixpoint ("revisiting
/// nodes below and using fixed point techniques", §5 note 1).
///
/// * Pure insertions: semi-naive — repeatedly execute the node's
///   self-differentials (`ΔP/Δ₊P`) seeded by the newest frontier until
///   a round derives nothing new.
/// * Any deletions: fall back to exact recomputation of the node's
///   delta (`<P_new − P_old, P_old − P_new>` via fixpoint evaluation in
///   both states) — the DRed-style over-delete/re-derive dance is out
///   of scope, and the fallback is always exact.
fn close_recursive_node(
    network: &PropagationNetwork,
    catalog: &Catalog,
    storage: &Storage,
    node: &crate::network::Node,
    wave: &mut DeltaMap,
    result: &mut PropagationResult,
) -> Result<(), CoreError> {
    let Some(delta) = wave.get(&node.pred) else {
        return Ok(());
    };
    if !delta.minus().is_empty() {
        // Deletions reached a recursive node: recompute exactly.
        let exact = recompute_delta(catalog, storage, node.pred)?;
        wave.insert(node.pred, exact);
        return Ok(());
    }

    let self_diffs: Vec<&crate::differ::Differential> = node
        .out_diffs
        .iter()
        .map(|d| network.differential(*d))
        .filter(|d| d.affected == node.pred && d.seed == Polarity::Plus)
        .collect();
    let mut total: amos_types::FxHashSet<Tuple> = delta.plus().clone();
    let mut frontier: amos_types::FxHashSet<Tuple> = total.clone();
    while !frontier.is_empty() {
        let mut fdelta = DeltaSet::new();
        for t in frontier.drain() {
            fdelta.apply_insert(t);
        }
        let mut fmap = DeltaMap::new();
        fmap.insert(node.pred, fdelta);
        let ctx = EvalContext::new(storage, catalog, &fmap);
        let mut produced: Vec<Tuple> = Vec::new();
        for diff in &self_diffs {
            ctx.plan_heads(&diff.plan, StateEpoch::New, 0, &mut produced)?;
        }
        result.metrics.candidates += produced.len();
        for t in produced {
            if total.insert(t.clone()) {
                frontier.insert(t);
            }
        }
    }

    let mut closed = DeltaSet::new();
    for t in total {
        closed.delta_union_insert(t);
    }
    wave.insert(node.pred, closed);
    Ok(())
}

/// The §7.2 check on one candidate change of `pred`: a deletion must
/// really be gone from the new state, or rules under-react; an insertion
/// passes as derived.
fn accept(
    ctx: &EvalContext<'_>,
    pred: PredId,
    tuple: &Tuple,
    output: Polarity,
) -> Result<bool, CoreError> {
    Ok(match output {
        Polarity::Minus => !ctx.holds(pred, tuple, StateEpoch::New)?,
        Polarity::Plus => true,
    })
}

/// Ground truth for tests and recursive deletions: the exact delta of a
/// predicate, `<P_new − P_old, P_old − P_new>`, by full evaluation in
/// both states.
pub fn recompute_delta(
    catalog: &Catalog,
    storage: &Storage,
    pred: PredId,
) -> Result<DeltaSet, CoreError> {
    let new = full_eval(catalog, storage, pred, StateEpoch::New)?;
    let old = full_eval(catalog, storage, pred, StateEpoch::Old)?;
    Ok(DeltaSet::from_parts(
        new.difference(&old).cloned().collect(),
        old.difference(&new).cloned().collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::strict_admits;
    use amos_objectlog::catalog::Catalog;
    use amos_objectlog::clause::{ClauseBuilder, Term};
    use amos_types::{tuple, CmpOp, TypeId};

    fn sig(n: usize) -> Vec<TypeId> {
        vec![TypeId(0); n]
    }

    struct Fix {
        storage: Storage,
        catalog: Catalog,
        rq: amos_storage::RelId,
        rr: amos_storage::RelId,
        p: PredId,
    }

    /// p(X,Z) ← q(X,Y) ∧ r(Y,Z), monitored.
    fn fixture() -> Fix {
        let mut storage = Storage::new();
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
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
        storage.monitor(rq);
        storage.monitor(rr);
        storage.insert(rq, tuple![1, 1]).unwrap();
        storage.insert(rr, tuple![1, 2]).unwrap();
        storage.insert(rr, tuple![2, 3]).unwrap();
        Fix {
            storage,
            catalog,
            rq,
            rr,
            p,
        }
    }

    /// One pass under the default strategy.
    fn pass(f: &Fix, net: &PropagationNetwork) -> PropagationResult {
        let strategy = ExecStrategy::default();
        propagate_with(net, &f.catalog, &f.storage, CheckLevel::Nervous, strategy).unwrap()
    }

    /// `pred`'s Δ-set as a strict rule sees it: the insertions
    /// `strict_admits` passes, the deletions that held before.
    fn strict(f: &Fix, pred: PredId, delta: &DeltaSet) -> DeltaSet {
        let empty = DeltaMap::new();
        let ctx = EvalContext::new(&f.storage, &f.catalog, &empty);
        let admits = |t: &&Tuple| strict_admits(&ctx, pred, t, &mut 0).unwrap();
        let held = |t: &&Tuple| ctx.holds(pred, t, StateEpoch::Old).unwrap();
        let plus = delta.plus().iter().filter(admits).cloned().collect();
        DeltaSet::from_parts(plus, delta.minus().iter().filter(held).cloned().collect())
    }

    /// §4.3: insert q(1,2), r(1,4) ⇒ Δ₊p = {(1,3),(1,4)}.
    #[test]
    fn positive_example_propagates() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();
        f.storage.insert(f.rr, tuple![1, 4]).unwrap();

        let result = pass(&f, &net);
        let dp = &result.condition_deltas[&f.p];
        assert_eq!(
            dp.plus(),
            &[tuple![1, 3], tuple![1, 4]].into_iter().collect()
        );
        assert!(dp.minus().is_empty());
        // Two differentials fired: Δp/Δ₊q and Δp/Δ₊r.
        let fired: Vec<_> = result
            .fired
            .iter()
            .filter(|f| !f.tuples.is_empty())
            .collect();
        assert_eq!(fired.len(), 2);
    }

    /// §4.4: mixed inserts and deletes ⇒ Δp = <{(1,4)}, {(1,2)}> — the
    /// old state of q prevents the spurious deletion of (1,3).
    #[test]
    fn negative_example_uses_old_state() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();
        f.storage.insert(f.rr, tuple![1, 4]).unwrap();
        f.storage.delete(f.rr, &tuple![1, 2]).unwrap();
        f.storage.delete(f.rr, &tuple![2, 3]).unwrap();

        let result = pass(&f, &net);
        let dp = &result.condition_deltas[&f.p];
        assert_eq!(dp.plus(), &[tuple![1, 4]].into_iter().collect());
        assert_eq!(dp.minus(), &[tuple![1, 2]].into_iter().collect());
    }

    /// Propagated deltas, strictly filtered, match naive recomputation.
    #[test]
    fn matches_recompute() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![2, 2]).unwrap();
        f.storage.delete(f.rq, &tuple![1, 1]).unwrap();
        f.storage.insert(f.rr, tuple![2, 9]).unwrap();

        let result = pass(&f, &net);
        let truth = recompute_delta(&f.catalog, &f.storage, f.p).unwrap();
        assert_eq!(strict(&f, f.p, &result.condition_deltas[&f.p]), truth);
    }

    /// No changes ⇒ empty result, nothing fired.
    #[test]
    fn no_changes_no_work() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        let result = pass(&f, &net);
        assert!(result.condition_deltas[&f.p].is_empty());
        assert!(result.fired.is_empty());
        assert_eq!(result.metrics.candidates, 0);
    }

    /// A transaction with no net effect propagates no change (logical
    /// events only).
    #[test]
    fn cancelled_updates_propagate_nothing() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.delete(f.rq, &tuple![1, 1]).unwrap();
        f.storage.insert(f.rq, tuple![1, 1]).unwrap();
        let result = pass(&f, &net);
        assert!(result.condition_deltas[&f.p].is_empty());
        assert_eq!(
            result.metrics.candidates, 0,
            "empty Δ-sets never execute differentials"
        );
    }

    /// The mandatory deletion check: deleting one derivation of a tuple
    /// with another surviving must not propagate the deletion.
    #[test]
    fn deletion_check_prevents_under_reaction() {
        let mut f = fixture();
        // p(1,2) via q(1,1),r(1,2); add second derivation q(1,2),r(2,2).
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();
        f.storage.insert(f.rr, tuple![2, 2]).unwrap();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.delete(f.rq, &tuple![1, 1]).unwrap();

        let result = pass(&f, &net);
        assert!(
            !result.condition_deltas[&f.p]
                .minus()
                .contains(&tuple![1, 2]),
            "p(1,2) still derivable — deletion must be filtered"
        );
        assert!(
            result.metrics.rejected > 0,
            "the check did reject the candidate"
        );
    }

    /// Serial and parallel strategies agree — Δ-sets, counters, and the
    /// set of fired differentials.
    #[test]
    fn serial_and_parallel_strategies_agree() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();
        f.storage.insert(f.rr, tuple![1, 4]).unwrap();
        f.storage.delete(f.rr, &tuple![2, 3]).unwrap();

        let pass = |strategy| {
            propagate_with(&net, &f.catalog, &f.storage, CheckLevel::Nervous, strategy).unwrap()
        };
        let (serial, parallel) = (pass(ExecStrategy::Serial), pass(ExecStrategy::Parallel));
        assert_eq!(serial.condition_deltas, parallel.condition_deltas);
        assert_eq!(serial.metrics.candidates, parallel.metrics.candidates);
        assert_eq!(serial.metrics.rejected, parallel.metrics.rejected);
        assert_eq!(
            serial.fired.iter().map(|fd| fd.diff).collect::<Vec<_>>(),
            parallel.fired.iter().map(|fd| fd.diff).collect::<Vec<_>>(),
            "trace order must match serial execution order"
        );
    }

    /// The default strategy spawns no thread for a small wave: a
    /// two-task, two-tuple level (one quantity update — the fig. 6
    /// transaction) runs inline. A gate by count, not by time.
    #[test]
    fn small_wave_never_spawns() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.delete(f.rq, &tuple![1, 1]).unwrap();
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();

        let result = pass(&f, &net);
        let m = &result.metrics;
        assert_eq!(m.strategy, "parallel");
        assert_eq!((m.levels[0].tasks, m.levels[0].wave_tuples), (2, 2));
        assert!(m.levels.iter().all(|l| !l.parallel), "{:?}", m.levels);
    }

    /// The metrics layer records the pass: per-differential timings in
    /// merge order, per-level wave sizes, and consistent totals.
    #[test]
    fn metrics_describe_the_pass() {
        let mut f = fixture();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[f.p]).unwrap();
        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![1, 2]).unwrap();
        f.storage.insert(f.rr, tuple![1, 4]).unwrap();

        let result = pass(&f, &net);
        let m = &result.metrics;
        assert_eq!(m.strategy, "parallel");
        assert_eq!(m.fired, result.fired.len());
        // Both base relations changed at level 0, each with a positive
        // and a negative differential into p (full diff scope); the wave
        // then reaches p's level, which has no out-edges.
        assert_eq!(m.levels.len(), 2);
        assert_eq!(m.levels[0].active_nodes, 2);
        assert_eq!(m.levels[0].wave_tuples, 2);
        assert_eq!(m.levels[0].tasks, 4);
        assert!(!m.levels[0].parallel, "a two-tuple wave runs inline");
        assert_eq!(m.levels[1].active_nodes, 1);
        assert_eq!(m.levels[1].tasks, 0);
        assert_eq!(m.differentials.len(), 4);
        let total: usize = m.differentials.iter().map(|d| d.candidates).sum();
        assert_eq!(total, m.candidates);
        assert!(m
            .differentials
            .iter()
            .all(|d| d.differential.starts_with("Δp/")));
        // The rendering names every differential.
        assert_eq!(m.render().matches("Δp/").count(), 4);
    }

    /// Multi-level (bushy) propagation: changes pass through an
    /// intermediate node.
    #[test]
    fn bushy_two_level_propagation() {
        let mut f = fixture();
        let q = f.catalog.lookup("q").unwrap();
        let r = f.catalog.lookup("r").unwrap();
        // mid(X,Z) ← q(X,Y) ∧ r(Y,Z);  top(X) ← mid(X,Z) ∧ Z < 100
        let mid = f
            .catalog
            .define_derived(
                "mid",
                sig(2),
                vec![ClauseBuilder::new(3)
                    .head([Term::var(0), Term::var(2)])
                    .pred(q, [Term::var(0), Term::var(1)])
                    .pred(r, [Term::var(1), Term::var(2)])
                    .build()],
            )
            .unwrap();
        let top = f
            .catalog
            .define_derived(
                "top",
                sig(1),
                vec![ClauseBuilder::new(2)
                    .head([Term::var(0)])
                    .pred(mid, [Term::var(0), Term::var(1)])
                    .cmp(Term::var(1), CmpOp::Lt, Term::val(100))
                    .build()],
            )
            .unwrap();
        let net = PropagationNetwork::build(&f.catalog, &mut f.storage, &[top]).unwrap();
        assert_eq!(net.levels().len(), 3);

        f.storage.begin().unwrap();
        f.storage.insert(f.rq, tuple![7, 2]).unwrap(); // q(7,2) ∧ r(2,3) ⇒ mid(7,3) ⇒ top(7)
        let result = pass(&f, &net);
        assert_eq!(
            result.condition_deltas[&top].plus(),
            &[tuple![7]].into_iter().collect()
        );
        let truth = recompute_delta(&f.catalog, &f.storage, top).unwrap();
        assert_eq!(strict(&f, top, &result.condition_deltas[&top]), truth);
    }
}

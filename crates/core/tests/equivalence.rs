//! The core equivalence oracles, as one generated-world harness.
//!
//! The paper's method is only useful if its partial differentials are
//! exact: Σ ΔP/ΔX over the Δ-sets must equal what a naive recompute
//! finds, and whatever the engine does to get there faster — threads,
//! adaptive plans, the derived-call memo, sorted runs — must not show
//! in what a pass reports. One generator draws a
//! [`Case`]: a condition shape, base contents, one to three update
//! transactions, optionally a bulk block past the inline threshold that
//! the next transaction partly deletes, and a seal threshold. [`drive`]
//! runs the cases through one [`Axis`], and each axis is one `#[test]`
//! line. Every axis meets every shape, and `drive` asserts that the
//! mechanism the axis exists to check engaged at least once, and that
//! an old-state read probed a Δ-set through its arrangement. Every pass
//! also asserts index availability: no probe fell back to a full scan
//! for want of an index.
//!
//! Three named tests pin exact facts the generator would only sample:
//! an 800-tuple wave on threads, the output order of a bulk pass, and
//! the planner's probe counts on skewed data.

mod common;

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use amos_core::differ::DiffId;
use amos_core::naive::full_eval;
use amos_core::network::PropagationNetwork;
use amos_core::propagate::ExecStrategy::{self, Parallel, Serial};
use amos_core::propagate::{
    propagate_adaptive, propagate_with, recompute_delta, CheckLevel, PropagationResult,
    INLINE_WAVE_THRESHOLD,
};
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::clause::{Clause, ClauseBuilder, Term};
use amos_objectlog::eval::{DeltaMap, EvalContext, EvalShared};
use amos_objectlog::plan::{compile_clause, Plan, PlanStats};
use amos_storage::{DeltaSet, Polarity, RelId, StateEpoch, Storage};
use amos_types::{tuple, ArithOp, CmpOp, Tuple, TypeId};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Shapes in the zoo (see [`define_shape`]).
const SHAPES: u8 = 11;
/// The linearly recursive shape. It never takes the bulk block: a
/// 256-edge pass into it is two orders of magnitude slower than its
/// recompute (ROADMAP item 12).
const RECURSIVE: u8 = 10;
/// The cartesian shape. It takes no bulk block either: its bulk pass is
/// the product of the block and `r`, about five times the candidates of
/// any other shape's, and would alone take a quarter of this file's
/// debug run time.
const CARTESIAN: u8 = 6;
/// The fewest cases an axis runs: one round of the zoo inline, one with
/// the bulk block.
const MIN_CASES: u32 = 2 * SHAPES as u32;
/// How many of the bulk block's tuples the transaction after it deletes:
/// past the 16 from which a Δ-set side is probed through its arrangement.
const BULK_DELETED: i64 = 32;
const STRATEGIES: [ExecStrategy; 2] = [Serial, Parallel];

/// Whether cases of shape `shape` may carry the bulk block.
fn takes_bulk(shape: u8) -> bool {
    shape != CARTESIAN && shape != RECURSIVE
}

fn sig(n: usize) -> Vec<TypeId> {
    vec![TypeId::INTEGER; n]
}

/// `name ← clauses`, as wide as the clauses' heads.
fn derive(catalog: &mut Catalog, name: &str, clauses: Vec<Clause>) -> PredId {
    let arity = clauses[0].head.len();
    catalog.define_derived(name, sig(arity), clauses).unwrap()
}

/// Define shape `shape`'s condition over the stored `q/2` and `r/2`:
///
/// | #  | shape            | condition                                                 |
/// |----|------------------|-----------------------------------------------------------|
/// | 0  | join             | `cond(X,Z) ← q(X,Y) ∧ r(Y,Z)`                             |
/// | 1  | selection, arith | `cond(X) ← q(X,V) ∧ W = V*2 ∧ W < 6`                       |
/// | 2  | negation         | `cond(X,Y) ← q(X,Y) ∧ ¬r(X,Y)`                            |
/// | 3  | disjunction      | `cond(X) ← q(X,_) ; cond(X) ← r(_,X)`                     |
/// | 4  | bushy            | `mid(X,Z) ← q(X,Y) ∧ r(Y,Z)`; `cond(X) ← mid(X,Z) ∧ Z < 4` |
/// | 5  | self-join        | `cond(X,Z) ← q(X,Y) ∧ q(Y,Z)`                             |
/// | 6  | cartesian        | `cond(X,Y) ← q(X,_) ∧ r(_,Y)`                             |
/// | 7  | bushy over q     | `mid` as in 4; `cond(X) ← mid(X,Z) ∧ q(Z,_)`              |
/// | 8  | diamond          | `cheap(X) ← q(X,V) ∧ V < 3`; `pricey(X) ← q(X,V) ∧ r(V,X)`; `cond(X) ← cheap(X) ∧ pricey(X)` |
/// | 9  | banded           | `band(X,V) ← q(X,V) ∧ V < 3`; `cond(X) ← band(X,V) ∧ V > 4 ; cond(X) ← q(X,V) ∧ V > 3` |
/// | 10 | linear recursion | `reach(X,Y) ← q(X,Y) ; reach(X,Z) ← reach(X,Y) ∧ q(Y,Z)`   |
///
/// Shape 9's first clause is contradictory (`band`'s `V` is below 3),
/// which `amosql lint` reports as L007; its differentials still run.
fn define_shape(catalog: &mut Catalog, shape: u8, q: PredId, r: PredId) -> PredId {
    let (v, val) = (Term::var, Term::val);
    let c = ClauseBuilder::new;
    let join = c(3).head([v(0), v(2)]).pred(q, [v(0), v(1)]);
    let join = join.pred(r, [v(1), v(2)]).build();
    // `q(X,V)` with head `X`, for a filter on `V` to follow.
    let on_value = || c(2).head([v(0)]).pred(q, [v(0), v(1)]);
    let clauses = match shape {
        0 => vec![join],
        1 => {
            let times_two = c(3).head([v(0)]).pred(q, [v(0), v(1)]);
            let times_two = times_two.arith(v(2), v(1), ArithOp::Mul, val(2));
            vec![times_two.cmp(v(2), CmpOp::Lt, val(6)).build()]
        }
        2 => {
            let body = c(2).head([v(0), v(1)]).pred(q, [v(0), v(1)]);
            vec![body.not_pred(r, [v(0), v(1)]).build()]
        }
        3 => vec![
            on_value().build(),
            c(2).head([v(0)]).pred(r, [v(1), v(0)]).build(),
        ],
        4 | 7 => {
            let mid = derive(catalog, "mid", vec![join]);
            let body = |vars| c(vars).head([v(0)]).pred(mid, [v(0), v(1)]);
            match shape {
                4 => vec![body(2).cmp(v(1), CmpOp::Lt, val(4)).build()],
                _ => vec![body(3).pred(q, [v(1), v(2)]).build()],
            }
        }
        5 => {
            let body = c(3).head([v(0), v(2)]).pred(q, [v(0), v(1)]);
            vec![body.pred(q, [v(1), v(2)]).build()]
        }
        6 => {
            let product = c(4).head([v(0), v(3)]).pred(q, [v(0), v(1)]);
            vec![product.pred(r, [v(2), v(3)]).build()]
        }
        8 => {
            let cheap = on_value().cmp(v(1), CmpOp::Lt, val(3)).build();
            let cheap = derive(catalog, "cheap", vec![cheap]);
            let pricey = on_value().pred(r, [v(1), v(0)]).build();
            let pricey = derive(catalog, "pricey", vec![pricey]);
            let both = c(1).head([v(0)]).pred(cheap, [v(0)]);
            vec![both.pred(pricey, [v(0)]).build()]
        }
        9 => {
            let band = c(2).head([v(0), v(1)]).pred(q, [v(0), v(1)]);
            let band = band.cmp(v(1), CmpOp::Lt, val(3)).build();
            let band = derive(catalog, "band", vec![band]);
            let high = c(2).head([v(0)]).pred(band, [v(0), v(1)]);
            vec![
                high.cmp(v(1), CmpOp::Gt, val(4)).build(),
                on_value().cmp(v(1), CmpOp::Gt, val(3)).build(),
            ]
        }
        RECURSIVE => {
            let reach = catalog.define_derived("reach", sig(2), vec![]).unwrap();
            let step = c(3).head([v(0), v(2)]).pred(reach, [v(0), v(1)]);
            let clauses = vec![
                c(2).head([v(0), v(1)]).pred(q, [v(0), v(1)]).build(),
                step.pred(q, [v(1), v(2)]).build(),
            ];
            catalog.replace_clauses(reach, clauses).unwrap();
            return reach;
        }
        _ => unreachable!("shape {shape} is not in the zoo"),
    };
    derive(catalog, "cond", clauses)
}

/// A `q` or `r` tuple.
type Pair = (i64, i64);
/// One update: on `q` (else `r`), insert (else delete), the tuple.
type Update = (bool, bool, Pair);

/// One generated history. Values come from `0..5`, so joins match and
/// updates collide. `bulk` (see [`takes_bulk`]) adds
/// [`INLINE_WAVE_THRESHOLD`] fresh `q`-tuples to the first transaction,
/// which puts its level 0 on the
/// threaded side of the executor (`q` feeds at least two differentials
/// in every shape). Their keys lie outside the domain and their values
/// inside it, so every block tuple reaches the joins above it, and the
/// later transactions run over the grown base. The second transaction,
/// which a bulk case always has, deletes [`BULK_DELETED`] of them, so
/// its old state of `q` is read through the arrangement of a large Δ₋.
/// `seal` is the sorted-run layout's seal threshold. `arranged` records
/// whether such a read happened.
#[derive(Debug)]
struct Case {
    shape: u8,
    q0: Vec<Pair>,
    r0: Vec<Pair>,
    batches: Vec<Vec<Update>>,
    bulk: bool,
    seal: usize,
    arranged: Cell<bool>,
}

impl Case {
    /// Draw case `n`. Its shape and bulk flag follow from `n`: every 11
    /// cases run the whole zoo, and every `bulk_period`-th such round,
    /// starting with the second, carries the bulk block, so the first
    /// [`MIN_CASES`] cover both sides. The rest is generated.
    fn generate(n: u32, bulk_period: u32, rng: &mut TestRng) -> Case {
        let shape = (n % SHAPES as u32) as u8;
        let bulk = n / SHAPES as u32 % bulk_period == 1 && takes_bulk(shape);
        let value = || (0i64..5, 0i64..5);
        let tuples = || prop::collection::vec(value(), 0..10);
        let batch = prop::collection::vec((any::<bool>(), any::<bool>(), value()), 0..15);
        let batches = prop::collection::vec(batch, 1..4);
        let (q0, r0, mut batches, seal) = (tuples(), tuples(), batches, 1usize..6).generate(rng);
        if bulk && batches.len() == 1 {
            batches.push(vec![]);
        }
        Case {
            shape,
            q0,
            r0,
            batches,
            bulk,
            seal,
            arranged: Cell::default(),
        }
    }

    /// Whether transaction `i` carries the bulk block: the first one.
    fn bulk_in(&self, i: usize) -> bool {
        self.bulk && i == 0
    }

    /// The case's world in the default storage layout.
    fn world(&self) -> World {
        World::new(self.shape, &self.q0, &self.r0, None)
    }

    /// The case's world with every relation sealing into sorted runs at
    /// `seal` head tuples (`usize::MAX`: never, all in the hash head).
    fn sealed(&self, seal: usize) -> World {
        World::new(self.shape, &self.q0, &self.r0, Some(seal))
    }
}

struct World {
    storage: Storage,
    catalog: Catalog,
    rq: RelId,
    rr: RelId,
    cond: PredId,
    /// The condition's network, built as the engine builds it.
    net: PropagationNetwork,
}

impl World {
    /// `q/2` and `r/2` holding `q0` and `r0`, monitored, and shape
    /// `shape`'s condition over them. A `seal` threshold applies from
    /// the first insert, so the initial contents live in runs too.
    fn new(shape: u8, q0: &[Pair], r0: &[Pair], seal: Option<usize>) -> World {
        let mut storage = Storage::new();
        if let Some(seal) = seal {
            storage.set_seal_threshold(seal);
        }
        let rq = storage.create_relation("q", 2).unwrap();
        let rr = storage.create_relation("r", 2).unwrap();
        let mut catalog = Catalog::new();
        let q = catalog.define_stored("q", sig(2), rq, 1).unwrap();
        let r = catalog.define_stored("r", sig(2), rr, 1).unwrap();
        let cond = define_shape(&mut catalog, shape, q, r);
        for (rel, tuples) in [(rq, q0), (rr, r0)] {
            for &(a, b) in tuples {
                storage.insert(rel, tuple![a, b]).unwrap();
            }
            storage.monitor(rel);
        }
        let net = PropagationNetwork::build(&catalog, &mut storage, &[cond]).unwrap();
        World {
            storage,
            catalog,
            rq,
            rr,
            cond,
            net,
        }
    }

    /// Open a transaction holding `case`'s batch `i`, and the bulk block
    /// if it goes there.
    fn begin(&mut self, case: &Case, i: usize) {
        self.storage.begin().unwrap();
        for &(on_q, insert, (a, b)) in &case.batches[i] {
            let rel = if on_q { self.rq } else { self.rr };
            if insert {
                self.storage.insert(rel, tuple![a, b]).unwrap();
            } else {
                self.storage.delete(rel, &tuple![a, b]).unwrap();
            }
        }
        let block = |n: i64| tuple![1000 + n, n % 5];
        if case.bulk_in(i) {
            for n in 0..INLINE_WAVE_THRESHOLD as i64 {
                self.storage.insert(self.rq, block(n)).unwrap();
            }
        }
        if case.bulk && i == 1 {
            for n in 0..BULK_DELETED {
                self.storage.delete(self.rq, &block(n)).unwrap();
            }
        }
    }

    /// Run `case`'s transactions one by one: open each, hand it to
    /// `check`, note whether it arranged `q`'s Δ-set, commit it.
    fn passes(&mut self, case: &Case, mut check: impl FnMut(&World, usize)) {
        for i in 0..case.batches.len() {
            self.begin(case, i);
            check(self, i);
            self.note_arranged(case);
            self.storage.commit().unwrap();
        }
    }

    /// Record on `case` whether an old-state read of `q` went through an
    /// arrangement of the open transaction's Δ-set. The passes read a
    /// clone of it, so only a read through its `Undo` layer caches one.
    fn note_arranged(&self, case: &Case) {
        let delta = self.storage.delta(self.rq);
        case.arranged
            .update(|a| a || delta.is_some_and(|d| d.index_count() > 0));
    }

    /// A pass with fresh evaluator state, its planner included.
    fn pass(&self, strategy: ExecStrategy) -> PropagationResult {
        let (net, catalog, storage) = (&self.net, &self.catalog, &self.storage);
        let r = propagate_with(net, catalog, storage, CheckLevel::Nervous, strategy);
        indexed(r.unwrap())
    }

    /// A pass over caller-kept evaluator state: its planner and memo.
    fn adaptive(&self, strategy: ExecStrategy, shared: &Arc<EvalShared>) -> PropagationResult {
        let (net, catalog, storage) = (&self.net, &self.catalog, &self.storage);
        let r = propagate_adaptive(net, catalog, storage, strategy, shared);
        indexed(r.unwrap())
    }

    /// The condition's exact Δ-set, by evaluation in both states.
    fn truth(&self) -> DeltaSet {
        recompute_delta(&self.catalog, &self.storage, self.cond).unwrap()
    }

    /// The condition's extension and both relations' contents, sorted.
    fn contents(&self) -> [Vec<Tuple>; 3] {
        let cond = full_eval(&self.catalog, &self.storage, self.cond, StateEpoch::New).unwrap();
        let scan = |rel| sorted(self.storage.relation(rel).scan());
        [sorted(&cond), scan(self.rq), scan(self.rr)]
    }

    /// Whether a relation of this world holds sealed runs.
    fn has_runs(&self) -> bool {
        let runs = |rel| self.storage.relation(rel).run_count();
        runs(self.rq) + runs(self.rr) > 0
    }
}

/// Assert index availability (DESIGN.md §8): the network build indexed
/// every probe the pass made, so none fell back to a full scan.
fn indexed(r: PropagationResult) -> PropagationResult {
    let m = &r.metrics;
    assert_eq!(
        m.fallback_scans, 0,
        "scan fallbacks at {:?}",
        m.fallback_sites
    );
    r
}

fn sorted<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Vec<Tuple> {
    let mut v: Vec<Tuple> = tuples.into_iter().cloned().collect();
    v.sort();
    v
}

/// A Δ-set as sorted insertions and deletions.
#[derive(Debug, PartialEq)]
struct Delta {
    plus: Vec<Tuple>,
    minus: Vec<Tuple>,
}

impl From<&DeltaSet> for Delta {
    fn from(d: &DeltaSet) -> Delta {
        Delta {
            plus: sorted(d.plus()),
            minus: sorted(d.minus()),
        }
    }
}

/// What a pass reports, as one comparable value: each condition's
/// Δ-set, the work counters, and the order the differentials fired in.
#[derive(Debug, PartialEq)]
struct Pass {
    deltas: BTreeMap<PredId, Delta>,
    candidates: usize,
    rejected: usize,
    fired: Vec<DiffId>,
}

impl Pass {
    fn of(r: &PropagationResult) -> Pass {
        let deltas = r.condition_deltas.iter().map(|(p, d)| (*p, d.into()));
        Pass {
            deltas: deltas.collect(),
            candidates: r.metrics.candidates,
            rejected: r.metrics.rejected,
            fired: r.fired.iter().map(|f| f.diff).collect(),
        }
    }
}

/// Assert that pass `i` took the executor's side of the inline threshold
/// at every level — `serial` never threads; `parallel` threads a level
/// exactly when it has more than one task and a wave of at least
/// [`INLINE_WAVE_THRESHOLD`] tuples, which the bulk block guarantees for
/// level 0 of its pass — and report whether a level threaded.
fn threaded(case: &Case, i: usize, serial: &PropagationResult, par: &PropagationResult) -> bool {
    let serial = &serial.metrics.levels;
    assert!(serial.iter().all(|l| !l.parallel), "pass {i}: {serial:?}");
    let levels = &par.metrics.levels;
    for l in levels {
        let wide = l.tasks > 1 && l.wave_tuples >= INLINE_WAVE_THRESHOLD;
        assert_eq!(l.parallel, wide, "pass {i}: {l:?}");
    }
    if case.bulk_in(i) {
        assert!(levels[0].parallel, "pass {i}: the bulk block ran inline");
    }
    levels.iter().any(|l| l.parallel)
}

fn untabled() -> Arc<EvalShared> {
    Arc::new(EvalShared::untabled())
}

/// The (replans, plan-cache hits) of a shared state's planner.
fn counts(shared: &EvalShared) -> (u64, u64) {
    let planner = shared.planner();
    (planner.replan_count(), planner.hit_count())
}

/// The oracles. Each compares two ways of monitoring the same history.
#[derive(Debug, Clone, Copy)]
enum Axis {
    /// The nervous pass plus the strict filter ≡ `recompute_delta`.
    IncrementalNaive,
    /// Nervous propagation misses no insertion and reports exactly the
    /// real deletions (the §7.2 mandatory check).
    NervousNeverUnderReacts,
    /// Serial ≡ parallel execution.
    SerialParallel,
    /// A rolled-back transaction restores the condition and both
    /// relations, in the hash and the sealed layout.
    Rollback,
    /// An `EvalShared` kept across passes (its planner warm, its memo
    /// reset between passes as the rule manager resets it) ≡ a fresh one
    /// on every pass, under both strategies.
    WarmFresh,
    /// Adaptive serial ≡ adaptive parallel, with equal replan and hit
    /// counts.
    AdaptiveSerialParallel,
    /// Adaptive monitoring, strictly filtered, stays exact while
    /// statistics drift across committed passes.
    AdaptiveDrift,
    /// Tabled ≡ untabled derived calls.
    TabledUntabled,
    /// Tabled parallel ≡ untabled serial.
    TabledParallel,
    /// A reused `EvalShared` ≡ a fresh one.
    ReusedShared,
    /// Sorted runs ≡ the hash head.
    RunsHash,
}

impl Axis {
    /// Every how many rounds of the zoo a case carries the bulk block:
    /// every other round for the axes that compare a serial pass with a
    /// threaded one, which the block exists to engage; every eighth (once
    /// per shape in the default 64 cases) for the rest, to which it is
    /// only a large base. A bulk case costs about as much as twenty small
    /// ones.
    fn bulk_period(self) -> u32 {
        match self {
            Axis::SerialParallel
            | Axis::AdaptiveSerialParallel
            | Axis::AdaptiveDrift
            | Axis::TabledParallel => 2,
            _ => 8,
        }
    }

    /// Run `case` through the axis (panicking on a divergence); true when
    /// the mechanism the axis checks engaged.
    fn run(self, case: &Case) -> bool {
        let mut engaged = false;
        match self {
            Axis::IncrementalNaive => case.world().passes(case, |w, i| {
                let got = common::strict_pass(&w.net, &w.catalog, &w.storage, w.cond);
                let truth = w.truth();
                assert_eq!(Delta::from(&got), Delta::from(&truth), "pass {i}");
                engaged |= !truth.is_empty();
            }),
            Axis::NervousNeverUnderReacts => case.world().passes(case, |w, i| {
                let got = w.pass(ExecStrategy::default());
                let got = &got.condition_deltas[&w.cond];
                let truth = w.truth();
                let missed = truth.plus().difference(got.plus()).collect::<Vec<_>>();
                assert!(missed.is_empty(), "pass {i}: missed {missed:?}");
                assert_eq!(sorted(got.minus()), sorted(truth.minus()), "pass {i}");
                engaged |= got.plus().len() > truth.plus().len();
            }),
            Axis::SerialParallel => case.world().passes(case, |w, i| {
                let (serial, parallel) = (w.pass(Serial), w.pass(Parallel));
                assert_eq!(Pass::of(&serial), Pass::of(&parallel), "pass {i}");
                engaged |= threaded(case, i, &serial, &parallel);
            }),
            Axis::Rollback => {
                for seal in [case.seal, usize::MAX] {
                    let mut w = case.sealed(seal);
                    for i in 0..case.batches.len() {
                        let before = w.contents();
                        w.begin(case, i);
                        engaged |= w.contents()[0] != before[0];
                        w.storage.rollback().unwrap();
                        assert_eq!(w.contents(), before, "pass {i}, seal {seal}");
                        w.begin(case, i);
                        w.storage.commit().unwrap();
                    }
                }
            }
            Axis::WarmFresh => {
                let warm = Arc::<EvalShared>::default();
                case.world().passes(case, |w, i| {
                    let fresh = Pass::of(&w.pass(Serial));
                    for strategy in STRATEGIES {
                        warm.reset_pass();
                        let kept = w.adaptive(strategy, &warm);
                        assert_eq!(Pass::of(&kept), fresh, "pass {i}, {strategy:?}");
                    }
                });
                engaged = warm.planner().hit_count() > 0 && warm.tabling_hits() > 0;
            }
            Axis::AdaptiveSerialParallel => {
                let (sp, pp) = (Arc::<EvalShared>::default(), Arc::<EvalShared>::default());
                case.world().passes(case, |w, i| {
                    sp.reset_pass();
                    pp.reset_pass();
                    let serial = w.adaptive(Serial, &sp);
                    let parallel = w.adaptive(Parallel, &pp);
                    assert_eq!(Pass::of(&serial), Pass::of(&parallel), "pass {i}");
                    assert_eq!(counts(&sp), counts(&pp), "pass {i}");
                    engaged |= threaded(case, i, &serial, &parallel);
                });
            }
            Axis::AdaptiveDrift => {
                let (ss, ps) = (Arc::<EvalShared>::default(), Arc::<EvalShared>::default());
                case.world().passes(case, |w, i| {
                    ss.reset_pass();
                    ps.reset_pass();
                    let serial = w.adaptive(Serial, &ss);
                    let parallel = w.adaptive(Parallel, &ps);
                    assert_eq!(Pass::of(&serial), Pass::of(&parallel), "pass {i}");
                    threaded(case, i, &serial, &parallel);
                    let got = &parallel.condition_deltas[&w.cond];
                    let got = common::strict(&w.catalog, &w.storage, w.cond, got);
                    assert_eq!(Delta::from(&got), Delta::from(&w.truth()), "pass {i}");
                });
                assert_eq!(counts(&ss), counts(&ps));
                // A plan recompiled after its statistics drifted: more
                // compilations than cached plans.
                let planner = ss.planner();
                engaged = planner.replan_count() > planner.cached_plans() as u64;
            }
            Axis::TabledUntabled => case.world().passes(case, |w, i| {
                let tabled = w.adaptive(Serial, &Arc::default());
                let untabled = w.adaptive(Serial, &untabled());
                assert_eq!(Pass::of(&tabled), Pass::of(&untabled), "pass {i}");
                let memo = (
                    untabled.metrics.tabling_hits,
                    untabled.metrics.tabling_misses,
                );
                assert_eq!(memo, (0, 0), "pass {i}: untabled memo");
                engaged |= tabled.metrics.tabling_hits > 0;
            }),
            Axis::TabledParallel => case.world().passes(case, |w, i| {
                let tabled = w.adaptive(Parallel, &Arc::default());
                let untabled = w.adaptive(Serial, &untabled());
                assert_eq!(Pass::of(&tabled), Pass::of(&untabled), "pass {i}");
                let threads = threaded(case, i, &untabled, &tabled);
                engaged |= threads && tabled.metrics.tabling_hits > 0;
            }),
            Axis::ReusedShared => {
                // One state across every pass, reset between passes as
                // the rule manager resets it.
                let reused = Arc::<EvalShared>::default();
                case.world().passes(case, |w, i| {
                    reused.reset_pass();
                    let warm = w.adaptive(Serial, &reused);
                    let fresh = w.pass(Serial);
                    assert_eq!(Pass::of(&warm), Pass::of(&fresh), "pass {i}");
                });
                engaged = reused.tabling_hits() > 0;
            }
            Axis::RunsHash => {
                let (mut runs, mut hash) = (case.sealed(case.seal), case.sealed(usize::MAX));
                for i in 0..case.batches.len() {
                    runs.begin(case, i);
                    hash.begin(case, i);
                    let head = Pass::of(&hash.pass(Serial));
                    for strategy in STRATEGIES {
                        let sealed = Pass::of(&runs.pass(strategy));
                        assert_eq!(sealed, head, "pass {i}, {strategy:?}");
                    }
                    assert_eq!(runs.contents(), hash.contents(), "pass {i}");
                    engaged |= runs.has_runs();
                    assert!(!hash.has_runs());
                    runs.note_arranged(case);
                    runs.storage.commit().unwrap();
                    hash.storage.commit().unwrap();
                }
            }
        }
        engaged
    }
}

/// Run `ProptestConfig::default()`'s case count (64; `PROPTEST_CASES`
/// overrides it, down to [`MIN_CASES`]) through `axis`, and assert that
/// every shape ran without the bulk block and every shape that takes it
/// with it, that the axis's mechanism engaged, and — on every axis that
/// runs a pass — that an old-state read probed `q`'s Δ-set through its
/// arrangement. A failure prints the case.
fn drive(axis: Axis) {
    let cases = ProptestConfig::default().resolved_cases().max(MIN_CASES);
    let mut rng = TestRng::for_test(&format!("{axis:?}"));
    let mut ran = [[false; 2]; SHAPES as usize];
    let (mut engaged, mut arranged) = (false, false);
    for n in 0..cases {
        let case = Case::generate(n, axis.bulk_period(), &mut rng);
        match catch_unwind(AssertUnwindSafe(|| axis.run(&case))) {
            Ok(e) => engaged |= e,
            Err(panic) => {
                let msg = (panic.downcast_ref::<String>().map(String::as_str))
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                panic!("{axis:?} diverged on case {n}: {msg}\n{case:?}");
            }
        }
        ran[case.shape as usize][case.bulk as usize] = true;
        arranged |= case.arranged.get();
    }
    let missed = |shape: u8| {
        let [inline, bulk] = ran[shape as usize];
        !inline || (takes_bulk(shape) && !bulk)
    };
    assert!(
        !(0..SHAPES).any(missed),
        "{axis:?}: a shape missed a side of the bulk dimension ([inline, bulk]: {ran:?})"
    );
    assert!(
        engaged,
        "{axis:?}: the mechanism never engaged in {cases} cases"
    );
    // A rollback runs no pass, so nothing reads an old state.
    assert!(
        arranged || matches!(axis, Axis::Rollback),
        "{axis:?}: no old-state read probed an arranged Δ-set in {cases} cases"
    );
}

/// One `#[test]` per axis.
macro_rules! axes {
    ($($test:ident => $axis:ident,)*) => {
        $(#[test] fn $test() { drive(Axis::$axis) })*
    };
}

axes! {
    incremental_equals_naive => IncrementalNaive,
    nervous_never_under_reacts => NervousNeverUnderReacts,
    serial_and_parallel_agree_under_all_check_levels => SerialParallel,
    rollback_restores_condition => Rollback,
    warm_planner_equals_fresh_planner_under_both_strategies => WarmFresh,
    adaptive_serial_and_parallel_agree => AdaptiveSerialParallel,
    adaptive_stays_exact_across_drifting_passes => AdaptiveDrift,
    tabled_equals_untabled_all_check_levels => TabledUntabled,
    tabled_parallel_equals_untabled_serial => TabledParallel,
    reused_shared_state_is_transparent => ReusedShared,
    runs_and_hash_storage_monitor_identically => RunsHash,
}

/// The 800-tuple wave of a bulk transaction: far past the inline
/// threshold, so the default strategy really fans the four level-0
/// differentials out over threads — and must still match serial exactly.
#[test]
fn large_wave_takes_threads_and_stays_exact() {
    let mut w = World::new(0, &[], &[], None);
    w.storage.begin().unwrap();
    for i in 0..400i64 {
        w.storage.insert(w.rq, tuple![i, i % 17]).unwrap();
        w.storage.insert(w.rr, tuple![i % 17, i]).unwrap();
    }
    let (serial, parallel) = (w.pass(Serial), w.pass(Parallel));
    assert_eq!(Pass::of(&serial), Pass::of(&parallel));
    assert_eq!(parallel.metrics.levels[0].wave_tuples, 800);
    assert!(parallel.metrics.levels[0].parallel);
    assert!(serial.metrics.levels.iter().all(|l| !l.parallel));
}

/// What a pass reports per differential, in order: the timing row's
/// counts and the accepted tuples as traced.
fn per_differential(r: &PropagationResult) -> Vec<(usize, usize, usize, Vec<Tuple>)> {
    assert_eq!(r.metrics.differentials.len(), r.fired.len());
    let rows = r.metrics.differentials.iter().zip(&r.fired);
    rows.map(|(t, f)| (t.diff, t.candidates, t.accepted, f.tuples.clone()))
        .collect()
}

/// A bulk Δ-set seeds its differentials in tuple order, so what a pass
/// reports is a property of the Δ-set: the same 800 changes, written in
/// the opposite order (another hash-table history), on threads or not,
/// give the same per-differential counts and the same accepted tuples in
/// the same order. (Every probe here has one match; the order *within* a
/// seed tuple's matches is the index's.)
#[test]
fn bulk_pass_output_order_is_a_property_of_the_delta_set() {
    let pass = |reversed: bool, strategy: ExecStrategy| {
        let mut w = World::new(0, &[], &[], None);
        w.storage.begin().unwrap();
        let mut items: Vec<i64> = (0..400).collect();
        if reversed {
            items.reverse();
        }
        for i in items {
            w.storage.insert(w.rq, tuple![i, 1000 + i]).unwrap();
            w.storage.insert(w.rr, tuple![1000 + i, i % 17]).unwrap();
        }
        per_differential(&w.pass(strategy))
    };
    let reference = pass(false, Serial);
    assert!(reference.iter().any(|(_, _, accepted, _)| *accepted > 16));
    assert_eq!(reference, pass(false, Serial), "same Δ-set twice");
    assert_eq!(reference, pass(true, Serial), "other write order");
    assert_eq!(reference, pass(true, Parallel), "on threads");
}

/// Rows of `big` in the skew scenario, spread over [`GROUPS`] groups.
const BIG_ROWS: i64 = 20_000;
/// Groups in `big`: its first column's NDV.
const GROUPS: i64 = 10;
/// Δ-tuples inserted into `s` per skew transaction.
const DELTA_K: i64 = 8;

/// A statistics-blind source: every relation 10 000 rows with 1 000
/// distinct values per column, every Δ side one tuple. Every probe ties,
/// so textual order decides.
struct Blind;

impl PlanStats for Blind {
    fn cardinality(&self, _rel: RelId) -> f64 {
        10_000.0
    }
    fn ndv(&self, _rel: RelId, _col: usize) -> f64 {
        1_000.0
    }
    fn delta_len(&self, _pred: PredId, _polarity: Polarity) -> f64 {
        1.0
    }
}

/// Live statistics where they matter, as counts. `p(X) ← s(X,G) ∧
/// big(G,Y) ∧ pick(X,Y)`: after a `Δ₊s` seed binds `X` and `G`, both
/// remaining literals are index probes. Blind statistics tie them and
/// take textual order, fanning out through `big`'s 2 000 rows per group
/// before `pick` closes the join; the live estimator ranks the
/// functional `pick` first and the differential becomes
/// probe-then-lookup — two probes per Δ-tuple. Plans resolve once per
/// Δ-polarity, and every later pass is a fingerprint-stable cache hit.
/// The blind plans are the comparison only: the test compiles and runs
/// them itself over the same Δ-set.
#[test]
fn adaptive_planning_probes_the_functional_literal_first_on_skew() {
    let mut storage = Storage::new();
    let rs = storage.create_relation("s", 2).unwrap();
    let rbig = storage.create_relation("big", 2).unwrap();
    let rpick = storage.create_relation("pick", 2).unwrap();
    let mut catalog = Catalog::new();
    let s = catalog.define_stored("s", sig(2), rs, 1).unwrap();
    let big = catalog.define_stored("big", sig(2), rbig, 1).unwrap();
    let pick = catalog.define_stored("pick", sig(2), rpick, 1).unwrap();
    let v = Term::var;
    let body = ClauseBuilder::new(3).head([v(0)]).pred(s, [v(0), v(1)]);
    let body = body.pred(big, [v(1), v(2)]).pred(pick, [v(0), v(2)]);
    let cond = derive(&mut catalog, "p", vec![body.build()]);
    let fanout = BIG_ROWS / GROUPS;
    for g in 0..GROUPS {
        for y in 0..fanout {
            storage.insert(rbig, tuple![g, y]).unwrap();
        }
    }
    for x in 0..1_000 {
        storage.insert(rpick, tuple![x, x % fanout]).unwrap();
    }
    for rel in [rs, rbig, rpick] {
        storage.monitor(rel);
    }
    let net = PropagationNetwork::build(&catalog, &mut storage, &[cond]).unwrap();
    // Open a transaction inserting batch `batch` into `s`.
    let begin = |storage: &mut Storage, batch: i64| {
        storage.begin().unwrap();
        for i in 0..DELTA_K {
            let x = batch * DELTA_K + i;
            storage.insert(rs, tuple![x % 1_000, x % GROUPS]).unwrap();
        }
    };

    // The blind plans over one batch: the heads they derive, and their
    // probes.
    let plans = net.differentials().iter();
    let plans: Vec<Plan> = plans
        .map(|d| compile_clause(&catalog, &d.clause, &HashSet::new(), &Blind).unwrap())
        .collect();
    let mut blind = |batch: i64| {
        begin(&mut storage, batch);
        let mut wave = DeltaMap::new();
        wave.insert(s, storage.delta(rs).unwrap().clone());
        let shared = Arc::<EvalShared>::default();
        let ctx = EvalContext::with_shared(&storage, &catalog, &wave, Arc::clone(&shared));
        let mut heads = Vec::new();
        for plan in &plans {
            ctx.plan_heads(plan, StateEpoch::New, 0, &mut heads)
                .unwrap();
        }
        drop(ctx);
        storage.rollback().unwrap();
        (sorted(&heads), shared.probe_count())
    };
    let (mut blind_heads, _) = blind(0);
    blind_heads.dedup();
    let (_, blind_probes) = blind(9);

    // The planner's passes, one warm planner throughout.
    let shared = Arc::<EvalShared>::default();
    let mut pass = |batch: i64| {
        begin(&mut storage, batch);
        shared.reset_pass();
        let result = propagate_adaptive(&net, &catalog, &storage, Parallel, &shared);
        storage.rollback().unwrap();
        result.unwrap()
    };
    // A warm-up pass on the first batch: both plans derive the same heads.
    let first = pass(0);
    assert_eq!(sorted(first.condition_deltas[&cond].plus()), blind_heads);
    for batch in 0..9 {
        pass(batch);
    }
    let adaptive = pass(9).metrics;
    assert_eq!(counts(&shared), (2, 20));
    assert_eq!(adaptive.probes, (DELTA_K * 2) as u64);
    // Blind: one `big` probe per Δ-tuple, then one `pick` probe per row
    // of its group.
    assert_eq!(blind_probes, (DELTA_K * (1 + fanout)) as u64);
    assert!(blind_probes >= 100 * adaptive.probes);
}

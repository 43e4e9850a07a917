//! The exact oracles' view of a pass: propagation is nervous, and a
//! strict rule filters its condition's insertions with `strict_admits`,
//! so a pass is exact when its filtered Δ-set equals `recompute_delta`.

use amos_core::network::PropagationNetwork;
use amos_core::propagate::{propagate_with, CheckLevel, ExecStrategy};
use amos_core::strict_admits;
use amos_objectlog::catalog::{Catalog, PredId};
use amos_objectlog::eval::{DeltaMap, EvalContext};
use amos_storage::{DeltaSet, StateEpoch, Storage};
use amos_types::Tuple;

/// `cond`'s Δ-set `delta` as a strict rule sees it: the insertions
/// `strict_admits` passes (false before, true after) and the deletions
/// that held before (the pass proved them false after).
pub fn strict(catalog: &Catalog, storage: &Storage, cond: PredId, delta: &DeltaSet) -> DeltaSet {
    let empty = DeltaMap::new();
    let ctx = EvalContext::new(storage, catalog, &empty);
    let admits = |t: &&Tuple| strict_admits(&ctx, cond, t, &mut 0).unwrap();
    let held = |t: &&Tuple| ctx.holds(cond, t, StateEpoch::Old).unwrap();
    let plus = delta.plus().iter().filter(admits).cloned().collect();
    DeltaSet::from_parts(plus, delta.minus().iter().filter(held).cloned().collect())
}

/// One pass under the default strategy, `cond`'s Δ-set strictly
/// filtered.
pub fn strict_pass(
    net: &PropagationNetwork,
    catalog: &Catalog,
    storage: &Storage,
    cond: PredId,
) -> DeltaSet {
    let strategy = ExecStrategy::default();
    let pass = propagate_with(net, catalog, storage, CheckLevel::Nervous, strategy).unwrap();
    strict(catalog, storage, cond, &pass.condition_deltas[&cond])
}

//! # amos-core
//!
//! The paper's primary contribution (Sköld & Risch, ICDE'96): **partial
//! differencing** of rule conditions and the **breadth-first, bottom-up
//! propagation algorithm** for efficient monitoring of deferred complex
//! rule conditions.
//!
//! ## The pipeline
//!
//! 1. A rule's condition is a derived ObjectLog predicate
//!    (`cnd_monitor_items`). At activation the condition is optionally
//!    *expanded* (flattened) — the flat network of fig. 2 — or kept
//!    bushy with shared intermediate nodes (§7.1).
//! 2. [`differ`] generates the **partial differentials**: for every
//!    occurrence of every influent `X` in every clause, the queries
//!    `ΔP/Δ₊X` (seed `Δ₊X`, rest of the body in the new state) and
//!    `ΔP/Δ₋X` (seed `Δ₋X`, other relation literals in the *old* state
//!    via logical rollback). Negated influents flip polarities.
//!    Each differential is compiled once into an index-seeded plan.
//! 3. [`network`] assembles the **propagation network**: nodes are the
//!    condition predicates and their (transitive) influents, levelled by
//!    stratum; each edge carries the differentials from an influent to an
//!    affected predicate (fig. 1/fig. 2).
//! 4. [`propagate`](mod@propagate) runs the §5 algorithm: level by level, for each
//!    changed node, execute the out-edge differentials and accumulate
//!    results into the affected nodes' Δ-sets with `∪Δ`; clear each
//!    node's Δ-set once processed ("wave-front" materialization). §7.2
//!    correction checks keep deletions exact (mandatory) and insertions
//!    strict (optional).
//! 5. [`rules`] implements CA rules on top: per-parameter activation,
//!    the deferred **check phase** (propagate → conflict resolution →
//!    set-oriented action execution → fixpoint), strict vs nervous
//!    semantics, and explainability ([`explain`]).
//!
//! ## Baselines and extensions
//!
//! * [`naive`] — the naive monitor of §6: re-evaluate the full condition
//!   whenever any influent changed, diff against the previous
//!   materialized result.
//! * [`hybrid`] — the §8 "future work" hybrid evaluator: per check phase
//!   choose naive or incremental per rule from a cost estimate.
//! * [`aggregate`] — incremental aggregate nodes (count/sum/avg/min/max),
//!   another §8 extension.

pub mod adaptive;
pub mod aggregate;
pub mod differ;
pub mod error;
pub mod explain;
pub mod hybrid;
pub mod maintained;
pub mod naive;
pub mod network;
pub mod propagate;
pub mod rules;
pub mod verify;

pub use adaptive::{AdaptivePlanner, LiveStats, StaticBounds, StatsFingerprint};
pub use aggregate::{AggFn, AggregateView};
pub use differ::{generate_differentials, DiffId, Differential};
pub use error::CoreError;
pub use explain::{CheckTrace, FiredDifferential, TriggerExplanation};
pub use hybrid::{CostModel, Strategy};
pub use maintained::{ClosureView, MaintainedAggregate, SourceDeltas, UserView};
pub use naive::NaiveMonitor;
pub use network::{NetworkStyle, NodeId, PropagationNetwork};
pub use propagate::{
    propagate_adaptive, propagate_with, recompute_delta, CheckLevel, ExecStrategy,
    PropagationResult,
};
pub use rules::{
    ActionCtx, ActionFn, MonitorMode, MonitorStats, Rule, RuleId, RuleManager, RuleSemantics,
};

//! # amos-objectlog
//!
//! ObjectLog: the typed Datalog dialect AMOSQL compiles into (paper §3.2,
//! and Litwin & Risch, IEEE TKDE 4(6) 1992).
//!
//! In AMOS, *stored functions* compile to facts (base relations) and
//! *derived functions* compile to Horn clauses (derived relations).
//! Rule conditions become derived predicates (`cnd_monitor_items`), and
//! the rule compiler differentiates those predicates into partial
//! differentials — which are themselves ObjectLog clauses whose bodies
//! contain **Δ-literals** (reading a Δ-set instead of a relation) and
//! literals annotated to evaluate in the **old** database state (logical
//! rollback).
//!
//! This crate provides:
//!
//! * [`Catalog`] — predicate definitions: stored (backed by an
//!   `amos_storage` relation) or derived (a disjunction of [`Clause`]s).
//! * [`Clause`] / [`Literal`] / [`Term`] — Horn clauses with conjunctive
//!   bodies over predicate literals (positive or negated, new-state or
//!   old-state), Δ-literals, comparisons, arithmetic, and unification.
//! * [`plan`] — compiled execution plans: a clause body ordered by a
//!   greedy cost heuristic over live statistics with index-backed probes
//!   (the miniature Selinger-style optimizer the paper alludes to via
//!   \[22\]); a small Δ-set seeds the join, implementing "the optimizer
//!   assumes few changes to a single influent".
//! * [`planner`] — the one plan cache: differentials and derived clauses,
//!   each plan kept until the statistics it was compiled under drift.
//! * [`eval`] — the evaluation engine: goal-directed evaluation of any
//!   predicate under a binding pattern, against new or old state, with
//!   recursive handling of derived predicates and safe negation.
//! * [`expand`] — inline expansion (flattening) of derived predicates,
//!   the "AMOSQL compiler expands as many derived relations as possible"
//!   behaviour, configurable to stop at named sub-functions for the §7.1
//!   node-sharing (bushy network) experiments.

pub mod catalog;
pub mod clause;
pub mod error;
pub mod eval;
pub mod expand;
pub mod plan;
pub mod planner;

pub use catalog::{Catalog, PredDef, PredId, PredKind};
pub use clause::{Clause, ClauseBuilder, Literal, Term, Var};
pub use error::ObjectLogError;
pub use eval::{DeltaMap, EvalContext};
pub use expand::{expand_clause, expand_predicate, ExpandOptions};
pub use plan::{compile_clause, Plan, PlanStep};
pub use planner::{LiveStats, PlanKey, Planner};

//! # amos-types
//!
//! Foundational value and type system for the AMOS partial-differencing
//! reproduction (Sköld & Risch, ICDE'96).
//!
//! The paper's data model is the functional data model of Daplex/Iris:
//! everything is an *object* classified by *types*, and data is stored in
//! *functions* over objects. At the storage level a stored function is a
//! base relation of [`Tuple`]s of [`Value`]s; surrogate objects are
//! identified by [`Oid`]s.
//!
//! This crate provides:
//!
//! * [`Value`] — the dynamically-typed runtime value (integers, reals,
//!   strings, booleans, and object identifiers), hashable and totally
//!   ordered so it can live in set-oriented relations.
//! * [`Tuple`] — an immutable, cheaply-clonable row of values.
//! * [`KeyRef`] / [`TupleKey`] — a borrowed key to probe tables of tuples.
//! * [`Oid`] / [`OidGenerator`] — surrogate object identity.
//! * [`TypeRegistry`] — the named type lattice (`create type item;`),
//!   with single-parent subtyping.
//! * [`ValueError`] — arithmetic/type errors raised by built-in operators.

pub mod error;
pub mod hash;
pub mod key;
pub mod oid;
pub mod ops;
pub mod tuple;
pub mod typesys;
pub mod value;

pub use error::ValueError;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use key::{KeyRef, TupleKey};
pub use oid::{Oid, OidGenerator};
pub use ops::{ArithOp, CmpOp};
pub use tuple::Tuple;
pub use typesys::{TypeDef, TypeId, TypeRegistry};
pub use value::Value;

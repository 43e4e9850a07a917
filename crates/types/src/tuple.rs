//! Immutable tuples (rows) of values.
//!
//! Relations in the calculus are *sets of tuples*; Δ-sets, old-state views
//! and propagation wave-fronts all move tuples around, so tuples are
//! reference-counted (`Arc<[Value]>`) and clone in O(1).
//!
//! Every tuple additionally carries a precomputed 64-bit *fingerprint* of
//! its values, computed once at construction with the deterministic
//! [`FxHasher`](crate::FxHasher). `Hash` writes only the fingerprint and
//! `Eq` rejects on fingerprint mismatch before comparing values, so the
//! hash-set operations that dominate propagation (Δ-set folds, old-state
//! overlays, index probes, memo lookups) cost O(1) per tuple instead of
//! re-hashing every `Value` each time the tuple enters another table.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use crate::hash::FxHasher;
use crate::value::Value;

/// An immutable row of [`Value`]s with a cached fingerprint.
#[derive(Debug, Clone)]
pub struct Tuple {
    values: Arc<[Value]>,
    fingerprint: u64,
}

/// The fingerprint of a value sequence; [`KeyRef`](crate::KeyRef) computes
/// it over borrowed values and must agree with [`Tuple::new`].
pub(crate) fn fingerprint_of<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    // Arity first, so () and future zero-like encodings stay distinct.
    h.write_usize(values.len());
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Arc<[Value]>>) -> Self {
        let values = values.into();
        let fingerprint = fingerprint_of(values.iter());
        Tuple {
            values,
            fingerprint,
        }
    }

    /// The empty (0-ary) tuple, used by nullary condition functions whose
    /// truth is "non-empty result".
    pub fn unit() -> Self {
        Tuple::new(Vec::new())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Whether this is the 0-ary tuple.
    pub fn is_unit(&self) -> bool {
        self.values.is_empty()
    }

    /// The values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The cached 64-bit fingerprint of the values. Equal tuples have
    /// equal fingerprints; the converse holds only probabilistically.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Column accessor; `None` if out of range.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Project the given columns into a new tuple.
    ///
    /// # Panics
    /// Panics if any index is out of range — projections are produced by
    /// the compiler against known arities, so an out-of-range index is a
    /// compiler bug, not a data error.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(
            cols.iter()
                .map(|&c| self.values[c].clone())
                .collect::<Vec<_>>(),
        )
    }

    /// Concatenate two tuples (used by products and joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Iterate over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // Fingerprint fast-reject; full comparison only on (rare)
        // collision or genuine equality. Pointer equality short-circuits
        // the clone-heavy case of comparing a tuple with itself.
        self.fingerprint == other.fingerprint
            && (Arc::ptr_eq(&self.values, &other.values) || self.values == other.values)
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order over values only — the fingerprint is an implementation
        // detail and must not affect sorted (deterministic) output.
        self.values.cmp(&other.values)
    }
}

impl Index<usize> for Tuple {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple::new(iter.into_iter().collect::<Vec<_>>())
    }
}

/// Convenience constructor: `tuple![1, "a", oid]` builds a [`Tuple`] from
/// anything convertible into [`Value`].
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, 2, "x"];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(2), Some(&Value::str("x")));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn unit_tuple() {
        let u = Tuple::unit();
        assert!(u.is_unit());
        assert_eq!(u.arity(), 0);
        assert_eq!(u, Tuple::from(vec![]));
    }

    #[test]
    fn project_and_concat() {
        let t = tuple![10, 20, 30];
        assert_eq!(t.project(&[2, 0]), tuple![30, 10]);
        let u = tuple![1].concat(&tuple![2, 3]);
        assert_eq!(u, tuple![1, 2, 3]);
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, 2], tuple![1, 2]);
        assert_ne!(tuple![1, 2], tuple![2, 1]);
    }

    #[test]
    fn display() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, \"a\")");
        assert_eq!(Tuple::unit().to_string(), "()");
    }

    #[test]
    fn clone_is_shallow() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
        assert_eq!(t.fingerprint(), u.fingerprint());
    }

    #[test]
    fn fingerprint_agrees_with_equality() {
        // Independently constructed equal tuples share a fingerprint.
        assert_eq!(tuple![1, "a"].fingerprint(), tuple![1, "a"].fingerprint());
        // Distinct tuples (values or arity) fingerprint apart.
        assert_ne!(tuple![1, 2].fingerprint(), tuple![2, 1].fingerprint());
        assert_ne!(tuple![0].fingerprint(), Tuple::unit().fingerprint());
        assert_ne!(tuple![0].fingerprint(), tuple![0, 0].fingerprint());
    }

    #[test]
    fn hash_uses_cached_fingerprint() {
        use std::hash::BuildHasher;
        let t = tuple![1, 2, 3];
        let s = std::collections::hash_map::RandomState::new();
        assert_eq!(s.hash_one(&t), s.hash_one(t.clone()));
        // Sets behave structurally regardless of construction path.
        let mut set = std::collections::HashSet::new();
        set.insert(t);
        assert!(set.contains(&tuple![1, 2, 3]));
    }

    #[test]
    fn ordering_ignores_fingerprint() {
        let mut v = vec![tuple![2], tuple![1], tuple![3]];
        v.sort();
        assert_eq!(v, vec![tuple![1], tuple![2], tuple![3]]);
    }
}

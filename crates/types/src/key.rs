//! Borrowed probe keys.
//!
//! A probe knows the values it looks for — in the evaluator's bindings, in
//! a caller's slice — before any [`Tuple`] of them exists. [`KeyRef`] is
//! references to those values plus the fingerprint [`Tuple::new`] would
//! cache for them: it looks a key up in a `HashSet<Tuple>` /
//! `HashMap<Tuple, _>` (through `Tuple: Borrow<dyn TupleKey>`), searches a
//! sorted run, and compares against a projection, without allocating.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

use crate::tuple::{fingerprint_of, Tuple};
use crate::value::Value;

/// A sequence of values with the fingerprint of the tuple they form —
/// what [`Tuple`] and [`KeyRef`] have in common, and (as `dyn TupleKey`)
/// the borrowed form of `Tuple` that hash tables are probed with.
pub trait TupleKey {
    /// The fingerprint [`Tuple::new`] caches for these values.
    fn fingerprint(&self) -> u64;
    /// Number of values.
    fn arity(&self) -> usize;
    /// The `i`-th value (`i < arity`).
    fn value(&self, i: usize) -> &Value;

    /// How `t` orders relative to this key under [`Tuple`]'s own `Ord`
    /// (values lexicographically, then arity) — the comparator a binary
    /// search over a sorted run wants.
    fn order_of(&self, t: &Tuple) -> Ordering {
        let shared = self.arity().min(t.arity());
        let values = (0..shared).map(|i| t[i].cmp(self.value(i)));
        let unequal = values.into_iter().find(|o| o.is_ne());
        unequal.unwrap_or_else(|| t.arity().cmp(&self.arity()))
    }
}

impl TupleKey for Tuple {
    fn fingerprint(&self) -> u64 {
        Tuple::fingerprint(self)
    }
    fn arity(&self) -> usize {
        Tuple::arity(self)
    }
    fn value(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl<'a> Borrow<dyn TupleKey + 'a> for Tuple {
    fn borrow(&self) -> &(dyn TupleKey + 'a) {
        self
    }
}

// `Hash` and `Eq` of the borrowed form must agree with `Tuple`'s: the
// fingerprint alone is hashed, and equality is fingerprint, arity, values.
impl Hash for dyn TupleKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint());
    }
}

impl PartialEq for dyn TupleKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint() == other.fingerprint()
            && self.arity() == other.arity()
            && (0..self.arity()).all(|i| self.value(i) == other.value(i))
    }
}

impl Eq for dyn TupleKey + '_ {}

/// Keys up to this arity live on the stack; wider ones spill to the heap.
const INLINE: usize = 8;

/// A borrowed key: references to its values and their tuple fingerprint.
#[derive(Debug, Clone)]
pub struct KeyRef<'a> {
    inline: [&'a Value; INLINE],
    /// Holds *all* the references when there are more than [`INLINE`].
    spill: Vec<&'a Value>,
    len: usize,
    fingerprint: u64,
}

impl<'a> KeyRef<'a> {
    /// The key of `values`, in order.
    pub fn new(values: impl IntoIterator<Item = &'a Value>) -> Self {
        static FILLER: Value = Value::Bool(false);
        let mut key = KeyRef {
            inline: [&FILLER; INLINE],
            spill: Vec::new(),
            len: 0,
            fingerprint: 0,
        };
        for v in values {
            match key.len {
                0..INLINE => key.inline[key.len] = v,
                INLINE => key.spill = key.inline.into_iter().chain([v]).collect(),
                _ => key.spill.push(v),
            }
            key.len += 1;
        }
        key.fingerprint = fingerprint_of(key.values().iter().copied());
        key
    }

    /// The referenced values.
    pub fn values(&self) -> &[&'a Value] {
        if self.len <= INLINE {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Whether `t`'s projection onto `cols` equals this key.
    pub fn matches(&self, t: &Tuple, cols: &[usize]) -> bool {
        self.order_of_projection(t, cols).is_eq()
    }

    /// How `t`'s projection onto `cols` orders relative to this key.
    pub fn order_of_projection(&self, t: &Tuple, cols: &[usize]) -> Ordering {
        debug_assert_eq!(cols.len(), self.len);
        let values = cols.iter().zip(self.values()).map(|(&c, v)| t[c].cmp(v));
        values
            .into_iter()
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }
}

impl TupleKey for KeyRef<'_> {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
    fn arity(&self) -> usize {
        self.len
    }
    fn value(&self, i: usize) -> &Value {
        self.values()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::Oid;
    use crate::{FxHashMap, FxHashSet};

    /// Values of every runtime type, several of each, in no order.
    fn sample_values() -> Vec<Value> {
        vec![
            Value::Int(7),
            Value::str("b"),
            Value::Bool(true),
            Value::Real(-0.5),
            Value::Oid(Oid::from_raw(3)),
            Value::Int(-1),
            Value::str(""),
            Value::Bool(false),
            Value::Real(2.25),
            Value::Oid(Oid::from_raw(0)),
            Value::str("a"),
        ]
    }

    /// Every window of every arity 0..=8 (and two past the inline cap)
    /// over the sample values, rotated so columns mix types.
    fn sample_rows() -> Vec<Vec<Value>> {
        let vals = sample_values();
        let mut rows = Vec::new();
        for arity in (0..=8).chain([9, 11]) {
            for start in 0..vals.len() {
                rows.push(
                    (0..arity)
                        .map(|i| vals[(start + i * 3) % vals.len()].clone())
                        .collect(),
                );
            }
        }
        rows
    }

    #[test]
    fn key_ref_has_the_fingerprint_equality_and_order_of_the_tuple() {
        let rows = sample_rows();
        let tuples: Vec<Tuple> = rows.iter().cloned().map(Tuple::new).collect();
        for (row, tuple) in rows.iter().zip(&tuples) {
            let key = KeyRef::new(row);
            assert_eq!(key.arity(), tuple.arity());
            assert_eq!(TupleKey::fingerprint(&key), tuple.fingerprint(), "{tuple}");
            assert!(key.values().iter().copied().eq(tuple.iter()));
            for other in &tuples {
                assert_eq!(key.order_of(other), other.cmp(tuple), "{other} vs {tuple}");
                let as_dyn: &dyn TupleKey = &key;
                let other_dyn: &dyn TupleKey = other;
                assert_eq!(as_dyn == other_dyn, tuple == other, "{tuple} vs {other}");
            }
        }
    }

    #[test]
    fn key_ref_probes_hash_tables_of_tuples() {
        let rows = sample_rows();
        let set: FxHashSet<Tuple> = rows.iter().step_by(2).cloned().map(Tuple::new).collect();
        let map: FxHashMap<Tuple, usize> = set.iter().cloned().zip(0..).collect();
        for row in &rows {
            let key = KeyRef::new(row);
            let tuple = Tuple::new(row.clone());
            assert_eq!(set.contains(&key as &dyn TupleKey), set.contains(&tuple));
            assert_eq!(map.get(&key as &dyn TupleKey), map.get(&tuple));
        }
        // A std `HashSet` (SipHash) sees the same fingerprint-only hash.
        let std_set: std::collections::HashSet<Tuple> = set.iter().cloned().collect();
        let key = KeyRef::new(&rows[5]);
        assert_eq!(
            std_set.contains(&key as &dyn TupleKey),
            set.contains(&key as &dyn TupleKey)
        );
    }

    #[test]
    fn projection_comparisons() {
        let t = Tuple::new(vec![Value::Int(1), Value::str("x"), Value::Int(9)]);
        let (nine, one) = (Value::Int(9), Value::Int(1));
        let key = KeyRef::new([&nine, &one]);
        assert!(key.matches(&t, &[2, 0]));
        assert!(!key.matches(&t, &[0, 2]));
        assert_eq!(key.order_of_projection(&t, &[2, 0]), Ordering::Equal);
        assert_eq!(key.order_of_projection(&t, &[0, 2]), Ordering::Less);
    }
}

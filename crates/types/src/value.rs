//! The dynamically-typed runtime value.
//!
//! AMOSQL is dynamically typed at the storage level: a stored function
//! maps tuples of values to values. [`Value`] covers the scalar types used
//! by the paper (integers and reals for quantities/thresholds, strings for
//! names, booleans for procedure results, and [`Oid`]s for surrogate
//! objects such as `item` and `supplier` instances).
//!
//! Values must be members of *sets* (the calculus is set-oriented), so
//! `Value` implements `Eq`, `Hash`, and a total `Ord`. Reals are wrapped
//! so that NaN is rejected at construction and bit-equality is total.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::error::ValueError;
use crate::oid::Oid;

/// A runtime value stored in base relations and produced by queries.
#[derive(Debug, Clone)]
pub enum Value {
    /// The SQL-ish `boolean` type; also the implicit result of procedures.
    Bool(bool),
    /// 64-bit integer (`integer` in AMOSQL).
    Int(i64),
    /// 64-bit IEEE real (`real` in AMOSQL). Never NaN.
    Real(f64),
    /// Interned string (`charstring` in AMOSQL).
    Str(Arc<str>),
    /// Surrogate object identifier (instances of user types).
    Oid(Oid),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Build a real value, rejecting NaN (which would break total order).
    pub fn real(r: f64) -> Result<Self, ValueError> {
        if r.is_nan() {
            Err(ValueError::NanReal)
        } else {
            Ok(Value::Real(r))
        }
    }

    /// The AMOSQL type name of this value's runtime type.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Real(_) => "real",
            Value::Str(_) => "charstring",
            Value::Oid(_) => "object",
        }
    }

    /// Extract an integer, or error with context.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ValueError::TypeMismatch {
                expected: "integer",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a boolean, or error with context.
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::TypeMismatch {
                expected: "boolean",
                found: other.type_name(),
            }),
        }
    }

    /// Extract a string slice, or error with context.
    pub fn as_str(&self) -> Result<&str, ValueError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(ValueError::TypeMismatch {
                expected: "charstring",
                found: other.type_name(),
            }),
        }
    }

    /// Numeric promotion: integers widen to reals when mixed.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    fn numeric_pair(&self, other: &Value) -> Result<(f64, f64), ValueError> {
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => Ok((a, b)),
            _ => Err(ValueError::NotNumeric {
                lhs: self.type_name(),
                rhs: other.type_name(),
            }),
        }
    }

    /// `self + other` with integer/real promotion.
    pub fn add(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_add(*b)
                .map(Value::Int)
                .ok_or(ValueError::Overflow("+")),
            _ => {
                let (a, b) = self.numeric_pair(other)?;
                Value::real(a + b)
            }
        }
    }

    /// `self - other` with integer/real promotion.
    pub fn sub(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_sub(*b)
                .map(Value::Int)
                .ok_or(ValueError::Overflow("-")),
            _ => {
                let (a, b) = self.numeric_pair(other)?;
                Value::real(a - b)
            }
        }
    }

    /// `self * other` with integer/real promotion.
    pub fn mul(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a
                .checked_mul(*b)
                .map(Value::Int)
                .ok_or(ValueError::Overflow("*")),
            _ => {
                let (a, b) = self.numeric_pair(other)?;
                Value::real(a * b)
            }
        }
    }

    /// `self / other`; integer division truncates, division by zero errors.
    pub fn div(&self, other: &Value) -> Result<Value, ValueError> {
        match (self, other) {
            (Value::Int(_), Value::Int(0)) => Err(ValueError::DivisionByZero),
            (Value::Int(a), Value::Int(b)) => a
                .checked_div(*b)
                .map(Value::Int)
                .ok_or(ValueError::Overflow("/")),
            _ => {
                let (a, b) = self.numeric_pair(other)?;
                if b == 0.0 {
                    Err(ValueError::DivisionByZero)
                } else {
                    Value::real(a / b)
                }
            }
        }
    }

    /// Unary negation.
    pub fn neg(&self) -> Result<Value, ValueError> {
        match self {
            Value::Int(a) => a
                .checked_neg()
                .map(Value::Int)
                .ok_or(ValueError::Overflow("-")),
            Value::Real(r) => Value::real(-r),
            other => Err(ValueError::TypeMismatch {
                expected: "numeric",
                found: other.type_name(),
            }),
        }
    }

    /// Comparison as used by AMOSQL predicates (`<`, `<=`, …).
    ///
    /// Numeric values compare by value across `Int`/`Real`; comparing
    /// values of incomparable runtime types (e.g. an `Oid` with an `Int`)
    /// is an error at the predicate level, unlike the *total* order
    /// implemented by [`Ord`] which exists only so values can be sorted
    /// deterministically inside relations.
    pub fn compare(&self, other: &Value) -> Result<Ordering, ValueError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Oid(a), Value::Oid(b)) => Ok(a.cmp(b)),
            _ => {
                let (a, b) = self.numeric_pair(other)?;
                // Neither side is NaN by construction.
                Ok(a.partial_cmp(&b).expect("reals are never NaN"))
            }
        }
    }
}

/// Rank used to totally order values of different runtime types.
fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Bool(_) => 0,
        Value::Int(_) => 1,
        Value::Real(_) => 2,
        Value::Str(_) => 3,
        Value::Oid(_) => 4,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Real(a), Value::Real(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Oid(a), Value::Oid(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        type_rank(self).hash(state);
        match self {
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Real(r) => r.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Oid(o) => o.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// A total order across *all* values, used for deterministic sorting
    /// of result sets. Values of different runtime types order by type
    /// rank; reals order by IEEE total ordering of bits sign-adjusted.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Oid(a), Value::Oid(b)) => a.cmp(b),
            _ => type_rank(self).cmp(&type_rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::Oid(o) => write!(f, "{o}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_int() {
        let a = Value::Int(6);
        let b = Value::Int(7);
        assert_eq!(a.mul(&b).unwrap(), Value::Int(42));
        assert_eq!(a.add(&b).unwrap(), Value::Int(13));
        assert_eq!(a.sub(&b).unwrap(), Value::Int(-1));
        assert_eq!(b.div(&a).unwrap(), Value::Int(1));
    }

    #[test]
    fn arithmetic_promotes_to_real() {
        let a = Value::Int(3);
        let b = Value::real(0.5).unwrap();
        assert_eq!(a.add(&b).unwrap(), Value::real(3.5).unwrap());
        assert_eq!(a.mul(&b).unwrap(), Value::real(1.5).unwrap());
    }

    #[test]
    fn overflow_is_an_error() {
        let a = Value::Int(i64::MAX);
        assert!(matches!(
            a.add(&Value::Int(1)),
            Err(ValueError::Overflow("+"))
        ));
        assert!(matches!(
            a.mul(&Value::Int(2)),
            Err(ValueError::Overflow("*"))
        ));
    }

    #[test]
    fn division_by_zero() {
        assert!(matches!(
            Value::Int(1).div(&Value::Int(0)),
            Err(ValueError::DivisionByZero)
        ));
        assert!(matches!(
            Value::real(1.0).unwrap().div(&Value::real(0.0).unwrap()),
            Err(ValueError::DivisionByZero)
        ));
    }

    #[test]
    fn nan_rejected() {
        assert!(matches!(Value::real(f64::NAN), Err(ValueError::NanReal)));
    }

    #[test]
    fn compare_mixed_numeric() {
        let a = Value::Int(2);
        let b = Value::real(2.5).unwrap();
        assert_eq!(a.compare(&b).unwrap(), Ordering::Less);
        assert_eq!(b.compare(&a).unwrap(), Ordering::Greater);
        assert_eq!(a.compare(&Value::Int(2)).unwrap(), Ordering::Equal);
    }

    #[test]
    fn compare_incomparable_types_errors() {
        let a = Value::Oid(Oid::from_raw(1));
        assert!(a.compare(&Value::Int(1)).is_err());
        assert!(Value::str("x").compare(&Value::Int(1)).is_err());
    }

    #[test]
    fn total_order_is_consistent_with_eq() {
        let vals = [
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(3),
            Value::real(2.5).unwrap(),
            Value::str("a"),
            Value::str("b"),
            Value::Oid(Oid::from_raw(9)),
        ];
        for a in &vals {
            for b in &vals {
                let ord = a.cmp(b);
                assert_eq!(ord == Ordering::Equal, a == b, "{a} vs {b}");
                assert_eq!(b.cmp(a), ord.reverse());
            }
        }
    }

    #[test]
    fn display_round_trips_readably() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("abc").to_string(), "\"abc\"");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn extractors() {
        assert_eq!(Value::Int(4).as_int().unwrap(), 4);
        assert!(Value::Bool(true).as_int().is_err());
        assert!(Value::Int(4).as_bool().is_err());
        assert_eq!(Value::str("s").as_str().unwrap(), "s");
    }
}

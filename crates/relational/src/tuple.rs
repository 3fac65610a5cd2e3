//! Database tuples: fixed-arity sequences of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An immutable database tuple.
///
/// Backed by `Arc<[Value]>` so that cloning tuples during repair-space
/// search, grounding and Δ bookkeeping is a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

/// A relation can be searched by a value slice
/// (`relation.contains(values)`) without building a tuple: a `Tuple`
/// compares, orders and hashes exactly as its values do.
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// The values, in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Value at (0-based) position `i`.
    ///
    /// The paper's `R[i]` notation is 1-based; all public APIs of this
    /// workspace are 0-based and say so explicitly.
    pub fn get(&self, i: usize) -> &Value {
        &self.0[i]
    }

    /// `true` iff some attribute is null.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }

    /// `true` iff every attribute is null.
    pub fn all_null(&self) -> bool {
        !self.0.is_empty() && self.0.iter().all(Value::is_null)
    }

    /// 0-based positions holding null.
    pub fn null_positions(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_null())
            .map(|(i, _)| i)
            .collect()
    }

    /// Projection onto the given 0-based positions (Definition 3's `Π_A`).
    ///
    /// Panics if a position is out of range — projections are always driven
    /// by a validated attribute set.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&p| self.0[p]).collect())
    }

    /// A copy with position `i` replaced by `v`.
    pub fn with_value(&self, i: usize, v: Value) -> Tuple {
        let mut vals: Vec<Value> = self.0.to_vec();
        vals[i] = v;
        Tuple::new(vals)
    }

    /// Does this tuple *provide less or equal information* than `other`?
    ///
    /// Levene & Loizou's order on tuples with nulls (used by the paper in
    /// Example 9): for every attribute, `self[i] == other[i]` or
    /// `self[i]` is null. Tuples of different arity are incomparable.
    pub fn leq_information(&self, other: &Tuple) -> bool {
        self.arity() == other.arity()
            && self
                .0
                .iter()
                .zip(other.0.iter())
                .all(|(a, b)| a.is_null() || a == b)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl<V: Into<Value>, const N: usize> From<[V; N]> for Tuple {
    fn from(vs: [V; N]) -> Self {
        Tuple::new(vs.into_iter().map(Into::into))
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter)
    }
}

/// Build a [`Tuple`] from a mixed list of values.
///
/// ```
/// use cqa_relational::{tuple, Value};
/// let t = tuple![1, "a", Value::Null];
/// assert_eq!(t.arity(), 3);
/// assert!(t.get(2).is_null());
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{i, null, s};

    fn t(vs: Vec<Value>) -> Tuple {
        Tuple::new(vs)
    }

    #[test]
    fn arity_and_access() {
        let x = t(vec![i(1), s("a"), null()]);
        assert_eq!(x.arity(), 3);
        assert_eq!(x.get(0), &i(1));
        assert_eq!(x.get(2), &null());
    }

    #[test]
    fn null_introspection() {
        assert!(t(vec![i(1), null()]).has_null());
        assert!(!t(vec![i(1), s("b")]).has_null());
        assert!(t(vec![null(), null()]).all_null());
        assert!(!t(vec![null(), i(2)]).all_null());
        assert_eq!(t(vec![null(), i(2), null()]).null_positions(), vec![0, 2]);
    }

    #[test]
    fn projection() {
        let x = t(vec![s("a"), s("b"), s("c")]);
        assert_eq!(x.project(&[0, 2]), t(vec![s("a"), s("c")]));
        assert_eq!(x.project(&[2, 2]), t(vec![s("c"), s("c")]));
        assert_eq!(x.project(&[]), t(vec![]));
    }

    #[test]
    fn with_value_replaces_one_position() {
        let x = t(vec![s("a"), null()]);
        assert_eq!(x.with_value(1, s("b")), t(vec![s("a"), s("b")]));
        // original untouched
        assert!(x.get(1).is_null());
    }

    #[test]
    fn information_order_example9() {
        // (W04, 34) provides MORE information than (W04, null):
        let t1 = t(vec![s("W04"), i(34)]);
        let t2 = t(vec![s("W04"), null()]);
        assert!(t2.leq_information(&t1));
        assert!(!t1.leq_information(&t2));
        assert!(t1.leq_information(&t1));
        // different arity: incomparable
        assert!(!t2.leq_information(&t(vec![s("W04")])));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = t(vec![i(1), i(2)]);
        let b = t(vec![i(1), i(3)]);
        let c = t(vec![null(), i(9)]);
        assert!(a < b);
        assert!(c < a); // null sorts first
    }

    #[test]
    fn display() {
        assert_eq!(t(vec![i(1), null(), s("x")]).to_string(), "(1, null, x)");
    }
}

//! Cell values.
//!
//! The paper's data model is untyped constants drawn from attribute
//! domains; we model them with a small dynamic [`Value`] enum. String
//! payloads are interned [`Sym`]bols (see [`crate::symbol`]), so a
//! `Value` is a 16-byte `Copy` word: the fixing engine copies master
//! values into input tuples and compares/hashes projected key lists on
//! every rule application, and all of those are now machine-word
//! integer operations. Resolution back to text happens only at
//! display and CSV boundaries.

use std::borrow::Cow;
use std::fmt;

use crate::symbol::Sym;

/// A single cell value.
///
/// `Null` represents a *missing* value (e.g. the empty `str`/`zip` cells
/// of tuple `t2` in Fig. 1 of the paper). Missing values never compare
/// equal to any constant during rule matching — a rule can *fill* a null
/// (by writing its `rhs`) but never *match* on one.
///
/// Equality and hashing are O(1): `Str` compares interned ids, which
/// the global [`crate::Interner`] keeps in bijection with string
/// contents. Ordering still compares string *text* (via [`Sym`]'s
/// `Ord`), so sorted output is identical to the pre-interning
/// representation: `Null < Int(_) < Str(_)`, integers numerically,
/// strings lexicographically.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Value {
    /// A missing / unknown cell.
    #[default]
    Null,
    /// An integer constant.
    Int(i64),
    /// An interned string constant.
    Str(Sym),
}

impl Value {
    /// Build a string value (interning its text).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Sym::intern(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// `true` iff the cell is missing.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A cheap injective grouping key: equal values — and only equal
    /// values — share a rank (the interner keeps symbols in bijection
    /// with string contents). `Null` is 0; ints and symbols carry a
    /// tag in bits 64–65 above their payload. Hot paths group, hash,
    /// and compare values by rank without touching string text; the
    /// rank order is NOT the semantic [`Ord`] order.
    #[inline]
    pub fn grouping_rank(&self) -> u128 {
        match *self {
            Value::Null => 0,
            Value::Int(i) => (1u128 << 64) | u128::from(i as u64),
            Value::Str(s) => (2u128 << 64) | u128::from(s.id()),
        }
    }

    /// View the value as a string slice when it is a `Str`.
    ///
    /// Interned strings live for the life of the process, hence the
    /// `'static` borrow.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The interned symbol when the value is a `Str`.
    pub fn as_sym(&self) -> Option<Sym> {
        match self {
            Value::Str(s) => Some(*s),
            _ => None,
        }
    }

    /// View the value as an integer when it is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Render the value for CSV-style output. `Null` renders as the empty
    /// string; everything else via `Display`.
    pub fn render(&self) -> Cow<'static, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Int(i) => Cow::Owned(i.to_string()),
            Value::Str(s) => Cow::Borrowed(s.as_str()),
        }
    }

    /// Equality used by rule matching: two cells "agree" iff both are
    /// non-null and equal. A null never agrees with anything, including
    /// another null (a missing value is an *unknown* constant).
    pub fn agrees_with(&self, other: &Value) -> bool {
        !self.is_null() && !other.is_null() && self == other
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "⊥"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Sym::intern(&s))
    }
}

impl From<Sym> for Value {
    fn from(s: Sym) -> Self {
        Value::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_default() {
        assert_eq!(Value::default(), Value::Null);
        assert!(Value::Null.is_null());
        assert!(!Value::int(3).is_null());
    }

    #[test]
    fn agreement_requires_non_null_equality() {
        assert!(Value::str("Edi").agrees_with(&Value::str("Edi")));
        assert!(!Value::str("Edi").agrees_with(&Value::str("Ldn")));
        assert!(!Value::Null.agrees_with(&Value::Null));
        assert!(!Value::Null.agrees_with(&Value::int(1)));
        assert!(!Value::int(1).agrees_with(&Value::Null));
    }

    #[test]
    fn int_and_str_never_equal() {
        assert_ne!(Value::int(20), Value::str("20"));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7), Value::Int(7));
        assert_eq!(Value::from("abc"), Value::str("abc"));
        assert_eq!(Value::from(String::from("abc")), Value::str("abc"));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::int(4).as_int(), Some(4));
        assert_eq!(Value::Null.as_str(), None);
        assert_eq!(Value::str("x").as_int(), None);
        assert_eq!(Value::from(Sym::intern("abc")), Value::str("abc"));
        assert_eq!(Value::str("abc").as_sym(), Some(Sym::intern("abc")));
        assert_eq!(Value::int(1).as_sym(), None);
    }

    #[test]
    fn rendering() {
        assert_eq!(Value::Null.render(), "");
        assert_eq!(Value::int(-3).render(), "-3");
        assert_eq!(Value::str("a b").render(), "a b");
        assert_eq!(format!("{}", Value::Null), "⊥");
        assert_eq!(format!("{:?}", Value::str("a")), "\"a\"");
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![Value::str("b"), Value::Null, Value::int(2), Value::str("a")];
        vs.sort();
        assert_eq!(
            vs,
            vec![Value::Null, Value::int(2), Value::str("a"), Value::str("b")]
        );
    }

    #[test]
    fn value_is_a_copy_word() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<Value>();
        assert!(std::mem::size_of::<Value>() <= 16);
    }

    #[test]
    fn equal_strings_share_one_symbol() {
        let (a, b) = (Value::str("shared"), Value::str("shared"));
        assert_eq!(a.as_sym(), b.as_sym());
    }
}

//! Dynamically typed cell values with a total order and canonical hashing.
//!
//! Sources in a wrangling pipeline disagree about representation: `"42"`,
//! `42` and `42.0` may all denote the same price. [`Value`] keeps the typed
//! representation but defines cross-type numeric comparison, so grouping,
//! joining and fusing values from heterogeneous sources behaves sensibly.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::schema::DataType;
use crate::text::Text;

/// A single cell value.
///
/// `Float` is ordered with a total order (NaN sorts last among floats) and
/// hashed canonically: a float with an exact integer value hashes identically
/// to the corresponding `Int`, so `42` and `42.0` land in the same group.
#[derive(Debug, Clone)]
pub enum Value {
    /// Missing / unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string, shared: cloning the cell bumps a count.
    Str(Text),
}

impl Value {
    /// The dynamic type of this value.
    pub fn dtype(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, if it is `Int` or `Float`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view, if it is `Int` or an integral `Float`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// String view, if it is `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Render the value as a plain string (`Null` renders empty). This is the
    /// representation used by the CSV writer and by string-based matchers.
    pub fn render(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Str(s) => String::from(&**s),
        }
    }

    /// The cell as text to read: a string borrowed, anything else rendered
    /// as [`Value::render`] does. Reads that only look at the text (lower,
    /// trim, tokenize, compare) take this and allocate nothing for a string.
    pub fn text(&self) -> Cow<'_, str> {
        match self {
            Value::Str(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.render()),
        }
    }

    /// Attempt to coerce this value to `target`. `Null` coerces to anything.
    /// Numeric widening (`Int` → `Float`), narrowing of integral floats, and
    /// string parsing / rendering are supported; anything else is an error.
    pub fn coerce(&self, target: DataType) -> crate::Result<Value> {
        use crate::TableError::TypeError;
        if self.dtype() == target || target == DataType::Null {
            return Ok(self.clone());
        }
        if self.is_null() {
            return Ok(Value::Null);
        }
        match target {
            DataType::Float => self
                .as_f64()
                .map(Value::Float)
                .or_else(|| {
                    self.as_str()
                        .and_then(|s| s.trim().parse().ok())
                        .map(Value::Float)
                })
                .ok_or_else(|| TypeError(format!("cannot coerce {self:?} to Float"))),
            DataType::Int => self
                .as_i64()
                .or_else(|| self.as_str().and_then(|s| s.trim().parse().ok()))
                .map(Value::Int)
                .ok_or_else(|| TypeError(format!("cannot coerce {self:?} to Int"))),
            DataType::Str => Ok(Value::from(self.render())),
            DataType::Bool => match self {
                Value::Str(s) => match s.trim().to_ascii_lowercase().as_str() {
                    "true" | "t" | "yes" | "1" => Ok(Value::Bool(true)),
                    "false" | "f" | "no" | "0" => Ok(Value::Bool(false)),
                    _ => Err(TypeError(format!("cannot coerce {s:?} to Bool"))),
                },
                Value::Int(i) => Ok(Value::Bool(*i != 0)),
                _ => Err(TypeError(format!("cannot coerce {self:?} to Bool"))),
            },
            // Handled by the early return above; kept total so a future
            // refactor of that guard can't reintroduce a panic path.
            DataType::Null => Ok(self.clone()),
        }
    }

    /// Rank of the type in the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
        }
    }
}

/// Format a float the way the system renders it everywhere: integral floats
/// without a trailing `.0` would collide with Int rendering — keep `.0` off
/// so `42.0` renders as `42`, matching canonical hashing.
fn format_float(f: f64) -> String {
    if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{}", f as i64)
    } else {
        format!("{f}")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: Null < Bool < numerics (Int/Float compared numerically,
    /// NaN greatest) < Str.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => total_f64_cmp(*a, *b),
            (Value::Int(a), Value::Float(b)) => total_f64_cmp(*a as f64, *b),
            (Value::Float(a), Value::Int(b)) => total_f64_cmp(*a, *b as f64),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.partial_cmp(&b).expect("both finite-or-inf"), // lint-allow: NaN handled by the other match arms
    }
}

impl Hash for Value {
    /// Canonical hash consistent with `Eq`: `Int(42)` and `Float(42.0)` hash
    /// identically (both as the integer 42); non-integral floats hash by bits.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Value::Int(i) => {
                state.write_u8(2);
                i.hash(state);
            }
            Value::Float(f) => {
                if let Some(i) = self.as_i64() {
                    state.write_u8(2);
                    i.hash(state);
                } else {
                    state.write_u8(3);
                    // Normalize NaN payloads so Eq-equal NaNs hash equal.
                    let bits = if f.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        f.to_bits()
                    };
                    bits.hash(state);
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            other => f.write_str(&other.text()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<Text> for Value {
    fn from(v: Text) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Value::Null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut hs = DefaultHasher::new();
        v.hash(&mut hs);
        hs.finish()
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(Value::Int(42), Value::Float(42.0));
        assert_ne!(Value::Int(42), Value::Float(42.5));
        assert_eq!(h(&Value::Int(42)), h(&Value::Float(42.0)));
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vals = [
            Value::Str("a".into()),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
            Value::Float(0.5),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(0.5));
        assert_eq!(vals[3], Value::Int(1));
        assert_eq!(vals[4], Value::Str("a".into()));
    }

    #[test]
    fn nan_is_equal_to_itself_and_sorts_last_among_numbers() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert_eq!(h(&nan), h(&Value::Float(f64::NAN)));
        assert!(nan > Value::Float(f64::INFINITY));
        assert!(nan < Value::Str("".into()));
    }

    #[test]
    fn render_roundtrips_integral_float_as_int() {
        assert_eq!(Value::Float(42.0).render(), "42");
        assert_eq!(Value::Float(42.5).render(), "42.5");
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn coercions() {
        assert_eq!(
            Value::Str("3.5".into()).coerce(DataType::Float).unwrap(),
            Value::Float(3.5)
        );
        assert_eq!(
            Value::Str(" 7 ".into()).coerce(DataType::Int).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            Value::Int(1).coerce(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Str("yes".into()).coerce(DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::Float(2.0).coerce(DataType::Int).unwrap(),
            Value::Int(2)
        );
        assert!(Value::Str("abc".into()).coerce(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce(DataType::Int).unwrap(), Value::Null);
        assert_eq!(
            Value::Int(5).coerce(DataType::Str).unwrap(),
            Value::Str("5".into())
        );
    }

    #[test]
    fn option_from_impl() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(3i64)), Value::Int(3));
    }

    #[test]
    fn a_cell_is_three_words() {
        // A string cell is a fat pointer to a shared string (two words) and
        // a tag: every table column holds rows × 24 bytes of cells.
        assert_eq!(std::mem::size_of::<Value>(), 24);
    }

    #[test]
    fn text_borrows_a_string_and_renders_the_rest() {
        let s = Value::from("Acme");
        assert!(matches!(s.text(), Cow::Borrowed("Acme")));
        assert_eq!(Value::Float(42.0).text(), "42");
        assert_eq!(Value::Null.text(), "");
    }

    #[test]
    fn as_i64_narrowing() {
        assert_eq!(Value::Float(3.0).as_i64(), Some(3));
        assert_eq!(Value::Float(3.5).as_i64(), None);
        assert_eq!(Value::Float(f64::NAN).as_i64(), None);
    }
}

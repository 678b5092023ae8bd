//! A small expression language over rows.
//!
//! Expressions are built by name ([`Expr::col`]) and *bound* against a schema
//! once ([`Expr::bind`]), producing a [`BoundExpr`] that evaluates with plain
//! index lookups — name resolution is paid once per plan, not once per row.
//! Mappings (`wrangler-mapping`) compile their transformations to bound
//! expressions, and quality rules use them as predicates.

use crate::schema::{DataType, Schema};
use crate::value::Value;
use crate::{Result, TableError};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// An unbound expression tree referring to columns by name.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by name.
    Col(String),
    /// Literal value.
    Lit(Value),
    /// Comparison of two sub-expressions (`Null` compared with anything is `Null`,
    /// mirroring SQL three-valued logic).
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on numeric sub-expressions.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction (three-valued).
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction (three-valued).
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation (three-valued).
    Not(Box<Expr>),
    /// True iff the operand is null.
    IsNull(Box<Expr>),
    /// Lower-case a string operand.
    Lower(Box<Expr>),
    /// Trim whitespace from a string operand.
    Trim(Box<Expr>),
    /// Length of the rendered value in characters.
    Len(Box<Expr>),
    /// First non-null operand.
    Coalesce(Vec<Expr>),
    /// Cast operand to a data type (errors on failure).
    Cast(DataType, Box<Expr>),
    /// Concatenate rendered operands.
    Concat(Vec<Expr>),
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// Literal.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }
    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ne, Box::new(self), Box::new(other))
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Lt, Box::new(self), Box::new(other))
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Le, Box::new(self), Box::new(other))
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Gt, Box::new(self), Box::new(other))
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::Cmp(CmpOp::Ge, Box::new(self), Box::new(other))
    }
    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }
    /// `self OR other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }
    /// `NOT self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self + other`.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Add, Box::new(self), Box::new(other))
    }
    /// `self - other`.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Sub, Box::new(self), Box::new(other))
    }
    /// `self * other`.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Mul, Box::new(self), Box::new(other))
    }
    /// `self / other` (division by zero yields `Null`).
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Expr) -> Expr {
        Expr::Arith(ArithOp::Div, Box::new(self), Box::new(other))
    }
    /// Lower-case.
    pub fn lower(self) -> Expr {
        Expr::Lower(Box::new(self))
    }
    /// Trim whitespace.
    pub fn trim(self) -> Expr {
        Expr::Trim(Box::new(self))
    }
    /// Cast to `dtype`.
    pub fn cast(self, dtype: DataType) -> Expr {
        Expr::Cast(dtype, Box::new(self))
    }

    /// Resolve all column names against `schema`, producing an index-based
    /// executable expression.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Col(name) => BoundExpr::Col(schema.index_of(name)?),
            Expr::Lit(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp(op, a, b) => {
                BoundExpr::Cmp(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::Arith(op, a, b) => {
                BoundExpr::Arith(*op, Box::new(a.bind(schema)?), Box::new(b.bind(schema)?))
            }
            Expr::And(a, b) => BoundExpr::And(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Or(a, b) => BoundExpr::Or(Box::new(a.bind(schema)?), Box::new(b.bind(schema)?)),
            Expr::Not(a) => BoundExpr::Not(Box::new(a.bind(schema)?)),
            Expr::IsNull(a) => BoundExpr::IsNull(Box::new(a.bind(schema)?)),
            Expr::Lower(a) => BoundExpr::Lower(Box::new(a.bind(schema)?)),
            Expr::Trim(a) => BoundExpr::Trim(Box::new(a.bind(schema)?)),
            Expr::Len(a) => BoundExpr::Len(Box::new(a.bind(schema)?)),
            Expr::Coalesce(xs) => {
                BoundExpr::Coalesce(xs.iter().map(|x| x.bind(schema)).collect::<Result<_>>()?)
            }
            Expr::Cast(dt, a) => BoundExpr::Cast(*dt, Box::new(a.bind(schema)?)),
            Expr::Concat(xs) => {
                BoundExpr::Concat(xs.iter().map(|x| x.bind(schema)).collect::<Result<_>>()?)
            }
        })
    }
}

/// An expression with column references resolved to indices.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp(CmpOp, Box<BoundExpr>, Box<BoundExpr>),
    Arith(ArithOp, Box<BoundExpr>, Box<BoundExpr>),
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    IsNull(Box<BoundExpr>),
    Lower(Box<BoundExpr>),
    Trim(Box<BoundExpr>),
    Len(Box<BoundExpr>),
    Coalesce(Vec<BoundExpr>),
    Cast(DataType, Box<BoundExpr>),
    Concat(Vec<BoundExpr>),
}

impl BoundExpr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &[Value]) -> Result<Value> {
        Ok(match self {
            BoundExpr::Col(i) => {
                row.get(*i)
                    .cloned()
                    .ok_or(TableError::ColumnIndexOutOfBounds {
                        index: *i,
                        width: row.len(),
                    })?
            }
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                if va.is_null() || vb.is_null() {
                    Value::Null
                } else {
                    let ord = va.cmp(&vb);
                    let res = match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Ne => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Le => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Ge => ord.is_ge(),
                    };
                    Value::Bool(res)
                }
            }
            BoundExpr::Arith(op, a, b) => {
                let (va, vb) = (a.eval(row)?, b.eval(row)?);
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                arith(*op, &va, &vb)?
            }
            BoundExpr::And(a, b) => three_valued_and(a.eval(row)?, b.eval(row)?)?,
            BoundExpr::Or(a, b) => three_valued_or(a.eval(row)?, b.eval(row)?)?,
            BoundExpr::Not(a) => match a.eval(row)? {
                Value::Null => Value::Null,
                Value::Bool(v) => Value::Bool(!v),
                other => return Err(TableError::TypeError(format!("NOT on {other:?}"))),
            },
            BoundExpr::IsNull(a) => Value::Bool(a.eval(row)?.is_null()),
            BoundExpr::Lower(a) => match a.eval(row)? {
                Value::Null => Value::Null,
                v => Value::from(v.text().to_lowercase()),
            },
            BoundExpr::Trim(a) => match a.eval(row)? {
                Value::Null => Value::Null,
                v => Value::from(v.text().trim()),
            },
            BoundExpr::Len(a) => match a.eval(row)? {
                Value::Null => Value::Null,
                v => Value::Int(v.text().chars().count() as i64),
            },
            BoundExpr::Coalesce(xs) => {
                let mut out = Value::Null;
                for x in xs {
                    let v = x.eval(row)?;
                    if !v.is_null() {
                        out = v;
                        break;
                    }
                }
                out
            }
            BoundExpr::Cast(dt, a) => a.eval(row)?.coerce(*dt)?,
            BoundExpr::Concat(xs) => {
                let mut s = String::new();
                for x in xs {
                    s.push_str(&x.eval(row)?.text());
                }
                Value::from(s)
            }
        })
    }

    /// Evaluate as a predicate: `Null` counts as false (SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &[Value]) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(TableError::TypeError(format!(
                "predicate evaluated to {other:?}"
            ))),
        }
    }
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value> {
    // Integer arithmetic when both sides are Int (checked; overflow widens to
    // float), float arithmetic otherwise.
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        let r = match op {
            ArithOp::Add => x.checked_add(*y),
            ArithOp::Sub => x.checked_sub(*y),
            ArithOp::Mul => x.checked_mul(*y),
            ArithOp::Div => {
                return Ok(if *y == 0 {
                    Value::Null
                } else {
                    Value::Float(*x as f64 / *y as f64)
                })
            }
        };
        if let Some(r) = r {
            return Ok(Value::Int(r));
        }
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(TableError::TypeError(format!(
                "arithmetic on {a:?} and {b:?}"
            )))
        }
    };
    Ok(match op {
        ArithOp::Add => Value::Float(x + y),
        ArithOp::Sub => Value::Float(x - y),
        ArithOp::Mul => Value::Float(x * y),
        ArithOp::Div => {
            if y == 0.0 {
                Value::Null
            } else {
                Value::Float(x / y)
            }
        }
    })
}

fn three_valued_and(a: Value, b: Value) -> Result<Value> {
    Ok(match (to_tri(a)?, to_tri(b)?) {
        (Some(false), _) | (_, Some(false)) => Value::Bool(false),
        (Some(true), Some(true)) => Value::Bool(true),
        _ => Value::Null,
    })
}

fn three_valued_or(a: Value, b: Value) -> Result<Value> {
    Ok(match (to_tri(a)?, to_tri(b)?) {
        (Some(true), _) | (_, Some(true)) => Value::Bool(true),
        (Some(false), Some(false)) => Value::Bool(false),
        _ => Value::Null,
    })
}

fn to_tri(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(TableError::TypeError(format!("boolean op on {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::of_strs(&["a", "b", "s"])
    }

    fn row(a: Value, b: Value, s: Value) -> Vec<Value> {
        vec![a, b, s]
    }

    #[test]
    fn comparisons_and_null_propagation() {
        let e = Expr::col("a").lt(Expr::col("b")).bind(&schema()).unwrap();
        assert_eq!(
            e.eval(&row(1.into(), 2.into(), Value::Null)).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            e.eval(&row(Value::Null, 2.into(), Value::Null)).unwrap(),
            Value::Null
        );
        assert!(!e
            .eval_predicate(&row(Value::Null, 2.into(), Value::Null))
            .unwrap());
    }

    #[test]
    fn three_valued_logic_tables() {
        let t = Value::Bool(true);
        let f = Value::Bool(false);
        let n = Value::Null;
        assert_eq!(three_valued_and(f.clone(), n.clone()).unwrap(), f);
        assert_eq!(three_valued_and(t.clone(), n.clone()).unwrap(), n);
        assert_eq!(three_valued_or(t.clone(), n.clone()).unwrap(), t);
        assert_eq!(three_valued_or(f.clone(), n.clone()).unwrap(), n);
    }

    #[test]
    fn arithmetic_int_float_and_div_zero() {
        let s = schema();
        let add = Expr::col("a").add(Expr::col("b")).bind(&s).unwrap();
        assert_eq!(
            add.eval(&row(2.into(), 3.into(), Value::Null)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            add.eval(&row(2.into(), Value::Float(0.5), Value::Null))
                .unwrap(),
            Value::Float(2.5)
        );
        let div = Expr::col("a").div(Expr::lit(0)).bind(&s).unwrap();
        assert_eq!(
            div.eval(&row(2.into(), 3.into(), Value::Null)).unwrap(),
            Value::Null
        );
        // Int division is exact float division, not truncation.
        let div2 = Expr::col("a").div(Expr::col("b")).bind(&s).unwrap();
        assert_eq!(
            div2.eval(&row(1.into(), 2.into(), Value::Null)).unwrap(),
            Value::Float(0.5)
        );
    }

    #[test]
    fn int_overflow_widens_to_float() {
        let s = schema();
        let e = Expr::col("a").add(Expr::lit(1)).bind(&s).unwrap();
        let out = e
            .eval(&row(i64::MAX.into(), Value::Null, Value::Null))
            .unwrap();
        assert_eq!(out, Value::Float(i64::MAX as f64 + 1.0));
    }

    #[test]
    fn string_functions() {
        let s = schema();
        let e = Expr::col("s").trim().lower().bind(&s).unwrap();
        assert_eq!(
            e.eval(&row(Value::Null, Value::Null, "  WiDGeT ".into()))
                .unwrap(),
            Value::Str("widget".into())
        );
        let l = Expr::Len(Box::new(Expr::col("s"))).bind(&s).unwrap();
        assert_eq!(
            l.eval(&row(Value::Null, Value::Null, "abc".into()))
                .unwrap(),
            Value::Int(3)
        );
        let c = Expr::Concat(vec![Expr::col("s"), Expr::lit("-"), Expr::col("a")])
            .bind(&s)
            .unwrap();
        assert_eq!(
            c.eval(&row(7.into(), Value::Null, "x".into())).unwrap(),
            Value::Str("x-7".into())
        );
    }

    #[test]
    fn coalesce_and_cast() {
        let s = schema();
        let e = Expr::Coalesce(vec![Expr::col("a"), Expr::col("b"), Expr::lit(0)])
            .bind(&s)
            .unwrap();
        assert_eq!(
            e.eval(&row(Value::Null, 9.into(), Value::Null)).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            e.eval(&row(Value::Null, Value::Null, Value::Null)).unwrap(),
            Value::Int(0)
        );
        let cast = Expr::col("s").cast(DataType::Int).bind(&s).unwrap();
        assert_eq!(
            cast.eval(&row(Value::Null, Value::Null, "12".into()))
                .unwrap(),
            Value::Int(12)
        );
        assert!(cast
            .eval(&row(Value::Null, Value::Null, "xy".into()))
            .is_err());
    }

    #[test]
    fn bind_rejects_unknown_column() {
        assert!(Expr::col("zzz").bind(&schema()).is_err());
    }
}

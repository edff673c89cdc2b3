//! Runtime values and the arithmetic both engines share.

use crate::heap::ObjRef;
use crate::interp::RuntimeError;
use cj_frontend::ast::{BinOp, UnOp};
use cj_frontend::span::Span;
use cj_frontend::types::{NType, Prim};
use std::fmt;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unit (result of `void` expressions).
    Unit,
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Float.
    Float(f64),
    /// Null reference.
    Null,
    /// Reference to an object or array in the region heap.
    Ref(ObjRef),
}

impl Value {
    /// The value a fresh variable or payload slot of static type `ty`
    /// holds.
    pub fn default_of(ty: NType) -> Value {
        match ty {
            NType::Prim(Prim::Int) => Value::Int(0),
            NType::Prim(Prim::Bool) => Value::Bool(false),
            NType::Prim(Prim::Float) => Value::Float(0.0),
            NType::Void => Value::Unit,
            _ => Value::Null,
        }
    }

    /// The integer inside, if any.
    #[inline]
    pub fn as_int(self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    #[inline]
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => f.write_str("()"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Null => f.write_str("null"),
            Value::Ref(r) => write!(f, "obj@{}", r.serial),
        }
    }
}

/// `==` on values: reference identity for objects.
#[inline]
pub fn value_eq(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x == y,
        (Value::Null, Value::Null) => true,
        (Value::Ref(x), Value::Ref(y)) => x.region == y.region && x.word == y.word,
        _ => false,
    }
}

/// A unary operator applied to a well-typed operand.
#[inline]
pub fn unary(op: UnOp, v: Value) -> Value {
    match (op, v) {
        (UnOp::Neg, Value::Int(x)) => Value::Int(x.wrapping_neg()),
        (UnOp::Neg, Value::Float(x)) => Value::Float(-x),
        (UnOp::Not, Value::Bool(x)) => Value::Bool(!x),
        _ => unreachable!("ill-typed unary"),
    }
}

/// A strict binary operator applied to well-typed operands (`&&` and
/// `||` short-circuit, so the engines evaluate them as control flow).
///
/// # Errors
///
/// Integer division or remainder by zero, located at `span`.
#[inline]
pub fn binary(op: BinOp, l: Value, r: Value, span: Span) -> Result<Value, RuntimeError> {
    use BinOp::*;
    use Value::*;
    Ok(match (op, l, r) {
        (Add, Int(x), Int(y)) => Int(x.wrapping_add(y)),
        (Sub, Int(x), Int(y)) => Int(x.wrapping_sub(y)),
        (Mul, Int(x), Int(y)) => Int(x.wrapping_mul(y)),
        (Div, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Div, Int(x), Int(y)) => Int(x.wrapping_div(y)),
        (Rem, Int(_), Int(0)) => return Err(RuntimeError::DivisionByZero(span)),
        (Rem, Int(x), Int(y)) => Int(x.wrapping_rem(y)),
        (Add, Float(x), Float(y)) => Float(x + y),
        (Sub, Float(x), Float(y)) => Float(x - y),
        (Mul, Float(x), Float(y)) => Float(x * y),
        (Div, Float(x), Float(y)) => Float(x / y),
        (Rem, Float(x), Float(y)) => Float(x % y),
        (Lt, Int(x), Int(y)) => Bool(x < y),
        (Le, Int(x), Int(y)) => Bool(x <= y),
        (Gt, Int(x), Int(y)) => Bool(x > y),
        (Ge, Int(x), Int(y)) => Bool(x >= y),
        (Lt, Float(x), Float(y)) => Bool(x < y),
        (Le, Float(x), Float(y)) => Bool(x <= y),
        (Gt, Float(x), Float(y)) => Bool(x > y),
        (Ge, Float(x), Float(y)) => Bool(x >= y),
        (Eq, x, y) => Bool(value_eq(x, y)),
        (Ne, x, y) => Bool(!value_eq(x, y)),
        _ => unreachable!("ill-typed binary"),
    })
}

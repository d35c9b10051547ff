//! Attribute values and data types.
//!
//! PREDATOR was an object-relational system built around *enhanced abstract
//! data types*; the experiments in the paper only exercise integers and a
//! variable-length `ByteArray` attribute, but a realistic engine needs the
//! usual scalar zoo. [`Value`] is the dynamic value that flows through the
//! executor and into UDFs; [`DataType`] is its static description.

use std::fmt;
use std::sync::Arc;

use crate::error::{JaguarError, Result};

/// Static type of a column, UDF parameter, or UDF result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Variable-length binary — the paper's `ByteArray` attribute, used to
    /// model images, time series, and other large objects.
    Bytes,
}

impl DataType {
    /// Stable one-byte tag used by the stream protocol and page layout.
    pub fn tag(self) -> u8 {
        match self {
            DataType::Bool => 1,
            DataType::Int => 2,
            DataType::Float => 3,
            DataType::Str => 4,
            DataType::Bytes => 5,
        }
    }

    /// Inverse of [`DataType::tag`].
    #[inline]
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            1 => DataType::Bool,
            2 => DataType::Int,
            3 => DataType::Float,
            4 => DataType::Str,
            5 => DataType::Bytes,
            other => return Err(JaguarError::Corruption(format!("unknown type tag {other}"))),
        })
    }

    /// SQL-facing name, accepted by the parser and printed by `DESCRIBE`.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Bytes => "BYTEARRAY",
        }
    }

    /// Parse a SQL type name (case-insensitive); accepts common aliases.
    pub fn from_sql_name(name: &str) -> Result<Self> {
        Ok(match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => DataType::Bool,
            "INT" | "INTEGER" | "BIGINT" => DataType::Int,
            "FLOAT" | "DOUBLE" | "REAL" => DataType::Float,
            "VARCHAR" | "TEXT" | "STRING" | "CHAR" => DataType::Str,
            "BYTEARRAY" | "BYTES" | "BLOB" | "BINARY" => DataType::Bytes,
            other => return Err(JaguarError::Parse(format!("unknown type name '{other}'"))),
        })
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A cheaply clonable, immutable byte array.
///
/// UDF arguments may be large (the paper benchmarks 10,000-byte arrays over
/// 10,000 tuples); `ByteArray` is an `Arc<[u8]>` so handing an argument to an
/// in-process UDF is a pointer copy, while crossing a process or language
/// boundary forces a real copy — exactly the cost structure the paper's
/// Designs 1–4 differ on.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct ByteArray(Arc<[u8]>);

impl ByteArray {
    /// Wrap an owned buffer without copying.
    pub fn new(data: Vec<u8>) -> Self {
        ByteArray(Arc::from(data))
    }

    /// A zero-filled array of `len` bytes.
    pub fn zeroed(len: usize) -> Self {
        ByteArray(Arc::from(vec![0u8; len]))
    }

    /// Deterministic pseudo-random content (used by workload generators).
    pub fn patterned(len: usize, seed: u64) -> Self {
        let mut s = seed | 1;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            // xorshift64* — cheap, stable across platforms.
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            v.push((s.wrapping_mul(0x2545F4914F6CDD1D) >> 56) as u8);
        }
        ByteArray(Arc::from(v))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Copy the contents out — the marshalling step for boundary crossings.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl fmt::Debug for ByteArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "ByteArray({:02x?})", self.as_slice())
        } else {
            write!(
                f,
                "ByteArray(len={}, head={:02x?})",
                self.len(),
                &self.as_slice()[..8]
            )
        }
    }
}

impl From<Vec<u8>> for ByteArray {
    fn from(v: Vec<u8>) -> Self {
        ByteArray::new(v)
    }
}

impl From<&[u8]> for ByteArray {
    fn from(v: &[u8]) -> Self {
        ByteArray(Arc::from(v))
    }
}

impl AsRef<[u8]> for ByteArray {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A dynamically typed value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL. Typed NULLs are not modelled; NULL compares as unknown.
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(ByteArray),
}

impl Value {
    /// The static type, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if this value may be stored in a column of type `ty`.
    pub fn conforms_to(&self, ty: DataType) -> bool {
        self.is_null() || self.data_type() == Some(ty)
    }

    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(type_err("INT", other)),
        }
    }

    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(type_err("FLOAT", other)),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(type_err("BOOL", other)),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(type_err("VARCHAR", other)),
        }
    }

    pub fn as_bytes(&self) -> Result<&ByteArray> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(type_err("BYTEARRAY", other)),
        }
    }

    /// Approximate in-memory footprint, used by the executor's accounting
    /// and by the workload reports.
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Null | Value::Bool(_) | Value::Int(_) | Value::Float(_) => 0,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
        }
    }

    /// Three-valued-logic comparison used by the predicate evaluator:
    /// returns `None` when either side is NULL or the types are unordered.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Bytes(a), Value::Bytes(b)) => Some(a.as_slice().cmp(b.as_slice())),
            _ => None,
        }
    }

    /// Equality under SQL semantics (`NULL = x` is unknown → `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == std::cmp::Ordering::Equal)
    }
}

fn type_err(want: &str, got: &Value) -> JaguarError {
    JaguarError::Execution(format!(
        "expected {want}, got {}",
        got.data_type().map(|t| t.sql_name()).unwrap_or("NULL")
    ))
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => write!(f, "<bytes:{}>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<ByteArray> for Value {
    fn from(b: ByteArray) -> Self {
        Value::Bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn tags_round_trip() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bytes,
        ] {
            assert_eq!(DataType::from_tag(ty.tag()).unwrap(), ty);
        }
        assert!(DataType::from_tag(0).is_err());
        assert!(DataType::from_tag(99).is_err());
    }

    #[test]
    fn sql_names_round_trip() {
        for ty in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bytes,
        ] {
            assert_eq!(DataType::from_sql_name(ty.sql_name()).unwrap(), ty);
        }
        assert_eq!(DataType::from_sql_name("blob").unwrap(), DataType::Bytes);
        assert_eq!(DataType::from_sql_name("double").unwrap(), DataType::Float);
        assert!(DataType::from_sql_name("quaternion").is_err());
    }

    #[test]
    fn bytearray_clone_is_shallow() {
        let a = ByteArray::patterned(1000, 42);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn bytearray_patterned_is_deterministic() {
        assert_eq!(ByteArray::patterned(64, 7), ByteArray::patterned(64, 7));
        assert_ne!(ByteArray::patterned(64, 7), ByteArray::patterned(64, 8));
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(5).as_int().unwrap(), 5);
        assert_eq!(Value::Int(5).as_float().unwrap(), 5.0);
        assert_eq!(Value::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::Str("hi".into()).as_str().unwrap(), "hi");
        assert_eq!(
            Value::Bytes(ByteArray::zeroed(3)).as_bytes().unwrap().len(),
            3
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
    }

    #[test]
    fn mixed_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_type_comparison_is_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Str("1".into())), None);
        assert_eq!(Value::Bool(true).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn conforms_handles_null() {
        assert!(Value::Null.conforms_to(DataType::Int));
        assert!(Value::Int(1).conforms_to(DataType::Int));
        assert!(!Value::Int(1).conforms_to(DataType::Str));
    }

    #[test]
    fn heap_size() {
        assert_eq!(Value::Int(1).heap_size(), 0);
        assert_eq!(Value::Str("abc".into()).heap_size(), 3);
        assert_eq!(Value::Bytes(ByteArray::zeroed(100)).heap_size(), 100);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Str("x".into()).to_string(), "'x'");
        assert_eq!(Value::Bytes(ByteArray::zeroed(4)).to_string(), "<bytes:4>");
    }
}

//! Rows.

use std::fmt;

use crate::error::{JaguarError, Result};
use crate::schema::Schema;
use crate::value::Value;

/// One row of a relation: an ordered list of [`Value`]s matching some
/// [`Schema`]. Tuples do not carry their schema — iterators do — keeping the
/// per-row footprint small, which matters when a query applies a UDF to
/// 10,000 rows (the paper's standard workload).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    pub fn values(&self) -> &[Value] {
        &self.values
    }

    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// The values' buffer, for a reader that refills one tuple row after
    /// row rather than allocating each.
    #[inline]
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    #[inline]
    pub fn get(&self, idx: usize) -> Result<&Value> {
        self.values
            .get(idx)
            .ok_or_else(|| JaguarError::Execution(format!("tuple index {idx} out of range")))
    }

    /// Validate this tuple against a schema: arity and per-column types
    /// (NULL conforms to anything).
    pub fn check_against(&self, schema: &Schema) -> Result<()> {
        if self.len() != schema.len() {
            return Err(JaguarError::Execution(format!(
                "tuple arity {} does not match schema arity {}",
                self.len(),
                schema.len()
            )));
        }
        for (i, v) in self.values.iter().enumerate() {
            let f = schema.field(i).expect("arity checked");
            if !v.conforms_to(f.dtype) {
                return Err(JaguarError::Execution(format!(
                    "column '{}' expects {}, got {}",
                    f.name,
                    f.dtype,
                    v.data_type().map(|t| t.sql_name()).unwrap_or("NULL")
                )));
            }
        }
        Ok(())
    }

    /// Project onto the given column indices (cloning the kept values).
    pub fn project(&self, indices: &[usize]) -> Result<Tuple> {
        let mut values = Vec::with_capacity(indices.len());
        for &i in indices {
            values.push(self.get(i)?.clone());
        }
        Ok(Tuple::new(values))
    }

    /// Append a derived value (e.g. a UDF result) producing a new tuple.
    pub fn with_appended(mut self, value: Value) -> Tuple {
        self.values.push(value);
        self
    }

    /// Total heap footprint of the variable-length values in this row.
    pub fn heap_size(&self) -> usize {
        self.values.iter().map(Value::heap_size).sum()
    }
}

/// The column positions of a stored tuple that a reader wants decoded.
///
/// [`decode_tuple`](crate::stream::decode_tuple) keeps the stored arity and
/// leaves `Value::Null` in every position outside the set, so bound column
/// indices stay valid whatever the set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ColumnSet {
    /// `None` = every column; otherwise `mask[i]` says whether column `i`
    /// is wanted (positions past the mask are not).
    mask: Option<Box<[bool]>>,
}

impl ColumnSet {
    /// Every column.
    pub fn all() -> ColumnSet {
        ColumnSet::default()
    }

    /// The given `columns` of a tuple of `arity` columns (positions past
    /// `arity` are ignored). Naming every column yields [`ColumnSet::all`].
    pub fn of(arity: usize, columns: impl IntoIterator<Item = usize>) -> ColumnSet {
        let mut mask = vec![false; arity].into_boxed_slice();
        for c in columns {
            if let Some(m) = mask.get_mut(c) {
                *m = true;
            }
        }
        let mask = Some(mask).filter(|m| m.contains(&false));
        ColumnSet { mask }
    }

    pub fn is_all(&self) -> bool {
        self.mask.is_none()
    }

    #[inline]
    pub fn contains(&self, column: usize) -> bool {
        match &self.mask {
            None => true,
            Some(m) => m.get(column) == Some(&true),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ByteArray, DataType};

    #[test]
    fn check_against_schema() {
        let schema = Schema::of(&[("id", DataType::Int), ("blob", DataType::Bytes)]);
        let ok = Tuple::new(vec![Value::Int(1), Value::Bytes(ByteArray::zeroed(4))]);
        ok.check_against(&schema).unwrap();

        let null_ok = Tuple::new(vec![Value::Null, Value::Null]);
        null_ok.check_against(&schema).unwrap();

        let bad_arity = Tuple::new(vec![Value::Int(1)]);
        assert!(bad_arity.check_against(&schema).is_err());

        let bad_type = Tuple::new(vec![Value::Str("x".into()), Value::Null]);
        let err = bad_type.check_against(&schema).unwrap_err();
        assert!(err.to_string().contains("expects INT"));
    }

    #[test]
    fn project_and_append() {
        let t = Tuple::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let p = t.project(&[2, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
        assert!(t.project(&[5]).is_err());
        let appended = t.with_appended(Value::Bool(true));
        assert_eq!(appended.len(), 4);
    }

    #[test]
    fn column_set_membership() {
        let all = ColumnSet::all();
        assert!(all.is_all() && all.contains(0) && all.contains(99));
        let some = ColumnSet::of(4, [1, 3, 7]);
        assert!(!some.is_all());
        let got: Vec<bool> = (0..5).map(|i| some.contains(i)).collect();
        assert_eq!(got, [false, true, false, true, false]);
        assert_eq!(ColumnSet::of(2, [1, 0, 1]), all, "every column = all");
        assert!(!ColumnSet::of(3, []).contains(0));
    }

    #[test]
    fn display() {
        let t = Tuple::new(vec![Value::Int(1), Value::Str("a".into())]);
        assert_eq!(t.to_string(), "[1, 'a']");
    }

    #[test]
    fn heap_size_sums_varlen() {
        let t = Tuple::new(vec![
            Value::Int(1),
            Value::Str("abcd".into()),
            Value::Bytes(ByteArray::zeroed(10)),
        ]);
        assert_eq!(t.heap_size(), 14);
    }
}

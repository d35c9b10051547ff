//! Vectorized UDF invocation: the columnar [`ValueBatch`] carrier and the
//! batch-size policy shared by every trust design.
//!
//! The paper's measurements (and our own BENCH_parallel.json) show that for
//! sandboxed and isolated designs the *crossing* — VM entry, argument
//! marshalling, IPC round-trip — dominates per-tuple cost. This module
//! defines the ABI that amortizes it: instead of one crossing per tuple,
//! the executor accumulates filter-surviving tuples into a `ValueBatch`
//! and pays one crossing per batch. Each backend then loops rows on the
//! *inside* of the boundary (inside the interpreter entry, inside the
//! worker process), which is where the loop is cheap.
//!
//! The contract every batched backend must honour:
//!
//! * **Byte-identical results.** Row `i` of the reply equals what a
//!   per-tuple `invoke` on row `i` would have returned.
//! * **Exact error positions.** If row `k` fails, the batch reports
//!   [`BatchError`] `{ row: k, error }` where `error` is the same error the
//!   per-tuple path raises, and rows `0..k` have fully taken effect
//!   (their side effects — callbacks, resource accounting — happened).
//! * **Cancellation still ticks per row.** Batching amortizes entry cost,
//!   not responsiveness: cancel/deadline polls keep their per-row cadence.

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::Value;

/// Smallest batch worth forming: below this the bookkeeping outweighs the
/// saved crossings (measured; see EXPERIMENTS.md E12).
pub const MIN_BATCH: usize = 64;

/// Largest batch the engine will form. Caps carrier memory and bounds how
/// long an isolated worker goes between replies the parent sees.
pub const MAX_BATCH: usize = 1024;

/// Resolve a configured batch size against the engine's fixed budget.
///
/// `0` and `1` disable batching (the per-tuple path); anything else is
/// clamped into `MIN_BATCH..=MAX_BATCH`.
pub fn effective_batch_size(requested: usize) -> usize {
    if requested <= 1 {
        1
    } else {
        requested.clamp(MIN_BATCH, MAX_BATCH)
    }
}

/// A batch invocation error: which row failed, and with what.
///
/// The `error` is exactly the error the per-tuple path would raise for
/// that row, so the executor can replicate per-tuple accounting (rows
/// `0..row` succeeded) and surface the identical failure to the client.
#[derive(Debug)]
pub struct BatchError {
    /// Zero-based index of the failing row within the batch.
    pub row: usize,
    pub error: JaguarError,
}

impl BatchError {
    pub fn new(row: usize, error: JaguarError) -> BatchError {
        BatchError { row, error }
    }

    /// An error that occurred before any row was attempted (e.g. a dead
    /// worker): positioned at row 0 with no prior effects.
    pub fn before_any(error: JaguarError) -> BatchError {
        BatchError { row: 0, error }
    }
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch row {}: {}", self.row, self.error)
    }
}

/// Result of a batched invocation: one output value per input row, or the
/// first failing row's error.
pub type BatchResult = std::result::Result<Vec<Value>, BatchError>;

/// A columnar carrier of UDF argument tuples.
///
/// Arguments are stored column-major (`columns[arg][row]`), matching how
/// the projection evaluator produces them (one expression at a time over
/// the accumulated rows) and how the wire format ships them. Row count is
/// bounded by [`MAX_BATCH`] at the call sites, not by the type.
#[derive(Debug, Clone, Default)]
pub struct ValueBatch {
    columns: Vec<Vec<Value>>,
    rows: usize,
}

impl ValueBatch {
    /// An empty batch for `arity` argument columns, each with room for
    /// `capacity` rows.
    pub fn with_capacity(arity: usize, capacity: usize) -> ValueBatch {
        ValueBatch {
            columns: (0..arity).map(|_| Vec::with_capacity(capacity)).collect(),
            rows: 0,
        }
    }

    /// Build a batch from row-major tuples (wire decoding, tests).
    /// Fails if rows disagree on arity.
    pub fn from_rows(rows: &[Vec<Value>]) -> Result<ValueBatch> {
        let arity = rows.first().map_or(0, |r| r.len());
        let mut batch = ValueBatch::with_capacity(arity, rows.len());
        for row in rows {
            batch.push_row(row)?;
        }
        Ok(batch)
    }

    /// Number of argument columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows accumulated.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one argument tuple (cloning the values).
    pub fn push_row(&mut self, args: &[Value]) -> Result<()> {
        self.push(args.len(), args.iter().cloned())
    }

    /// Append one argument tuple, consuming it (no clone).
    pub fn push_row_owned(&mut self, args: Vec<Value>) -> Result<()> {
        self.push(args.len(), args)
    }

    fn push(&mut self, arity: usize, args: impl IntoIterator<Item = Value>) -> Result<()> {
        if arity != self.columns.len() {
            return Err(JaguarError::Execution(format!(
                "batch arity mismatch: batch has {} columns, row has {arity}",
                self.columns.len(),
            )));
        }
        for (col, v) in self.columns.iter_mut().zip(args) {
            col.push(v);
        }
        self.rows += 1;
        Ok(())
    }

    /// Copy row `i`'s arguments into `out` (cleared first). The reusable
    /// buffer keeps the default per-tuple fallback allocation-free across
    /// rows.
    pub fn read_row(&self, i: usize, out: &mut Vec<Value>) {
        out.clear();
        for col in &self.columns {
            out.push(col[i].clone());
        }
    }

    /// Row `i` as a fresh argument vector.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c[i].clone()).collect()
    }

    /// Borrow argument column `a`.
    pub fn column(&self, a: usize) -> &[Value] {
        &self.columns[a]
    }

    /// Drop all rows, keeping column capacity for reuse.
    pub fn clear(&mut self) {
        for col in &mut self.columns {
            col.clear();
        }
        self.rows = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_batch_size_policy() {
        assert_eq!(effective_batch_size(0), 1);
        assert_eq!(effective_batch_size(1), 1);
        assert_eq!(effective_batch_size(2), MIN_BATCH);
        assert_eq!(effective_batch_size(64), 64);
        assert_eq!(effective_batch_size(256), 256);
        assert_eq!(effective_batch_size(1024), 1024);
        assert_eq!(effective_batch_size(1_000_000), MAX_BATCH);
    }

    #[test]
    fn push_and_read_round_trip() {
        let mut b = ValueBatch::with_capacity(2, 4);
        assert_eq!(b.arity(), 2);
        assert!(b.is_empty());
        b.push_row(&[Value::Int(1), Value::Null]).unwrap();
        b.push_row_owned(vec![Value::Int(2), Value::Float(0.5)])
            .unwrap();
        assert_eq!(b.len(), 2);
        let mut buf = Vec::new();
        b.read_row(0, &mut buf);
        assert_eq!(buf, vec![Value::Int(1), Value::Null]);
        b.read_row(1, &mut buf);
        assert_eq!(buf, vec![Value::Int(2), Value::Float(0.5)]);
        assert_eq!(b.column(0), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ValueBatch::with_capacity(2, 4);
        assert!(b.push_row(&[Value::Int(1)]).is_err());
        assert!(b.push_row_owned(vec![]).is_err());
        assert!(b.is_empty());
    }

    #[test]
    fn rows_round_trip() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ];
        let b = ValueBatch::from_rows(&rows).unwrap();
        assert_eq!((0..b.len()).map(|i| b.row(i)).collect::<Vec<_>>(), rows);
        let bad = vec![vec![Value::Int(1)], vec![Value::Int(2), Value::Int(3)]];
        assert!(ValueBatch::from_rows(&bad).is_err());
    }

    #[test]
    fn clear_keeps_arity() {
        let mut b = ValueBatch::from_rows(&[vec![Value::Int(1)]]).unwrap();
        b.clear();
        assert_eq!(b.arity(), 1);
        assert!(b.is_empty());
        b.push_row(&[Value::Int(2)]).unwrap();
        assert_eq!(b.row(0), vec![Value::Int(2)]);
    }

    #[test]
    fn batch_error_display() {
        let e = BatchError::new(3, JaguarError::Udf("boom".into()));
        assert!(e.to_string().contains("batch row 3"));
        let b = BatchError::before_any(JaguarError::Udf("dead".into()));
        assert_eq!(b.row, 0);
    }
}

//! jaguar-opt — planner-side UDF optimizations.
//!
//! Batching and the compiled VM tier attack the *per-crossing* and
//! per-instruction cost of extension code. This crate attacks the calls
//! themselves, with two passes the SQL engine runs between binding and
//! execution:
//!
//! 1. **Cost-based predicate ranking** ([`cost`]): a per-UDF cost model
//!    seeded from the per-`(udf, backend)` latency histograms plus online
//!    selectivity observations; conjunctive WHERE predicates are ordered
//!    cheapest-rank-first, `rank = cost / (1 − selectivity)`.
//! 2. **Deterministic result memoization** ([`memo`]): a byte-budgeted
//!    arg-bytes → result LRU cache consulted before any invocation of an
//!    `Immutable` UDF, shared across statements.
//!
//! The volatility contract gates everything: only `Immutable` UDFs are
//! memoized (or, when their JagScript body is straight-line, run in-engine
//! by `jaguar-sql` on the compiled tier, with no crossing to cost or
//! cache), and `Volatile` UDFs are pinned to their written position by the
//! planner.

pub mod cost;
pub mod memo;

pub use cost::{observed_cost_us, rank, OptState, SelectivityStats, STATIC_COST_US};
pub use memo::MemoCache;

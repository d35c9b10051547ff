//! jaguar-opt — planner-side UDF optimizations.
//!
//! Batching and the compiled VM tier attack the *per-crossing* and
//! per-instruction cost of extension code. This crate attacks the calls
//! themselves, with
//! three cooperating passes the SQL engine runs between binding and
//! execution:
//!
//! 1. **Froid-style inlining** ([`inline`]): a JagScript UDF whose
//!    bytecode is straight-line arithmetic / comparisons / conditionals
//!    over its arguments (no loops, no calls, no host callbacks, no
//!    arrays) is translated into a native scalar-expression tree
//!    ([`SExpr`]) the executor evaluates directly — the sandbox backend
//!    is never instantiated. Unsupported shapes bail to the normal call
//!    path, mirroring the compiled tier's fallback contract.
//! 2. **Cost-based predicate ranking** ([`cost`]): a per-UDF cost model
//!    seeded from the per-`(udf, backend)` latency histograms plus online
//!    selectivity observations; conjunctive WHERE predicates are ordered
//!    cheapest-rank-first, `rank = cost / (1 − selectivity)`.
//! 3. **Deterministic result memoization** ([`memo`]): a byte-budgeted
//!    arg-bytes → result LRU cache consulted before any invocation of an
//!    `Immutable` UDF, shared across statements.
//!
//! The volatility contract gates everything: only `Immutable` UDFs are
//! inlined or memoized, and `Volatile` UDFs are pinned to their written
//! position by the planner (see `jaguar-sql`).

pub mod cost;
pub mod inline;
pub mod memo;

pub use cost::{observed_cost_us, rank, OptState, SelectivityStats, STATIC_COST_US};
pub use inline::{try_inline, InlineBody, SExpr};
pub use memo::MemoCache;

//! # jaguar-sql — the query engine
//!
//! A deliberately focused SQL subset: exactly what the paper's workload
//! needs (single-table SELECT with UDFs in the projection and WHERE
//! clause, UPDATE and DELETE with UDFs in WHERE and SET, CREATE TABLE,
//! CREATE INDEX, INSERT, DROP), implemented end-to-end:
//!
//! * [`lexer`] / [`parser`] → AST,
//! * [`session`] / [`label`] — multi-tenant security: a [`SessionContext`]
//!   names the principal a statement runs under, with `key=value`
//!   attributes; a security label is a SQL predicate over row columns and
//!   `session.<attr>`, parsed by [`parser`] and partially evaluated per
//!   session at plan time,
//! * [`plan`] — one binder for every clause of SELECT, UPDATE, DELETE and
//!   INSERT: name resolution and typing in a table scope and an output
//!   scope (HAVING, ORDER BY), label enforcement, and the \[Hel95\]-style
//!   *expensive-predicate ordering*: WHERE conjuncts are ranked so cheap
//!   column predicates run before UDF predicates, and cheaper UDF designs
//!   before dearer ones ("cost-based query optimization algorithms have
//!   been developed to 'place' UDFs within query plans"),
//! * [`optimize`] — post-bind passes over the bound plan: in-engine
//!   slots for straight-line immutable UDFs, cost/selectivity predicate
//!   reordering ([`cost`]), and memo-cache marking ([`memo`]),
//! * [`exec`] — one push-based pipeline: a row source lends rows to a
//!   fragment (residual filter → project / partial aggregate / DML
//!   victims) and a tail (aggregate finish, HAVING, ORDER BY, LIMIT) ends
//!   a SELECT, with per-fragment UDF instances and callback plumbing (§4.2),
//! * [`parallel`] — the one runner of every statement that reads rows,
//!   SELECT, UPDATE and DELETE: a team of one over the whole access path,
//!   or, for an eligible SELECT, page-range morsels drained by a team of
//!   worker threads; one gather step reassembles the fragments' outputs in
//!   scan order before a SELECT's tail or a DML statement's writes, on the
//!   morsel dispenser and worker teams of [`par`],
//! * [`engine`] — the embeddable database engine and its sessions.
//!
//! The paper's benchmark query runs verbatim:
//!
//! ```sql
//! SELECT udf(R.bytes, 0, 10, 0) FROM Rel10000 R WHERE R.id < 10000;
//! ```

pub mod ast;
pub mod cost;
pub mod engine;
pub mod exec;
pub mod label;
pub mod lexer;
pub mod memo;
pub mod optimize;
pub mod par;
pub mod parallel;
pub mod parser;
pub mod plan;
pub mod session;

pub use engine::{plan_text, Engine, QueryResult, Request};
pub use exec::ExecStats;
pub use session::SessionContext;

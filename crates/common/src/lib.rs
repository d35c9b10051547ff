//! # jaguar-common
//!
//! Shared kernel for **Jaguar-RS**, a Rust reproduction of
//! *Secure and Portable Database Extensibility* (Godfrey, Mayr, Seshadri,
//! von Eicken — SIGMOD 1998).
//!
//! This crate holds everything that the rest of the workspace agrees on:
//!
//! * [`value::Value`] — the dynamically typed attribute values flowing
//!   through the engine, including the [`value::ByteArray`] type the paper's
//!   generic UDF is parameterised on,
//! * [`schema::Schema`] / [`tuple::Tuple`] — relation shapes and rows,
//! * [`stream`] — the §6.4 *ADT stream protocol*: every type can read and
//!   write itself on a byte stream, so UDF argument/result marshalling is
//!   identical at the client and at the server,
//! * [`error::JaguarError`] — the workspace-wide error type,
//! * [`cancel::CancelToken`] — the statement-scoped cancel flag +
//!   deadline every layer polls cooperatively,
//! * [`fault`] — named crash points and fault-injection sites shared by
//!   the chaos/crash-recovery harnesses,
//! * [`retry`] — the shared bounded-backoff retry policy and the
//!   transient/permanent failure classifiers,
//! * [`overload`] — the engine-wide overload level driving graceful
//!   degradation (clamp `dop`, shed the memo) before refusal,
//! * [`config`] — engine tunables,
//! * [`rng`] — a tiny deterministic generator used by workload builders so
//!   experiments are reproducible byte-for-byte.

pub use jaguar_obs as obs;

pub mod cancel;
pub mod config;
pub mod error;
pub mod fault;
pub mod ids;
pub mod overload;
pub mod retry;
pub mod rng;
pub mod schema;
pub mod stream;
pub mod tuple;
pub mod value;

pub use cancel::CancelToken;
pub use error::{JaguarError, Result};
pub use schema::{Field, Schema};
pub use tuple::{ColumnSet, Tuple};
pub use value::{ByteArray, DataType, Value};

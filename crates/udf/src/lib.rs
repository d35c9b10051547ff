//! # jaguar-udf — the extensibility framework
//!
//! This crate is the paper's design space (Table 1) made executable. A UDF
//! is registered as a [`UdfDef`] whose [`UdfImpl`] is a [`Body`] in a
//! [`Placement`], and the pair is its design ([`Design`]):
//!
//! | Paper | body × placement | Built by | Mechanism |
//! |---|---|---|---|
//! | Design 1, "C++"  | native × server   | [`UdfImpl::closure`], [`UdfImpl::registered`] | Rust code called in-process (trusted) |
//! | Design 2, "IC++" | native × worker   | [`UdfImpl::registered`] | the same registry entry in a worker process, one per query |
//! | Design 3, "JNI"  | bytecode × server | [`UdfImpl::bytecode`]   | verified JSM bytecode in-process, sandboxed |
//! | Design 4         | bytecode × worker | [`UdfImpl::bytecode`]   | the same bytecode in a worker process |
//!
//! The query executor instantiates a [`ScalarUdf`] from the definition
//! **once per query** (matching the paper's per-query remote executors) and
//! invokes it once per tuple. Callbacks (§4.2) flow through the
//! [`CallbackHandler`] the executor supplies.
//!
//! A worker placement is the server placement behind a socket: the
//! [`worker`] serve loop hosts a native body as a [`NativeUdf`] and a
//! bytecode body as a [`VmUdf`], from the definition its load carries,
//! through the code the server runs them with.
//!
//! [`generic`] implements the paper's four-parameter generic UDF
//! (§5.1) in every variant the experiments need — plain native,
//! bounds-checked native (§5.4), SFI-instrumented native (§2.3), and
//! JagScript→bytecode — plus the worker registry for the
//! `jaguar-worker` binary.

pub mod api;
pub mod batch;
pub mod def;
pub mod generic;
pub mod native;
pub mod sfi;
pub mod vmexec;
pub mod worker;

pub use api::{ScalarUdf, UdfResourceUsage, UdfSignature};
pub use batch::{BatchError, BatchResult, ValueBatch};
pub use def::{Body, Design, Native, Placement, UdfDef, UdfImpl, VmUdfSpec, Volatility};
pub use generic::{worker_registry, GenericParams};
pub use jaguar_ipc::proto::CallbackHandler;
pub use native::NativeUdf;
pub use vmexec::VmUdf;
pub use worker::WorkerRegistry;

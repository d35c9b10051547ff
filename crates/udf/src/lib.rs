//! # jaguar-udf — the extensibility framework
//!
//! This crate is the paper's design space (Table 1) made executable. A UDF
//! is registered as a [`UdfDef`] whose [`UdfImpl`] picks the execution
//! design:
//!
//! | Paper | `UdfImpl` | Mechanism |
//! |---|---|---|
//! | Design 1, "C++"  | [`UdfImpl::Native`]         | Rust closure called in-process (trusted) |
//! | Design 2, "IC++" | [`UdfImpl::IsolatedNative`] | native code in a worker process, one per query |
//! | Design 3, "JNI"  | [`UdfImpl::Vm`]             | verified JSM bytecode in-process, sandboxed |
//! | Design 4         | [`UdfImpl::IsolatedVm`]     | JSM bytecode in a worker process |
//!
//! The query executor instantiates a [`ScalarUdf`] from the definition
//! **once per query** (matching the paper's per-query remote executors) and
//! invokes it once per tuple. Callbacks (§4.2) flow through the
//! [`CallbackHandler`] the executor supplies.
//!
//! An isolated design is its in-process design behind a socket: the
//! [`worker`] serve loop hosts a Design 2 UDF as a [`NativeUdf`] and a
//! Design 4 UDF as a [`VmUdf`], from the definition its load carries.
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
pub use def::{UdfDef, UdfImpl, VmUdfSpec, Volatility};
pub use generic::{worker_registry, GenericParams};
pub use jaguar_ipc::proto::CallbackHandler;
pub use native::NativeUdf;
pub use vmexec::VmUdf;
pub use worker::WorkerRegistry;

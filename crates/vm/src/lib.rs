//! # jaguar-vm — the JSM sandboxed bytecode machine
//!
//! The stand-in for the embedded JVM of the paper's **Design 3**. The paper
//! attributes Java's security and cost profile to four mechanisms (§6.1):
//! bytecode **verification**, restricted **class loaders**, a **security
//! manager**, and thread-group isolation — plus the run-time **array bounds
//! checks** responsible for the Figure 7 slowdown, and the **resource
//! management** gap (§6.2: "UDFs can currently consume as much CPU time and
//! memory as they desire") that the J-Kernel project was addressing.
//!
//! JSM implements all of them:
//!
//! * [`isa`] / [`module`] — a compact, portable stack bytecode with typed
//!   functions, host imports, and a stable binary encoding,
//! * [`asm`] — a textual assembler (the "javac -S" of this world; the real
//!   front-end is the JagScript compiler in `jaguar-lang`),
//! * [`verifier`] — a dataflow verifier establishing stack/type/jump safety
//!   *before* execution, so the interpreter never executes unverifiable
//!   code ([`module::VerifiedModule`] can only be produced by the verifier),
//!   and compiles each module it accepts, once,
//! * [`arena`] — the byte-array heap with memory accounting,
//! * [`security`] — least-privilege [`security::PermissionSet`]s consulted
//!   on every host call,
//! * [`resources`] — instruction fuel + memory caps + call-depth limits,
//!   closing the denial-of-service hole the paper highlights,
//! * [`interp`] / [`tier`] — two engines: the reference **interpreter**
//!   and the **compiled** register tier that `ExecMode::Jit` runs from
//!   the first call (the paper's JVM "included a JIT compiler").
//!
//! The class loader's two isolation properties live in two places: a
//! module's `call` can only name a function of the same module (the
//! verifier rejects any other call target), so no UDF reaches another's
//! code; and its host imports are gated when it is registered, by the SQL
//! engine's `Engine::register_sandboxed_udf`, which grants exactly the
//! imports the engine offers.
//!
//! ```
//! use jaguar_vm::{asm, ExecMode, Interpreter, ArgValue, NoHost, ResourceLimits};
//! use std::sync::Arc;
//!
//! // Assemble, verify, and run a module under the sandbox.
//! let module = asm::assemble(
//!     "module demo\nfunc main(i64) -> i64\n  load 0\n  dup\n  muli\n  ret\nend\n",
//! ).unwrap();
//! let verified = Arc::new(module.verify().unwrap());
//! let vm = Interpreter::new(verified, ResourceLimits::default(), ExecMode::Jit);
//! let (ret, usage, _) = vm.invoke("main", &[ArgValue::I64(12)], &mut NoHost).unwrap();
//! assert_eq!(ret.unwrap().as_i64().unwrap(), 144);
//! assert!(usage.instructions > 0); // every instruction is metered
//! ```

pub mod arena;
pub mod asm;
pub mod interp;
pub mod isa;
pub mod module;
pub mod resources;
pub mod security;
pub mod tier;
pub mod verifier;

pub use arena::Arena;
pub use interp::{ArgValue, ExecMode, HostEnv, Interpreter, NoHost, VmValue};
pub use isa::{Insn, VType};
pub use module::{FuncSig, Function, HostImport, Module, VerifiedModule};
pub use resources::{ResourceLimits, ResourceUsage};
pub use security::{Permission, PermissionSet};
pub use tier::TierTally;
#[doc(hidden)]
pub use tier::DEFAULT_TIER_UP_AFTER;
pub use verifier::{verify, Cfg};

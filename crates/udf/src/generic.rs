//! The paper's generic UDF (§5.1) in every variant the experiments need.
//!
//! > "We used a 'generic' UDF that takes four parameters (ByteArray,
//! > NumDataIndepComps, NumDataDepComps, NumCallbacks) and returns an
//! > integer."
//!
//! Semantics (identical across all variants, so the equivalence tests can
//! compare backends bit-for-bit):
//!
//! 1. `NumDataIndepComps` iterations of a data-independent integer
//!    multiply-accumulate loop (`acc = acc * 31 + i`; the paper used a
//!    plain addition loop, but a modern optimizer closed-forms that into
//!    O(1), which would measure nothing — the loop-carried multiply keeps
//!    the work real in every variant),
//! 2. `NumDataDepComps` full passes over the byte array, accumulating
//!    every byte (models image transformations etc.),
//! 3. `NumCallbacks` callbacks to the server ("no data is actually
//!    transferred during the callback"); each returns its index, which is
//!    accumulated.
//!
//! All additions wrap (Java semantics; JagScript and the VM also wrap).
//!
//! Variants:
//!
//! * [`generic_native`] — idiomatic Rust, iterator-based inner loop: the
//!   paper's optimized "C++" (no per-access bounds checks, vectorizable),
//! * [`generic_native_bc`] — the §5.4 "second version of the C++ UDF that
//!   explicitly checks the bounds of every array access",
//! * [`generic_native_sfi`] — the §2.3/§4 software-fault-isolated variant:
//!   data copied into an [`SfiRegion`], every access masked,
//! * [`GENERIC_JAGSCRIPT`] — the same function in JagScript, compiled to
//!   JSM bytecode (the "Java" UDF of Design 3/4).

use std::sync::Arc;

use jaguar_common::error::Result;
use jaguar_common::{DataType, Value};
use jaguar_ipc::proto::CallbackHandler;
use jaguar_vm::{Permission, PermissionSet, ResourceLimits};

use crate::api::UdfSignature;
use crate::def::{vm_spec, Placement, UdfDef, UdfImpl, VmUdfSpec, Volatility};
use crate::sfi::SfiRegion;
use crate::worker::{WorkerFn, WorkerRegistry};

/// Name of the callback the generic UDF issues.
pub const GENERIC_CALLBACK: &str = "cb";

/// Parameters of the generic UDF (the three scalar knobs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenericParams {
    pub data_indep_comps: i64,
    pub data_dep_comps: i64,
    pub callbacks: i64,
}

impl GenericParams {
    /// Assemble the full SQL argument tuple for a given byte array.
    pub fn args(&self, data: jaguar_common::ByteArray) -> Vec<Value> {
        vec![
            Value::Bytes(data),
            Value::Int(self.data_indep_comps),
            Value::Int(self.data_dep_comps),
            Value::Int(self.callbacks),
        ]
    }
}

/// The generic UDF's SQL signature.
pub fn generic_signature() -> UdfSignature {
    UdfSignature::new(
        vec![DataType::Bytes, DataType::Int, DataType::Int, DataType::Int],
        DataType::Int,
    )
}

fn unpack(args: &[Value]) -> Result<(&[u8], i64, i64, i64)> {
    Ok((
        args[0].as_bytes()?.as_slice(),
        args[1].as_int()?,
        args[2].as_int()?,
        args[3].as_int()?,
    ))
}

fn run_callbacks(mut acc: i64, n: i64, cb: &mut dyn CallbackHandler) -> Result<i64> {
    for c in 0..n {
        let v = cb.callback(GENERIC_CALLBACK, &[Value::Int(c)])?;
        acc = acc.wrapping_add(v.as_int()?);
    }
    Ok(acc)
}

/// Step 1, the data-independent multiply-accumulate loop.
fn data_indep(n: i64) -> i64 {
    (0..n).fold(0, |acc: i64, i| acc.wrapping_mul(31).wrapping_add(i))
}

/// Plain native variant (paper's "C++"): no per-access checks.
pub fn generic_native(args: &[Value], cb: &mut dyn CallbackHandler) -> Result<Value> {
    let (data, n_indep, n_dep, n_cb) = unpack(args)?;
    let mut acc = data_indep(n_indep);
    for _ in 0..n_dep {
        // Iterator form: the compiler elides bounds checks and may
        // vectorise — this is the optimized native baseline.
        for &b in data {
            acc = acc.wrapping_add(b as i64);
        }
    }
    acc = run_callbacks(acc, n_cb, cb)?;
    Ok(Value::Int(acc))
}

/// Bounds-checked native variant (§5.4's "BC-C++"). `black_box` keeps the
/// optimizer from proving the index in range and deleting the check —
/// which is exactly what a C++ compiler could not do for hand-written
/// `if (j >= len) abort();` checks against opaque indices.
pub fn generic_native_bc(args: &[Value], cb: &mut dyn CallbackHandler) -> Result<Value> {
    let (data, n_indep, n_dep, n_cb) = unpack(args)?;
    let mut acc = data_indep(n_indep);
    for _ in 0..n_dep {
        let len = data.len();
        let mut j = 0usize;
        while j < len {
            let jj = std::hint::black_box(j);
            // Explicit bounds check, kept live by black_box.
            let b = match data.get(jj) {
                Some(b) => *b,
                None => {
                    return Err(jaguar_common::JaguarError::Udf(
                        "bounds check failed".into(),
                    ))
                }
            };
            acc = acc.wrapping_add(b as i64);
            j += 1;
        }
    }
    acc = run_callbacks(acc, n_cb, cb)?;
    Ok(Value::Int(acc))
}

/// SFI variant (§2.3): the byte array is copied into a masked sandbox
/// region and every access goes through the masking accessor.
pub fn generic_native_sfi(args: &[Value], cb: &mut dyn CallbackHandler) -> Result<Value> {
    let (data, n_indep, n_dep, n_cb) = unpack(args)?;
    let region = SfiRegion::from_data(data);
    let mut acc = data_indep(n_indep);
    for _ in 0..n_dep {
        let len = region.len();
        let mut j = 0usize;
        while j < len {
            let jj = std::hint::black_box(j);
            acc = acc.wrapping_add(region.load(jj) as i64);
            j += 1;
        }
    }
    acc = run_callbacks(acc, n_cb, cb)?;
    Ok(Value::Int(acc))
}

/// The generic UDF in JagScript — the "Java source" the paper's users
/// would write, compiled to JSM bytecode for Designs 3 and 4.
pub const GENERIC_JAGSCRIPT: &str = r#"
import cb(i64) -> i64;

fn main(data: bytes, n_indep: i64, n_dep: i64, n_callbacks: i64) -> i64 {
    let acc: i64 = 0;
    let i: i64 = 0;
    while i < n_indep {
        acc = acc * 31 + i;
        i = i + 1;
    }
    let p: i64 = 0;
    while p < n_dep {
        let j: i64 = 0;
        let n: i64 = len(data);
        while j < n {
            acc = acc + data[j];
            j = j + 1;
        }
        p = p + 1;
    }
    let c: i64 = 0;
    while c < n_callbacks {
        acc = acc + cb(c);
        c = c + 1;
    }
    return acc;
}
"#;

/// Compile the JagScript generic UDF to an unverified module.
pub fn generic_module() -> jaguar_vm::Module {
    jaguar_lang::compile("udfs.generic", GENERIC_JAGSCRIPT)
        .expect("builtin generic UDF must compile")
}

// ---------------------------------------------------------------------
// UdfDefs for each design (used by the benchmark harness and tests)
// ---------------------------------------------------------------------

/// The generic UDF `name` under `imp`, `Stable` so that it batches.
fn generic_def(name: &str, imp: UdfImpl) -> UdfDef {
    UdfDef::new(name, generic_signature(), imp).with_volatility(Volatility::Stable)
}

/// Design 1 definition ("C++"): the registry's `generic` in the server.
pub fn def_native() -> UdfDef {
    generic_def("generic", UdfImpl::registered("generic", Placement::Server))
}

/// Design 1 with explicit bounds checks ("BC-C++", §5.4).
pub fn def_native_bc() -> UdfDef {
    let imp = UdfImpl::registered("generic_bc", Placement::Server);
    generic_def("generic_bc", imp)
}

/// Design 1 under software fault isolation (A1 ablation).
pub fn def_native_sfi() -> UdfDef {
    let imp = UdfImpl::registered("generic_sfi", Placement::Server);
    generic_def("generic_sfi", imp)
}

/// Design 2 definition ("IC++"): [`def_native`]'s body in a worker.
pub fn def_isolated() -> UdfDef {
    let imp = UdfImpl::registered("generic", Placement::Worker);
    generic_def("generic_ic", imp)
}

/// The generic UDF's bytecode spec for the UDF `name`, under a permission
/// set granting its one callback and nothing else: Designs 3 and 4 run it
/// under the same one.
fn generic_vm_spec(name: &str, jit: bool, limits: ResourceLimits) -> VmUdfSpec {
    let perms = PermissionSet::deny_all(name).grant(Permission::HostCall(GENERIC_CALLBACK.into()));
    vm_spec(generic_module(), "main", limits, jit, Some(Arc::new(perms)))
        .expect("builtin generic UDF must verify")
}

/// Design 3 definition ("JSM"/"JNI"): sandboxed bytecode in-process,
/// compiled when `jit`, interpreted otherwise.
pub fn def_vm(jit: bool, limits: ResourceLimits) -> UdfDef {
    let spec = generic_vm_spec("generic_vm", jit, limits);
    generic_def("generic_vm", UdfImpl::bytecode(spec, Placement::Server))
}

/// Design 4 definition: [`def_vm`]'s body in a worker process.
pub fn def_isolated_vm(jit: bool, limits: ResourceLimits) -> UdfDef {
    let spec = generic_vm_spec("generic_ivm", jit, limits);
    generic_def("generic_ivm", UdfImpl::bytecode(spec, Placement::Worker))
}

/// Callback handler used by the experiments: returns its argument
/// ("no data is actually transferred during the callback").
pub struct IdentityCallbacks;

impl CallbackHandler for IdentityCallbacks {
    fn callback(&mut self, _name: &str, args: &[Value]) -> Result<Value> {
        Ok(args.first().cloned().unwrap_or(Value::Int(0)))
    }
}

/// The native UDFs linked into the server and the `jaguar-worker` binary
/// alike — the counterpart of the C++ UDFs PREDATOR linked into its server
/// and its remote executor. A registered native body runs in either.
pub fn worker_registry() -> WorkerRegistry {
    |name| {
        let f: WorkerFn = match name {
            "noop" => |_, _| Ok(Value::Int(0)),
            "generic" => generic_native,
            "generic_bc" => generic_native_bc,
            "generic_sfi" => generic_native_sfi,
            // A deliberately crashing UDF: proves Design 2's crash containment.
            "crash" => |_, _| std::process::abort(),
            // A deliberately hanging UDF: proves a round trip's deadline
            // kills a wedged worker, spawned or pooled, instead of wedging
            // the query.
            "hang" => |_, _| loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            },
            // Returns INT under whatever signature it is registered with:
            // proves the parent checks every value a UDF returns, wherever
            // it ran, against its declared type.
            "liar" => |_, _| Ok(Value::Int(0)),
            // Crashes only for positive arguments: lets containment tests
            // crash the worker with one statement, then prove the next
            // statement runs a benign one at once.
            "crash_if_positive" => |args, _| {
                let v = args.first().map(|a| a.as_int()).transpose()?.unwrap_or(0);
                if v > 0 {
                    std::process::abort();
                }
                Ok(Value::Int(v))
            },
            _ => return None,
        };
        Some(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::ByteArray;
    use jaguar_ipc::proto::NoCallbacks;

    fn reference(data: &[u8], p: GenericParams) -> i64 {
        let mut acc: i64 = 0;
        for i in 0..p.data_indep_comps {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        for _ in 0..p.data_dep_comps {
            for &b in data {
                acc = acc.wrapping_add(b as i64);
            }
        }
        for c in 0..p.callbacks {
            acc = acc.wrapping_add(c);
        }
        acc
    }

    fn eval(
        f: fn(&[Value], &mut dyn CallbackHandler) -> Result<Value>,
        data: &[u8],
        p: GenericParams,
    ) -> i64 {
        let args = p.args(ByteArray::from(data));
        f(&args, &mut IdentityCallbacks).unwrap().as_int().unwrap()
    }

    #[test]
    fn native_variants_agree_with_reference() {
        let data = ByteArray::patterned(257, 9);
        for p in [
            GenericParams::default(),
            GenericParams {
                data_indep_comps: 1000,
                ..Default::default()
            },
            GenericParams {
                data_dep_comps: 3,
                ..Default::default()
            },
            GenericParams {
                callbacks: 10,
                ..Default::default()
            },
            GenericParams {
                data_indep_comps: 17,
                data_dep_comps: 2,
                callbacks: 5,
            },
        ] {
            let want = reference(data.as_slice(), p);
            assert_eq!(eval(generic_native, data.as_slice(), p), want, "{p:?}");
            assert_eq!(eval(generic_native_bc, data.as_slice(), p), want, "{p:?}");
            assert_eq!(eval(generic_native_sfi, data.as_slice(), p), want, "{p:?}");
        }
    }

    #[test]
    fn jagscript_variant_agrees() {
        let data = ByteArray::patterned(100, 4);
        let p = GenericParams {
            data_indep_comps: 50,
            data_dep_comps: 2,
            callbacks: 3,
        };
        let def = def_vm(true, ResourceLimits::default());
        let mut udf = def.instantiate().unwrap();
        let got = udf
            .invoke(&p.args(data.clone()), &mut IdentityCallbacks)
            .unwrap();
        assert_eq!(got, Value::Int(reference(data.as_slice(), p)));
    }

    #[test]
    fn baseline_and_jit_agree() {
        let data = ByteArray::patterned(64, 2);
        let p = GenericParams {
            data_indep_comps: 10,
            data_dep_comps: 1,
            callbacks: 0,
        };
        let mut jit = def_vm(true, ResourceLimits::default())
            .instantiate()
            .unwrap();
        let mut base = def_vm(false, ResourceLimits::default())
            .instantiate()
            .unwrap();
        assert_eq!(
            jit.invoke(&p.args(data.clone()), &mut NoCallbacks).unwrap(),
            base.invoke(&p.args(data), &mut NoCallbacks).unwrap()
        );
    }

    #[test]
    fn vm_security_denies_unexpected_callbacks() {
        // The VM def grants only the "cb" host call; a module importing
        // something else would be rejected — here we check the runtime
        // side: identity callbacks work under the granted permission.
        let data = ByteArray::zeroed(1);
        let p = GenericParams {
            callbacks: 1,
            ..Default::default()
        };
        let mut udf = def_vm(true, ResourceLimits::default())
            .instantiate()
            .unwrap();
        udf.invoke(&p.args(data), &mut IdentityCallbacks).unwrap();
    }

    #[test]
    fn worker_registry_contents() {
        let reg = worker_registry();
        for name in [
            "noop",
            "generic",
            "generic_bc",
            "generic_sfi",
            "crash",
            "hang",
            "crash_if_positive",
            "liar",
        ] {
            assert!(reg(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn empty_array_with_dep_passes() {
        let p = GenericParams {
            data_dep_comps: 5,
            ..Default::default()
        };
        assert_eq!(eval(generic_native, &[], p), 0);
        assert_eq!(eval(generic_native_bc, &[], p), 0);
        assert_eq!(eval(generic_native_sfi, &[], p), 0);
    }
}

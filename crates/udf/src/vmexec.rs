//! Design 3: sandboxed VM UDFs inside the server process (the "JNI" design).
//!
//! A [`VmUdf`] owns a JSM interpreter over a verified module. Each
//! invocation:
//!
//! 1. marshals SQL [`Value`]s into a fresh VM arena (the JNI-style
//!    "parameters that need to be passed must first be mapped to Java
//!    objects" cost — a real copy for byte arrays),
//! 2. executes under fuel/memory limits and the security manager,
//! 3. marshals the result back out.
//!
//! Host calls made by the bytecode become [`CallbackHandler`] invocations —
//! crossing the language boundary, but *not* a process boundary, which is
//! why Figure 8 shows JNI callbacks far cheaper than IC++ callbacks.

use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::{ByteArray, DataType, Value};
use jaguar_ipc::proto::CallbackHandler;
use jaguar_vec::{BatchError, BatchResult, ValueBatch};
use jaguar_vm::interp::{ExecMode, HostEnv, Interpreter, VmValue};
use jaguar_vm::{
    Arena, PermissionSet, ResourceLimits, ResourceUsage, TierTally, VType, VerifiedModule,
};

use crate::api::{ScalarUdf, UdfResourceUsage, UdfSignature};

/// Convert a SQL value into a VM value, allocating byte arrays in `arena`.
pub fn value_to_vm(v: &Value, arena: &mut Arena) -> Result<VmValue> {
    Ok(match v {
        Value::Int(i) => VmValue::I64(*i),
        Value::Float(f) => VmValue::F64(*f),
        Value::Bool(b) => VmValue::I64(*b as i64),
        Value::Bytes(b) => VmValue::Bytes(arena.alloc_from(b.as_slice())?),
        other => return Err(JaguarError::Udf(format!("cannot pass {other} to a VM UDF"))),
    })
}

/// Convert a VM value back into a SQL value, copying byte arrays out.
pub fn vm_to_value(v: VmValue, arena: &Arena) -> Result<Value> {
    Ok(match v {
        VmValue::I64(i) => Value::Int(i),
        VmValue::F64(f) => Value::Float(f),
        VmValue::Bytes(r) => Value::Bytes(ByteArray::new(arena.get(r)?.to_vec())),
    })
}

/// Adapts a [`CallbackHandler`] into the VM's [`HostEnv`].
pub struct CallbackHost<'a> {
    pub callbacks: &'a mut dyn CallbackHandler,
}

impl HostEnv for CallbackHost<'_> {
    fn host_call(
        &mut self,
        name: &str,
        args: &[VmValue],
        arena: &mut Arena,
    ) -> Result<Option<VmValue>> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(vm_to_value(*a, arena)?);
        }
        let out = self.callbacks.callback(name, &vals)?;
        Ok(Some(value_to_vm(&out, arena)?))
    }
}

/// Map a SQL type onto the VM type used to carry it.
fn vtype_of(t: DataType) -> Result<VType> {
    Ok(match t {
        DataType::Int | DataType::Bool => VType::I64,
        DataType::Float => VType::F64,
        DataType::Bytes => VType::Bytes,
        DataType::Str => {
            return Err(JaguarError::Udf(
                "VARCHAR parameters are not supported by VM UDFs; use BYTEARRAY".into(),
            ))
        }
    })
}

/// A sandboxed, in-process UDF (the paper's Design 3).
pub struct VmUdf {
    name: String,
    signature: UdfSignature,
    function: String,
    interp: Interpreter,
    consumed: UdfResourceUsage,
}

impl VmUdf {
    /// Build a VM UDF over an already-verified module. Fails if the VM
    /// function's signature cannot carry the SQL signature.
    pub fn new(
        name: impl Into<String>,
        signature: UdfSignature,
        module: Arc<VerifiedModule>,
        function: impl Into<String>,
        limits: ResourceLimits,
        mode: ExecMode,
        permissions: Option<Arc<PermissionSet>>,
    ) -> Result<VmUdf> {
        let name = name.into();
        let function = function.into();
        let fidx = module.find_function(&function).ok_or_else(|| {
            JaguarError::Udf(format!(
                "module '{}' has no function '{function}'",
                module.name()
            ))
        })?;
        let f = &module.functions()[fidx as usize];
        let want_params: Vec<VType> = signature
            .params
            .iter()
            .map(|t| vtype_of(*t))
            .collect::<Result<_>>()?;
        if f.sig.params != want_params {
            return Err(JaguarError::Udf(format!(
                "VM function '{function}' parameter types do not carry the SQL signature"
            )));
        }
        if f.sig.ret != Some(vtype_of(signature.ret)?) {
            return Err(JaguarError::Udf(format!(
                "VM function '{function}' return type does not carry the SQL signature"
            )));
        }
        let mut interp = Interpreter::new(module, limits, mode);
        if let Some(p) = permissions {
            interp = interp.with_security(p);
        }
        Ok(VmUdf {
            name,
            signature,
            function,
            interp,
            consumed: UdfResourceUsage::default(),
        })
    }
}

impl ScalarUdf for VmUdf {
    fn name(&self) -> &str {
        &self.name
    }

    fn signature(&self) -> &UdfSignature {
        &self.signature
    }

    fn consumed(&self) -> Option<UdfResourceUsage> {
        Some(self.consumed)
    }

    fn attach_cancel(&mut self, token: jaguar_common::cancel::CancelToken) {
        // The interpreter polls the token every K instructions alongside
        // fuel, so even an unmetered (`fuel: None`) loop respects the
        // statement deadline.
        self.interp.set_cancel(token);
    }

    fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        self.signature.check_args(&self.name, args)?;
        let mut arena = Arena::new(self.interp.limits().memory);
        let mut vm_args = Vec::with_capacity(args.len());
        for a in args {
            vm_args.push(value_to_vm(a, &mut arena)?);
        }
        let mut host = CallbackHost { callbacks };
        let (ret, usage) =
            self.interp
                .invoke_with_arena(&self.function, vm_args, &mut arena, &mut host)?;
        self.result(ret, usage, &arena)
    }

    /// The vectorized entry point: enter the interpreter once per row but
    /// amortize everything around it across the batch — the function is
    /// resolved once, one arena (byte buffers and register stack kept
    /// across `reset`) and one argument vector serve every row, arguments
    /// are read where the batch holds them, and the tier counters are
    /// published once. Results, error text, the failing row and per-row
    /// resource accounting are identical to the per-tuple path's; the
    /// interpreter's cancel poll keeps its per-`CANCEL_CHECK_INTERVAL`
    /// cadence inside every row.
    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let fidx = match self.interp.resolve(&self.function) {
            Ok(f) => f,
            Err(e) => return Err(BatchError::before_any(e)),
        };
        let mut arena = Arena::new(self.interp.limits().memory);
        let mut out = Vec::with_capacity(batch.len());
        let mut vm_args = Vec::with_capacity(batch.arity());
        let mut host = CallbackHost { callbacks };
        let mut tally = TierTally::default();
        let arity = batch.arity();
        for i in 0..batch.len() {
            arena.reset();
            vm_args.clear();
            let arg = |a: usize| &batch.column(a)[i];
            let one = (|| -> Result<Value> {
                // Only a row that fails the check is copied out, for its error.
                let params = &self.signature.params;
                if arity != params.len() || (0..arity).any(|a| !arg(a).conforms_to(params[a])) {
                    self.signature.check_args(&self.name, &batch.row(i))?;
                }
                for a in 0..arity {
                    vm_args.push(value_to_vm(arg(a), &mut arena)?);
                }
                let (ret, usage) = self.interp.invoke_tallied(
                    fidx,
                    &self.function,
                    &vm_args,
                    &mut arena,
                    &mut host,
                    &mut tally,
                )?;
                self.result(ret, usage, &arena)
            })();
            match one {
                Ok(v) => out.push(v),
                Err(e) => return Err(BatchError::new(i, e)),
            }
        }
        Ok(out)
    }
}

impl VmUdf {
    /// Account one invocation and marshal its result out of `arena`.
    fn result(
        &mut self,
        ret: Option<VmValue>,
        usage: ResourceUsage,
        arena: &Arena,
    ) -> Result<Value> {
        self.consumed.instructions += usage.instructions;
        self.consumed.bytes_allocated += arena.allocated() as u64;
        self.consumed.host_calls += usage.host_calls;
        match ret {
            Some(v) => {
                let out = vm_to_value(v, arena)?;
                // Return type fidelity: Bool SQL results come back as i64.
                if self.signature.ret == DataType::Bool {
                    return Ok(Value::Bool(out.as_int()? != 0));
                }
                Ok(out)
            }
            None => Err(JaguarError::Udf(format!(
                "VM function '{}' returned no value",
                self.function
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_ipc::proto::NoCallbacks;
    use jaguar_lang::compile;

    fn vm_udf(src: &str, sig: UdfSignature) -> VmUdf {
        let module = compile("m", src).unwrap();
        let verified = Arc::new(module.verify().unwrap());
        VmUdf::new(
            "test_udf",
            sig,
            verified,
            "main",
            ResourceLimits::default(),
            ExecMode::Jit,
            None,
        )
        .unwrap()
    }

    #[test]
    fn bytes_in_int_out() {
        let mut udf = vm_udf(
            "fn main(b: bytes) -> i64 { return len(b); }",
            UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        );
        let v = udf
            .invoke(&[Value::Bytes(ByteArray::zeroed(17))], &mut NoCallbacks)
            .unwrap();
        assert_eq!(v, Value::Int(17));
    }

    #[test]
    fn float_signature() {
        let mut udf = vm_udf(
            "fn main(x: f64) -> f64 { return x * 2.0; }",
            UdfSignature::new(vec![DataType::Float], DataType::Float),
        );
        assert_eq!(
            udf.invoke(&[Value::Float(1.25)], &mut NoCallbacks).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn bool_maps_to_i64_and_back() {
        let mut udf = vm_udf(
            "fn main(b: i64) -> i64 { return !b; }",
            UdfSignature::new(vec![DataType::Bool], DataType::Bool),
        );
        assert_eq!(
            udf.invoke(&[Value::Bool(false)], &mut NoCallbacks).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn signature_mismatch_rejected_at_build() {
        let module = compile("m", "fn main(x: i64) -> i64 { return x; }").unwrap();
        let verified = Arc::new(module.verify().unwrap());
        let e = match VmUdf::new(
            "bad",
            UdfSignature::new(vec![DataType::Bytes], DataType::Int),
            verified,
            "main",
            ResourceLimits::default(),
            ExecMode::Jit,
            None,
        ) {
            Err(e) => e,
            Ok(_) => panic!("signature mismatch must be rejected"),
        };
        assert!(e.to_string().contains("parameter types"), "{e}");
    }

    #[test]
    fn missing_function_rejected() {
        let module = compile("m", "fn main() -> i64 { return 0; }").unwrap();
        let verified = Arc::new(module.verify().unwrap());
        assert!(VmUdf::new(
            "bad",
            UdfSignature::new(vec![], DataType::Int),
            verified,
            "absent",
            ResourceLimits::default(),
            ExecMode::Jit,
            None,
        )
        .is_err());
    }

    #[test]
    fn varchar_unsupported() {
        let module = compile("m", "fn main() -> i64 { return 0; }").unwrap();
        let verified = Arc::new(module.verify().unwrap());
        assert!(VmUdf::new(
            "bad",
            UdfSignature::new(vec![DataType::Str], DataType::Int),
            verified,
            "main",
            ResourceLimits::default(),
            ExecMode::Jit,
            None,
        )
        .is_err());
    }

    #[test]
    fn callback_through_host_boundary() {
        struct Lookup;
        impl CallbackHandler for Lookup {
            fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
                assert_eq!(name, "lookup");
                Ok(Value::Int(args[0].as_int()? * 10))
            }
        }
        let src = r#"
            import lookup(i64) -> i64;
            fn main(x: i64) -> i64 { return lookup(x) + 1; }
        "#;
        let mut udf = vm_udf(src, UdfSignature::new(vec![DataType::Int], DataType::Int));
        assert_eq!(
            udf.invoke(&[Value::Int(4)], &mut Lookup).unwrap(),
            Value::Int(41)
        );
    }

    #[test]
    fn infinite_loop_contained_by_fuel() {
        let module = compile("m", "fn main() -> i64 { while 1 { } return 0; }").unwrap();
        let verified = Arc::new(module.verify().unwrap());
        let mut udf = VmUdf::new(
            "spin",
            UdfSignature::new(vec![], DataType::Int),
            verified,
            "main",
            ResourceLimits::tight(50_000, 1 << 20),
            ExecMode::Jit,
            None,
        )
        .unwrap();
        let e = udf.invoke(&[], &mut NoCallbacks).unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
        assert!(e.is_containable());
    }

    #[test]
    fn infinite_loop_contained_by_deadline_without_fuel() {
        use jaguar_common::cancel::CancelToken;
        let module = compile("m", "fn main() -> i64 { while 1 { } return 0; }").unwrap();
        let verified = Arc::new(module.verify().unwrap());
        let mut udf = VmUdf::new(
            "spin",
            UdfSignature::new(vec![], DataType::Int),
            verified,
            "main",
            // No fuel limit: only the statement deadline can stop this.
            ResourceLimits {
                fuel: None,
                memory: Some(1 << 20),
                max_call_depth: 8,
            },
            ExecMode::Jit,
            None,
        )
        .unwrap();
        udf.attach_cancel(CancelToken::with_deadline(
            std::time::Duration::from_millis(30),
        ));
        let started = std::time::Instant::now();
        let e = udf.invoke(&[], &mut NoCallbacks).unwrap_err();
        assert!(matches!(e, JaguarError::Timeout(_)), "{e}");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "deadline must abort promptly"
        );
    }
}

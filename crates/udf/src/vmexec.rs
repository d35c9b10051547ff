//! Design 3: sandboxed VM UDFs inside the server process (the "JNI" design).
//!
//! A [`VmUdf`] owns a JSM interpreter over a verified module. Each
//! invocation:
//!
//! 1. marshals SQL [`Value`]s into the VM arena, reset per call (the JNI-style
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
use jaguar_vm::interp::{ExecMode, HostEnv, Interpreter, VmValue};
use jaguar_vm::{Arena, PermissionSet, ResourceLimits, TierTally, VType, VerifiedModule};

use crate::api::{ScalarUdf, UdfResourceUsage, UdfSignature};
use crate::batch::{BatchError, BatchResult, ValueBatch};

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
///
/// An instance lives for one statement. Its calls share one arena (byte
/// buffers and register stack kept across `reset`), one argument vector,
/// the function index `new` resolved, and one [`TierTally`], published
/// when the instance drops: a call allocates nothing and writes nothing
/// shared, while arguments, fuel and memory stay accounted per call.
pub struct VmUdf {
    name: String,
    signature: UdfSignature,
    function: String,
    fidx: u32,
    interp: Interpreter,
    arena: Arena,
    vm_args: Vec<VmValue>,
    tally: TierTally,
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
        let mut carried = f.sig.params.len() == signature.params.len();
        for (i, t) in signature.params.iter().enumerate() {
            carried &= f.sig.params.get(i) == Some(&vtype_of(*t)?);
        }
        if !carried {
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
            vm_args: Vec::with_capacity(signature.params.len()),
            name,
            signature,
            function,
            fidx,
            interp,
            arena: Arena::new(limits.memory),
            tally: TierTally::default(),
            consumed: UdfResourceUsage::default(),
        })
    }

    /// One call on `arity` arguments of types `type_of(a)`: check them
    /// against the signature, have `marshal(a, arena)` put each into the
    /// reset arena, run, account, and marshal the result out. The `Value`
    /// paths below and a worker's batch frame all call this, so a byte
    /// argument goes from the frame into the arena in one copy.
    pub(crate) fn call_marshalled(
        &mut self,
        arity: usize,
        type_of: impl Fn(usize) -> Option<DataType>,
        mut marshal: impl FnMut(usize, &mut Arena) -> Result<VmValue>,
        callbacks: &mut dyn CallbackHandler,
    ) -> Result<Value> {
        self.signature.check_types(&self.name, arity, type_of)?;
        self.arena.reset();
        self.vm_args.clear();
        for a in 0..arity {
            self.vm_args.push(marshal(a, &mut self.arena)?);
        }
        let (ret, usage) = self.interp.invoke_tallied(
            self.fidx,
            &self.function,
            &self.vm_args,
            &mut self.arena,
            &mut CallbackHost { callbacks },
            &mut self.tally,
        )?;
        self.consumed.instructions += usage.instructions;
        self.consumed.bytes_allocated += self.arena.allocated() as u64;
        self.consumed.host_calls += usage.host_calls;
        match ret {
            // A BOOL comes back from the VM as an i64, nonzero being true.
            Some(VmValue::I64(b)) if self.signature.ret == DataType::Bool => {
                Ok(Value::Bool(b != 0))
            }
            Some(v) => vm_to_value(v, &self.arena),
            None => Err(JaguarError::Udf(format!(
                "VM function '{}' returned no value",
                self.function
            ))),
        }
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
        let marshal = |a, arena: &mut Arena| value_to_vm(&args[a], arena);
        self.call_marshalled(args.len(), |a| args[a].data_type(), marshal, callbacks)
    }

    /// The vectorized entry point: one [`VmUdf::invoke`] per row, on the
    /// arguments where the batch holds them. Results, error text and the
    /// failing row are the per-tuple path's; the interpreter's cancel poll
    /// keeps its per-`CANCEL_CHECK_INTERVAL` cadence inside every row.
    fn invoke_batch(
        &mut self,
        batch: &ValueBatch,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchResult {
        let mut out = Vec::with_capacity(batch.len());
        for i in 0..batch.len() {
            let arg = |a: usize| &batch.column(a)[i];
            let marshal = |a, arena: &mut Arena| value_to_vm(arg(a), arena);
            match self.call_marshalled(batch.arity(), |a| arg(a).data_type(), marshal, callbacks) {
                Ok(v) => out.push(v),
                Err(e) => return Err(BatchError::new(i, e)),
            }
        }
        Ok(out)
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

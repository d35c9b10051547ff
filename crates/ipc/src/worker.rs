//! The worker side of isolated UDF execution.
//!
//! A worker process runs [`serve`] over its stdin/stdout. The parent loads
//! exactly one UDF into it (native, from the registry baked into the worker
//! binary; or a sandboxed VM module shipped over the pipe) and then invokes
//! it once per tuple. A UDF's callbacks are proxied back to the parent as
//! `CallbackRequest` messages.
//!
//! The worker is deliberately *crashable*: a native UDF that panics takes
//! the worker process down, not the server — which is the entire point of
//! Design 2. [`serve`] catches nothing.

use std::io::{BufReader, BufWriter, Read, Write};
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::Value;
use jaguar_vm::interp::{ExecMode, HostEnv, Interpreter, VmValue};
use jaguar_vm::{Arena, Module, ResourceLimits, VerifiedModule};

use crate::proto::{CallbackHandler, Request, Response, PROTO_VERSION};

/// A native UDF as hosted by the worker: arguments in, callbacks available,
/// one value out. Mirrors the shape of a C++ UDF compiled into PREDATOR's
/// remote executor.
pub type NativeUdfFn =
    Arc<dyn Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync>;

/// The set of native UDFs compiled into this worker binary.
#[derive(Default, Clone)]
pub struct WorkerRegistry {
    entries: Vec<(String, NativeUdfFn)>,
}

impl WorkerRegistry {
    pub fn new() -> WorkerRegistry {
        WorkerRegistry::default()
    }

    pub fn register(
        mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) -> WorkerRegistry {
        self.entries.push((name.into(), Arc::new(f)));
        self
    }

    pub fn get(&self, name: &str) -> Option<NativeUdfFn> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| Arc::clone(f))
    }

    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

/// What the worker currently has loaded.
enum Loaded {
    Nothing,
    Native(NativeUdfFn),
    Vm {
        interp: Interpreter,
        function: String,
    },
}

/// Proxies a UDF's callbacks over the pipe to the parent and waits for the
/// answer — one full round trip per callback, which is precisely the cost
/// Figure 8 shows dominating IC++.
struct WireCallbacks<'a, R: Read, W: Write> {
    input: &'a mut R,
    output: &'a mut W,
}

impl<R: Read, W: Write> CallbackHandler for WireCallbacks<'_, R, W> {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        Response::CallbackRequest {
            name: name.to_string(),
            args: args.to_vec(),
        }
        .write(self.output)?;
        match Request::read(self.input)? {
            Request::CallbackResult { value } => Ok(value),
            other => Err(JaguarError::Protocol(format!(
                "expected CallbackResult, got {other:?}"
            ))),
        }
    }
}

/// Adapts the wire callback channel into a VM [`HostEnv`] for Design 4:
/// host calls from sandboxed code become callback round trips.
struct VmWireHost<'a, R: Read, W: Write> {
    cb: WireCallbacks<'a, R, W>,
}

impl<R: Read, W: Write> HostEnv for VmWireHost<'_, R, W> {
    fn host_call(
        &mut self,
        name: &str,
        args: &[VmValue],
        arena: &mut Arena,
    ) -> Result<Option<VmValue>> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(match a {
                VmValue::I64(v) => Value::Int(*v),
                VmValue::F64(v) => Value::Float(*v),
                VmValue::Bytes(r) => {
                    Value::Bytes(jaguar_common::ByteArray::new(arena.get(*r)?.to_vec()))
                }
            });
        }
        let out = self.cb.callback(name, &vals)?;
        Ok(Some(match out {
            Value::Int(v) => VmValue::I64(v),
            Value::Float(v) => VmValue::F64(v),
            Value::Bytes(b) => VmValue::Bytes(arena.alloc_from(b.as_slice())?),
            other => {
                return Err(JaguarError::Protocol(format!(
                    "callback returned unsupported type {other}"
                )))
            }
        }))
    }
}

/// Run the worker protocol until `Shutdown` or EOF.
///
/// `registry` holds the native UDFs this worker offers. Buffering is set up
/// internally; pass the raw stdin/stdout (or any byte stream, e.g. an
/// in-memory pipe in tests).
pub fn serve<R: Read, W: Write>(input: R, output: W, registry: &WorkerRegistry) -> Result<()> {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    let mut loaded = Loaded::Nothing;
    let mut module_cache: ModuleCache = None;

    Response::Ready {
        proto: PROTO_VERSION,
    }
    .write(&mut output)?;

    loop {
        let req = match Request::read(&mut input) {
            Ok(r) => r,
            // Parent hung up (end of query / parent died): exit quietly.
            Err(JaguarError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        match req {
            Request::Shutdown => return Ok(()),
            Request::Ping => Response::Pong.write(&mut output)?,
            Request::Reset => {
                // Back to the just-started state: pooled reuse must not leak
                // one query's UDF (or its interpreter state) into the next.
                loaded = Loaded::Nothing;
                Response::ResetOk.write(&mut output)?;
            }
            Request::LoadNative { name } => match registry.get(&name) {
                Some(f) => {
                    loaded = Loaded::Native(f);
                    Response::Loaded.write(&mut output)?;
                }
                None => {
                    Response::Error {
                        message: format!(
                            "worker has no native udf '{name}' (available: {:?})",
                            registry.names()
                        ),
                    }
                    .write(&mut output)?;
                }
            },
            Request::LoadVm {
                module,
                function,
                jit,
                fuel,
                memory,
            } => match verified(&mut module_cache, module) {
                Ok(verified) => {
                    let limits = ResourceLimits {
                        fuel: if fuel == 0 { None } else { Some(fuel) },
                        memory: if memory == 0 {
                            None
                        } else {
                            Some(memory as usize)
                        },
                        max_call_depth: 256,
                    };
                    let mode = if jit {
                        ExecMode::Jit
                    } else {
                        ExecMode::Baseline
                    };
                    loaded = Loaded::Vm {
                        interp: Interpreter::new(verified, limits, mode),
                        function,
                    };
                    Response::Loaded.write(&mut output)?;
                }
                Err(e) => {
                    Response::Error {
                        message: e.to_string(),
                    }
                    .write(&mut output)?;
                }
            },
            Request::CallbackResult { .. } => {
                Response::Error {
                    message: "unexpected CallbackResult outside an invocation".into(),
                }
                .write(&mut output)?;
            }
            Request::Invoke { args } => {
                let outcome = invoke_loaded(&mut loaded, &args, &mut input, &mut output);
                // Fault site: die after doing the work but before the
                // reply — the parent sees EOF mid-protocol and must
                // contain it as a worker failure, not corrupt state.
                if jaguar_common::fault::should_fail("ipc.worker.drop_mid_reply") {
                    std::process::abort();
                }
                match outcome {
                    Ok(value) => Response::InvokeResult { value }.write(&mut output)?,
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    }
                    .write(&mut output)?,
                }
            }
            Request::InvokeBatch { rows } => {
                let (values, error) =
                    invoke_loaded_batch(&mut loaded, &rows, &mut input, &mut output);
                // Same fault site as Invoke: one per batch, since the
                // batch is one crossing.
                if jaguar_common::fault::should_fail("ipc.worker.drop_mid_reply") {
                    std::process::abort();
                }
                Response::BatchReply { values, error }.write(&mut output)?;
            }
        }
    }
}

/// The last module a worker verified, keyed by the shipped bytes. A pooled
/// worker is Reset between queries but typically reloaded with the *same*
/// module; reusing its `Arc<VerifiedModule>` skips re-verifying and
/// re-compiling it on every checkout. One entry suffices: a worker hosts
/// one UDF at a time.
type ModuleCache = Option<(Vec<u8>, Arc<VerifiedModule>)>;

/// Verify (and so compile) `bytes`, or reuse the module verified from
/// identical bytes last time.
fn verified(cache: &mut ModuleCache, bytes: Vec<u8>) -> Result<Arc<VerifiedModule>> {
    if let Some((cached, module)) = cache {
        if *cached == bytes {
            return Ok(Arc::clone(module));
        }
    }
    let module = Arc::new(Module::from_bytes(&bytes)?.verify()?);
    *cache = Some((bytes, Arc::clone(&module)));
    Ok(module)
}

fn invoke_loaded<R: Read, W: Write>(
    loaded: &mut Loaded,
    args: &[Value],
    input: &mut BufReader<R>,
    output: &mut BufWriter<W>,
) -> Result<Value> {
    match loaded {
        Loaded::Nothing => Err(JaguarError::Worker("invoke before load".into())),
        Loaded::Native(f) => {
            let f = Arc::clone(f);
            let mut cb = WireCallbacks { input, output };
            f(args, &mut cb)
        }
        Loaded::Vm { interp, function } => {
            // Marshal SQL values into the VM arena, run, read the result
            // back — the in-worker equivalent of the JNI argument mapping.
            let mut arena = Arena::new(interp.limits().memory);
            let mut vm_args = Vec::with_capacity(args.len());
            for a in args {
                vm_args.push(match a {
                    Value::Int(v) => VmValue::I64(*v),
                    Value::Float(v) => VmValue::F64(*v),
                    Value::Bytes(b) => VmValue::Bytes(arena.alloc_from(b.as_slice())?),
                    other => {
                        return Err(JaguarError::Udf(format!(
                            "unsupported VM argument type: {other}"
                        )))
                    }
                });
            }
            let mut host = VmWireHost {
                cb: WireCallbacks { input, output },
            };
            let (ret, _usage) =
                interp.invoke_with_arena(function, vm_args, &mut arena, &mut host)?;
            Ok(match ret {
                None => Value::Null,
                Some(VmValue::I64(v)) => Value::Int(v),
                Some(VmValue::F64(v)) => Value::Float(v),
                Some(VmValue::Bytes(r)) => {
                    Value::Bytes(jaguar_common::ByteArray::new(arena.get(r)?.to_vec()))
                }
            })
        }
    }
}

/// Run the loaded UDF once per batch row, inside the worker — the whole
/// point of the vectorized ABI: the parent paid one pipe crossing for all
/// of these rows. Stops at the first failing row; the reply carries the
/// completed prefix, and the error's row index is the prefix length.
///
/// The VM case amortizes per-invocation setup across the batch: the entry
/// function is resolved once and one arena is reset (not reallocated) per
/// row. Resource accounting and error text stay identical to the
/// per-tuple path.
fn invoke_loaded_batch<R: Read, W: Write>(
    loaded: &mut Loaded,
    rows: &[Vec<Value>],
    input: &mut BufReader<R>,
    output: &mut BufWriter<W>,
) -> (Vec<Value>, Option<String>) {
    match loaded {
        Loaded::Nothing => (
            Vec::new(),
            Some(JaguarError::Worker("invoke before load".into()).to_string()),
        ),
        Loaded::Native(f) => {
            let f = Arc::clone(f);
            let mut cb = WireCallbacks { input, output };
            let mut values = Vec::with_capacity(rows.len());
            for row in rows {
                match f(row, &mut cb) {
                    Ok(v) => values.push(v),
                    Err(e) => return (values, Some(e.to_string())),
                }
            }
            (values, None)
        }
        Loaded::Vm { interp, function } => {
            let fidx = match interp.resolve(function) {
                Ok(f) => f,
                Err(e) => return (Vec::new(), Some(e.to_string())),
            };
            let mut arena = Arena::new(interp.limits().memory);
            let mut values = Vec::with_capacity(rows.len());
            for row in rows {
                arena.reset();
                let one = (|| -> Result<Value> {
                    let mut vm_args = Vec::with_capacity(row.len());
                    for a in row {
                        vm_args.push(match a {
                            Value::Int(v) => VmValue::I64(*v),
                            Value::Float(v) => VmValue::F64(*v),
                            Value::Bytes(b) => VmValue::Bytes(arena.alloc_from(b.as_slice())?),
                            other => {
                                return Err(JaguarError::Udf(format!(
                                    "unsupported VM argument type: {other}"
                                )))
                            }
                        });
                    }
                    let mut host = VmWireHost {
                        cb: WireCallbacks { input, output },
                    };
                    let (ret, _usage) =
                        interp.invoke_resolved(fidx, function, vm_args, &mut arena, &mut host)?;
                    Ok(match ret {
                        None => Value::Null,
                        Some(VmValue::I64(v)) => Value::Int(v),
                        Some(VmValue::F64(v)) => Value::Float(v),
                        Some(VmValue::Bytes(r)) => {
                            Value::Bytes(jaguar_common::ByteArray::new(arena.get(r)?.to_vec()))
                        }
                    })
                })();
                match one {
                    Ok(v) => values.push(v),
                    Err(e) => return (values, Some(e.to_string())),
                }
            }
            (values, None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn demo_registry() -> WorkerRegistry {
        WorkerRegistry::new()
            .register("add", |args, _cb| {
                Ok(Value::Int(args[0].as_int()? + args[1].as_int()?))
            })
            .register("echo_callback", |args, cb| cb.callback("lookup", args))
    }

    /// The tier counters are process-wide: every test here that runs VM
    /// code holds this guard, so the one that counts compiled calls sees
    /// only its own.
    fn vm_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Drive the serve loop over in-memory buffers: write a scripted set of
    /// requests, collect all responses.
    fn script(requests: &[Request], registry: &WorkerRegistry) -> Vec<Response> {
        let mut inbuf = Vec::new();
        for r in requests {
            r.write(&mut inbuf).unwrap();
        }
        let mut out = Vec::new();
        serve(Cursor::new(inbuf), &mut out, registry).unwrap();
        let mut rsp = Vec::new();
        let mut r = out.as_slice();
        while !r.is_empty() {
            rsp.push(Response::read(&mut r).unwrap());
        }
        rsp
    }

    #[test]
    fn load_and_invoke_native() {
        let rsp = script(
            &[
                Request::LoadNative { name: "add".into() },
                Request::Invoke {
                    args: vec![Value::Int(20), Value::Int(22)],
                },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp,
            vec![
                Response::Ready {
                    proto: PROTO_VERSION
                },
                Response::Loaded,
                Response::InvokeResult {
                    value: Value::Int(42)
                }
            ]
        );
    }

    #[test]
    fn unknown_native_is_error_response() {
        let rsp = script(
            &[Request::LoadNative {
                name: "missing".into(),
            }],
            &demo_registry(),
        );
        assert!(matches!(rsp[1], Response::Error { .. }));
    }

    #[test]
    fn invoke_before_load_is_error_response() {
        let rsp = script(&[Request::Invoke { args: vec![] }], &demo_registry());
        assert!(matches!(rsp[1], Response::Error { .. }));
    }

    #[test]
    fn callback_round_trip() {
        // The scripted input answers the callback inline.
        let rsp = script(
            &[
                Request::LoadNative {
                    name: "echo_callback".into(),
                },
                Request::Invoke {
                    args: vec![Value::Int(7)],
                },
                // This CallbackResult is consumed *inside* the invoke.
                Request::CallbackResult {
                    value: Value::Int(77),
                },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp,
            vec![
                Response::Ready {
                    proto: PROTO_VERSION
                },
                Response::Loaded,
                Response::CallbackRequest {
                    name: "lookup".into(),
                    args: vec![Value::Int(7)],
                },
                Response::InvokeResult {
                    value: Value::Int(77)
                }
            ]
        );
    }

    #[test]
    fn vm_module_loads_and_runs() {
        let _serial = vm_serial();
        // main(a: i64) -> i64 { return a * 2 } assembled via jaguar_vm::asm
        let src = "module m\nfunc main(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";
        let module = jaguar_vm::asm::assemble(src).unwrap();
        let rsp = script(
            &[
                Request::LoadVm {
                    module: module.to_bytes(),
                    function: "main".into(),
                    jit: true,
                    fuel: 0,
                    memory: 0,
                },
                Request::Invoke {
                    args: vec![Value::Int(21)],
                },
                Request::Shutdown,
            ],
            &WorkerRegistry::new(),
        );
        assert_eq!(
            rsp,
            vec![
                Response::Ready {
                    proto: PROTO_VERSION
                },
                Response::Loaded,
                Response::InvokeResult {
                    value: Value::Int(42)
                }
            ]
        );
    }

    #[test]
    fn malformed_vm_module_rejected() {
        let rsp = script(
            &[Request::LoadVm {
                module: b"garbage".to_vec(),
                function: "main".into(),
                jit: true,
                fuel: 0,
                memory: 0,
            }],
            &WorkerRegistry::new(),
        );
        assert!(matches!(rsp[1], Response::Error { .. }));
    }

    #[test]
    fn vm_fuel_limit_enforced_in_worker() {
        let _serial = vm_serial();
        let src = "module m\nfunc main() -> i64\nspin:\n  jmp spin\n  consti 0\n  ret\nend\n";
        let module = jaguar_vm::asm::assemble(src).unwrap();
        let rsp = script(
            &[
                Request::LoadVm {
                    module: module.to_bytes(),
                    function: "main".into(),
                    jit: true,
                    fuel: 1000,
                    memory: 0,
                },
                Request::Invoke { args: vec![] },
                Request::Shutdown,
            ],
            &WorkerRegistry::new(),
        );
        let Response::Error { message } = &rsp[2] else {
            panic!("expected error, got {:?}", rsp[2]);
        };
        assert!(message.contains("fuel"), "{message}");
    }

    #[test]
    fn ping_answers_pong() {
        let rsp = script(&[Request::Ping, Request::Shutdown], &demo_registry());
        assert_eq!(
            rsp,
            vec![
                Response::Ready {
                    proto: PROTO_VERSION
                },
                Response::Pong
            ]
        );
    }

    #[test]
    fn reset_drops_loaded_state() {
        let rsp = script(
            &[
                Request::LoadNative { name: "add".into() },
                Request::Invoke {
                    args: vec![Value::Int(20), Value::Int(22)],
                },
                Request::Reset,
                // After a reset the worker must behave exactly like a fresh
                // one: invoking without a load is an error response.
                Request::Invoke { args: vec![] },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp[0],
            Response::Ready {
                proto: PROTO_VERSION
            }
        );
        assert_eq!(rsp[1], Response::Loaded);
        assert_eq!(
            rsp[2],
            Response::InvokeResult {
                value: Value::Int(42)
            }
        );
        assert_eq!(rsp[3], Response::ResetOk);
        assert!(matches!(rsp[4], Response::Error { .. }));
    }

    #[test]
    fn batch_invoke_native() {
        let rsp = script(
            &[
                Request::LoadNative { name: "add".into() },
                Request::InvokeBatch {
                    rows: vec![
                        vec![Value::Int(1), Value::Int(2)],
                        vec![Value::Int(10), Value::Int(20)],
                        vec![Value::Int(100), Value::Int(200)],
                    ],
                },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp[1..],
            [
                Response::Loaded,
                Response::BatchReply {
                    values: vec![Value::Int(3), Value::Int(30), Value::Int(300)],
                    error: None,
                }
            ]
        );
    }

    #[test]
    fn batch_stops_at_first_failing_row() {
        // Row 1's Null argument makes `add` fail; rows before it complete.
        let rsp = script(
            &[
                Request::LoadNative { name: "add".into() },
                Request::InvokeBatch {
                    rows: vec![
                        vec![Value::Int(1), Value::Int(2)],
                        vec![Value::Null, Value::Int(20)],
                        vec![Value::Int(100), Value::Int(200)],
                    ],
                },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        let Response::BatchReply { values, error } = &rsp[2] else {
            panic!("expected BatchReply, got {:?}", rsp[2]);
        };
        assert_eq!(values, &[Value::Int(3)]);
        assert!(error.is_some());
    }

    #[test]
    fn batch_callbacks_interleave() {
        let rsp = script(
            &[
                Request::LoadNative {
                    name: "echo_callback".into(),
                },
                Request::InvokeBatch {
                    rows: vec![vec![Value::Int(1)], vec![Value::Int(2)]],
                },
                // Consumed inside the batch, one per row.
                Request::CallbackResult {
                    value: Value::Int(11),
                },
                Request::CallbackResult {
                    value: Value::Int(22),
                },
                Request::Shutdown,
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp[1..],
            [
                Response::Loaded,
                Response::CallbackRequest {
                    name: "lookup".into(),
                    args: vec![Value::Int(1)],
                },
                Response::CallbackRequest {
                    name: "lookup".into(),
                    args: vec![Value::Int(2)],
                },
                Response::BatchReply {
                    values: vec![Value::Int(11), Value::Int(22)],
                    error: None,
                }
            ]
        );
    }

    #[test]
    fn batch_before_load_is_error_reply() {
        let rsp = script(
            &[Request::InvokeBatch {
                rows: vec![vec![Value::Int(1)]],
            }],
            &demo_registry(),
        );
        let Response::BatchReply { values, error } = &rsp[1] else {
            panic!("expected BatchReply, got {:?}", rsp[1]);
        };
        assert!(values.is_empty());
        assert!(error.as_deref().unwrap().contains("invoke before load"));
    }

    #[test]
    fn batch_vm_module_amortizes_entry() {
        let _serial = vm_serial();
        let src = "module m\nfunc main(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";
        let module = jaguar_vm::asm::assemble(src).unwrap();
        let rsp = script(
            &[
                Request::LoadVm {
                    module: module.to_bytes(),
                    function: "main".into(),
                    jit: true,
                    fuel: 0,
                    memory: 0,
                },
                Request::InvokeBatch {
                    rows: (0..5).map(|i| vec![Value::Int(i)]).collect(),
                },
                Request::Shutdown,
            ],
            &WorkerRegistry::new(),
        );
        assert_eq!(
            rsp[2],
            Response::BatchReply {
                values: (0..5).map(|i| Value::Int(i * 2)).collect(),
                error: None,
            }
        );
    }

    #[test]
    fn first_invoke_runs_compiled_and_reload_reuses_the_module() {
        let _serial = vm_serial();
        let src = "module m\nfunc main(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";
        let bytes = jaguar_vm::asm::assemble(src).unwrap().to_bytes();
        let load = Request::LoadVm {
            module: bytes.clone(),
            function: "main".into(),
            jit: true,
            fuel: 0,
            memory: 0,
        };
        let before = jaguar_common::obs::global()
            .snapshot()
            .counter("vm.tier.compiled_hits");
        let rsp = script(
            &[
                load.clone(),
                Request::Invoke {
                    args: vec![Value::Int(1)],
                },
                Request::Reset,
                load,
                Request::Invoke {
                    args: vec![Value::Int(2)],
                },
                Request::Shutdown,
            ],
            &WorkerRegistry::new(),
        );
        assert_eq!(
            rsp[2],
            Response::InvokeResult {
                value: Value::Int(2)
            }
        );
        assert_eq!(
            rsp[5],
            Response::InvokeResult {
                value: Value::Int(4)
            }
        );
        let after = jaguar_common::obs::global()
            .snapshot()
            .counter("vm.tier.compiled_hits");
        assert_eq!(
            after - before,
            2,
            "the first Invoke after each LoadVm runs compiled"
        );

        // An identical LoadVm after a Reset reuses the verified module.
        let mut cache = None;
        let first = verified(&mut cache, bytes.clone()).unwrap();
        let again = verified(&mut cache, bytes).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn eof_terminates_cleanly() {
        let rsp = script(&[], &demo_registry());
        assert_eq!(
            rsp,
            vec![Response::Ready {
                proto: PROTO_VERSION
            }]
        );
    }
}

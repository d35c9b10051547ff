//! The worker side of isolated UDF execution.
//!
//! A worker process runs [`serve`] over its stdin/stdout, both its half of
//! a socket pair. The parent loads exactly one UDF into it (native, from the
//! registry baked into the worker binary; or a sandboxed VM module shipped
//! over the socket) and then invokes
//! it one batch of rows at a time (a per-tuple call is a batch of one). A
//! UDF's callbacks are proxied back to the parent as `CallbackRequest`
//! messages.
//!
//! The worker is deliberately *crashable*: a native UDF that panics takes
//! the worker process down, not the server — which is the entire point of
//! Design 2. [`serve`] catches nothing.

use std::io::Write;
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::polled::{Pollable, Polled};
use jaguar_common::Value;
use jaguar_vm::interp::{ExecMode, HostEnv, Interpreter, VmValue};
use jaguar_vm::{Arena, Module, ResourceLimits, TierTally, VerifiedModule};

use crate::proto::{Arg, BatchFrame, CallbackHandler, Outbox, Request, Response, PROTO_VERSION};

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
    /// A sandboxed module, with the arena and argument vector its rows
    /// reuse: made at load under that load's limits, so a Reset or a
    /// reload always starts a fresh arena.
    Vm {
        interp: Interpreter,
        function: String,
        arena: Arena,
        vm_args: Vec<VmValue>,
    },
}

/// Proxies a UDF's callbacks over the socket to the parent and waits for
/// the answer — one full round trip per callback, which is precisely the
/// cost Figure 8 shows dominating IC++.
struct WireCallbacks<'a, R, W> {
    input: &'a mut Polled<R>,
    output: &'a mut Outbox<W>,
}

impl<R: Pollable, W: Write> CallbackHandler for WireCallbacks<'_, R, W> {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        let request = Response::CallbackRequest {
            name: name.to_string(),
            args: args.to_vec(),
        };
        self.output.send(|frame| request.write(frame))?;
        // Only a CallbackResult is expected: a batch frame here is decoded
        // into a scratch frame, to keep the stream in step, and refused.
        let reply = self
            .input
            .read(|r| Request::read(r, &mut BatchFrame::default()));
        match reply? {
            Request::CallbackResult { value } => Ok(value),
            other => Err(JaguarError::Protocol(format!(
                "expected CallbackResult, got {other:?}"
            ))),
        }
    }
}

/// Adapts the wire callback channel into a VM [`HostEnv`] for Design 4:
/// host calls from sandboxed code become callback round trips.
struct VmWireHost<'a, R, W> {
    cb: WireCallbacks<'a, R, W>,
}

impl<R: Pollable, W: Write> HostEnv for VmWireHost<'_, R, W> {
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
/// `registry` holds the native UDFs this worker offers. Pass the raw halves
/// of the socket (or in-memory streams in tests): every request is polled
/// for before it is blocked on, and every response leaves in one write.
pub fn serve<R: Pollable, W: Write>(input: R, output: W, registry: &WorkerRegistry) -> Result<()> {
    // A worker exports no metrics: its polls count nowhere.
    let mut input = Polled::new(input, Arc::default());
    let mut output = Outbox::new(output);
    let mut loaded = Loaded::Nothing;
    let mut module_cache: ModuleCache = None;
    let mut frame = BatchFrame::default();
    let ready = Response::Ready {
        proto: PROTO_VERSION,
    };
    output.send(|bytes| ready.write(bytes))?;

    loop {
        let req = match input.read(|r| Request::read(r, &mut frame)) {
            Ok(r) => r,
            // Parent hung up (end of query / parent died): exit quietly.
            Err(JaguarError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Ok(())
            }
            Err(e) => return Err(e),
        };
        let response = match req {
            Request::Shutdown => return Ok(()),
            Request::Reset => {
                // Back to the just-started state: pooled reuse must not leak
                // one query's UDF (or its interpreter state) into the next.
                loaded = Loaded::Nothing;
                Response::ResetOk
            }
            Request::LoadNative { name } => match registry.get(&name) {
                Some(f) => {
                    loaded = Loaded::Native(f);
                    Response::Loaded
                }
                None => Response::Error {
                    message: format!(
                        "worker has no native udf '{name}' (available: {:?})",
                        registry.names()
                    ),
                },
            },
            Request::LoadVm {
                module,
                function,
                jit,
                fuel,
                memory,
                max_call_depth,
            } => match verified(&mut module_cache, module) {
                Ok(verified) => {
                    let limits = ResourceLimits {
                        fuel: if fuel == 0 { None } else { Some(fuel) },
                        memory: if memory == 0 {
                            None
                        } else {
                            Some(memory as usize)
                        },
                        max_call_depth: max_call_depth.try_into().unwrap_or(usize::MAX),
                    };
                    let mode = if jit {
                        ExecMode::Jit
                    } else {
                        ExecMode::Baseline
                    };
                    loaded = Loaded::Vm {
                        interp: Interpreter::new(verified, limits, mode),
                        function,
                        arena: Arena::new(limits.memory),
                        vm_args: Vec::new(),
                    };
                    Response::Loaded
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
            Request::CallbackResult { .. } => Response::Error {
                message: "unexpected CallbackResult outside an invocation".into(),
            },
            Request::InvokeBatch => {
                let (values, error) =
                    invoke_loaded_batch(&mut loaded, &frame, &mut input, &mut output);
                // Fault site: die after doing the work but before the
                // reply — the parent sees EOF mid-protocol and must
                // contain it as a worker failure, not corrupt state. One
                // per batch, since the batch is one crossing.
                if jaguar_common::fault::should_fail("ipc.worker.drop_mid_reply") {
                    std::process::abort();
                }
                Response::BatchReply { values, error }
            }
        };
        output.send(|bytes| response.write(bytes))?;
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

/// Run the loaded UDF once per row of `frame`, inside the worker — the
/// whole point of the vectorized ABI: the parent paid one socket crossing
/// for all of these rows. Stops at the first failing row; the reply
/// carries the completed prefix, and the error's row index is the prefix
/// length.
///
/// A native UDF gets each row as `Value`s built from the frame. A VM row
/// reuses the load's arena and argument vector, and a byte argument goes
/// from the frame into the arena in one copy; the function is resolved and
/// the tier counters published once per batch.
fn invoke_loaded_batch<R: Pollable, W: Write>(
    loaded: &mut Loaded,
    frame: &BatchFrame,
    input: &mut Polled<R>,
    output: &mut Outbox<W>,
) -> (Vec<Value>, Option<String>) {
    let mut values = Vec::with_capacity(frame.rows().len());
    let outcome = match loaded {
        Loaded::Nothing => Err(JaguarError::Worker("invoke before load".into())),
        Loaded::Native(f) => {
            let mut cb = WireCallbacks { input, output };
            let mut args = Vec::new();
            frame.rows().try_for_each(|row| {
                args.clear();
                args.extend(row.iter().map(|a| frame.value(a)));
                values.push(f(&args, &mut cb)?);
                Ok(())
            })
        }
        Loaded::Vm {
            interp,
            function,
            arena,
            vm_args,
        } => interp.resolve(function).and_then(|fidx| {
            let mut host = VmWireHost {
                cb: WireCallbacks { input, output },
            };
            let mut tally = TierTally::default();
            frame.rows().try_for_each(|row| {
                arena.reset();
                vm_args.clear();
                for a in row {
                    vm_args.push(match a {
                        Arg::Int(v) => VmValue::I64(*v),
                        Arg::Float(v) => VmValue::F64(*v),
                        Arg::Bytes(r) => VmValue::Bytes(arena.alloc_from(frame.body(r))?),
                        other => {
                            let other = frame.value(other);
                            let e = format!("unsupported VM argument type: {other}");
                            return Err(JaguarError::Udf(e));
                        }
                    });
                }
                let (ret, _usage) =
                    interp.invoke_tallied(fidx, function, vm_args, arena, &mut host, &mut tally)?;
                values.push(match ret {
                    None => Value::Null,
                    Some(VmValue::I64(v)) => Value::Int(v),
                    Some(VmValue::F64(v)) => Value::Float(v),
                    Some(VmValue::Bytes(r)) => Value::Bytes(arena.get(r)?.into()),
                });
                Ok(())
            })
        }),
    };
    (values, outcome.err().map(|e| e.to_string()))
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

    /// The bytes of one request.
    fn req(request: Request) -> Vec<u8> {
        let mut buf = Vec::new();
        request.write(&mut buf).unwrap();
        buf
    }

    /// The bytes of one batch frame over `rows`.
    fn batch(rows: &[Vec<Value>]) -> Vec<u8> {
        let arity = rows.first().map_or(0, Vec::len);
        let mut buf = Vec::new();
        crate::proto::write_batch(&mut buf, rows.len(), arity, |i, a| &rows[i][a]).unwrap();
        buf
    }

    /// A batch reply.
    fn reply(values: Vec<Value>, error: Option<&str>) -> Response {
        Response::BatchReply {
            values,
            error: error.map(String::from),
        }
    }

    /// Drive the serve loop over in-memory buffers: write a scripted set of
    /// messages, collect all responses.
    fn script(messages: &[Vec<u8>], registry: &WorkerRegistry) -> Vec<Response> {
        let mut out = Vec::new();
        serve(Cursor::new(messages.concat()), &mut out, registry).unwrap();
        let mut rsp = Vec::new();
        let mut r = out.as_slice();
        while !r.is_empty() {
            rsp.push(Response::read(&mut r, crate::proto::MAX_BATCH_ROWS as usize).unwrap());
        }
        rsp
    }

    #[test]
    fn load_and_invoke_native() {
        let rsp = script(
            &[
                req(Request::LoadNative { name: "add".into() }),
                batch(&[vec![Value::Int(20), Value::Int(22)]]),
                req(Request::Shutdown),
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
                reply(vec![Value::Int(42)], None),
            ]
        );
    }

    #[test]
    fn unknown_native_is_error_response() {
        let rsp = script(
            &[req(Request::LoadNative {
                name: "missing".into(),
            })],
            &demo_registry(),
        );
        assert!(matches!(rsp[1], Response::Error { .. }));
    }

    #[test]
    fn invoke_before_load_is_error_response() {
        let rsp = script(&[batch(&[vec![]])], &demo_registry());
        let message = JaguarError::Worker("invoke before load".into()).to_string();
        assert_eq!(rsp[1], reply(vec![], Some(&message)));
    }

    #[test]
    fn callback_round_trip() {
        // The scripted input answers the callback inline.
        let rsp = script(
            &[
                req(Request::LoadNative {
                    name: "echo_callback".into(),
                }),
                batch(&[vec![Value::Int(7)]]),
                // This CallbackResult is consumed *inside* the invoke.
                req(Request::CallbackResult {
                    value: Value::Int(77),
                }),
                req(Request::Shutdown),
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
                reply(vec![Value::Int(77)], None),
            ]
        );
    }

    fn load_vm(src: &str, fuel: u64, memory: u64) -> Vec<u8> {
        req(Request::LoadVm {
            module: jaguar_vm::asm::assemble(src).unwrap().to_bytes(),
            function: "main".into(),
            jit: true,
            fuel,
            memory,
            max_call_depth: 256,
        })
    }

    const DOUBLE: &str =
        "module m\nfunc main(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";

    #[test]
    fn vm_module_loads_and_runs() {
        let _serial = vm_serial();
        let rsp = script(
            &[
                load_vm(DOUBLE, 0, 0),
                batch(&[vec![Value::Int(21)]]),
                req(Request::Shutdown),
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
                reply(vec![Value::Int(42)], None),
            ]
        );
    }

    #[test]
    fn malformed_vm_module_rejected() {
        let rsp = script(
            &[req(Request::LoadVm {
                module: b"garbage".to_vec(),
                function: "main".into(),
                jit: true,
                fuel: 0,
                memory: 0,
                max_call_depth: 256,
            })],
            &WorkerRegistry::new(),
        );
        assert!(matches!(rsp[1], Response::Error { .. }));
    }

    #[test]
    fn vm_fuel_limit_enforced_in_worker() {
        let _serial = vm_serial();
        let src = "module m\nfunc main() -> i64\nspin:\n  jmp spin\n  consti 0\n  ret\nend\n";
        let rsp = script(
            &[
                load_vm(src, 1000, 0),
                batch(&[vec![]]),
                req(Request::Shutdown),
            ],
            &WorkerRegistry::new(),
        );
        let Response::BatchReply {
            values,
            error: Some(message),
        } = &rsp[2]
        else {
            panic!("expected a failed row, got {:?}", rsp[2]);
        };
        assert!(values.is_empty());
        assert!(message.contains("fuel"), "{message}");
    }

    /// The arena a batch runs in belongs to the load: after a Reset, a
    /// reload of the same module runs under the new load's memory limit,
    /// not the one the worker's first load set.
    #[test]
    fn reload_runs_under_the_new_loads_limits() {
        let _serial = vm_serial();
        // main(n) allocates an n-byte array and returns its length.
        let src = "module m\nfunc main(i64) -> i64\n  load 0\n  newarr\n  alen\n  ret\nend\n";
        let rows = vec![vec![Value::Int(64 << 10)]; 4];
        let rsp = script(
            &[
                load_vm(src, 0, 1 << 20),
                batch(&rows),
                req(Request::Reset),
                load_vm(src, 0, 16 << 10),
                batch(&rows),
                req(Request::Shutdown),
            ],
            &WorkerRegistry::new(),
        );
        assert_eq!(rsp[2], reply(vec![Value::Int(64 << 10); 4], None));
        assert_eq!(rsp[3], Response::ResetOk);
        let Response::BatchReply {
            values,
            error: Some(message),
        } = &rsp[5]
        else {
            panic!("expected row 0 to fail, got {:?}", rsp[5]);
        };
        assert!(values.is_empty(), "row 0 fails");
        let limit = JaguarError::ResourceLimit("memory: 65536 bytes requested, limit 16384".into());
        assert_eq!(message, &limit.to_string());
    }

    #[test]
    fn retired_ping_tag_is_refused() {
        // Protocol v7's `Ping` (tag 0x06): the worker answers nothing and
        // stops serving with a protocol error.
        let mut out = Vec::new();
        let err = serve(Cursor::new(vec![0x06u8]), &mut out, &demo_registry()).unwrap_err();
        assert!(err.to_string().contains("unknown request tag"), "{err}");
        let ready = Response::read(&mut out.as_slice(), 0).unwrap();
        assert_eq!(
            ready,
            Response::Ready {
                proto: PROTO_VERSION
            }
        );
        assert_eq!(out.len(), 5, "nothing after Ready");
    }

    #[test]
    fn reset_drops_loaded_state() {
        let rsp = script(
            &[
                req(Request::LoadNative { name: "add".into() }),
                batch(&[vec![Value::Int(20), Value::Int(22)]]),
                req(Request::Reset),
                // After a reset the worker must behave exactly like a fresh
                // one: invoking without a load is an error.
                batch(&[vec![]]),
                req(Request::Shutdown),
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
        assert_eq!(rsp[2], reply(vec![Value::Int(42)], None));
        assert_eq!(rsp[3], Response::ResetOk);
        let Response::BatchReply { error, .. } = &rsp[4] else {
            panic!("expected BatchReply, got {:?}", rsp[4]);
        };
        assert!(error.as_deref().unwrap().contains("invoke before load"));
    }

    #[test]
    fn batch_invoke_native() {
        let rsp = script(
            &[
                req(Request::LoadNative { name: "add".into() }),
                batch(&[
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Int(10), Value::Int(20)],
                    vec![Value::Int(100), Value::Int(200)],
                ]),
                req(Request::Shutdown),
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp[1..],
            [
                Response::Loaded,
                reply(vec![Value::Int(3), Value::Int(30), Value::Int(300)], None),
            ]
        );
    }

    #[test]
    fn batch_stops_at_first_failing_row() {
        // Row 1's Null argument makes `add` fail; rows before it complete.
        let rsp = script(
            &[
                req(Request::LoadNative { name: "add".into() }),
                batch(&[
                    vec![Value::Int(1), Value::Int(2)],
                    vec![Value::Null, Value::Int(20)],
                    vec![Value::Int(100), Value::Int(200)],
                ]),
                req(Request::Shutdown),
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
                req(Request::LoadNative {
                    name: "echo_callback".into(),
                }),
                batch(&[vec![Value::Int(1)], vec![Value::Int(2)]]),
                // Consumed inside the batch, one per row.
                req(Request::CallbackResult {
                    value: Value::Int(11),
                }),
                req(Request::CallbackResult {
                    value: Value::Int(22),
                }),
                req(Request::Shutdown),
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
                reply(vec![Value::Int(11), Value::Int(22)], None),
            ]
        );
    }

    #[test]
    fn batch_before_load_is_error_reply() {
        let rsp = script(
            &[batch(&[vec![Value::Int(1)], vec![Value::Int(2)]])],
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
        let rows: Vec<_> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        let rsp = script(
            &[load_vm(DOUBLE, 0, 0), batch(&rows), req(Request::Shutdown)],
            &WorkerRegistry::new(),
        );
        assert_eq!(
            rsp[2],
            reply((0..5).map(|i| Value::Int(i * 2)).collect(), None)
        );
    }

    #[test]
    fn first_invoke_runs_compiled_and_reload_reuses_the_module() {
        let _serial = vm_serial();
        let before = jaguar_common::obs::global()
            .snapshot()
            .counter("vm.tier.compiled_hits");
        let rsp = script(
            &[
                load_vm(DOUBLE, 0, 0),
                batch(&[vec![Value::Int(1)]]),
                req(Request::Reset),
                load_vm(DOUBLE, 0, 0),
                batch(&[vec![Value::Int(2)]]),
                req(Request::Shutdown),
            ],
            &WorkerRegistry::new(),
        );
        assert_eq!(rsp[2], reply(vec![Value::Int(2)], None));
        assert_eq!(rsp[5], reply(vec![Value::Int(4)], None));
        let after = jaguar_common::obs::global()
            .snapshot()
            .counter("vm.tier.compiled_hits");
        assert_eq!(
            after - before,
            2,
            "the first invocation after each LoadVm runs compiled"
        );

        // An identical LoadVm after a Reset reuses the verified module.
        let bytes = jaguar_vm::asm::assemble(DOUBLE).unwrap().to_bytes();
        let mut cache = None;
        let first = verified(&mut cache, bytes.clone()).unwrap();
        let again = verified(&mut cache, bytes).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
    }

    /// Counts the `write` calls made on it.
    #[derive(Default)]
    struct Writes {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every response leaves in one `write` call: the reply and the
    /// callback request here carry `0x0A` bytes, where a line-buffered
    /// stdout would split them.
    #[test]
    fn every_response_leaves_in_one_write() {
        let input = [
            req(Request::LoadNative { name: "add".into() }),
            batch(&vec![vec![Value::Int(4), Value::Int(6)]; 300]),
            req(Request::Reset),
            req(Request::LoadNative {
                name: "echo_callback".into(),
            }),
            batch(&[vec![Value::Int(10)]]),
            req(Request::CallbackResult {
                value: Value::Int(10),
            }),
            req(Request::LoadNative {
                name: "missing".into(),
            }),
        ];
        let mut out = Writes::default();
        serve(Cursor::new(input.concat()), &mut out, &demo_registry()).unwrap();
        let mut r = out.bytes.as_slice();
        let mut responses = 0;
        while !r.is_empty() {
            Response::read(&mut r, crate::proto::MAX_BATCH_ROWS as usize).unwrap();
            responses += 1;
        }
        // Ready, Loaded, the 300-row reply, ResetOk, Loaded, the callback
        // request, its batch's reply, and the unknown UDF's Error.
        assert_eq!(responses, 8);
        assert_eq!(out.calls, responses);
        assert!(out.bytes.contains(&0x0A));
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

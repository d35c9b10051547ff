//! The worker side of isolated UDF execution: the serve loop the
//! `jaguar-worker` binary runs. A worker hosts one UDF at a time, decoded
//! from the definition a `Load` request carries ([`UdfDef::load_body`]),
//! as the server hosts one placed there (`UdfDef::host`): a native body
//! as a [`NativeUdf`], a bytecode body as a [`VmUdf`] under the spec's
//! limits and permissions. Callbacks go to the parent as
//! `CallbackRequest`s, and a row's error goes back as itself.
//!
//! The worker is deliberately *crashable*: a native UDF that panics takes
//! the worker process down, not the server — which is the entire point of
//! Design 2. [`serve`] catches nothing.

use std::io::Write;
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::polled::{Outbox, Pollable, Polled};
use jaguar_common::{DataType, Value};
use jaguar_ipc::proto::{BatchFrame, CallbackHandler, Request, Response, PROTO_VERSION};
use jaguar_vm::VmValue;

use crate::api::ScalarUdf;
use crate::def::{ModuleCache, UdfDef};
use crate::native::NativeUdf;
use crate::vmexec::{value_to_vm, VmUdf};

/// A native UDF compiled into a worker binary.
pub type WorkerFn = fn(&[Value], &mut dyn CallbackHandler) -> Result<Value>;

/// The native UDFs compiled into a worker binary, by name.
pub type WorkerRegistry = fn(&str) -> Option<WorkerFn>;

/// A UDF's body in this process, as Design 1 or 3 ([`UdfDef::host`]).
pub(crate) enum Hosted {
    Native(NativeUdf),
    Vm(Box<VmUdf>),
}

/// Proxies a UDF's callbacks over the socket to the parent and waits for
/// the answer — one full round trip per callback, which is precisely the
/// cost Figure 8 shows dominating IC++.
struct WireCallbacks<'a, R, W> {
    input: &'a mut Polled<R>,
    output: &'a mut Outbox<W>,
    /// Each answer's frame: the batch's still holds the running rows.
    answer: &'a mut BatchFrame,
}

impl<R: Pollable, W: Write> CallbackHandler for WireCallbacks<'_, R, W> {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        (self.output).send(|frame| Response::write_callback_request(frame, name, args))?;
        // Only a CallbackResult is expected.
        match Request::read(self.input, self.answer)? {
            Request::CallbackResult { result } => result,
            other => Err(JaguarError::Protocol(format!(
                "expected CallbackResult, got {other:?}"
            ))),
        }
    }
}

/// Run the worker protocol until `Shutdown` or EOF.
///
/// `registry` holds the native UDFs this worker offers. Pass the raw halves
/// of the socket (or in-memory streams in tests): every request is polled
/// for before it is blocked on, and every message is one frame.
pub fn serve<R: Pollable, W: Write>(input: R, output: W, registry: &WorkerRegistry) -> Result<()> {
    // A worker exports no metrics: its polls count nowhere.
    let mut input = Polled::new(input, Arc::default());
    let mut output = Outbox::new(output);
    let mut hosted = None;
    let mut cache: ModuleCache = None;
    let mut frame = BatchFrame::default();
    let mut answer = BatchFrame::default();
    let mut args = Vec::new();
    let ready = Response::Ready {
        proto: PROTO_VERSION,
    };
    output.send(|bytes| ready.write(bytes))?;

    loop {
        let req = match Request::read(&mut input, &mut frame) {
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
                hosted = None;
                Response::ResetOk
            }
            Request::Load { definition } => {
                let loaded = UdfDef::from_load_body(&definition, &mut cache)
                    .and_then(|def| def.host(registry));
                match loaded.map(|udf| hosted = Some(udf)) {
                    Ok(()) => Response::Loaded,
                    Err(error) => Response::Error { error },
                }
            }
            Request::CallbackResult { .. } => Response::Error {
                error: JaguarError::Worker("CallbackResult outside an invocation".into()),
            },
            Request::InvokeBatch => {
                let mut cb = WireCallbacks {
                    input: &mut input,
                    output: &mut output,
                    answer: &mut answer,
                };
                let (values, error) = run_batch(hosted.as_mut(), &frame, &mut args, &mut cb);
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

/// Run the hosted UDF once per row of `frame`, inside the worker — the
/// whole point of the vectorized ABI: the parent paid one socket crossing
/// for all of these rows. Stops at the first failing row; the reply
/// carries the completed prefix, and the error's row index is the prefix
/// length.
///
/// A native UDF gets each row as `Value`s built from the frame, in `args`.
/// A VM UDF takes a byte argument from the frame into its arena in one
/// copy, and every other argument as Design 3 does ([`value_to_vm`]).
fn run_batch(
    hosted: Option<&mut Hosted>,
    frame: &BatchFrame,
    args: &mut Vec<Value>,
    cb: &mut dyn CallbackHandler,
) -> (Vec<Value>, Option<JaguarError>) {
    let mut values = Vec::with_capacity(frame.rows().len());
    let Some(udf) = hosted else {
        let error = JaguarError::Worker("invoke before load".into());
        return (values, Some(error));
    };
    let outcome = frame.rows().try_for_each(|row| {
        values.push(match udf {
            Hosted::Native(udf) => {
                args.clear();
                args.extend(row.iter().map(|a| frame.value(a)));
                udf.invoke(args, cb)?
            }
            Hosted::Vm(udf) => udf.call_marshalled(
                row.len(),
                |a| row[a].ty,
                |a, arena| match row[a].ty {
                    Some(DataType::Bytes) => {
                        Ok(VmValue::Bytes(arena.alloc_from(frame.body(&row[a]))?))
                    }
                    _ => value_to_vm(&frame.value(&row[a]), arena),
                },
                cb,
            )?,
        });
        Ok(())
    });
    (values, outcome.err())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    use jaguar_common::DataType;
    use jaguar_vm::ResourceLimits;

    use crate::api::UdfSignature;
    use crate::def::{verified, vm_spec, Placement, UdfImpl, VmUdfSpec};

    fn demo_registry() -> WorkerRegistry {
        |name| {
            let f: WorkerFn = match name {
                "add" => |args, _| Ok(Value::Int(args[0].as_int()? + args[1].as_int()?)),
                "echo_callback" => |args, cb| cb.callback("lookup", args),
                _ => return None,
            };
            Some(f)
        }
    }

    /// A registry of no native UDFs.
    const NO_NATIVE: WorkerRegistry = |_| None;

    /// The tier counters are process-wide: every test here that runs VM
    /// code holds this guard, so the one that counts compiled calls sees
    /// only its own.
    fn vm_serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The frame of one message whose body `encode` writes.
    fn framed(encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Vec<u8> {
        let mut out = Outbox::new(Vec::new());
        out.send(encode).unwrap();
        std::mem::take(out.get_mut())
    }

    /// The frame of one request.
    fn req(request: Request) -> Vec<u8> {
        framed(|b| request.write(b))
    }

    /// Every response framed in `out`, in order.
    fn responses(out: Vec<u8>) -> Vec<Response> {
        let mut input = Polled::new(Cursor::new(out), Arc::default());
        let most = jaguar_ipc::proto::MAX_BATCH_ROWS as usize;
        let mut rsp = Vec::new();
        loop {
            match input.read(|r| Response::read(r, most)) {
                Ok(r) => rsp.push(r),
                Err(JaguarError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return rsp
                }
                Err(e) => panic!("{e}"),
            }
        }
    }

    /// The bytes of the load of `def`.
    fn load(def: UdfDef) -> Vec<u8> {
        let definition = def.load_body().unwrap();
        req(Request::Load { definition })
    }

    /// The load of the registry's `name`, over `arity` INT arguments.
    fn native(name: &str, arity: usize) -> Vec<u8> {
        let sig = UdfSignature::new(vec![DataType::Int; arity], DataType::Int);
        load(UdfDef::new(
            name,
            sig,
            UdfImpl::registered(name, Placement::Worker),
        ))
    }

    /// The load of `spec`'s `main`, over `arity` INT arguments.
    fn vm_def(spec: VmUdfSpec, arity: usize) -> Vec<u8> {
        let sig = UdfSignature::new(vec![DataType::Int; arity], DataType::Int);
        load(UdfDef::new(
            "m",
            sig,
            UdfImpl::bytecode(spec, Placement::Worker),
        ))
    }

    /// The load of the assembled `src`, under `fuel` and `memory` and a
    /// call depth of 256.
    fn vm(src: &str, arity: usize, fuel: Option<u64>, memory: Option<usize>) -> Vec<u8> {
        let limits = ResourceLimits {
            fuel,
            memory,
            max_call_depth: 256,
        };
        let module = jaguar_vm::asm::assemble(src).unwrap();
        vm_def(vm_spec(module, "main", limits, true, None).unwrap(), arity)
    }

    /// The frame of one batch over `rows`.
    fn batch(rows: &[Vec<Value>]) -> Vec<u8> {
        let arity = rows.first().map_or(0, Vec::len);
        framed(|b| jaguar_ipc::proto::write_batch(b, rows.len(), arity, |i, a| &rows[i][a]))
    }

    /// A batch reply.
    fn reply(values: Vec<Value>, error: Option<JaguarError>) -> Response {
        Response::BatchReply { values, error }
    }

    fn ready() -> Response {
        Response::Ready {
            proto: PROTO_VERSION,
        }
    }

    /// Drive the serve loop over in-memory buffers: write a scripted set of
    /// messages, collect all responses.
    fn script(messages: &[Vec<u8>], registry: &WorkerRegistry) -> Vec<Response> {
        let mut out = Vec::new();
        serve(Cursor::new(messages.concat()), &mut out, registry).unwrap();
        responses(out)
    }

    #[test]
    fn load_and_invoke_native() {
        let rsp = script(
            &[
                native("add", 2),
                batch(&[vec![Value::Int(20), Value::Int(22)]]),
                req(Request::Shutdown),
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp,
            vec![ready(), Response::Loaded, reply(vec![Value::Int(42)], None)]
        );
    }

    #[test]
    fn unknown_native_is_error_response() {
        let rsp = script(&[native("missing", 0)], &demo_registry());
        let Response::Error { error } = &rsp[1] else {
            panic!("expected an error, got {:?}", rsp[1]);
        };
        assert!(matches!(error, JaguarError::Worker(_)), "{error}");
        assert!(
            error.to_string().contains("no native udf 'missing'"),
            "{error}"
        );
    }

    #[test]
    fn invoke_before_load_is_error_response() {
        let rsp = script(&[batch(&[vec![]])], &demo_registry());
        let error = JaguarError::Worker("invoke before load".into());
        assert_eq!(rsp[1], reply(vec![], Some(error)));
    }

    #[test]
    fn callback_round_trip() {
        // The scripted input answers the callback inline.
        let rsp = script(
            &[
                native("echo_callback", 1),
                batch(&[vec![Value::Int(7)]]),
                // This CallbackResult is consumed *inside* the invoke.
                req(Request::CallbackResult {
                    result: Ok(Value::Int(77)),
                }),
                req(Request::Shutdown),
            ],
            &demo_registry(),
        );
        assert_eq!(
            rsp,
            vec![
                ready(),
                Response::Loaded,
                Response::CallbackRequest {
                    name: "lookup".into(),
                    args: vec![Value::Int(7)],
                },
                reply(vec![Value::Int(77)], None),
            ]
        );
    }

    /// A callback the parent failed fails the host call that made it, and
    /// so its row, with the callback's own error.
    #[test]
    fn a_failed_callback_fails_its_row_with_its_error() {
        let failed = JaguarError::Udf("no such account".into());
        let rsp = script(
            &[
                native("echo_callback", 1),
                batch(&[vec![Value::Int(7)], vec![Value::Int(8)]]),
                req(Request::CallbackResult {
                    result: Ok(Value::Int(70)),
                }),
                req(Request::CallbackResult {
                    result: Err(JaguarError::Udf("no such account".into())),
                }),
                req(Request::Shutdown),
            ],
            &demo_registry(),
        );
        assert_eq!(rsp[4], reply(vec![Value::Int(70)], Some(failed)));
    }

    const DOUBLE: &str =
        "module m\nfunc main(i64) -> i64\n  load 0\n  consti 2\n  muli\n  ret\nend\n";

    #[test]
    fn vm_module_loads_and_runs() {
        let _serial = vm_serial();
        let rsp = script(
            &[
                vm(DOUBLE, 1, None, None),
                batch(&[vec![Value::Int(21)]]),
                req(Request::Shutdown),
            ],
            &NO_NATIVE,
        );
        assert_eq!(
            rsp,
            vec![ready(), Response::Loaded, reply(vec![Value::Int(42)], None)]
        );
    }

    #[test]
    fn malformed_vm_module_rejected() {
        let module = jaguar_vm::asm::assemble(DOUBLE).unwrap();
        let mut spec = vm_spec(module, "main", ResourceLimits::default(), true, None).unwrap();
        spec.module_bytes = Arc::new(b"garbage".to_vec());
        let rsp = script(&[vm_def(spec, 1)], &NO_NATIVE);
        assert!(matches!(rsp[1], Response::Error { .. }), "{:?}", rsp[1]);
    }

    #[test]
    fn vm_fuel_limit_enforced_in_worker() {
        let _serial = vm_serial();
        let src = "module m\nfunc main() -> i64\nspin:\n  jmp spin\n  consti 0\n  ret\nend\n";
        let rsp = script(
            &[
                vm(src, 0, Some(1000), None),
                batch(&[vec![]]),
                req(Request::Shutdown),
            ],
            &NO_NATIVE,
        );
        let Response::BatchReply {
            values,
            error: Some(error @ JaguarError::ResourceLimit(_)),
        } = &rsp[2]
        else {
            panic!("expected a row out of fuel, got {:?}", rsp[2]);
        };
        assert!(values.is_empty());
        assert!(error.to_string().contains("fuel"), "{error}");
    }

    /// The permission set crosses with the load: a host call it does not
    /// grant is refused in the worker as in process, and audited there.
    #[test]
    fn the_loads_permissions_gate_host_calls() {
        let _serial = vm_serial();
        let src = "module m\nimport cb(i64) -> i64\nfunc main(i64) -> i64\n  load 0\n  hostcall 0\n  ret\nend\n";
        let module = jaguar_vm::asm::assemble(src).unwrap();
        let deny = Arc::new(jaguar_vm::PermissionSet::deny_all("g"));
        let spec = vm_spec(module, "main", ResourceLimits::default(), true, Some(deny)).unwrap();
        let rsp = script(
            &[vm_def(spec, 1), batch(&[vec![Value::Int(1)]])],
            &NO_NATIVE,
        );
        let denied = JaguarError::SecurityViolation("udf 'g' denied: hostcall(cb)".into());
        assert_eq!(rsp[2], reply(vec![], Some(denied)));
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
                vm(src, 1, None, Some(1 << 20)),
                batch(&rows),
                req(Request::Reset),
                vm(src, 1, None, Some(16 << 10)),
                batch(&rows),
                req(Request::Shutdown),
            ],
            &NO_NATIVE,
        );
        assert_eq!(rsp[2], reply(vec![Value::Int(64 << 10); 4], None));
        assert_eq!(rsp[3], Response::ResetOk);
        let limit = JaguarError::ResourceLimit("memory: 65536 bytes requested, limit 16384".into());
        assert_eq!(rsp[5], reply(vec![], Some(limit)), "row 0 fails");
    }

    #[test]
    fn retired_ping_tag_is_refused() {
        // Protocol v7's `Ping` (tag 0x06): the worker answers nothing and
        // stops serving with a protocol error.
        let mut out = Vec::new();
        let ping = framed(|b| {
            b.push(0x06);
            Ok(())
        });
        let err = serve(Cursor::new(ping), &mut out, &demo_registry()).unwrap_err();
        assert!(err.to_string().contains("unknown request tag"), "{err}");
        assert_eq!(out.len(), 9, "nothing after Ready");
        assert_eq!(responses(out), [ready()]);
    }

    /// A request cut short at any byte is the parent hanging up, and one
    /// with a byte more than its decoder reads is refused: either way the
    /// worker answers nothing after Ready and runs no row.
    #[test]
    fn a_cut_or_padded_request_is_answered_with_nothing() {
        let frame = batch(&[vec![Value::Int(20), Value::Int(22)]]);
        let load = native("add", 2);
        for cut in 0..frame.len() {
            let input = [&load[..], &frame[..cut]].concat();
            let mut out = Vec::new();
            serve(Cursor::new(input), &mut out, &demo_registry()).unwrap();
            assert_eq!(responses(out), [ready(), Response::Loaded], "cut at {cut}");
        }
        let mut padded = frame.clone();
        padded[0] += 1;
        padded.push(0);
        let mut out = Vec::new();
        let input = Cursor::new([load, padded].concat());
        let err = serve(input, &mut out, &demo_registry()).unwrap_err();
        assert!(
            matches!(&err, JaguarError::Protocol(m) if m.contains("1 trailing")),
            "{err}"
        );
        assert_eq!(responses(out), [ready(), Response::Loaded]);
    }

    #[test]
    fn reset_drops_loaded_state() {
        let rsp = script(
            &[
                native("add", 2),
                batch(&[vec![Value::Int(20), Value::Int(22)]]),
                req(Request::Reset),
                // After a reset the worker must behave exactly like a fresh
                // one: invoking without a load is an error.
                batch(&[vec![]]),
                req(Request::Shutdown),
            ],
            &demo_registry(),
        );
        assert_eq!(rsp[0], ready());
        assert_eq!(rsp[1], Response::Loaded);
        assert_eq!(rsp[2], reply(vec![Value::Int(42)], None));
        assert_eq!(rsp[3], Response::ResetOk);
        let error = JaguarError::Worker("invoke before load".into());
        assert_eq!(rsp[4], reply(vec![], Some(error)));
    }

    #[test]
    fn batch_invoke_native() {
        let rsp = script(
            &[
                native("add", 2),
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
                native("add", 2),
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
                native("echo_callback", 1),
                batch(&[vec![Value::Int(1)], vec![Value::Int(2)]]),
                // Consumed inside the batch, one per row.
                req(Request::CallbackResult {
                    result: Ok(Value::Int(11)),
                }),
                req(Request::CallbackResult {
                    result: Ok(Value::Int(22)),
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
        let error = JaguarError::Worker("invoke before load".into());
        assert_eq!(rsp[1], reply(vec![], Some(error)));
    }

    #[test]
    fn batch_vm_module_amortizes_entry() {
        let _serial = vm_serial();
        let rows: Vec<_> = (0..5).map(|i| vec![Value::Int(i)]).collect();
        let rsp = script(
            &[
                vm(DOUBLE, 1, None, None),
                batch(&rows),
                req(Request::Shutdown),
            ],
            &NO_NATIVE,
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
                vm(DOUBLE, 1, None, None),
                batch(&[vec![Value::Int(1)]]),
                req(Request::Reset),
                vm(DOUBLE, 1, None, None),
                batch(&[vec![Value::Int(2)]]),
                req(Request::Shutdown),
            ],
            &NO_NATIVE,
        );
        assert_eq!(rsp[2], reply(vec![Value::Int(2)], None));
        assert_eq!(rsp[5], reply(vec![Value::Int(4)], None));
        let after = jaguar_common::obs::global()
            .snapshot()
            .counter("vm.tier.compiled_hits");
        assert_eq!(
            after - before,
            2,
            "the first invocation after each load runs compiled"
        );

        // An identical load after a Reset reuses the verified module.
        let bytes = jaguar_vm::asm::assemble(DOUBLE).unwrap().to_bytes();
        let mut cache = None;
        let first = verified(&mut cache, bytes.clone()).unwrap();
        let again = verified(&mut cache, bytes).unwrap();
        assert!(Arc::ptr_eq(&first.1, &again.1));
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
            native("add", 2),
            batch(&vec![vec![Value::Int(4), Value::Int(6)]; 300]),
            req(Request::Reset),
            native("echo_callback", 1),
            batch(&[vec![Value::Int(10)]]),
            req(Request::CallbackResult {
                result: Ok(Value::Int(10)),
            }),
            native("missing", 1),
        ];
        let mut out = Writes::default();
        serve(Cursor::new(input.concat()), &mut out, &demo_registry()).unwrap();
        assert!(out.bytes.contains(&0x0A));
        // Ready, Loaded, the 300-row reply, ResetOk, Loaded, the callback
        // request, its batch's reply, and the unknown UDF's Error.
        assert_eq!(responses(out.bytes).len(), 8);
        assert_eq!(out.calls, 8);
    }

    #[test]
    fn eof_terminates_cleanly() {
        let rsp = script(&[], &demo_registry());
        assert_eq!(rsp, vec![ready()]);
    }
}

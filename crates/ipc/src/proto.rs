//! The parent↔worker wire protocol.
//!
//! Every message is a tag byte followed by tag-specific fields encoded with
//! the `jaguar-common` stream primitives. The protocol is strictly
//! request/response from the parent's point of view, with one twist: while
//! an `Invoke` is outstanding, the worker may interleave any number of
//! `CallbackRequest`s (the §4.2 callback channel), each of which the parent
//! answers with `CallbackResult` before the final `InvokeResult` arrives.

use std::io::{Read, Write};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::stream::{
    read_blob, read_str, read_u32, read_u64, read_u8, read_value, write_blob, write_str, write_u32,
    write_u64, write_u8, write_value,
};
use jaguar_common::Value;

/// Answers callbacks a UDF makes to the database server.
///
/// On the server side this is implemented by the query executor (it can
/// reach the storage engine); inside the worker it is implemented by a
/// proxy that forwards the request over the pipe.
pub trait CallbackHandler {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value>;
}

/// A [`CallbackHandler`] that rejects all callbacks.
pub struct NoCallbacks;

impl CallbackHandler for NoCallbacks {
    fn callback(&mut self, name: &str, _args: &[Value]) -> Result<Value> {
        Err(JaguarError::Udf(format!(
            "udf issued callback '{name}' but no callback handler is configured"
        )))
    }
}

/// Messages the parent sends to the worker.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Select a native UDF from the worker's built-in registry (Design 2 —
    /// the analogue of the C++ UDF compiled into the remote executor).
    LoadNative { name: String },
    /// Ship a serialised JSM module to run under the worker's sandbox
    /// (Design 4). `fuel`/`memory` of 0 mean unlimited.
    LoadVm {
        module: Vec<u8>,
        function: String,
        jit: bool,
        fuel: u64,
        memory: u64,
    },
    /// Invoke the loaded UDF on one argument tuple.
    Invoke { args: Vec<Value> },
    /// Invoke the loaded UDF once per row of a batch, paying one pipe
    /// round-trip for the whole batch (the vectorized ABI). The worker
    /// stops at the first failing row and reports its index via
    /// [`Response::BatchReply`]; callbacks interleave exactly as they do
    /// for `Invoke`.
    InvokeBatch { rows: Vec<Vec<Value>> },
    /// Answer to an outstanding `CallbackRequest`.
    CallbackResult { value: Value },
    /// Orderly shutdown (end of query — executors live for one query).
    Shutdown,
    /// Liveness probe. A healthy idle worker answers `Pong` immediately;
    /// the pool supervisor uses this to detect wedged workers.
    Ping,
    /// Drop all loaded UDF state so the worker can serve a new query. The
    /// warm-pool reuse path sends this on check-in; the worker answers
    /// `ResetOk` once it is back to its just-started state.
    Reset,
}

/// Version of the parent↔worker protocol. Bumped on any change to the
/// message set or the UDF registry semantics; the parent refuses workers
/// announcing a different version (a stale `jaguar-worker` binary next to
/// a fresh server otherwise produces silent wrong answers).
pub const PROTO_VERSION: u32 = 6;

/// Most rows one `InvokeBatch` frame may carry. The engine never forms
/// batches above `jaguar_udf::batch::MAX_BATCH` (1024); the cap leaves headroom
/// for future growth while still bounding what a hostile peer can make us
/// buffer.
pub const MAX_BATCH_ROWS: u32 = 4096;

/// Messages the worker sends to the parent.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Worker has started and awaits requests; carries [`PROTO_VERSION`].
    Ready { proto: u32 },
    /// A `Load*` request succeeded.
    Loaded,
    /// The result of an `Invoke`.
    InvokeResult { value: Value },
    /// The result of an `InvokeBatch`: one value per completed row. When
    /// `error` is set, the failing row's index is `values.len()` (rows
    /// before it completed, with their side effects) and the message is a
    /// rendered `JaguarError`, exactly as `Error` would carry for the
    /// per-tuple path.
    BatchReply {
        values: Vec<Value>,
        error: Option<String>,
    },
    /// The UDF needs the server (§4.2 callback). Parent must reply with
    /// `Request::CallbackResult`.
    CallbackRequest { name: String, args: Vec<Value> },
    /// Anything failed. The message is a rendered `JaguarError`.
    Error { message: String },
    /// Answer to `Request::Ping`: the worker is alive and responsive.
    Pong,
    /// Answer to `Request::Reset`: loaded UDF state has been dropped.
    ResetOk,
}

const REQ_LOAD_NATIVE: u8 = 0x01;
const REQ_LOAD_VM: u8 = 0x02;
const REQ_INVOKE: u8 = 0x03;
const REQ_CALLBACK_RESULT: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_PING: u8 = 0x06;
const REQ_RESET: u8 = 0x07;
const REQ_INVOKE_BATCH: u8 = 0x08;
const RSP_READY: u8 = 0x81;
const RSP_LOADED: u8 = 0x82;
const RSP_INVOKE_RESULT: u8 = 0x83;
const RSP_CALLBACK_REQUEST: u8 = 0x84;
const RSP_ERROR: u8 = 0x85;
const RSP_PONG: u8 = 0x86;
const RSP_RESET_OK: u8 = 0x87;
const RSP_BATCH_REPLY: u8 = 0x88;

fn write_values(w: &mut impl Write, vals: &[Value]) -> Result<()> {
    write_u32(w, vals.len() as u32)?;
    for v in vals {
        write_value(w, v)?;
    }
    Ok(())
}

fn read_values(r: &mut impl Read) -> Result<Vec<Value>> {
    let n = read_u32(r)?;
    if n > 65_535 {
        return Err(JaguarError::Protocol(format!("implausible arg count {n}")));
    }
    // The count prefix is untrusted (it crosses the process boundary from
    // a possibly-compromised worker): grow as values actually decode.
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(read_value(r)?);
    }
    Ok(out)
}

fn write_rows(w: &mut impl Write, rows: &[Vec<Value>]) -> Result<()> {
    write_u32(w, rows.len() as u32)?;
    for row in rows {
        write_values(w, row)?;
    }
    Ok(())
}

fn read_rows(r: &mut impl Read) -> Result<Vec<Vec<Value>>> {
    let n = read_u32(r)?;
    if n > MAX_BATCH_ROWS {
        return Err(JaguarError::Protocol(format!(
            "implausible batch row count {n}"
        )));
    }
    // Same discipline as `read_values`: the count prefix is untrusted, so
    // memory grows only as rows actually decode.
    let mut out = Vec::new();
    for _ in 0..n {
        out.push(read_values(r)?);
    }
    Ok(out)
}

impl Request {
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        match self {
            Request::LoadNative { name } => {
                write_u8(w, REQ_LOAD_NATIVE)?;
                write_str(w, name)?;
            }
            Request::LoadVm {
                module,
                function,
                jit,
                fuel,
                memory,
            } => {
                write_u8(w, REQ_LOAD_VM)?;
                write_blob(w, module)?;
                write_str(w, function)?;
                write_u8(w, *jit as u8)?;
                write_u64(w, *fuel)?;
                write_u64(w, *memory)?;
            }
            Request::Invoke { args } => {
                write_u8(w, REQ_INVOKE)?;
                write_values(w, args)?;
            }
            Request::InvokeBatch { rows } => {
                write_u8(w, REQ_INVOKE_BATCH)?;
                write_rows(w, rows)?;
            }
            Request::CallbackResult { value } => {
                write_u8(w, REQ_CALLBACK_RESULT)?;
                write_value(w, value)?;
            }
            Request::Shutdown => write_u8(w, REQ_SHUTDOWN)?,
            Request::Ping => write_u8(w, REQ_PING)?,
            Request::Reset => write_u8(w, REQ_RESET)?,
        }
        w.flush()?;
        Ok(())
    }

    pub fn read(r: &mut impl Read) -> Result<Request> {
        Ok(match read_u8(r)? {
            REQ_LOAD_NATIVE => Request::LoadNative { name: read_str(r)? },
            REQ_LOAD_VM => Request::LoadVm {
                module: read_blob(r)?,
                function: read_str(r)?,
                jit: read_u8(r)? != 0,
                fuel: read_u64(r)?,
                memory: read_u64(r)?,
            },
            REQ_INVOKE => Request::Invoke {
                args: read_values(r)?,
            },
            REQ_INVOKE_BATCH => Request::InvokeBatch {
                rows: read_rows(r)?,
            },
            REQ_CALLBACK_RESULT => Request::CallbackResult {
                value: read_value(r)?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_PING => Request::Ping,
            REQ_RESET => Request::Reset,
            other => {
                return Err(JaguarError::Protocol(format!(
                    "unknown request tag {other:#04x}"
                )))
            }
        })
    }
}

impl Response {
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        match self {
            Response::Ready { proto } => {
                write_u8(w, RSP_READY)?;
                write_u32(w, *proto)?;
            }
            Response::Loaded => write_u8(w, RSP_LOADED)?,
            Response::InvokeResult { value } => {
                write_u8(w, RSP_INVOKE_RESULT)?;
                write_value(w, value)?;
            }
            Response::BatchReply { values, error } => {
                write_u8(w, RSP_BATCH_REPLY)?;
                write_values(w, values)?;
                match error {
                    Some(message) => {
                        write_u8(w, 1)?;
                        write_str(w, message)?;
                    }
                    None => write_u8(w, 0)?,
                }
            }
            Response::CallbackRequest { name, args } => {
                write_u8(w, RSP_CALLBACK_REQUEST)?;
                write_str(w, name)?;
                write_values(w, args)?;
            }
            Response::Error { message } => {
                write_u8(w, RSP_ERROR)?;
                write_str(w, message)?;
            }
            Response::Pong => write_u8(w, RSP_PONG)?,
            Response::ResetOk => write_u8(w, RSP_RESET_OK)?,
        }
        w.flush()?;
        Ok(())
    }

    pub fn read(r: &mut impl Read) -> Result<Response> {
        Ok(match read_u8(r)? {
            RSP_READY => Response::Ready {
                proto: read_u32(r)?,
            },
            RSP_LOADED => Response::Loaded,
            RSP_INVOKE_RESULT => Response::InvokeResult {
                value: read_value(r)?,
            },
            RSP_BATCH_REPLY => {
                let values = read_values(r)?;
                let error = match read_u8(r)? {
                    0 => None,
                    _ => Some(read_str(r)?),
                };
                Response::BatchReply { values, error }
            }
            RSP_CALLBACK_REQUEST => Response::CallbackRequest {
                name: read_str(r)?,
                args: read_values(r)?,
            },
            RSP_ERROR => Response::Error {
                message: read_str(r)?,
            },
            RSP_PONG => Response::Pong,
            RSP_RESET_OK => Response::ResetOk,
            other => {
                return Err(JaguarError::Protocol(format!(
                    "unknown response tag {other:#04x}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::ByteArray;

    fn roundtrip_req(req: Request) {
        let mut buf = Vec::new();
        req.write(&mut buf).unwrap();
        let back = Request::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_rsp(rsp: Response) {
        let mut buf = Vec::new();
        rsp.write(&mut buf).unwrap();
        let back = Response::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, rsp);
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_req(Request::LoadNative {
            name: "generic".into(),
        });
        roundtrip_req(Request::LoadVm {
            module: vec![1, 2, 3],
            function: "main".into(),
            jit: true,
            fuel: 0,
            memory: 1 << 20,
        });
        roundtrip_req(Request::Invoke {
            args: vec![
                Value::Int(1),
                Value::Bytes(ByteArray::patterned(100, 5)),
                Value::Null,
            ],
        });
        roundtrip_req(Request::CallbackResult {
            value: Value::Float(2.5),
        });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Ping);
        roundtrip_req(Request::Reset);
        roundtrip_req(Request::InvokeBatch {
            rows: vec![
                vec![Value::Int(1), Value::Bytes(ByteArray::patterned(16, 1))],
                vec![Value::Int(2), Value::Null],
            ],
        });
        roundtrip_req(Request::InvokeBatch { rows: vec![] });
    }

    #[test]
    fn all_responses_roundtrip() {
        roundtrip_rsp(Response::Ready {
            proto: PROTO_VERSION,
        });
        roundtrip_rsp(Response::Loaded);
        roundtrip_rsp(Response::InvokeResult {
            value: Value::Int(42),
        });
        roundtrip_rsp(Response::CallbackRequest {
            name: "clip".into(),
            args: vec![Value::Int(3), Value::Int(4)],
        });
        roundtrip_rsp(Response::Error {
            message: "kaboom".into(),
        });
        roundtrip_rsp(Response::Pong);
        roundtrip_rsp(Response::ResetOk);
        roundtrip_rsp(Response::BatchReply {
            values: vec![Value::Int(1), Value::Int(2)],
            error: None,
        });
        roundtrip_rsp(Response::BatchReply {
            values: vec![Value::Int(1)],
            error: Some("udf 'f' blew up".into()),
        });
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(Request::read(&mut [0xEEu8].as_slice()).is_err());
        assert!(Response::read(&mut [0x00u8].as_slice()).is_err());
    }

    #[test]
    fn hostile_declared_lengths_rejected() {
        // LoadVm whose module blob declares 1 GB: rejected by the declared
        // length cap before any allocation.
        let mut frame = vec![0x02u8]; // REQ_LOAD_VM
        frame.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = Request::read(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");

        // Invoke declaring u32::MAX arguments: rejected by the arg cap.
        let mut frame = vec![0x03u8]; // REQ_INVOKE
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::read(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible arg count"), "{err}");

        // A plausible arg count with no payload behind it: decode error on
        // EOF, memory bounded by what actually arrived.
        let mut frame = vec![0x03u8];
        frame.extend_from_slice(&60_000u32.to_le_bytes());
        assert!(Request::read(&mut frame.as_slice()).is_err());
    }

    #[test]
    fn hostile_batch_frames_rejected() {
        // InvokeBatch declaring u32::MAX rows: rejected by the row cap
        // before any allocation.
        let mut frame = vec![0x08u8]; // REQ_INVOKE_BATCH
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::read(&mut frame.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("implausible batch row count"),
            "{err}"
        );

        // A row count just over the cap is also rejected.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&(MAX_BATCH_ROWS + 1).to_le_bytes());
        assert!(Request::read(&mut frame.as_slice()).is_err());

        // A plausible row count with no payload: EOF during decode, memory
        // bounded by what actually arrived.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&1024u32.to_le_bytes());
        assert!(Request::read(&mut frame.as_slice()).is_err());

        // A row inside the batch declaring an implausible arg count is
        // caught by the per-row value cap.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = Request::read(&mut frame.as_slice()).unwrap_err();
        assert!(err.to_string().contains("implausible arg count"), "{err}");

        // BatchReply from a compromised worker declaring u32::MAX result
        // values: same cap, parent side.
        let mut frame = vec![0x88u8]; // RSP_BATCH_REPLY
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::read(&mut frame.as_slice()).is_err());
    }

    #[test]
    fn truncated_message_is_error() {
        let mut buf = Vec::new();
        Request::Invoke {
            args: vec![Value::Int(5)],
        }
        .write(&mut buf)
        .unwrap();
        assert!(Request::read(&mut buf[..buf.len() - 2].as_ref()).is_err());
    }

    #[test]
    fn sequential_messages_on_one_stream() {
        let mut buf = Vec::new();
        Request::LoadNative { name: "a".into() }
            .write(&mut buf)
            .unwrap();
        Request::Invoke { args: vec![] }.write(&mut buf).unwrap();
        Request::Shutdown.write(&mut buf).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            Request::read(&mut r).unwrap(),
            Request::LoadNative { .. }
        ));
        assert!(matches!(
            Request::read(&mut r).unwrap(),
            Request::Invoke { .. }
        ));
        assert!(matches!(Request::read(&mut r).unwrap(), Request::Shutdown));
        assert!(r.is_empty());
    }
}

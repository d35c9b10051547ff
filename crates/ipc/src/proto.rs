//! The parent↔worker wire protocol.
//!
//! Every message is one frame ([`jaguar_common::polled`]): a tag byte
//! followed by tag-specific fields encoded with the `jaguar-common` stream
//! primitives. The protocol is strictly
//! request/response from the parent's point of view, with one twist: while
//! an invocation batch is outstanding, the worker may interleave any number
//! of `CallbackRequest`s (the §4.2 callback channel), each of which the
//! parent answers with `CallbackResult` before the final `BatchReply`
//! arrives.
//!
//! Every invocation is a batch frame, a per-tuple one a batch of one row.
//! The parent writes the frame straight from the arguments where it holds
//! them ([`write_batch`]); the worker reads it whole into one reused
//! [`BatchFrame`] and reads every argument where it lies there. That write
//! is the one copy of the arguments a crossing makes — the paper's copy
//! into shared memory.

use std::io::Write;
use std::ops::Range;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::polled::{Pollable, Polled};
use jaguar_common::stream::{
    build_column, next_value, read_blob, read_column, read_str, read_u32, read_u8, whole,
    write_blob, write_str, write_u32, write_u8, write_value,
};
use jaguar_common::{DataType, Value};

/// Answers callbacks a UDF makes to the database server.
///
/// On the server side this is implemented by the query executor (it can
/// reach the storage engine); inside the worker it is implemented by a
/// proxy that forwards the request over the worker's socket.
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
#[derive(Debug, PartialEq)]
pub enum Request {
    /// Load one UDF: `definition` is all of it — name, SQL signature, and
    /// Design 2's registry entry or Design 4's module, limits and
    /// permissions. `jaguar-udf` encodes it in the parent and decodes it in
    /// the worker; this protocol only carries it.
    Load { definition: Vec<u8> },
    /// Invoke the loaded UDF once per row of a batch, paying one socket
    /// round-trip for the whole batch (the vectorized ABI). The worker
    /// stops at the first failing row and reports its index via
    /// [`Response::BatchReply`]. The frame is written by [`write_batch`],
    /// and [`Request::read`] reads it into the caller's [`BatchFrame`].
    InvokeBatch,
    /// Answer to an outstanding `CallbackRequest`: the callback's value,
    /// or the error it failed with.
    CallbackResult { result: Result<Value> },
    /// Orderly shutdown (end of query — executors live for one query).
    Shutdown,
    /// Drop all loaded UDF state so the worker can serve a new query. The
    /// warm-pool reuse path sends this on check-in; the worker answers
    /// `ResetOk` once it is back to its just-started state.
    Reset,
}

/// Version of the parent↔worker protocol. Bumped on any change to the
/// message set or the UDF registry semantics; the parent refuses workers
/// announcing a different version (a stale `jaguar-worker` binary next to
/// a fresh server otherwise produces silent wrong answers).
pub const PROTO_VERSION: u32 = 11;

/// Most rows one `InvokeBatch` frame may carry. The engine never forms
/// batches above `jaguar_udf::batch::MAX_BATCH` (1024); the cap leaves headroom
/// for future growth while still bounding what a hostile peer can make us
/// buffer.
pub const MAX_BATCH_ROWS: u32 = 4096;

/// Messages the worker sends to the parent.
#[derive(Debug, PartialEq)]
pub enum Response {
    /// Worker has started and awaits requests; carries [`PROTO_VERSION`].
    Ready { proto: u32 },
    /// A `Load` request succeeded.
    Loaded,
    /// The result of an `InvokeBatch`: one value per completed row. When
    /// `error` is set, the failing row's index is `values.len()` (rows
    /// before it completed, with their side effects), and the error is the
    /// row's, class and text.
    BatchReply {
        values: Vec<Value>,
        error: Option<JaguarError>,
    },
    /// The UDF needs the server (§4.2 callback). Parent must reply with
    /// `Request::CallbackResult`.
    CallbackRequest { name: String, args: Vec<Value> },
    /// A request other than a batch failed, with this error.
    Error { error: JaguarError },
    /// Answer to `Request::Reset`: loaded UDF state has been dropped.
    ResetOk,
}

const REQ_LOAD: u8 = 0x09;
const REQ_CALLBACK_RESULT: u8 = 0x04;
const REQ_SHUTDOWN: u8 = 0x05;
const REQ_RESET: u8 = 0x07;
const REQ_INVOKE_BATCH: u8 = 0x08;
const RSP_READY: u8 = 0x81;
const RSP_LOADED: u8 = 0x82;
const RSP_CALLBACK_REQUEST: u8 = 0x84;
const RSP_ERROR: u8 = 0x85;
const RSP_RESET_OK: u8 = 0x87;
const RSP_BATCH_REPLY: u8 = 0x88;

fn write_values(w: &mut impl Write, vals: &[Value]) -> Result<()> {
    write_u32(w, vals.len() as u32)?;
    for v in vals {
        write_value(w, v)?;
    }
    Ok(())
}

/// Most arguments (or callback arguments) one row may carry.
const MAX_ARGS: usize = 65_535;

/// Read a count-prefixed list of values, refusing a count above `most`.
/// The count is untrusted (it crosses the process boundary): the vector is
/// reserved at `reserve`, a size the reader chose, and grows past it only
/// as values actually decode.
fn next_values(r: &mut &[u8], most: usize, reserve: usize) -> Result<Vec<Value>> {
    let n = read_u32(r)?;
    if n as usize > most {
        let e = format!("implausible value count {n} (at most {most})");
        return Err(JaguarError::Protocol(e));
    }
    let mut out = Vec::with_capacity(reserve);
    for _ in 0..n {
        out.push(next_value(r)?);
    }
    Ok(out)
}

/// Write one `InvokeBatch` frame straight from the caller's arguments:
/// `rows` rows of `arity` arguments each, `arg(row, a)` being argument `a`
/// of row `row`.
pub fn write_batch<'v>(
    w: &mut impl Write,
    rows: usize,
    arity: usize,
    arg: impl Fn(usize, usize) -> &'v Value,
) -> Result<()> {
    write_u8(w, REQ_INVOKE_BATCH)?;
    write_u32(w, rows as u32)?;
    for row in 0..rows {
        write_u32(w, arity as u32)?;
        for a in 0..arity {
            write_value(w, arg(row, a))?;
        }
    }
    Ok(())
}

/// One argument of a [`BatchFrame`]: its SQL type (`None` for NULL) and
/// where its payload lies in the frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Arg {
    pub ty: Option<DataType>,
    payload: Range<usize>,
}

/// The last request a worker read, whole, in buffers it keeps: the body,
/// and for an `InvokeBatch` each argument's [`Arg`] and each row's end.
/// Reading a batch allocates nothing once they have grown to its size.
#[derive(Debug, Default)]
pub struct BatchFrame {
    body: Vec<u8>,
    args: Vec<Arg>,
    row_ends: Vec<usize>,
}

impl BatchFrame {
    /// Locate the rows of an `InvokeBatch` body, `r` the tail after its tag.
    /// The untrusted counts are capped, the lists grow only as arguments
    /// decode, and a VARCHAR is checked to be UTF-8 before any row runs.
    fn locate(
        body: &[u8],
        r: &mut &[u8],
        args: &mut Vec<Arg>,
        row_ends: &mut Vec<usize>,
    ) -> Result<()> {
        let n = read_u32(r)?;
        if n > MAX_BATCH_ROWS {
            return Err(JaguarError::Protocol(format!(
                "implausible batch row count {n}"
            )));
        }
        for _ in 0..n {
            let arity = read_u32(r)?;
            if arity as usize > MAX_ARGS {
                let e = format!("implausible arg count {arity}");
                return Err(JaguarError::Protocol(e));
            }
            for _ in 0..arity {
                let (ty, payload) = read_column(r)?;
                if ty == Some(DataType::Str) {
                    std::str::from_utf8(payload)
                        .map_err(|_| JaguarError::Protocol("invalid utf-8 string".into()))?;
                }
                let end = body.len() - r.len();
                args.push(Arg {
                    ty,
                    payload: end - payload.len()..end,
                });
            }
            row_ends.push(args.len());
        }
        Ok(())
    }

    /// The arguments of each row, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Arg]> {
        let mut start = 0;
        self.row_ends.iter().map(move |&end| {
            let row = &self.args[start..end];
            start = end;
            row
        })
    }

    /// The payload of `arg` where it lies in the frame.
    pub fn body(&self, arg: &Arg) -> &[u8] {
        &self.body[arg.payload.clone()]
    }

    /// `arg` as an owned SQL value (copying its body out, if it has one).
    pub fn value(&self, arg: &Arg) -> Value {
        build_column(arg.ty, self.body(arg)).expect("a located argument builds")
    }
}

impl Request {
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        match self {
            Request::Load { definition } => {
                write_u8(w, REQ_LOAD)?;
                write_blob(w, definition)?;
            }
            Request::InvokeBatch => {
                let e = "an InvokeBatch frame is written by proto::write_batch";
                return Err(JaguarError::Protocol(e.into()));
            }
            Request::CallbackResult { result } => {
                write_u8(w, REQ_CALLBACK_RESULT)?;
                match result {
                    Ok(value) => {
                        write_u8(w, 0)?;
                        write_value(w, value)?;
                    }
                    Err(e) => {
                        write_u8(w, 1)?;
                        e.write(w)?;
                    }
                }
            }
            Request::Shutdown => write_u8(w, REQ_SHUTDOWN)?,
            Request::Reset => write_u8(w, REQ_RESET)?,
        }
        Ok(())
    }

    /// Read the next request whole into `batch`, replacing what it held,
    /// and decode it. An `InvokeBatch`'s arguments stay where they lie in
    /// `batch`'s buffer.
    pub fn read<S: Pollable>(input: &mut Polled<S>, batch: &mut BatchFrame) -> Result<Request> {
        batch.args.clear();
        batch.row_ends.clear();
        input.read_into(&mut batch.body)?;
        whole(&batch.body, |r| {
            Ok(match read_u8(r)? {
                REQ_LOAD => Request::Load {
                    definition: read_blob(r)?,
                },
                REQ_INVOKE_BATCH => {
                    BatchFrame::locate(&batch.body, r, &mut batch.args, &mut batch.row_ends)?;
                    Request::InvokeBatch
                }
                REQ_CALLBACK_RESULT => Request::CallbackResult {
                    result: match read_u8(r)? {
                        0 => Ok(next_value(r)?),
                        _ => Err(JaguarError::read(r)?),
                    },
                },
                REQ_SHUTDOWN => Request::Shutdown,
                REQ_RESET => Request::Reset,
                other => {
                    return Err(JaguarError::Protocol(format!(
                        "unknown request tag {other:#04x}"
                    )))
                }
            })
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
            Response::BatchReply { values, error } => {
                write_u8(w, RSP_BATCH_REPLY)?;
                write_values(w, values)?;
                match error {
                    Some(e) => {
                        write_u8(w, 1)?;
                        e.write(w)?;
                    }
                    None => write_u8(w, 0)?,
                }
            }
            Response::CallbackRequest { name, args } => {
                Response::write_callback_request(w, name, args)?
            }
            Response::Error { error } => {
                write_u8(w, RSP_ERROR)?;
                error.write(w)?;
            }
            Response::ResetOk => write_u8(w, RSP_RESET_OK)?,
        }
        Ok(())
    }

    /// A `CallbackRequest` written from borrowed parts, copying nothing.
    pub fn write_callback_request(w: &mut impl Write, name: &str, args: &[Value]) -> Result<()> {
        write_u8(w, RSP_CALLBACK_REQUEST)?;
        write_str(w, name)?;
        write_values(w, args)
    }

    /// Decode a response's body. `batch_rows` is the row count of the
    /// batch the reader has outstanding (0 if none): a `BatchReply` may
    /// carry at most that many values, and its vector is reserved at that
    /// size, never at the count the worker claims.
    pub fn read(r: &mut &[u8], batch_rows: usize) -> Result<Response> {
        Ok(match read_u8(r)? {
            RSP_READY => Response::Ready {
                proto: read_u32(r)?,
            },
            RSP_LOADED => Response::Loaded,
            RSP_BATCH_REPLY => {
                let values = next_values(r, batch_rows, batch_rows)?;
                let error = match read_u8(r)? {
                    0 => None,
                    _ => Some(JaguarError::read(r)?),
                };
                Response::BatchReply { values, error }
            }
            RSP_CALLBACK_REQUEST => Response::CallbackRequest {
                name: read_str(r)?,
                args: next_values(r, MAX_ARGS, 0)?,
            },
            RSP_ERROR => Response::Error {
                error: JaguarError::read(r)?,
            },
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
    use jaguar_common::error::VmTrap;
    use jaguar_common::polled::Outbox;
    use jaguar_common::ByteArray;
    use std::io::Cursor;
    use std::sync::Arc;

    /// The body of one message, as `encode` writes it.
    fn body(encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        encode(&mut buf).unwrap();
        buf
    }

    /// The frames of `bodies`, as an outbox writes them.
    fn frames(bodies: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Outbox::new(Vec::new());
        for b in bodies {
            out.send(|f| {
                f.extend_from_slice(b);
                Ok(())
            })
            .unwrap();
        }
        std::mem::take(out.get_mut())
    }

    /// A reader over `bytes`.
    fn polled(bytes: Vec<u8>) -> Polled<Cursor<Vec<u8>>> {
        Polled::new(Cursor::new(bytes), Arc::default())
    }

    /// The request whose body is `body`, read into `frame`.
    fn read_req(body: &[u8], frame: &mut BatchFrame) -> Result<Request> {
        Request::read(&mut polled(frames(&[body.to_vec()])), frame)
    }

    /// The response whose body is `body`, `rows` rows outstanding.
    fn read_rsp(body: &[u8], rows: usize) -> Result<Response> {
        polled(frames(&[body.to_vec()])).read(|r| Response::read(r, rows))
    }

    fn roundtrip_req(req: Request) {
        let back = read_req(&body(|b| req.write(b)), &mut BatchFrame::default()).unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_rsp(rsp: Response) {
        assert_eq!(read_rsp(&body(|b| rsp.write(b)), 2).unwrap(), rsp);
    }

    /// The body of a batch frame of `rows`, as the parent writes it.
    fn batch_bytes(rows: &[Vec<Value>]) -> Vec<u8> {
        let arity = rows.first().map_or(0, Vec::len);
        body(|b| write_batch(b, rows.len(), arity, |i, a| &rows[i][a]))
    }

    /// The rows of a frame, as values.
    fn values(frame: &BatchFrame) -> Vec<Vec<Value>> {
        frame
            .rows()
            .map(|row| row.iter().map(|a| frame.value(a)).collect())
            .collect()
    }

    /// Decode a batch frame's body back into rows of values.
    fn decode_batch(bytes: &[u8]) -> Result<Vec<Vec<Value>>> {
        let mut frame = BatchFrame::default();
        let req = read_req(bytes, &mut frame)?;
        assert_eq!(req, Request::InvokeBatch);
        Ok(values(&frame))
    }

    /// One of every request, a batch among them.
    fn every_request() -> Vec<Vec<u8>> {
        let requests = [
            Request::Load {
                definition: vec![1, 2, 3],
            },
            Request::CallbackResult {
                result: Ok(Value::Float(2.5)),
            },
            Request::CallbackResult {
                result: Err(JaguarError::Udf("no such account".into())),
            },
            Request::Shutdown,
            Request::Reset,
        ];
        let mut bodies: Vec<Vec<u8>> = requests.iter().map(|r| body(|b| r.write(b))).collect();
        bodies.push(batch_bytes(&[
            vec![Value::Int(1), Value::Bytes(ByteArray::patterned(16, 1))],
            vec![Value::Str("é".into()), Value::Null],
        ]));
        bodies
    }

    /// One of every response.
    fn every_response() -> Vec<Response> {
        vec![
            Response::Ready {
                proto: PROTO_VERSION,
            },
            Response::Loaded,
            Response::CallbackRequest {
                name: "clip".into(),
                args: vec![Value::Int(3), Value::Int(4)],
            },
            Response::Error {
                error: JaguarError::Verification("kaboom".into()),
            },
            Response::ResetOk,
            Response::BatchReply {
                values: vec![Value::Int(1), Value::Int(2)],
                error: None,
            },
            Response::BatchReply {
                values: vec![Value::Int(1)],
                error: Some(JaguarError::VmTrap(VmTrap::DivideByZero)),
            },
        ]
    }

    #[test]
    fn all_requests_roundtrip() {
        roundtrip_req(Request::Load {
            definition: vec![1, 2, 3],
        });
        roundtrip_req(Request::CallbackResult {
            result: Ok(Value::Float(2.5)),
        });
        roundtrip_req(Request::CallbackResult {
            result: Err(JaguarError::Udf("no such account".into())),
        });
        roundtrip_req(Request::Shutdown);
        roundtrip_req(Request::Reset);
        for rows in [
            vec![
                vec![Value::Int(1), Value::Bytes(ByteArray::patterned(16, 1))],
                vec![Value::Int(2), Value::Null],
            ],
            vec![vec![
                Value::Int(1),
                Value::Bytes(ByteArray::patterned(100, 5)),
                Value::Null,
            ]],
            vec![],
        ] {
            assert_eq!(decode_batch(&batch_bytes(&rows)).unwrap(), rows);
        }
        // A reused frame holds only the latest request's rows.
        let mut frame = BatchFrame::default();
        for rows in [vec![vec![Value::Str("ab".into())]; 3], vec![vec![]]] {
            read_req(&batch_bytes(&rows), &mut frame).unwrap();
            assert_eq!(frame.rows().len(), rows.len());
        }
        assert!(frame.rows().all(<[Arg]>::is_empty));
        read_req(&body(|b| Request::Reset.write(b)), &mut frame).unwrap();
        assert_eq!(frame.rows().len(), 0);
        assert!(Request::InvokeBatch.write(&mut Vec::new()).is_err());
    }

    #[test]
    fn all_responses_roundtrip() {
        for rsp in every_response() {
            roundtrip_rsp(rsp);
        }
    }

    /// The body bytes of one mixed batch frame, as protocol v6 wrote them,
    /// and of its reply, as protocol v10 writes them, each behind its
    /// frame's length since v11. A codec change that moves a byte here
    /// changes the wire format, and must bump `PROTO_VERSION` on purpose.
    #[test]
    fn batch_frame_and_reply_bytes_are_pinned() {
        let rows = vec![
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(-2),
                Value::Float(1.5),
                Value::Str("hé".into()),
                Value::Bytes(ByteArray::from(&[7u8, 8, 9][..])),
                Value::Bytes(ByteArray::from(&[][..])),
            ],
            vec![
                Value::Int(3),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Bool(false),
            ],
        ];
        let mut want = vec![0x08];
        want.extend(2u32.to_le_bytes());
        want.extend(7u32.to_le_bytes());
        want.push(0); // NULL
        want.extend([1, 1]); // BOOL true
        want.push(2);
        want.extend((-2i64).to_le_bytes());
        want.push(3);
        want.extend(1.5f64.to_le_bytes());
        want.push(4);
        want.extend(3u32.to_le_bytes());
        want.extend("hé".as_bytes());
        want.push(5);
        want.extend(3u32.to_le_bytes());
        want.extend([7, 8, 9]);
        want.push(5);
        want.extend(0u32.to_le_bytes());
        want.extend(7u32.to_le_bytes());
        want.push(2);
        want.extend(3i64.to_le_bytes());
        want.extend([0, 0, 0, 0, 0]);
        want.extend([1, 0]); // BOOL false
        assert_eq!(batch_bytes(&rows), want);
        assert_eq!(decode_batch(&want).unwrap(), rows);
        let framed = frames(&[want.clone()]);
        assert_eq!(framed[..4], (want.len() as u32).to_le_bytes());
        assert_eq!(framed[4..], want);

        let reply = body(|b| {
            Response::BatchReply {
                values: vec![Value::Int(5), Value::Null],
                error: Some(JaguarError::Udf("boom".into())),
            }
            .write(b)
        });
        let mut want = vec![0x88];
        want.extend(2u32.to_le_bytes());
        want.push(2);
        want.extend(5i64.to_le_bytes());
        want.push(0);
        want.extend([1, 14, 0]); // an error: class Udf, no kind
        want.extend([0; 16]); // its two numbers, unused
        want.extend(4u32.to_le_bytes());
        want.extend(b"boom");
        assert_eq!(reply, want);
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

    #[test]
    fn every_request_leaves_in_one_write() {
        // 256 rows of a 100-byte ByteArray and three ints: a 34 KiB frame.
        let rows: Vec<Vec<Value>> = (0..256)
            .map(|i| {
                let data = Value::Bytes(ByteArray::patterned(100, i));
                vec![data, Value::Int(10), Value::Int(i as i64), Value::Int(0)]
            })
            .collect();
        let requests = [
            Request::Load {
                definition: vec![0x0A; 3000],
            },
            Request::CallbackResult {
                result: Ok(Value::Int(10)),
            },
            Request::Reset,
            Request::Shutdown,
        ];
        let mut outbox = Outbox::new(Writes::default());
        outbox
            .send(|frame| write_batch(frame, rows.len(), 4, |i, a| &rows[i][a]))
            .unwrap();
        let batch_len = outbox.get_mut().bytes.len();
        assert!(batch_len > 34 << 10, "{batch_len}");
        assert_eq!(outbox.get_mut().calls, 1);
        for request in &requests {
            outbox.send(|frame| request.write(frame)).unwrap();
        }
        assert_eq!(outbox.get_mut().calls, 1 + requests.len());
        // The stream holds the messages whole and in order.
        let mut input = polled(std::mem::take(&mut outbox.get_mut().bytes));
        let mut frame = BatchFrame::default();
        assert_eq!(
            Request::read(&mut input, &mut frame).unwrap(),
            Request::InvokeBatch
        );
        assert_eq!(values(&frame), rows);
        for request in requests {
            assert_eq!(Request::read(&mut input, &mut frame).unwrap(), request);
        }
        let eof = Request::read(&mut input, &mut frame).unwrap_err();
        assert!(matches!(eof, JaguarError::Io(_)), "{eof}");
    }

    /// Every strict prefix of every message's frame is refused — never a
    /// panic, a hang or a decoded message — and so is every message with
    /// one byte more in its body than its decoder reads.
    #[test]
    fn every_cut_or_padded_frame_is_refused_at_both_ends() {
        let mut frame = BatchFrame::default();
        for request in every_request() {
            let framed = frames(std::slice::from_ref(&request));
            for cut in 0..framed.len() {
                let mut input = polled(framed[..cut].to_vec());
                assert!(
                    Request::read(&mut input, &mut frame).is_err(),
                    "cut at {cut}"
                );
            }
            let padded = [&request[..], &[0]].concat();
            let e = read_req(&padded, &mut frame).unwrap_err();
            assert!(
                matches!(&e, JaguarError::Protocol(m) if m.contains("1 trailing")),
                "{e}"
            );
        }
        for response in every_response() {
            let bytes = body(|b| response.write(b));
            let framed = frames(std::slice::from_ref(&bytes));
            for cut in 0..framed.len() {
                let got = polled(framed[..cut].to_vec()).read(|r| Response::read(r, 2));
                assert!(got.is_err(), "cut at {cut}: {got:?}");
            }
            let padded = [&bytes[..], &[0]].concat();
            let e = read_rsp(&padded, 2).unwrap_err();
            assert!(
                matches!(&e, JaguarError::Protocol(m) if m.contains("1 trailing")),
                "{e}"
            );
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut frame = BatchFrame::default();
        assert!(read_req(&[0xEE], &mut frame).is_err());
        assert!(read_rsp(&[0x00], 0).is_err());
        // Protocol v6's per-tuple request and reply tags are retired: a
        // per-tuple call is a one-row batch.
        let err = read_req(&[0x03, 0, 0, 0, 0], &mut frame).unwrap_err();
        assert!(err.to_string().contains("unknown request tag"), "{err}");
        let err = read_rsp(&[0x83, 0], 1).unwrap_err();
        assert!(err.to_string().contains("unknown response tag"), "{err}");
        // Protocol v9's per-design loads are retired: one Load carries any.
        for tag in [0x01u8, 0x02] {
            let err = read_req(&[tag], &mut frame).unwrap_err();
            assert!(err.to_string().contains("unknown request tag"), "{err}");
        }
        // Protocol v7's liveness probe is retired too.
        let err = read_req(&[0x06], &mut frame).unwrap_err();
        assert!(err.to_string().contains("unknown request tag"), "{err}");
        let err = read_rsp(&[0x86], 0).unwrap_err();
        assert!(err.to_string().contains("unknown response tag"), "{err}");
    }

    #[test]
    fn hostile_declared_lengths_rejected() {
        let mut batch = BatchFrame::default();
        // A Load whose definition declares 1 GB: rejected by the declared
        // length cap before any allocation.
        let mut frame = vec![REQ_LOAD];
        frame.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = read_req(&frame, &mut batch).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");

        // A one-row batch declaring u32::MAX arguments: rejected by the arg
        // cap.
        let mut frame = vec![0x08u8, 1, 0, 0, 0]; // REQ_INVOKE_BATCH, 1 row
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_req(&frame, &mut batch).unwrap_err();
        assert!(err.to_string().contains("implausible arg count"), "{err}");

        // A plausible arg count with no payload behind it: a decode error
        // at the end of the body, the lists bounded by what arrived.
        let mut frame = vec![0x08u8, 1, 0, 0, 0];
        frame.extend_from_slice(&60_000u32.to_le_bytes());
        assert!(read_req(&frame, &mut batch).is_err());
        assert!(batch.args.capacity() < 64, "{}", batch.args.capacity());

        // A byte argument declaring 1 GB: the declared length cap again,
        // now in the batch frame's own buffer.
        let mut frame = vec![0x08u8, 1, 0, 0, 0, 1, 0, 0, 0, 5];
        frame.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = read_req(&frame, &mut batch).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
    }

    #[test]
    fn hostile_batch_frames_rejected() {
        let mut batch = BatchFrame::default();
        // InvokeBatch declaring u32::MAX rows: rejected by the row cap
        // before any allocation.
        let mut frame = vec![0x08u8]; // REQ_INVOKE_BATCH
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_req(&frame, &mut batch).unwrap_err();
        assert!(
            err.to_string().contains("implausible batch row count"),
            "{err}"
        );

        // A row count just over the cap is also rejected.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&(MAX_BATCH_ROWS + 1).to_le_bytes());
        assert!(read_req(&frame, &mut batch).is_err());

        // A plausible row count with no payload: the body ends during
        // decode, memory bounded by what actually arrived.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&1024u32.to_le_bytes());
        assert!(read_req(&frame, &mut batch).is_err());

        // A row inside the batch declaring an implausible arg count is
        // caught by the per-row value cap.
        let mut frame = vec![0x08u8];
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_req(&frame, &mut batch).unwrap_err();
        assert!(err.to_string().contains("implausible arg count"), "{err}");

        // A truncated byte body, an invalid bool byte and a VARCHAR that is
        // not UTF-8: each a protocol error, before any row runs.
        let one_arg = |arg: &[u8]| {
            let mut frame = vec![0x08u8, 1, 0, 0, 0, 1, 0, 0, 0];
            frame.extend_from_slice(arg);
            read_req(&frame, &mut BatchFrame::default()).unwrap_err()
        };
        for (arg, text) in [
            (&[5u8, 4, 0, 0, 0, 1, 2][..], "truncated blob"),
            (&[1u8, 2][..], "invalid bool byte"),
            (&[4u8, 2, 0, 0, 0, 0xC3, 0x28][..], "invalid utf-8"),
        ] {
            let err = one_arg(arg);
            assert!(matches!(err, JaguarError::Protocol(_)), "{err}");
            assert!(err.to_string().contains(text), "{err}");
        }

        // BatchReply from a compromised worker declaring u32::MAX result
        // values, or one more than the rows it was sent: refused by the
        // parent before any value decodes.
        let mut frame = vec![0x88u8]; // RSP_BATCH_REPLY
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let rows = MAX_BATCH_ROWS as usize;
        assert!(read_rsp(&frame, rows).is_err());
        let mut frame = vec![0x88u8];
        frame.extend_from_slice(&3u32.to_le_bytes());
        let err = read_rsp(&frame, 2).unwrap_err();
        assert!(matches!(err, JaguarError::Protocol(_)), "{err}");
    }

    #[test]
    fn truncated_message_is_error() {
        let buf = batch_bytes(&[vec![Value::Int(5)]]);
        let mut frame = BatchFrame::default();
        assert!(read_req(&buf[..buf.len() - 2], &mut frame).is_err());
    }

    #[test]
    fn sequential_messages_on_one_stream() {
        let load = body(|b| {
            Request::Load {
                definition: b"a".to_vec(),
            }
            .write(b)
        });
        let shutdown = body(|b| Request::Shutdown.write(b));
        let mut input = polled(frames(&[
            load,
            batch_bytes(&[vec![Value::Int(1)]]),
            shutdown,
        ]));
        let mut frame = BatchFrame::default();
        assert!(matches!(
            Request::read(&mut input, &mut frame).unwrap(),
            Request::Load { .. }
        ));
        assert_eq!(
            Request::read(&mut input, &mut frame).unwrap(),
            Request::InvokeBatch
        );
        assert_eq!(values(&frame), [[Value::Int(1)]]);
        assert_eq!(frame.rows().next().unwrap()[0].ty, Some(DataType::Int));
        assert_eq!(
            Request::read(&mut input, &mut frame).unwrap(),
            Request::Shutdown
        );
        assert!(Request::read(&mut input, &mut frame).is_err());
    }
}

//! The client↔server wire protocol.
//!
//! One message per request, one per response, encoded with the §6.4
//! stream primitives. UDF modules travel as opaque byte blobs — the
//! server verifies them itself. Each message is one frame: both ends send
//! through a [`jaguar_common::polled::Outbox`], and wait for the other's
//! next message, read whole, through a [`jaguar_common::polled::Polled`].

use std::io::Write;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::schema::Schema;
use jaguar_common::stream::{
    next_tuple, read_blob, read_schema, read_str, read_u32, read_u64, read_u8, write_blob,
    write_schema, write_str, write_tuple, write_u32, write_u64, write_u8,
};
use jaguar_common::{DataType, Tuple};
use jaguar_udf::Placement;

/// Most parameters any wire-registered UDF may declare. Far above anything
/// the engine supports, but low enough that a hostile count prefix cannot
/// drive a large allocation.
pub const MAX_WIRE_PARAMS: u8 = 64;

/// Most rows a single `Result` frame may declare.
pub const MAX_WIRE_ROWS: u32 = 50_000_000;

/// Most session attributes a `Hello` may carry. Label expressions
/// reference a handful of attributes; the bound keeps a hostile count
/// prefix from driving a large allocation.
pub const MAX_WIRE_ATTRS: u32 = 256;

/// SQL signature of a UDF as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSignature {
    pub params: Vec<DataType>,
    pub ret: DataType,
}

impl WireSignature {
    fn write(&self, w: &mut impl Write) -> Result<()> {
        write_u8(w, self.params.len() as u8)?;
        for p in &self.params {
            write_u8(w, p.tag())?;
        }
        write_u8(w, self.ret.tag())
    }

    fn read(r: &mut &[u8]) -> Result<WireSignature> {
        let n = read_u8(r)?;
        if n > MAX_WIRE_PARAMS {
            return Err(JaguarError::Protocol(format!(
                "implausible parameter count {n} (limit {MAX_WIRE_PARAMS})"
            )));
        }
        // Grow as tags actually decode; the count prefix is untrusted.
        let mut params = Vec::new();
        for _ in 0..n {
            params.push(DataType::from_tag(read_u8(r)?)?);
        }
        Ok(WireSignature {
            params,
            ret: DataType::from_tag(read_u8(r)?)?,
        })
    }
}

/// Execution statistics carried back with results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub udf_invocations: u64,
    pub udf_callbacks: u64,
    pub vm_instructions: u64,
    pub vm_bytes_allocated: u64,
}

/// Client → server.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Introduce the session's principal and its attributes (tenant,
    /// role, …) before any statement. Optional when the server runs with
    /// `auth_required = false`; under `auth_required = true` a session
    /// that skips it executes as the default-deny anonymous principal.
    Hello {
        principal: String,
        attributes: Vec<(String, String)>,
    },
    /// Execute one SQL statement. `query_id` is a client-chosen handle
    /// for out-of-band cancellation (0 = not cancellable).
    Execute { sql: String, query_id: u64 },
    /// Abort the in-flight statement registered under `query_id` —
    /// necessarily sent on a *different* connection, since the submitting
    /// one is blocked awaiting its result (the Postgres cancel model).
    Cancel { query_id: u64 },
    /// Register a UDF from a compiled module, which the server verifies, in
    /// `placement`: one byte, nonzero for a worker (Design 4).
    RegisterUdf {
        name: String,
        signature: WireSignature,
        module: Vec<u8>,
        function: String,
        placement: Placement,
    },
    /// Download a previously registered VM UDF for client-side execution.
    FetchUdf { name: String },
    /// Request a snapshot of the server's metrics registry.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Orderly disconnect.
    Quit,
}

/// Server → client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Result set (possibly empty; `affected` covers DML).
    Result {
        schema: Schema,
        rows: Vec<Tuple>,
        affected: u64,
        stats: WireStats,
    },
    /// Registration acknowledged.
    Registered,
    /// `Hello` acknowledged: the session now executes as its principal.
    HelloAck,
    /// A UDF module for client-side execution.
    Module {
        signature: WireSignature,
        module: Vec<u8>,
        function: String,
    },
    /// Snapshot of the server's metrics registry: every counter by name,
    /// plus the full human-readable rendering (which also covers gauges
    /// and histograms).
    Metrics {
        counters: Vec<(String, u64)>,
        text: String,
    },
    Pong,
    /// Response to `Cancel`: whether `query_id` named a live statement.
    /// (`found: false` is normal when the statement finished first.)
    CancelAck {
        found: bool,
    },
    /// The request was shed at admission (queue full or admission
    /// deadline expired). Distinct from `Error` so clients can treat it
    /// as retryable: the statement never started executing, and
    /// `retry_after_ms` hints when a retry is worth making.
    Busy {
        retry_after_ms: u64,
    },
    /// Execution or protocol failure (rendered error).
    Error {
        message: String,
    },
}

const C_EXECUTE: u8 = 0x01;
const C_REGISTER: u8 = 0x03;
const C_FETCH: u8 = 0x04;
const C_PING: u8 = 0x05;
const C_QUIT: u8 = 0x06;
const C_METRICS: u8 = 0x07;
const C_CANCEL: u8 = 0x08;
const C_HELLO: u8 = 0x09;
const S_RESULT: u8 = 0x81;
const S_REGISTERED: u8 = 0x83;
const S_MODULE: u8 = 0x84;
const S_PONG: u8 = 0x85;
const S_ERROR: u8 = 0x86;
const S_METRICS: u8 = 0x87;
const S_CANCEL_ACK: u8 = 0x88;
const S_BUSY: u8 = 0x89;
const S_HELLO_ACK: u8 = 0x8A;

impl ClientMsg {
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        match self {
            ClientMsg::Hello {
                principal,
                attributes,
            } => {
                write_u8(w, C_HELLO)?;
                write_str(w, principal)?;
                write_u32(w, attributes.len() as u32)?;
                for (k, v) in attributes {
                    write_str(w, k)?;
                    write_str(w, v)?;
                }
            }
            ClientMsg::Execute { sql, query_id } => {
                write_u8(w, C_EXECUTE)?;
                write_str(w, sql)?;
                write_u64(w, *query_id)?;
            }
            ClientMsg::Cancel { query_id } => {
                write_u8(w, C_CANCEL)?;
                write_u64(w, *query_id)?;
            }
            ClientMsg::RegisterUdf {
                name,
                signature,
                module,
                function,
                placement,
            } => {
                write_u8(w, C_REGISTER)?;
                write_str(w, name)?;
                signature.write(w)?;
                write_blob(w, module)?;
                write_str(w, function)?;
                write_u8(w, u8::from(*placement == Placement::Worker))?;
            }
            ClientMsg::FetchUdf { name } => {
                write_u8(w, C_FETCH)?;
                write_str(w, name)?;
            }
            ClientMsg::Metrics => write_u8(w, C_METRICS)?,
            ClientMsg::Ping => write_u8(w, C_PING)?,
            ClientMsg::Quit => write_u8(w, C_QUIT)?,
        }
        Ok(())
    }

    pub fn read(r: &mut &[u8]) -> Result<ClientMsg> {
        Ok(match read_u8(r)? {
            C_HELLO => {
                let principal = read_str(r)?;
                let n = read_u32(r)?;
                if n > MAX_WIRE_ATTRS {
                    return Err(JaguarError::Protocol(format!(
                        "implausible attribute count {n} (limit {MAX_WIRE_ATTRS})"
                    )));
                }
                // Grow as pairs actually decode; the count prefix is
                // untrusted.
                let mut attributes = Vec::new();
                for _ in 0..n {
                    let k = read_str(r)?;
                    attributes.push((k, read_str(r)?));
                }
                ClientMsg::Hello {
                    principal,
                    attributes,
                }
            }
            C_EXECUTE => ClientMsg::Execute {
                sql: read_str(r)?,
                query_id: read_u64(r)?,
            },
            C_CANCEL => ClientMsg::Cancel {
                query_id: read_u64(r)?,
            },
            C_REGISTER => ClientMsg::RegisterUdf {
                name: read_str(r)?,
                signature: WireSignature::read(r)?,
                module: read_blob(r)?,
                function: read_str(r)?,
                placement: match read_u8(r)? {
                    0 => Placement::Server,
                    _ => Placement::Worker,
                },
            },
            C_FETCH => ClientMsg::FetchUdf { name: read_str(r)? },
            C_METRICS => ClientMsg::Metrics,
            C_PING => ClientMsg::Ping,
            C_QUIT => ClientMsg::Quit,
            other => {
                return Err(JaguarError::Protocol(format!(
                    "unknown client message tag {other:#04x}"
                )))
            }
        })
    }
}

impl ServerMsg {
    pub fn write(&self, w: &mut impl Write) -> Result<()> {
        match self {
            ServerMsg::Result {
                schema,
                rows,
                affected,
                stats,
            } => {
                write_u8(w, S_RESULT)?;
                write_schema(w, schema)?;
                write_u64(w, *affected)?;
                write_u64(w, stats.rows_scanned)?;
                write_u64(w, stats.rows_emitted)?;
                write_u64(w, stats.udf_invocations)?;
                write_u64(w, stats.udf_callbacks)?;
                write_u64(w, stats.vm_instructions)?;
                write_u64(w, stats.vm_bytes_allocated)?;
                write_u32(w, rows.len() as u32)?;
                for t in rows {
                    write_tuple(w, t)?;
                }
            }
            ServerMsg::Registered => write_u8(w, S_REGISTERED)?,
            ServerMsg::HelloAck => write_u8(w, S_HELLO_ACK)?,
            ServerMsg::Module {
                signature,
                module,
                function,
            } => {
                write_u8(w, S_MODULE)?;
                signature.write(w)?;
                write_blob(w, module)?;
                write_str(w, function)?;
            }
            ServerMsg::Metrics { counters, text } => {
                write_u8(w, S_METRICS)?;
                write_u32(w, counters.len() as u32)?;
                for (name, v) in counters {
                    write_str(w, name)?;
                    write_u64(w, *v)?;
                }
                write_str(w, text)?;
            }
            ServerMsg::Pong => write_u8(w, S_PONG)?,
            ServerMsg::CancelAck { found } => {
                write_u8(w, S_CANCEL_ACK)?;
                write_u8(w, *found as u8)?;
            }
            ServerMsg::Busy { retry_after_ms } => {
                write_u8(w, S_BUSY)?;
                write_u64(w, *retry_after_ms)?;
            }
            ServerMsg::Error { message } => {
                write_u8(w, S_ERROR)?;
                write_str(w, message)?;
            }
        }
        Ok(())
    }

    pub fn read(r: &mut &[u8]) -> Result<ServerMsg> {
        Ok(match read_u8(r)? {
            S_RESULT => {
                let schema = read_schema(r)?;
                let affected = read_u64(r)?;
                let stats = WireStats {
                    rows_scanned: read_u64(r)?,
                    rows_emitted: read_u64(r)?,
                    udf_invocations: read_u64(r)?,
                    udf_callbacks: read_u64(r)?,
                    vm_instructions: read_u64(r)?,
                    vm_bytes_allocated: read_u64(r)?,
                };
                let n = read_u32(r)?;
                if n > MAX_WIRE_ROWS {
                    return Err(JaguarError::Protocol(format!("implausible row count {n}")));
                }
                // Grow as rows actually decode; the count prefix is untrusted.
                let mut rows = Vec::new();
                for _ in 0..n {
                    rows.push(next_tuple(r)?);
                }
                ServerMsg::Result {
                    schema,
                    rows,
                    affected,
                    stats,
                }
            }
            S_REGISTERED => ServerMsg::Registered,
            S_HELLO_ACK => ServerMsg::HelloAck,
            S_MODULE => ServerMsg::Module {
                signature: WireSignature::read(r)?,
                module: read_blob(r)?,
                function: read_str(r)?,
            },
            S_METRICS => {
                let n = read_u32(r)?;
                if n > 65_535 {
                    return Err(JaguarError::Protocol(format!(
                        "implausible metric count {n}"
                    )));
                }
                let mut counters = Vec::new();
                for _ in 0..n {
                    let name = read_str(r)?;
                    counters.push((name, read_u64(r)?));
                }
                ServerMsg::Metrics {
                    counters,
                    text: read_str(r)?,
                }
            }
            S_PONG => ServerMsg::Pong,
            S_CANCEL_ACK => ServerMsg::CancelAck {
                found: read_u8(r)? != 0,
            },
            S_BUSY => ServerMsg::Busy {
                retry_after_ms: read_u64(r)?,
            },
            S_ERROR => ServerMsg::Error {
                message: read_str(r)?,
            },
            other => {
                return Err(JaguarError::Protocol(format!(
                    "unknown server message tag {other:#04x}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::polled::{Outbox, Polled};
    use jaguar_common::stream::whole;
    use jaguar_common::{ByteArray, Value};
    use std::io::Cursor;
    use std::sync::Arc;

    /// The frame of one message whose body `encode` writes.
    fn framed(encode: impl FnOnce(&mut Vec<u8>) -> Result<()>) -> Vec<u8> {
        let mut out = Outbox::new(Vec::new());
        out.send(encode).unwrap();
        std::mem::take(out.get_mut())
    }

    /// The one message framed in `bytes`, as `decode` reads its body.
    fn read_frame<T>(bytes: &[u8], decode: fn(&mut &[u8]) -> Result<T>) -> Result<T> {
        Polled::new(Cursor::new(bytes), Arc::default()).read(decode)
    }

    fn roundtrip_c(m: ClientMsg) {
        let bytes = framed(|b| m.write(b));
        assert_eq!(read_frame(&bytes, ClientMsg::read).unwrap(), m);
    }

    fn roundtrip_s(m: ServerMsg) {
        let bytes = framed(|b| m.write(b));
        assert_eq!(read_frame(&bytes, ServerMsg::read).unwrap(), m);
    }

    fn every_client_msg() -> Vec<ClientMsg> {
        vec![
            ClientMsg::Hello {
                principal: "alice".into(),
                attributes: vec![
                    ("tenant".into(), "tech".into()),
                    ("role".into(), "member".into()),
                ],
            },
            ClientMsg::Hello {
                principal: "bob".into(),
                attributes: vec![],
            },
            ClientMsg::Execute {
                sql: "SELECT 1".into(),
                query_id: 42,
            },
            ClientMsg::Cancel { query_id: 42 },
            ClientMsg::RegisterUdf {
                name: "investval".into(),
                signature: WireSignature {
                    params: vec![DataType::Bytes],
                    ret: DataType::Int,
                },
                module: vec![1, 2, 3],
                function: "main".into(),
                placement: Placement::Worker,
            },
            ClientMsg::FetchUdf {
                name: "investval".into(),
            },
            ClientMsg::Metrics,
            ClientMsg::Ping,
            ClientMsg::Quit,
        ]
    }

    fn every_server_msg() -> Vec<ServerMsg> {
        vec![
            ServerMsg::Result {
                schema: Schema::of(&[("a", DataType::Int), ("b", DataType::Bytes)]),
                rows: vec![
                    Tuple::new(vec![Value::Int(1), Value::Bytes(ByteArray::zeroed(5))]),
                    Tuple::new(vec![Value::Null, Value::Null]),
                ],
                affected: 2,
                stats: WireStats {
                    rows_scanned: 10,
                    rows_emitted: 2,
                    udf_invocations: 4,
                    udf_callbacks: 1,
                    vm_instructions: 999,
                    vm_bytes_allocated: 1024,
                },
            },
            ServerMsg::Registered,
            ServerMsg::HelloAck,
            ServerMsg::Module {
                signature: WireSignature {
                    params: vec![],
                    ret: DataType::Int,
                },
                module: vec![9],
                function: "main".into(),
            },
            ServerMsg::Metrics {
                counters: vec![
                    ("udf.invocations.jsm".into(), 7),
                    ("ipc.crossings".into(), 3),
                ],
                text: "counter udf.invocations.jsm 7\n".into(),
            },
            ServerMsg::Pong,
            ServerMsg::CancelAck { found: true },
            ServerMsg::CancelAck { found: false },
            ServerMsg::Busy { retry_after_ms: 0 },
            ServerMsg::Busy {
                retry_after_ms: 1_500,
            },
            ServerMsg::Error {
                message: "boom".into(),
            },
        ]
    }

    #[test]
    fn client_messages_roundtrip() {
        every_client_msg().into_iter().for_each(roundtrip_c);
    }

    #[test]
    fn server_messages_roundtrip() {
        every_server_msg().into_iter().for_each(roundtrip_s);
    }

    #[test]
    fn unknown_tags_rejected() {
        assert!(whole(&[0xFF], ClientMsg::read).is_err());
        assert!(whole(&[0x00], ServerMsg::read).is_err());
        // The retired EXPLAIN request and plan reply tags: EXPLAIN is an
        // `Execute` like any statement.
        assert!(whole(&[0x02, 0, 0, 0, 0], ClientMsg::read).is_err());
        assert!(whole(&[0x82, 0, 0, 0, 0], ServerMsg::read).is_err());
    }

    #[test]
    fn oversized_declared_lengths_rejected_without_allocation() {
        // Execute frame whose SQL string claims 1 GB: must fail decode
        // before any gigabyte-sized buffer exists.
        let mut frame = vec![0x01u8];
        frame.extend_from_slice(&(1u32 << 30).to_le_bytes());
        let err = whole(&frame, ClientMsg::read).unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");

        // Signature declaring 255 parameters.
        let mut frame = vec![0x03u8]; // RegisterUdf
        frame.extend_from_slice(&4u32.to_le_bytes());
        frame.extend_from_slice(b"name");
        frame.push(255); // param count
        let err = whole(&frame, ClientMsg::read).unwrap_err();
        assert!(err.to_string().contains("parameter count"), "{err}");

        // Hello frame declaring u32::MAX session attributes.
        let mut frame = vec![0x09u8];
        frame.extend_from_slice(&5u32.to_le_bytes());
        frame.extend_from_slice(b"alice");
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = whole(&frame, ClientMsg::read).unwrap_err();
        assert!(err.to_string().contains("attribute count"), "{err}");

        // Result frame declaring u32::MAX rows.
        let mut frame = vec![0x81u8];
        frame.extend_from_slice(&0u32.to_le_bytes()); // empty schema
        frame.extend_from_slice(&[0u8; 7 * 8]); // affected + 6 stats
        frame.extend_from_slice(&u32::MAX.to_le_bytes()); // row count
        let err = whole(&frame, ServerMsg::read).unwrap_err();
        assert!(err.to_string().contains("implausible row count"), "{err}");
    }

    #[test]
    fn truncated_frames_are_decode_errors() {
        // A body that declares more payload than it carries must produce
        // an error, not a hang or a partial message.
        let mut buf = Vec::new();
        ClientMsg::Execute {
            sql: "SELECT 1 FROM investments".into(),
            query_id: 7,
        }
        .write(&mut buf)
        .unwrap();
        for cut in 1..buf.len() {
            assert!(
                whole(&buf[..cut], ClientMsg::read).is_err(),
                "truncation at {cut} decoded successfully"
            );
        }
    }

    /// Every strict prefix of every message's frame, either way, is
    /// refused — never a panic, a hang or a decoded message — and so is a
    /// message with one byte more in its body than its decoder reads.
    #[test]
    fn every_cut_or_padded_frame_is_refused_both_ways() {
        fn check<T: std::fmt::Debug>(body: Vec<u8>, decode: fn(&mut &[u8]) -> Result<T>) {
            let bytes = framed(|b| {
                b.extend_from_slice(&body);
                Ok(())
            });
            for cut in 0..bytes.len() {
                let got = read_frame(&bytes[..cut], decode);
                assert!(got.is_err(), "cut at {cut}: {got:?}");
            }
            let padded = framed(|b| {
                b.extend_from_slice(&body);
                b.push(0);
                Ok(())
            });
            let e = read_frame(&padded, decode).unwrap_err();
            assert!(
                matches!(&e, JaguarError::Protocol(m) if m.contains("1 trailing")),
                "{e}"
            );
        }
        for m in every_client_msg() {
            check(framed(|b| m.write(b))[4..].to_vec(), ClientMsg::read);
        }
        for m in every_server_msg() {
            check(framed(|b| m.write(b))[4..].to_vec(), ServerMsg::read);
        }
    }
}

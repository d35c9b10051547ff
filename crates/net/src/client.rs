//! The database client library.
//!
//! The programmatic face of the paper's applet client: connect, run SQL,
//! and move UDFs in both directions —
//!
//! * [`Client::compile_and_register`]: compile JagScript locally,
//!   (optionally) smoke-test it locally, and upload the bytecode,
//! * [`Client::fetch_udf`]: download a registered UDF and run it at the
//!   client — "this allows UDF code to be run without change at either
//!   site" (§6.4).

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use jaguar_common::config::Config;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::polled::{Outbox, Polled};
use jaguar_common::retry::{self, RetryPolicy};
use jaguar_common::schema::Schema;
use jaguar_common::{Tuple, Value};
use jaguar_ipc::proto::{CallbackHandler, NoCallbacks};
use jaguar_udf::Placement;
use jaguar_udf::{ScalarUdf, UdfSignature, VmUdf};
use jaguar_vm::interp::ExecMode;
use jaguar_vm::{Module, ResourceLimits};

use crate::wire::{ClientMsg, ServerMsg, WireSignature, WireStats};

/// A client-side result set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResult {
    pub schema: Schema,
    pub rows: Vec<Tuple>,
    pub affected: u64,
    pub stats: WireStats,
}

/// Socket-level timeouts and the retry budget for a [`Client`]
/// connection. The defaults match [`Config::default`]; `None` read/write
/// timeouts mean "block forever" (pre-timeout behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientOptions {
    pub connect_timeout: Duration,
    pub read_timeout: Option<Duration>,
    pub write_timeout: Option<Duration>,
    /// Backoff policy for retryable failures: transient connect errors,
    /// and requests the server shed at admission (`ServerBusy` — the
    /// statement never started, so a retry is always safe). The server's
    /// `retry_after_ms` hint floors each backoff sleep. Use
    /// [`RetryPolicy::none`] to surface every failure immediately.
    pub retry: RetryPolicy,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions::from_config(&Config::default())
    }
}

impl ClientOptions {
    /// Timeouts from a [`Config`]'s `client_*_timeout_ms` knobs and the
    /// retry budget from its `client_retry_*` knobs.
    pub fn from_config(c: &Config) -> ClientOptions {
        ClientOptions {
            connect_timeout: Duration::from_millis(c.client_connect_timeout_ms),
            read_timeout: c.client_read_timeout_ms.map(Duration::from_millis),
            write_timeout: c.client_write_timeout_ms.map(Duration::from_millis),
            retry: RetryPolicy {
                max_attempts: c.client_retry_attempts.max(1),
                base_delay_ms: c.client_retry_base_ms,
                ..RetryPolicy::default()
            },
        }
    }

    /// Disable retries: every failure (including `ServerBusy`) surfaces
    /// on the first attempt. Chaos and load tests use this to observe the
    /// server's raw shed behaviour.
    pub fn no_retry(mut self) -> ClientOptions {
        self.retry = RetryPolicy::none();
        self
    }
}

/// Process-wide query-id counter; combined with the connection's local
/// port so ids from different clients of the same server don't collide.
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// A connection to a Jaguar server.
pub struct Client {
    reader: Polled<TcpStream>,
    writer: Outbox<TcpStream>,
    /// The first roundtrip that failed in transport or decoding. It may
    /// have left a late reply or the rest of a frame in the socket, so
    /// every later reply read here could be some other statement's.
    broken: Option<String>,
    /// The server address, kept for out-of-band cancel connections.
    server_addr: SocketAddr,
    options: ClientOptions,
    /// Id namespace for this connection's statements.
    id_prefix: u64,
    /// The query id currently awaiting its result (0 = idle). Shared with
    /// [`CancelHandle`]s so they always target the in-flight statement.
    current_query: Arc<AtomicU64>,
}

impl Client {
    /// Connect to `addr` (e.g. `"127.0.0.1:5432"`) with default timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        Client::connect_with(addr, ClientOptions::default())
    }

    /// Connect with explicit socket timeouts. The connect itself is
    /// bounded by `options.connect_timeout`, and every later read/write on
    /// the connection by the respective timeout — a half-open socket or a
    /// stalled server surfaces as an I/O error instead of a hang.
    pub fn connect_with(addr: impl ToSocketAddrs, options: ClientOptions) -> Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        // Transient connect failures (timeouts, refused during a restart
        // or accept backlog overflow) are retried under the backoff
        // policy; anything else surfaces immediately.
        let (stream, server_addr) =
            options
                .retry
                .run("net.client.connect", retry::is_retryable_net, || {
                    let mut last_err = None;
                    for resolved in &addrs {
                        match TcpStream::connect_timeout(resolved, options.connect_timeout) {
                            Ok(s) => return Ok((s, *resolved)),
                            Err(e) => last_err = Some(e),
                        }
                    }
                    Err(last_err.map(JaguarError::Io).unwrap_or_else(|| {
                        JaguarError::Protocol("address resolved to no socket addresses".into())
                    }))
                })?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(options.read_timeout)?;
        stream.set_write_timeout(options.write_timeout)?;
        let id_prefix = u64::from(stream.local_addr().map(|a| a.port()).unwrap_or(0)) << 48;
        Ok(Client {
            reader: Polled::new(
                stream.try_clone()?,
                obs::global().counter("net.polled_replies"),
            ),
            writer: Outbox::new(stream),
            broken: None,
            server_addr,
            options,
            id_prefix,
            current_query: Arc::new(AtomicU64::new(0)),
        })
    }

    /// One request and its reply. A failure to send the request or to
    /// read its reply whole breaks the connection: every later call fails
    /// at once, naming that failure, and reconnecting is the caller's job.
    /// `Error` and `Busy` frames arrive whole and break nothing.
    fn roundtrip(&mut self, msg: &ClientMsg) -> Result<ServerMsg> {
        if let Some(first) = &self.broken {
            return Err(JaguarError::Protocol(format!(
                "connection out of step since an earlier failure ({first}); reconnect"
            )));
        }
        let sent = self.writer.send(|frame| msg.write(frame));
        let reply = sent
            .and_then(|()| self.reader.read(ServerMsg::read))
            .inspect_err(|e| self.broken = Some(e.to_string()))?;
        match &reply {
            ServerMsg::Error { message } => {
                Err(JaguarError::Protocol(format!("server: {message}")))
            }
            ServerMsg::Busy { retry_after_ms } => Err(JaguarError::ServerBusy {
                retry_after_ms: *retry_after_ms,
            }),
            _ => Ok(reply),
        }
    }

    /// A roundtrip that retries when the server sheds the request at
    /// admission. Safe for any message: `Busy` means the server did not
    /// start processing, so re-sending cannot double-execute. The
    /// server's `retry_after_ms` hint floors each backoff sleep.
    fn roundtrip_admitted(&mut self, msg: &ClientMsg) -> Result<ServerMsg> {
        let retry = self.options.retry;
        retry.run_with_hint(
            "net.client.request",
            |e| matches!(e, JaguarError::ServerBusy { .. }),
            |e| match e {
                JaguarError::ServerBusy { retry_after_ms } => Some(*retry_after_ms),
                _ => None,
            },
            || self.roundtrip(msg),
        )
    }

    /// Introduce this session's principal and attributes to the server.
    /// Every later statement on this connection executes under that
    /// principal: row/column labels referencing `session.<attr>` resolve
    /// against `attributes`. Send it once, before any statement; servers
    /// running with `auth_required` treat sessions that skip it as the
    /// default-deny anonymous principal.
    pub fn hello(&mut self, principal: &str, attributes: &[(&str, &str)]) -> Result<()> {
        match self.roundtrip(&ClientMsg::Hello {
            principal: principal.into(),
            attributes: attributes
                .iter()
                .map(|(k, v)| ((*k).into(), (*v).into()))
                .collect(),
        })? {
            ServerMsg::HelloAck => Ok(()),
            other => Err(JaguarError::Protocol(format!(
                "expected HelloAck, got {other:?}"
            ))),
        }
    }

    /// Execute one SQL statement on the server.
    ///
    /// While this call blocks, a [`CancelHandle`] taken from this client
    /// (before the call, from another thread) can abort the statement;
    /// the call then returns the server's `cancelled` error and the
    /// connection stays usable for further statements.
    pub fn execute(&mut self, sql: &str) -> Result<ClientResult> {
        let query_id =
            self.id_prefix | (NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed) & 0xFFFF_FFFF_FFFF);
        self.current_query.store(query_id, Ordering::Release);
        let out = self.roundtrip_admitted(&ClientMsg::Execute {
            sql: sql.into(),
            query_id,
        });
        self.current_query.store(0, Ordering::Release);
        match out? {
            ServerMsg::Result {
                schema,
                rows,
                affected,
                stats,
            } => Ok(ClientResult {
                schema,
                rows,
                affected,
                stats,
            }),
            other => Err(JaguarError::Protocol(format!(
                "expected Result, got {other:?}"
            ))),
        }
    }

    /// A handle for cancelling whatever statement this client has in
    /// flight, from another thread, over its own connection (this one is
    /// blocked inside [`Client::execute`] while a statement runs).
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            server_addr: self.server_addr,
            options: self.options,
            current_query: Arc::clone(&self.current_query),
        }
    }

    /// The server's plan for a statement, as
    /// [`Engine::explain`](jaguar_sql::Engine::explain) renders it: an
    /// `EXPLAIN` statement executed like any other — under this session's
    /// principal and the statement timeout, cancellable through a
    /// [`CancelHandle`]. Text that already starts with `EXPLAIN` (for
    /// instance `EXPLAIN ANALYZE …`) is sent as it is.
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let first = sql.split_whitespace().next().unwrap_or_default();
        let result = if first.eq_ignore_ascii_case("explain") {
            self.execute(sql)?
        } else {
            self.execute(&format!("EXPLAIN {sql}"))?
        };
        jaguar_sql::plan_text(&result.rows)
    }

    /// Fetch a snapshot of the server's metrics registry.
    pub fn metrics(&mut self) -> Result<ServerMetrics> {
        match self.roundtrip(&ClientMsg::Metrics)? {
            ServerMsg::Metrics { counters, text } => Ok(ServerMetrics { counters, text }),
            other => Err(JaguarError::Protocol(format!(
                "expected Metrics, got {other:?}"
            ))),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&ClientMsg::Ping)? {
            ServerMsg::Pong => Ok(()),
            other => Err(JaguarError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Upload an already-compiled module as a UDF.
    pub fn register_udf(
        &mut self,
        name: &str,
        signature: &UdfSignature,
        module_bytes: &[u8],
        function: &str,
        placement: Placement,
    ) -> Result<()> {
        match self.roundtrip_admitted(&ClientMsg::RegisterUdf {
            name: name.into(),
            signature: WireSignature {
                params: signature.params.clone(),
                ret: signature.ret,
            },
            module: module_bytes.to_vec(),
            function: function.into(),
            placement,
        })? {
            ServerMsg::Registered => Ok(()),
            other => Err(JaguarError::Protocol(format!(
                "expected Registered, got {other:?}"
            ))),
        }
    }

    /// The full §6.4 authoring loop: compile JagScript source locally,
    /// verify it locally, optionally smoke-test it locally with the given
    /// arguments, then upload it under `name`.
    pub fn compile_and_register(
        &mut self,
        name: &str,
        signature: &UdfSignature,
        jagscript_source: &str,
        smoke_args: Option<&[Value]>,
    ) -> Result<()> {
        let module = jaguar_lang::compile(name, jagscript_source)?;
        let bytes = module.to_bytes();
        // Local test before shipping: same bytecode, same sandbox.
        if let Some(args) = smoke_args {
            let mut local = VmUdf::new(
                name,
                signature.clone(),
                std::sync::Arc::new(Module::from_bytes(&bytes)?.verify()?),
                "main",
                ResourceLimits::default(),
                ExecMode::Jit,
                None,
            )?;
            local.invoke(args, &mut NoCallbacks)?;
        }
        self.register_udf(name, signature, &bytes, "main", Placement::Server)
    }

    /// Download a registered UDF and instantiate it for **client-side**
    /// execution — the same verified bytecode the server runs.
    pub fn fetch_udf(&mut self, name: &str) -> Result<LocalUdf> {
        match self.roundtrip_admitted(&ClientMsg::FetchUdf { name: name.into() })? {
            ServerMsg::Module {
                signature,
                module,
                function,
            } => {
                let sig = UdfSignature::new(signature.params, signature.ret);
                let verified = std::sync::Arc::new(Module::from_bytes(&module)?.verify()?);
                let inner = VmUdf::new(
                    name,
                    sig,
                    verified,
                    function,
                    ResourceLimits::default(),
                    ExecMode::Jit,
                    None,
                )?;
                Ok(LocalUdf { inner })
            }
            other => Err(JaguarError::Protocol(format!(
                "expected Module, got {other:?}"
            ))),
        }
    }

    /// Orderly disconnect.
    pub fn quit(mut self) -> Result<()> {
        self.writer.send(|frame| ClientMsg::Quit.write(frame))
    }
}

/// Aborts a [`Client`]'s in-flight statement out of band — the Postgres
/// cancel model: a fresh connection carries the `Cancel` message, because
/// the submitting connection is blocked awaiting its result.
#[derive(Clone)]
pub struct CancelHandle {
    server_addr: SocketAddr,
    options: ClientOptions,
    current_query: Arc<AtomicU64>,
}

impl CancelHandle {
    /// Cancel the client's in-flight statement, if any. Returns whether
    /// the server found (and cancelled) a live statement — `false` means
    /// the statement already finished or none was running, which is not
    /// an error.
    pub fn cancel(&self) -> Result<bool> {
        let query_id = self.current_query.load(Ordering::Acquire);
        if query_id == 0 {
            return Ok(false);
        }
        let mut client = Client::connect_with(self.server_addr, self.options.no_retry())?;
        match client.roundtrip(&ClientMsg::Cancel { query_id })? {
            ServerMsg::CancelAck { found } => {
                let _ = client.quit();
                Ok(found)
            }
            other => Err(JaguarError::Protocol(format!(
                "expected CancelAck, got {other:?}"
            ))),
        }
    }
}

/// A snapshot of the server's metrics registry, as returned by
/// [`Client::metrics`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerMetrics {
    /// Every counter by name.
    pub counters: Vec<(String, u64)>,
    /// Human-readable rendering of the full registry (counters, gauges,
    /// and histograms).
    pub text: String,
}

impl ServerMetrics {
    /// Value of a named counter (0 if the server never touched it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of all counters whose name starts with `prefix`.
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }
}

/// A UDF migrated to the client (§6.4: identical invocation protocol at
/// both sites).
pub struct LocalUdf {
    inner: VmUdf,
}

impl LocalUdf {
    pub fn name(&self) -> &str {
        self.inner.name()
    }

    pub fn signature(&self) -> &UdfSignature {
        self.inner.signature()
    }

    /// Invoke locally, with no callback channel (pure functions only).
    pub fn invoke(&mut self, args: &[Value]) -> Result<Value> {
        self.inner.invoke(args, &mut NoCallbacks)
    }

    /// Invoke locally with a caller-supplied callback handler.
    pub fn invoke_with_callbacks(
        &mut self,
        args: &[Value],
        callbacks: &mut dyn CallbackHandler,
    ) -> Result<Value> {
        self.inner.invoke(args, callbacks)
    }
}

#[cfg(test)]
mod tests {
    use std::io::ErrorKind;
    use std::sync::{mpsc, Mutex};
    use std::time::Instant;

    use jaguar_common::{fault, obs, DataType};
    use jaguar_sql::Engine;
    use jaguar_udf::{UdfDef, UdfImpl, Volatility};

    use super::*;
    use crate::Server;

    fn native(
        engine: &Engine,
        name: &str,
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) {
        let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
        let imp = UdfImpl::closure(f);
        let def = UdfDef::new(name, sig, imp).with_volatility(Volatility::Volatile);
        engine.catalog().udfs().register(def);
    }

    /// The client waits for its reply through the session's reader: the
    /// reply arrives whole whether it came within the poll or after it, the
    /// read timeout still fires behind the poll, and a reply cut off
    /// mid-frame is a clean error that breaks the connection for every
    /// later call.
    #[test]
    fn client_waits_for_its_reply_through_the_shared_reader() {
        let engine = Arc::new(Engine::in_memory(Config::default()));
        // `spin` works ten windows; `gate` holds its statement until
        // released.
        native(&engine, "spin", |args, _| {
            let start = Instant::now();
            while start.elapsed() < Duration::from_millis(1) {}
            Ok(args[0].clone())
        });
        let (release, held) = mpsc::channel::<()>();
        let held = Mutex::new(held);
        native(&engine, "gate", move |args, _| {
            let _ = held.lock().unwrap().recv();
            Ok(args[0].clone())
        });
        let server = Server::start(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let options = ClientOptions {
            read_timeout: Some(Duration::from_millis(250)),
            ..ClientOptions::default().no_retry()
        };
        let mut client = Client::connect_with(server.addr(), options).unwrap();
        client.execute("CREATE TABLE t (a INT)").unwrap();
        client
            .execute("INSERT INTO t VALUES (1), (2), (3)")
            .unwrap();
        let replies = || obs::global().snapshot().counter("net.polled_replies");

        // Every reply read polls, and reads the same rows.
        let before = replies();
        let blocked = client.execute("SELECT a FROM t").unwrap();
        let polled = client.execute("SELECT a FROM t").unwrap();
        assert_eq!(polled, blocked);
        assert_eq!(polled.rows.len(), 3);
        assert!(replies() >= before + 2, "the reads polled");
        client.ping().unwrap();

        // A statement slower than the window: the blocking read behind the
        // poll delivers its reply.
        let slow = client.execute("SELECT spin(a) FROM t").unwrap();
        assert_eq!(slow.rows, blocked.rows);

        // A reply cut off mid-frame: a clean decode error, then refusals
        // that name it. Armed while no other session can answer, since
        // the site takes the next reply any session writes.
        let mut cut_off = Client::connect_with(server.addr(), options).unwrap();
        fault::arm("net.server.drop_mid_response", 1);
        let cut = cut_off.execute("SELECT a FROM t").unwrap_err();
        fault::disarm("net.server.drop_mid_response");
        assert!(
            matches!(&cut, JaguarError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
            "{cut}"
        );
        let refused = cut_off.execute("SELECT a FROM t").unwrap_err();
        assert!(
            matches!(&refused, JaguarError::Protocol(m) if m.contains(&cut.to_string())),
            "{refused}"
        );
        let mut fresh = Client::connect_with(server.addr(), options).unwrap();
        assert_eq!(fresh.execute("SELECT a FROM t").unwrap(), blocked);

        // The read timeout still fires: the read behind the poll blocks
        // for it instead of failing at once.
        let start = Instant::now();
        let timed_out = client.execute("SELECT gate(a) FROM t").unwrap_err();
        assert!(start.elapsed() >= Duration::from_millis(225), "{timed_out}");
        assert!(
            matches!(&timed_out, JaguarError::Io(e)
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)),
            "{timed_out}"
        );
        drop(release);
        let refused = client.ping().unwrap_err();
        assert!(
            matches!(&refused, JaguarError::Protocol(m) if m.contains(&timed_out.to_string())),
            "{refused}"
        );
    }
}

//! The threaded database server.
//!
//! One OS thread per connected client (the paper's PREDATOR is "a single
//! multi-threaded process, with at least one thread per connected
//! client"). Each thread speaks the [`crate::wire`] protocol against a
//! shared [`Engine`].
//!
//! UDF registration policy (the §6 security posture):
//!
//! 1. the uploaded module is decoded and **bytecode-verified here** —
//!    whatever the client's toolchain claimed is irrelevant (§2.4),
//! 2. its host imports must all name callbacks the server actually
//!    offers; anything else is rejected at registration time (class-loader
//!    style gating, §6.1),
//! 3. at runtime it executes under a permission set granting exactly
//!    those imports (least privilege, \[SS75\]) and under the engine's
//!    fuel/memory limits (§6.2).

use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::{fault, obs};
use jaguar_sec::SessionContext;
use jaguar_sql::Engine;
use jaguar_udf::{UdfDef, UdfImpl, UdfSignature, VmUdfSpec};
use jaguar_vm::{Module, Permission, PermissionSet, ResourceLimits};

use crate::admission::{AdmissionGate, Permit, Shed};
use crate::wire::{ClientMsg, ServerMsg, WireSignature, WireStats};

/// Log target for everything the server emits.
const TARGET: &str = "jaguar-net";

/// Fault site: drop the connection after writing only part of a response
/// (exercised by chaos tests via [`jaguar_common::fault`]).
const FAULT_DROP_MID_RESPONSE: &str = "net.server.drop_mid_response";

/// In-flight statements by client-chosen query id, shared by every client
/// thread so a `Cancel` on one connection can reach a statement running on
/// another (the submitting connection is blocked awaiting its result).
type QueryRegistry = Arc<Mutex<HashMap<u64, CancelToken>>>;

/// Removes a query-id registration when the statement finishes, on every
/// exit path (including panics unwinding out of the engine).
struct QueryGuard {
    queries: QueryRegistry,
    id: u64,
}

impl Drop for QueryGuard {
    fn drop(&mut self) {
        self.queries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&self.id);
    }
}

/// One tracked client connection: the stream handle the server can shut
/// down from outside, and the thread serving it.
struct ClientSlot {
    stream: TcpStream,
    handle: JoinHandle<()>,
}

/// A running server; dropping it (or calling [`Server::stop`]) shuts the
/// listener down **and joins every client thread**, so no request is still
/// executing against the shared engine once `stop` returns.
///
/// All client threads execute against one shared [`Engine`], so when a
/// worker pool is attached to that engine, every connection draws its
/// isolated UDF executors from the same warm pool — worker reuse crosses
/// session boundaries.
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    clients: Arc<Mutex<Vec<ClientSlot>>>,
    gate: Arc<AdmissionGate>,
}

impl Server {
    /// Start serving `engine` on `bind_addr` (use port 0 for an ephemeral
    /// port; read the actual one from [`Server::addr`]).
    pub fn start(engine: Arc<Engine>, bind_addr: &str) -> Result<Server> {
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let server_engine = Arc::clone(&engine);
        let clients: Arc<Mutex<Vec<ClientSlot>>> = Arc::new(Mutex::new(Vec::new()));
        let clients2 = Arc::clone(&clients);
        let queries: QueryRegistry = Arc::new(Mutex::new(HashMap::new()));
        let config = engine.catalog().config();
        let gate = AdmissionGate::new(
            config.max_connections,
            config.admission_queue_depth,
            Duration::from_millis(config.admission_timeout_ms),
            Arc::clone(engine.overload()),
        );
        // Last-resort flood guard on raw connection threads: generous
        // enough that shed data-plane sessions and control-plane
        // connections (cancel, metrics) always fit, but bounded so a SYN
        // flood cannot spawn threads without limit. Everything refused
        // here still gets a clean retryable `Busy` frame.
        let hard_cap = (gate.capacity() + config.admission_queue_depth)
            .saturating_mul(4)
            .saturating_add(64);
        let gate2 = Arc::clone(&gate);

        let reg = obs::global();
        let m_accepted = reg.counter("net.connections");
        let m_rejected = reg.counter("net.rejected_busy");
        let g_active = reg.gauge("net.active_connections");

        let accept_thread = std::thread::spawn(move || {
            obs::info!(target: TARGET, "listening on {addr}");
            for conn in listener.incoming() {
                if stop2.load(Ordering::Relaxed) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        let mut slots = clients2.lock().unwrap_or_else(|p| p.into_inner());
                        reap_finished(&mut slots);
                        if slots.len() >= hard_cap {
                            m_rejected.inc();
                            obs::warn!(
                                target: TARGET,
                                "refusing connection: {} threads live (flood cap {hard_cap})",
                                slots.len()
                            );
                            refuse_busy(stream, gate2.retry_after_ms());
                            continue;
                        }
                        let Ok(tracked) = stream.try_clone() else {
                            obs::warn!(target: TARGET, "could not clone client stream; dropping connection");
                            continue;
                        };
                        m_accepted.inc();
                        let engine = Arc::clone(&engine);
                        let g_active = Arc::clone(&g_active);
                        let queries = Arc::clone(&queries);
                        let gate = Arc::clone(&gate2);
                        let handle = std::thread::spawn(move || {
                            g_active.add(1);
                            let peer = stream
                                .peer_addr()
                                .map(|a| a.to_string())
                                .unwrap_or_else(|_| "?".into());
                            obs::debug!(target: TARGET, "client {peer} connected");
                            let conn = stream.try_clone();
                            if let Err(e) = serve_client(stream, &engine, &queries, &gate) {
                                obs::warn!(target: TARGET, "client {peer}: {e}");
                            }
                            // Close the connection now: the tracked clone in
                            // the registry holds the socket's fd until the
                            // next accept reaps this slot, which would leave
                            // the peer waiting on a dead connection.
                            if let Ok(c) = conn {
                                let _ = c.shutdown(Shutdown::Both);
                            }
                            obs::debug!(target: TARGET, "client {peer} disconnected");
                            g_active.add(-1);
                        });
                        slots.push(ClientSlot {
                            stream: tracked,
                            handle,
                        });
                    }
                    Err(e) => {
                        if stop2.load(Ordering::Relaxed) {
                            break;
                        }
                        obs::warn!(target: TARGET, "accept failed: {e}");
                    }
                }
            }
        });
        Ok(Server {
            addr,
            engine: server_engine,
            stop,
            accept_thread: Some(accept_thread),
            clients,
            gate,
        })
    }

    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counters of the engine's shared worker pool (one pool across all
    /// client threads), if pooled executors are active.
    pub fn pool_stats(&self) -> Option<jaguar_pool::PoolStatsSnapshot> {
        self.engine.worker_pool().map(|p| p.stats())
    }

    /// Stop accepting connections and wait for every client thread to
    /// finish. In-flight requests run to completion (their responses are
    /// still written); sessions queued for admission are drained with a
    /// clean retryable `Busy` instead of being left to hit their read
    /// timeouts; idle connections are unblocked by shutting down the read
    /// half of their sockets.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Close the admission gate FIRST: every session waiting in the
        // queue wakes immediately, writes `ServerBusy` to its client, and
        // exits — queued clients get a prompt, retryable refusal rather
        // than dangling until their read timeout fires.
        self.gate.close();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Take ownership of every tracked client and join it. Shutting
        // down only the read half means a blocked `ClientMsg::read` sees
        // EOF and exits cleanly, while a thread mid-query can still write
        // its response before noticing.
        let slots = std::mem::take(&mut *self.clients.lock().unwrap_or_else(|p| p.into_inner()));
        for slot in slots {
            let _ = slot.stream.shutdown(Shutdown::Read);
            let _ = slot.handle.join();
        }
        // Every client is drained: checkpoint so a clean server shutdown
        // leaves nothing for crash recovery to do at the next start.
        if let Err(e) = self.engine.catalog().checkpoint() {
            obs::warn!(target: TARGET, "checkpoint on stop failed: {e}");
        }
        obs::info!(target: TARGET, "server on {} stopped", self.addr);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Join (and drop) slots whose serving thread has already exited, so the
/// registry doesn't grow with dead connections. Joining a finished thread
/// is immediate.
fn reap_finished(slots: &mut Vec<ClientSlot>) {
    let mut i = 0;
    while i < slots.len() {
        if slots[i].handle.is_finished() {
            let slot = slots.swap_remove(i);
            let _ = slot.handle.join();
        } else {
            i += 1;
        }
    }
}

/// Tell a flood-capped client the server is busy, then drop the
/// connection. Still a retryable `Busy` frame, not an opaque error.
fn refuse_busy(stream: TcpStream, retry_after_ms: u64) {
    let mut writer = std::io::BufWriter::new(stream);
    let _ = ServerMsg::Busy { retry_after_ms }.write(&mut writer);
}

/// How long a session polls its socket for the client's next message
/// before it blocks on it.
const POLL_WINDOW: Duration = Duration::from_micros(100);

/// A blocking wait this short had no wake-up worth saving in it.
const CHEAP_WAIT: Duration = Duration::from_micros(20);

/// A poll that needed no more yields than this was answered by a client
/// that ran *because* the session yielded: the two share a core.
const SHARED_CORE_MISSES: u32 = 2;

/// A session's incoming messages. A thread blocked in `recv` is woken by
/// its peer's send, and what that costs is the scheduler's draw: next to
/// nothing when client and session share a core, an inter-processor
/// interrupt into an idle (on a guest: halted) core when they do not —
/// over loopback the session of a closed-loop client then waits 60 µs for
/// a request that follows its reply by 8 µs on a shared core, two thirds
/// of an indexed read's latency, for as long as the placement lasts. So
/// once a blocking wait was neither cheap nor long, the next message is
/// polled for (non-blocking `peek`, the core yielded on every miss) for up
/// to [`POLL_WINDOW`] before the blocking read, and the request finds the
/// session awake. Polling goes on while it is what keeps this core awake
/// for a client on another one; it ends with the first message that took
/// two windows to come (a client that thinks) or that came after at most
/// [`SHARED_CORE_MISSES`] yields (a client on this core, which polling
/// would only drive off it), and the read blocks at once, as it always did.
struct Inbox {
    reader: BufReader<TcpStream>,
    poll: bool,
    m_polled: Arc<obs::Counter>,
}

impl Inbox {
    fn new(stream: TcpStream) -> Inbox {
        Inbox {
            reader: BufReader::new(stream),
            poll: false,
            m_polled: obs::global().counter("net.polled_reads"),
        }
    }

    /// The next message. A socket error met while polling is left for the
    /// blocking read to report.
    fn next(&mut self) -> Result<ClientMsg> {
        let start = Instant::now();
        let mut misses = 0;
        let stream = self.reader.get_ref();
        if self.poll && self.reader.buffer().is_empty() && stream.set_nonblocking(true).is_ok() {
            self.m_polled.inc();
            let mut byte = [0u8; 1];
            while matches!(stream.peek(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock)
                && start.elapsed() < POLL_WINDOW
            {
                misses += 1;
                std::thread::yield_now();
            }
            stream.set_nonblocking(false)?;
        }
        let msg = ClientMsg::read(&mut self.reader);
        let waited = start.elapsed();
        self.poll = waited < 2 * POLL_WINDOW
            && if self.poll {
                misses > SHARED_CORE_MISSES
            } else {
                waited >= CHEAP_WAIT
            };
        msg
    }
}

/// Does this message need an admission permit? Execution and UDF
/// management are the data plane; Cancel/Metrics/Ping/Quit are the
/// control plane and must work even on a saturated server (a cancel that
/// queues behind the statements it is meant to kill is useless).
fn needs_permit(msg: &ClientMsg) -> bool {
    matches!(
        msg,
        ClientMsg::Execute { .. }
            | ClientMsg::Explain { .. }
            | ClientMsg::RegisterUdf { .. }
            | ClientMsg::FetchUdf { .. }
    )
}

fn serve_client(
    stream: TcpStream,
    engine: &Engine,
    queries: &QueryRegistry,
    gate: &Arc<AdmissionGate>,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let mut inbox = Inbox::new(stream.try_clone()?);
    let mut writer = std::io::BufWriter::new(stream);
    let reg = obs::global();
    let m_requests = reg.counter("net.requests");
    let m_slow = reg.counter("net.slow_queries");
    let h_latency = reg.histogram("net.request_latency_us");
    let slow_query_ms = engine.catalog().config().slow_query_ms;
    let log_query_text = engine.catalog().config().log_query_text;
    // Admission permit for this session's data plane, acquired lazily at
    // the first data-plane message and held until disconnect (statements
    // within one session never re-queue behind newcomers).
    let mut permit: Option<Permit> = None;
    // Principal installed by `Hello`; statements before one (or without
    // one, when `auth_required` is on) run as the anonymous principal.
    let mut session: Option<SessionContext> = None;

    loop {
        let msg = match inbox.next() {
            Ok(m) => m,
            Err(JaguarError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => {
                return Ok(()); // client hung up (or the server shut the read half)
            }
            Err(e) => return Err(e),
        };
        m_requests.inc();
        if permit.is_none() && needs_permit(&msg) {
            match gate.acquire() {
                Ok(p) => permit = Some(p),
                Err(shed) => {
                    let retry_after_ms = gate.retry_after_ms();
                    obs::warn!(
                        target: TARGET,
                        "shedding request at admission ({shed:?}); hinting retry in {retry_after_ms} ms"
                    );
                    ServerMsg::Busy { retry_after_ms }.write(&mut writer)?;
                    if shed == Shed::Closed {
                        return Ok(()); // server stopping: drain and go
                    }
                    // Connection stays open: the client may retry on it
                    // (each retry re-queues) or switch to control-plane
                    // requests, which always work.
                    continue;
                }
            }
        }
        let sql_for_log = match &msg {
            ClientMsg::Execute { sql, .. } | ClientMsg::Explain { sql } => Some(sql.clone()),
            _ => None,
        };
        let started = Instant::now();
        let reply = handle(msg, engine, queries, &mut session);
        let elapsed = started.elapsed();
        h_latency.observe(elapsed);
        if let (Some(threshold), Some(sql)) = (slow_query_ms, sql_for_log) {
            if elapsed.as_millis() as u64 >= threshold {
                m_slow.inc();
                // Query text carries literals (tenant ids, search terms);
                // it reaches the log verbatim only when the operator has
                // opted in via `log_query_text`.
                let text = if log_query_text {
                    sql
                } else {
                    redact_literals(&sql)
                };
                obs::warn!(
                    target: TARGET,
                    "slow query ({} ms >= {threshold} ms): {text}",
                    elapsed.as_millis()
                );
            }
        }
        match reply {
            Some(r) => {
                if fault::should_fail(FAULT_DROP_MID_RESPONSE) {
                    // Encode the response, send only half of it, and drop
                    // the connection — the client must surface a clean
                    // decode error, never a hang or a garbage result.
                    let mut frame = Vec::new();
                    r.write(&mut frame)?;
                    writer.write_all(&frame[..frame.len() / 2])?;
                    writer.flush()?;
                    return Err(JaguarError::Protocol(
                        "fault injected: connection dropped mid-response".into(),
                    ));
                }
                r.write(&mut writer)?
            }
            None => return Ok(()), // Quit
        }
    }
}

/// The principal a statement on this connection executes as: the
/// `Hello`-installed session if any; otherwise — under `auth_required` —
/// the default-deny anonymous principal; otherwise the unrestricted
/// system session (open mode, matching embedded use).
fn effective_session(engine: &Engine, session: &Option<SessionContext>) -> Option<SessionContext> {
    match session {
        Some(s) => Some(s.clone()),
        None if engine.catalog().config().auth_required => Some(SessionContext::anonymous()),
        None => None,
    }
}

/// Replace string and numeric literals in `sql` with `?` so log lines
/// never leak row data (tenant ids, names, search terms). Identifiers and
/// keywords survive, so the logged shape stays diagnosable.
fn redact_literals(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\'' {
            // Swallow the whole literal, honouring '' escapes.
            while let Some(c2) = chars.next() {
                if c2 == '\'' {
                    if chars.peek() == Some(&'\'') {
                        chars.next();
                    } else {
                        break;
                    }
                }
            }
            out.push_str("'?'");
        } else if c.is_ascii_digit()
            && !out
                .chars()
                .next_back()
                .is_some_and(|p| p.is_ascii_alphanumeric() || p == '_')
        {
            while chars
                .peek()
                .is_some_and(|c2| c2.is_ascii_alphanumeric() || *c2 == '.')
            {
                chars.next();
            }
            out.push('?');
        } else {
            out.push(c);
        }
    }
    out
}

fn handle(
    msg: ClientMsg,
    engine: &Engine,
    queries: &QueryRegistry,
    session: &mut Option<SessionContext>,
) -> Option<ServerMsg> {
    Some(match msg {
        ClientMsg::Quit => return None,
        ClientMsg::Ping => ServerMsg::Pong,
        ClientMsg::Hello {
            principal,
            attributes,
        } => {
            let mut ctx = SessionContext::new(&principal);
            for (k, v) in attributes {
                ctx = ctx.with_attr(k, v);
            }
            obs::debug!(target: TARGET, "session authenticated as '{principal}'");
            *session = Some(ctx);
            ServerMsg::HelloAck
        }
        ClientMsg::Metrics => {
            let snap = obs::global().snapshot();
            ServerMsg::Metrics {
                text: snap.to_string(),
                counters: snap.counters,
            }
        }
        ClientMsg::Cancel { query_id } => {
            let token = queries
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .get(&query_id)
                .cloned();
            let found = token.is_some();
            if let Some(t) = token {
                obs::info!(target: TARGET, "cancelling query {query_id}");
                t.cancel();
            }
            ServerMsg::CancelAck { found }
        }
        ClientMsg::Execute { sql, query_id } => {
            let eff = effective_session(engine, session);
            match execute_tracked(engine, queries, &sql, query_id, eff.as_ref()) {
                Ok(result) => ServerMsg::Result {
                    schema: (*result.schema).clone(),
                    rows: result.rows,
                    affected: result.affected,
                    stats: WireStats {
                        rows_scanned: result.stats.rows_scanned,
                        rows_emitted: result.stats.rows_emitted,
                        udf_invocations: result.stats.udf_invocations,
                        udf_callbacks: result.stats.udf_callbacks,
                        vm_instructions: result.stats.vm_instructions,
                        vm_bytes_allocated: result.stats.vm_bytes_allocated,
                    },
                },
                Err(e) => ServerMsg::Error {
                    message: e.to_string(),
                },
            }
        }
        ClientMsg::Explain { sql } => {
            let eff = effective_session(engine, session);
            match engine.explain_as(&sql, eff.as_ref()) {
                Ok(text) => ServerMsg::Plan { text },
                Err(e) => ServerMsg::Error {
                    message: e.to_string(),
                },
            }
        }
        ClientMsg::RegisterUdf {
            name,
            signature,
            module,
            function,
            isolated,
        } => match register_udf(engine, &name, signature, &module, &function, isolated) {
            Ok(()) => ServerMsg::Registered,
            Err(e) => ServerMsg::Error {
                message: e.to_string(),
            },
        },
        ClientMsg::FetchUdf { name } => match fetch_udf(engine, &name) {
            Ok(m) => m,
            Err(e) => ServerMsg::Error {
                message: e.to_string(),
            },
        },
    })
}

/// Run one statement under a lifecycle token. The token carries the
/// configured statement timeout, and — when the client supplied a nonzero
/// `query_id` — is registered so a `Cancel` from another connection can
/// trip it mid-execution.
fn execute_tracked(
    engine: &Engine,
    queries: &QueryRegistry,
    sql: &str,
    query_id: u64,
    session: Option<&SessionContext>,
) -> Result<jaguar_sql::QueryResult> {
    let token = engine.new_statement_token();
    let _guard = (query_id != 0).then(|| {
        queries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(query_id, token.clone());
        QueryGuard {
            queries: Arc::clone(queries),
            id: query_id,
        }
    });
    engine.execute_cancellable_as(sql, &token, session)
}

fn register_udf(
    engine: &Engine,
    name: &str,
    signature: WireSignature,
    module_bytes: &[u8],
    function: &str,
    isolated: bool,
) -> Result<()> {
    // 1. Decode and verify HERE — the client toolchain is untrusted.
    let module = Module::from_bytes(module_bytes)?;

    // 2. Gate imports against what this server actually offers and build
    //    the least-privilege permission set.
    let mut perms = PermissionSet::deny_all(name);
    for imp in &module.imports {
        // The engine registers callbacks by lowercase name; "cb" always
        // exists. Probe by attempting a resolution-only check: we accept
        // any import for which a callback is registered.
        if !engine_has_callback(engine, &imp.name) {
            return Err(JaguarError::SecurityViolation(format!(
                "udf '{name}' imports '{}' which this server does not offer",
                imp.name
            )));
        }
        perms = perms.grant(Permission::HostCall(imp.name.clone()));
    }

    let config = engine.catalog().config().clone();
    let limits = ResourceLimits {
        fuel: config.default_fuel,
        memory: config.default_vm_memory,
        max_call_depth: config.max_call_depth,
    };
    let sig = UdfSignature::new(signature.params, signature.ret);
    let spec_module = module.verify()?; // step 1's verification
    let spec = VmUdfSpec {
        module: Arc::new(spec_module),
        module_bytes: Arc::new(module_bytes.to_vec()),
        function: function.to_string(),
        limits,
        jit: config.vm_jit_mode,
        permissions: Some(Arc::new(perms)),
        tier_up_after: config.tier_up_after,
    };
    let imp = if isolated {
        UdfImpl::IsolatedVm(spec)
    } else {
        UdfImpl::Vm(spec)
    };
    engine
        .catalog()
        .udfs()
        .register(UdfDef::new(name, sig, imp));
    Ok(())
}

/// Does the engine offer a callback with this name? The engine API has no
/// direct query, so probe the registry through a no-op registration check:
/// we keep a conservative allowlist — the always-present "cb" plus any
/// name the engine can actually dispatch (tested by calling it with no
/// arguments inside a catch).
fn engine_has_callback(engine: &Engine, name: &str) -> bool {
    engine.has_callback(name)
}

fn fetch_udf(engine: &Engine, name: &str) -> Result<ServerMsg> {
    let def = engine.catalog().udfs().get(name)?;
    match &def.imp {
        UdfImpl::Vm(spec) | UdfImpl::IsolatedVm(spec) => Ok(ServerMsg::Module {
            signature: WireSignature {
                params: def.signature.params.clone(),
                ret: def.signature.ret,
            },
            module: (*spec.module_bytes).clone(),
            function: spec.function.clone(),
        }),
        _ => Err(JaguarError::Udf(format!(
            "udf '{name}' is native server code and cannot migrate to a client"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polled for or blocked on, a message arrives whole and the socket is
    /// back in blocking mode; a message that was there already, one that
    /// took more than two windows and a closed socket all end the polling.
    #[test]
    fn inbox_delivers_alike_polling_or_blocking() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut far = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let near = listener.accept().unwrap().0;
        let mut inbox = Inbox::new(near.try_clone().unwrap());
        let ping = |far: &mut TcpStream| ClientMsg::Ping.write(far).unwrap();
        assert!(!inbox.poll, "a session starts by blocking");

        // Blocking, the message sent before the read.
        ping(&mut far);
        assert_eq!(inbox.next().unwrap(), ClientMsg::Ping);

        // Polling, the message there at the first look: no miss, so the
        // wait was as cheap as a wait gets.
        ping(&mut far);
        inbox.poll = true;
        assert_eq!(inbox.next().unwrap(), ClientMsg::Ping);
        assert!(!inbox.poll);

        // Polling, the message later than the window: the blocking read
        // behind the poll delivers it.
        inbox.poll = true;
        let late = std::thread::spawn(move || {
            std::thread::sleep(30 * POLL_WINDOW);
            ping(&mut far);
            far
        });
        assert_eq!(inbox.next().unwrap(), ClientMsg::Ping);
        assert!(!inbox.poll, "a 3 ms wait is a client that thinks");
        let far = late.join().unwrap();

        // Blocking mode: with nothing to read, a timed read takes its
        // time-out to fail where a non-blocking one fails at once.
        near.set_read_timeout(Some(Duration::from_millis(30)))
            .unwrap();
        let start = Instant::now();
        assert!(inbox.next().is_err());
        assert!(start.elapsed() >= Duration::from_millis(25));

        drop(far);
        inbox.poll = true;
        let eof = inbox.next().unwrap_err();
        assert!(
            matches!(&eof, JaguarError::Io(e) if e.kind() == ErrorKind::UnexpectedEof),
            "{eof}"
        );
    }

    #[test]
    fn redaction_strips_literals_but_keeps_shape() {
        assert_eq!(
            redact_literals("SELECT name FROM accts WHERE tenant = 'tech' AND bal > 1000"),
            "SELECT name FROM accts WHERE tenant = '?' AND bal > ?"
        );
        // '' escapes stay inside the literal; identifiers with digits
        // survive untouched.
        assert_eq!(
            redact_literals("SELECT c1 FROM t2 WHERE note = 'it''s 42'"),
            "SELECT c1 FROM t2 WHERE note = '?'"
        );
        assert_eq!(
            redact_literals("INSERT INTO t VALUES (7, 'x', 3.14)"),
            "INSERT INTO t VALUES (?, '?', ?)"
        );
    }
}

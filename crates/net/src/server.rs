//! The threaded database server.
//!
//! One OS thread per connected client (the paper's PREDATOR is "a single
//! multi-threaded process, with at least one thread per connected
//! client"). Each thread speaks the [`crate::wire`] protocol against a
//! shared [`Engine`].
//!
//! UDF registration policy (the §6 security posture): the uploaded module
//! is decoded here and handed to the engine's one import gate,
//! [`Engine::register_sandboxed_udf`], the same one the embedded API uses:
//!
//! 1. the module is **bytecode-verified at the server** — whatever the
//!    client's toolchain claimed is irrelevant (§2.4),
//! 2. its host imports must all name callbacks the engine actually
//!    offers; anything else is rejected at registration time (class-loader
//!    style gating, §6.1),
//! 3. at runtime it executes under a permission set granting exactly
//!    those imports (least privilege, \[SS75\]) and under the engine's
//!    fuel/memory limits (§6.2).
//!
//! A statement, EXPLAIN included, is an `Execute`: it runs under the
//! connection's principal and a lifecycle token carrying the statement
//! timeout, cancellable by query id.

use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::polled::{Outbox, Polled};
use jaguar_common::{fault, obs};
use jaguar_sql::{Engine, Request, SessionContext};
use jaguar_udf::{Body, UdfSignature, Volatility};
use jaguar_vm::Module;

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
    pub fn pool_stats(&self) -> Option<jaguar_ipc::pool::PoolStatsSnapshot> {
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
    let busy = ServerMsg::Busy { retry_after_ms };
    let _ = Outbox::new(stream).send(|frame| busy.write(frame));
}

/// Does this message need an admission permit? Execution and UDF
/// management are the data plane; Cancel/Metrics/Ping/Quit are the
/// control plane and must work even on a saturated server (a cancel that
/// queues behind the statements it is meant to kill is useless).
fn needs_permit(msg: &ClientMsg) -> bool {
    matches!(
        msg,
        ClientMsg::Execute { .. } | ClientMsg::RegisterUdf { .. } | ClientMsg::FetchUdf { .. }
    )
}

fn serve_client(
    stream: TcpStream,
    engine: &Engine,
    queries: &QueryRegistry,
    gate: &Arc<AdmissionGate>,
) -> Result<()> {
    stream.set_nodelay(true)?;
    let reg = obs::global();
    let mut inbox = Polled::new(stream.try_clone()?, reg.counter("net.polled_reads"));
    let mut writer = Outbox::new(stream);
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
        let msg = match inbox.read(ClientMsg::read) {
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
                    writer.send(|frame| ServerMsg::Busy { retry_after_ms }.write(frame))?;
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
            ClientMsg::Execute { sql, .. } => Some(sql.clone()),
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
                    let mut cut = Outbox::new(Vec::new());
                    cut.send(|frame| r.write(frame))?;
                    let frame = cut.get_mut();
                    writer.get_mut().write_all(&frame[..frame.len() / 2])?;
                    return Err(JaguarError::Protocol(
                        "fault injected: connection dropped mid-response".into(),
                    ));
                }
                writer.send(|frame| r.write(frame))?
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
        ClientMsg::RegisterUdf {
            name,
            signature,
            module,
            function,
            placement,
        } => {
            // Decoded here, then verified by the engine's import gate: the
            // client toolchain is untrusted.
            let signature = UdfSignature::new(signature.params, signature.ret);
            let registered = Module::from_bytes(&module).and_then(|module| {
                engine.register_sandboxed_udf(
                    &name,
                    signature,
                    module,
                    &function,
                    placement,
                    Volatility::Volatile,
                )
            });
            match registered {
                Ok(()) => ServerMsg::Registered,
                Err(e) => ServerMsg::Error {
                    message: e.to_string(),
                },
            }
        }
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
    let token = engine.statement_token();
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
    engine.execute(Request::from(sql).with_session(session).with_token(&token))
}

fn fetch_udf(engine: &Engine, name: &str) -> Result<ServerMsg> {
    let def = engine.catalog().udfs().get(name)?;
    let Body::Bytecode(spec) = def.imp.body() else {
        return Err(JaguarError::Udf(format!(
            "udf '{name}' is native server code and cannot migrate to a client"
        )));
    };
    Ok(ServerMsg::Module {
        signature: WireSignature {
            params: def.signature.params.clone(),
            ret: def.signature.ret,
        },
        module: (*spec.module_bytes).clone(),
        function: spec.function.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

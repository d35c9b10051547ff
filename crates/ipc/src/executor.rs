//! The server side of isolated UDF execution.
//!
//! A [`WorkerProcess`] wraps one child process running the worker protocol.
//! Matching the paper, executors are created **once per query** ("these
//! executors ... are created once per query (not once per function
//! invocation)") and torn down when the query finishes; the per-invocation
//! cost is the boundary crossing, not process creation.

use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::obs::io::{CountingReader, CountingWriter};
use jaguar_common::obs::Counter;
use jaguar_common::Value;

use crate::proto::{write_batch, CallbackHandler, Request, Response, PROTO_VERSION};
use crate::watchdog::Deadline;

/// How long `Drop` waits for an orderly exit after `Shutdown` before killing.
const DROP_GRACE: Duration = Duration::from_millis(200);

/// Deadline for the round trips no statement budget covers: the spawn's
/// `Ready` handshake and the pool's check-in `Reset`. A healthy worker
/// answers within milliseconds; a second of silence means wedged.
pub(crate) const MAINTENANCE_TIMEOUT: Duration = Duration::from_secs(1);

/// Environment variable overriding worker binary discovery.
pub const WORKER_ENV: &str = "JAGUAR_WORKER_BIN";

/// Locate the `jaguar-worker` binary.
///
/// Order: `$JAGUAR_WORKER_BIN`, then next to the current executable, then
/// one directory up (test and bench executables live in
/// `target/<profile>/deps/`, the worker in `target/<profile>/`).
pub fn find_worker_binary() -> Result<PathBuf> {
    if let Ok(p) = std::env::var(WORKER_ENV) {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(JaguarError::Worker(format!(
            "{WORKER_ENV} points at {p:?} which does not exist"
        )));
    }
    let exe = std::env::current_exe()?;
    let mut candidates = Vec::new();
    if let Some(dir) = exe.parent() {
        candidates.push(dir.join("jaguar-worker"));
        if let Some(up) = dir.parent() {
            candidates.push(up.join("jaguar-worker"));
        }
    }
    for c in &candidates {
        if c.is_file() {
            return Ok(c.clone());
        }
    }
    Err(JaguarError::Worker(format!(
        "jaguar-worker binary not found (searched {candidates:?}); build it with \
         `cargo build -p jaguar-udf` or set {WORKER_ENV}"
    )))
}

/// A running isolated executor (one per UDF per query, as in the paper —
/// or checked out of a [`crate::pool`] warm pool and reused across queries).
///
/// The child handle lives behind an `Arc<Mutex<..>>` so a
/// [`WorkerKillHandle`] on another thread (the [`crate::watchdog`]
/// enforcing a round trip's deadline) can kill a hung worker while this
/// thread is blocked on the pipe; the blocked read then observes EOF.
pub struct WorkerProcess {
    child: Arc<Mutex<Child>>,
    input: BufReader<CountingReader<ChildStdout>>,
    output: BufWriter<CountingWriter<ChildStdin>>,
    /// Process-boundary crossings (requests sent to the worker) — the cost
    /// the paper's Figures 4–8 attribute to isolated execution.
    crossings: Arc<Counter>,
    /// §4.2 callbacks answered mid-invoke.
    callbacks: Arc<Counter>,
    reaped: bool,
}

/// Cross-thread kill switch for one [`WorkerProcess`].
///
/// Holds only a weak reference: once the process has been dropped or
/// consumed by [`WorkerProcess::shutdown`], `kill` is a no-op.
#[derive(Clone)]
pub struct WorkerKillHandle {
    child: Weak<Mutex<Child>>,
}

impl WorkerKillHandle {
    /// Kill the worker if it is still running. Returns `true` if a kill was
    /// actually delivered (the process existed and had not exited).
    pub fn kill(&self) -> bool {
        let Some(child) = self.child.upgrade() else {
            return false;
        };
        let mut child = child.lock().unwrap_or_else(|p| p.into_inner());
        match child.try_wait() {
            Ok(Some(_)) => false,
            _ => {
                let delivered = child.kill().is_ok();
                let _ = child.wait();
                delivered
            }
        }
    }
}

/// A [`WorkerProcess::guarded`] round trip outlived its deadline and the
/// watchdog killed the worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

/// Check a worker's reply to a batch of `rows` rows. The worker is the
/// untrusted side: it must answer every row, or the rows before a failing
/// one. Any other count is a protocol violation, not a result.
fn batch_reply(rows: usize, values: Vec<Value>, error: Option<String>) -> BatchOutcome {
    match error {
        None if values.len() == rows => Ok((values, None)),
        Some(e) if values.len() < rows => Ok((values, Some(e))),
        e => Err(JaguarError::Protocol(format!(
            "worker replied {} values (error: {}) to {rows} rows",
            values.len(),
            e.is_some()
        ))),
    }
}

/// The values of a batch's completed rows, and the failing row's rendered
/// error if one failed (see [`WorkerProcess::invoke_batch`]).
type BatchOutcome = Result<(Vec<Value>, Option<String>)>;

impl WorkerProcess {
    /// Spawn a worker from an explicit binary path and wait for `Ready`,
    /// at most one second: a binary that never answers is killed and fails
    /// the spawn.
    pub fn spawn_at(path: &Path) -> Result<WorkerProcess> {
        // Chaos hook: simulate a transient spawn failure (fork pressure,
        // momentarily busy binary). The error shape matches a real spawn
        // error, so the retry classifier treats both identically.
        if jaguar_common::fault::should_fail("ipc.worker.spawn") {
            return Err(JaguarError::Worker(format!(
                "spawning {path:?}: injected spawn fault"
            )));
        }
        let mut child = Command::new(path)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| JaguarError::Worker(format!("spawning {path:?}: {e}")))?;
        // Spawn-wiring failures degrade like any other worker error (the
        // caller falls back per its policy) instead of panicking the query
        // thread.
        let stdin = child.stdin.take().ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            JaguarError::Worker(format!("worker {path:?} spawned without piped stdin"))
        })?;
        let stdout = child.stdout.take().ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            JaguarError::Worker(format!("worker {path:?} spawned without piped stdout"))
        })?;
        let reg = obs::global();
        reg.counter("ipc.workers_spawned").inc();
        let mut wp = WorkerProcess {
            child: Arc::new(Mutex::new(child)),
            input: BufReader::new(CountingReader::new(stdout, reg.counter("ipc.bytes_in"))),
            output: BufWriter::new(CountingWriter::new(stdin, reg.counter("ipc.bytes_out"))),
            crossings: reg.counter("ipc.crossings"),
            callbacks: reg.counter("ipc.callbacks"),
            reaped: false,
        };
        let ready = wp
            .guarded(Some(MAINTENANCE_TIMEOUT), |wp| wp.read_response(0))
            .map_err(|Expired| {
                JaguarError::Worker(format!(
                    "spawning {path:?}: no Ready within {MAINTENANCE_TIMEOUT:?}"
                ))
            })??;
        match ready {
            Response::Ready { proto } if proto == PROTO_VERSION => Ok(wp),
            Response::Ready { proto } => Err(JaguarError::Worker(format!(
                "worker speaks protocol v{proto}, server expects v{PROTO_VERSION} — \
                 stale jaguar-worker binary? rebuild with `cargo build --workspace`"
            ))),
            other => Err(JaguarError::Worker(format!(
                "worker sent {other:?} instead of Ready"
            ))),
        }
    }

    /// Spawn using [`find_worker_binary`] discovery.
    pub fn spawn() -> Result<WorkerProcess> {
        Self::spawn_at(&find_worker_binary()?)
    }

    fn read_response(&mut self, batch_rows: usize) -> Result<Response> {
        Response::read(&mut self.input, batch_rows).map_err(|e| match e {
            // EOF here means the worker died — the crash-containment path.
            JaguarError::Io(ref io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                JaguarError::Worker("worker process died (crash contained by isolation)".into())
            }
            other => other,
        })
    }

    fn send(&mut self, request: Request) -> Result<()> {
        self.crossings.inc();
        request.write(&mut self.output)
    }

    /// Send `request` and expect exactly `want` back.
    fn expect(&mut self, request: Request, want: Response) -> Result<()> {
        self.send(request)?;
        match self.read_response(0)? {
            r if r == want => Ok(()),
            Response::Error { message } => Err(JaguarError::Worker(message)),
            other => Err(JaguarError::Protocol(format!(
                "expected {want:?}, got {other:?}"
            ))),
        }
    }

    /// Answer the UDF's callbacks through `callbacks` until the worker
    /// replies to the batch of `rows` rows just sent, and return that reply.
    fn pump(&mut self, rows: usize, callbacks: &mut dyn CallbackHandler) -> Result<Response> {
        loop {
            match self.read_response(rows)? {
                Response::CallbackRequest { name, args } => {
                    self.callbacks.inc();
                    let value = callbacks.callback(&name, &args)?;
                    self.send(Request::CallbackResult { value })?;
                }
                Response::Error { message } => return Err(JaguarError::Worker(message)),
                reply => return Ok(reply),
            }
        }
    }

    /// Select a native UDF baked into the worker binary (Design 2).
    pub fn load_native(&mut self, name: &str) -> Result<()> {
        let name = name.to_string();
        self.expect(Request::LoadNative { name }, Response::Loaded)
    }

    /// Ship a serialised, to-be-verified JSM module (Design 4).
    pub fn load_vm(
        &mut self,
        module: &[u8],
        function: &str,
        jit: bool,
        fuel: Option<u64>,
        memory: Option<usize>,
    ) -> Result<()> {
        let request = Request::LoadVm {
            module: module.to_vec(),
            function: function.to_string(),
            jit,
            fuel: fuel.unwrap_or(0),
            memory: memory.unwrap_or(0) as u64,
        };
        self.expect(request, Response::Loaded)
    }

    /// Invoke the loaded UDF on one argument tuple, as a batch of one row.
    pub fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        match self.invoke_batch(1, args.len(), |_, a| &args[a], callbacks)? {
            // `batch_reply` let through exactly one value for the one row.
            (mut values, None) => Ok(values.swap_remove(0)),
            (_, Some(message)) => Err(JaguarError::Worker(message)),
        }
    }

    /// Invoke the loaded UDF once per row in one crossing (the vectorized
    /// ABI): `rows` rows of `arity` arguments, `arg(row, a)` being argument
    /// `a` of row `row`, written into the pipe from wherever the caller
    /// holds them. Callbacks interleave with the rows.
    ///
    /// `Ok((values, None))` means every row completed; `Ok((values,
    /// Some(message)))` means row `values.len()` failed with the rendered
    /// error (rows before it completed, with their side effects). `Err` is
    /// a transport-level failure (dead worker, protocol violation) with no
    /// row attribution.
    pub fn invoke_batch<'v>(
        &mut self,
        rows: usize,
        arity: usize,
        arg: impl Fn(usize, usize) -> &'v Value,
        callbacks: &mut dyn CallbackHandler,
    ) -> BatchOutcome {
        self.crossings.inc();
        write_batch(&mut self.output, rows, arity, arg)?;
        match self.pump(rows, callbacks)? {
            Response::BatchReply { values, error } => batch_reply(rows, values, error),
            other => Err(JaguarError::Protocol(format!(
                "unexpected mid-invoke response {other:?}"
            ))),
        }
    }

    /// Drop all UDF state loaded into the worker so it can serve another
    /// query. Sent by the pool on check-in before the worker goes back to
    /// the idle set.
    pub fn reset(&mut self) -> Result<()> {
        self.expect(Request::Reset, Response::ResetOk)
    }

    /// Run one round trip `f` under a deadline: the [`watchdog`] kills this
    /// worker if `f` has not returned within `timeout` (`None`: no
    /// deadline, nothing armed). `Err(Expired)` means the deadline fired —
    /// the worker is dead, and whatever `f` returned is moot.
    ///
    /// [`watchdog`]: crate::watchdog
    pub fn guarded<T>(
        &mut self,
        timeout: Option<Duration>,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> std::result::Result<Result<T>, Expired> {
        let Some(timeout) = timeout else {
            return Ok(f(self));
        };
        let deadline = Deadline::arm(Instant::now() + timeout, self.kill_handle());
        let out = f(self);
        if deadline.disarm() {
            return Err(Expired);
        }
        Ok(out)
    }

    /// True while the child process has not exited.
    pub fn is_alive(&mut self) -> bool {
        let mut child = self.child.lock().unwrap_or_else(|p| p.into_inner());
        matches!(child.try_wait(), Ok(None))
    }

    /// OS process id of the worker (stable for the worker's lifetime; used
    /// by tests to prove reuse).
    pub fn pid(&self) -> u32 {
        self.child.lock().unwrap_or_else(|p| p.into_inner()).id()
    }

    /// A kill switch another thread can hold while this one talks to the
    /// worker. See [`WorkerKillHandle`].
    pub fn kill_handle(&self) -> WorkerKillHandle {
        WorkerKillHandle {
            child: Arc::downgrade(&self.child),
        }
    }

    /// Orderly shutdown; also awaited on drop.
    pub fn shutdown(mut self) -> Result<()> {
        let _ = Request::Shutdown.write(&mut self.output);
        let status = {
            let mut child = self.child.lock().unwrap_or_else(|p| p.into_inner());
            child.wait()?
        };
        self.reaped = true;
        if !status.success() {
            return Err(JaguarError::Worker(format!("worker exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for WorkerProcess {
    fn drop(&mut self) {
        if self.reaped {
            return;
        }
        let _ = Request::Shutdown.write(&mut self.output);
        // Bounded grace period so orderly shutdown actually gets a chance to
        // happen before we resort to SIGKILL.
        let deadline = Instant::now() + DROP_GRACE;
        let mut child = self.child.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes every test that mutates `JAGUAR_WORKER_BIN`: the process
    /// environment is global, so parallel test threads would otherwise race
    /// on it and observe each other's overrides.
    pub(crate) static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn discovery_respects_env_override_errors() {
        // Point the env var at a non-existent file: must error, not fall
        // through to path search (explicit config should never be ignored).
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let key = WORKER_ENV;
        let old = std::env::var(key).ok();
        std::env::set_var(key, "/nonexistent/jaguar-worker");
        let e = find_worker_binary().unwrap_err();
        match old {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
        assert!(e.to_string().contains("does not exist"), "{e}");
    }

    #[test]
    fn kill_handle_is_noop_after_drop() {
        // A handle whose worker is gone must not kill anything else.
        let child = Arc::new(Mutex::new(
            Command::new("true")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn /bin/true"),
        ));
        let handle = WorkerKillHandle {
            child: Arc::downgrade(&child),
        };
        child.lock().unwrap().wait().unwrap();
        // Process already exited: no kill delivered.
        assert!(!handle.kill());
        drop(child);
        // Worker dropped entirely: upgrade fails, still a no-op.
        assert!(!handle.kill());
    }

    #[test]
    fn batch_reply_must_answer_the_rows_sent() {
        let ints = |n: i64| (0..n).map(Value::Int).collect::<Vec<_>>();
        let fails = |n, error: Option<&str>| {
            let e = batch_reply(3, ints(n), error.map(String::from)).unwrap_err();
            assert!(matches!(e, JaguarError::Protocol(_)), "{e}");
        };
        // Short with no error would drop result rows; long would leave
        // values no row asked for; a failing row must be one that was sent.
        fails(2, None);
        fails(4, None);
        fails(3, Some("boom"));
        fails(4, Some("boom"));
        assert_eq!(batch_reply(3, ints(3), None).unwrap(), (ints(3), None));
        let failed = batch_reply(3, ints(1), Some("boom".into())).unwrap();
        assert_eq!(failed, (ints(1), Some("boom".into())));
        assert!(batch_reply(0, vec![], None).is_ok());
    }

    #[test]
    fn spawn_at_missing_binary_fails_cleanly() {
        let e = match WorkerProcess::spawn_at(Path::new("/no/such/worker")) {
            Err(e) => e,
            Ok(_) => panic!("spawn of missing binary must fail"),
        };
        assert!(matches!(e, JaguarError::Worker(_)));
    }

    #[test]
    fn spawn_at_silent_binary_times_out_the_handshake() {
        // `cat` starts and waits on its stdin: it never says Ready.
        let start = Instant::now();
        let e = match WorkerProcess::spawn_at(Path::new("/bin/cat")) {
            Err(e) => e,
            Ok(_) => panic!("a binary that never says Ready must not spawn"),
        };
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(2), "{waited:?}");
        let JaguarError::Worker(m) = &e else {
            panic!("expected a worker error, got {e}");
        };
        assert!(m.starts_with("spawning") && m.contains("no Ready"), "{m}");
    }
}

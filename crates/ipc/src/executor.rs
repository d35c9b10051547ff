//! The server side of isolated UDF execution.
//!
//! A [`WorkerProcess`] wraps one child process running the worker protocol.
//! Matching the paper, executors are created **once per query** ("these
//! executors ... are created once per query (not once per function
//! invocation)") and torn down when the query finishes; the per-invocation
//! cost is the boundary crossing, not process creation.
//!
//! The worker's stdin and stdout are its half of a socket pair. A socket,
//! unlike a pipe, times out its own reads and writes, so the thread waiting
//! on a round trip enforces its deadline (`Timed`). Each request is one
//! frame in one write ([`Outbox`]); each reply is polled for, then blocked
//! on, and read whole ([`Polled`]), as the worker does at its end.

use std::io::{self, Read, Write};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::obs::Counter;
use jaguar_common::polled::{Outbox, Pollable, Polled};
use jaguar_common::Value;

use crate::proto::{write_batch, CallbackHandler, Request, Response, PROTO_VERSION};

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

/// The parent's half of a worker's socket, one direction of it: the bytes
/// it moves count in `bytes`. While a deadline is armed,
/// every read and write first sets the socket's timeout to the time left
/// and fails with `TimedOut` once none is left, so a round trip ends by its
/// deadline however many syscalls it makes, and time spent between them
/// (answering a callback) counts too.
struct Timed {
    sock: UnixStream,
    bytes: Arc<Counter>,
    /// The armed deadline, if any.
    deadline: Option<Instant>,
    /// The timeout this deadline has set on the socket, to clear on disarm.
    set: Option<SetTimeout>,
    /// Set while a poll holds the socket non-blocking: a `WouldBlock` is
    /// then an empty socket, not a fired timeout, so reads go straight to
    /// the socket.
    polling: bool,
}

/// `UnixStream::set_read_timeout` or `set_write_timeout`.
type SetTimeout = fn(&UnixStream, Option<Duration>) -> io::Result<()>;

impl Timed {
    fn new(sock: UnixStream, bytes: Arc<Counter>) -> Timed {
        Timed {
            sock,
            bytes,
            deadline: None,
            set: None,
            polling: false,
        }
    }

    /// Fail every read and write from `at` on.
    fn arm(&mut self, at: Instant) {
        self.deadline = Some(at);
    }

    /// End the armed deadline and put the socket back to blocking, so no
    /// timeout outlives its round trip.
    fn disarm(&mut self) -> io::Result<()> {
        self.deadline = None;
        self.set.take().map_or(Ok(()), |set| set(&self.sock, None))
    }

    /// Run one syscall `op` with `set` putting the time left as its timeout.
    fn timed<T>(
        &mut self,
        set: SetTimeout,
        mut op: impl FnMut(&mut UnixStream) -> io::Result<T>,
    ) -> io::Result<T> {
        let Some(at) = self.deadline.filter(|_| !self.polling) else {
            return op(&mut self.sock);
        };
        loop {
            // Zero is no time left, never "no timeout".
            let left = at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(io::ErrorKind::TimedOut.into());
            }
            set(&self.sock, Some(left))?;
            self.set = Some(set);
            match op(&mut self.sock) {
                // The timeout fired: look at the clock again.
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                done => return done,
            }
        }
    }
}

impl Read for Timed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.timed(UnixStream::set_read_timeout, |s| s.read(buf))?;
        self.bytes.add(n as u64);
        Ok(n)
    }
}

impl Write for Timed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.timed(UnixStream::set_write_timeout, |s| s.write(buf))?;
        self.bytes.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Pollable for Timed {
    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        self.sock.set_nonblocking(on)?;
        self.polling = on;
        Ok(())
    }
}

/// A running isolated executor (one per UDF per query, as in the paper —
/// or checked out of a [`crate::pool`] warm pool and reused across queries).
pub struct WorkerProcess {
    child: Child,
    input: Polled<Timed>,
    output: Outbox<Timed>,
    /// Process-boundary crossings (requests sent to the worker) — the cost
    /// the paper's Figures 4–8 attribute to isolated execution.
    crossings: Arc<Counter>,
    /// §4.2 callbacks answered mid-invoke.
    callbacks: Arc<Counter>,
}

/// A [`WorkerProcess::guarded`] round trip outlived its deadline, and the
/// worker was killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired;

/// Check a worker's reply to a batch of `rows` rows. The worker is the
/// untrusted side: it must answer every row, or the rows before a failing
/// one. Any other count is a protocol violation, not a result.
fn batch_reply(rows: usize, values: Vec<Value>, error: Option<JaguarError>) -> BatchOutcome {
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

/// The values of a batch's completed rows, and the failing row's error if
/// one failed (see [`WorkerProcess::invoke_batch`]).
type BatchOutcome = Result<(Vec<Value>, Option<JaguarError>)>;

impl WorkerProcess {
    /// Spawn a worker from an explicit binary path and wait for `Ready`,
    /// at most one second: a binary that never answers is killed and fails
    /// the spawn.
    pub fn spawn_at(path: &Path) -> Result<WorkerProcess> {
        Self::spawn_command(Command::new(path))
    }

    /// [`WorkerProcess::spawn_at`] for a prepared command.
    fn spawn_command(mut command: Command) -> Result<WorkerProcess> {
        let path = PathBuf::from(command.get_program());
        // Chaos hook: simulate a transient spawn failure (fork pressure,
        // momentarily busy binary). The error shape matches a real spawn
        // error, so the retry classifier treats both identically.
        if jaguar_common::fault::should_fail("ipc.worker.spawn") {
            return Err(JaguarError::Worker(format!(
                "spawning {path:?}: injected spawn fault"
            )));
        }
        let failed = |e| JaguarError::Worker(format!("spawning {path:?}: {e}"));
        let (ours, child) = UnixStream::pair().map_err(failed)?;
        let child_out = OwnedFd::from(child.try_clone().map_err(failed)?);
        let writer = ours.try_clone().map_err(failed)?;
        // The worker's stdin and stdout are both its half of the pair.
        let child = command
            .stdin(Stdio::from(OwnedFd::from(child)))
            .stdout(Stdio::from(child_out))
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(failed)?;
        let reg = obs::global();
        reg.counter("ipc.workers_spawned").inc();
        let mut wp = WorkerProcess {
            child,
            input: Polled::new(
                Timed::new(ours, reg.counter("ipc.bytes_in")),
                reg.counter("ipc.polled_replies"),
            ),
            output: Outbox::new(Timed::new(writer, reg.counter("ipc.bytes_out"))),
            crossings: reg.counter("ipc.crossings"),
            callbacks: reg.counter("ipc.callbacks"),
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
        let reply = self.input.read(|r| Response::read(r, batch_rows));
        reply.map_err(|e| match e {
            // EOF here means the worker died — the crash-containment path.
            JaguarError::Io(ref io) if io.kind() == std::io::ErrorKind::UnexpectedEof => {
                JaguarError::Worker("worker process died (crash contained by isolation)".into())
            }
            other => other,
        })
    }

    fn send(&mut self, request: Request) -> Result<()> {
        self.crossings.inc();
        self.output.send(|frame| request.write(frame))
    }

    /// Send `request` and expect exactly `want` back.
    fn expect(&mut self, request: Request, want: Response) -> Result<()> {
        self.send(request)?;
        match self.read_response(0)? {
            r if r == want => Ok(()),
            Response::Error { error } => Err(error),
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
                    // A failed callback fails the UDF's host call in the
                    // worker, as it would in process.
                    let result = callbacks.callback(&name, &args);
                    self.send(Request::CallbackResult { result })?;
                }
                Response::Error { error } => return Err(error),
                reply => return Ok(reply),
            }
        }
    }

    /// Load one UDF from its encoded `definition` (see [`Request::Load`]);
    /// a refused load fails with the worker's error.
    pub fn load(&mut self, definition: Vec<u8>) -> Result<()> {
        self.expect(Request::Load { definition }, Response::Loaded)
    }

    /// Invoke the loaded UDF on one argument tuple, as a batch of one row.
    pub fn invoke(&mut self, args: &[Value], callbacks: &mut dyn CallbackHandler) -> Result<Value> {
        match self.invoke_batch(1, args.len(), |_, a| &args[a], callbacks)? {
            // `batch_reply` let through exactly one value for the one row.
            (mut values, None) => Ok(values.swap_remove(0)),
            (_, Some(error)) => Err(error),
        }
    }

    /// Invoke the loaded UDF once per row in one crossing (the vectorized
    /// ABI): `rows` rows of `arity` arguments, `arg(row, a)` being argument
    /// `a` of row `row`, written into the socket from wherever the caller
    /// holds them. Callbacks interleave with the rows.
    ///
    /// `Ok((values, None))` means every row completed; `Ok((values,
    /// Some(error)))` means row `values.len()` failed with `error` (rows
    /// before it completed, with their side effects). `Err` is
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
        self.output
            .send(|frame| write_batch(frame, rows, arity, arg))?;
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

    /// Run one round trip `f` under a deadline: every socket read and
    /// write `f` makes waits at most until `timeout` from now (`None`: no
    /// deadline, nothing armed). `Err(Expired)` means `f` failed past its
    /// deadline, and the worker was killed and reaped — whatever `f`
    /// returned is moot.
    pub fn guarded<T>(
        &mut self,
        timeout: Option<Duration>,
        f: impl FnOnce(&mut Self) -> Result<T>,
    ) -> std::result::Result<Result<T>, Expired> {
        let Some(timeout) = timeout else {
            return Ok(f(self));
        };
        let at = Instant::now() + timeout;
        self.arm(at);
        let out = f(self);
        let disarmed = self.disarm();
        if out.is_err() && Instant::now() >= at {
            let _ = self.child.kill();
            let _ = self.child.wait();
            return Err(Expired);
        }
        Ok(out.and_then(|v| disarmed.map(|()| v).map_err(Into::into)))
    }

    fn arm(&mut self, at: Instant) {
        self.input.get_mut().arm(at);
        self.output.get_mut().arm(at);
    }

    fn disarm(&mut self) -> io::Result<()> {
        self.input.get_mut().disarm()?;
        self.output.get_mut().disarm()
    }

    /// True while the child process has not exited.
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// OS process id of the worker (stable for the worker's lifetime; used
    /// by tests to prove reuse).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Orderly shutdown; also awaited on drop.
    pub fn shutdown(mut self) -> Result<()> {
        let _ = self.output.send(|frame| Request::Shutdown.write(frame));
        let status = self.child.wait()?;
        if !status.success() {
            return Err(JaguarError::Worker(format!("worker exited with {status}")));
        }
        Ok(())
    }
}

impl Drop for WorkerProcess {
    /// A worker already reaped (shut down, or killed at a deadline) has
    /// closed its half, so this finds the EOF at once.
    fn drop(&mut self) {
        // Bounded grace period so orderly shutdown gets a chance to happen
        // before SIGKILL: the worker exits on `Shutdown`, closing its half.
        self.arm(Instant::now() + DROP_GRACE);
        let _ = self.output.send(|frame| Request::Shutdown.write(frame));
        let drained = io::copy(self.input.get_mut(), &mut io::sink());
        if drained.is_err() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes every test that mutates `JAGUAR_WORKER_BIN`: the process
    /// environment is global, so parallel test threads would otherwise race
    /// on it and observe each other's overrides.
    pub(crate) static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    fn batch_reply_must_answer_the_rows_sent() {
        let ints = |n: i64| (0..n).map(Value::Int).collect::<Vec<_>>();
        let boom = || Some(JaguarError::Udf("boom".into()));
        let fails = |n, error: Option<JaguarError>| {
            let e = batch_reply(3, ints(n), error).unwrap_err();
            assert!(matches!(e, JaguarError::Protocol(_)), "{e}");
        };
        // Short with no error would drop result rows; long would leave
        // values no row asked for; a failing row must be one that was sent.
        fails(2, None);
        fails(4, None);
        fails(3, boom());
        fails(4, boom());
        assert_eq!(batch_reply(3, ints(3), None).unwrap(), (ints(3), None));
        let failed = batch_reply(3, ints(1), boom()).unwrap();
        assert_eq!(failed, (ints(1), boom()));
        assert!(batch_reply(0, vec![], None).is_ok());
    }

    /// A [`Timed`] over one half of a bare socket pair, and the other half.
    fn timed_pair() -> (Timed, UnixStream) {
        let (ours, peer) = UnixStream::pair().unwrap();
        (Timed::new(ours, Arc::default()), peer)
    }

    #[test]
    fn timed_read_ends_at_the_deadline_however_the_peer_dribbles() {
        // Every byte comes well inside the deadline; the read as a whole
        // must still end at it.
        let (mut timed, mut peer) = timed_pair();
        let dribble = std::thread::spawn(move || {
            for _ in 0..10 {
                std::thread::sleep(Duration::from_millis(40));
                if peer.write_all(&[7]).is_err() {
                    return;
                }
            }
        });
        let start = Instant::now();
        timed.arm(start + Duration::from_millis(100));
        let e = timed.read_exact(&mut [0; 10]).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}");
        assert!(waited < Duration::from_millis(300), "{waited:?}");
        drop(timed);
        dribble.join().unwrap();
    }

    #[test]
    fn timed_write_ends_at_the_deadline_when_the_peer_never_reads() {
        let (mut timed, _peer) = timed_pair();
        // A deadline already reached fails at once; it is not "no timeout".
        timed.arm(Instant::now());
        let e = timed.write_all(&[1]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}");

        let start = Instant::now();
        timed.arm(start + Duration::from_millis(100));
        let e = timed.write_all(&vec![0; 4 << 20]).unwrap_err();
        let waited = start.elapsed();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");
    }

    #[test]
    fn timed_disarm_puts_the_socket_back_to_blocking() {
        let (mut timed, mut peer) = timed_pair();
        peer.write_all(&[1]).unwrap();
        timed.arm(Instant::now() + Duration::from_millis(50));
        timed.read_exact(&mut [0]).unwrap();
        timed.disarm().unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            peer.write_all(&[2]).unwrap();
            peer
        });
        let mut byte = [0];
        timed.read_exact(&mut byte).unwrap();
        assert_eq!(byte, [2]);
        late.join().unwrap();
    }

    #[test]
    fn timed_read_while_polling_skips_the_deadline_loop() {
        // Non-blocking, an empty socket fails a read at once: the deadline
        // must not take that for a fired timeout and retry until it ends.
        let (mut timed, _peer) = timed_pair();
        let start = Instant::now();
        timed.arm(start + Duration::from_millis(200));
        timed.set_nonblocking(true).unwrap();
        let e = timed.read(&mut [0]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "{e}");
        assert!(start.elapsed() < Duration::from_millis(100));
        timed.set_nonblocking(false).unwrap();
        let e = timed.read(&mut [0]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::TimedOut, "{e}");
    }

    /// A worker played by `/bin/sh`: it says Ready, then runs `then`.
    fn scripted_worker(then: &str) -> WorkerProcess {
        let ready =
            format!("printf '\\005\\000\\000\\000\\201\\{PROTO_VERSION:03o}\\000\\000\\000'");
        let mut command = Command::new("/bin/sh");
        command.arg("-c").arg(format!("{ready}; {then}"));
        WorkerProcess::spawn_command(command).unwrap()
    }

    #[test]
    fn polled_reply_read_ends_at_the_deadline_and_kills_the_worker() {
        // A worker that never answers, and one that dribbles a reply's
        // bytes well inside the deadline: the round trip ends at it.
        for then in [
            "exec sleep 10",
            "printf '\\377\\000\\000\\000\\210'; while :; do sleep 0.04; printf '\\000'; done",
        ] {
            let mut worker = scripted_worker(then);
            let start = Instant::now();
            let out = worker.guarded(Some(Duration::from_millis(100)), |w| {
                w.invoke(&[Value::Int(1)], &mut crate::proto::NoCallbacks)
            });
            let waited = start.elapsed();
            assert!(matches!(out, Err(Expired)), "{then}: {out:?}");
            assert!(waited < Duration::from_millis(300), "{then}: {waited:?}");
            assert!(!worker.is_alive(), "{then}: the worker was killed");
        }
    }

    #[test]
    fn eof_met_while_polling_reports_the_worker_died() {
        let mut worker = scripted_worker("exit 0");
        let start = Instant::now();
        while worker.is_alive() {
            assert!(start.elapsed() < Duration::from_secs(10), "never exited");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The worker's half is closed before the read starts, so the poll
        // meets the EOF at its first look.
        let e = worker.read_response(0).unwrap_err();
        let JaguarError::Worker(m) = &e else {
            panic!("expected a worker error, got {e}");
        };
        assert!(m.contains("worker process died"), "{m}");
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

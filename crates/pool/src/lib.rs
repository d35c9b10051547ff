//! # jaguar-pool — supervised warm pool of isolated UDF workers
//!
//! The paper creates one remote executor **per UDF per query** and tears it
//! down when the query ends; process creation is off the per-invocation path
//! but still on the per-query path. Under a stream of short queries that
//! spawn+handshake cost dominates, which the ROADMAP's production north star
//! cannot afford. This crate amortises process lifetime one level further:
//! a fixed-size pool of pre-spawned, handshaked [`WorkerProcess`]es is
//! checked out per query and returned on completion.
//!
//! Lifecycle guarantees:
//!
//! * **Reuse is stateless.** On check-in the worker is sent a `Reset`
//!   request and only re-enters the idle set once it confirms `ResetOk`, so
//!   one query's loaded UDF can never leak into the next.
//! * **Crashes are absorbed.** A worker that dies mid-query surfaces the
//!   usual contained `Worker` error to that query; the supervisor respawns
//!   a replacement with bounded exponential backoff.
//! * **Hangs are bounded.** Every pipe round trip a pool client makes
//!   (invoke, and internally reset/ping) is armed with a deadline; the
//!   supervisor kills the worker when the deadline expires, converting a
//!   wedged query into a clean timeout error plus a respawn.
//! * **Saturation pushes back.** When all workers are busy, checkouts queue
//!   up to a bounded number of waiters and a bounded wait time; beyond
//!   either bound the caller gets an error instead of unbounded queueing.
//!
//! Supervision is split across two background threads: the *supervisor*
//! owns deadlines and respawning and never blocks on a worker pipe; the
//! *health checker* pings idle workers, with each ping itself
//! deadline-armed so a live-but-wedged worker is killed by the supervisor
//! rather than hanging the checker.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::Value;
use jaguar_ipc::proto::CallbackHandler;
use jaguar_ipc::{find_worker_binary, WorkerKillHandle, WorkerProcess};

/// Deadline for the internal `Reset`/`Ping` round trips. These complete in
/// microseconds on a healthy worker; a second of silence means wedged.
const MAINTENANCE_TIMEOUT: Duration = Duration::from_secs(1);

/// First retry delay after a failed spawn; doubles per consecutive failure.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(10);

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Tuning knobs for a [`WorkerPool`].
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of warm workers kept alive.
    pub size: usize,
    /// Deadline for a single UDF invocation through a pooled worker. The
    /// worker is killed (and the query gets a `ResourceLimit` error) when
    /// it expires. `None` disables invoke deadlines.
    pub invoke_timeout: Option<Duration>,
    /// How long a checkout waits for a worker to come free before erroring.
    pub checkout_timeout: Duration,
    /// Bound on concurrently queued checkouts; checkouts beyond this fail
    /// immediately (backpressure instead of an unbounded queue).
    pub max_waiters: usize,
    /// How often the health checker pings each idle worker.
    pub health_interval: Duration,
    /// Cap on the exponential respawn backoff.
    pub max_respawn_backoff: Duration,
    /// Explicit worker binary path; `None` uses the standard discovery
    /// (`$JAGUAR_WORKER_BIN`, then next to the current executable).
    pub worker_binary: Option<PathBuf>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            size: 2,
            invoke_timeout: Some(Duration::from_secs(30)),
            checkout_timeout: Duration::from_secs(5),
            max_waiters: 64,
            health_interval: Duration::from_millis(500),
            max_respawn_backoff: Duration::from_secs(2),
            worker_binary: None,
        }
    }
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Pool counters. Each event is recorded twice: in the pool-local atomics
/// (so [`WorkerPool::stats`] reflects *this* pool) and in the process-wide
/// `jaguar_common::obs` registry under `pool.*` (so the engine's metrics
/// snapshot shows pool activity alongside every other subsystem).
struct Stats {
    spawns: AtomicU64,
    reuses: AtomicU64,
    crashes: AtomicU64,
    timeouts: AtomicU64,
    queue_waits: AtomicU64,
    g_spawns: Arc<jaguar_common::obs::Counter>,
    g_reuses: Arc<jaguar_common::obs::Counter>,
    g_crashes: Arc<jaguar_common::obs::Counter>,
    g_timeouts: Arc<jaguar_common::obs::Counter>,
    g_queue_waits: Arc<jaguar_common::obs::Counter>,
}

impl Default for Stats {
    fn default() -> Self {
        let reg = jaguar_common::obs::global();
        Stats {
            spawns: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            queue_waits: AtomicU64::new(0),
            g_spawns: reg.counter("pool.spawns"),
            g_reuses: reg.counter("pool.reuses"),
            g_crashes: reg.counter("pool.crashes"),
            g_timeouts: reg.counter("pool.timeouts"),
            g_queue_waits: reg.counter("pool.queue_waits"),
        }
    }
}

impl Stats {
    fn record_spawn(&self) {
        self.spawns.fetch_add(1, Ordering::Relaxed);
        self.g_spawns.inc();
    }

    fn record_reuse(&self) {
        self.reuses.fetch_add(1, Ordering::Relaxed);
        self.g_reuses.inc();
    }

    fn record_crash(&self) {
        self.crashes.fetch_add(1, Ordering::Relaxed);
        self.g_crashes.inc();
    }

    fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        self.g_timeouts.inc();
    }

    fn record_queue_wait(&self) {
        self.queue_waits.fetch_add(1, Ordering::Relaxed);
        self.g_queue_waits.inc();
    }
}

/// Point-in-time counter snapshot, cheap to copy around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStatsSnapshot {
    /// Worker processes spawned (initial fill + respawns).
    pub spawns: u64,
    /// Checkouts served by a worker that had already served a query.
    pub reuses: u64,
    /// Workers discarded because they died or failed reset/ping.
    pub crashes: u64,
    /// Invocations killed by the deadline enforcer.
    pub timeouts: u64,
    /// Checkouts that had to wait for a worker to come free.
    pub queue_waits: u64,
}

impl std::fmt::Display for PoolStatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "spawns={} reuses={} crashes={} timeouts={} queue_waits={}",
            self.spawns, self.reuses, self.crashes, self.timeouts, self.queue_waits
        )
    }
}

// ---------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------

struct IdleWorker {
    worker: WorkerProcess,
    /// Queries this worker has already served (0 = fresh spawn).
    served: u64,
    last_checked: Instant,
}

struct DeadlineEntry {
    id: u64,
    at: Instant,
    kill: WorkerKillHandle,
    fired: Arc<AtomicBool>,
}

struct State {
    idle: VecDeque<IdleWorker>,
    /// Workers alive or reserved for spawning (idle + checked out + being
    /// spawned right now). The supervisor keeps this at `config.size`.
    live: usize,
    waiters: usize,
    deadlines: Vec<DeadlineEntry>,
    next_deadline_id: u64,
    shutdown: bool,
}

struct Inner {
    config: PoolConfig,
    binary: PathBuf,
    stats: Stats,
    state: Mutex<State>,
    /// Signalled when a worker joins the idle set (or on shutdown).
    available: Condvar,
    /// Signalled when the supervisor should re-examine the world: a
    /// deadline was armed, a worker died, shutdown began.
    supervisor_wake: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Arm a deadline: at `at`, the supervisor fires `kill` and sets the
    /// returned flag. Disarm with [`Inner::disarm`] once the guarded round
    /// trip completes.
    fn arm(&self, at: Instant, kill: WorkerKillHandle) -> (u64, Arc<AtomicBool>) {
        let fired = Arc::new(AtomicBool::new(false));
        let mut state = self.lock();
        let id = state.next_deadline_id;
        state.next_deadline_id += 1;
        state.deadlines.push(DeadlineEntry {
            id,
            at,
            kill,
            fired: Arc::clone(&fired),
        });
        drop(state);
        self.supervisor_wake.notify_all();
        (id, fired)
    }

    fn disarm(&self, id: u64) {
        let mut state = self.lock();
        state.deadlines.retain(|d| d.id != id);
    }

    /// Run one worker round trip under a deadline. Returns true iff the
    /// round trip succeeded and the deadline did not fire.
    fn guarded_roundtrip(
        &self,
        worker: &mut WorkerProcess,
        timeout: Duration,
        f: impl FnOnce(&mut WorkerProcess) -> Result<()>,
    ) -> bool {
        let (id, fired) = self.arm(Instant::now() + timeout, worker.kill_handle());
        let ok = f(worker).is_ok();
        self.disarm(id);
        ok && !fired.load(Ordering::SeqCst)
    }

    /// Note a worker's demise and prod the supervisor to replace it.
    fn discard_worker(&self, counted_as_crash: bool) {
        if counted_as_crash {
            self.stats.record_crash();
        }
        let mut state = self.lock();
        state.live = state.live.saturating_sub(1);
        drop(state);
        self.supervisor_wake.notify_all();
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// A supervised warm pool of isolated UDF worker processes.
///
/// Construction pre-spawns `config.size` workers (asynchronously — use
/// [`WorkerPool::wait_ready`] for deterministic warm-up). Clone-free by
/// design: share it as `Arc<WorkerPool>`; one pool is meant to be shared by
/// every client thread of a server.
pub struct WorkerPool {
    inner: Arc<Inner>,
    supervisor: Option<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Create a pool. Fails early if no worker binary can be discovered
    /// (an explicit `config.worker_binary` is trusted as-is; spawn failures
    /// then surface through respawn backoff and checkout timeouts).
    pub fn new(config: PoolConfig) -> Result<WorkerPool> {
        let binary = match &config.worker_binary {
            Some(p) => p.clone(),
            None => find_worker_binary()?,
        };
        let inner = Arc::new(Inner {
            config,
            binary,
            stats: Stats::default(),
            state: Mutex::new(State {
                idle: VecDeque::new(),
                live: 0,
                waiters: 0,
                deadlines: Vec::new(),
                next_deadline_id: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            supervisor_wake: Condvar::new(),
        });
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("jaguar-pool-supervisor".into())
                .spawn(move || supervisor_loop(&inner))
                .map_err(|e| JaguarError::Worker(format!("spawning pool supervisor: {e}")))?
        };
        let health = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("jaguar-pool-health".into())
                .spawn(move || health_loop(&inner))
                .map_err(|e| JaguarError::Worker(format!("spawning pool health checker: {e}")))?
        };
        Ok(WorkerPool {
            inner,
            supervisor: Some(supervisor),
            health: Some(health),
        })
    }

    /// Pool configuration (immutable after construction).
    pub fn config(&self) -> &PoolConfig {
        &self.inner.config
    }

    /// Number of workers the pool maintains — the most checkouts one query
    /// can hold simultaneously without waiting on itself. The parallel
    /// planner clamps a thread team's dop to this for isolated UDFs.
    pub fn capacity(&self) -> usize {
        self.inner.config.size
    }

    /// Current counter values.
    pub fn stats(&self) -> PoolStatsSnapshot {
        let s = &self.inner.stats;
        PoolStatsSnapshot {
            spawns: s.spawns.load(Ordering::Relaxed),
            reuses: s.reuses.load(Ordering::Relaxed),
            crashes: s.crashes.load(Ordering::Relaxed),
            timeouts: s.timeouts.load(Ordering::Relaxed),
            queue_waits: s.queue_waits.load(Ordering::Relaxed),
        }
    }

    /// Number of workers currently idle (warm and checked in).
    pub fn idle_count(&self) -> usize {
        self.inner.lock().idle.len()
    }

    /// Checkouts currently blocked waiting for an idle worker — a live
    /// pressure signal: the parallel planner clamps a new query's dop
    /// when anyone is already queued, shedding optional parallelism
    /// before checkouts start timing out.
    pub fn waiters(&self) -> usize {
        self.inner.lock().waiters
    }

    /// Block until the pool is fully warm (`size` workers idle) or the
    /// timeout passes. Returns whether it became warm.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.lock();
        loop {
            if state.idle.len() >= self.inner.config.size {
                return true;
            }
            let now = Instant::now();
            if now >= deadline || state.shutdown {
                return false;
            }
            let (s, _) = self
                .inner
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = s;
        }
    }

    /// Check a warm worker out of the pool.
    ///
    /// Waits up to `checkout_timeout` when all workers are busy; fails
    /// immediately once `max_waiters` checkouts are already queued. The
    /// returned guard returns the worker on drop.
    pub fn checkout(&self) -> Result<PooledWorker> {
        let inner = &self.inner;
        let deadline = Instant::now() + inner.config.checkout_timeout;
        let mut state = inner.lock();
        let mut queued = false;
        loop {
            if state.shutdown {
                if queued {
                    state.waiters -= 1;
                }
                return Err(JaguarError::Worker("worker pool is shut down".into()));
            }
            if let Some(iw) = state.idle.pop_front() {
                if queued {
                    state.waiters -= 1;
                }
                if iw.served > 0 {
                    inner.stats.record_reuse();
                }
                return Ok(PooledWorker {
                    inner: Arc::clone(inner),
                    worker: Some(iw.worker),
                    served: iw.served,
                    timed_out: false,
                });
            }
            if !queued {
                if state.waiters >= inner.config.max_waiters {
                    return Err(JaguarError::Worker(format!(
                        "worker pool saturated: {} checkouts already queued \
                         (max_waiters = {})",
                        state.waiters, inner.config.max_waiters
                    )));
                }
                state.waiters += 1;
                queued = true;
                inner.stats.record_queue_wait();
            }
            let now = Instant::now();
            if now >= deadline {
                state.waiters -= 1;
                return Err(JaguarError::ResourceLimit(format!(
                    "timed out waiting {:?} for a pooled worker ({} busy, {} queued)",
                    inner.config.checkout_timeout, state.live, state.waiters
                )));
            }
            let (s, _) = inner
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = s;
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.inner.lock();
            state.shutdown = true;
        }
        self.inner.available.notify_all();
        self.inner.supervisor_wake.notify_all();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            // The supervisor is gone, so expired deadlines must be fired
            // here — otherwise a health ping wedged on a dead-silent worker
            // would block this join forever.
            while !h.is_finished() {
                let now = Instant::now();
                let expired: Vec<DeadlineEntry> = {
                    let mut state = self.inner.lock();
                    let mut out = Vec::new();
                    let mut i = 0;
                    while i < state.deadlines.len() {
                        if state.deadlines[i].at <= now {
                            out.push(state.deadlines.swap_remove(i));
                        } else {
                            i += 1;
                        }
                    }
                    out
                };
                for d in expired {
                    d.fired.store(true, Ordering::SeqCst);
                    d.kill.kill();
                }
                self.inner.supervisor_wake.notify_all();
                std::thread::sleep(Duration::from_millis(5));
            }
            let _ = h.join();
        }
        // Drain idle workers outside the lock; WorkerProcess::drop gives
        // each an orderly Shutdown with a bounded grace period.
        let drained: Vec<IdleWorker> = {
            let mut state = self.inner.lock();
            state.idle.drain(..).collect()
        };
        drop(drained);
    }
}

// ---------------------------------------------------------------------
// Checkout guard
// ---------------------------------------------------------------------

/// One worker checked out of a [`WorkerPool`].
///
/// Mirrors the [`WorkerProcess`] API for loading and invoking; on drop the
/// worker is `Reset` and returned to the pool if healthy, or discarded and
/// replaced by the supervisor if not.
pub struct PooledWorker {
    inner: Arc<Inner>,
    worker: Option<WorkerProcess>,
    served: u64,
    timed_out: bool,
}

impl std::fmt::Debug for PooledWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledWorker")
            .field("pid", &self.worker.as_ref().map(WorkerProcess::pid))
            .field("prior_queries", &self.served)
            .finish()
    }
}

impl PooledWorker {
    fn worker_mut(&mut self) -> &mut WorkerProcess {
        self.worker.as_mut().expect("worker present until drop")
    }

    /// Queries this worker served before the current checkout.
    pub fn prior_queries(&self) -> u64 {
        self.served
    }

    /// OS pid of the underlying worker process.
    pub fn pid(&self) -> u32 {
        self.worker.as_ref().expect("worker present").pid()
    }

    /// Select a native UDF baked into the worker binary (Design 2).
    pub fn load_native(&mut self, name: &str) -> Result<()> {
        self.worker_mut().load_native(name)
    }

    /// Ship a serialised JSM module (Design 4).
    pub fn load_vm(
        &mut self,
        module: &[u8],
        function: &str,
        jit: bool,
        fuel: Option<u64>,
        memory: Option<usize>,
    ) -> Result<()> {
        self.worker_mut()
            .load_vm(module, function, jit, fuel, memory)
    }

    /// Invoke the loaded UDF on one argument tuple, under the pool's invoke
    /// deadline. A worker that overruns the deadline is killed and the
    /// invocation fails with a `ResourceLimit` error; the worker's
    /// replacement is spawned by the supervisor.
    pub fn invoke(
        &mut self,
        args: Vec<Value>,
        callbacks: &mut dyn CallbackHandler,
    ) -> Result<Value> {
        self.invoke_with_deadline(args, callbacks, None)
    }

    /// Like [`PooledWorker::invoke`], but the effective deadline is the
    /// *minimum* of the pool's invoke timeout and `statement_budget` (the
    /// remaining statement deadline, when one is armed) — so a wedged UDF
    /// cannot outlive its statement even if the pool timeout is generous.
    /// A kill whose binding constraint was the statement budget surfaces
    /// as a `Timeout` error; a pool-timeout kill stays `ResourceLimit`.
    pub fn invoke_with_deadline(
        &mut self,
        args: Vec<Value>,
        callbacks: &mut dyn CallbackHandler,
        statement_budget: Option<Duration>,
    ) -> Result<Value> {
        let pool_timeout = self.inner.config.invoke_timeout;
        let timeout = match (pool_timeout, statement_budget) {
            (Some(p), Some(s)) => Some(p.min(s)),
            (Some(p), None) => Some(p),
            (None, Some(s)) => Some(s),
            (None, None) => None,
        };
        let inner = Arc::clone(&self.inner);
        let worker = self.worker_mut();
        let Some(timeout) = timeout else {
            return worker.invoke(args, callbacks);
        };
        let (id, fired) = inner.arm(Instant::now() + timeout, worker.kill_handle());
        let out = worker.invoke(args, callbacks);
        inner.disarm(id);
        if fired.load(Ordering::SeqCst) {
            self.timed_out = true;
            inner.stats.record_timeout();
            let statement_bound = match (pool_timeout, statement_budget) {
                (None, Some(_)) => true,
                (Some(p), Some(s)) => s < p,
                _ => false,
            };
            return Err(if statement_bound {
                JaguarError::Timeout(format!(
                    "udf invocation exceeded the statement deadline \
                     ({timeout:?} remaining); worker killed and replaced"
                ))
            } else {
                JaguarError::ResourceLimit(format!(
                    "udf invocation exceeded the {timeout:?} pool deadline; \
                     worker killed and replaced"
                ))
            });
        }
        out
    }

    /// Batched counterpart of [`PooledWorker::invoke_with_deadline`]: one
    /// crossing and one deadline arm cover the whole batch, so the
    /// supervisor still kills a wedged worker at min(statement budget,
    /// pool timeout) — it just cannot attribute the kill to a row.
    pub fn invoke_batch_with_deadline(
        &mut self,
        rows: Vec<Vec<Value>>,
        callbacks: &mut dyn CallbackHandler,
        statement_budget: Option<Duration>,
    ) -> Result<(Vec<Value>, Option<String>)> {
        let pool_timeout = self.inner.config.invoke_timeout;
        let timeout = match (pool_timeout, statement_budget) {
            (Some(p), Some(s)) => Some(p.min(s)),
            (Some(p), None) => Some(p),
            (None, Some(s)) => Some(s),
            (None, None) => None,
        };
        let inner = Arc::clone(&self.inner);
        let worker = self.worker_mut();
        let Some(timeout) = timeout else {
            return worker.invoke_batch(rows, callbacks);
        };
        let (id, fired) = inner.arm(Instant::now() + timeout, worker.kill_handle());
        let out = worker.invoke_batch(rows, callbacks);
        inner.disarm(id);
        if fired.load(Ordering::SeqCst) {
            self.timed_out = true;
            inner.stats.record_timeout();
            let statement_bound = match (pool_timeout, statement_budget) {
                (None, Some(_)) => true,
                (Some(p), Some(s)) => s < p,
                _ => false,
            };
            return Err(if statement_bound {
                JaguarError::Timeout(format!(
                    "udf invocation exceeded the statement deadline \
                     ({timeout:?} remaining); worker killed and replaced"
                ))
            } else {
                JaguarError::ResourceLimit(format!(
                    "udf invocation exceeded the {timeout:?} pool deadline; \
                     worker killed and replaced"
                ))
            });
        }
        out
    }
}

impl Drop for PooledWorker {
    fn drop(&mut self) {
        let mut worker = self.worker.take().expect("worker present until drop");
        let inner = Arc::clone(&self.inner);

        // Health gate for re-entry: the process must be alive and confirm a
        // deadline-guarded Reset. Everything else is a discard.
        let healthy = !self.timed_out
            && worker.is_alive()
            && inner.guarded_roundtrip(&mut worker, MAINTENANCE_TIMEOUT, |w| w.reset());

        if !healthy {
            drop(worker);
            // Timeouts were already counted by invoke(); everything else
            // discarded here is a crash (died mid-query or failed reset).
            inner.discard_worker(!self.timed_out);
            return;
        }

        let mut state = inner.lock();
        if state.shutdown {
            state.live = state.live.saturating_sub(1);
            drop(state);
            drop(worker);
            return;
        }
        state.idle.push_back(IdleWorker {
            worker,
            served: self.served + 1,
            last_checked: Instant::now(),
        });
        drop(state);
        inner.available.notify_all();
    }
}

// ---------------------------------------------------------------------
// Supervisor: deadlines + respawn
// ---------------------------------------------------------------------

fn supervisor_loop(inner: &Arc<Inner>) {
    let mut backoff = RESPAWN_BACKOFF_BASE;
    let mut next_spawn_allowed = Instant::now();
    loop {
        let mut expired: Vec<DeadlineEntry> = Vec::new();
        let mut deficit = 0usize;
        {
            let mut state = inner.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let now = Instant::now();
                let mut i = 0;
                while i < state.deadlines.len() {
                    if state.deadlines[i].at <= now {
                        expired.push(state.deadlines.swap_remove(i));
                    } else {
                        i += 1;
                    }
                }
                if state.live < inner.config.size && now >= next_spawn_allowed {
                    deficit = inner.config.size - state.live;
                    // Reserve the slots so concurrent passes don't overfill.
                    state.live = inner.config.size;
                }
                if !expired.is_empty() || deficit > 0 {
                    break;
                }
                // Sleep until the nearest deadline, a pending backoff expiry,
                // or a routine re-check.
                let mut until = now + inner.config.health_interval;
                if state.live < inner.config.size && next_spawn_allowed < until {
                    until = next_spawn_allowed.max(now);
                }
                for d in &state.deadlines {
                    if d.at < until {
                        until = d.at;
                    }
                }
                let wait = until
                    .saturating_duration_since(now)
                    .max(Duration::from_millis(1));
                let (s, _) = inner
                    .supervisor_wake
                    .wait_timeout(state, wait)
                    .unwrap_or_else(|p| p.into_inner());
                state = s;
            }
        }

        // Outside the lock: fire expired deadlines...
        for d in expired {
            // Order matters: the flag must be set before the kill so the
            // thread blocked on the pipe always attributes the EOF to us.
            d.fired.store(true, Ordering::SeqCst);
            d.kill.kill();
        }

        // ...and fill the spawn deficit.
        let mut failed = 0usize;
        for _ in 0..deficit {
            match WorkerProcess::spawn_at(&inner.binary) {
                Ok(worker) => {
                    inner.stats.record_spawn();
                    backoff = RESPAWN_BACKOFF_BASE;
                    let mut state = inner.lock();
                    if state.shutdown {
                        state.live = state.live.saturating_sub(1);
                        drop(state);
                        drop(worker);
                        return;
                    }
                    state.idle.push_back(IdleWorker {
                        worker,
                        served: 0,
                        last_checked: Instant::now(),
                    });
                    drop(state);
                    inner.available.notify_all();
                }
                Err(_) => failed += 1,
            }
        }
        if failed > 0 {
            // Give the reserved slots back and retry after the backoff.
            {
                let mut state = inner.lock();
                state.live = state.live.saturating_sub(failed);
            }
            next_spawn_allowed = Instant::now() + backoff;
            backoff = (backoff * 2).min(inner.config.max_respawn_backoff);
        }
    }
}

// ---------------------------------------------------------------------
// Health checker: ping idle workers
// ---------------------------------------------------------------------

fn health_loop(inner: &Arc<Inner>) {
    loop {
        // Find one idle worker due for a check and take it out of the pool
        // while probing (so a concurrent checkout can't grab it mid-ping).
        let due = {
            let mut state = inner.lock();
            if state.shutdown {
                return;
            }
            let now = Instant::now();
            let pos = state
                .idle
                .iter()
                .position(|w| now.duration_since(w.last_checked) >= inner.config.health_interval);
            match pos {
                Some(i) => state.idle.remove(i),
                None => {
                    let (s, _) = inner
                        .supervisor_wake
                        .wait_timeout(state, inner.config.health_interval / 2)
                        .unwrap_or_else(|p| p.into_inner());
                    drop(s);
                    continue;
                }
            }
        };
        let Some(mut iw) = due else { continue };

        let healthy = iw.worker.is_alive()
            && inner.guarded_roundtrip(&mut iw.worker, MAINTENANCE_TIMEOUT, |w| w.ping());

        if healthy {
            iw.last_checked = Instant::now();
            let mut state = inner.lock();
            if state.shutdown {
                state.live = state.live.saturating_sub(1);
                drop(state);
                drop(iw);
                return;
            }
            state.idle.push_back(iw);
            drop(state);
            inner.available.notify_all();
        } else {
            drop(iw);
            inner.discard_worker(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pool paths that must work without any worker binary present.
    fn binaryless_config() -> PoolConfig {
        PoolConfig {
            size: 0,
            worker_binary: Some(PathBuf::from("/nonexistent/jaguar-worker")),
            checkout_timeout: Duration::from_millis(50),
            max_waiters: 1,
            ..PoolConfig::default()
        }
    }

    #[test]
    fn checkout_times_out_on_empty_pool() {
        let pool = Arc::new(WorkerPool::new(binaryless_config()).unwrap());
        let start = Instant::now();
        let err = pool.checkout().unwrap_err();
        assert!(matches!(err, JaguarError::ResourceLimit(_)), "{err}");
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert_eq!(pool.stats().queue_waits, 1);
    }

    #[test]
    fn saturation_rejects_instead_of_queueing() {
        let cfg = PoolConfig {
            max_waiters: 0,
            ..binaryless_config()
        };
        let pool = Arc::new(WorkerPool::new(cfg).unwrap());
        let start = Instant::now();
        let err = pool.checkout().unwrap_err();
        assert!(err.to_string().contains("saturated"), "{err}");
        // Rejected immediately, not after the checkout timeout.
        assert!(start.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn checkout_after_shutdown_fails() {
        let pool = Arc::new(WorkerPool::new(binaryless_config()).unwrap());
        {
            let mut state = pool.inner.lock();
            state.shutdown = true;
        }
        let err = pool.checkout().unwrap_err();
        assert!(err.to_string().contains("shut down"), "{err}");
    }

    #[test]
    fn stats_start_at_zero_and_display() {
        let snap = PoolStatsSnapshot::default();
        assert_eq!(
            snap.to_string(),
            "spawns=0 reuses=0 crashes=0 timeouts=0 queue_waits=0"
        );
    }

    #[test]
    fn respawn_backoff_survives_unspawnable_binary() {
        // A pool pointed at a nonexistent binary must keep retrying with
        // backoff (and stay usable for shutdown), not panic or spin-fail.
        let cfg = PoolConfig {
            size: 2,
            ..binaryless_config()
        };
        let pool = Arc::new(WorkerPool::new(cfg).unwrap());
        assert!(!pool.wait_ready(Duration::from_millis(100)));
        assert_eq!(pool.stats().spawns, 0);
        assert_eq!(pool.idle_count(), 0);
        drop(pool); // must not hang
    }
}

//! Supervised warm pool of isolated UDF workers.
//!
//! The paper creates one remote executor **per UDF per query** and tears it
//! down when the query ends; process creation is off the per-invocation path
//! but still on the per-query path. Under a stream of short queries that
//! spawn+handshake cost dominates, which the ROADMAP's production north star
//! cannot afford. The pool amortises process lifetime one level further:
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
//! * **Hangs are bounded.** Every pipe round trip through a pooled worker
//!   (invoke, and internally reset/ping) is [guarded](WorkerProcess::guarded)
//!   by the [`watchdog`](crate::watchdog), which kills the worker when the
//!   deadline expires; a killed worker never re-enters the idle set and the
//!   supervisor spawns its replacement.
//! * **Saturation pushes back.** When all workers are busy, checkouts queue
//!   up to a bounded number of waiters and a bounded wait time; beyond
//!   either bound the caller gets an error instead of unbounded queueing.
//!
//! One background thread, the *supervisor*, respawns dead workers and pings
//! idle ones; each ping is guarded like any other round trip, so a
//! live-but-wedged worker costs the supervisor one maintenance timeout.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs::Counter;

use crate::executor::{find_worker_binary, WorkerProcess};

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
    /// How often the supervisor pings each idle worker.
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

/// One pool counter, recorded twice: in a pool-local atomic (so
/// [`WorkerPool::stats`] reflects *this* pool) and in the process-wide
/// `jaguar_common::obs` registry under `pool.*` (so the engine's metrics
/// snapshot shows pool activity alongside every other subsystem).
struct Tally {
    local: AtomicU64,
    global: Arc<Counter>,
}

impl Tally {
    fn new(name: &str) -> Tally {
        Tally {
            local: AtomicU64::new(0),
            global: jaguar_common::obs::global().counter(name),
        }
    }

    fn inc(&self) {
        self.local.fetch_add(1, Ordering::Relaxed);
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

struct Stats {
    spawns: Tally,
    reuses: Tally,
    crashes: Tally,
    timeouts: Tally,
    queue_waits: Tally,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            spawns: Tally::new("pool.spawns"),
            reuses: Tally::new("pool.reuses"),
            crashes: Tally::new("pool.crashes"),
            timeouts: Tally::new("pool.timeouts"),
            queue_waits: Tally::new("pool.queue_waits"),
        }
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
    /// Invocations whose worker the watchdog killed at a deadline.
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

struct State {
    idle: VecDeque<IdleWorker>,
    /// Workers alive or reserved for spawning (idle + checked out + being
    /// spawned right now). The supervisor keeps this at `config.size`.
    live: usize,
    waiters: usize,
    shutdown: bool,
}

struct Inner {
    config: PoolConfig,
    binary: PathBuf,
    stats: Stats,
    state: Mutex<State>,
    /// Signalled when a worker joins the idle set (or on shutdown).
    available: Condvar,
    /// Signalled when the supervisor should re-examine the world: a worker
    /// died, shutdown began.
    supervisor_wake: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Note a worker's demise and prod the supervisor to replace it.
    fn discard_worker(&self, counted_as_crash: bool) {
        if counted_as_crash {
            self.stats.crashes.inc();
        }
        let mut state = self.lock();
        state.live = state.live.saturating_sub(1);
        drop(state);
        self.supervisor_wake.notify_all();
    }

    /// Put a healthy worker (back) into the idle set; false (and the
    /// worker retired) if the pool is shutting down.
    fn check_in(&self, worker: IdleWorker) -> bool {
        let mut state = self.lock();
        if state.shutdown {
            state.live = state.live.saturating_sub(1);
            drop(state);
            drop(worker);
            return false;
        }
        state.idle.push_back(worker);
        drop(state);
        self.available.notify_all();
        true
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
        Ok(WorkerPool {
            inner,
            supervisor: Some(supervisor),
        })
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
            spawns: s.spawns.get(),
            reuses: s.reuses.get(),
            crashes: s.crashes.get(),
            timeouts: s.timeouts.get(),
            queue_waits: s.queue_waits.get(),
        }
    }

    /// Number of workers currently idle (warm and checked in).
    pub fn idle_count(&self) -> usize {
        self.inner.lock().idle.len()
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
                    inner.stats.reuses.inc();
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
                inner.stats.queue_waits.inc();
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
        // A ping in flight is bounded by its guard, so this join is too.
        if let Some(h) = self.supervisor.take() {
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

/// One worker checked out of a [`WorkerPool`]: a guard that derefs to the
/// [`WorkerProcess`]. On drop the worker is `Reset` and returned to the
/// pool if healthy, or discarded and replaced by the supervisor if not.
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

impl Deref for PooledWorker {
    type Target = WorkerProcess;

    fn deref(&self) -> &WorkerProcess {
        self.worker.as_ref().expect("worker present until drop")
    }
}

impl DerefMut for PooledWorker {
    fn deref_mut(&mut self) -> &mut WorkerProcess {
        self.worker.as_mut().expect("worker present until drop")
    }
}

impl PooledWorker {
    /// The pool's deadline for one invocation through this worker.
    pub fn invoke_timeout(&self) -> Option<Duration> {
        self.inner.config.invoke_timeout
    }

    /// Note that the watchdog killed this worker at a deadline: it counts
    /// as a pool timeout, not a crash, and never re-enters the idle set.
    pub fn expired(&mut self) {
        if !self.timed_out {
            self.timed_out = true;
            self.inner.stats.timeouts.inc();
        }
    }
}

impl Drop for PooledWorker {
    fn drop(&mut self) {
        let mut worker = self.worker.take().expect("worker present until drop");
        let inner = Arc::clone(&self.inner);

        // Health gate for re-entry: the process must be alive and confirm a
        // guarded Reset. Everything else is a discard.
        let healthy =
            !self.timed_out && worker.is_alive() && maintain(&mut worker, WorkerProcess::reset);

        if !healthy {
            drop(worker);
            // Timeouts were already counted by `expired`; everything else
            // discarded here is a crash (died mid-query or failed reset).
            inner.discard_worker(!self.timed_out);
            return;
        }
        inner.check_in(IdleWorker {
            worker,
            served: self.served + 1,
            last_checked: Instant::now(),
        });
    }
}

/// One maintenance round trip (`Reset`, `Ping`) under its deadline: true
/// iff it succeeded in time.
fn maintain(worker: &mut WorkerProcess, f: fn(&mut WorkerProcess) -> Result<()>) -> bool {
    matches!(worker.guarded(Some(MAINTENANCE_TIMEOUT), f), Ok(Ok(())))
}

// ---------------------------------------------------------------------
// Supervisor: respawn and ping
// ---------------------------------------------------------------------

fn supervisor_loop(inner: &Arc<Inner>) {
    let interval = inner.config.health_interval;
    let mut backoff = RESPAWN_BACKOFF_BASE;
    let mut next_spawn_allowed = Instant::now();
    loop {
        let (deficit, due) = {
            let mut state = inner.lock();
            loop {
                if state.shutdown {
                    return;
                }
                let now = Instant::now();
                let mut deficit = 0;
                if state.live < inner.config.size && now >= next_spawn_allowed {
                    deficit = inner.config.size - state.live;
                    // Reserve the slots so concurrent passes don't overfill.
                    state.live = inner.config.size;
                }
                // An idle worker due for a ping leaves the idle set while
                // probed, so a concurrent checkout can't grab it mid-ping.
                let due = state
                    .idle
                    .iter()
                    .position(|w| now.duration_since(w.last_checked) >= interval)
                    .and_then(|i| state.idle.remove(i));
                if deficit > 0 || due.is_some() {
                    break (deficit, due);
                }
                // Sleep until the next ping falls due, a pending backoff
                // expires, or something wakes us.
                let mut until = state
                    .idle
                    .iter()
                    .map(|w| w.last_checked + interval)
                    .min()
                    .unwrap_or(now + interval);
                if state.live < inner.config.size && next_spawn_allowed < until {
                    until = next_spawn_allowed;
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
        };

        if let Some(mut iw) = due {
            if iw.worker.is_alive() && maintain(&mut iw.worker, WorkerProcess::ping) {
                iw.last_checked = Instant::now();
                if !inner.check_in(iw) {
                    return;
                }
            } else {
                drop(iw);
                inner.discard_worker(true);
            }
        }

        let mut failed = 0usize;
        for _ in 0..deficit {
            match WorkerProcess::spawn_at(&inner.binary) {
                Ok(worker) => {
                    inner.stats.spawns.inc();
                    backoff = RESPAWN_BACKOFF_BASE;
                    let idle = IdleWorker {
                        worker,
                        served: 0,
                        last_checked: Instant::now(),
                    };
                    if !inner.check_in(idle) {
                        return;
                    }
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

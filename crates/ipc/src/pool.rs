//! Warm pool of isolated UDF workers.
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
//!   usual contained `Worker` error to that query and gives its slot back;
//!   an idle worker found dead at checkout is discarded the same way.
//! * **Hangs are bounded.** Every round trip through a pooled worker
//!   (invoke, and internally reset) is [guarded](WorkerProcess::guarded):
//!   its socket reads and writes time out at the deadline, and the worker
//!   is killed; a killed worker never re-enters the idle set.
//! * **Saturation pushes back.** When all workers are busy, checkouts queue
//!   up to a bounded number of waiters and a bounded wait time; beyond
//!   either bound the caller gets an error instead of unbounded queueing.
//!
//! No pool thread loops. Construction starts one *filler* thread that
//! spawns the initial workers off the constructing thread and exits. After
//! that, a checkout that finds no idle worker while fewer than `size` are
//! alive spawns one itself, outside the pool lock, so the statement after a
//! crash pays for the replacement. A failed spawn gives its slot back and
//! surfaces as the caller's `Worker("spawning …")` error, which the
//! caller's acquisition retry already handles.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs::Counter;

use crate::executor::{find_worker_binary, WorkerProcess, MAINTENANCE_TIMEOUT};

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
    /// Worker processes spawned (initial fill + replacements).
    pub spawns: u64,
    /// Checkouts served by a worker that had already served a query.
    pub reuses: u64,
    /// Workers discarded because they died (mid-query or while idle) or
    /// failed their check-in reset.
    pub crashes: u64,
    /// Invocations whose worker was killed at a deadline.
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
}

struct State {
    idle: VecDeque<IdleWorker>,
    /// Slots taken: workers idle, checked out, or being spawned right now.
    /// Never above `config.size`; a spawn reserves its slot here first.
    live: usize,
    waiters: usize,
    shutdown: bool,
}

struct Inner {
    config: PoolConfig,
    binary: PathBuf,
    stats: Stats,
    state: Mutex<State>,
    /// Signalled when a worker joins the idle set, a slot comes free, or
    /// shutdown begins.
    available: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Give a slot back and wake the queued checkouts; the first to run
    /// spawns into it.
    fn release_slot(&self) {
        self.lock().live -= 1;
        self.available.notify_all();
    }

    /// Spawn a worker into a slot already reserved in `live`. A failed
    /// spawn gives the slot back.
    fn spawn_into_slot(&self) -> Result<WorkerProcess> {
        match WorkerProcess::spawn_at(&self.binary) {
            Ok(worker) => {
                self.stats.spawns.inc();
                Ok(worker)
            }
            Err(e) => {
                self.release_slot();
                Err(e)
            }
        }
    }

    /// Put a healthy worker (back) into the idle set; false (and the
    /// worker retired) if the pool is shutting down.
    fn check_in(&self, worker: IdleWorker) -> bool {
        let mut state = self.lock();
        if state.shutdown {
            state.live -= 1;
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

/// The filler thread: spawn workers into free slots until the pool is full,
/// shutting down, or a spawn fails (the next checkout then spawns and
/// reports the failure), then exit.
fn fill(inner: &Inner) {
    loop {
        {
            let mut state = inner.lock();
            if state.shutdown || state.live >= inner.config.size {
                return;
            }
            state.live += 1;
        }
        let Ok(worker) = inner.spawn_into_slot() else {
            return;
        };
        if !inner.check_in(IdleWorker { worker, served: 0 }) {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------

/// A warm pool of isolated UDF worker processes.
///
/// Construction pre-spawns `config.size` workers (asynchronously — use
/// [`WorkerPool::wait_ready`] for deterministic warm-up). Clone-free by
/// design: share it as `Arc<WorkerPool>`; one pool is meant to be shared by
/// every client thread of a server.
pub struct WorkerPool {
    inner: Arc<Inner>,
    filler: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Create a pool. Fails early if no worker binary can be discovered
    /// (an explicit `config.worker_binary` is trusted as-is; spawn failures
    /// then surface at checkout).
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
        });
        let filler = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("jaguar-pool-filler".into())
                .spawn(move || fill(&inner))
                .map_err(|e| JaguarError::Worker(format!("spawning pool filler: {e}")))?
        };
        Ok(WorkerPool {
            inner,
            filler: Some(filler),
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
    /// timeout passes. Returns whether it became warm. Nothing refills a
    /// slot in the background once the initial fill is done: after a crash
    /// the pool is warm again only when a checkout has spawned the
    /// replacement.
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

    /// Check a warm worker out of the pool, or spawn one into a free slot
    /// when none is idle.
    ///
    /// Waits up to `checkout_timeout` when all workers are busy; fails
    /// immediately once `max_waiters` checkouts are already queued. The
    /// returned guard returns the worker on drop.
    pub fn checkout(&self) -> Result<PooledWorker> {
        let inner = &self.inner;
        let deadline = Instant::now() + inner.config.checkout_timeout;
        let mut state = inner.lock();
        let mut queued = false;
        // `Ok(None)`: a slot is reserved for a spawn outside the lock.
        let got = loop {
            if state.shutdown {
                break Err(JaguarError::Worker("worker pool is shut down".into()));
            }
            if let Some(mut iw) = state.idle.pop_front() {
                if iw.worker.is_alive() {
                    break Ok(Some(iw));
                }
                // Died while idle: discard it, freeing its slot.
                state.live -= 1;
                inner.stats.crashes.inc();
                continue;
            }
            if state.live < inner.config.size {
                state.live += 1;
                break Ok(None);
            }
            if !queued {
                if state.waiters >= inner.config.max_waiters {
                    break Err(JaguarError::Worker(format!(
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
                break Err(JaguarError::ResourceLimit(format!(
                    "timed out waiting {:?} for a pooled worker ({} busy, {} queued)",
                    inner.config.checkout_timeout,
                    state.live,
                    state.waiters - 1
                )));
            }
            let (s, _) = inner
                .available
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            state = s;
        };
        if queued {
            state.waiters -= 1;
        }
        drop(state);
        let (worker, served) = match got? {
            Some(iw) => {
                if iw.served > 0 {
                    inner.stats.reuses.inc();
                }
                (iw.worker, iw.served)
            }
            None => (inner.spawn_into_slot()?, 0),
        };
        Ok(PooledWorker {
            inner: Arc::clone(inner),
            worker: Some(worker),
            served,
            timed_out: false,
        })
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.lock().shutdown = true;
        self.inner.available.notify_all();
        // The filler stops before its next spawn; the one in flight is
        // bounded by the handshake deadline, so this join is too.
        if let Some(h) = self.filler.take() {
            let _ = h.join();
        }
        // Drain idle workers outside the lock; WorkerProcess::drop gives
        // each an orderly Shutdown with a bounded grace period.
        let drained: Vec<IdleWorker> = self.inner.lock().idle.drain(..).collect();
        drop(drained);
    }
}

// ---------------------------------------------------------------------
// Checkout guard
// ---------------------------------------------------------------------

/// One worker checked out of a [`WorkerPool`]: a guard that derefs to the
/// [`WorkerProcess`]. On drop the worker is `Reset` and returned to the
/// pool if healthy, or discarded, freeing its slot for the next checkout
/// to spawn into, if not.
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

    /// Note that a guarded round trip killed this worker at a deadline: it
    /// counts as a pool timeout, not a crash, and never re-enters the idle
    /// set.
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

        // Health gate for re-entry: the process must be alive and confirm a
        // guarded Reset. Everything else is a discard.
        let healthy = !self.timed_out
            && worker.is_alive()
            && matches!(
                worker.guarded(Some(MAINTENANCE_TIMEOUT), WorkerProcess::reset),
                Ok(Ok(()))
            );

        if !healthy {
            drop(worker);
            // Timeouts were already counted by `expired`; everything else
            // discarded here is a crash (died mid-query or failed reset).
            if !self.timed_out {
                self.inner.stats.crashes.inc();
            }
            self.inner.release_slot();
            return;
        }
        self.inner.check_in(IdleWorker {
            worker,
            served: self.served + 1,
        });
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

    /// A pool of `size` real workers, warm; `None` (the test skips) when
    /// the worker binary is not built.
    fn warm_pool(size: usize) -> Option<WorkerPool> {
        let found = {
            let _env = crate::executor::tests::ENV_LOCK
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            find_worker_binary()
        };
        let Ok(binary) = found else {
            eprintln!("skipping: jaguar-worker not built (cargo build --workspace)");
            return None;
        };
        let pool = WorkerPool::new(PoolConfig {
            size,
            worker_binary: Some(binary),
            ..PoolConfig::default()
        })
        .unwrap();
        assert!(pool.wait_ready(Duration::from_secs(10)));
        Some(pool)
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
    fn unspawnable_binary_fails_checkout_at_once() {
        // Nothing retries in the background: the checkout spawns into a
        // free slot, fails, and reports the spawn error itself.
        let cfg = PoolConfig {
            size: 2,
            checkout_timeout: Duration::from_secs(5),
            ..binaryless_config()
        };
        let pool = WorkerPool::new(cfg).unwrap();
        let start = Instant::now();
        let err = pool.checkout().unwrap_err();
        assert!(start.elapsed() < Duration::from_secs(1), "{err}");
        assert!(
            matches!(&err, JaguarError::Worker(m) if m.starts_with("spawning")),
            "{err}"
        );
        assert_eq!(pool.stats().spawns, 0);
        assert_eq!(pool.idle_count(), 0);
        drop(pool); // must not hang
    }

    #[test]
    fn idle_worker_found_dead_is_replaced_at_checkout() {
        let Some(pool) = warm_pool(1) else { return };
        let w = pool.checkout().unwrap();
        let pid = w.pid();
        drop(w);
        let before = pool.stats();
        let killed = std::process::Command::new("kill")
            .args(["-9", &pid.to_string()])
            .status()
            .unwrap();
        assert!(killed.success(), "the idle worker was running");
        // SIGKILL lands asynchronously: wait until the idle worker is gone.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.inner.lock().idle[0].worker.is_alive() {
            assert!(Instant::now() < deadline, "the killed worker never exited");
            std::thread::yield_now();
        }

        let w = pool.checkout().unwrap();
        assert_ne!(w.pid(), pid);
        let after = pool.stats();
        assert_eq!(after.crashes, before.crashes + 1, "{after}");
        assert_eq!(after.spawns, before.spawns + 1, "{after}");
        assert_eq!(after.queue_waits, before.queue_waits, "{after}");
    }

    #[test]
    fn queued_checkout_spawns_into_a_discarded_slot() {
        let Some(pool) = warm_pool(1) else { return };
        let mut held = pool.checkout().unwrap();
        let pid = held.pid();
        std::thread::scope(|s| {
            let queued = s.spawn(|| {
                let start = Instant::now();
                let w = pool.checkout().unwrap();
                (w.pid(), start.elapsed())
            });
            let deadline = Instant::now() + Duration::from_secs(10);
            while pool.inner.lock().waiters == 0 {
                assert!(Instant::now() < deadline, "the checkout never queued");
                std::thread::yield_now();
            }
            held.expired();
            drop(held);
            let (fresh, waited) = queued.join().unwrap();
            assert_ne!(fresh, pid);
            assert!(waited < Duration::from_secs(1), "{waited:?}");
        });
        let stats = pool.stats();
        assert_eq!((stats.timeouts, stats.crashes), (1, 0), "{stats}");
        assert_eq!(stats.spawns, 2, "{stats}");
    }

    #[test]
    fn serial_checkouts_never_queue() {
        let Some(pool) = warm_pool(1) else { return };
        for _ in 0..1_000 {
            drop(pool.checkout().unwrap());
        }
        let stats = pool.stats();
        assert_eq!(stats.queue_waits, 0, "{stats}");
        assert_eq!(stats.spawns, 1, "{stats}");
        assert_eq!(stats.reuses, 999, "{stats}");
    }
}

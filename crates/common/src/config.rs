//! Engine tunables.
//!
//! One flat struct rather than per-crate knobs so a [`crate::config::Config`]
//! can be carried from the top-level `Database` builder down into every
//! substrate. Defaults match the scale of the paper's experiments
//! (10,000-tuple relations with up to 10,000-byte attributes).

/// How aggressively commits are pushed to stable storage (on-disk
/// databases only; in-memory databases have no durability to tune).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Never fsync. Fastest; a crash may lose or tear recent commits.
    /// Only sensible for bulk loads and throwaway data.
    Off,
    /// Write-ahead log records are written (and the OS buffers them) at
    /// commit; fsync happens at checkpoints and — via the WAL-before-data
    /// barrier — before any dirty page is written back to a data file.
    /// Safe against process crashes; a power cut may lose the most recent
    /// commits, but replaying the surviving log restores a consistent
    /// database.
    Normal,
    /// fsync the log on every commit (group commit batches concurrent
    /// committers into one fsync). Full durability: an acknowledged commit
    /// survives power loss.
    Full,
}

/// Tunable parameters for a Jaguar database instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Size of one storage page in bytes. Records larger than a page spill
    /// into overflow chains.
    pub page_size: usize,
    /// Number of pages the buffer pool may cache.
    pub buffer_pool_pages: usize,
    /// Default instruction budget for a sandboxed UDF invocation
    /// (`None` = unlimited, the state of 1998 JVMs the paper criticises).
    pub default_fuel: Option<u64>,
    /// Default memory cap in bytes for a sandboxed UDF invocation.
    pub default_vm_memory: Option<usize>,
    /// Maximum VM call depth (guards against runaway recursion).
    pub max_call_depth: usize,
    /// Whether isolated-process UDF executors are created once per query
    /// (as in the paper) or pooled across queries.
    pub pooled_executors: bool,
    /// Number of warm workers in the executor pool (when
    /// `pooled_executors` is on).
    pub pool_size: usize,
    /// Deadline in milliseconds for one UDF invocation through a pooled
    /// worker; the worker is killed when a round trip fails past it
    /// (`ResourceLimit`). It applies to pooled workers only: a spawned
    /// per-query worker answers to `statement_timeout_ms` alone, as a
    /// pooled one does too when that budget is the tighter. `None` = no
    /// pool deadline.
    pub pool_invoke_timeout_ms: Option<u64>,
    /// How long, in milliseconds, a query waits for a pooled worker to
    /// come free before erroring.
    pub pool_checkout_timeout_ms: u64,
    /// Degree of intra-query parallelism: the number of threads a
    /// parallelizable `SELECT` may fan out to (a morsel-driven team, each
    /// thread with its own VM instance / pool checkout). `1` disables
    /// parallel execution — every statement runs exactly as it did before
    /// the parallel runtime existed. Defaults to
    /// `min(available cores, pool_size)` so isolated backends never plan
    /// more threads than there are warm workers.
    pub dop: usize,
    /// Statement deadline in milliseconds: a query still running past
    /// this budget is aborted: the executor and the VM interpreter check
    /// it cooperatively, and a worker (spawned or pooled) still inside a
    /// UDF at the deadline is killed. `None` (the default) disables the
    /// deadline.
    pub statement_timeout_ms: Option<u64>,
    /// Target rows per vectorized UDF invocation: the executor accumulates
    /// this many filter-surviving tuples before crossing into the UDF once
    /// for all of them. `0` or `1` disables batching (strict per-tuple
    /// invocation); other values are clamped into the engine's fixed
    /// 64–1024 budget. Only `Immutable`/`Stable` UDFs in batchable plan
    /// positions are affected.
    pub udf_batch_size: usize,
    /// Byte budget for the deterministic UDF result memo cache: results
    /// of `Volatility::Immutable` UDFs are cached by argument bytes and
    /// served without invoking the backend, shared across statements.
    /// `0` disables memoization entirely.
    pub udf_memo_bytes: usize,
    /// Client-side connect timeout in milliseconds for `net::Client`.
    pub client_connect_timeout_ms: u64,
    /// Client-side read timeout in milliseconds (how long to wait for a
    /// server response before giving up). `None` = block forever.
    pub client_read_timeout_ms: Option<u64>,
    /// Client-side write timeout in milliseconds. `None` = block forever.
    pub client_write_timeout_ms: Option<u64>,
    /// Queries slower than this many milliseconds are logged at WARN by
    /// the server's slow-query log. `None` disables the log.
    pub slow_query_ms: Option<u64>,
    /// Most concurrently *admitted* data-plane sessions the server
    /// executes at once. Further sessions wait in the admission queue;
    /// control-plane requests (Cancel, Metrics, Ping) bypass the gate
    /// entirely so a saturated server can still be cancelled and observed.
    pub max_connections: usize,
    /// Bound on sessions waiting for admission beyond `max_connections`.
    /// A session arriving to a full queue is shed immediately with a
    /// retryable `ServerBusy` error instead of queueing unboundedly.
    pub admission_queue_depth: usize,
    /// Deadline in milliseconds a queued session waits for admission
    /// before being shed with `ServerBusy` — the bound on how stale a
    /// queued request can get before the server tells the client to back
    /// off and retry.
    pub admission_timeout_ms: u64,
    /// Client-side retry budget for retryable failures (`ServerBusy`,
    /// connect timeouts): total attempts including the first. `1`
    /// disables client retries.
    pub client_retry_attempts: u32,
    /// Base backoff in milliseconds for client retries (exponential with
    /// deterministic jitter; the server's `retry_after_ms` hint floors
    /// each sleep).
    pub client_retry_base_ms: u64,
    /// Require wire sessions to authenticate (send `Hello`) before issuing
    /// statements. Unauthenticated sessions run as the default-deny
    /// `anonymous` principal: any security-labeled table denies them.
    /// In-process (embedded) calls are the trusted system principal and are
    /// unaffected.
    pub auth_required: bool,
    /// Whether observability surfaces (the server's slow-query log) may
    /// include full SQL text. Off by default: literals are redacted so
    /// tenant data cannot leak through logs.
    pub log_query_text: bool,
    /// Commit durability level for on-disk databases (see [`SyncMode`]).
    pub sync_mode: SyncMode,
    /// Checkpoint (flush data files + truncate the log) once the
    /// write-ahead log grows past this many bytes, which also bounds the
    /// replay work after a crash.
    pub wal_segment_bytes: u64,
}

impl Default for Config {
    fn default() -> Self {
        let pool_size = 2;
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Config {
            page_size: 8192,
            buffer_pool_pages: 1024,
            default_fuel: Some(500_000_000),
            default_vm_memory: Some(64 * 1024 * 1024),
            max_call_depth: 256,
            pooled_executors: false,
            pool_size,
            pool_invoke_timeout_ms: Some(30_000),
            pool_checkout_timeout_ms: 5_000,
            dop: cores.min(pool_size).max(1),
            statement_timeout_ms: None,
            udf_batch_size: 256,
            udf_memo_bytes: 1 << 20,
            client_connect_timeout_ms: 5_000,
            client_read_timeout_ms: Some(30_000),
            client_write_timeout_ms: Some(10_000),
            slow_query_ms: Some(500),
            max_connections: 64,
            admission_queue_depth: 32,
            admission_timeout_ms: 1_000,
            client_retry_attempts: 3,
            client_retry_base_ms: 25,
            auth_required: false,
            log_query_text: false,
            sync_mode: SyncMode::Full,
            wal_segment_bytes: 16 * 1024 * 1024,
        }
    }
}

impl Config {
    /// A configuration mirroring the paper's environment: per-query
    /// executors, JIT enabled, generous but finite resource limits.
    pub fn paper_1998() -> Self {
        Config::default()
    }

    /// Unlimited resources — the "current JVMs do not provide any form of
    /// generic resource management" baseline (§2.4); used by the A3 ablation.
    pub fn no_resource_limits(mut self) -> Self {
        self.default_fuel = None;
        self.default_vm_memory = None;
        self
    }

    pub fn with_page_size(mut self, bytes: usize) -> Self {
        self.page_size = bytes;
        self
    }

    pub fn with_buffer_pool_pages(mut self, pages: usize) -> Self {
        self.buffer_pool_pages = pages;
        self
    }

    /// Pool isolated executors across queries instead of spawning one per
    /// query, with `size` warm workers.
    pub fn with_pooled_executors(mut self, size: usize) -> Self {
        self.pooled_executors = true;
        self.pool_size = size;
        self
    }

    pub fn with_pool_invoke_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.pool_invoke_timeout_ms = ms;
        self
    }

    pub fn with_pool_checkout_timeout_ms(mut self, ms: u64) -> Self {
        self.pool_checkout_timeout_ms = ms;
        self
    }

    /// Degree of intra-query parallelism (`1` = serial execution, exactly
    /// the pre-parallel behavior). Values are floored at 1.
    pub fn with_dop(mut self, dop: usize) -> Self {
        self.dop = dop.max(1);
        self
    }

    /// Statement deadline (`None` disables it).
    pub fn with_statement_timeout_ms(mut self, ms: Option<u64>) -> Self {
        self.statement_timeout_ms = ms;
        self
    }

    /// Rows per vectorized UDF invocation (`0`/`1` = strict per-tuple).
    pub fn with_udf_batch_size(mut self, rows: usize) -> Self {
        self.udf_batch_size = rows;
        self
    }

    /// Byte budget for the Immutable-UDF result memo cache (`0` disables).
    pub fn with_udf_memo_bytes(mut self, bytes: usize) -> Self {
        self.udf_memo_bytes = bytes;
        self
    }

    /// Client socket timeouts: connect, read (`None` = forever), write
    /// (`None` = forever).
    pub fn with_client_timeouts_ms(
        mut self,
        connect: u64,
        read: Option<u64>,
        write: Option<u64>,
    ) -> Self {
        self.client_connect_timeout_ms = connect;
        self.client_read_timeout_ms = read;
        self.client_write_timeout_ms = write;
        self
    }

    /// Threshold for the server's slow-query log (`None` disables it).
    pub fn with_slow_query_ms(mut self, ms: Option<u64>) -> Self {
        self.slow_query_ms = ms;
        self
    }

    /// Cap on concurrently admitted data-plane sessions.
    pub fn with_max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Admission queue shape: how many sessions may wait beyond
    /// `max_connections`, and for how long before being shed with
    /// `ServerBusy`.
    pub fn with_admission_queue(mut self, depth: usize, timeout_ms: u64) -> Self {
        self.admission_queue_depth = depth;
        self.admission_timeout_ms = timeout_ms;
        self
    }

    /// Client retry budget for retryable failures (`attempts` includes
    /// the first try; `1` disables retries) and the base backoff.
    pub fn with_client_retry(mut self, attempts: u32, base_ms: u64) -> Self {
        self.client_retry_attempts = attempts;
        self.client_retry_base_ms = base_ms;
        self
    }

    /// Require wire sessions to authenticate before running statements
    /// (unauthenticated sessions become the default-deny `anonymous`
    /// principal).
    pub fn with_auth_required(mut self, on: bool) -> Self {
        self.auth_required = on;
        self
    }

    /// Allow full SQL text in the slow-query log instead of the redacted
    /// form.
    pub fn with_log_query_text(mut self, on: bool) -> Self {
        self.log_query_text = on;
        self
    }

    /// Commit durability level for on-disk databases.
    pub fn with_sync_mode(mut self, mode: SyncMode) -> Self {
        self.sync_mode = mode;
        self
    }

    /// Log size that triggers an automatic checkpoint.
    pub fn with_wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.page_size >= 4096);
        assert!(c.buffer_pool_pages > 0);
        assert!(c.default_fuel.is_some());
    }

    #[test]
    fn builders_compose() {
        let c = Config::default()
            .with_page_size(4096)
            .with_buffer_pool_pages(8)
            .no_resource_limits();
        assert_eq!(c.page_size, 4096);
        assert_eq!(c.buffer_pool_pages, 8);
        assert_eq!(c.default_fuel, None);
        assert_eq!(c.default_vm_memory, None);
    }

    #[test]
    fn pool_builders_compose() {
        let c = Config::default()
            .with_pooled_executors(4)
            .with_pool_invoke_timeout_ms(Some(100))
            .with_pool_checkout_timeout_ms(250);
        assert!(c.pooled_executors);
        assert_eq!(c.pool_size, 4);
        assert_eq!(c.pool_invoke_timeout_ms, Some(100));
        assert_eq!(c.pool_checkout_timeout_ms, 250);
        // Defaults keep the paper's per-query executor model.
        assert!(!Config::paper_1998().pooled_executors);
    }

    #[test]
    fn dop_defaults_and_builder() {
        let c = Config::default();
        assert!(c.dop >= 1, "dop is always at least 1");
        assert!(
            c.dop <= c.pool_size,
            "default dop never exceeds the pool size"
        );
        assert_eq!(Config::default().with_dop(8).dop, 8);
        assert_eq!(Config::default().with_dop(0).dop, 1, "floored at serial");
    }

    #[test]
    fn batch_size_builder() {
        let c = Config::default();
        assert_eq!(c.udf_batch_size, 256, "batching on by default");
        assert_eq!(Config::default().with_udf_batch_size(1).udf_batch_size, 1);
        assert_eq!(Config::default().with_udf_batch_size(64).udf_batch_size, 64);
    }

    #[test]
    fn memo_budget_builder() {
        let c = Config::default();
        assert_eq!(c.udf_memo_bytes, 1 << 20, "memoization on by default");
        assert_eq!(Config::default().with_udf_memo_bytes(0).udf_memo_bytes, 0);
        assert_eq!(
            Config::default().with_udf_memo_bytes(4096).udf_memo_bytes,
            4096
        );
    }

    #[test]
    fn lifecycle_builders_compose() {
        let c = Config::default();
        assert_eq!(c.statement_timeout_ms, None, "no deadline by default");
        assert!(c.client_connect_timeout_ms > 0);
        assert!(c.client_read_timeout_ms.is_some());
        let c = c
            .with_statement_timeout_ms(Some(250))
            .with_client_timeouts_ms(100, Some(200), None);
        assert_eq!(c.statement_timeout_ms, Some(250));
        assert_eq!(c.client_connect_timeout_ms, 100);
        assert_eq!(c.client_read_timeout_ms, Some(200));
        assert_eq!(c.client_write_timeout_ms, None);
    }

    #[test]
    fn admission_and_retry_builders_compose() {
        let c = Config::default();
        assert!(c.admission_queue_depth > 0, "queueing on by default");
        assert!(c.admission_timeout_ms > 0);
        assert!(c.client_retry_attempts >= 1);
        let c = c.with_admission_queue(7, 123).with_client_retry(5, 50);
        assert_eq!(c.admission_queue_depth, 7);
        assert_eq!(c.admission_timeout_ms, 123);
        assert_eq!(c.client_retry_attempts, 5);
        assert_eq!(c.client_retry_base_ms, 50);
    }

    #[test]
    fn security_builders_compose() {
        let c = Config::default();
        assert!(!c.auth_required, "embedded use stays open by default");
        assert!(!c.log_query_text, "query text redacted by default");
        let c = c.with_auth_required(true).with_log_query_text(true);
        assert!(c.auth_required);
        assert!(c.log_query_text);
    }

    #[test]
    fn durability_builders_compose() {
        let c = Config::default();
        assert_eq!(c.sync_mode, SyncMode::Full, "durable by default");
        assert!(c.wal_segment_bytes >= 1024 * 1024);
        let c = c
            .with_sync_mode(SyncMode::Normal)
            .with_wal_segment_bytes(4096);
        assert_eq!(c.sync_mode, SyncMode::Normal);
        assert_eq!(c.wal_segment_bytes, 4096);
    }
}

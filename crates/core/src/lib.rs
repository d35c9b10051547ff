//! # jaguar-core — the public face of Jaguar-RS
//!
//! Jaguar-RS is a from-scratch Rust reproduction of *Secure and Portable
//! Database Extensibility* (Godfrey, Mayr, Seshadri, von Eicken — SIGMOD
//! 1998): an extensible relational engine whose user-defined functions can
//! run under any point of the paper's design space, a body in a [`Placement`]:
//!
//! | Design | body × placement | Registered with | Trust model |
//! |---|---|---|---|
//! | 1, "C++"  | native × server   | [`Database::register_native_udf`], [`UdfImpl::registered`] | full server authority |
//! | 2, "IC++" | native × worker   | [`UdfImpl::registered`] | separate process |
//! | 3, "JNI"  | bytecode × server | `UdfDesign::Sandboxed` | verified bytecode + security manager + resource limits |
//! | 4         | bytecode × worker | `UdfDesign::SandboxedIsolated` | both |
//!
//! ## Quickstart
//!
//! ```
//! use jaguar_core::{Database, UdfDesign, UdfSignature, DataType, Value};
//!
//! let db = Database::in_memory();
//! db.execute("CREATE TABLE stocks (id INT, history BYTEARRAY)").unwrap();
//! db.execute("INSERT INTO stocks VALUES (1, X'0102030405')").unwrap();
//!
//! // A user-authored UDF in JagScript, compiled to verified bytecode and
//! // executed inside the sandbox (the paper's Design 3).
//! db.register_jagscript_udf(
//!     "bytesum",
//!     UdfSignature::new(vec![DataType::Bytes], DataType::Int),
//!     "fn main(b: bytes) -> i64 {
//!          let s: i64 = 0;
//!          let i: i64 = 0;
//!          while i < len(b) { s = s + b[i]; i = i + 1; }
//!          return s;
//!      }",
//!     UdfDesign::Sandboxed,
//! ).unwrap();
//!
//! let r = db.execute("SELECT bytesum(history) FROM stocks").unwrap();
//! assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(15));
//! ```

use std::sync::Arc;

use jaguar_catalog::Catalog;
use jaguar_sql::Engine;

pub use jaguar_common::cancel::CancelToken;
pub use jaguar_common::config::{Config, SyncMode};
pub use jaguar_common::error::{JaguarError, Result, VmTrap};
pub use jaguar_common::obs;
pub use jaguar_common::obs::MetricsSnapshot;
pub use jaguar_common::retry;
pub use jaguar_common::{ByteArray, ColumnSet, DataType, Field, Schema, Tuple, Value};
pub use jaguar_ipc::pool::{PoolConfig, PoolStatsSnapshot, WorkerPool};
pub use jaguar_net::{CancelHandle, Client, ClientOptions, Server};
/// Multi-tenant security: the principal a statement runs under and the
/// attributes its security labels read (see [`Config::auth_required`]).
pub use jaguar_sql::SessionContext;
pub use jaguar_sql::{ExecStats, QueryResult, Request};
pub use jaguar_udf::{
    BatchError, BatchResult, CallbackHandler, NativeUdf, Placement, ScalarUdf, UdfDef, UdfImpl,
    UdfSignature, ValueBatch, Volatility,
};
pub use jaguar_vm::{Permission, PermissionSet, ResourceLimits};
/// Write-ahead log internals: crash points for the recovery harness
/// ([`wal::fault`]), the log reader ([`wal::record`]), recovery statistics.
pub use jaguar_wal as wal;

/// Where a JagScript UDF's verified bytecode runs: `Sandboxed` in the
/// server (Design 3), `SandboxedIsolated` in a worker (Design 4).
pub type UdfDesign = Placement;

/// An embedded Jaguar database.
pub struct Database {
    engine: Arc<Engine>,
}

impl Database {
    /// An in-memory database with default configuration.
    pub fn in_memory() -> Database {
        Database::with_config(Config::default())
    }

    /// An in-memory database with explicit configuration.
    pub fn with_config(config: Config) -> Database {
        let db = Database {
            engine: Arc::new(Engine::in_memory(config.clone())),
        };
        db.attach_pool_if_configured(&config);
        db
    }

    /// A database whose tables are stored under `dir`.
    ///
    /// Opening runs crash recovery: committed transactions still in the
    /// write-ahead log are replayed before the first query runs, and
    /// partial effects of uncommitted statements are discarded. The
    /// `wal.recovered_txns` / `wal.replayed_pages` entries of
    /// [`Database::metrics`] report what replay did.
    pub fn open(dir: impl Into<std::path::PathBuf>, config: Config) -> Result<Database> {
        let catalog = Arc::new(Catalog::on_disk(dir, config.clone())?);
        let db = Database {
            engine: Arc::new(Engine::with_catalog(catalog)),
        };
        db.attach_pool_if_configured(&config);
        Ok(db)
    }

    /// Checkpoint now: make the log durable, flush and sync every data
    /// file to stable storage, and truncate the write-ahead log. Runs
    /// automatically when the log outgrows [`Config::wal_segment_bytes`],
    /// at [`Database::close`], and on drop.
    pub fn checkpoint(&self) -> Result<()> {
        self.engine.catalog().checkpoint()
    }

    /// Close the database cleanly: checkpoint (flush + fsync + truncate
    /// the log), consuming the handle. Equivalent to dropping, but errors
    /// surface instead of being swallowed. (Drop then re-checkpoints,
    /// which is trivial on an already-clean database.)
    pub fn close(self) -> Result<()> {
        self.checkpoint()
    }

    /// Spin up the warm worker pool when `config.pooled_executors` asks for
    /// one. Best-effort: if the worker binary cannot be found (e.g. a
    /// doctest environment), the engine falls back to the paper's
    /// per-query-spawn model rather than failing construction.
    fn attach_pool_if_configured(&self, config: &Config) {
        if !config.pooled_executors {
            return;
        }
        let pool_config = PoolConfig {
            size: config.pool_size,
            invoke_timeout: config
                .pool_invoke_timeout_ms
                .map(std::time::Duration::from_millis),
            checkout_timeout: std::time::Duration::from_millis(config.pool_checkout_timeout_ms),
            ..PoolConfig::default()
        };
        match WorkerPool::new(pool_config) {
            Ok(pool) => self.engine.set_worker_pool(Some(Arc::new(pool))),
            Err(e) => {
                obs::warn!(
                    target: "jaguar-core",
                    "worker pool unavailable ({e}); isolated UDFs will spawn one worker per query"
                );
            }
        }
    }

    /// Attach an explicitly constructed worker pool (replacing any pool the
    /// configuration created), or detach with `None`.
    pub fn set_worker_pool(&self, pool: Option<Arc<WorkerPool>>) {
        self.engine.set_worker_pool(pool);
    }

    /// The attached worker pool, if pooled executors are active.
    pub fn worker_pool(&self) -> Option<Arc<WorkerPool>> {
        self.engine.worker_pool()
    }

    /// Lifetime counters of the attached worker pool (spawns, reuses,
    /// crashes, timeouts, queue waits), if one is attached.
    pub fn pool_stats(&self) -> Option<PoolStatsSnapshot> {
        self.engine.worker_pool().map(|p| p.stats())
    }

    /// The underlying SQL engine (advanced use).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The catalog (tables + UDFs).
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.engine.catalog()
    }

    /// Execute one SQL statement: a `&str`, or a [`Request`] that names
    /// the principal and the lifecycle token.
    ///
    /// Under a session, security labels set via
    /// [`Database::set_table_label`] / [`Database::set_column_label`] are
    /// enforced by planner rewrites: the row label becomes the plan's first
    /// filter predicate and denied columns are pruned from `*` or rejected
    /// when named. With [`Config::statement_timeout_ms`] set, the statement
    /// runs under a deadline and aborts with [`JaguarError::Timeout`] when
    /// it expires; `token.cancel()` from another thread aborts it
    /// cooperatively, sealing any partial DML effects through the
    /// write-ahead log.
    pub fn execute<'a>(&self, request: impl Into<Request<'a>>) -> Result<QueryResult> {
        self.engine.execute(request)
    }

    /// A fresh lifecycle token carrying the configured statement timeout
    /// (unbounded when none is set), for [`Request::with_token`].
    pub fn statement_token(&self) -> CancelToken {
        self.engine.statement_token()
    }

    /// Set (or clear, with `None`) the table's row-level security label: a
    /// SQL predicate over row columns and `session.*` attributes, e.g.
    /// `tenant = session.tenant OR session.role = 'admin'`, using only
    /// string, integer and boolean literals, `=`, `!=`, AND, OR, NOT and
    /// parentheses; any other label is refused. Persisted as its text in
    /// the catalog manifest and enforced for every session-scoped
    /// statement — SELECT, DML, EXPLAIN, serial or parallel.
    pub fn set_table_label(&self, table: &str, label: Option<&str>) -> Result<()> {
        self.engine.set_table_label(table, label)
    }

    /// Set (or clear) a column-level security label; it may reference only
    /// `session.*` attributes. A session for which it does not evaluate to
    /// true cannot read or write the column.
    pub fn set_column_label(&self, table: &str, column: &str, label: Option<&str>) -> Result<()> {
        self.engine.set_column_label(table, column, label)
    }

    /// Render the optimized plan of a statement, one line per plan row.
    /// Text that says `EXPLAIN ANALYZE` executes the SELECT and annotates
    /// every stage with observed row counts and wall time. Under a session,
    /// the injected row-label filter renders with a `[labeled]` tag, and
    /// labeled tables the session may not read fail here exactly as they
    /// do at execution.
    pub fn explain<'a>(&self, request: impl Into<Request<'a>>) -> Result<String> {
        self.engine.explain(request)
    }

    /// A point-in-time snapshot of the process-wide metrics registry:
    /// per-backend UDF invocation counts and latency histograms (a live
    /// version of the paper's Table 1), IPC crossing/byte counters, worker
    /// pool statistics, SQL and network request counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        obs::global().snapshot()
    }

    /// Register a pre-built UDF definition.
    pub fn register_udf(&self, def: UdfDef) {
        self.catalog().udfs().register(def);
    }

    /// Register a trusted native closure (Design 1) as
    /// [`Volatility::Volatile`], the safe assumption for an arbitrary one;
    /// [`Database::register_native_udf_with_volatility`] declares a purer class.
    pub fn register_native_udf(
        &self,
        name: &str,
        signature: UdfSignature,
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.register_native_udf_with_volatility(name, signature, Volatility::Volatile, f);
    }

    /// [`Database::register_native_udf`] with an explicit volatility
    /// class (`Stable` unlocks reordering/batching, `Immutable` also
    /// memoization).
    pub fn register_native_udf_with_volatility(
        &self,
        name: &str,
        signature: UdfSignature,
        volatility: Volatility,
        f: impl Fn(&[Value], &mut dyn CallbackHandler) -> Result<Value> + Send + Sync + 'static,
    ) {
        let def = UdfDef::new(name, signature, UdfImpl::closure(f));
        self.register_udf(def.with_volatility(volatility));
    }

    /// Compile JagScript source and register it under the given design.
    ///
    /// The module's host imports must all name callbacks registered on
    /// this database; the UDF runs under a permission set granting exactly
    /// those (least privilege), plus the configured fuel/memory limits.
    /// Defaults to [`Volatility::Volatile`]; see
    /// [`Database::register_jagscript_udf_with_volatility`].
    pub fn register_jagscript_udf(
        &self,
        name: &str,
        signature: UdfSignature,
        source: &str,
        design: UdfDesign,
    ) -> Result<()> {
        self.register_jagscript_udf_with_volatility(
            name,
            signature,
            source,
            design,
            Volatility::Volatile,
        )
    }

    /// [`Database::register_jagscript_udf`] with an explicit volatility
    /// class. Declaring `Immutable` additionally lets a straight-line body
    /// run in-engine: on the compiled tier in the statement's own arena,
    /// never checking out a worker or crossing into one.
    pub fn register_jagscript_udf_with_volatility(
        &self,
        name: &str,
        signature: UdfSignature,
        source: &str,
        design: UdfDesign,
        volatility: Volatility,
    ) -> Result<()> {
        let module = jaguar_lang::compile(name, source)?;
        self.register_module_udf_with_volatility(name, signature, module, design, volatility)
    }

    /// Register an already-compiled (unverified) module's `main` as a UDF
    /// with an explicit volatility class, through the engine's one import
    /// gate ([`Engine::register_sandboxed_udf`]).
    pub fn register_module_udf_with_volatility(
        &self,
        name: &str,
        signature: UdfSignature,
        module: jaguar_vm::Module,
        design: UdfDesign,
        volatility: Volatility,
    ) -> Result<()> {
        (self.engine).register_sandboxed_udf(name, signature, module, "main", design, volatility)
    }

    /// Register (or replace) a named server-side callback (§4.2).
    pub fn register_callback(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.engine.register_callback(name, f);
    }

    /// Start serving this database over TCP (two-tier deployment).
    pub fn serve(&self, bind_addr: &str) -> Result<Server> {
        Server::start(Arc::clone(&self.engine), bind_addr)
    }
}

impl Drop for Database {
    /// Best-effort clean shutdown: even without an explicit
    /// [`Database::close`], dirty pages are flushed and synced so a clean
    /// exit never depends on crash recovery.
    fn drop(&mut self) {
        let _ = self.engine.catalog().checkpoint();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let r = db.execute("SELECT a FROM t WHERE a >= 2").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn jagscript_registration_and_execution() {
        let db = Database::in_memory();
        db.execute("CREATE TABLE t (b BYTEARRAY)").unwrap();
        db.execute("INSERT INTO t VALUES (X'010203')").unwrap();
        db.register_jagscript_udf(
            "first_byte",
            UdfSignature::new(vec![DataType::Bytes], DataType::Int),
            "fn main(b: bytes) -> i64 { return b[0]; }",
            UdfDesign::Sandboxed,
        )
        .unwrap();
        let r = db.execute("SELECT first_byte(b) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1));
    }

    #[test]
    fn unoffered_import_rejected_at_registration() {
        let db = Database::in_memory();
        let e = db
            .register_jagscript_udf(
                "sneaky",
                UdfSignature::new(vec![], DataType::Int),
                "import format_disk() -> i64; fn main() -> i64 { return format_disk(); }",
                UdfDesign::Sandboxed,
            )
            .unwrap_err();
        assert!(matches!(e, JaguarError::SecurityViolation(_)), "{e}");
    }

    #[test]
    fn callback_imports_accepted_when_offered() {
        let db = Database::in_memory();
        // "cb" is registered by default.
        db.register_jagscript_udf(
            "with_cb",
            UdfSignature::new(vec![], DataType::Int),
            "import cb(i64) -> i64; fn main() -> i64 { return cb(21) * 2; }",
            UdfDesign::Sandboxed,
        )
        .unwrap();
        db.execute("CREATE TABLE one (x INT)").unwrap();
        db.execute("INSERT INTO one VALUES (0)").unwrap();
        let r = db.execute("SELECT with_cb() FROM one").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(42));
    }

    #[test]
    fn native_udf_registration() {
        let db = Database::in_memory();
        db.register_native_udf(
            "twice",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            |args, _| Ok(Value::Int(args[0].as_int()? * 2)),
        );
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (21)").unwrap();
        let r = db.execute("SELECT twice(a) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(42));
    }

    #[test]
    fn runaway_udf_is_contained() {
        let db = Database::with_config(Config {
            default_fuel: Some(100_000),
            ..Config::default()
        });
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.register_jagscript_udf(
            "spin",
            UdfSignature::new(vec![], DataType::Int),
            "fn main() -> i64 { while 1 { } return 0; }",
            UdfDesign::Sandboxed,
        )
        .unwrap();
        let e = db.execute("SELECT spin() FROM t").unwrap_err();
        assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
        // The server survives: further queries work.
        assert_eq!(db.execute("SELECT a FROM t").unwrap().rows.len(), 1);
    }
}

//! # jaguar-core — the public face of Jaguar-RS
//!
//! Jaguar-RS is a from-scratch Rust reproduction of *Secure and Portable
//! Database Extensibility* (Godfrey, Mayr, Seshadri, von Eicken — SIGMOD
//! 1998): an extensible relational engine whose user-defined functions can
//! run under any point of the paper's design space —
//!
//! | Design | [`UdfDesign`] variant | Trust model |
//! |---|---|---|
//! | 1, "C++"  | [`UdfDesign::TrustedNative`]  | full server authority |
//! | 2, "IC++" | [`UdfDesign::IsolatedNative`] | separate process |
//! | 3, "JNI"  | [`UdfDesign::Sandboxed`]      | verified bytecode + security manager + resource limits |
//! | 4         | [`UdfDesign::SandboxedIsolated`] | both |
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
pub use jaguar_net::{CancelHandle, Client, ClientOptions, Server};
/// Morsel-driven parallel execution internals: the dispenser, worker
/// teams, and `par.*` metric handles (see [`Config::dop`]).
pub use jaguar_par as par;
pub use jaguar_pool::{PoolConfig, PoolStatsSnapshot, WorkerPool};
/// Multi-tenant security: session principals, label expressions, and the
/// page cipher (see [`Config::auth_required`] / [`Config::encryption_key`]).
pub use jaguar_sec::{LabelExpr, PageCipher, SessionContext};
pub use jaguar_sql::{ExecStats, QueryResult};
pub use jaguar_udf::{
    BatchError, BatchResult, CallbackHandler, NativeUdf, ScalarUdf, UdfDef, UdfImpl, UdfSignature,
    ValueBatch, Volatility,
};
pub use jaguar_vm::{Permission, PermissionSet, ResourceLimits};
/// Write-ahead log internals: crash points for the recovery harness
/// ([`wal::fault`]), the log reader ([`wal::record`]), recovery statistics.
pub use jaguar_wal as wal;

/// Which execution design a registered UDF runs under (paper Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UdfDesign {
    /// Design 1: trusted native code in the server process.
    TrustedNative,
    /// Design 2: native code in a per-query worker process. The string
    /// names the function in the worker binary's registry.
    IsolatedNative(String),
    /// Design 3: verified bytecode, sandboxed, in-process.
    Sandboxed,
    /// Design 4: verified bytecode in a per-query worker process.
    SandboxedIsolated,
}

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
    /// automatically when the log outgrows [`Config::wal_segment_bytes`] /
    /// [`Config::checkpoint_every`], at [`Database::close`], and on drop.
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
            max_waiters: config.pool_max_waiters,
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

    /// Execute one SQL statement. With [`Config::statement_timeout_ms`]
    /// set, the statement runs under a deadline and aborts with
    /// [`JaguarError::Timeout`] when it expires.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.engine.execute(sql)
    }

    /// Execute one SQL statement under a caller-supplied lifecycle token
    /// (see [`Database::statement_token`]): `token.cancel()` from another
    /// thread aborts the statement cooperatively, sealing any partial DML
    /// effects through the write-ahead log.
    pub fn execute_cancellable(&self, sql: &str, token: &CancelToken) -> Result<QueryResult> {
        self.engine.execute_cancellable(sql, token)
    }

    /// A fresh lifecycle token carrying the configured statement timeout
    /// (unbounded when none is set), for use with
    /// [`Database::execute_cancellable`].
    pub fn statement_token(&self) -> CancelToken {
        self.engine.new_statement_token()
    }

    /// Execute one SQL statement under `session`'s principal. Security
    /// labels set via [`Database::set_table_label`] /
    /// [`Database::set_column_label`] are enforced by planner rewrites:
    /// the row label becomes the plan's first filter predicate and denied
    /// columns are pruned from `*` or rejected when named. `None` is the
    /// trusted system principal (same as [`Database::execute`]).
    pub fn execute_as(&self, sql: &str, session: Option<&SessionContext>) -> Result<QueryResult> {
        self.engine.execute_as(sql, session)
    }

    /// Set (or clear, with `None`) the table's row-level security label: a
    /// boolean expression over row columns and `session.*` attributes,
    /// e.g. `tenant = session.tenant OR session.role = 'admin'`. Persisted
    /// in the catalog manifest and enforced for every session-scoped
    /// statement — SELECT, DML, EXPLAIN, serial or parallel.
    pub fn set_table_label(&self, table: &str, label: Option<&str>) -> Result<()> {
        self.catalog().set_table_label(table, label)
    }

    /// Set (or clear) a column-level security label; it may reference only
    /// `session.*` attributes. A session for which it does not evaluate to
    /// true cannot read or write the column.
    pub fn set_column_label(&self, table: &str, column: &str, label: Option<&str>) -> Result<()> {
        self.catalog().set_column_label(table, column, label)
    }

    /// `(name, circuit-breaker state)` for every registered UDF —
    /// `"closed"`, `"open"` (quarantined), or `"half-open"` (probing).
    pub fn udf_breaker_states(&self) -> Vec<(String, &'static str)> {
        self.catalog().udfs().breaker_states()
    }

    /// Render the optimized plan for a SELECT.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.engine.explain(sql)
    }

    /// Execute the SELECT and render its plan annotated with observed
    /// per-operator row counts and wall time (`EXPLAIN ANALYZE` output).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let r = self.engine.execute(&format!("EXPLAIN ANALYZE {sql}"))?;
        let mut out = String::new();
        for row in &r.rows {
            if let Value::Str(line) = row.get(0)? {
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok(out)
    }

    /// [`Database::explain`] under `session`'s principal: the injected
    /// row-label filter renders with a `[labeled]` tag, and labeled tables
    /// the session may not read fail here exactly as they do at execution.
    pub fn explain_as(&self, sql: &str, session: Option<&SessionContext>) -> Result<String> {
        self.engine.explain_as(sql, session)
    }

    /// [`Database::explain_analyze`] under `session`'s principal.
    pub fn explain_analyze_as(
        &self,
        sql: &str,
        session: Option<&SessionContext>,
    ) -> Result<String> {
        let r = self
            .engine
            .execute_as(&format!("EXPLAIN ANALYZE {sql}"), session)?;
        let mut out = String::new();
        for row in &r.rows {
            if let Value::Str(line) = row.get(0)? {
                out.push_str(line);
                out.push('\n');
            }
        }
        Ok(out)
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

    /// Register a trusted native UDF (Design 1). Defaults to
    /// [`Volatility::Volatile`] — the safe assumption for an arbitrary
    /// closure — which pins the UDF's written position in WHERE clauses
    /// and excludes it from batching and memoization. Declare a purer
    /// class via [`Database::register_native_udf_with_volatility`] to opt
    /// into those optimizations.
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
        let native = jaguar_udf::NativeUdf::new(name, signature.clone(), f);
        self.register_udf(
            UdfDef::new(name, signature, UdfImpl::Native(native)).with_volatility(volatility),
        );
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
    /// class. Declaring `Immutable` additionally makes the UDF a
    /// candidate for Froid-style inlining: straight-line bodies are
    /// translated to native scalar expressions and never enter a
    /// sandbox at all.
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

    /// Register an already-compiled (unverified) module as a UDF.
    pub fn register_module_udf(
        &self,
        name: &str,
        signature: UdfSignature,
        module: jaguar_vm::Module,
        design: UdfDesign,
    ) -> Result<()> {
        self.register_module_udf_with_volatility(
            name,
            signature,
            module,
            design,
            Volatility::Volatile,
        )
    }

    /// [`Database::register_module_udf`] with an explicit volatility
    /// class.
    pub fn register_module_udf_with_volatility(
        &self,
        name: &str,
        signature: UdfSignature,
        module: jaguar_vm::Module,
        design: UdfDesign,
        volatility: Volatility,
    ) -> Result<()> {
        let imp = match design {
            UdfDesign::TrustedNative => {
                return Err(JaguarError::Udf(
                    "TrustedNative needs a Rust closure; use register_native_udf".into(),
                ))
            }
            UdfDesign::IsolatedNative(worker_fn) => UdfImpl::IsolatedNative { worker_fn },
            UdfDesign::Sandboxed | UdfDesign::SandboxedIsolated => {
                // Least privilege: grant exactly the declared imports, and
                // only if the engine offers them.
                let mut perms = PermissionSet::deny_all(name);
                for imp in &module.imports {
                    if !self.engine.has_callback(&imp.name) {
                        return Err(JaguarError::SecurityViolation(format!(
                            "udf '{name}' imports '{}' which this database does not offer",
                            imp.name
                        )));
                    }
                    perms = perms.grant(Permission::HostCall(imp.name.clone()));
                }
                let config = self.catalog().config();
                let limits = ResourceLimits {
                    fuel: config.default_fuel,
                    memory: config.default_vm_memory,
                    max_call_depth: config.max_call_depth,
                };
                let spec = jaguar_udf::def::vm_spec(
                    module,
                    "main",
                    limits,
                    config.vm_jit_mode,
                    Some(Arc::new(perms)),
                )?
                .with_tier_up(config.tier_up_after);
                if design == UdfDesign::SandboxedIsolated {
                    UdfImpl::IsolatedVm(spec)
                } else {
                    UdfImpl::Vm(spec)
                }
            }
        };
        self.register_udf(UdfDef::new(name, signature, imp).with_volatility(volatility));
        Ok(())
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

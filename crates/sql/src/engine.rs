//! The embeddable database engine.
//!
//! [`Engine`] owns a catalog and executes SQL text end to end. It also
//! hosts the server side of the §4.2 callback channel: named callback
//! functions UDFs may invoke mid-execution (`Clip()`/`Lookup()`-style
//! helpers in the paper's terms), registered via
//! [`Engine::register_callback`]. The default `cb` callback returns its
//! argument — the paper's "no data is actually transferred" experiment
//! callback.

use std::collections::HashMap;
use std::sync::Arc;

use jaguar_catalog::Catalog;
use jaguar_common::cancel::CancelToken;
use jaguar_common::config::Config;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::schema::{Schema, SchemaRef};
use jaguar_common::{Tuple, Value};
use jaguar_ipc::proto::CallbackHandler;
use jaguar_pool::WorkerPool;
use jaguar_sec::SessionContext;
use parking_lot::RwLock;

use crate::ast::Statement;
use crate::exec::{eval, matches_all, ExecCtx, ExecStats, Executor, OpProfile, RowSource};
use crate::parser::parse;
use crate::plan::{bind_dml, bind_select, explain, AccessPath, BoundDml, BoundSelect};

/// A server-side callback function.
pub type CallbackFn = dyn Fn(&[Value]) -> Result<Value> + Send + Sync;

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: SchemaRef,
    pub rows: Vec<Tuple>,
    /// Rows affected by DML / DDL acknowledgement.
    pub affected: u64,
    pub stats: ExecStats,
}

impl QueryResult {
    fn empty() -> QueryResult {
        QueryResult {
            schema: Arc::new(Schema::default()),
            rows: Vec::new(),
            affected: 0,
            stats: ExecStats::default(),
        }
    }

    /// Single-column integer convenience accessor (benchmarks/tests).
    pub fn int_column(&self, idx: usize) -> Result<Vec<i64>> {
        self.rows.iter().map(|r| r.get(idx)?.as_int()).collect()
    }
}

/// The database engine: catalog + SQL execution + callback registry.
pub struct Engine {
    catalog: Arc<Catalog>,
    callbacks: RwLock<HashMap<String, Arc<CallbackFn>>>,
    /// Shared warm-worker pool for isolated UDF executors. `None` (the
    /// default, and the paper's model) spawns one worker per query.
    pool: RwLock<Option<Arc<WorkerPool>>>,
    /// Engine-lifetime optimizer state: the deterministic-UDF memo cache
    /// (budgeted by `Config::udf_memo_bytes`; 0 disables) and the online
    /// per-predicate selectivity tallies feeding the reorder pass. Shared
    /// across statements and sessions, like the paper's server state.
    opt: Arc<jaguar_opt::OptState>,
    /// Engine-wide overload level (raised by the server's admission gate
    /// and pool pressure, read at plan time to shed optional work —
    /// parallel fan-out, the memo cache — before anything is refused).
    overload: Arc<jaguar_common::overload::OverloadState>,
}

impl Engine {
    /// An engine over an in-memory catalog.
    pub fn in_memory(config: Config) -> Engine {
        Engine::with_catalog(Arc::new(Catalog::in_memory(config)))
    }

    /// An engine over an existing catalog.
    pub fn with_catalog(catalog: Arc<Catalog>) -> Engine {
        let opt = Arc::new(jaguar_opt::OptState::new(catalog.config().udf_memo_bytes));
        let engine = Engine {
            catalog,
            callbacks: RwLock::new(HashMap::new()),
            pool: RwLock::new(None),
            opt,
            overload: Arc::new(jaguar_common::overload::OverloadState::new()),
        };
        // The paper's experiment callback: identity, no data transferred.
        engine.register_callback("cb", |args| {
            Ok(args.first().cloned().unwrap_or(Value::Int(0)))
        });
        engine
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The engine's shared optimizer state (memo cache + selectivity).
    pub(crate) fn opt_state(&self) -> &Arc<jaguar_opt::OptState> {
        &self.opt
    }

    /// The memo handle a new statement should wire into its context,
    /// degraded under overload: at `Saturated` the statement runs
    /// unmemoized and the resident cache is dropped, handing its budget
    /// back to the allocator. The cache refills naturally once pressure
    /// drains — memoization is an optimisation, never a correctness
    /// dependency, which is what makes it safe to shed first.
    pub(crate) fn memo_for_statement(&self) -> Option<Arc<jaguar_opt::MemoCache>> {
        use jaguar_common::overload::Pressure;
        let memo = self.opt.memo()?;
        if self.overload.level() >= Pressure::Saturated {
            let freed = memo.clear();
            if freed > 0 {
                jaguar_common::obs::global()
                    .counter("degrade.memo_dropped")
                    .inc();
                jaguar_common::obs::warn!(
                    target: "jaguar-sql",
                    "server saturated: dropped {freed} memo byte(s); \
                     statements run unmemoized until pressure drains"
                );
            }
            return None;
        }
        Some(Arc::clone(memo))
    }

    /// The engine-wide overload level. The network layer's admission gate
    /// writes it; the planner reads it to degrade gracefully (clamp `dop`,
    /// shed the memo) before any request is refused.
    pub fn overload(&self) -> &Arc<jaguar_common::overload::OverloadState> {
        &self.overload
    }

    /// Attach (or detach, with `None`) the warm worker pool used by
    /// isolated UDF designs. One pool serves all queries on this engine,
    /// including concurrent network sessions.
    pub fn set_worker_pool(&self, pool: Option<Arc<WorkerPool>>) {
        *self.pool.write() = pool;
    }

    /// The attached worker pool, if any.
    pub fn worker_pool(&self) -> Option<Arc<WorkerPool>> {
        self.pool.read().clone()
    }

    /// Is a callback with this name registered? Used by the network layer
    /// to gate UDF imports at registration time.
    pub fn has_callback(&self, name: &str) -> bool {
        self.callbacks
            .read()
            .contains_key(&name.to_ascii_lowercase())
    }

    /// Register (or replace) a named server-side callback.
    pub fn register_callback(
        &self,
        name: &str,
        f: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) {
        self.callbacks
            .write()
            .insert(name.to_ascii_lowercase(), Arc::new(f));
    }

    /// Execute one SQL statement under a fresh lifecycle token. With
    /// `Config::statement_timeout_ms` set, the token carries a deadline
    /// and the statement aborts with `Timeout` when it expires.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        let token = self.new_statement_token();
        self.execute_cancellable(sql, &token)
    }

    /// Execute one SQL statement under `session`'s principal: security
    /// labels on the referenced table are enforced by planner rewrites
    /// (row-label filter injection, column pruning/denial). `None` is the
    /// trusted in-process system principal — identical to [`Engine::execute`].
    pub fn execute_as(&self, sql: &str, session: Option<&SessionContext>) -> Result<QueryResult> {
        let token = self.new_statement_token();
        self.execute_cancellable_as(sql, &token, session)
    }

    /// A lifecycle token honouring the engine's configured statement
    /// timeout (unbounded when none is set). Hand a clone to another
    /// thread to cancel the statement executed under it.
    pub fn new_statement_token(&self) -> CancelToken {
        CancelToken::from_timeout_ms(self.catalog.config().statement_timeout_ms)
    }

    /// Execute one SQL statement under a caller-supplied lifecycle token.
    /// Cancellation (another thread calling `token.cancel()`) or deadline
    /// expiry aborts the statement cooperatively: operators notice within
    /// a few tuples, sandboxed UDFs within a few thousand instructions,
    /// and pooled workers at the next supervisor deadline. Partial DML
    /// effects are sealed through the WAL exactly like any other failed
    /// statement.
    pub fn execute_cancellable(&self, sql: &str, token: &CancelToken) -> Result<QueryResult> {
        self.execute_cancellable_as(sql, token, None)
    }

    /// [`Engine::execute_cancellable`] under a session principal (see
    /// [`Engine::execute_as`]).
    pub fn execute_cancellable_as(
        &self,
        sql: &str,
        token: &CancelToken,
        session: Option<&SessionContext>,
    ) -> Result<QueryResult> {
        let reg = obs::global();
        reg.counter("sql.queries").inc();
        let span = obs::SpanTimer::new(reg.histogram("sql.query_latency_us"));
        let out = self.execute_inner(sql, token, session);
        if let Err(e) = &out {
            reg.counter("sql.errors").inc();
            match e {
                JaguarError::Cancelled(_) => reg.counter("query.cancelled").inc(),
                JaguarError::Timeout(_) => reg.counter("query.deadline_exceeded").inc(),
                _ => {}
            }
        }
        drop(span);
        out
    }

    fn execute_inner(
        &self,
        sql: &str,
        token: &CancelToken,
        session: Option<&SessionContext>,
    ) -> Result<QueryResult> {
        match parse(sql)? {
            Statement::CreateTable { name, columns } => {
                let fields = columns
                    .into_iter()
                    .map(|(n, t)| jaguar_common::schema::Field::new(n, t))
                    .collect();
                self.catalog.create_table(&name, Schema::new(fields)?)?;
                let mut r = QueryResult::empty();
                r.affected = 0;
                Ok(r)
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                let t = self.catalog.table(&table)?;
                if let Err(e) = t.create_index(&name, &column) {
                    // A failed backfill may have mutated B+Tree pages.
                    return Err(seal_partial_effects(&t, e));
                }
                // Index pages share the table's pool: commit them so they
                // are evictable (no-steal) and survive a crash.
                t.commit_durable()?;
                self.catalog.maybe_checkpoint()?;
                Ok(QueryResult::empty())
            }
            Statement::Drop { table } => {
                self.catalog.drop_table(&table)?;
                Ok(QueryResult::empty())
            }
            Statement::Insert { table, rows } => {
                let t = self.catalog.table(&table)?;
                let authz = crate::plan::authorize(&self.catalog, &t, session)?;
                // A session barred from any column may not write rows at
                // all — an INSERT supplies every column.
                if let Some(&idx) = authz.denied.iter().min() {
                    let name = &t.schema().field(idx).expect("denied index valid").name;
                    return Err(crate::plan::deny_column(name, t.name(), &authz.principal));
                }
                let residual = authz
                    .residual
                    .as_ref()
                    .map(|r| crate::plan::label_to_bexpr(r, t.schema()))
                    .transpose()?;
                let mut handler = EngineCallbacks { engine: self };
                let mut ctx = ExecCtx::for_udfs(&[], &mut handler, None)?;
                let mut inserted = 0;
                let res = (|| -> Result<()> {
                    for row in rows {
                        // Checked inside the fallible block so rows already
                        // inserted are sealed via the WAL on cancellation.
                        token.check()?;
                        let mut values = Vec::with_capacity(row.len());
                        for e in row {
                            values.push(literal_value(&e)?);
                        }
                        let tuple = Tuple::new(values);
                        // A tenant may only insert rows its own row label
                        // admits — otherwise it could plant rows it cannot
                        // see into another tenant's partition.
                        if let Some(res) = &residual {
                            match eval(res, &tuple, &mut ctx)? {
                                Value::Bool(true) => {}
                                _ => {
                                    return Err(crate::plan::deny_insert(
                                        t.name(),
                                        &authz.principal,
                                    ))
                                }
                            }
                        }
                        t.insert(tuple)?;
                        inserted += 1;
                    }
                    Ok(())
                })();
                if let Err(e) = res {
                    return Err(seal_partial_effects(&t, e));
                }
                // Statement-level transaction: all rows of this INSERT
                // become durable together (or not at all after a crash).
                t.commit_durable()?;
                self.catalog.maybe_checkpoint()?;
                let mut r = QueryResult::empty();
                r.affected = inserted;
                Ok(r)
            }
            stmt @ (Statement::Delete { .. } | Statement::Update { .. }) => {
                self.run_dml(&stmt, token, session)
            }
            Statement::ShowTables => {
                let schema = Arc::new(Schema::of(&[("table_name", jaguar_common::DataType::Str)]));
                let rows = self
                    .catalog
                    .table_names()
                    .into_iter()
                    .map(|n| Tuple::new(vec![Value::Str(n)]))
                    .collect();
                Ok(QueryResult {
                    schema,
                    rows,
                    affected: 0,
                    stats: ExecStats::default(),
                })
            }
            Statement::Describe { table } => {
                let t = self.catalog.table(&table)?;
                let schema = Arc::new(Schema::of(&[
                    ("column_name", jaguar_common::DataType::Str),
                    ("type", jaguar_common::DataType::Str),
                    ("indexed", jaguar_common::DataType::Bool),
                ]));
                let rows = t
                    .schema()
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| {
                        Tuple::new(vec![
                            Value::Str(f.name.clone()),
                            Value::Str(f.dtype.sql_name().to_string()),
                            Value::Bool(t.index_on(i).is_some()),
                        ])
                    })
                    .collect();
                Ok(QueryResult {
                    schema,
                    rows,
                    affected: 0,
                    stats: ExecStats::default(),
                })
            }
            Statement::Select(stmt) => {
                let mut plan = bind_select(&stmt, &self.catalog, session)?;
                crate::optimize::optimize_select(&mut plan, &self.opt);
                if let Ok(dec) = crate::parallel::plan_parallel(self, &plan) {
                    let (rows, stats, _reports) =
                        crate::parallel::parallel_select(self, &plan, token, &dec)?;
                    return Ok(QueryResult {
                        schema: Arc::clone(&plan.output_schema),
                        rows,
                        affected: 0,
                        stats,
                    });
                }
                let mut handler = EngineCallbacks { engine: self };
                let pool = self.worker_pool();
                let mut ctx = ExecCtx::for_plan(&plan, &mut handler, pool.as_ref())?;
                ctx.attach_cancel(token);
                ctx.set_udf_batch_size(self.catalog.config().udf_batch_size);
                crate::optimize::install_opt(&plan, self, &mut ctx);
                let mut exec = Executor::build(&plan)?;
                let rows = exec.collect(&mut ctx)?;
                let stats = ctx.finish()?;
                Ok(QueryResult {
                    schema: Arc::clone(&plan.output_schema),
                    rows,
                    affected: 0,
                    stats,
                })
            }
            Statement::Explain { analyze, stmt } => {
                self.run_explain(analyze, &stmt, token, session)
            }
        }
    }

    /// Bind a DELETE or an UPDATE: its WHERE clause, access path and
    /// assignments, with straight-line immutable UDFs inlined.
    fn bind_dml_stmt(
        &self,
        stmt: &Statement,
        session: Option<&SessionContext>,
    ) -> Result<BoundDml> {
        let (table, predicate, set) = match stmt {
            Statement::Delete { table, predicate } => (table, predicate, &[][..]),
            Statement::Update {
                table,
                assignments,
                predicate,
            } => (table, predicate, &assignments[..]),
            _ => {
                return Err(JaguarError::Plan(
                    "EXPLAIN supports only SELECT, DELETE and UPDATE".into(),
                ))
            }
        };
        let mut dml = bind_dml(table, predicate, set, &self.catalog, session)?;
        let notes = crate::optimize::inline_pass(&mut dml.udfs);
        dml.notes.extend(notes);
        Ok(dml)
    }

    /// Execute a DELETE or an UPDATE. The statement finds its rows the way
    /// a SELECT with the same WHERE clause would — one [`RowSource`], every
    /// predicate re-checked on every row it produces — and collects its
    /// victims (for UPDATE, with their replacement rows) before the first
    /// mutation, so it never meets its own writes: not on a heap page, and
    /// not through an index whose key it assigns. A victim a concurrent
    /// statement deleted in the meantime is gone, which is all this
    /// statement wanted of it: it is skipped and not counted.
    fn run_dml(
        &self,
        stmt: &Statement,
        token: &CancelToken,
        session: Option<&SessionContext>,
    ) -> Result<QueryResult> {
        let dml = self.bind_dml_stmt(stmt, session)?;
        let mut handler = EngineCallbacks { engine: self };
        let pool = self.worker_pool();
        let mut ctx = ExecCtx::for_udfs(&dml.udfs, &mut handler, pool.as_ref())?;
        ctx.attach_cancel(token);
        ctx.set_memo(self.memo_for_statement());
        let scans = match dml.access {
            AccessPath::FullScan => "sql.dml.full_scans",
            _ => "sql.dml.index_scans",
        };
        obs::global().counter(scans).inc();
        let mut rows = RowSource::open(
            &dml.table,
            &dml.access,
            &dml.scan_cols,
            1..u32::MAX,
            &dml.pushed,
        )?;
        let mut victims = Vec::new();
        rows.for_each(&mut ctx, |rid, tuple, ctx| {
            if !matches_all(&dml.predicates, tuple, ctx)? {
                return Ok(());
            }
            // UPDATE reads whole rows (`scan_cols` is all): the new row is
            // the old one with the assigned positions replaced.
            let new = if dml.assignments.is_empty() {
                None
            } else {
                let mut values = tuple.values().to_vec();
                for (idx, expr) in &dml.assignments {
                    values[*idx] = eval(expr, tuple, ctx)?;
                }
                Some(Tuple::new(values))
            };
            victims.push((rid, new));
            Ok(())
        })?;
        let mut affected = 0;
        let applied = victims.into_iter().try_for_each(|(rid, new)| {
            token.check()?;
            affected += u64::from(match new {
                Some(row) => dml.table.update(rid, row)?,
                None => dml.table.delete(rid)?,
            });
            Ok(())
        });
        if let Err(e) = applied {
            return Err(seal_partial_effects(&dml.table, e));
        }
        dml.table.commit_durable()?;
        self.catalog.maybe_checkpoint()?;
        let mut r = QueryResult::empty();
        r.affected = affected;
        r.stats = ctx.finish()?;
        Ok(r)
    }

    /// `EXPLAIN [ANALYZE]` — render the optimized plan as a one-column
    /// result; with ANALYZE, execute the query and annotate every operator
    /// with observed row counts and wall time. A DELETE or an UPDATE is
    /// rendered (not run) with the notes trailer a SELECT gets.
    fn run_explain(
        &self,
        analyze: bool,
        stmt: &Statement,
        token: &CancelToken,
        session: Option<&SessionContext>,
    ) -> Result<QueryResult> {
        let schema = Arc::new(Schema::of(&[("plan", jaguar_common::DataType::Str)]));
        let result = |lines: Vec<String>, stats| QueryResult {
            schema: Arc::clone(&schema),
            rows: (lines.into_iter())
                .map(|l| Tuple::new(vec![Value::Str(l)]))
                .collect(),
            affected: 0,
            stats,
        };
        let select = match stmt {
            Statement::Select(select) => select,
            _ if analyze => {
                return Err(JaguarError::Plan(
                    "EXPLAIN ANALYZE supports only SELECT".into(),
                ))
            }
            dml => {
                let dml = self.bind_dml_stmt(dml, session)?;
                let plan = crate::plan::explain_dml(&dml);
                let mut lines: Vec<String> = plan.lines().map(str::to_string).collect();
                let mut notes = dml.notes;
                notes.extend(crate::plan::scan_notes(
                    &dml.table,
                    &dml.scan_cols,
                    &dml.pushed,
                ));
                if !notes.is_empty() {
                    lines.push(format!("-- plan notes: {}", notes.join("; ")));
                }
                return Ok(result(lines, ExecStats::default()));
            }
        };
        let mut plan = bind_select(select, &self.catalog, session)?;
        crate::optimize::optimize_select(&mut plan, &self.opt);
        let par_dec = crate::parallel::plan_parallel(self, &plan);
        let mut lines: Vec<String> = match &par_dec {
            Ok(dec) => crate::plan::explain_parallel(&plan, dec.dop),
            Err(_) => explain(&plan),
        }
        .lines()
        .map(str::to_string)
        .collect();
        if let Some(trailer) = self.plan_notes_line(&plan, &par_dec) {
            lines.push(trailer);
        }
        let mut stats = ExecStats::default();
        let tier_before = analyze.then(tier_counters);
        let memo_before = analyze.then(memo_counters);
        if let (true, Ok(dec)) = (analyze, &par_dec) {
            let started = std::time::Instant::now();
            let (rows, par_stats, reports) =
                crate::parallel::parallel_select(self, &plan, token, dec)?;
            let total_us = started.elapsed().as_micros() as u64;
            stats = par_stats;
            lines.push(String::new());
            lines.push(format!(
                "Gather (dop={})  morsels={}",
                dec.dop,
                reports.iter().map(|r| r.morsels).sum::<u64>()
            ));
            for (i, r) in reports.iter().enumerate() {
                lines.push(format!(
                    "  worker {i}: rows={} morsels={} busy={}",
                    r.rows,
                    r.morsels,
                    fmt_us(r.busy_us)
                ));
            }
            lines.push(format!(
                "Total: {} row(s) in {} ({} scanned, {} UDF call(s), {} callback(s))",
                rows.len(),
                fmt_us(total_us),
                stats.rows_scanned,
                stats.udf_invocations,
                stats.udf_callbacks
            ));
        } else if analyze {
            let mut handler = EngineCallbacks { engine: self };
            let pool = self.worker_pool();
            let mut ctx = ExecCtx::for_plan(&plan, &mut handler, pool.as_ref())?;
            ctx.attach_cancel(token);
            ctx.set_udf_batch_size(self.catalog.config().udf_batch_size);
            crate::optimize::install_opt(&plan, self, &mut ctx);
            let mut exec = Executor::build_profiled(&plan)?;
            let started = std::time::Instant::now();
            let produced = exec.collect(&mut ctx)?.len();
            let total_us = started.elapsed().as_micros() as u64;
            stats = ctx.finish()?;
            lines.push(String::new());
            lines.extend(render_profile(&exec.profile_report(), stats.rows_scanned));
            lines.push(format!(
                "Total: {produced} row(s) in {} ({} scanned, {} UDF call(s), {} callback(s))",
                fmt_us(total_us),
                stats.rows_scanned,
                stats.udf_invocations,
                stats.udf_callbacks
            ));
        }
        if let Some(before) = tier_before {
            let after = tier_counters();
            if after.iter().zip(&before).any(|(a, b)| a > b) {
                lines.push(format!(
                    "VM tier: promotions={} compiled_calls={} loop_strips={} \
                     loop_fallbacks={} interp_fallbacks={}",
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2],
                    after[3] - before[3],
                    after[4] - before[4],
                ));
            }
        }
        if let Some(before) = memo_before {
            let after = memo_counters();
            if after.iter().zip(&before).any(|(a, b)| a > b) {
                lines.push(format!(
                    "Memo: hits={} misses={} evictions={}",
                    after[0] - before[0],
                    after[1] - before[1],
                    after[2] - before[2],
                ));
            }
        }
        Ok(result(lines, stats))
    }

    /// Render the optimized plan for a SELECT, a DELETE or an UPDATE (the
    /// rows of the EXPLAIN statement, one per line).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_as(sql, None)
    }

    /// [`Engine::explain`] under a session principal: the rendered plan
    /// reflects that session's label rewrites (and label denials error
    /// exactly as execution would).
    pub fn explain_as(&self, sql: &str, session: Option<&SessionContext>) -> Result<String> {
        let stmt = match parse(sql)? {
            Statement::Explain { stmt, .. } => *stmt,
            other => other,
        };
        let plan = self.run_explain(false, &stmt, &CancelToken::unbounded(), session)?;
        let lines = plan.rows.iter().map(|r| r.get(0)?.as_str());
        Ok(lines.collect::<Result<Vec<_>>>()?.join("\n"))
    }

    /// The `-- plan notes:` trailer for EXPLAIN output: optimizer
    /// decisions (inline verdicts, memo marks, reorder moves, batching
    /// gate) plus the parallel planner's clamp/serial reason when the
    /// configuration asked for parallelism. `None` when there is nothing
    /// worth saying (plain queries stay trailer-free).
    fn plan_notes_line(
        &self,
        plan: &BoundSelect,
        par_dec: &std::result::Result<crate::parallel::ParallelDecision, &'static str>,
    ) -> Option<String> {
        let mut notes = plan.notes.clone();
        notes.extend(crate::plan::scan_notes(
            &plan.table,
            &plan.scan_cols,
            &plan.pushed,
        ));
        match par_dec {
            Ok(dec) if dec.clamped => {
                notes.push("parallel: dop clamped to worker-pool size".to_string());
            }
            Err(reason) if self.catalog.config().dop >= 2 => {
                notes.push(format!("parallel: serial ({reason})"));
            }
            _ => {}
        }
        if notes.is_empty() {
            None
        } else {
            Some(format!("-- plan notes: {}", notes.join("; ")))
        }
    }
}

/// Routes UDF callbacks to the engine's registered callback functions.
/// Each parallel worker thread builds its own instance, so callbacks stay
/// `&mut self` without any cross-thread handler sharing.
pub(crate) struct EngineCallbacks<'a> {
    pub(crate) engine: &'a Engine,
}

impl CallbackHandler for EngineCallbacks<'_> {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        let f = self
            .engine
            .callbacks
            .read()
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| {
                JaguarError::Udf(format!("no server callback named '{name}' registered"))
            })?;
        f(args)
    }
}

/// Seal a failed DML statement's partial effects. Jaguar has no rollback:
/// rows mutated before the failure are already visible in memory, so their
/// pages are committed to the write-ahead log here as the failed
/// statement's *own* transaction, instead of lingering unlogged and riding
/// along — mislabelled — inside whatever unrelated statement commits next.
/// Returns the original statement error; a failure of the seal commit
/// itself is only logged (the pages then stay under no-steal protection).
fn seal_partial_effects(table: &jaguar_catalog::Table, err: JaguarError) -> JaguarError {
    if let Err(seal_err) = table.commit_durable() {
        obs::warn!(
            target: "jaguar-sql",
            "failed to seal partial effects of failed statement on '{}': {seal_err}",
            table.name()
        );
    }
    err
}

/// The `vm.tier.*` counters as `[promotions, compiled_hits, loop_strips,
/// loop_fallbacks, fallbacks]`. The counters are process-global, so a
/// delta taken around a statement approximates that statement's tier
/// activity (exact when no concurrent statement drives JagScript UDFs).
fn tier_counters() -> [u64; 5] {
    let snap = obs::global().snapshot();
    [
        snap.counter("vm.tier.promotions"),
        snap.counter("vm.tier.compiled_hits"),
        snap.counter("vm.tier.loop_strips"),
        snap.counter("vm.tier.loop_fallbacks"),
        snap.counter("vm.tier.fallbacks"),
    ]
}

/// The `opt.memo.*` counters as `[hits, misses, evictions]`. Same
/// global-delta caveat as [`tier_counters`].
fn memo_counters() -> [u64; 3] {
    let snap = obs::global().snapshot();
    [
        snap.counter("opt.memo.hits"),
        snap.counter("opt.memo.misses"),
        snap.counter("opt.memo.evictions"),
    ]
}

/// Render an `EXPLAIN ANALYZE` profile, outermost operator first.
/// `profiles` lists operators outermost→innermost with *inclusive* wall
/// time; each operator's self time is its inclusive time minus its
/// child's (the next entry — the pipeline is linear). The innermost
/// operator is the scan: its line says how many rows it visited
/// (`scanned=`) beside how many passed the conjuncts it judges (`rows=`).
fn render_profile(profiles: &[OpProfile], scanned: u64) -> Vec<String> {
    profiles
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let child_us = profiles
                .get(i + 1)
                .map_or(0, |c| p.elapsed_us.min(c.elapsed_us));
            let self_us = p.elapsed_us - child_us;
            let scanned = if i + 1 == profiles.len() {
                format!("scanned={scanned} ")
            } else {
                String::new()
            };
            format!(
                "{:indent$}{}  {scanned}rows={} time={} self={}",
                "",
                p.label,
                p.rows,
                fmt_us(p.elapsed_us),
                fmt_us(self_us),
                indent = i * 2
            )
        })
        .collect()
}

/// Human duration from microseconds: `17us`, `3.25ms`, `1.80s`.
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Evaluate a literal-only expression (INSERT VALUES).
fn literal_value(e: &crate::ast::Expr) -> Result<Value> {
    use crate::ast::Expr;
    Ok(match e {
        Expr::Int(v) => Value::Int(*v),
        Expr::Float(v) => Value::Float(*v),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Blob(b) => Value::Bytes(jaguar_common::ByteArray::new(b.clone())),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Null => Value::Null,
        Expr::Neg(inner) => match literal_value(inner)? {
            Value::Int(v) => Value::Int(-v),
            Value::Float(v) => Value::Float(-v),
            other => {
                return Err(JaguarError::Plan(format!(
                    "cannot negate {other} in VALUES"
                )))
            }
        },
        other => {
            return Err(JaguarError::Plan(format!(
                "VALUES requires literals, found {other:?}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::{ByteArray, DataType};
    use jaguar_udf::{NativeUdf, UdfDef, UdfImpl, UdfSignature, Volatility};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn engine_with_data() -> Engine {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE r (id INT, name VARCHAR, blob BYTEARRAY)")
            .unwrap();
        e.execute("INSERT INTO r VALUES (1, 'one', X'0102'), (2, 'two', X'FFFF'), (3, NULL, NULL)")
            .unwrap();
        e
    }

    #[test]
    fn ddl_dml_select_roundtrip() {
        let e = engine_with_data();
        let r = e.execute("SELECT * FROM r WHERE id >= 2").unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.schema.len(), 3);
        assert_eq!(r.stats.rows_scanned, 3);
    }

    #[test]
    fn projection_and_alias() {
        let e = engine_with_data();
        let r = e
            .execute("SELECT id AS k, name FROM r WHERE id = 1")
            .unwrap();
        assert_eq!(r.schema.field(0).unwrap().name, "k");
        assert_eq!(r.rows[0].get(1).unwrap().as_str().unwrap(), "one");
    }

    #[test]
    fn null_semantics_in_where() {
        let e = engine_with_data();
        // name = 'one' is UNKNOWN for the NULL row → filtered out.
        let r = e.execute("SELECT id FROM r WHERE name <> 'zzz'").unwrap();
        assert_eq!(r.rows.len(), 2, "NULL name must not match <>");
        let r = e
            .execute("SELECT id FROM r WHERE NOT name = 'one'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn limit_applies() {
        let e = engine_with_data();
        let r = e.execute("SELECT id FROM r LIMIT 2").unwrap();
        assert_eq!(r.rows.len(), 2);
        let r = e.execute("SELECT id FROM r LIMIT 0").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn blob_literals_roundtrip() {
        let e = engine_with_data();
        let r = e.execute("SELECT blob FROM r WHERE id = 2").unwrap();
        assert_eq!(
            r.rows[0].get(0).unwrap(),
            &Value::Bytes(ByteArray::new(vec![0xFF, 0xFF]))
        );
    }

    #[test]
    fn errors_are_clean() {
        let e = engine_with_data();
        assert!(e.execute("SELECT nope FROM r").is_err());
        assert!(e.execute("INSERT INTO r VALUES (1)").is_err()); // arity
        assert!(e.execute("INSERT INTO r VALUES ('x', 'y', X'00')").is_err()); // type
        assert!(e.execute("CREATE TABLE r (a INT)").is_err()); // duplicate
        assert!(e.execute("DROP TABLE ghost").is_err());
    }

    fn register_counting_udf(e: &Engine) -> Arc<AtomicU64> {
        let count = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&count);
        let sig = UdfSignature::new(vec![DataType::Int], DataType::Bool);
        // Stable: deterministic within a statement, so the cost-based
        // reorder pass may move it past cheaper predicates (the point of
        // the tests using it). Volatile (the default) would pin it.
        e.catalog().udfs().register(
            UdfDef::new(
                "expensive",
                sig.clone(),
                UdfImpl::Native(NativeUdf::new("expensive", sig, move |args, _| {
                    c2.fetch_add(1, Ordering::Relaxed);
                    Ok(Value::Bool(args[0].as_int()? % 2 == 1))
                })),
            )
            .with_volatility(Volatility::Stable),
        );
        count
    }

    #[test]
    fn udf_in_projection_and_where() {
        let e = engine_with_data();
        let _ = register_counting_udf(&e);
        let r = e
            .execute("SELECT id, expensive(id) FROM r WHERE expensive(id) = TRUE")
            .unwrap();
        assert_eq!(r.rows.len(), 2); // ids 1 and 3
        assert!(r.stats.udf_invocations >= 3);
    }

    #[test]
    fn optimizer_saves_expensive_invocations() {
        let e = engine_with_data();
        let count = register_counting_udf(&e);
        // Cheap predicate filters to one row; UDF written FIRST in SQL but
        // must execute second, so it runs once, not three times.
        let r = e
            .execute("SELECT id FROM r WHERE expensive(id) = TRUE AND id = 1")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            count.load(Ordering::Relaxed),
            1,
            "expensive UDF must only see rows surviving the cheap predicate"
        );
    }

    #[test]
    fn callbacks_reach_registered_handler() {
        let e = engine_with_data();
        e.register_callback("lookup", |args| Ok(Value::Int(args[0].as_int()? * 100)));
        let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
        e.catalog().udfs().register(UdfDef::new(
            "with_cb",
            sig.clone(),
            UdfImpl::Native(NativeUdf::new("with_cb", sig, |args, cb| {
                cb.callback("lookup", args)
            })),
        ));
        let r = e.execute("SELECT with_cb(id) FROM r WHERE id = 2").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(200));
        assert_eq!(r.stats.udf_callbacks, 1);
    }

    #[test]
    fn unregistered_callback_is_contained_error() {
        let e = engine_with_data();
        let sig = UdfSignature::new(vec![], DataType::Int);
        e.catalog().udfs().register(UdfDef::new(
            "rogue",
            sig.clone(),
            UdfImpl::Native(NativeUdf::new("rogue", sig, |_, cb| {
                cb.callback("format_disk", &[])
            })),
        ));
        let err = e.execute("SELECT rogue() FROM r").unwrap_err();
        assert!(err.to_string().contains("format_disk"), "{err}");
    }

    #[test]
    fn explain_shows_plan() {
        let e = engine_with_data();
        let _ = register_counting_udf(&e);
        let txt = e
            .explain("SELECT id FROM r WHERE expensive(id) = TRUE AND id < 2")
            .unwrap();
        assert!(txt.contains("SeqScan r [id] (3 rows)"), "{txt}");
        assert!(txt.contains("expensive[C++]"), "{txt}");
        assert!(e.explain("DROP TABLE r").is_err());
    }

    #[test]
    fn global_aggregates() {
        let e = engine_with_data();
        let r = e
            .execute("SELECT COUNT(*), COUNT(name), MIN(id), MAX(id), SUM(id), AVG(id) FROM r")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let row = &r.rows[0];
        assert_eq!(row.get(0).unwrap(), &Value::Int(3)); // count(*)
        assert_eq!(row.get(1).unwrap(), &Value::Int(2)); // count(name): one NULL
        assert_eq!(row.get(2).unwrap(), &Value::Int(1));
        assert_eq!(row.get(3).unwrap(), &Value::Int(3));
        assert_eq!(row.get(4).unwrap(), &Value::Int(6));
        assert_eq!(row.get(5).unwrap(), &Value::Float(2.0));
    }

    #[test]
    fn aggregates_on_empty_input() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE empty (x INT)").unwrap();
        let r = e
            .execute("SELECT COUNT(*), SUM(x), MIN(x), AVG(x) FROM empty")
            .unwrap();
        let row = &r.rows[0];
        assert_eq!(row.get(0).unwrap(), &Value::Int(0));
        assert_eq!(row.get(1).unwrap(), &Value::Null);
        assert_eq!(row.get(2).unwrap(), &Value::Null);
        assert_eq!(row.get(3).unwrap(), &Value::Null);
    }

    #[test]
    fn group_by_with_where_and_alias() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE sales (region VARCHAR, amount INT)")
            .unwrap();
        e.execute(
            "INSERT INTO sales VALUES              ('east', 10), ('west', 20), ('east', 30), ('west', 5), ('east', 1)",
        )
        .unwrap();
        let r = e
            .execute(
                "SELECT region, COUNT(*) AS n, SUM(amount) AS total                  FROM sales WHERE amount >= 5 GROUP BY region",
            )
            .unwrap();
        assert_eq!(r.schema.field(1).unwrap().name, "n");
        assert_eq!(r.rows.len(), 2);
        // Insertion order: east first.
        assert_eq!(r.rows[0].get(0).unwrap().as_str().unwrap(), "east");
        assert_eq!(r.rows[0].get(1).unwrap(), &Value::Int(2));
        assert_eq!(r.rows[0].get(2).unwrap(), &Value::Int(40));
        assert_eq!(r.rows[1].get(0).unwrap().as_str().unwrap(), "west");
        assert_eq!(r.rows[1].get(2).unwrap(), &Value::Int(25));
    }

    #[test]
    fn aggregate_over_udf_argument() {
        let e = engine_with_data();
        let _ = register_counting_udf(&e);
        // SUM over a UDF-derived value: expensive(id) yields BOOL — not
        // numeric, so use count.
        let r = e.execute("SELECT COUNT(expensive(id)) FROM r").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(3));
        assert_eq!(r.stats.udf_invocations, 3);
    }

    #[test]
    fn aggregate_misuse_rejected() {
        let e = engine_with_data();
        assert!(e.execute("SELECT id, COUNT(*) FROM r").is_err()); // id not grouped
        assert!(e
            .execute("SELECT COUNT(*) FROM r WHERE COUNT(*) > 1")
            .is_err());
        assert!(e.execute("SELECT SUM(name) FROM r").is_err()); // non-numeric
        assert!(e.execute("SELECT SUM(MAX(id)) FROM r").is_err()); // nested
        assert!(e.execute("SELECT * FROM r GROUP BY id").is_err()); // star + group
        assert!(e.execute("SELECT AVG(id, id) FROM r").is_err()); // arity
    }

    #[test]
    fn group_by_limit_applies_after_aggregation() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE t (k INT)").unwrap();
        e.execute("INSERT INTO t VALUES (1), (2), (3), (1), (2)")
            .unwrap();
        let r = e
            .execute("SELECT k, COUNT(*) FROM t GROUP BY k LIMIT 2")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn delete_with_predicate() {
        let e = engine_with_data();
        let r = e.execute("DELETE FROM r WHERE id >= 2").unwrap();
        assert_eq!(r.affected, 2);
        let left = e.execute("SELECT id FROM r").unwrap();
        assert_eq!(left.rows.len(), 1);
        assert_eq!(left.rows[0].get(0).unwrap(), &Value::Int(1));
        // Unconditional delete clears the rest.
        let r = e.execute("DELETE FROM r").unwrap();
        assert_eq!(r.affected, 1);
        assert!(e.execute("SELECT id FROM r").unwrap().rows.is_empty());
    }

    #[test]
    fn delete_with_udf_predicate() {
        let e = engine_with_data();
        let count = register_counting_udf(&e);
        let r = e
            .execute("DELETE FROM r WHERE expensive(id) = TRUE AND id = 1")
            .unwrap();
        assert_eq!(r.affected, 1);
        // Cost ordering applies to DML too: UDF ran only on the id=1 row.
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn update_rows() {
        let e = engine_with_data();
        let r = e
            .execute("UPDATE r SET name = 'renamed', blob = X'00' WHERE id <> 2")
            .unwrap();
        assert_eq!(r.affected, 2);
        let rows = e
            .execute("SELECT id, name FROM r WHERE name = 'renamed'")
            .unwrap();
        assert_eq!(rows.rows.len(), 2);
        // Untouched row intact.
        let two = e.execute("SELECT name FROM r WHERE id = 2").unwrap();
        assert_eq!(two.rows[0].get(0).unwrap().as_str().unwrap(), "two");
    }

    #[test]
    fn update_type_checked() {
        let e = engine_with_data();
        assert!(e.execute("UPDATE r SET id = 'nope'").is_err());
        assert!(e.execute("UPDATE r SET ghost = 1").is_err());
        assert!(e.execute("UPDATE r SET id = NULL WHERE id = 1").is_ok());
    }

    #[test]
    fn update_can_use_row_values() {
        let e = engine_with_data();
        // Copy a column through an expression referencing the old row.
        e.execute("UPDATE r SET name = 'x' WHERE blob = X'0102'")
            .unwrap();
        let r = e.execute("SELECT id FROM r WHERE name = 'x'").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1));
    }

    #[test]
    fn show_tables_and_describe() {
        let e = engine_with_data();
        e.execute("CREATE TABLE zoo (a INT)").unwrap();
        let r = e.execute("SHOW TABLES").unwrap();
        let names: Vec<String> = r
            .rows
            .iter()
            .map(|t| t.get(0).unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["r".to_string(), "zoo".to_string()]);

        e.execute("CREATE INDEX r_id ON r (id)").unwrap();
        let d = e.execute("DESCRIBE r").unwrap();
        assert_eq!(d.rows.len(), 3);
        assert_eq!(d.rows[0].get(0).unwrap().as_str().unwrap(), "id");
        assert_eq!(d.rows[0].get(1).unwrap().as_str().unwrap(), "INT");
        assert_eq!(d.rows[0].get(2).unwrap(), &Value::Bool(true));
        assert_eq!(d.rows[1].get(2).unwrap(), &Value::Bool(false));
        assert!(e.execute("DESCRIBE ghost").is_err());
    }

    #[test]
    fn create_index_and_index_scan() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE big (id INT, v VARCHAR)").unwrap();
        let t = e.catalog().table("big").unwrap();
        for i in 0..500 {
            t.insert(Tuple::new(vec![
                Value::Int(i),
                Value::Str(format!("row{i}")),
            ]))
            .unwrap();
        }
        e.execute("CREATE INDEX big_id ON big (id)").unwrap();

        // Plan uses the index (and the fetch re-checks the conjunct on the
        // record's bytes, so `id` itself is not decoded) …
        let txt = e.explain("SELECT v FROM big WHERE id = 123").unwrap();
        assert!(
            txt.contains("IndexScan big [v] via big_id [123, 124)"),
            "{txt}"
        );
        assert!(txt.contains("Filter[0] [at scan] (id = 123)"), "{txt}");

        // … and produces the same answers as a scan, touching fewer rows.
        let r = e.execute("SELECT v FROM big WHERE id = 123").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0).unwrap().as_str().unwrap(), "row123");
        assert_eq!(r.stats.rows_scanned, 1, "{:?}", r.stats);

        let r = e
            .execute("SELECT id FROM big WHERE id < 10 ORDER BY id")
            .unwrap();
        assert_eq!(r.int_column(0).unwrap(), (0..10).collect::<Vec<_>>());
        assert!(r.stats.rows_scanned <= 10);

        let r = e.execute("SELECT id FROM big WHERE id >= 495").unwrap();
        assert_eq!(r.rows.len(), 5);
        // Flipped literal-first comparison also uses the index.
        let txt = e.explain("SELECT id FROM big WHERE 490 <= id").unwrap();
        assert!(txt.contains("IndexScan"), "{txt}");
        // Unsatisfiable range is proven empty.
        let txt = e
            .explain(&format!("SELECT id FROM big WHERE id > {}", i64::MAX))
            .unwrap();
        assert!(txt.contains("EmptyScan"), "{txt}");
    }

    #[test]
    fn index_range_intersection() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE t (id INT)").unwrap();
        let tab = e.catalog().table("t").unwrap();
        for i in 0..200 {
            tab.insert(Tuple::new(vec![Value::Int(i)])).unwrap();
        }
        e.execute("CREATE INDEX t_id ON t (id)").unwrap();
        // Both conjuncts tighten the same index range.
        let r = e
            .execute("SELECT id FROM t WHERE id >= 50 AND id < 60")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.rows_scanned, 10, "{:?}", r.stats);
        // Contradictory bounds are proven empty without touching rows.
        let r = e
            .execute("SELECT id FROM t WHERE id >= 60 AND id < 50")
            .unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.stats.rows_scanned, 0);
        // Equality plus consistent range still one row.
        let r = e
            .execute("SELECT id FROM t WHERE id = 70 AND id >= 50")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.stats.rows_scanned, 1);
    }

    #[test]
    fn index_maintained_by_dml() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE t (id INT, tag VARCHAR)").unwrap();
        e.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
            .unwrap();
        e.execute("CREATE INDEX t_id ON t (id)").unwrap();
        // Inserts after index creation are indexed.
        e.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        let r = e.execute("SELECT tag FROM t WHERE id = 4").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.stats.rows_scanned, 1);
        // Deletes remove index entries.
        e.execute("DELETE FROM t WHERE id = 2").unwrap();
        let r = e.execute("SELECT tag FROM t WHERE id = 2").unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(r.stats.rows_scanned, 0, "stale index entry");
        // Updates re-index the moved row (delete + insert path).
        e.execute("UPDATE t SET id = 99 WHERE id = 3").unwrap();
        let r = e.execute("SELECT tag FROM t WHERE id = 99").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0).unwrap().as_str().unwrap(), "c");
        assert!(e
            .execute("SELECT tag FROM t WHERE id = 3")
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn index_errors() {
        let e = engine_with_data();
        // Only INT columns are indexable.
        assert!(e.execute("CREATE INDEX n ON r (name)").is_err());
        assert!(e.execute("CREATE INDEX x ON ghost (id)").is_err());
        e.execute("CREATE INDEX r_id ON r (id)").unwrap();
        assert!(
            e.execute("CREATE INDEX r_id2 ON r (id)").is_err(),
            "dup column"
        );
    }

    #[test]
    fn arithmetic_expressions() {
        let e = engine_with_data();
        let r = e
            .execute("SELECT id * 10 + 1 AS x, id % 2 FROM r WHERE id + 1 >= 3")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(21));
        assert_eq!(r.rows[0].get(1).unwrap(), &Value::Int(0));
        // int/float promotion
        let r = e.execute("SELECT id + 0.5 FROM r WHERE id = 1").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Float(1.5));
        assert_eq!(r.schema.field(0).unwrap().dtype, DataType::Float);
        // NULL propagation
        let r = e.execute("SELECT id + NULL FROM r WHERE id = 1").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Null);
        // division by zero is a clean error
        assert!(e.execute("SELECT id / 0 FROM r").is_err());
        // precedence: 2 + 3 * 4 = 14
        let r = e.execute("SELECT id + 3 * 4 FROM r WHERE id = 2").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(14));
        // type errors
        assert!(e.execute("SELECT name + 1 FROM r").is_err());
        assert!(e.execute("SELECT id % 2.0 FROM r").is_err());
    }

    #[test]
    fn order_by_columns_positions_and_desc() {
        let e = engine_with_data();
        let r = e.execute("SELECT id FROM r ORDER BY id DESC").unwrap();
        assert_eq!(r.int_column(0).unwrap(), vec![3, 2, 1]);
        let r = e.execute("SELECT id, name FROM r ORDER BY 2").unwrap();
        // names: 'one', 'two', NULL — NULLs sort last ascending
        assert_eq!(r.rows[0].get(1).unwrap().as_str().unwrap(), "one");
        assert_eq!(r.rows[1].get(1).unwrap().as_str().unwrap(), "two");
        assert!(r.rows[2].get(1).unwrap().is_null());
        // expression keys over output columns
        let r = e.execute("SELECT id AS k FROM r ORDER BY k * -1").unwrap();
        assert_eq!(r.int_column(0).unwrap(), vec![3, 2, 1]);
        // position out of range rejected
        assert!(e.execute("SELECT id FROM r ORDER BY 5").is_err());
    }

    #[test]
    fn order_by_applies_before_limit() {
        let e = engine_with_data();
        let r = e
            .execute("SELECT id FROM r ORDER BY id DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.int_column(0).unwrap(), vec![3]);
    }

    #[test]
    fn having_filters_groups() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE sales (region VARCHAR, amount INT)")
            .unwrap();
        e.execute(
            "INSERT INTO sales VALUES ('east', 10), ('west', 20), ('east', 30), ('north', 1)",
        )
        .unwrap();
        let r = e
            .execute(
                "SELECT region, SUM(amount) AS total FROM sales                  GROUP BY region HAVING total > 15 ORDER BY total DESC",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0].get(0).unwrap().as_str().unwrap(), "east");
        assert_eq!(r.rows[1].get(0).unwrap().as_str().unwrap(), "west");
        // HAVING must reference output columns, not raw aggregates
        assert!(e
            .execute("SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 1")
            .is_err());
        // HAVING must be boolean
        assert!(e
            .execute("SELECT region, SUM(amount) AS t FROM sales GROUP BY region HAVING t")
            .is_err());
    }

    #[test]
    fn vm_resource_usage_metered_per_query() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE t (b BYTEARRAY)").unwrap();
        e.execute("INSERT INTO t VALUES (X'01020304'), (X'0506')")
            .unwrap();
        let module = jaguar_lang::compile(
            "m",
            "fn main(b: bytes) -> i64 {
                let s: i64 = 0;
                let i: i64 = 0;
                while i < len(b) { s = s + b[i]; i = i + 1; }
                return s;
            }",
        )
        .unwrap();
        let spec = jaguar_udf::def::vm_spec(
            module,
            "main",
            jaguar_vm::ResourceLimits::default(),
            true,
            None,
        )
        .unwrap();
        e.catalog().udfs().register(UdfDef::new(
            "meterme",
            UdfSignature::new(vec![DataType::Bytes], DataType::Int),
            UdfImpl::Vm(spec),
        ));
        let r = e.execute("SELECT meterme(b) FROM t").unwrap();
        assert!(r.stats.vm_instructions > 0, "{:?}", r.stats);
        assert!(r.stats.vm_bytes_allocated >= 6, "{:?}", r.stats);
        // Native UDFs are unmetered (Design 1's trade-off).
        let _ = register_counting_udf(&e);
        let t = e.catalog().table("t").unwrap();
        let _ = t; // ensure table still reachable
        let e2 = engine_with_data();
        let _ = register_counting_udf(&e2);
        let r2 = e2.execute("SELECT expensive(id) FROM r").unwrap();
        assert_eq!(r2.stats.vm_instructions, 0);
    }

    #[test]
    fn paper_benchmark_query_shape_runs() {
        let e = Engine::in_memory(Config::default());
        e.execute("CREATE TABLE rel100 (id INT, bytearray BYTEARRAY)")
            .unwrap();
        for i in 0..20 {
            let t = e.catalog().table("rel100").unwrap();
            t.insert(Tuple::new(vec![
                Value::Int(i),
                Value::Bytes(ByteArray::patterned(100, i as u64)),
            ]))
            .unwrap();
        }
        e.catalog()
            .udfs()
            .register(jaguar_udf::generic::def_native());
        let r = e
            .execute("SELECT generic(R.bytearray, 0, 2, 1) FROM rel100 R WHERE R.id < 10")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.stats.udf_invocations, 10);
        assert_eq!(r.stats.udf_callbacks, 10);
    }
}

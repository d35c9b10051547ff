//! Push-based execution: one fragment, one tail.
//!
//! Every statement reads its rows through one [`RowSource`], which lends
//! each row to `fragment`: the residual predicates, then a `Sink` — a
//! SELECT's projection (one UDF crossing per batch when the plan
//! qualifies) and HAVING or partial aggregation (fed records when it folds
//! at the scan), or a DELETE's or an UPDATE's victim list. A SELECT then
//! runs `tail`: aggregate finish, HAVING, ORDER BY, LIMIT.
//! `parallel::run` runs the fragments: a team of one runs one over the
//! whole access path, a `Gather` team one per morsel, and their outputs
//! are gathered in scan order. UDF instances and the callback channel live
//! in the per-fragment [`ExecCtx`], threaded through every stage.
//!
//! A UDF that crosses is called one way, per tuple from `eval` (the one-row
//! case) or per batch from the projection's batcher: `ExecCtx::call`, the
//! one memo lookup and the one crossing, which keeps every count. An
//! in-engine UDF crosses nothing: `eval` invokes it directly.
//!
//! The predicates (optimizer-ordered) run with short-circuit AND
//! semantics: a tuple rejected by a cheap predicate never reaches an
//! expensive UDF — the payoff of the \[Hel95\]-style ordering done in
//! `plan`.

use jaguar_catalog::table::{RowPages, RowReader, ScanTest};
use jaguar_catalog::Table;
use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::RecordId;
use jaguar_common::obs;
use jaguar_common::stream::{next_value, write_value, RecordView};
use jaguar_common::value::compare;
use jaguar_common::{DataType, Tuple, Value};
use jaguar_ipc::pool::WorkerPool;
use jaguar_ipc::proto::CallbackHandler;
use jaguar_udf::ScalarUdf;
use jaguar_udf::{BatchError, ValueBatch};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::ast::ArithOp;
use crate::memo::MemoCache;
use crate::plan::{AccessPath, AggFunc, AggregatePlan, BExpr, BoundScan, BoundSelect};

/// Counters accumulated during one query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub rows_scanned: u64,
    pub rows_emitted: u64,
    pub udf_invocations: u64,
    pub udf_callbacks: u64,
    /// VM instructions executed by sandboxed UDFs this query (0 for
    /// unmetered native designs).
    pub vm_instructions: u64,
    /// Bytes allocated in sandbox arenas this query.
    pub vm_bytes_allocated: u64,
}

impl ExecStats {
    /// Add another context's counters — a parallel worker's, or the
    /// tail's — to these.
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_emitted += other.rows_emitted;
        self.udf_invocations += other.udf_invocations;
        self.udf_callbacks += other.udf_callbacks;
        self.vm_instructions += other.vm_instructions;
        self.vm_bytes_allocated += other.vm_bytes_allocated;
    }
}

/// One UDF of a statement: its instance and, unless it is in-engine (see
/// [`crate::plan::PlannedUdf::in_engine`]: a Design-3 VM whatever the
/// design, with no metric or memo lookup), what its crossings record.
struct UdfSlot {
    udf: Box<dyn ScalarUdf>,
    called: Option<Called>,
}

/// A called slot's process-wide metric handles (a live version of the
/// paper's Table 1), resolved once at context construction so a call
/// touches only atomics, and its memo-cache name (`Immutable` UDFs only).
/// [`ExecCtx::call`] says what each handle records.
struct Called {
    memo_name: Option<String>,
    invocations: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
    latency_named: Arc<obs::Histogram>,
    batch_rows: Arc<obs::Histogram>,
    batch_crossings: Arc<obs::Counter>,
}

/// Deadline (`Instant::now()`) checks are this many times rarer than the
/// per-tuple cancellation-flag check — the flag is one atomic load, the
/// deadline a syscall on some platforms.
const DEADLINE_CHECK_INTERVAL: u32 = 64;

/// Per-query execution context: instantiated UDFs + callback channel.
pub struct ExecCtx<'a> {
    /// Indexed like the plan's UDF list.
    slots: Vec<UdfSlot>,
    pub callbacks: &'a mut dyn CallbackHandler,
    pub stats: ExecStats,
    /// The statement's lifecycle token; checked cooperatively once per row
    /// (see [`ExecCtx::tick`]).
    cancel: CancelToken,
    /// Countdown to the next full deadline check.
    deadline_countdown: u32,
    /// Effective UDF batch size (rows per trust-boundary crossing).
    /// `1` means the classic per-tuple ABI; set from
    /// `Config::udf_batch_size` via [`ExecCtx::set_udf_batch_size`].
    batch_size: usize,
    /// Engine-scoped memo cache, when enabled ([`ExecCtx::set_memo`]).
    memo: Option<Arc<MemoCache>>,
    /// The rows of the current call that missed the memo cache, with their
    /// keys; kept from call to call so a call allocates no list.
    misses: Vec<(usize, Vec<u8>)>,
    /// Per-predicate selectivity tallies `(fingerprint, evaluated,
    /// passed)`, indexed like the plan's predicate list (`None` = not
    /// tallied); flushed into `sel_sink` by [`ExecCtx::finish`].
    sel: Vec<(Option<String>, u64, u64)>,
    sel_sink: Option<Arc<crate::cost::OptState>>,
    /// Per-stage numbers for `EXPLAIN ANALYZE`; off unless started.
    pub(crate) profile: Profile,
}

impl<'a> ExecCtx<'a> {
    /// Instantiate a statement's UDFs. With `pool = None` isolated designs
    /// spawn a fresh worker per query (as in the paper); with a pool they
    /// check out warm workers instead.
    pub fn for_udfs(
        udfs: &[crate::plan::PlannedUdf],
        callbacks: &'a mut dyn CallbackHandler,
        pool: Option<&Arc<WorkerPool>>,
    ) -> Result<ExecCtx<'a>> {
        let reg = obs::global();
        let slot = |u: &crate::plan::PlannedUdf| {
            let slug = u.def.imp.design().slug();
            let called = (!u.in_engine).then(|| Called {
                memo_name: u.def.volatility.memoizable().then(|| u.def.name.clone()),
                invocations: reg.counter(&format!("udf.invocations.{slug}")),
                latency: reg.histogram(&format!("udf.latency_us.{slug}")),
                latency_named: reg.histogram(&format!("udf.latency_us.{slug}.{}", u.def.name)),
                batch_rows: reg.histogram(&format!("udf.batch.rows.{slug}")),
                batch_crossings: reg.counter(&format!("udf.batch.crossings.{slug}")),
            });
            let udf = match called {
                Some(_) => u.def.instantiate_with(pool)?,
                None => u.def.instantiate_in_engine()?,
            };
            Ok(UdfSlot { udf, called })
        };
        Ok(ExecCtx {
            slots: udfs.iter().map(slot).collect::<Result<_>>()?,
            callbacks,
            stats: ExecStats::default(),
            cancel: CancelToken::unbounded(),
            deadline_countdown: DEADLINE_CHECK_INTERVAL,
            batch_size: 1,
            memo: None,
            misses: Vec::new(),
            sel: Vec::new(),
            sel_sink: None,
            profile: Profile::default(),
        })
    }

    /// Attach the engine's memo cache (`None` leaves memoization off).
    pub fn set_memo(&mut self, memo: Option<Arc<MemoCache>>) {
        self.memo = memo;
    }

    /// Arm per-predicate selectivity tallies, indexed like the plan's
    /// predicate list; [`ExecCtx::finish`] folds them into `sink`.
    pub fn set_selectivity_probe(
        &mut self,
        fingerprints: Vec<Option<String>>,
        sink: Arc<crate::cost::OptState>,
    ) {
        self.sel = fingerprints.into_iter().map(|f| (f, 0, 0)).collect();
        self.sel_sink = Some(sink);
    }

    /// Tally one predicate evaluation (`matches_all`). Indices
    /// beyond the armed fingerprint list are ignored, so a context without
    /// a probe (the tail's, or a statement without UDFs) costs one bounds
    /// check.
    #[inline]
    pub(crate) fn sel_record(&mut self, idx: usize, passed: bool) {
        if let Some(t) = self.sel.get_mut(idx) {
            t.1 += 1;
            t.2 += u64::from(passed);
        }
    }

    /// Set the UDF batch budget for this query. The request is normalised
    /// through [`jaguar_udf::batch::effective_batch_size`]: `0`/`1` keep the
    /// per-tuple ABI, anything else is clamped to the supported 64–1024
    /// row window.
    pub fn set_udf_batch_size(&mut self, requested: usize) {
        self.batch_size = jaguar_udf::batch::effective_batch_size(requested);
    }

    /// Effective rows per UDF crossing (`1` = per-tuple invocation).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Arm the statement's lifecycle token: the executor checks it between
    /// tuples, and every instantiated UDF is handed a clone so sandboxed
    /// backends can honour it mid-invocation too.
    pub fn attach_cancel(&mut self, token: &CancelToken) {
        self.cancel = token.clone();
        for slot in &mut self.slots {
            slot.udf.attach_cancel(token.clone());
        }
    }

    /// Cooperative lifecycle check, called once per row a source lends,
    /// per heap page it batches, and per row the tail groups or sorts.
    /// The cancellation flag (one atomic load) is checked every call; the
    /// deadline (an `Instant::now()`) every `DEADLINE_CHECK_INTERVAL` ticks.
    #[inline]
    pub fn tick(&mut self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return self.cancel.check();
        }
        self.deadline_countdown -= 1;
        if self.deadline_countdown == 0 {
            self.deadline_countdown = DEADLINE_CHECK_INTERVAL;
            self.cancel.check()?;
        }
        Ok(())
    }

    /// Tear down per-query UDF instances (shuts down worker processes) and
    /// fold their metered resource consumption into the query stats.
    pub fn finish(self) -> Result<ExecStats> {
        if let Some(sink) = &self.sel_sink {
            for (fp, evaluated, passed) in &self.sel {
                if let Some(fp) = fp {
                    sink.record_selectivity(fp, *evaluated, *passed);
                }
            }
        }
        let mut stats = self.stats;
        for slot in self.slots {
            if let Some(c) = slot.udf.consumed() {
                stats.vm_instructions += c.instructions;
                stats.vm_bytes_allocated += c.bytes_allocated;
            }
            slot.udf.finish()?;
        }
        Ok(stats)
    }

    /// Call the called slot `udf` on `rows` and hand row `i`'s result to
    /// `put(i, v)`: the executor's one crossing into a UDF, per tuple (the
    /// one-row case) or batched. A memoized slot serves its hits from the
    /// cache and crosses only for the misses (all of `rows`, or a batch of
    /// the missed rows), caching what each returns; a failed crossing puts
    /// and caches none of its rows. Every value is checked against the
    /// declared type (NULL conforms) before it is cached or put, whichever
    /// process computed it. The crossing records, whatever its shape:
    ///
    /// * the rows that completed, plus the failing one on an error, as
    ///   invocations (`udf_invocations`, `udf.invocations.{slug}`);
    /// * every callback, in `udf_callbacks`;
    /// * its time, once in `udf.latency_us.{slug}` and once in the
    ///   `udf.latency_us.{slug}.{name}` that seeds the optimizer's costs;
    /// * for a batch only, its rows (`udf.batch.rows.{slug}`, a value
    ///   histogram in "µs" buckets) and one `udf.batch.crossings.{slug}`.
    fn call(
        &mut self,
        udf: usize,
        rows: Rows<'_>,
        mut put: impl FnMut(usize, Value),
    ) -> Result<()> {
        let UdfSlot { udf, called } = &mut self.slots[udf];
        let called = called.as_ref().expect("only a called slot crosses");
        let memo = called.memo_name.as_deref().zip(self.memo.as_deref());
        let misses = &mut self.misses;
        misses.clear();
        if let Some((name, cache)) = memo {
            for i in 0..rows.len() {
                let key = match rows {
                    Rows::One(args) => MemoCache::key(name, args),
                    Rows::Batch(b) => MemoCache::key(name, (0..b.arity()).map(|a| &b.column(a)[i])),
                };
                match cache.get(&key) {
                    Some(v) => put(i, v),
                    None => misses.push((i, key)),
                }
            }
            if misses.is_empty() {
                return Ok(());
            }
        }
        let mut subset;
        let rows = match rows {
            Rows::Batch(batch) if memo.is_some() && misses.len() < batch.len() => {
                subset = ValueBatch::with_capacity(batch.arity(), misses.len());
                for &(i, _) in misses.iter() {
                    subset.push_row_owned(batch.row(i))?;
                }
                Rows::Batch(&subset)
            }
            crossing => crossing,
        };
        let mut counting = CountingCallbacks {
            inner: &mut *self.callbacks,
            count: &mut self.stats.udf_callbacks,
        };
        // A one-row call's value; a batch's come back in the `Vec`.
        let mut one = None;
        let started = Instant::now();
        let out = match rows {
            Rows::One(args) => match udf.invoke(args, &mut counting) {
                Ok(v) => {
                    one = Some(v);
                    Ok(Vec::new())
                }
                Err(e) => Err(BatchError::new(0, e)),
            },
            Rows::Batch(batch) => udf.invoke_batch(batch, &mut counting),
        };
        let elapsed = started.elapsed();
        called.latency.observe(elapsed);
        called.latency_named.observe(elapsed);
        if let Rows::Batch(batch) = rows {
            called.batch_rows.observe_us(batch.len() as u64);
            called.batch_crossings.inc();
        }
        let completed = out.as_ref().map_or_else(|be| be.row + 1, |_| rows.len()) as u64;
        self.stats.udf_invocations += completed;
        called.invocations.add(completed);
        let values = out.map_err(|be| be.error)?;
        let ret = udf.signature().ret;
        for (j, v) in one.into_iter().chain(values).enumerate() {
            if !v.conforms_to(ret) {
                let row = Tuple::new(match rows {
                    Rows::One(args) => args.to_vec(),
                    Rows::Batch(batch) => batch.row(j),
                });
                let (name, got) = (udf.name(), v.data_type().map_or("NULL", DataType::sql_name));
                let e = format!("udf '{name}' returned {got} for row {row}, declared {ret}");
                return Err(JaguarError::Udf(e));
            }
            match memo {
                None => put(j, v),
                Some((_, cache)) => {
                    let (i, key) = &mut misses[j];
                    cache.insert(std::mem::take(key), v.clone());
                    put(*i, v);
                }
            }
        }
        Ok(())
    }
}

/// The arguments of one call of a called slot: one row, for the per-tuple
/// ABI ([`ScalarUdf::invoke`]), or a batch ([`ScalarUdf::invoke_batch`]).
#[derive(Clone, Copy)]
enum Rows<'a> {
    One(&'a [Value]),
    Batch(&'a ValueBatch),
}

impl Rows<'_> {
    fn len(self) -> usize {
        match self {
            Rows::One(_) => 1,
            Rows::Batch(batch) => batch.len(),
        }
    }
}

/// Wraps the context's callback handler to count callbacks.
struct CountingCallbacks<'a> {
    inner: &'a mut dyn CallbackHandler,
    count: &'a mut u64,
}

impl CallbackHandler for CountingCallbacks<'_> {
    fn callback(&mut self, name: &str, args: &[Value]) -> Result<Value> {
        *self.count += 1;
        self.inner.callback(name, args)
    }
}

/// [`eval`] for a caller that only looks at the value: a column or a
/// literal is lent, not cloned.
fn operand<'a>(e: &'a BExpr, tuple: &'a Tuple, ctx: &mut ExecCtx<'_>) -> Result<Cow<'a, Value>> {
    Ok(match e {
        BExpr::Column(i) => Cow::Borrowed(tuple.get(*i)?),
        BExpr::Literal(v) => Cow::Borrowed(v),
        _ => Cow::Owned(eval(e, tuple, ctx)?),
    })
}

/// Evaluate a bound expression against a tuple.
pub fn eval(e: &BExpr, tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<Value> {
    Ok(match e {
        BExpr::Column(i) => tuple.get(*i)?.clone(),
        BExpr::Literal(v) => v.clone(),
        BExpr::Cmp(op, l, r) => {
            let (lv, rv) = (operand(l, tuple, ctx)?, operand(r, tuple, ctx)?);
            compare(*op, &lv, &rv)?.map_or(Value::Null, Value::Bool)
        }
        BExpr::And(l, r) => {
            // Kleene 3VL with short-circuit on FALSE.
            match eval(l, tuple, ctx)? {
                Value::Bool(false) => Value::Bool(false),
                lv => match (lv, eval(r, tuple, ctx)?) {
                    (_, Value::Bool(false)) => Value::Bool(false),
                    (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                    _ => Value::Null,
                },
            }
        }
        BExpr::Or(l, r) => match eval(l, tuple, ctx)? {
            Value::Bool(true) => Value::Bool(true),
            lv => match (lv, eval(r, tuple, ctx)?) {
                (_, Value::Bool(true)) => Value::Bool(true),
                (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                _ => Value::Null,
            },
        },
        BExpr::Not(inner) => match eval(inner, tuple, ctx)? {
            Value::Bool(b) => Value::Bool(!b),
            Value::Null => Value::Null,
            other => {
                return Err(JaguarError::Execution(format!(
                    "NOT applied to non-boolean {other}"
                )))
            }
        },
        BExpr::Neg(inner) => match eval(inner, tuple, ctx)? {
            Value::Null => Value::Null,
            Value::Int(v) => Value::Int(v.wrapping_neg()),
            Value::Float(v) => Value::Float(-v),
            other => return Err(JaguarError::Execution(format!("cannot negate {other}"))),
        },
        BExpr::Arith {
            op,
            float,
            lhs,
            rhs,
        } => {
            let lv = eval(lhs, tuple, ctx)?;
            let rv = eval(rhs, tuple, ctx)?;
            if lv.is_null() || rv.is_null() {
                return Ok(Value::Null);
            }
            if *float {
                let (a, b) = (lv.as_float()?, rv.as_float()?);
                Value::Float(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                    ArithOp::Rem => unreachable!("planner rejects float %"),
                })
            } else {
                let (a, b) = (lv.as_int()?, rv.as_int()?);
                match op {
                    ArithOp::Add => Value::Int(a.wrapping_add(b)),
                    ArithOp::Sub => Value::Int(a.wrapping_sub(b)),
                    ArithOp::Mul => Value::Int(a.wrapping_mul(b)),
                    ArithOp::Div | ArithOp::Rem if b == 0 => {
                        return Err(JaguarError::Execution("integer division by zero".into()))
                    }
                    ArithOp::Div => Value::Int(a.wrapping_div(b)),
                    ArithOp::Rem => Value::Int(a.wrapping_rem(b)),
                }
            }
        }
        BExpr::Udf { udf, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, tuple, ctx)?);
            }
            let slot = &mut ctx.slots[*udf];
            // In-engine: the compiled function on the slot's own arena —
            // no crossing, no invocation counted, no memo or latency
            // sample.
            if slot.called.is_none() {
                return slot.udf.invoke(&vals, &mut *ctx.callbacks);
            }
            let mut out = Value::Null;
            ctx.call(*udf, Rows::One(&vals), |_, v| out = v)?;
            out
        }
    })
}

/// A projection shape eligible for batched UDF invocation: exactly one
/// top-level [`BExpr::Udf`] among the projection expressions.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Index into the plan's UDF list (and the context's slots).
    pub(crate) udf: usize,
    /// Which projection expression is the UDF call.
    pub(crate) expr_idx: usize,
    /// The UDF's argument count (the batch arity).
    pub(crate) arity: usize,
}

/// Expressions whose evaluation cannot fail on a bound tuple. Batching
/// reorders the UDF invocation relative to the row's other projection
/// expressions, so those expressions (and the UDF's arguments) must be
/// infallible for error positions to stay byte-identical to the
/// per-tuple executor.
fn infallible(e: &BExpr) -> bool {
    matches!(e, BExpr::Column(_) | BExpr::Literal(_))
}

/// Decide whether a bound SELECT's projection qualifies for batched UDF
/// invocation. The gate is deliberately conservative — every condition
/// exists to keep the batched output (rows, stats, error positions)
/// byte-identical to the per-tuple executor:
///
/// * `LIMIT` without `ORDER BY` stays per-tuple: the limit stops the scan
///   at its last row, and batching would read ahead and over-invoke.
///   (With `ORDER BY`, the sort materialises every projected row anyway.)
/// * Exactly one projection expression is a top-level UDF call; its
///   arguments and every other projection expression are infallible
///   column/literal references, so accumulation-time evaluation cannot
///   surface an error at a different row than per-tuple evaluation would.
/// * The UDF is declared `Immutable` or `Stable` — batching moves its
///   invocations across filter short-circuit boundaries, which a
///   `Volatile` UDF (the default) is entitled to observe.
///
/// A rejection names the condition that closed the gate, so `EXPLAIN`'s
/// plan-notes trailer can surface the decision.
pub(crate) fn batch_spec(plan: &BoundSelect) -> std::result::Result<BatchSpec, &'static str> {
    if plan.limit.is_some() && plan.order_by.is_empty() {
        return Err("LIMIT without ORDER BY short-circuits per-tuple");
    }
    const SHAPE: &str = "projection is not one UDF over infallible columns";
    let mut found: Option<BatchSpec> = None;
    for (i, e) in plan.projections.iter().enumerate() {
        match e {
            BExpr::Udf { udf, args } => {
                if found.is_some() || !args.iter().all(infallible) {
                    return Err(SHAPE);
                }
                found = Some(BatchSpec {
                    udf: *udf,
                    expr_idx: i,
                    arity: args.len(),
                });
            }
            other if infallible(other) => {}
            _ => return Err(SHAPE),
        }
    }
    let spec = found.ok_or("no UDF in projection")?;
    let slot = &plan.scan.udfs[spec.udf];
    // An in-engine UDF crosses nothing, so there is nothing to amortize.
    if slot.in_engine {
        return Err("UDF inlined (no crossing to amortize)");
    }
    let def = &slot.def;
    if !def.volatility.batchable() {
        return Err("volatile UDF pinned to per-tuple invocation");
    }
    // Per-backend policy: batching amortizes a boundary crossing; a
    // design whose crossing is free (trusted native) only pays the
    // ValueBatch accumulation and gets nothing back.
    if def.imp.design().crossing_is_free() {
        return Err("trusted native crossing is free");
    }
    Ok(spec)
}

/// Accumulates filter-surviving tuples for one batched UDF crossing: the
/// fragment's row sink, serial or per morsel (the end of a fragment
/// always flushes).
pub(crate) struct ProjectionBatcher {
    spec: BatchSpec,
    size: usize,
    /// Argument columns for the pending crossing.
    args: ValueBatch,
    /// Pre-projected output rows, with a `Null` hole at `spec.expr_idx`
    /// awaiting the UDF result.
    outs: Vec<Vec<Value>>,
}

impl ProjectionBatcher {
    pub(crate) fn new(spec: BatchSpec, size: usize) -> ProjectionBatcher {
        ProjectionBatcher {
            spec,
            size,
            args: ValueBatch::with_capacity(spec.arity, size),
            outs: Vec::with_capacity(size),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        self.outs.len() >= self.size
    }

    /// Evaluate the row's infallible projection expressions and UDF
    /// arguments, queueing the row for the next flush.
    pub(crate) fn push(
        &mut self,
        exprs: &[BExpr],
        tuple: &Tuple,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<()> {
        let mut out = Vec::with_capacity(exprs.len());
        let mut row = Vec::with_capacity(self.spec.arity);
        for (i, e) in exprs.iter().enumerate() {
            if i == self.spec.expr_idx {
                let BExpr::Udf { args, .. } = e else {
                    unreachable!("`batch_spec` found the UDF call here")
                };
                for a in args {
                    row.push(eval(a, tuple, ctx)?);
                }
                out.push(Value::Null);
            } else {
                out.push(eval(e, tuple, ctx)?);
            }
        }
        self.args.push_row_owned(row)?;
        self.outs.push(out);
        Ok(())
    }

    /// Call the UDF over the accumulated rows and return the completed
    /// output tuples. On a mid-batch UDF error that error surfaces — rows
    /// before the failure completed inside the UDF (their side effects and
    /// stats are intact), but the statement fails with exactly the error
    /// the per-tuple executor would raise.
    pub(crate) fn flush(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<Tuple>> {
        if self.outs.is_empty() {
            return Ok(Vec::new());
        }
        let mut outs = std::mem::replace(&mut self.outs, Vec::with_capacity(self.size));
        let at = self.spec.expr_idx;
        let called = ctx.call(self.spec.udf, Rows::Batch(&self.args), |i, v| {
            outs[i][at] = v
        });
        self.args.clear();
        called?;
        Ok(outs.into_iter().map(Tuple::new).collect())
    }
}

/// The conjuncts of a WHERE clause that its scan judges on the record's
/// bytes ([`BoundSelect::pushed`]), as the data the table's reader runs
/// under the page latch: each is a fixed-width column compared with a
/// non-NULL literal (`plan::pushable`).
fn scan_tests(pushed: &[BExpr]) -> Vec<ScanTest> {
    let test = |p: &BExpr| {
        let BExpr::Cmp(op, l, r) = p else {
            unreachable!("a pushed conjunct is a comparison")
        };
        let (column, literal, literal_first) = match (&**l, &**r) {
            (BExpr::Column(c), BExpr::Literal(v)) => (*c, v, false),
            (BExpr::Literal(v), BExpr::Column(c)) => (*c, v, true),
            _ => unreachable!("a pushed conjunct compares a column with a literal"),
        };
        ScanTest {
            column,
            op: *op,
            literal: literal.clone(),
            literal_first,
        }
    };
    pushed.iter().map(test).collect()
}

/// Rows a scan or an index fetch visited and rejected on their bytes.
fn rejected_at_scan() -> &'static obs::Counter {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| obs::global().counter("sql.scan.rows_rejected_at_scan"))
}

/// The rows a [`BoundScan`]'s access path reaches, with their record ids:
/// the one leaf under every `fragment`, opened once per morsel by
/// `parallel::run` — a team of one's whole heap or index scan, a `Gather`
/// worker's page range — for a SELECT, a DELETE and an UPDATE alike. It
/// lends out the rows that pass the scan's `pushed` conjuncts (or
/// `Scanned` records) and counts every row it visited in
/// `stats.rows_scanned` (a heap page's as the page is walked).
pub enum RowSource {
    /// Sequential scan of (a page range of) the heap file.
    Heap(RowPages),
    /// Rows fetched one by one through a B+Tree range, probed up front.
    Index {
        table: Arc<Table>,
        rids: std::vec::IntoIter<RecordId>,
        reader: RowReader,
    },
    /// The planner proved no row can match.
    Empty,
}

impl RowSource {
    /// Open `scan`'s access path, decoding its `scan_cols` of the rows that
    /// pass its `pushed` conjuncts. `pages` bounds a full scan
    /// (`1..u32::MAX` is the whole table); the other paths are not carved
    /// into morsels.
    pub(crate) fn open(scan: &BoundScan, pages: Range<u32>) -> Result<RowSource> {
        let table = &scan.table;
        let reader = table.reader(&scan.scan_cols, scan_tests(&scan.pushed));
        Ok(match &scan.access {
            AccessPath::FullScan => RowSource::Heap(table.rows(reader, pages)),
            AccessPath::IndexRange { index, lo, hi } => RowSource::Index {
                table: Arc::clone(table),
                rids: index.btree.range(*lo, *hi)?.into_iter(),
                reader,
            },
            AccessPath::Empty => RowSource::Empty,
        })
    }

    /// Lend every remaining row to `f` until it answers `false` — the one
    /// way to read a source. A heap scan's rows stay in their batch, whose
    /// tuples the next page refills (`at_scan`, it shows `f` the records
    /// [`RowPages::fold_page`] does). A rid the index returned whose row is
    /// gone by the time it is fetched — a concurrent statement deleted it
    /// in between — is skipped: the row is not there, which is all a scan
    /// would have seen. The statement's token is polled once per row or
    /// record and once per heap page.
    pub(crate) fn for_each(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        at_scan: bool,
        mut f: impl FnMut(Scanned<'_, '_>, &mut ExecCtx<'_>) -> Result<bool>,
    ) -> Result<()> {
        match self {
            RowSource::Heap(pages) => loop {
                while let Some((rid, tuple)) = pages.next_row()? {
                    ctx.tick()?;
                    if !f(Scanned::Row(rid, tuple), ctx)? {
                        return Ok(());
                    }
                }
                ctx.tick()?;
                let more = match at_scan {
                    false => pages.next_page(),
                    true => pages.fold_page(|record| {
                        ctx.tick()?;
                        f(Scanned::Record(record), ctx).map(drop)
                    }),
                };
                let (visited, rejected) = pages.take_counts();
                ctx.stats.rows_scanned += visited;
                rejected_at_scan().add(rejected);
                if !more {
                    return Ok(());
                }
            },
            RowSource::Index {
                table,
                rids,
                reader,
            } => {
                for rid in rids {
                    ctx.tick()?;
                    let Some(row) = table.fetch(rid, reader)? else {
                        continue;
                    };
                    ctx.stats.rows_scanned += 1;
                    let Some(tuple) = row else {
                        rejected_at_scan().inc();
                        continue;
                    };
                    if !f(Scanned::Row(rid, &tuple), ctx)? {
                        break;
                    }
                }
                Ok(())
            }
            RowSource::Empty => Ok(()),
        }
    }
}

/// A row a [`RowSource`] lends, or a record it shows an aggregate.
pub(crate) enum Scanned<'r, 'a> {
    Row(RecordId, &'r Tuple),
    Record(&'r RecordView<'a>),
}

/// Evaluate cost-ordered predicates with short-circuit AND: a tuple
/// rejected by a cheap predicate never reaches an expensive UDF. The one
/// filter above the scan, for every statement that reads rows.
fn matches_all(predicates: &[BExpr], tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<bool> {
    for (i, p) in predicates.iter().enumerate() {
        let passed = matches!(eval(p, tuple, ctx)?, Value::Bool(true));
        ctx.sel_record(i, passed);
        if !passed {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The stages of a SELECT's pipeline, innermost first, as `EXPLAIN
/// ANALYZE` reports them.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    Scan,
    Filter,
    Aggregate,
    Project,
    Having,
    Sort,
    Limit,
}

/// The per-stage numbers of an analyzed statement, indexed by [`Stage`]:
/// the rows each stage produced and the wall time spent in it alone. Each
/// stage hands the clock on as its work ends ([`Profile::lap`]); until
/// [`Profile::start`] the clock is off and a lap costs one branch.
#[derive(Debug, Default)]
pub(crate) struct Profile {
    clock: Option<Instant>,
    pub(crate) rows: [u64; 7],
    pub(crate) time: [Duration; 7],
}

impl Profile {
    pub(crate) fn start(&mut self) {
        self.clock = Some(Instant::now());
    }

    /// Charge the time since the last lap to `stage`, which produced
    /// `rows` more rows in it.
    #[inline]
    fn lap(&mut self, stage: Stage, rows: u64) {
        if let Some(last) = &mut self.clock {
            let now = Instant::now();
            self.time[stage as usize] += now - *last;
            self.rows[stage as usize] += rows;
            *last = now;
        }
    }
}

/// The end of a [`fragment`]: what happens to each row that passes the
/// residual predicates. A fragment runs per morsel, and the runner lays the
/// morsels' outputs end to end in scan order (see `parallel::run`): a
/// SELECT's [`SelectSink`], a DELETE's or an UPDATE's [`Victims`].
pub(crate) trait Sink: Send + Sized {
    /// Take one row that passed the residual predicates; `false` stops
    /// the scan.
    fn push(&mut self, rid: RecordId, tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<bool>;
    /// The aggregation a record folds into at the scan, if the sink
    /// aggregates.
    fn folding(&mut self) -> Option<(&AggregatePlan, &mut GroupedAgg)> {
        None
    }
    /// End a fragment's rows: cross the trust boundary once for the rows a
    /// batcher holds.
    fn flush(&mut self, _ctx: &mut ExecCtx<'_>) -> Result<()> {
        Ok(())
    }
    /// The output so far, leaving this sink empty for the next morsel.
    fn take(&mut self) -> Self;
    /// Append a later morsel's output.
    fn absorb(&mut self, part: Self) -> Result<()>;
}

/// A SELECT's sink, which its `tail` finishes.
pub(crate) enum SelectSink<'p> {
    /// A SELECT without an aggregate: project each row — one UDF crossing
    /// per `batcher`-full of rows when the plan qualifies — keep it if
    /// HAVING holds, and stop the scan once `limit` rows are kept (a bare
    /// LIMIT: no ORDER BY to wait for).
    Rows {
        plan: &'p BoundSelect,
        batcher: Option<ProjectionBatcher>,
        limit: Option<u64>,
        rows: Vec<Tuple>,
    },
    /// Fold each row into a (partial) aggregation.
    Groups {
        plan: &'p AggregatePlan,
        agg: GroupedAgg,
    },
}

impl<'p> SelectSink<'p> {
    /// The sink of a SELECT's fragments; `batch_size` is the context's
    /// rows per UDF crossing.
    pub(crate) fn new(plan: &'p BoundSelect, batch_size: usize) -> SelectSink<'p> {
        match &plan.aggregate {
            Some(agg) => SelectSink::Groups {
                plan: agg,
                agg: GroupedAgg::default(),
            },
            None => SelectSink::Rows {
                plan,
                batcher: (batch_spec(plan).ok())
                    .filter(|_| batch_size > 1)
                    .map(|spec| ProjectionBatcher::new(spec, batch_size)),
                limit: plan.limit.filter(|_| plan.order_by.is_empty()),
                rows: Vec::new(),
            },
        }
    }
}

impl Sink for SelectSink<'_> {
    fn push(&mut self, _rid: RecordId, tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<bool> {
        match self {
            SelectSink::Rows {
                plan,
                batcher: Some(b),
                ..
            } => {
                b.push(&plan.projections, tuple, ctx)?;
                ctx.profile.lap(Stage::Project, 0);
                if !b.is_full() {
                    return Ok(true);
                }
            }
            SelectSink::Rows {
                plan,
                batcher: None,
                limit,
                rows,
            } => {
                let row = project(&plan.projections, tuple, ctx)?;
                keep(plan, row, rows, ctx)?;
                return Ok(limit.is_none_or(|n| (rows.len() as u64) < n));
            }
            SelectSink::Groups { plan, agg } => {
                agg.update(plan, tuple, ctx)?;
                ctx.profile.lap(Stage::Aggregate, 0);
                return Ok(true);
            }
        }
        self.flush(ctx)?;
        Ok(true)
    }

    fn folding(&mut self) -> Option<(&AggregatePlan, &mut GroupedAgg)> {
        match self {
            SelectSink::Groups { plan, agg } => Some((*plan, agg)),
            SelectSink::Rows { .. } => None,
        }
    }

    fn flush(&mut self, ctx: &mut ExecCtx<'_>) -> Result<()> {
        if let SelectSink::Rows {
            plan,
            batcher: Some(b),
            rows,
            ..
        } = self
        {
            let flushed = b.flush(ctx)?;
            ctx.stats.rows_emitted += flushed.len() as u64;
            ctx.profile.lap(Stage::Project, flushed.len() as u64);
            for row in flushed {
                keep(plan, row, rows, ctx)?;
            }
        }
        Ok(())
    }

    fn take(&mut self) -> Self {
        match self {
            SelectSink::Rows {
                plan, limit, rows, ..
            } => SelectSink::Rows {
                plan,
                batcher: None,
                limit: *limit,
                rows: std::mem::take(rows),
            },
            SelectSink::Groups { plan, agg } => SelectSink::Groups {
                plan,
                agg: std::mem::take(agg),
            },
        }
    }

    /// A later morsel's rows go after these; its groups merge so that
    /// first-seen order stays scan order.
    fn absorb(&mut self, part: Self) -> Result<()> {
        match (self, part) {
            (SelectSink::Rows { rows, .. }, SelectSink::Rows { rows: more, .. }) => {
                rows.extend(more)
            }
            (SelectSink::Groups { plan, agg }, SelectSink::Groups { agg: more, .. }) => {
                agg.merge(plan, more)?
            }
            _ => unreachable!("the morsels of one statement share a sink shape"),
        }
        Ok(())
    }
}

/// A DELETE's or an UPDATE's sink: each victim's record id and, for an
/// UPDATE, the row that replaces it.
pub(crate) struct Victims<'p> {
    pub(crate) assignments: &'p [(usize, BExpr)],
    pub(crate) rids: Vec<(RecordId, Option<Tuple>)>,
}

impl Sink for Victims<'_> {
    fn push(&mut self, rid: RecordId, tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<bool> {
        // UPDATE reads whole rows (`scan_cols` is all): the new row is the
        // old one with the assigned positions replaced.
        let new = if self.assignments.is_empty() {
            None
        } else {
            let mut values = tuple.values().to_vec();
            for (idx, expr) in self.assignments {
                values[*idx] = eval(expr, tuple, ctx)?;
            }
            Some(Tuple::new(values))
        };
        self.rids.push((rid, new));
        Ok(true)
    }

    fn take(&mut self) -> Self {
        let rids = std::mem::take(&mut self.rids);
        Victims { rids, ..*self }
    }

    fn absorb(&mut self, part: Self) -> Result<()> {
        self.rids.extend(part.rids);
        Ok(())
    }
}

/// One output row: `exprs` over `tuple`.
fn project(exprs: &[BExpr], tuple: &Tuple, ctx: &mut ExecCtx<'_>) -> Result<Tuple> {
    let mut out = Vec::with_capacity(exprs.len());
    for e in exprs {
        out.push(eval(e, tuple, ctx)?);
    }
    ctx.stats.rows_emitted += 1;
    ctx.profile.lap(Stage::Project, 1);
    Ok(Tuple::new(out))
}

/// Keep an output row in `rows` if the plan's HAVING holds for it.
fn keep(
    plan: &BoundSelect,
    row: Tuple,
    rows: &mut Vec<Tuple>,
    ctx: &mut ExecCtx<'_>,
) -> Result<()> {
    if let Some(having) = &plan.having {
        let holds = matches!(eval(having, &row, ctx)?, Value::Bool(true));
        ctx.profile.lap(Stage::Having, u64::from(holds));
        if !holds {
            return Ok(());
        }
    }
    rows.push(row);
    Ok(())
}

/// The scan-side pipeline of every statement that reads rows, run once per
/// morsel — a team of one's whole access path, or one page range of a
/// `Gather` team's: each row `rows` lends runs the residual `predicates`
/// and, if it passes, goes into `sink`. The end of the input flushes a pending UDF
/// batch, and so does an error: those rows came before it, so the batch's
/// own error wins. Returns how many rows passed.
pub(crate) fn fragment(
    rows: &mut RowSource,
    predicates: &[BExpr],
    sink: &mut impl Sink,
    ctx: &mut ExecCtx<'_>,
) -> Result<u64> {
    let mut passed = 0;
    // `plan::folds_at_scan`; an index source lends rows all the same.
    let at_scan = predicates.is_empty() && sink.folding().is_some_and(|(plan, _)| plan.folds());
    let scanned = rows.for_each(ctx, at_scan, |row, ctx| {
        ctx.profile.lap(Stage::Scan, 1);
        let pass = match &row {
            Scanned::Row(_, tuple) => matches_all(predicates, tuple, ctx)?,
            Scanned::Record(_) => true,
        };
        ctx.profile.lap(Stage::Filter, u64::from(pass));
        if !pass {
            return Ok(true);
        }
        passed += 1;
        match row {
            Scanned::Row(rid, tuple) => sink.push(rid, tuple, ctx),
            Scanned::Record(record) => {
                let (plan, agg) = sink.folding().expect("only an aggregate folds at its scan");
                agg.fold(plan, record)?;
                ctx.profile.lap(Stage::Aggregate, 0);
                Ok(true)
            }
        }
    });
    ctx.profile.lap(Stage::Scan, 0);
    sink.flush(ctx)?;
    scanned.map(|()| passed)
}

/// Everything after a SELECT's gathered fragments, whatever team ran
/// them: finish the aggregation and project its groups through
/// HAVING (a row sink has done both for its own rows), then ORDER BY and
/// LIMIT. No expression here calls a UDF — the binder's output scope
/// refuses UDF calls in HAVING and ORDER BY — so any context runs it.
pub(crate) fn tail(
    plan: &BoundSelect,
    gathered: SelectSink<'_>,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Tuple>> {
    let mut rows = match gathered {
        SelectSink::Groups {
            plan: agg_plan,
            agg,
        } => {
            let groups = agg.finish(agg_plan)?;
            ctx.profile.lap(Stage::Aggregate, groups.len() as u64);
            let mut rows = Vec::with_capacity(groups.len());
            for group in groups {
                ctx.tick()?;
                let row = project(&plan.projections, &group, ctx)?;
                keep(plan, row, &mut rows, ctx)?;
            }
            rows
        }
        SelectSink::Rows { rows, .. } => rows,
    };
    if !plan.order_by.is_empty() {
        rows = sort_rows(rows, &plan.order_by, ctx)?;
        ctx.profile.lap(Stage::Sort, rows.len() as u64);
    }
    if let Some(n) = plan.limit {
        rows.truncate(n as usize);
        ctx.profile.lap(Stage::Limit, rows.len() as u64);
    }
    Ok(rows)
}

/// ORDER BY: a stable sort of `rows` on `keys` (`true` = descending),
/// each key evaluated once per row.
fn sort_rows(
    mut rows: Vec<Tuple>,
    keys: &[(BExpr, bool)],
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Tuple>> {
    let mut keyed = Vec::with_capacity(rows.len());
    for (at, row) in rows.iter().enumerate() {
        ctx.tick()?;
        let key: Result<Vec<_>> = keys.iter().map(|(e, _)| operand(e, row, ctx)).collect();
        keyed.push((key?, at));
    }
    keyed.sort_by(|(a, _), (b, _)| {
        for (i, (_, desc)) in keys.iter().enumerate() {
            let ord = sort_cmp(&a[i], &b[i]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    let order: Vec<usize> = keyed.into_iter().map(|(_, at)| at).collect();
    Ok((order.into_iter())
        .map(|at| std::mem::take(&mut rows[at]))
        .collect())
}

/// Total order used by ORDER BY: NULLs sort after every value (ascending);
/// cross-type comparisons fall back to a stable type-rank order.
fn sort_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a.is_null(), b.is_null()) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Greater,
        (false, true) => return Ordering::Less,
        (false, false) => {}
    }
    if let Some(ord) = a.sql_cmp(b) {
        return ord;
    }
    let rank = |v: &Value| v.data_type().map(|t| t.tag()).unwrap_or(0);
    rank(a).cmp(&rank(b))
}

/// Accumulator state for one aggregate within one group.
#[derive(Debug, Clone)]
pub(crate) enum AccState {
    Count(i64),
    SumI(Option<i64>),
    SumF(Option<f64>),
    /// An AVG's INT values' exact sum, its FLOAT values' sum in scan order
    /// (a FLOAT AVG stays serial: `parallel::plan_parallel`), their count.
    Avg(i128, f64, i64),
    MinMax(Option<Value>),
}

impl AccState {
    fn new(spec: &crate::plan::AggSpec) -> AccState {
        match spec.func {
            AggFunc::CountStar | AggFunc::Count => AccState::Count(0),
            AggFunc::Sum => match spec.out_ty {
                jaguar_common::DataType::Float => AccState::SumF(None),
                _ => AccState::SumI(None),
            },
            AggFunc::Avg => AccState::Avg(0, 0.0, 0),
            AggFunc::Min | AggFunc::Max => AccState::MinMax(None),
        }
    }

    fn update(&mut self, func: AggFunc, v: Option<&Value>) -> Result<()> {
        match self {
            AccState::Count(n) => {
                // COUNT(*) counts rows; COUNT(x) counts non-null x.
                match (func, v) {
                    (AggFunc::CountStar, _) => *n += 1,
                    (_, Some(val)) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AccState::SumI(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let x = val.as_int()?;
                        *acc = Some(acc.unwrap_or(0).wrapping_add(x));
                    }
                }
            }
            AccState::SumF(acc) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let x = val.as_float()?;
                        *acc = Some(acc.unwrap_or(0.0) + x);
                    }
                }
            }
            AccState::Avg(ints, floats, n) => match v {
                Some(Value::Int(x)) => (*ints, *n) = (*ints + i128::from(*x), *n + 1),
                Some(val) if !val.is_null() => (*floats, *n) = (*floats + val.as_float()?, *n + 1),
                _ => {}
            },
            AccState::MinMax(best) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let replace = match best {
                            None => true,
                            Some(cur) => {
                                let ord = val.sql_cmp(cur).ok_or_else(|| {
                                    JaguarError::Execution(
                                        "min/max over incomparable values".into(),
                                    )
                                })?;
                                match func {
                                    AggFunc::Min => ord == std::cmp::Ordering::Less,
                                    AggFunc::Max => ord == std::cmp::Ordering::Greater,
                                    _ => unreachable!("MinMax state"),
                                }
                            }
                        };
                        if replace {
                            *best = Some(val.clone());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// [`AccState::update`] with `Some(&Value::Int(x))`, the value unbuilt.
    #[inline(always)]
    fn update_int(&mut self, func: AggFunc, x: i64) -> Result<()> {
        match self {
            AccState::SumI(acc) => *acc = Some(acc.unwrap_or(0).wrapping_add(x)),
            AccState::SumF(acc) => *acc = Some(acc.unwrap_or(0.0) + x as f64),
            AccState::Avg(ints, _, n) => (*ints, *n) = (*ints + i128::from(x), *n + 1),
            AccState::MinMax(Some(Value::Int(best))) => {
                if (func == AggFunc::Min && x < *best) || (func == AggFunc::Max && x > *best) {
                    *best = x;
                }
            }
            AccState::Count(_) | AccState::MinMax(_) => self.update(func, Some(&Value::Int(x)))?,
        }
        Ok(())
    }

    /// Fold another accumulator of the same shape — a parallel worker's
    /// partial state for the same group — into this one.
    fn merge(&mut self, func: AggFunc, other: AccState) -> Result<()> {
        match (self, other) {
            (AccState::Count(n), AccState::Count(m)) => *n += m,
            (AccState::SumI(acc), AccState::SumI(o)) => {
                if let Some(x) = o {
                    *acc = Some(acc.unwrap_or(0).wrapping_add(x));
                }
            }
            (AccState::SumF(acc), AccState::SumF(o)) => {
                if let Some(x) = o {
                    *acc = Some(acc.unwrap_or(0.0) + x);
                }
            }
            (AccState::Avg(ints, floats, n), AccState::Avg(i, f, m)) => {
                (*ints, *floats, *n) = (*ints + i, *floats + f, *n + m)
            }
            (mine @ AccState::MinMax(_), AccState::MinMax(best)) => {
                mine.update(func, best.as_ref())?
            }
            _ => {
                return Err(JaguarError::Execution(
                    "aggregate partials of mismatched shape".into(),
                ))
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AccState::Count(n) => Value::Int(n),
            AccState::SumI(None) | AccState::SumF(None) | AccState::MinMax(None) => Value::Null,
            AccState::SumI(Some(x)) => Value::Int(x),
            AccState::SumF(Some(x)) => Value::Float(x),
            AccState::Avg(.., 0) => Value::Null,
            AccState::Avg(ints, floats, n) => Value::Float((ints as f64 + floats) / n as f64),
            AccState::MinMax(Some(v)) => v,
        }
    }
}

/// Accumulating grouped-aggregation state: a fragment's aggregate sink,
/// serial or one per morsel, and the gather's merge of those partials.
///
/// Groups are emitted in first-seen order. Merging per-morsel partials in
/// morsel order therefore reproduces the serial output order exactly: a
/// group's position is its first occurrence in scan order either way.
///
/// A group is keyed by its group values' tagged encodings, back to back:
/// two keys are one group exactly when those bytes are equal — `0.0` ≠
/// `-0.0`, a NaN matches only the same bits, `1` ≠ `1.0`, a VARCHAR ≠ a
/// BYTEARRAY of the same bytes, and NULL groups with NULL. A folded record
/// passes its key bytes as they lie; a lent row encodes its group values.
/// Each group's values are decoded once, by [`GroupedAgg::finish`].
#[derive(Default)]
pub(crate) struct GroupedAgg {
    /// Every group's key, in first-seen order, ending at `key_ends[g]`.
    keys: Vec<u8>,
    key_ends: Vec<usize>,
    /// Every group's accumulators, one per aggregate, group after group.
    accs: Vec<AccState>,
    /// The groups by their keys' hash; a global aggregate's one group is
    /// found without a probe (which would cost it a fifth of its time).
    index: GroupIndex,
    /// The key of the row being folded.
    key: Vec<u8>,
}

/// Group `g`'s key among `keys` that end at `ends`.
fn key_of<'k>(keys: &'k [u8], ends: &[usize], g: usize) -> &'k [u8] {
    let start = g.checked_sub(1).map_or(0, |p| ends[p]);
    &keys[start..ends[g]]
}

impl GroupedAgg {
    /// The group keyed `key` (or the key in `self.key`), appended with
    /// fresh accumulators on its first sight; its accumulators.
    fn locate(&mut self, plan: &AggregatePlan, key: Option<&[u8]>) -> &mut [AccState] {
        let (n, key) = (plan.aggs.len(), key.unwrap_or(&self.key));
        let (keys, ends) = (&self.keys, &self.key_ends);
        let g = match plan.group_exprs.is_empty() && !ends.is_empty() {
            true => 0,
            false => {
                let hash = key_hash(key);
                let slot = self.index.probe(hash, |g| key_of(keys, ends, g) == key);
                match self.index.slots[slot].checked_sub(1) {
                    Some(g) => g as usize,
                    None => {
                        self.index.insert(slot, hash);
                        self.keys.extend_from_slice(key);
                        self.key_ends.push(self.keys.len());
                        self.accs.extend(plan.aggs.iter().map(AccState::new));
                        self.key_ends.len() - 1
                    }
                }
            }
        };
        &mut self.accs[g * n..(g + 1) * n]
    }

    /// Fold one input tuple into its group.
    pub(crate) fn update(
        &mut self,
        plan: &AggregatePlan,
        tuple: &Tuple,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<()> {
        // Each group expression is evaluated once per row, in order.
        self.key.clear();
        for g in &plan.group_exprs {
            write_value(&mut self.key, &*operand(g, tuple, ctx)?)?;
        }
        for (spec, acc) in plan.aggs.iter().zip(self.locate(plan, None)) {
            let v = match &spec.arg {
                Some(e) => Some(operand(e, tuple, ctx)?),
                None => None,
            };
            acc.update(spec.func, v.as_deref())?;
        }
        Ok(())
    }

    /// Fold a record walked to its end as [`GroupedAgg::update`] folds its
    /// row ([`AggregatePlan::folds`]): a key is its columns' bytes; COUNT
    /// sees only NULL or not, an argument stored as INT is folded as its
    /// integer, any other a `Value` on the stack.
    pub(crate) fn fold(&mut self, plan: &AggregatePlan, record: &RecordView) -> Result<()> {
        let read = |e: &BExpr| match e {
            BExpr::Column(c) => (record.walked(*c))
                .ok_or_else(|| JaguarError::Execution(format!("tuple index {c} out of range"))),
            _ => unreachable!("a plan that folds at its scan reads plain columns"),
        };
        let key = match plan.group_exprs.as_slice() {
            [only] => Some(read(only)?.encoded()),
            exprs => {
                self.key.clear();
                for e in exprs {
                    self.key.extend_from_slice(read(e)?.encoded());
                }
                None
            }
        };
        for (spec, acc) in plan.aggs.iter().zip(self.locate(plan, key)) {
            let stored = spec.arg.as_ref().map(read).transpose()?;
            match (acc, stored) {
                (AccState::Count(n), stored) => {
                    *n += i64::from(stored.is_none_or(|c| !c.is_null()))
                }
                (acc, Some(stored)) => match stored.int() {
                    Some(x) => acc.update_int(spec.func, x)?,
                    None => acc.update(spec.func, Some(&stored.value()?))?,
                },
                (acc, None) => acc.update(spec.func, None)?,
            }
        }
        Ok(())
    }

    /// Fold another partial aggregation — a later morsel's — into this
    /// one. Groups first seen by `other` append after this one's, so
    /// merging partials in morsel order keeps first-seen-in-scan-order
    /// output.
    pub(crate) fn merge(&mut self, plan: &AggregatePlan, other: GroupedAgg) -> Result<()> {
        let mut theirs = other.accs.into_iter();
        for g in 0..other.key_ends.len() {
            let key = key_of(&other.keys, &other.key_ends, g);
            for (spec, mine) in plan.aggs.iter().zip(self.locate(plan, Some(key))) {
                mine.merge(spec.func, theirs.next().expect("one state per aggregate"))?;
            }
        }
        Ok(())
    }

    /// Emit one output tuple per group (group values ++ aggregate results)
    /// in first-seen order. A global aggregation over zero input rows
    /// still yields its single default row.
    pub(crate) fn finish(mut self, plan: &AggregatePlan) -> Result<Vec<Tuple>> {
        if plan.group_exprs.is_empty() && self.key_ends.is_empty() {
            self.locate(plan, Some(&[]));
        }
        let mut accs = self.accs.into_iter();
        let mut keys = &self.keys[..];
        (0..self.key_ends.len())
            .map(|_| {
                let mut values = Vec::with_capacity(plan.group_exprs.len() + plan.aggs.len());
                for _ in &plan.group_exprs {
                    values.push(next_value(&mut keys)?);
                }
                values.extend(accs.by_ref().take(plan.aggs.len()).map(AccState::finish));
                Ok(Tuple::new(values))
            })
            .collect()
    }
}

/// The multiplier of [`key_hash`]: odd, and picked among random odd
/// constants so that runs of consecutive integers, and of integers stepping
/// by 2^12, 2^20, 2^40 or 2^52, each reach ≥ 90 % of 4,096 home slots.
const HASH_MUL: u64 = 0x26d1_075c_a7e1_85b1;

/// A multiply-fold hash of a group key's bytes: its last whole words are
/// folded in with a multiplication each, the bytes before them (a
/// one-column key's tag) multiplied on their own and XORed in. The top
/// bits, [`GroupIndex`]'s slot, are reached by every bit of the key. A
/// one-column FLOAT key that is an `i64` hashes as that integer. Seeded
/// once per process (after the multiply: a seed permutes slots, not spread).
fn key_hash(key: &[u8]) -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        use std::hash::BuildHasher;
        std::collections::hash_map::RandomState::new().hash_one(0u64)
    });
    let fold = |h: u64, word: u64| (h.rotate_left(23) ^ word).wrapping_mul(HASH_MUL);
    let (head, words) = key.split_at(key.len() % 8);
    let head = head.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
    let float = head == u64::from(jaguar_common::DataType::Float.tag()) && words.len() == 8;
    let integral = |x: f64| (float && (x as i64) as f64 == x).then_some(x as i64 as u64);
    let words = (words.chunks_exact(8)).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    let words = words.map(|w| integral(f64::from_bits(w)).unwrap_or(w));
    words.fold(0, fold) ^ fold(0, head) ^ seed
}

/// Group positions in an open-addressed table, probed linearly from the
/// slot the top bits of a key's hash name, and kept at most half full.
#[derive(Default)]
struct GroupIndex {
    /// A group's position + 1, or 0 for an empty slot; a power of two long.
    slots: Vec<u32>,
    /// Each group's hash, by position.
    hashes: Vec<u64>,
}

impl GroupIndex {
    /// The slot a hash names first in a table of `len` slots.
    fn home(hash: u64, len: usize) -> usize {
        (hash >> (64 - len.trailing_zeros())) as usize
    }

    /// The slot of the group with this hash that `same` accepts, or the
    /// empty slot where it belongs.
    fn probe(&mut self, hash: u64, same: impl Fn(usize) -> bool) -> usize {
        if self.slots.is_empty() {
            self.slots = vec![0; 16];
        }
        let mut slot = GroupIndex::home(hash, self.slots.len());
        loop {
            match self.slots[slot] as usize {
                0 => return slot,
                g if self.hashes[g - 1] == hash && same(g - 1) => return slot,
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Put the next group in the empty `slot`; past half full, re-place
    /// every group in a table twice as long.
    fn insert(&mut self, slot: usize, hash: u64) {
        self.hashes.push(hash);
        self.slots[slot] = self.hashes.len() as u32;
        if 2 * self.hashes.len() > self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()];
            for at in 0..self.hashes.len() {
                let slot = self.probe(self.hashes[at], |_| false);
                self.slots[slot] = at as u32 + 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggSpec;
    use jaguar_common::{ByteArray, DataType};
    use jaguar_ipc::proto::NoCallbacks;
    use proptest::prelude::*;

    /// Group values whose encodings are all distinct but which compare
    /// alike in some other sense: ±0.0, NaNs of two payloads, ±inf, `1`
    /// beside `1.0`, a VARCHAR beside a BYTEARRAY of the same bytes, NULL.
    fn arb_key_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            Just(Value::Float(0.0)),
            Just(Value::Float(-0.0)),
            Just(Value::Float(f64::from_bits(0x7ff8_0000_0000_0001))),
            Just(Value::Float(f64::from_bits(0x7ff8_0000_0000_0002))),
            Just(Value::Float(f64::INFINITY)),
            Just(Value::Float(f64::NEG_INFINITY)),
            Just(Value::Float(1.0)),
            (0..3i64).prop_map(Value::Int),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Str("ab".into())),
            Just(Value::Bytes(ByteArray::from(&b"ab"[..]))),
        ]
    }

    /// `SELECT k0..k{width}, COUNT(*), SUM(x) … GROUP BY k0..k{width}`,
    /// `x` being the column after the keys.
    fn grouped(width: usize) -> AggregatePlan {
        AggregatePlan {
            group_exprs: (0..width).map(BExpr::Column).collect(),
            aggs: vec![
                AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                    arg_ty: None,
                    out_ty: DataType::Int,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(BExpr::Column(width)),
                    arg_ty: Some(DataType::Int),
                    out_ty: DataType::Int,
                },
            ],
        }
    }

    /// `rows` aggregated in `parts` morsels, merged in order: lent as rows,
    /// or with `folded` shown as the records they are stored as.
    fn aggregate(
        plan: &AggregatePlan,
        rows: &[Tuple],
        parts: &[&[Tuple]],
        folded: bool,
    ) -> Vec<u8> {
        let mut callbacks = NoCallbacks;
        let mut ctx = ExecCtx::for_udfs(&[], &mut callbacks, None).unwrap();
        let mut merged = GroupedAgg::default();
        for part in parts {
            let mut agg = GroupedAgg::default();
            for row in *part {
                if folded {
                    let record = encoded(std::slice::from_ref(row));
                    let mut view = RecordView::new(&record).unwrap();
                    view.check(&jaguar_common::ColumnSet::all()).unwrap();
                    agg.fold(plan, &view).unwrap();
                } else {
                    agg.update(plan, row, &mut ctx).unwrap();
                }
            }
            merged.merge(plan, agg).unwrap();
        }
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), rows.len());
        encoded(&merged.finish(plan).unwrap())
    }

    fn encoded(rows: &[Tuple]) -> Vec<u8> {
        let mut out = Vec::new();
        for row in rows {
            jaguar_common::stream::write_tuple(&mut out, row).unwrap();
        }
        out
    }

    /// What grouping by the values' tagged encoding gives, in first-seen
    /// order.
    fn reference(width: usize, rows: &[Tuple]) -> Vec<u8> {
        let mut groups: Vec<(Vec<u8>, Vec<Value>, i64, i64)> = Vec::new();
        for row in rows {
            let mut key = Vec::new();
            for v in &row.values()[..width] {
                write_value(&mut key, v).unwrap();
            }
            let x = row.values()[width].as_int().unwrap();
            match groups.iter_mut().find(|g| g.0 == key) {
                Some(g) => (g.2, g.3) = (g.2 + 1, g.3 + x),
                None => groups.push((key, row.values()[..width].to_vec(), 1, x)),
            }
        }
        let out: Vec<Tuple> = (groups.into_iter())
            .map(|(_, mut vals, count, sum)| {
                vals.extend([Value::Int(count), Value::Int(sum)]);
                Tuple::new(vals)
            })
            .collect();
        encoded(&out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Two keys are one group exactly when their tagged encodings are
        /// equal, and groups come out in first-seen order — aggregated in
        /// one morsel or in two merged in order, from lent rows or from the
        /// records they are stored as.
        #[test]
        fn group_key_equality_is_encoded_key_equality(
            width in 1usize..4,
            keys in proptest::collection::vec(
                (arb_key_value(), arb_key_value(), arb_key_value(), -5i64..6),
                0..60,
            ),
            split in 0usize..60,
        ) {
            let rows: Vec<Tuple> = (keys.into_iter())
                .map(|(a, b, c, x)| {
                    let mut values = vec![a, b, c];
                    values.truncate(width);
                    values.push(Value::Int(x));
                    Tuple::new(values)
                })
                .collect();
            let plan = grouped(width);
            let want = reference(width, &rows);
            let (front, back) = rows.split_at(split.min(rows.len()));
            for folded in [false, true] {
                prop_assert_eq!(aggregate(&plan, &rows, &[&rows], folded), want.clone());
                prop_assert_eq!(aggregate(&plan, &rows, &[front, back], folded), want.clone());
            }
        }
    }

    /// Keys that differ only in their high bits, and integral floats —
    /// within `i64` and past it — land on at least 90 % of a 4,096-slot
    /// table's home slots. (`i << 56` keeps only 256 distinct keys, so its
    /// bits shifted out come back at the bottom: `i.rotate_left(56)`.)
    #[test]
    fn group_key_hash_spreads_high_bits_and_floats() {
        type Family = (&'static str, fn(u64) -> Value);
        let families: [Family; 5] = [
            ("i << 40", |i| Value::Int((i << 40) as i64)),
            ("i << 52", |i| Value::Int((i << 52) as i64)),
            (
                "i.rotate_left(56)",
                |i| Value::Int(i.rotate_left(56) as i64),
            ),
            ("i as f64", |i| Value::Float(i as f64)),
            ("(i + 4096) * 2^64", |i| {
                Value::Float((i + 4096) as f64 * 2f64.powi(64))
            }),
        ];
        for (name, key) in families {
            let mut home = vec![false; 4096];
            for i in 0..4096 {
                let mut encoded = Vec::new();
                write_value(&mut encoded, &key(i)).unwrap();
                home[GroupIndex::home(key_hash(&encoded), 4096)] = true;
            }
            let covered = home.iter().filter(|h| **h).count();
            assert!(covered * 10 >= 4096 * 9, "{name}: {covered} of 4096 slots");
        }
    }
}

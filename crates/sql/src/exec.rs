//! Volcano-style execution.
//!
//! Operators pull tuples from their child via `next()`. UDF instances and
//! the callback channel live in the per-query [`ExecCtx`], threaded through
//! every `next` call so operators stay simple values.
//!
//! The Filter operator evaluates its (optimizer-ordered) predicates with
//! short-circuit AND semantics: a tuple rejected by a cheap predicate
//! never reaches an expensive UDF — the payoff of the \[Hel95\]-style
//! ordering done in `plan`.

use jaguar_catalog::table::{RowPages, RowReader, RowTest};
use jaguar_catalog::Table;
use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::RecordId;
use jaguar_common::obs;
use jaguar_common::schema::SchemaRef;
use jaguar_common::stream::{read_value, write_value};
use jaguar_common::{ColumnSet, Tuple, Value};
use jaguar_ipc::proto::CallbackHandler;
use jaguar_pool::WorkerPool;
use jaguar_udf::{CircuitBreaker, ScalarUdf};
use jaguar_vec::{BatchResult, ValueBatch};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::ast::ArithOp;
use crate::ast::CmpOp;
use crate::plan::{AccessPath, AggFunc, AggregatePlan, BExpr, BoundSelect};

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

/// Process-wide metric handles for one UDF slot, resolved once at context
/// construction so the per-tuple invocation path touches only atomics.
struct UdfMetrics {
    invocations: Arc<obs::Counter>,
    latency: Arc<obs::Histogram>,
    /// Per-`(udf, backend)` latency (`udf.latency_us.{slug}.{name}`),
    /// recorded alongside the per-backend aggregate above. This is what
    /// seeds the optimizer's observed cost model.
    latency_named: Arc<obs::Histogram>,
    /// Rows per batched crossing (a value histogram, recorded in "µs"
    /// buckets — the registry's histograms are unit-agnostic).
    batch_rows: Arc<obs::Histogram>,
    /// Batched trust-boundary crossings: one per `invoke_batch`, however
    /// many rows it carried.
    batch_crossings: Arc<obs::Counter>,
}

/// Metric-name suffix for a UDF execution design (the paper's four
/// designs, as reported by `UdfImpl::design_label`).
pub(crate) fn backend_slug(design_label: &str) -> &'static str {
    match design_label {
        "C++" => "cpp",
        "IC++" => "icpp",
        "JSM" => "jsm",
        "IJSM" => "ijsm",
        _ => "other",
    }
}

/// Deadline (`Instant::now()`) checks are this many times rarer than the
/// per-tuple cancellation-flag check — the flag is one atomic load, the
/// deadline a syscall on some platforms.
const DEADLINE_CHECK_INTERVAL: u32 = 64;

/// Whether a UDF failure should count against its circuit breaker: only
/// infrastructure faults (a dead worker, a blown resource/pool deadline)
/// do. Deterministic errors from the UDF's own logic and statement
/// lifecycle aborts (cancel/timeout) say nothing about the UDF's health.
fn breaker_counts(e: &JaguarError) -> bool {
    matches!(e, JaguarError::Worker(_) | JaguarError::ResourceLimit(_)) && !e.is_lifecycle_abort()
}

/// Per-query execution context: instantiated UDFs + callback channel.
pub struct ExecCtx<'a> {
    pub udfs: Vec<Box<dyn ScalarUdf>>,
    pub callbacks: &'a mut dyn CallbackHandler,
    pub stats: ExecStats,
    /// Parallel to `udfs`: the global per-backend counters this query's
    /// invocations feed (a live version of the paper's Table 1).
    udf_metrics: Vec<UdfMetrics>,
    /// Parallel to `udfs`: the registry circuit breaker guarding each
    /// slot, if the def came out of a catalog.
    udf_breakers: Vec<Option<Arc<CircuitBreaker>>>,
    /// The statement's lifecycle token; checked cooperatively by every
    /// operator `next` (see [`ExecCtx::tick`]).
    cancel: CancelToken,
    /// Countdown to the next full deadline check.
    deadline_countdown: u32,
    /// Effective UDF batch size (rows per trust-boundary crossing).
    /// `1` means the classic per-tuple ABI; set from
    /// `Config::udf_batch_size` via [`ExecCtx::set_udf_batch_size`].
    batch_size: usize,
    /// Parallel to `udfs`: the Froid-inlined native body for slots the
    /// optimizer folded away. Those slots hold a placeholder box, their
    /// breakers are never acquired, and no backend is instantiated.
    udf_inline: Vec<Option<InlineSlot>>,
    /// Parallel to `udfs`: consult the memo cache for this slot
    /// (`Immutable` volatility and not inlined).
    udf_memo: Vec<bool>,
    /// Parallel to `udfs`: catalog names, used to key the memo cache.
    udf_names: Vec<String>,
    /// Engine-scoped memo cache, when enabled ([`ExecCtx::set_memo`]).
    memo: Option<Arc<jaguar_opt::MemoCache>>,
    /// Per-predicate selectivity tallies `(fingerprint, evaluated,
    /// passed)`, indexed like the plan's predicate list (`None` = not
    /// tallied); flushed into `sel_sink` by [`ExecCtx::finish`].
    sel: Vec<(Option<String>, u64, u64)>,
    sel_sink: Option<Arc<jaguar_opt::OptState>>,
}

/// A Froid-inlined UDF slot: the native body plus whatever is needed to
/// reproduce the VM call path's argument checking byte-for-byte.
struct InlineSlot {
    body: Arc<jaguar_opt::InlineBody>,
    sig: jaguar_udf::UdfSignature,
    name: String,
}

impl<'a> ExecCtx<'a> {
    /// Instantiate every UDF in the plan. With `pool = None` isolated
    /// designs spawn a fresh worker per query (as in the paper); with a
    /// pool they check out warm workers instead.
    pub fn for_plan(
        plan: &BoundSelect,
        callbacks: &'a mut dyn CallbackHandler,
        pool: Option<&Arc<WorkerPool>>,
    ) -> Result<ExecCtx<'a>> {
        ExecCtx::for_udfs(&plan.udfs, callbacks, pool)
    }

    /// Instantiate an explicit UDF list (used by DML execution).
    pub fn for_udfs(
        udfs: &[crate::plan::PlannedUdf],
        callbacks: &'a mut dyn CallbackHandler,
        pool: Option<&Arc<WorkerPool>>,
    ) -> Result<ExecCtx<'a>> {
        let reg = obs::global();
        let udf_metrics = udfs
            .iter()
            .map(|u| {
                let slug = backend_slug(u.def.imp.design_label());
                UdfMetrics {
                    invocations: reg.counter(&format!("udf.invocations.{slug}")),
                    latency: reg.histogram(&format!("udf.latency_us.{slug}")),
                    latency_named: reg.histogram(&format!("udf.latency_us.{slug}.{}", u.def.name)),
                    batch_rows: reg.histogram(&format!("udf.batch.rows.{slug}")),
                    batch_crossings: reg.counter(&format!("udf.batch.crossings.{slug}")),
                }
            })
            .collect();
        let udf_inline: Vec<Option<InlineSlot>> = udfs
            .iter()
            .map(|u| {
                u.inline.clone().map(|body| InlineSlot {
                    body,
                    sig: u.def.signature.clone(),
                    name: u.def.name.clone(),
                })
            })
            .collect();
        let udf_memo = udfs
            .iter()
            .map(|u| u.def.volatility.memoizable() && u.inline.is_none())
            .collect();
        let udf_names = udfs.iter().map(|u| u.def.name.clone()).collect();
        // Breaker gate *before* instantiation: a quarantined UDF fails
        // fast here, without a pool checkout or a worker spawn — that is
        // the whole point of the breaker (no respawn storm). Inlined
        // slots never touch their backend, so they bypass the breaker.
        let udf_breakers: Vec<Option<Arc<CircuitBreaker>>> =
            udfs.iter().map(|u| u.def.breaker.clone()).collect();
        for (b, inl) in udf_breakers.iter().zip(&udf_inline) {
            if inl.is_some() {
                continue;
            }
            if let Some(b) = b {
                b.try_acquire()?;
            }
        }
        let udfs = udfs
            .iter()
            .zip(&udf_breakers)
            .map(|(u, b)| {
                if u.inline.is_some() {
                    // Inlined: the executor evaluates the native body;
                    // no VM, worker process, or pool checkout exists.
                    return Ok(Box::new(InlinedUdf) as Box<dyn ScalarUdf>);
                }
                u.def.instantiate_with(pool).inspect_err(|e| {
                    // A worker that dies while loading the UDF counts
                    // against the breaker just like an invoke crash.
                    if let Some(b) = b {
                        if breaker_counts(e) {
                            b.record_failure();
                        }
                    }
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(ExecCtx {
            udfs,
            callbacks,
            stats: ExecStats::default(),
            udf_metrics,
            udf_breakers,
            cancel: CancelToken::unbounded(),
            deadline_countdown: DEADLINE_CHECK_INTERVAL,
            batch_size: 1,
            udf_inline,
            udf_memo,
            udf_names,
            memo: None,
            sel: Vec::new(),
            sel_sink: None,
        })
    }

    /// Attach the engine's memo cache (`None` leaves memoization off).
    pub fn set_memo(&mut self, memo: Option<Arc<jaguar_opt::MemoCache>>) {
        self.memo = memo;
    }

    /// Arm per-predicate selectivity tallies, indexed like the plan's
    /// predicate list; [`ExecCtx::finish`] folds them into `sink`.
    pub fn set_selectivity_probe(
        &mut self,
        fingerprints: Vec<Option<String>>,
        sink: Arc<jaguar_opt::OptState>,
    ) {
        self.sel = fingerprints.into_iter().map(|f| (f, 0, 0)).collect();
        self.sel_sink = Some(sink);
    }

    /// Tally one predicate evaluation (Filter / `matches_all`). Indices
    /// beyond the armed fingerprint list are ignored, so contexts without
    /// a probe (DML, post-gather) cost one bounds check.
    #[inline]
    pub(crate) fn sel_record(&mut self, idx: usize, passed: bool) {
        if let Some(t) = self.sel.get_mut(idx) {
            t.1 += 1;
            t.2 += u64::from(passed);
        }
    }

    /// Set the UDF batch budget for this query. The request is normalised
    /// through [`jaguar_vec::effective_batch_size`]: `0`/`1` keep the
    /// per-tuple ABI, anything else is clamped to the supported 64–1024
    /// row window.
    pub fn set_udf_batch_size(&mut self, requested: usize) {
        self.batch_size = jaguar_vec::effective_batch_size(requested);
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
        for u in &mut self.udfs {
            u.attach_cancel(token.clone());
        }
    }

    /// Cooperative lifecycle check, called from every operator `next`.
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
        for u in self.udfs {
            if let Some(c) = u.consumed() {
                stats.vm_instructions += c.instructions;
                stats.vm_bytes_allocated += c.bytes_allocated;
            }
            u.finish()?;
        }
        Ok(stats)
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

/// The one definition of `l op r`: `None` is SQL's unknown (a NULL on
/// either side), values of types that have no order are an error. `eval`'s
/// comparison and the conjuncts a scan judges on record bytes both end here.
pub(crate) fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<Option<bool>> {
    use std::cmp::Ordering::{Equal, Greater, Less};
    let Some(ord) = l.sql_cmp(r) else {
        if l.is_null() || r.is_null() {
            return Ok(None);
        }
        return Err(JaguarError::Execution(format!(
            "cannot compare {l} with {r}"
        )));
    };
    Ok(Some(match op {
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
    }))
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
            // Froid-inlined body: same argument checking and value
            // semantics as the VM call path, evaluated natively — no
            // backend, no crossing, no invocation counted.
            if let Some(slot) = &ctx.udf_inline[*udf] {
                slot.sig.check_args(&slot.name, &vals)?;
                return slot.body.invoke(&vals);
            }
            // Immutable UDFs consult the shared memo cache before paying
            // for a crossing; a hit skips the invocation entirely.
            let memo_key = if ctx.udf_memo[*udf] {
                match &ctx.memo {
                    Some(cache) => {
                        let key = jaguar_opt::MemoCache::key(&ctx.udf_names[*udf], &vals);
                        if let Some(v) = cache.get(&key) {
                            return Ok(v);
                        }
                        Some(key)
                    }
                    None => None,
                }
            } else {
                None
            };
            ctx.stats.udf_invocations += 1;
            ctx.udf_metrics[*udf].invocations.inc();
            // Split the borrow: take the UDF box out, call, put it back,
            // so the callback counter and the UDF can both borrow ctx.
            let mut u = std::mem::replace(&mut ctx.udfs[*udf], Box::new(PoisonUdf));
            let mut counting = CountingCallbacks {
                inner: ctx.callbacks,
                count: &mut ctx.stats.udf_callbacks,
            };
            let started = Instant::now();
            let out = u.invoke(&vals, &mut counting);
            let elapsed = started.elapsed();
            ctx.udf_metrics[*udf].latency.observe(elapsed);
            ctx.udf_metrics[*udf].latency_named.observe(elapsed);
            ctx.udfs[*udf] = u;
            if let Some(b) = &ctx.udf_breakers[*udf] {
                match &out {
                    Ok(_) => b.record_success(),
                    Err(e) if breaker_counts(e) => b.record_failure(),
                    Err(_) => {}
                }
            }
            let v = out?;
            if let (Some(key), Some(cache)) = (memo_key, &ctx.memo) {
                cache.insert(key, v.clone());
            }
            v
        }
    })
}

/// Placeholder left in the UDF slot during an invocation; reached only if
/// a UDF recursively invokes the same query's UDF slot, which the engine
/// does not support.
struct PoisonUdf;

impl ScalarUdf for PoisonUdf {
    fn name(&self) -> &str {
        "<in-flight>"
    }
    fn signature(&self) -> &jaguar_udf::UdfSignature {
        unreachable!("poison udf has no signature")
    }
    fn invoke(&mut self, _: &[Value], _: &mut dyn CallbackHandler) -> Result<Value> {
        Err(JaguarError::Execution(
            "re-entrant UDF invocation is not supported".into(),
        ))
    }
}

/// Placeholder occupying a Froid-inlined UDF's slot. `eval` routes those
/// calls to the native body before ever touching the slot, so invoking
/// this is a planner/executor disagreement, not a user error.
struct InlinedUdf;

impl ScalarUdf for InlinedUdf {
    fn name(&self) -> &str {
        "<inlined>"
    }
    fn signature(&self) -> &jaguar_udf::UdfSignature {
        unreachable!("inlined udf slot has no backend signature")
    }
    fn invoke(&mut self, _: &[Value], _: &mut dyn CallbackHandler) -> Result<Value> {
        Err(JaguarError::Execution(
            "inlined UDF slot invoked as a backend".into(),
        ))
    }
}

/// Invoke one UDF slot over a whole batch — the batched mirror of
/// `eval`'s `BExpr::Udf` arm, with the same stats, metrics, and breaker
/// accounting the per-tuple path would have produced:
///
/// * success: `udf_invocations += rows`, one (idempotent) breaker
///   `record_success`;
/// * error at batch row `k`: `udf_invocations += k + 1` (rows before the
///   failure completed, with their side effects intact), a
///   `record_success` for the completed prefix, then `record_failure` iff
///   the error is an infrastructure fault.
///
/// Latency is observed once per crossing rather than once per row — that
/// is the point of batching, and the new `udf.batch.rows` /
/// `udf.batch.crossings` instruments record the amortisation.
pub(crate) fn invoke_udf_batch(
    udf: usize,
    batch: &ValueBatch,
    ctx: &mut ExecCtx<'_>,
) -> BatchResult {
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    // Memo split: serve per-row hits from the cache and cross the trust
    // boundary only for the misses (possibly not at all).
    if ctx.udf_memo[udf] {
        if let Some(cache) = ctx.memo.clone() {
            return invoke_udf_batch_memoized(udf, batch, &cache, ctx);
        }
    }
    invoke_udf_batch_raw(udf, batch, ctx)
}

/// The batched crossing with the memo cache in front: hit rows never
/// reach the backend; miss rows form a smaller batch whose results are
/// inserted on success. A miss-batch error is remapped to the failing
/// row's position in the original batch, so the surfaced error is the
/// one the unmemoized path would raise (the failing row's own result is
/// never a cache hit — it would not have erred otherwise).
fn invoke_udf_batch_memoized(
    udf: usize,
    batch: &ValueBatch,
    cache: &Arc<jaguar_opt::MemoCache>,
    ctx: &mut ExecCtx<'_>,
) -> BatchResult {
    let n = batch.len();
    let mut keys = Vec::with_capacity(n);
    let mut out: Vec<Option<Value>> = Vec::with_capacity(n);
    let mut miss = ValueBatch::with_capacity(batch.arity(), n);
    let mut miss_rows: Vec<usize> = Vec::new();
    for i in 0..n {
        let args = batch.row(i);
        let key = jaguar_opt::MemoCache::key(&ctx.udf_names[udf], &args);
        match cache.get(&key) {
            Some(v) => out.push(Some(v)),
            None => {
                miss.push_row_owned(args)
                    .map_err(|error| jaguar_vec::BatchError { row: i, error })?;
                miss_rows.push(i);
                out.push(None);
            }
        }
        keys.push(key);
    }
    if !miss_rows.is_empty() {
        let values = match invoke_udf_batch_raw(udf, &miss, ctx) {
            Ok(vs) => vs,
            Err(mut be) => {
                be.row = miss_rows[be.row];
                return Err(be);
            }
        };
        for (&slot, v) in miss_rows.iter().zip(values) {
            cache.insert(std::mem::take(&mut keys[slot]), v.clone());
            out[slot] = Some(v);
        }
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("all rows filled"))
        .collect())
}

fn invoke_udf_batch_raw(udf: usize, batch: &ValueBatch, ctx: &mut ExecCtx<'_>) -> BatchResult {
    if batch.is_empty() {
        return Ok(Vec::new());
    }
    ctx.udf_metrics[udf]
        .batch_rows
        .observe_us(batch.len() as u64);
    ctx.udf_metrics[udf].batch_crossings.inc();
    // Same borrow split as the per-tuple path: take the UDF box out so the
    // callback counter and the UDF can both borrow ctx.
    let mut u = std::mem::replace(&mut ctx.udfs[udf], Box::new(PoisonUdf));
    let mut counting = CountingCallbacks {
        inner: ctx.callbacks,
        count: &mut ctx.stats.udf_callbacks,
    };
    let started = Instant::now();
    let out = u.invoke_batch(batch, &mut counting);
    let elapsed = started.elapsed();
    ctx.udf_metrics[udf].latency.observe(elapsed);
    ctx.udf_metrics[udf].latency_named.observe(elapsed);
    ctx.udfs[udf] = u;
    let completed = match &out {
        Ok(values) => values.len() as u64,
        // Rows before the failing one completed; the failing row counts as
        // an invocation too, exactly as the per-tuple path would tally it.
        Err(be) => be.row as u64 + 1,
    };
    ctx.stats.udf_invocations += completed;
    ctx.udf_metrics[udf].invocations.add(completed);
    if let Some(b) = &ctx.udf_breakers[udf] {
        match &out {
            Ok(_) => b.record_success(),
            Err(be) => {
                // `record_success` is idempotent, so one call for the
                // completed prefix leaves the breaker in the same state as
                // the per-tuple path's k successes would have.
                if be.row > 0 {
                    b.record_success();
                }
                if breaker_counts(&be.error) {
                    b.record_failure();
                }
            }
        }
    }
    out
}

/// A projection shape eligible for batched UDF invocation: exactly one
/// top-level [`BExpr::Udf`] among the projection expressions.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Index into the plan's UDF list (and the context's parallel vecs).
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
/// * `LIMIT` without `ORDER BY` stays per-tuple: the limit short-circuits
///   the pull pipeline, and batching would read ahead and over-invoke.
///   (With `ORDER BY`, the sort materialises every projected row anyway.)
/// * Exactly one projection expression is a top-level UDF call; its
///   arguments and every other projection expression are infallible
///   column/literal references, so accumulation-time evaluation cannot
///   surface an error at a different row than per-tuple evaluation would.
/// * The UDF is declared `Immutable` or `Stable` — batching moves its
///   invocations across filter short-circuit boundaries, which a
///   `Volatile` UDF (the default) is entitled to observe.
pub(crate) fn plan_batch_spec(plan: &BoundSelect) -> Option<BatchSpec> {
    batch_spec_or_reason(plan).ok()
}

/// Same gate, but a rejection names the condition that closed it so
/// `EXPLAIN`'s plan-notes trailer can surface the decision.
pub(crate) fn batch_spec_or_reason(
    plan: &BoundSelect,
) -> std::result::Result<BatchSpec, &'static str> {
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
    let slot = &plan.udfs[spec.udf];
    // An inlined UDF has no backend slot — its calls are native scalar
    // expressions, so there is no crossing to amortize (and the slot's
    // placeholder would reject a batched invocation anyway).
    if slot.inline.is_some() {
        return Err("UDF inlined (no crossing to amortize)");
    }
    let def = &slot.def;
    if !def.volatility.batchable() {
        return Err("volatile UDF pinned to per-tuple invocation");
    }
    // Per-backend policy: batching amortizes a boundary crossing; a
    // design whose crossing is free (trusted native) only pays the
    // ValueBatch accumulation and gets nothing back.
    if def.imp.crossing_is_free() {
        return Err("trusted native crossing is free");
    }
    Ok(spec)
}

/// Accumulates filter-surviving tuples for one batched UDF crossing.
/// Shared by the serial `Project` operator and the parallel morsel
/// fragments (a morsel boundary always flushes).
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

    pub(crate) fn is_empty(&self) -> bool {
        self.outs.is_empty()
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
                    return Err(JaguarError::Execution(
                        "batch spec does not match projection".into(),
                    ));
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

    /// Invoke the UDF over the accumulated rows and return the completed
    /// output tuples. On a mid-batch UDF error the batch error surfaces
    /// directly — rows before the failure completed inside the UDF (their
    /// side effects and stats are intact), but the statement fails with
    /// exactly the error the per-tuple executor would raise.
    pub(crate) fn flush(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<Tuple>> {
        if self.outs.is_empty() {
            return Ok(Vec::new());
        }
        let outs = std::mem::replace(&mut self.outs, Vec::with_capacity(self.size));
        let result = invoke_udf_batch(self.spec.udf, &self.args, ctx);
        self.args.clear();
        let values = result.map_err(|be| be.error)?;
        Ok(outs
            .into_iter()
            .zip(values)
            .map(|(mut out, v)| {
                out[self.spec.expr_idx] = v;
                Tuple::new(out)
            })
            .collect())
    }
}

/// Runtime state of a batched `Project` operator: completed tuples not
/// yet pulled by the parent, plus an error (the child's or the batch's)
/// to surface once the buffer drains.
#[derive(Default)]
pub struct ProjectPending {
    buffered: std::collections::VecDeque<Tuple>,
    err: Option<JaguarError>,
    exhausted: bool,
}

/// The batched `Project` pull: emit buffered tuples one at a time; when
/// the buffer drains, accumulate up to one batch of filter-surviving
/// child tuples and cross the trust boundary once for all of them.
///
/// Error ordering mirrors the per-tuple executor exactly: rows that were
/// accumulated before a child error are flushed (their UDF invocations
/// would already have happened per-tuple), and a mid-batch UDF error
/// surfaces in preference to the child error that was discovered later in
/// the stream.
fn project_batched(
    child: &mut Executor,
    exprs: &[BExpr],
    spec: BatchSpec,
    st: &mut ProjectPending,
    ctx: &mut ExecCtx<'_>,
) -> Result<Option<Tuple>> {
    loop {
        if let Some(t) = st.buffered.pop_front() {
            ctx.stats.rows_emitted += 1;
            return Ok(Some(t));
        }
        if let Some(e) = st.err.take() {
            st.exhausted = true;
            return Err(e);
        }
        if st.exhausted {
            return Ok(None);
        }
        let mut batcher = ProjectionBatcher::new(spec, ctx.batch_size());
        let mut child_err = None;
        while !batcher.is_full() {
            match child.next(ctx) {
                // The gate guarantees push evaluates only infallible
                // expressions; `?` is plumbing, not a semantic path.
                Ok(Some(tuple)) => batcher.push(exprs, &tuple, ctx)?,
                Ok(None) => {
                    st.exhausted = true;
                    break;
                }
                Err(e) => {
                    child_err = Some(e);
                    break;
                }
            }
        }
        if batcher.is_empty() {
            if let Some(e) = child_err {
                st.exhausted = true;
                return Err(e);
            }
            continue;
        }
        match batcher.flush(ctx) {
            Ok(tuples) => {
                st.buffered.extend(tuples);
                st.err = child_err;
            }
            Err(e) => {
                st.exhausted = true;
                return Err(e);
            }
        }
    }
}

/// The conjuncts of a WHERE clause that its scan judges on the record's
/// bytes ([`BoundSelect::pushed`]: each a column compared with a literal),
/// as the table's reader runs them under the page latch, and the columns
/// they read. Short-circuit AND in conjunct order, as [`matches_all`] does
/// above the scan: a conjunct that is not true ends it, one that fails is
/// the row's error.
fn scan_test(pushed: &[BExpr]) -> (Vec<usize>, RowTest) {
    fn side<'a>(e: &'a BExpr, values: &'a [Value]) -> Option<&'a Value> {
        match e {
            BExpr::Column(c) => values.get(*c),
            BExpr::Literal(v) => Some(v),
            _ => None,
        }
    }
    let mut columns = Vec::new();
    for p in pushed {
        crate::plan::walk(p, &mut |e| {
            if let BExpr::Column(c) = e {
                columns.push(*c);
            }
        });
    }
    let pushed = pushed.to_vec();
    let test = move |values: &[Value]| {
        for p in &pushed {
            let verdict = match p {
                BExpr::Cmp(op, l, r) => match (side(l, values), side(r, values)) {
                    (Some(l), Some(r)) => compare(*op, l, r)?,
                    _ => None,
                },
                _ => None,
            };
            if verdict != Some(true) {
                return Ok(false);
            }
        }
        Ok(true)
    };
    (columns, Box::new(test))
}

/// Rows a scan or an index fetch visited and rejected on their bytes.
fn rejected_at_scan() -> &'static obs::Counter {
    static COUNTER: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    COUNTER.get_or_init(|| obs::global().counter("sql.scan.rows_rejected_at_scan"))
}

/// The rows an [`AccessPath`] reaches, with their record ids: the one leaf
/// under every row pipeline — a SELECT's `SeqScan` / `IndexScan` /
/// `EmptyScan` operator, a morsel of a parallel one, and the victim
/// collection of DELETE and UPDATE. It yields the rows that pass the
/// statement's `pushed` conjuncts and counts every row it visited in
/// `stats.rows_scanned` (a heap page's as the page is batched).
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
    /// Open `access` over `table`, decoding the columns in `cols` of the
    /// rows that pass `pushed`. `pages` bounds a full scan (`1..u32::MAX`
    /// is the whole table); the other paths are not carved into morsels.
    pub(crate) fn open(
        table: &Arc<Table>,
        access: &AccessPath,
        cols: &ColumnSet,
        pages: Range<u32>,
        pushed: &[BExpr],
    ) -> Result<RowSource> {
        let (tested, test) = scan_test(pushed);
        let reader = table.reader(cols, &tested, test);
        Ok(match access {
            AccessPath::FullScan => RowSource::Heap(table.rows(reader, pages)),
            AccessPath::IndexRange { index, lo, hi } => RowSource::Index {
                table: Arc::clone(table),
                rids: index.btree.range(*lo, *hi)?.into_iter(),
                reader,
            },
            AccessPath::Empty => RowSource::Empty,
        })
    }

    /// Batch the next heap page, polling the statement's token once.
    fn next_page(pages: &mut RowPages, ctx: &mut ExecCtx<'_>) -> Result<bool> {
        ctx.tick()?;
        let more = pages.next_page();
        let (visited, rejected) = pages.take_counts();
        ctx.stats.rows_scanned += visited;
        rejected_at_scan().add(rejected);
        Ok(more)
    }

    /// The next row, owned. A rid the index returned whose row is gone by
    /// the time it is fetched — a concurrent statement deleted it in
    /// between — is skipped: the row is not there, which is all a scan
    /// would have seen.
    pub(crate) fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<(RecordId, Tuple)>> {
        match self {
            RowSource::Heap(pages) => loop {
                if let Some((rid, tuple)) = pages.next_row()? {
                    return Ok(Some((rid, std::mem::take(tuple))));
                }
                if !RowSource::next_page(pages, ctx)? {
                    return Ok(None);
                }
            },
            RowSource::Index {
                table,
                rids,
                reader,
            } => {
                for rid in rids {
                    let Some(row) = table.fetch(rid, reader)? else {
                        continue;
                    };
                    ctx.stats.rows_scanned += 1;
                    match row {
                        Some(tuple) => return Ok(Some((rid, tuple))),
                        None => rejected_at_scan().inc(),
                    }
                }
                Ok(None)
            }
            RowSource::Empty => Ok(None),
        }
    }

    /// Lend every remaining row to `f` — for a consumer that only looks at
    /// rows: a heap scan's then stay in their batch, whose tuples the next
    /// page refills.
    pub(crate) fn for_each(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        mut f: impl FnMut(RecordId, &Tuple, &mut ExecCtx<'_>) -> Result<()>,
    ) -> Result<()> {
        if let RowSource::Heap(pages) = self {
            loop {
                while let Some((rid, tuple)) = pages.next_row()? {
                    ctx.tick()?;
                    f(rid, tuple, ctx)?;
                }
                if !RowSource::next_page(pages, ctx)? {
                    return Ok(());
                }
            }
        }
        while let Some((rid, tuple)) = self.next(ctx)? {
            f(rid, &tuple, ctx)?;
        }
        Ok(())
    }
}

/// Evaluate cost-ordered predicates with short-circuit AND: a tuple
/// rejected by a cheap predicate never reaches an expensive UDF. The one
/// filter above the scan, for SELECT (serial and parallel) and DML alike.
pub(crate) fn matches_all(
    predicates: &[BExpr],
    tuple: &Tuple,
    ctx: &mut ExecCtx<'_>,
) -> Result<bool> {
    for (i, p) in predicates.iter().enumerate() {
        let passed = matches!(eval(p, tuple, ctx)?, Value::Bool(true));
        ctx.sel_record(i, passed);
        if !passed {
            return Ok(false);
        }
    }
    Ok(true)
}

/// ORDER BY: a stable sort of `rows` on `keys` (`true` = descending),
/// each key evaluated once per row — the serial `Sort` operator and the
/// parallel gather share it, so their orders are identical.
pub(crate) fn sort_rows(
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

/// The operator tree for a bound SELECT, pulled via [`Executor::next`].
pub enum Executor {
    /// The plan's access path (`SeqScan` / `IndexScan` / `EmptyScan`).
    Scan { rows: RowSource },
    Filter {
        child: Box<Executor>,
        predicates: Vec<BExpr>,
    },
    /// Hash aggregation: drains its child on first `next`, then yields one
    /// tuple per group (`group values ++ aggregate results`).
    Aggregate {
        child: Box<Executor>,
        plan: AggregatePlan,
        output: Option<std::vec::IntoIter<Tuple>>,
    },
    Project {
        child: Box<Executor>,
        exprs: Vec<BExpr>,
        /// `Some` when the plan shape qualifies for batched UDF
        /// invocation (see `plan_batch_spec`); the batched path
        /// additionally requires the context's batch size to exceed 1.
        batch: Option<BatchSpec>,
        /// Runtime buffer for the batched path.
        pending: ProjectPending,
    },
    /// HAVING: a filter over the projected output rows.
    Having {
        child: Box<Executor>,
        predicate: BExpr,
    },
    /// ORDER BY: materialises its child, sorts, then streams.
    Sort {
        child: Box<Executor>,
        keys: Vec<(BExpr, bool)>,
        output: Option<std::vec::IntoIter<Tuple>>,
    },
    Limit {
        child: Box<Executor>,
        remaining: u64,
    },
    /// Instrumentation shim inserted around every operator when the query
    /// runs under `EXPLAIN ANALYZE`: counts rows and `next` calls and
    /// accumulates wall time (inclusive of children; the renderer derives
    /// exclusive time by subtraction).
    Profiled {
        label: String,
        child: Box<Executor>,
        rows: u64,
        nexts: u64,
        elapsed: Duration,
    },
}

/// One operator's runtime numbers, reported by [`Executor::profile_report`]
/// in outermost-first pipeline order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfile {
    /// Operator label as shown in the plan rendering.
    pub label: String,
    /// Rows this operator produced.
    pub rows: u64,
    /// Times `next` was called on it (rows + the final exhausted call).
    pub nexts: u64,
    /// Wall time spent in this operator *and* everything below it.
    pub elapsed_us: u64,
}

impl Executor {
    /// Build the canonical pipeline:
    /// Scan → Filter → \[Aggregate\] → Project → \[Having\] → \[Sort\] → \[Limit\].
    pub fn build(plan: &BoundSelect) -> Result<Executor> {
        Executor::build_inner(plan, false)
    }

    /// Like [`Executor::build`], but wraps every operator in a
    /// [`Executor::Profiled`] shim — the `EXPLAIN ANALYZE` path.
    pub fn build_profiled(plan: &BoundSelect) -> Result<Executor> {
        Executor::build_inner(plan, true)
    }

    fn build_inner(plan: &BoundSelect, profile: bool) -> Result<Executor> {
        // Wrap `node` in a profiling shim when requested.
        let prof = |node: Executor, label: String| -> Executor {
            if profile {
                Executor::Profiled {
                    label,
                    child: Box::new(node),
                    rows: 0,
                    nexts: 0,
                    elapsed: Duration::ZERO,
                }
            } else {
                node
            }
        };
        let rows = RowSource::open(
            &plan.table,
            &plan.access,
            &plan.scan_cols,
            1..u32::MAX,
            &plan.pushed,
        )?;
        let label = crate::plan::scan_label(&plan.table, &plan.access, &plan.scan_cols);
        let mut node = prof(Executor::Scan { rows }, label);
        if !plan.predicates.is_empty() {
            node = prof(
                Executor::Filter {
                    child: Box::new(node),
                    predicates: plan.predicates.clone(),
                },
                format!("Filter ({} predicate(s))", plan.predicates.len()),
            );
        }
        if let Some(agg) = &plan.aggregate {
            node = prof(
                Executor::Aggregate {
                    child: Box::new(node),
                    plan: agg.clone(),
                    output: None,
                },
                format!(
                    "Aggregate ({} group expr(s), {} aggregate(s))",
                    agg.group_exprs.len(),
                    agg.aggs.len()
                ),
            );
        }
        node = prof(
            Executor::Project {
                child: Box::new(node),
                exprs: plan.projections.clone(),
                batch: plan_batch_spec(plan),
                pending: ProjectPending::default(),
            },
            format!("Project ({} column(s))", plan.projections.len()),
        );
        if let Some(h) = &plan.having {
            node = prof(
                Executor::Having {
                    child: Box::new(node),
                    predicate: h.clone(),
                },
                "Having".into(),
            );
        }
        if !plan.order_by.is_empty() {
            node = prof(
                Executor::Sort {
                    child: Box::new(node),
                    keys: plan.order_by.clone(),
                    output: None,
                },
                format!("Sort ({} key(s))", plan.order_by.len()),
            );
        }
        if let Some(n) = plan.limit {
            node = prof(
                Executor::Limit {
                    child: Box::new(node),
                    remaining: n,
                },
                format!("Limit {n}"),
            );
        }
        Ok(node)
    }

    /// Collect the per-operator numbers from a profiled pipeline,
    /// outermost operator first. Empty when the pipeline was built without
    /// profiling.
    pub fn profile_report(&self) -> Vec<OpProfile> {
        let mut out = Vec::new();
        self.collect_profiles(&mut out);
        out
    }

    fn collect_profiles(&self, out: &mut Vec<OpProfile>) {
        match self {
            Executor::Profiled {
                label,
                child,
                rows,
                nexts,
                elapsed,
            } => {
                out.push(OpProfile {
                    label: label.clone(),
                    rows: *rows,
                    nexts: *nexts,
                    elapsed_us: elapsed.as_micros().min(u64::MAX as u128) as u64,
                });
                child.collect_profiles(out);
            }
            Executor::Filter { child, .. }
            | Executor::Aggregate { child, .. }
            | Executor::Project { child, .. }
            | Executor::Having { child, .. }
            | Executor::Sort { child, .. }
            | Executor::Limit { child, .. } => child.collect_profiles(out),
            Executor::Scan { .. } => {}
        }
    }

    /// Pull the next tuple, or `None` when exhausted.
    pub fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Option<Tuple>> {
        // Cooperative cancellation: every operator polls the statement's
        // lifecycle token once per pull, so even a pipeline of cheap
        // predicates over a huge scan aborts within a few tuples.
        ctx.tick()?;
        match self {
            Executor::Scan { rows } => Ok(rows.next(ctx)?.map(|(_, tuple)| tuple)),
            Executor::Filter { child, predicates } => loop {
                let Some(tuple) = child.next(ctx)? else {
                    return Ok(None);
                };
                if matches_all(predicates, &tuple, ctx)? {
                    return Ok(Some(tuple));
                }
            },
            Executor::Aggregate {
                child,
                plan,
                output,
            } => {
                if output.is_none() {
                    *output = Some(run_aggregation(child, plan, ctx)?.into_iter());
                }
                Ok(output.as_mut().expect("materialised").next())
            }
            Executor::Project {
                child,
                exprs,
                batch,
                pending,
            } => {
                match *batch {
                    Some(spec) if ctx.batch_size() > 1 => {
                        return project_batched(child, exprs, spec, pending, ctx)
                    }
                    _ => {}
                }
                let Some(tuple) = child.next(ctx)? else {
                    return Ok(None);
                };
                let mut out = Vec::with_capacity(exprs.len());
                for e in exprs.iter() {
                    out.push(eval(e, &tuple, ctx)?);
                }
                ctx.stats.rows_emitted += 1;
                Ok(Some(Tuple::new(out)))
            }
            Executor::Having { child, predicate } => loop {
                let Some(tuple) = child.next(ctx)? else {
                    return Ok(None);
                };
                if matches!(eval(predicate, &tuple, ctx)?, Value::Bool(true)) {
                    return Ok(Some(tuple));
                }
            },
            Executor::Sort {
                child,
                keys,
                output,
            } => {
                if output.is_none() {
                    let rows = child.collect(ctx)?;
                    *output = Some(sort_rows(rows, keys, ctx)?.into_iter());
                }
                Ok(output.as_mut().expect("sorted").next())
            }
            Executor::Limit { child, remaining } => {
                if *remaining == 0 {
                    return Ok(None);
                }
                match child.next(ctx)? {
                    Some(t) => {
                        *remaining -= 1;
                        Ok(Some(t))
                    }
                    None => Ok(None),
                }
            }
            Executor::Profiled {
                child,
                rows,
                nexts,
                elapsed,
                ..
            } => {
                let started = Instant::now();
                let out = child.next(ctx);
                *elapsed += started.elapsed();
                *nexts += 1;
                if matches!(&out, Ok(Some(_))) {
                    *rows += 1;
                }
                out
            }
        }
    }

    /// Lend every remaining row to `f` instead of handing it out owned: the
    /// aggregate drains its child this way, so that the rows of a scan (and
    /// of a filter over one) stay in the scan's recycled batch. Any other
    /// child is pulled.
    fn for_each(
        &mut self,
        ctx: &mut ExecCtx<'_>,
        f: &mut dyn FnMut(&Tuple, &mut ExecCtx<'_>) -> Result<()>,
    ) -> Result<()> {
        match self {
            Executor::Scan { rows } => rows.for_each(ctx, |_, tuple, ctx| f(tuple, ctx)),
            Executor::Filter { child, predicates } => child.for_each(ctx, &mut |tuple, ctx| {
                if matches_all(predicates, tuple, ctx)? {
                    f(tuple, ctx)?;
                }
                Ok(())
            }),
            Executor::Profiled {
                child,
                rows,
                nexts,
                elapsed,
                ..
            } => {
                // The consumer's time is not this operator's: the clock
                // stops while `f` runs.
                let mut started = Instant::now();
                let drained = child.for_each(ctx, &mut |tuple, ctx| {
                    *elapsed += started.elapsed();
                    (*rows, *nexts) = (*rows + 1, *nexts + 1);
                    let fed = f(tuple, ctx);
                    started = Instant::now();
                    fed
                });
                *elapsed += started.elapsed();
                *nexts += 1;
                drained
            }
            _ => {
                while let Some(tuple) = self.next(ctx)? {
                    f(&tuple, ctx)?;
                }
                Ok(())
            }
        }
    }

    /// Drain the pipeline into a vector.
    pub fn collect(&mut self, ctx: &mut ExecCtx<'_>) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        while let Some(t) = self.next(ctx)? {
            out.push(t);
        }
        Ok(out)
    }
}

/// Total order used by ORDER BY: NULLs sort after every value (ascending);
/// cross-type comparisons fall back to a stable type-rank order. Shared
/// with the parallel gather-then-sort path so both orders are identical.
pub(crate) fn sort_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
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
    Avg { sum: f64, n: i64 },
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
            AggFunc::Avg => AccState::Avg { sum: 0.0, n: 0 },
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
            AccState::Avg { sum, n } => {
                if let Some(val) = v {
                    if !val.is_null() {
                        *sum += val.as_float()?;
                        *n += 1;
                    }
                }
            }
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
            (AccState::Avg { sum, n }, AccState::Avg { sum: s, n: m }) => {
                *sum += s;
                *n += m;
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
            AccState::Avg { n: 0, .. } => Value::Null,
            AccState::Avg { sum, n } => Value::Float(sum / n as f64),
            AccState::MinMax(Some(v)) => v,
        }
    }
}

/// Accumulating grouped-aggregation state, shared by the serial
/// `Aggregate` operator and the parallel partial-aggregate → combine path.
///
/// Groups are keyed by a stable serialisation of the group expressions'
/// values (keeps the map hashable without imposing `Eq`/`Hash` on `Value`)
/// and emitted in first-seen order. Merging per-morsel partials in morsel
/// order therefore reproduces the serial operator's output order exactly:
/// a group's position is its first occurrence in scan order either way.
///
/// An input row that lands in a known group allocates nothing: its key is
/// encoded into `key`, a buffer this struct owns, and looked up once.
#[derive(Default)]
pub(crate) struct GroupedAgg {
    /// Encoded group key → position in `groups`. Unused by a global
    /// aggregation (no GROUP BY), whose one group is `groups[0]`: its key
    /// would be an empty `Vec`, which never allocates, and comparing two
    /// of those is a zero-length `memcmp` of dangling pointers — about
    /// 110 ns on this host's libc (a fully masked vector load from an
    /// unmapped page) against 2 ns for any real key, per lookup, per row.
    index: std::collections::HashMap<Vec<u8>, usize>,
    /// `(group values, accumulators)` per group, in first-seen order.
    groups: Vec<(Vec<Value>, Vec<AccState>)>,
    /// The encoded key of the row or partial group being placed.
    key: Vec<u8>,
}

impl GroupedAgg {
    pub(crate) fn new() -> GroupedAgg {
        GroupedAgg::default()
    }

    /// Position of the group whose encoded key is in `self.key`, appended
    /// with fresh accumulators (and the values `vals` makes of the key) if
    /// this is its first sight.
    fn locate(
        &mut self,
        plan: &AggregatePlan,
        vals: impl FnOnce(&[u8]) -> Result<Vec<Value>>,
    ) -> Result<usize> {
        let global = plan.group_exprs.is_empty();
        let known = if global {
            (!self.groups.is_empty()).then_some(0)
        } else {
            self.index.get(self.key.as_slice()).copied()
        };
        if let Some(at) = known {
            return Ok(at);
        }
        let at = self.groups.len();
        let accs = plan.aggs.iter().map(AccState::new).collect();
        self.groups.push((vals(&self.key)?, accs));
        if !global {
            self.index.insert(self.key.clone(), at);
        }
        Ok(at)
    }

    /// Fold one input tuple into its group.
    pub(crate) fn update(
        &mut self,
        plan: &AggregatePlan,
        tuple: &Tuple,
        ctx: &mut ExecCtx<'_>,
    ) -> Result<()> {
        self.key.clear();
        for g in &plan.group_exprs {
            write_value(&mut self.key, &*operand(g, tuple, ctx)?)?;
        }
        // A new group's values are read back out of its key: the group
        // expressions (UDF calls, possibly) are evaluated once per row.
        let at = self.locate(plan, |mut key| {
            (plan.group_exprs.iter())
                .map(|_| read_value(&mut key))
                .collect()
        })?;
        for (spec, acc) in plan.aggs.iter().zip(self.groups[at].1.iter_mut()) {
            let v = match &spec.arg {
                Some(e) => Some(operand(e, tuple, ctx)?),
                None => None,
            };
            acc.update(spec.func, v.as_deref())?;
        }
        Ok(())
    }

    /// Fold another partial aggregation — a later morsel's — into this
    /// one. Groups first seen by `other` append after this one's, so
    /// merging partials in morsel order keeps first-seen-in-scan-order
    /// output.
    pub(crate) fn merge(&mut self, plan: &AggregatePlan, other: GroupedAgg) -> Result<()> {
        for (vals, accs) in other.groups {
            self.key.clear();
            for v in &vals {
                write_value(&mut self.key, v)?;
            }
            let at = self.locate(plan, |_| Ok(vals))?;
            for (spec, (mine, theirs)) in
                (plan.aggs.iter()).zip(self.groups[at].1.iter_mut().zip(accs))
            {
                mine.merge(spec.func, theirs)?;
            }
        }
        Ok(())
    }

    /// Emit one output tuple per group (group values ++ aggregate results)
    /// in first-seen order. A global aggregation over zero input rows
    /// still yields its single default row.
    pub(crate) fn finish(mut self, plan: &AggregatePlan) -> Vec<Tuple> {
        if plan.group_exprs.is_empty() && self.groups.is_empty() {
            let accs = plan.aggs.iter().map(AccState::new).collect();
            self.groups.push((Vec::new(), accs));
        }
        (self.groups.into_iter())
            .map(|(mut vals, accs)| {
                vals.extend(accs.into_iter().map(AccState::finish));
                Tuple::new(vals)
            })
            .collect()
    }
}

/// Drain `child` and compute the grouped aggregation.
fn run_aggregation(
    child: &mut Executor,
    plan: &AggregatePlan,
    ctx: &mut ExecCtx<'_>,
) -> Result<Vec<Tuple>> {
    let mut agg = GroupedAgg::new();
    child.for_each(ctx, &mut |tuple, ctx| agg.update(plan, tuple, ctx))?;
    Ok(agg.finish(plan))
}

/// Schema of an executor's output (the plan's `output_schema`).
pub type OutputSchema = SchemaRef;

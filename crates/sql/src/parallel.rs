//! Morsel-driven parallel SELECT execution — the `Gather` path.
//!
//! An eligible query's heap scan is carved into page-range *morsels*
//! (see [`jaguar_par::MorselDispenser`]) drained by a team of
//! `Config::dop` worker threads. Each worker owns a full execution
//! context — its own UDF instances, meaning its own VM for sandboxed
//! designs and its own pool checkout (or spawned process) for isolated
//! ones — and runs the scan → filter → project/partial-aggregate
//! fragment over whichever morsels it claims. The main thread then
//! *gathers*: per-morsel results are reassembled in morsel-index order,
//! so the parallel output is byte-identical to the serial scan order,
//! and the post-gather operators (aggregate combine, HAVING, ORDER BY,
//! LIMIT) run exactly as they would serially.
//!
//! What parallelizes: full-table scans of tables with at least
//! `MIN_DATA_PAGES` data pages, with or without UDFs, aggregation,
//! HAVING, ORDER BY, or LIMIT-after-ORDER-BY. What stays serial: DML,
//! index and empty scans, tiny tables, bare-LIMIT queries (where the
//! serial pipeline's early exit beats a full parallel scan), and
//! everything when `dop = 1`.
//!
//! Cancellation invariant: the statement's [`CancelToken`] is attached
//! to every worker's context, so a deadline or cancel mid-`Gather`
//! stops all threads within a few tuples, and the first worker error
//! aborts the rest of the team via a shared flag. Each worker still
//! finishes the morsel it is on, and the statement fails with the error
//! met in the lowest morsel: the one the serial scan would have met first.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::overload::Pressure;
use jaguar_common::{Tuple, Value};
use jaguar_par::{morsel_pages_for, run_team, MorselDispenser};

use crate::engine::{Engine, EngineCallbacks};
use crate::exec::{
    eval, matches_all, plan_batch_spec, sort_rows, ExecCtx, ExecStats, GroupedAgg,
    ProjectionBatcher, RowSource,
};
use crate::plan::{AccessPath, BoundSelect};

/// Tables with fewer data pages than this never go parallel: the team
/// setup (thread spawns, per-worker UDF instantiation) costs more than
/// the scan itself.
const MIN_DATA_PAGES: u32 = 8;

/// The parallel planner's verdict for one query.
pub struct ParallelDecision {
    /// Worker threads to run (≥ 2; `plan_parallel` says no below).
    pub dop: usize,
    /// Morsel size in heap pages.
    pub morsel_pages: u32,
    /// Heap data pages the scan covers (excludes the meta page).
    pub data_pages: u32,
    /// Whether `dop` was clamped down to the worker-pool size.
    pub clamped: bool,
}

/// Per-worker execution summary, surfaced by `EXPLAIN ANALYZE`.
pub struct WorkerReport {
    /// Rows this worker's fragment produced (post-filter).
    pub rows: u64,
    /// Morsels this worker claimed from the dispenser.
    pub morsels: u64,
    /// Wall time from fragment start to last morsel done.
    pub busy_us: u64,
}

/// Decide whether (and how widely) a bound SELECT runs parallel; `Err` is
/// the gate that said no, phrased for EXPLAIN's plan-notes trailer.
///
/// A query qualifies when `Config::dop ≥ 2`, the access path is a full
/// scan, the table has at least `MIN_DATA_PAGES` data pages, and the
/// query is not a bare LIMIT (no aggregate/ORDER BY/HAVING), where the
/// serial pipeline stops early instead of scanning everything. The dop
/// is capped at half the data pages (each worker should see ≥ 2 pages)
/// and — when any planned UDF draws a pool checkout per context — at
/// the worker-pool size, so a thread team can never deadlock waiting on
/// its own checkouts; clamping warns once per query and ticks
/// `par.dop_clamped`.
pub(crate) fn plan_parallel(
    engine: &Engine,
    plan: &BoundSelect,
) -> std::result::Result<ParallelDecision, &'static str> {
    let config_dop = engine.catalog().config().dop;
    if config_dop < 2 {
        return Err("dop=1 in config");
    }
    if !matches!(plan.access, AccessPath::FullScan) {
        return Err("not a full scan");
    }
    if plan.limit.is_some()
        && plan.aggregate.is_none()
        && plan.order_by.is_empty()
        && plan.having.is_none()
    {
        return Err("bare LIMIT short-circuits serially");
    }
    let data_pages = plan.table.heap_pages().saturating_sub(1);
    if data_pages < MIN_DATA_PAGES {
        return Err("table too small");
    }
    // At least 2: `MIN_DATA_PAGES / 2` is.
    let mut dop = config_dop.min((data_pages / 2) as usize);
    let mut clamped = false;
    // Inlined UDFs never draw a pool checkout — their backend is elided —
    // so they do not count toward the clamp.
    if plan
        .udfs
        .iter()
        .any(|u| u.inline.is_none() && u.def.imp.needs_worker())
    {
        if let Some(pool) = engine.worker_pool() {
            let cap = pool.capacity().max(1);
            if dop > cap {
                obs::warn!(
                    target: "jaguar-par",
                    "clamping dop {dop} to worker-pool size {cap} for query over '{}'",
                    plan.table.name()
                );
                jaguar_par::metrics().dop_clamped.inc();
                dop = cap;
                clamped = true;
            }
        }
    }
    // Graceful degradation: parallelism is the first optional work shed
    // under overload. At `Saturated` (admission queue half full) the query
    // runs serially — worker threads are exactly what a saturated server
    // has none to spare. At `Elevated` (at capacity, or sessions queueing,
    // or checkouts already waiting on the pool) the dop is halved, so the
    // team's footprint shrinks before the pool starts timing out.
    let pressure = engine.overload().level();
    if pressure >= Pressure::Saturated {
        obs::warn!(
            target: "jaguar-par",
            "server saturated: query over '{}' degraded to serial",
            plan.table.name()
        );
        obs::global().counter("degrade.dop_clamped").inc();
        return Err("server saturated: degraded to serial");
    }
    let pool_queued = engine.worker_pool().is_some_and(|p| p.waiters() > 0);
    if (pressure >= Pressure::Elevated || pool_queued) && dop > 2 {
        let shed = (dop / 2).max(2);
        obs::warn!(
            target: "jaguar-par",
            "overload pressure: clamping dop {dop} to {shed} for query over '{}'",
            plan.table.name()
        );
        obs::global().counter("degrade.dop_clamped").inc();
        dop = shed;
        clamped = true;
    }
    if dop < 2 {
        return Err("dop clamped to worker-pool size");
    }
    Ok(ParallelDecision {
        dop,
        morsel_pages: morsel_pages_for(data_pages, dop),
        data_pages,
        clamped,
    })
}

/// What one worker brings back to the gather.
struct WorkerOut {
    /// Non-aggregate queries: projected tuples per claimed morsel.
    rows: Vec<(u32, Vec<Tuple>)>,
    /// Aggregate queries: a partial aggregation per claimed morsel
    /// (per-morsel, not per-worker, so the gather can merge partials in
    /// morsel order and reproduce the serial group insertion order).
    aggs: Vec<(u32, GroupedAgg)>,
    stats: ExecStats,
    report: WorkerReport,
}

/// Execute an eligible SELECT with a worker team, returning the final
/// rows (identical, in content and order, to the serial executor's),
/// the merged stats, and one [`WorkerReport`] per worker.
pub(crate) fn parallel_select(
    engine: &Engine,
    plan: &BoundSelect,
    token: &CancelToken,
    dec: &ParallelDecision,
) -> Result<(Vec<Tuple>, ExecStats, Vec<WorkerReport>)> {
    let metrics = jaguar_par::metrics();
    metrics.queries.inc();
    let dispenser = MorselDispenser::new(1, plan.table.heap_pages(), dec.morsel_pages);
    let total_morsels = u64::from(dispenser.morsel_count());
    let abort = AtomicBool::new(false);
    let failed = parking_lot::Mutex::new(None::<(u32, JaguarError)>);

    let outs = run_team(dec.dop, |_worker| {
        let mut handler = EngineCallbacks { engine };
        let pool = engine.worker_pool();
        let mut ctx = ExecCtx::for_udfs(&plan.udfs, &mut handler, pool.as_ref())
            .inspect_err(|_| abort.store(true, Ordering::Relaxed))?;
        ctx.attach_cancel(token);
        ctx.set_udf_batch_size(engine.catalog().config().udf_batch_size);
        crate::optimize::install_opt(plan, engine, &mut ctx);
        let started = Instant::now();
        let mut at = 0;
        match drain_morsels(plan, &dispenser, &abort, &mut ctx, &mut at) {
            Ok((rows, aggs, morsels, produced)) => {
                let stats = ctx.finish()?;
                let busy_us = started.elapsed().as_micros() as u64;
                metrics.worker_busy.observe_us(busy_us);
                Ok(WorkerOut {
                    rows,
                    aggs,
                    stats,
                    report: WorkerReport {
                        rows: produced,
                        morsels,
                        busy_us,
                    },
                })
            }
            Err(e) => {
                // Fellow workers stop at their next morsel boundary;
                // teardown failures are secondary.
                abort.store(true, Ordering::Relaxed);
                let _ = ctx.finish();
                let mut first = failed.lock();
                if first.as_ref().is_none_or(|(morsel, _)| at < *morsel) {
                    *first = Some((at, e));
                }
                Err(JaguarError::Execution("parallel worker stopped".into()))
            }
        }
    });
    if let Some((_, first)) = failed.into_inner() {
        return Err(first);
    }

    let mut workers = Vec::with_capacity(outs.len());
    for r in outs {
        workers.push(r?);
    }

    // Gather: merge stats and reports, account steal imbalance.
    let mut stats = ExecStats::default();
    let mut reports = Vec::with_capacity(workers.len());
    let fair_share = total_morsels / dec.dop as u64;
    let mut rows_parts: Vec<(u32, Vec<Tuple>)> = Vec::new();
    let mut agg_parts: Vec<(u32, GroupedAgg)> = Vec::new();
    for w in workers {
        merge_stats(&mut stats, &w.stats);
        metrics
            .steals
            .add(w.report.morsels.saturating_sub(fair_share));
        rows_parts.extend(w.rows);
        agg_parts.extend(w.aggs);
        reports.push(w.report);
    }

    // Post-gather operators run on the main thread. HAVING/ORDER BY
    // expressions are UDF-free by construction (the output binder
    // rejects UDFs), so an empty-UDF context suffices.
    let mut handler = EngineCallbacks { engine };
    let mut ctx = ExecCtx::for_udfs(&[], &mut handler, None)?;
    ctx.attach_cancel(token);

    let mut rows: Vec<Tuple> = match &plan.aggregate {
        Some(ap) => {
            // Merge partials in morsel order: group insertion order then
            // matches the serial scan's first-seen order exactly.
            agg_parts.sort_by_key(|(idx, _)| *idx);
            let mut merged = GroupedAgg::new();
            for (_, part) in agg_parts {
                merged.merge(ap, part)?;
            }
            let mut out = Vec::new();
            for group_row in merged.finish(ap) {
                ctx.tick()?;
                let mut vals = Vec::with_capacity(plan.projections.len());
                for e in &plan.projections {
                    vals.push(eval(e, &group_row, &mut ctx)?);
                }
                ctx.stats.rows_emitted += 1;
                out.push(Tuple::new(vals));
            }
            out
        }
        None => {
            rows_parts.sort_by_key(|(idx, _)| *idx);
            rows_parts.into_iter().flat_map(|(_, r)| r).collect()
        }
    };

    if let Some(h) = &plan.having {
        let mut kept = Vec::with_capacity(rows.len());
        for t in rows {
            ctx.tick()?;
            if matches!(eval(h, &t, &mut ctx)?, Value::Bool(true)) {
                kept.push(t);
            }
        }
        rows = kept;
    }

    if !plan.order_by.is_empty() {
        // The serial Sort operator's sort, so ties preserve the (already
        // serial-identical) gather order.
        rows = sort_rows(rows, &plan.order_by, &mut ctx)?;
    }

    if let Some(n) = plan.limit {
        rows.truncate(n as usize);
    }

    merge_stats(&mut stats, &ctx.finish()?);
    Ok((rows, stats, reports))
}

/// One worker's fragment: claim morsels until the dispenser runs dry or
/// the team aborts, running scan → filter → project / partial-aggregate
/// per morsel. Returns per-morsel results plus morsel/row counts; `at` is
/// the index of the morsel it is on, for the caller of one that fails.
#[allow(clippy::type_complexity)]
fn drain_morsels(
    plan: &BoundSelect,
    dispenser: &MorselDispenser,
    abort: &AtomicBool,
    ctx: &mut ExecCtx<'_>,
    at: &mut u32,
) -> Result<(Vec<(u32, Vec<Tuple>)>, Vec<(u32, GroupedAgg)>, u64, u64)> {
    let mut rows: Vec<(u32, Vec<Tuple>)> = Vec::new();
    let mut aggs: Vec<(u32, GroupedAgg)> = Vec::new();
    let mut morsels = 0u64;
    let mut produced = 0u64;
    // Batched UDF projection composes with morsels: survivors accumulate
    // into one crossing per `batch_size` rows, and a morsel boundary
    // always flushes (morsel-index gather order must not interleave).
    let batch_spec = if plan.aggregate.is_none() && ctx.batch_size() > 1 {
        plan_batch_spec(plan)
    } else {
        None
    };
    while let Some(m) = dispenser.next() {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        *at = m.index;
        morsels += 1;
        let mut out_rows = Vec::new();
        let mut agg = plan.aggregate.as_ref().map(|_| GroupedAgg::new());
        let mut batcher = batch_spec.map(|s| ProjectionBatcher::new(s, ctx.batch_size()));
        // A morsel is the statement's row source over a page range.
        let pages = m.start_page..m.end_page;
        let mut morsel = RowSource::open(
            &plan.table,
            &plan.access,
            &plan.scan_cols,
            pages,
            &plan.pushed,
        )?;
        morsel.for_each(ctx, |_, tuple, ctx| {
            if !matches_all(&plan.predicates, tuple, ctx)? {
                return Ok(());
            }
            produced += 1;
            match (&plan.aggregate, &mut agg) {
                (Some(ap), Some(g)) => g.update(ap, tuple, ctx)?,
                _ => match &mut batcher {
                    Some(b) => {
                        b.push(&plan.projections, tuple, ctx)?;
                        if b.is_full() {
                            let flushed = b.flush(ctx)?;
                            ctx.stats.rows_emitted += flushed.len() as u64;
                            out_rows.extend(flushed);
                        }
                    }
                    None => {
                        let mut vals = Vec::with_capacity(plan.projections.len());
                        for e in &plan.projections {
                            vals.push(eval(e, tuple, ctx)?);
                        }
                        ctx.stats.rows_emitted += 1;
                        out_rows.push(Tuple::new(vals));
                    }
                },
            }
            Ok(())
        })?;
        if let Some(b) = &mut batcher {
            let flushed = b.flush(ctx)?;
            ctx.stats.rows_emitted += flushed.len() as u64;
            out_rows.extend(flushed);
        }
        match agg {
            Some(g) => aggs.push((m.index, g)),
            None => rows.push((m.index, out_rows)),
        }
    }
    Ok((rows, aggs, morsels, produced))
}

fn merge_stats(into: &mut ExecStats, from: &ExecStats) {
    into.rows_scanned += from.rows_scanned;
    into.rows_emitted += from.rows_emitted;
    into.udf_invocations += from.udf_invocations;
    into.udf_callbacks += from.udf_callbacks;
    into.vm_instructions += from.vm_instructions;
    into.vm_bytes_allocated += from.vm_bytes_allocated;
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::config::Config;

    fn engine_with_rows(dop: usize, rows: usize) -> Engine {
        let e = Engine::in_memory(Config::default().with_dop(dop));
        e.execute("CREATE TABLE t (id INT, tag VARCHAR)").unwrap();
        let t = e.catalog().table("t").unwrap();
        for i in 0..rows {
            t.insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Str(format!("row-{i}-padding-to-make-pages-fill-up")),
            ]))
            .unwrap();
        }
        e
    }

    fn decision(e: &Engine, sql: &str) -> Option<ParallelDecision> {
        let crate::ast::Statement::Select(s) = crate::parser::parse(sql).unwrap() else {
            panic!("not a select");
        };
        let plan = crate::plan::bind_select(&s, e.catalog(), None).unwrap();
        plan_parallel(e, &plan).ok()
    }

    #[test]
    fn planner_gates_on_dop_size_and_shape() {
        let big = engine_with_rows(4, 2000);
        let d = decision(&big, "SELECT id FROM t").expect("big scan parallelizes");
        assert_eq!(d.dop, 4);
        assert!(d.data_pages >= MIN_DATA_PAGES);
        assert!(!d.clamped);

        // dop=1 disables parallelism outright.
        let serial = engine_with_rows(1, 2000);
        assert!(decision(&serial, "SELECT id FROM t").is_none());

        // Tiny tables stay serial.
        let tiny = engine_with_rows(4, 10);
        assert!(decision(&tiny, "SELECT id FROM t").is_none());

        // Bare LIMIT stays serial (early exit), but LIMIT after ORDER BY
        // parallelizes (the sort needs every row anyway).
        assert!(decision(&big, "SELECT id FROM t LIMIT 5").is_none());
        assert!(decision(&big, "SELECT id FROM t ORDER BY id LIMIT 5").is_some());
    }

    #[test]
    fn parallel_rows_match_serial_exactly() {
        let par = engine_with_rows(4, 2000);
        let serial = engine_with_rows(1, 2000);
        for sql in [
            "SELECT id, tag FROM t WHERE id % 3 = 0",
            "SELECT id % 5 AS k, COUNT(*) AS n, SUM(id) AS s FROM t GROUP BY id % 5",
            "SELECT id FROM t WHERE id < 500 ORDER BY id DESC LIMIT 17",
        ] {
            let a = par.execute(sql).unwrap();
            let b = serial.execute(sql).unwrap();
            assert_eq!(a.rows, b.rows, "parallel vs serial differ for {sql}");
            assert_eq!(a.stats.rows_scanned, b.stats.rows_scanned);
        }
    }

    #[test]
    fn explain_renders_gather() {
        let e = engine_with_rows(4, 2000);
        let txt = e.explain("SELECT id FROM t WHERE id < 10").unwrap();
        assert!(txt.contains("Gather (dop=4)"), "{txt}");
        assert!(txt.contains("    SeqScan t [id] (2000 rows)"), "{txt}");
        // Small table: no Gather line.
        let tiny = engine_with_rows(4, 10);
        let txt = tiny.explain("SELECT id FROM t").unwrap();
        assert!(!txt.contains("Gather"), "{txt}");
    }
}

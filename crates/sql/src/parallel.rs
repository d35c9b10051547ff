//! The one runner of every statement that reads rows: a SELECT, a DELETE
//! and an UPDATE each run `fragment` over the morsels of their
//! [`BoundScan`] (`run`), and one gather step lays the outputs end to end
//! in morsel order, before a SELECT's `tail` or a DML statement's writes.
//!
//! A team of one is the calling thread over one morsel, the whole access
//! path. An eligible SELECT's heap scan is instead carved into page-range
//! morsels ([`crate::par::MorselDispenser`]) drained by a `Gather` team of
//! `Config::dop` threads, each with a full execution context of its own —
//! its own UDF instances: its own VM for sandboxed designs, its own pool
//! checkout (or spawned process) for isolated ones. Reassembled in morsel
//! order, the parallel output is byte-identical to the serial scan order.
//!
//! What parallelizes: SELECTs over full-table scans of tables with at
//! least `MIN_DATA_PAGES` data pages, with or without UDFs, aggregation,
//! HAVING, ORDER BY, or LIMIT-after-ORDER-BY. What runs as a team of one:
//! every DELETE and UPDATE, index and empty scans, tiny tables, bare-LIMIT
//! queries (where the fragment stops the scan early instead), a FLOAT
//! `SUM`/`AVG` (its per-morsel partial sums would round otherwise), and
//! everything when `dop = 1`.
//!
//! Cancellation invariant: the statement's [`CancelToken`] is attached
//! to every worker's context, so a deadline or cancel mid-`Gather`
//! stops all threads within a few tuples, and the first worker error
//! aborts the rest of the team via a shared flag. A worker reads the flag
//! before it claims a morsel, never after, so every claimed morsel runs to
//! its end or its first error, and the statement fails with the error met
//! in the lowest morsel: the one the serial scan would have met first.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::par::{morsel_pages_for, run_team, Morsel, MorselDispenser};
use jaguar_common::cancel::CancelToken;
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::{DataType, Tuple};

use crate::engine::{Engine, EngineCallbacks};
use crate::exec::{fragment, tail, ExecCtx, ExecStats, Profile, RowSource, SelectSink, Sink};
use crate::plan::{AccessPath, AggFunc, AggSpec, BoundScan, BoundSelect};

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
#[derive(Default)]
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
/// query is not a bare LIMIT (no aggregate, no ORDER BY), where a team
/// of one's fragment stops early instead of scanning everything (or,
/// for `LIMIT 0`, reads nothing). The dop
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
    let scan = &plan.scan;
    if !matches!(scan.access, AccessPath::FullScan) {
        return Err("not a full scan");
    }
    if plan.limit == Some(0) {
        return Err("LIMIT 0 reads nothing");
    }
    if plan.limit.is_some() && plan.aggregate.is_none() && plan.order_by.is_empty() {
        return Err("bare LIMIT short-circuits serially");
    }
    // Floating-point addition is not associative: keep the serial sum.
    let sums = |a: &AggSpec| matches!(a.func, AggFunc::Sum | AggFunc::Avg);
    let adds_floats = |a: &AggSpec| a.arg_ty == Some(DataType::Float) && sums(a);
    if (plan.aggregate.iter()).any(|agg| agg.aggs.iter().any(adds_floats)) {
        return Err("FLOAT SUM/AVG adds in scan order");
    }
    let data_pages = scan.table.heap_pages().saturating_sub(1);
    if data_pages < MIN_DATA_PAGES {
        return Err("table too small");
    }
    // At least 2: `MIN_DATA_PAGES / 2` is.
    let mut dop = config_dop.min((data_pages / 2) as usize);
    let mut clamped = false;
    // In-engine UDFs never draw a pool checkout, so they do not count
    // toward the clamp.
    if (scan.udfs.iter()).any(|u| !u.in_engine && u.def.imp.design().needs_worker()) {
        if let Some(pool) = engine.worker_pool() {
            let cap = pool.capacity().max(1);
            if dop > cap {
                obs::warn!(
                    target: "jaguar-par",
                    "clamping dop {dop} to worker-pool size {cap} for query over '{}'",
                    scan.table.name()
                );
                crate::par::metrics().dop_clamped.inc();
                dop = cap;
                clamped = true;
            }
        }
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

/// Who reads a statement's rows.
pub(crate) enum Team<'d> {
    /// The calling thread, over the whole access path — or nothing, unless
    /// `reads` — filling its per-stage profile if `analyze`.
    One { reads: bool, analyze: bool },
    /// `dop` threads over the scan's page-range morsels.
    Gather(&'d ParallelDecision),
}

/// What a statement's fragments produced (the gathered sink `out`; a
/// SELECT's rows), and how.
pub(crate) struct Ran<T> {
    pub(crate) out: T,
    pub(crate) stats: ExecStats,
    /// One per worker of a `Gather` team; empty for a team of one.
    pub(crate) reports: Vec<WorkerReport>,
    /// The per-stage numbers of an analyzed team of one.
    pub(crate) profile: Profile,
}

/// Read `scan`'s rows, the one way every statement does: each worker of
/// `team` runs `fragment` over each morsel it claims into a sink `sink`
/// makes (given the context's rows per UDF crossing) and takes that
/// morsel's output; then one gather step lays the outputs end to end in
/// morsel order. A team of one runs on the calling thread: it spawns no
/// thread, resolves no `par.*` metric, and its one output is moved whole
/// into the gathered sink, not copied.
pub(crate) fn run<S: Sink>(
    engine: &Engine,
    scan: &BoundScan,
    team: Team<'_>,
    token: &CancelToken,
    sink: impl Fn(usize) -> S + Sync,
) -> Result<Ran<S>> {
    // A `Gather` team's dispenser, and its metrics and fair share.
    let (dispenser, gather) = match team {
        Team::Gather(dec) => {
            let metrics = crate::par::metrics();
            metrics.queries.inc();
            let pages = scan.table.heap_pages();
            let dispenser = MorselDispenser::new(1, pages, dec.morsel_pages);
            let fair_share = u64::from(dispenser.morsel_count()) / dec.dop as u64;
            (Some(dispenser), Some((metrics, fair_share)))
        }
        Team::One { .. } => (None, None),
    };
    let whole = AtomicBool::new(matches!(team, Team::One { reads: true, .. }));
    let next = |abort: &AtomicBool| match &dispenser {
        Some(dispenser) => claim(dispenser, abort),
        None => (whole.swap(false, Ordering::Relaxed)).then_some(Morsel {
            index: 0,
            start_page: 1,
            end_page: u32::MAX,
        }),
    };
    let abort = AtomicBool::new(false);
    let failed = parking_lot::Mutex::new(None::<(u32, JaguarError)>);

    let work = |_worker| {
        let mut handler = EngineCallbacks { engine };
        let mut ctx = fragment_ctx(engine, scan, &mut handler, token)
            .inspect_err(|_| abort.store(true, Ordering::Relaxed))?;
        if matches!(team, Team::One { analyze: true, .. }) {
            ctx.profile.start();
        }
        let started = Instant::now();
        let mut sink = sink(ctx.batch_size());
        let (mut parts, mut report, mut at) = (Vec::new(), WorkerReport::default(), 0);
        let mut drain = || -> Result<()> {
            while let Some(m) = next(&abort) {
                (at, report.morsels) = (m.index, report.morsels + 1);
                let mut rows = RowSource::open(scan, m.start_page..m.end_page)?;
                report.rows += fragment(&mut rows, &scan.predicates, &mut sink, &mut ctx)?;
                parts.push((m.index, sink.take()));
            }
            Ok(())
        };
        if let Err(e) = drain() {
            // Fellow workers stop at their next morsel boundary;
            // teardown failures are secondary.
            abort.store(true, Ordering::Relaxed);
            let _ = ctx.finish();
            let mut first = failed.lock();
            if first.as_ref().is_none_or(|(morsel, _)| at < *morsel) {
                *first = Some((at, e));
            }
            return Err(JaguarError::Execution("parallel worker stopped".into()));
        }
        report.busy_us = started.elapsed().as_micros() as u64;
        if let Some((metrics, _)) = &gather {
            metrics.worker_busy.observe_us(report.busy_us);
        }
        let profile = std::mem::take(&mut ctx.profile);
        Ok((parts, ctx.finish()?, report, profile))
    };
    let (one, many) = match team {
        Team::One { .. } => (Some(work(0)), Vec::new()),
        Team::Gather(dec) => (None, run_team(dec.dop, work)),
    };
    if let Some((_, first)) = failed.into_inner() {
        return Err(first);
    }

    // Gather: merge stats and reports, account steal imbalance, and lay the
    // morsels' outputs end to end in scan order, the first one the base.
    let (mut stats, mut reports, mut parts) = (ExecStats::default(), Vec::new(), Vec::new());
    let mut profile = Profile::default();
    for out in one.into_iter().chain(many) {
        let (morsels, worker_stats, report, worker_profile) = out?;
        stats.merge(&worker_stats);
        if let Some((metrics, fair_share)) = &gather {
            metrics
                .steals
                .add(report.morsels.saturating_sub(*fair_share));
            reports.push(report);
        }
        // A team of one's list is kept, not copied into a new one.
        match parts.is_empty() {
            true => parts = morsels,
            false => parts.extend(morsels),
        }
        profile = worker_profile;
    }
    parts.sort_by_key(|(index, _)| *index);
    let mut parts = parts.into_iter().map(|(_, part)| part);
    let mut out = parts.next().unwrap_or_else(|| sink(1));
    for part in parts {
        out.absorb(part)?;
    }
    Ok(Ran {
        out,
        stats,
        reports,
        profile,
    })
}

/// Execute a bound SELECT — with a `Gather` team when `par` says so, else
/// as a team of one — returning rows identical, in content and order,
/// either way, and run its tail on the calling thread, in a UDF-free
/// context of its own. `analyze` has a team of one fill its profile.
pub(crate) fn select(
    engine: &Engine,
    plan: &BoundSelect,
    token: &CancelToken,
    par: Option<&ParallelDecision>,
    analyze: bool,
) -> Result<Ran<Vec<Tuple>>> {
    let team = match par {
        Some(dec) => Team::Gather(dec),
        // LIMIT 0 reads nothing.
        None => Team::One {
            reads: plan.limit != Some(0),
            analyze,
        },
    };
    let sink = |batch| SelectSink::new(plan, batch);
    let Ran {
        out,
        mut stats,
        reports,
        profile,
    } = run(engine, &plan.scan, team, token, sink)?;
    let mut handler = EngineCallbacks { engine };
    let mut ctx = ExecCtx::for_udfs(&[], &mut handler, None)?;
    ctx.attach_cancel(token);
    ctx.profile = profile;
    let out = tail(plan, out, &mut ctx)?;
    let profile = std::mem::take(&mut ctx.profile);
    stats.merge(&ctx.finish()?);
    Ok(Ran {
        out,
        stats,
        reports,
        profile,
    })
}

/// The next morsel for a worker, or `None` once the range is spent or the
/// team has aborted. `abort` is read before the claim, never after it, so
/// every claimed morsel runs to its end or its first error: a morsel below
/// a failing one was claimed before it, and still runs.
fn claim(dispenser: &MorselDispenser, abort: &AtomicBool) -> Option<Morsel> {
    if abort.load(Ordering::Relaxed) {
        return None;
    }
    dispenser.next()
}

/// A fragment's context: the scan's UDFs (checked out of the engine's
/// worker pool, if any), the statement's token, the configured UDF batch
/// size and the optimizer's memo cache and selectivity probe.
fn fragment_ctx<'a>(
    engine: &Engine,
    scan: &BoundScan,
    handler: &'a mut EngineCallbacks<'_>,
    token: &CancelToken,
) -> Result<ExecCtx<'a>> {
    let mut ctx = ExecCtx::for_udfs(&scan.udfs, handler, engine.worker_pool().as_ref())?;
    ctx.attach_cancel(token);
    ctx.set_udf_batch_size(engine.catalog().config().udf_batch_size);
    crate::optimize::install_opt(scan, engine, &mut ctx);
    Ok(ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_common::config::Config;
    use jaguar_common::Value;

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
    fn an_aborted_team_claims_no_morsel() {
        let dispenser = MorselDispenser::new(1, 9, 2);
        let abort = AtomicBool::new(true);
        assert_eq!(claim(&dispenser, &abort), None);
        abort.store(false, Ordering::Relaxed);
        let first = claim(&dispenser, &abort).expect("the range is not spent");
        assert_eq!(first.index, 0, "the aborted claim took a morsel");
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

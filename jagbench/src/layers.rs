//! The traced run's per-layer numbers, all taken from outside the program.
//!
//! Two sources:
//!
//! * **counter deltas** over the traced window — the obs registry and the
//!   table's buffer-pool statistics, read before and after;
//! * **the ladder** — after the window, sample statements of the workload
//!   are pushed through successively deeper public entry points
//!   (`Client::execute` → `Database::execute` → `Database::explain` →
//!   `ScalarUdf::invoke_batch` → `Interpreter::invoke_resolved`,
//!   `Table::scan`), each call inside a span. A layer's self time is its
//!   rung's median minus the rungs below it.
//!
//! Every per-layer metric is reported on every workload; one the workload
//! never enters reads 0.

use std::sync::Arc;
use std::time::Instant;

use jaguar_core::{
    ByteArray, Config, Database, MetricsSnapshot, ScalarUdf, Tuple, UdfDef, Value, ValueBatch,
    WorkerPool,
};
use jaguar_udf::generic::{self, GenericParams, IdentityCallbacks};
use jaguar_vm::{Arena, ExecMode, Interpreter, NoHost, VmValue};

use crate::episode::{EpisodeArgs, Metric, Window};
use crate::gen::{Stmt, ACCT_TAG_BYTES};
use crate::stats::median;
use crate::trace::{self, Rung, Span, SpanId, Tracer};
use crate::workload::{default_limits, generic_def, udf_results, Env, Workload};

/// Everything the program counts, at one instant.
pub struct Counters {
    obs: MetricsSnapshot,
    /// Buffer pool of the workload's table.
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Counters {
    pub fn read(env: &Env) -> Counters {
        let pool = env
            .db
            .catalog()
            .table(env.workload.table())
            .map(|t| t.pool_stats())
            .unwrap_or_default();
        Counters {
            obs: env.db.metrics(),
            hits: pool.hits,
            misses: pool.misses,
            evictions: pool.evictions,
        }
    }
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Ladder steps whose deeper rung measured slower than the rung above.
    pub unresolved: Vec<String>,
    pub spans: Vec<Span>,
}

/// Bytes of one `acct` row: two INTs and the tag.
const ACCT_ROW_BYTES: usize = 8 + 8 + ACCT_TAG_BYTES;

/// Time one rung may take: the sample size is this over the workload's
/// own median statement latency, within [`MIN_SAMPLES`, `MAX_SAMPLES`].
const RUNG_BUDGET_US: f64 = 1_000_000.0;
const MIN_SAMPLES: usize = 5;
const MAX_SAMPLES: usize = 200;
/// Round trips timed for `net.ping_us` and `pool.checkout_us`, and
/// statements of each kind per side of the WAL rungs.
const SMALL_OPS: usize = 200;

struct Ladder {
    tracer: Tracer,
    root: SpanId,
}

impl Ladder {
    /// Run `f` in a span under the ladder's root.
    fn rung<T>(&mut self, name: &'static str, stmt_id: u64, f: impl FnOnce() -> T) -> T {
        self.tracer.scope(name, Some(self.root), stmt_id, f)
    }

    /// Median duration (µs) of the spans called `name`; 0 when the rung
    /// was never run.
    fn median_us(&self, name: &str) -> f64 {
        median(&trace::durations_ns(self.tracer.spans(), name)).unwrap_or(0.0) / 1e3
    }
}

fn verified(stmt: &Stmt, rows: &[Tuple], affected: u64, rung: &str) -> Result<(), String> {
    stmt.expect
        .verify(rows, affected)
        .map_err(|e| format!("ladder {rung}: {}: {e}", stmt.sql))
}

fn err(e: jaguar_core::JaguarError) -> String {
    e.to_string()
}

/// `Database::execute` over the samples, one span each.
fn embedded_rung(
    ladder: &mut Ladder,
    name: &'static str,
    db: &Database,
    samples: &[Stmt],
) -> Result<(), String> {
    for (i, stmt) in samples.iter().enumerate() {
        let r = ladder
            .rung(name, i as u64, || db.execute(&stmt.sql))
            .map_err(err)?;
        verified(stmt, &r.rows, r.affected, name)?;
    }
    Ok(())
}

/// Every rung that runs the generic UDF must reproduce `generic_native`.
fn same_results(
    got: impl IntoIterator<Item = Option<i64>>,
    expect: &[i64],
    rung: &str,
) -> Result<(), String> {
    if got.into_iter().eq(expect.iter().map(|e| Some(*e))) {
        Ok(())
    } else {
        Err(format!("ladder {rung}: results differ from generic_native"))
    }
}

fn ints(values: &[Value]) -> impl Iterator<Item = Option<i64>> + '_ {
    values.iter().map(|v| v.as_int().ok())
}

/// The argument tuples of the generic-UDF query, as the executor would
/// hand them to the UDF.
fn udf_args(rel: &[Vec<u8>], params: GenericParams) -> Vec<Vec<Value>> {
    rel.iter()
        .map(|data| params.args(ByteArray::new(data.clone())))
        .collect()
}

/// One query's worth of UDF work the way the executor does it: instantiate
/// (a pool checkout for the isolated designs), cross once per
/// `udf_batch_size` rows, finish.
fn batched_query(
    def: &UdfDef,
    pool: Option<&Arc<WorkerPool>>,
    args: &[Vec<Value>],
    batch_rows: usize,
) -> Result<Vec<Value>, String> {
    let mut udf = def.instantiate_with(pool).map_err(err)?;
    let mut out = Vec::with_capacity(args.len());
    for chunk in args.chunks(batch_rows) {
        let mut batch = ValueBatch::with_capacity(chunk[0].len(), chunk.len());
        for row in chunk {
            batch.push_row(row).map_err(err)?;
        }
        out.extend(
            udf.invoke_batch(&batch, &mut IdentityCallbacks)
                .map_err(|e| format!("invoke_batch: {e:?}"))?,
        );
    }
    udf.finish().map_err(err)?;
    Ok(out)
}

/// Per-tuple `invoke` over every argument tuple: nanoseconds per
/// invocation, instantiation excluded (Table 1's per-invocation cost).
fn invoke_ns(
    ladder: &mut Ladder,
    name: &'static str,
    def: &UdfDef,
    pool: Option<&Arc<WorkerPool>>,
    args: &[Vec<Value>],
    expect: &[i64],
) -> Result<f64, String> {
    let mut udf: Box<dyn ScalarUdf> = def.instantiate_with(pool).map_err(err)?;
    let got = ladder.rung(name, 0, || {
        args.iter()
            .map(|a| udf.invoke(a, &mut IdentityCallbacks))
            .collect::<Result<Vec<Value>, _>>()
    });
    udf.finish().map_err(err)?;
    same_results(ints(&got.map_err(err)?), expect, name)?;
    Ok(ladder.median_us(name) * 1e3 / args.len() as f64)
}

/// The generic module's `main` run directly in the VM over every argument
/// tuple, `runs` times — no SQL values, no batch: per tuple the arena is
/// reset and the byte array copied in, as every VM caller must. Returns
/// the instructions one pass over the tuples executes.
fn vm_rung(
    ladder: &mut Ladder,
    rel: &[Vec<u8>],
    params: GenericParams,
    expect: &[i64],
    runs: usize,
) -> Result<u64, String> {
    let limits = default_limits();
    let module = Arc::new(generic::generic_module().verify().map_err(err)?);
    let interp = Interpreter::new(module, limits, ExecMode::Jit)
        .with_tier_up(Some(jaguar_vm::DEFAULT_TIER_UP_AFTER));
    let main = interp.resolve("main").map_err(err)?;
    let mut arena = Arena::new(limits.memory);
    let mut instructions = 0;
    for run in 0..runs {
        instructions = 0;
        let mut got = Vec::with_capacity(rel.len());
        ladder.rung("ladder.vm.run", run as u64, || -> Result<(), String> {
            for data in rel {
                arena.reset();
                let vm_args = vec![
                    VmValue::Bytes(arena.alloc_from(data).map_err(err)?),
                    VmValue::I64(params.data_indep_comps),
                    VmValue::I64(params.data_dep_comps),
                    VmValue::I64(params.callbacks),
                ];
                let (ret, usage) = interp
                    .invoke_resolved(main, "main", vm_args, &mut arena, &mut NoHost)
                    .map_err(err)?;
                instructions += usage.instructions;
                got.push(ret.and_then(|v| v.as_i64().ok()));
            }
            Ok(())
        })?;
        same_results(got, expect, "vm.run")?;
    }
    Ok(instructions)
}

/// Direct `Table::scan()` of the workload's table, `samples` times.
fn scan_rung(ladder: &mut Ladder, env: &Env, samples: usize) -> Result<(), String> {
    let table = env.db.catalog().table(env.workload.table()).map_err(err)?;
    for i in 0..samples {
        let rows = ladder.rung("ladder.storage.scan", i as u64, || {
            table.scan().try_fold(0u64, |n, item| item.map(|_| n + 1))
        });
        let rows = rows.map_err(err)?;
        if rows != table.row_count() {
            return Err(format!(
                "ladder storage.scan: {rows} rows, table has {}",
                table.row_count()
            ));
        }
    }
    Ok(())
}

/// `n` single-row INSERTs, then an UPDATE of each inserted row, through
/// `Database::execute`, one span per statement. Keys are above anything
/// the clients use. An INSERT touches the pages it writes; an UPDATE (like
/// a DELETE) first scans the whole table for its row.
fn dml_rungs(
    ladder: &mut Ladder,
    insert: &'static str,
    update: &'static str,
    db: &Database,
    n: usize,
) -> Result<(), String> {
    let key = |i: usize| 900_000_000 + i;
    for (name, sql_for) in [
        (
            insert,
            &(|i: usize| {
                format!(
                    "INSERT INTO acct VALUES ({}, {i}, X'{}')",
                    key(i),
                    crate::gen::hex(&[i as u8; ACCT_TAG_BYTES])
                )
            }) as &dyn Fn(usize) -> String,
        ),
        (update, &|i: usize| {
            format!("UPDATE acct SET bal = {} WHERE id = {}", i + 1, key(i))
        }),
    ] {
        for i in 0..n {
            let sql = sql_for(i);
            let r = ladder
                .rung(name, i as u64, || db.execute(&sql))
                .map_err(err)?;
            if r.affected != 1 {
                return Err(format!("ladder {name}: {sql}: affected {}", r.affected));
            }
        }
    }
    Ok(())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Read the counter deltas, climb the ladder, and tear the environment
/// down.
pub fn measure(
    mut env: Env,
    window: &Window,
    before: &Counters,
    after: &Counters,
    args: &EpisodeArgs,
    epoch: Instant,
) -> Result<Traced, String> {
    let workload = env.workload;
    let sizes = args.sizes();
    let delta = |name: &str| {
        after
            .obs
            .counter(name)
            .saturating_sub(before.obs.counter(name)) as f64
    };
    let stmts = window.attempted as f64;
    let slug = match workload {
        Workload::UdfIsolated => "ijsm",
        _ => "jsm",
    };

    let mut tracer = Tracer::new(epoch);
    let root = tracer.begin("ladder", None, 0);
    let mut ladder = Ladder { tracer, root };
    let mut unresolved = Vec::new();
    // Note a ladder step; returns the difference as measured.
    let mut step = |name: &str, rung: Rung| {
        if !rung.is_resolved() {
            unresolved.push(name.to_string());
        }
        rung.raw()
    };

    // ---- the SQL rungs, on the serving database -----------------------
    let read_p50 = median(&window.read_us).ok_or("no read statement completed")?;
    let n = ((RUNG_BUDGET_US / read_p50) as usize).clamp(MIN_SAMPLES, MAX_SAMPLES);
    let (client, stream) = &mut env.clients[0];
    let samples: Vec<Stmt> = (0..n).map(|_| stream.next_read()).collect();
    // Statement by statement, so that the rungs of one statement run back
    // to back and their differences can be taken pairwise.
    for (i, stmt) in samples.iter().enumerate() {
        let id = i as u64;
        let r = ladder
            .rung("ladder.net.execute", id, || client.execute(&stmt.sql))
            .map_err(err)?;
        verified(stmt, &r.rows, r.affected, "net.execute")?;
        let r = ladder
            .rung("ladder.sql.execute", id, || env.db.execute(&stmt.sql))
            .map_err(err)?;
        verified(stmt, &r.rows, r.affected, "sql.execute")?;
        ladder
            .rung("ladder.sql.plan", id, || env.db.explain(&stmt.sql))
            .map_err(err)?;
    }
    for i in 0..SMALL_OPS {
        ladder
            .rung("ladder.net.ping", i as u64, || client.ping())
            .map_err(err)?;
    }
    // The wire's share is the median over statements of the paired
    // difference: both calls ran the same statement moments apart, so
    // drift and per-statement cost cancel.
    let over_wire = trace::durations_ns(ladder.tracer.spans(), "ladder.net.execute");
    let embedded = trace::durations_ns(ladder.tracer.spans(), "ladder.sql.execute");
    let paired: Vec<f64> = over_wire
        .iter()
        .zip(&embedded)
        .map(|(w, e)| (w - e) / 1e3)
        .collect();
    let net_self = median(&paired).expect("at least MIN_SAMPLES statements");
    let sql_execute = ladder.median_us("ladder.sql.execute");
    let sql_plan = ladder.median_us("ladder.sql.plan");

    // The same statements with `dop = 1`: the serial time the deeper rungs
    // add up to, and the base of `par.speedup`. Only needed when the
    // window ran a parallel plan at all.
    let sql_serial = if delta("par.queries") > 0.0 {
        let twin = Env::setup_with(
            workload,
            Config {
                dop: 1,
                ..workload.config()
            },
            env.dir().is_some(),
            args.seed,
            sizes,
        )
        .map_err(err)?;
        embedded_rung(&mut ladder, "ladder.sql.execute_dop1", &twin.db, &samples)?;
        twin.teardown().map_err(err)?;
        ladder.median_us("ladder.sql.execute_dop1")
    } else {
        sql_execute
    };

    // ---- storage: what one full scan of the table costs ---------------
    scan_rung(&mut ladder, &env, n.min(20))?;
    let scan_us = ladder.median_us("ladder.storage.scan");
    // Every statement of these three workloads scans its whole table; an
    // `oltp_mix` read goes through the index instead (its DML does scan).
    let scan_in_stmt = if workload == Workload::OltpMix {
        0.0
    } else {
        scan_us
    };

    // ---- udf / vm / ipc / pool ----------------------------------------
    let pool = env.db.worker_pool();
    let mut udf_total = 0.0;
    let mut udf_self = 0.0;
    let mut vm_self = 0.0;
    let mut ipc_self = 0.0;
    let mut invoke = [0.0; 4];
    let mut crossing = [0.0; 2];
    let mut vm_ns_per_instr = 0.0;
    let mut vm_instr_per_invoke = 0.0;
    if let Some(params) = workload.udf_params() {
        let call_args = udf_args(&env.rel, params);
        let expect = udf_results(&env.rel, params).map_err(err)?;
        // The executor batches a UDF when the window shows batched
        // crossings for this design; otherwise it crosses per tuple.
        let batch_rows = if delta(&format!("udf.batch.crossings.{slug}")) > 0.0 {
            workload.config().udf_batch_size
        } else {
            1
        };
        let queries = n.min(20);
        let def = generic_def(workload);
        for i in 0..queries {
            let got = ladder.rung("ladder.udf.query", i as u64, || {
                batched_query(&def, pool.as_ref(), &call_args, batch_rows)
            })?;
            same_results(ints(&got), &expect, "udf.query")?;
        }
        udf_total = ladder.median_us("ladder.udf.query");
        // In-process twin of the same marshalling, to split the crossing
        // (ipc + pool) from the marshalling (udf) on the isolated design.
        let in_process = if workload == Workload::UdfIsolated {
            let def = generic_def(Workload::UdfSandbox);
            for i in 0..queries {
                let got = ladder.rung("ladder.udf.query_in_process", i as u64, || {
                    batched_query(&def, None, &call_args, batch_rows)
                })?;
                same_results(ints(&got), &expect, "udf.query_in_process")?;
            }
            let t = ladder.median_us("ladder.udf.query_in_process");
            ipc_self = step("ipc.self_us", Rung::subtract(udf_total, t));
            t
        } else {
            udf_total
        };
        let instructions = vm_rung(&mut ladder, &env.rel, params, &expect, queries)?;
        vm_self = ladder.median_us("ladder.vm.run");
        udf_self = step("udf.self_us", Rung::subtract(in_process, vm_self));
        vm_ns_per_instr = ratio(vm_self * 1e3, instructions as f64);
        vm_instr_per_invoke = instructions as f64 / call_args.len() as f64;

        // Table 1, live: per-tuple invocation under all four designs.
        let designs: [(&'static str, UdfDef); 4] = [
            ("ladder.udf.invoke.cpp", generic::def_native()),
            ("ladder.udf.invoke.icpp", generic::def_isolated()),
            (
                "ladder.udf.invoke.jsm",
                generic::def_vm(true, default_limits()),
            ),
            (
                "ladder.udf.invoke.ijsm",
                generic::def_isolated_vm(true, default_limits()),
            ),
        ];
        for (slot, (name, def)) in designs.iter().enumerate() {
            invoke[slot] = invoke_ns(&mut ladder, name, def, pool.as_ref(), &call_args, &expect)?;
        }
        crossing[0] = step("ipc.crossing_ns", Rung::subtract(invoke[3], invoke[2]));
        crossing[1] = step(
            "ipc.crossing_native_ns",
            Rung::subtract(invoke[1], invoke[0]),
        );
    }
    if let Some(pool) = &pool {
        for i in 0..SMALL_OPS {
            ladder
                .rung("ladder.pool.checkout", i as u64, || {
                    pool.checkout().map(drop)
                })
                .map_err(err)?;
        }
    }

    // ---- wal: the same DML with and without a log --------------------
    let mut wal_commit_self = 0.0;
    let mut wal_scan_commit_self = 0.0;
    if workload == Workload::OltpMix {
        dml_rungs(
            &mut ladder,
            "ladder.wal.insert_on_disk",
            "ladder.wal.update_on_disk",
            &env.db,
            SMALL_OPS,
        )?;
        let twin =
            Env::setup_with(workload, workload.config(), false, args.seed, sizes).map_err(err)?;
        dml_rungs(
            &mut ladder,
            "ladder.wal.insert_in_memory",
            "ladder.wal.update_in_memory",
            &twin.db,
            SMALL_OPS,
        )?;
        twin.teardown().map_err(err)?;
        wal_commit_self = step(
            "wal.commit_self_us",
            Rung::subtract(
                ladder.median_us("ladder.wal.insert_on_disk"),
                ladder.median_us("ladder.wal.insert_in_memory"),
            ),
        );
        wal_scan_commit_self = step(
            "wal.scan_dml_commit_self_us",
            Rung::subtract(
                ladder.median_us("ladder.wal.update_on_disk"),
                ladder.median_us("ladder.wal.update_in_memory"),
            ),
        );
    }

    let lang_compile_ms = env.lang_compile.as_secs_f64() * 1e3;
    let rows_loaded = env.rows_loaded as f64;
    env.teardown().map_err(err)?;
    ladder.tracer.end(root);

    let net_self = step("net.self_us", Rung::of(net_self));
    let exec_self = step(
        "sql.exec_self_us",
        Rung::subtract(sql_serial, sql_plan + udf_total + scan_in_stmt),
    );

    // Harness time per statement: the client's span minus its children.
    let client_self: Vec<f64> = trace::self_times_ns(&window.spans)
        .into_iter()
        .zip(&window.spans)
        .filter(|(_, s)| s.name == "client.stmt")
        .map(|(ns, _)| ns as f64 / 1e3)
        .collect();
    let verify_us =
        median(&trace::durations_ns(&window.spans, "client.verify")).unwrap_or(0.0) / 1e3;

    let udf_calls = delta(&format!("udf.invocations.{slug}"));
    let wal_commits = delta("wal.commits");
    let metrics = vec![
        Metric::new("trace.throughput_sps", window.throughput_sps, "1/s"),
        Metric::new("harness.self_us", median(&client_self).unwrap_or(0.0), "us"),
        Metric::new("harness.verify_us", verify_us, "us"),
        Metric::new("net.self_us", net_self, "us"),
        Metric::new("net.ping_us", ladder.median_us("ladder.net.ping"), "us"),
        Metric::new(
            "net.admission_queued",
            delta("net.admission.queued"),
            "count",
        ),
        Metric::new("sql.plan_us", sql_plan, "us"),
        Metric::new("sql.exec_self_us", exec_self, "us"),
        Metric::new("sql.stmt_serial_us", sql_serial, "us"),
        Metric::new("par.speedup", ratio(sql_serial, sql_execute), "x"),
        Metric::new("par.morsels", ratio(delta("par.morsels"), stmts), "1/stmt"),
        Metric::new("opt.inlined", ratio(delta("opt.inlined"), stmts), "1/stmt"),
        Metric::new(
            "opt.memo_hits",
            ratio(delta("opt.memo.hits"), stmts),
            "1/stmt",
        ),
        Metric::new(
            "opt.memo_misses",
            ratio(delta("opt.memo.misses"), stmts),
            "1/stmt",
        ),
        Metric::new(
            "udf.invocations",
            ratio(window.udf_invocations as f64, stmts),
            "1/stmt",
        ),
        Metric::new("udf.self_us", udf_self, "us"),
        Metric::new(
            "udf.batch_rows_per_crossing",
            ratio(udf_calls, delta(&format!("udf.batch.crossings.{slug}"))),
            "rows",
        ),
        Metric::new("udf.invoke_ns.cpp", invoke[0], "ns"),
        Metric::new("udf.invoke_ns.icpp", invoke[1], "ns"),
        Metric::new("udf.invoke_ns.jsm", invoke[2], "ns"),
        Metric::new("udf.invoke_ns.ijsm", invoke[3], "ns"),
        Metric::new("vm.self_us", vm_self, "us"),
        Metric::new("vm.ns_per_instr", vm_ns_per_instr, "ns"),
        Metric::new("vm.instr_per_invoke", vm_instr_per_invoke, "count"),
        Metric::new(
            "vm.tier.compiled_hits",
            ratio(delta("vm.tier.compiled_hits"), stmts),
            "1/stmt",
        ),
        Metric::new("ipc.self_us", ipc_self, "us"),
        Metric::new("ipc.crossing_ns", crossing[0], "ns"),
        Metric::new("ipc.crossing_native_ns", crossing[1], "ns"),
        Metric::new(
            "ipc.crossings",
            ratio(delta("ipc.crossings"), stmts),
            "1/stmt",
        ),
        Metric::new(
            "ipc.bytes_per_invoke",
            ratio(delta("ipc.bytes_in") + delta("ipc.bytes_out"), udf_calls),
            "B",
        ),
        Metric::new(
            "pool.checkout_us",
            ladder.median_us("ladder.pool.checkout"),
            "us",
        ),
        Metric::new("pool.spawns", delta("pool.spawns"), "count"),
        Metric::new("pool.queue_waits", delta("pool.queue_waits"), "count"),
        Metric::new("storage.scan_us", scan_us, "us"),
        Metric::new(
            "storage.scan_rows_per_s",
            ratio(rows_loaded * 1e6, scan_us),
            "1/s",
        ),
        Metric::new(
            "storage.hit_ratio",
            ratio(
                (after.hits - before.hits) as f64,
                (after.hits - before.hits + after.misses - before.misses) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "storage.evictions_per_stmt",
            ratio((after.evictions - before.evictions) as f64, stmts),
            "1/stmt",
        ),
        Metric::new("wal.commits", wal_commits, "count"),
        Metric::new("wal.commit_self_us", wal_commit_self, "us"),
        Metric::new("wal.scan_dml_commit_self_us", wal_scan_commit_self, "us"),
        Metric::new(
            "wal.bytes_per_user_byte",
            // Every write statement adds, replaces or removes one row.
            ratio(
                delta("wal.bytes"),
                (window.write_us.len() * ACCT_ROW_BYTES) as f64,
            ),
            "ratio",
        ),
        Metric::new(
            "wal.fsyncs_per_commit",
            ratio(delta("wal.fsyncs"), wal_commits),
            "ratio",
        ),
        Metric::new("lang.compile_ms", lang_compile_ms, "ms"),
    ];

    let mut spans = window.spans.clone();
    trace::append(&mut spans, ladder.tracer.into_spans());
    Ok(Traced {
        metrics,
        unresolved,
        spans,
    })
}

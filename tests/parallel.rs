//! Morsel-driven parallel execution (the `Gather` path), end to end:
//! serial/parallel result equivalence, EXPLAIN/EXPLAIN ANALYZE rendering,
//! cooperative cancellation mid-Gather, pool saturation under dop
//! clamping, and the `par.*` observability surface.

use std::sync::Arc;
use std::time::Duration;

use jaguar_core::{
    ByteArray, Client, Config, DataType, Database, JaguarError, Request, Tuple, UdfSignature, Value,
};
use jaguar_ipc::find_worker_binary;
use jaguar_udf::generic;

fn worker_available() -> bool {
    if find_worker_binary().is_err() {
        eprintln!("skipping isolated designs: jaguar-worker not built (cargo build --workspace)");
        false
    } else {
        true
    }
}

/// A database with `rows` rows of `(id INT, tag VARCHAR, bytearray
/// BYTEARRAY)` — enough pages that the parallel planner engages at the
/// requested dop.
fn db_with_rows(config: Config, rows: usize) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE rel (id INT, tag VARCHAR, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(i as i64),
            Value::Str(format!("tag-{}", i % 11)),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db
}

const EQUIVALENCE_QUERIES: &[&str] = &[
    "SELECT id, tag FROM rel WHERE id % 3 = 0",
    "SELECT id * 2 AS d, tag FROM rel WHERE id < 900 AND id % 2 = 1",
    "SELECT tag, COUNT(*) AS n, SUM(id) AS s, MIN(id) AS lo, MAX(id) AS hi, AVG(id) AS a \
     FROM rel GROUP BY tag",
    "SELECT tag, COUNT(*) AS n FROM rel GROUP BY tag HAVING n > 50 ORDER BY n DESC, tag",
    "SELECT id, tag FROM rel WHERE id % 5 <> 0 ORDER BY tag, id DESC LIMIT 37",
    "SELECT COUNT(*), SUM(id), AVG(id) FROM rel",
];

#[test]
fn parallel_results_equal_serial_exactly() {
    let par = db_with_rows(Config::default().with_dop(4), 1500);
    let serial = db_with_rows(Config::default().with_dop(1), 1500);
    for &sql in EQUIVALENCE_QUERIES {
        let a = par.execute(sql).unwrap();
        let b = serial.execute(sql).unwrap();
        assert_eq!(
            a.rows, b.rows,
            "parallel and serial rows (including order) must match for: {sql}"
        );
        assert_eq!(a.stats.rows_scanned, b.stats.rows_scanned, "{sql}");
        assert_eq!(a.stats.rows_emitted, b.stats.rows_emitted, "{sql}");
    }
    // The parallel engine really took the Gather path.
    assert!(par.metrics().counter("par.queries") >= EQUIVALENCE_QUERIES.len() as u64);
}

#[test]
fn parallel_udf_projection_matches_serial() {
    let par = db_with_rows(Config::default().with_dop(4), 1200);
    let serial = db_with_rows(Config::default().with_dop(1), 1200);
    for db in [&par, &serial] {
        db.register_udf(generic::def_native());
    }
    let sql = "SELECT id, generic(bytearray, 10, 1, 1) FROM rel WHERE id % 4 < 3";
    let a = par.execute(sql).unwrap();
    let b = serial.execute(sql).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.stats.udf_invocations, b.stats.udf_invocations);
    assert_eq!(a.stats.udf_callbacks, b.stats.udf_callbacks);
}

#[test]
fn explain_renders_gather_only_when_parallel() {
    let par = db_with_rows(Config::default().with_dop(4), 1500);
    let txt = par.explain("SELECT id FROM rel WHERE id < 100").unwrap();
    assert!(txt.contains("Gather (dop=4)"), "{txt}");
    assert!(txt.contains("    SeqScan rel [id] (1500 rows)"), "{txt}");
    assert!(txt.contains("scan decodes 1 of 3 columns"), "{txt}");

    // dop=1 and tiny tables stay serial.
    let serial = db_with_rows(Config::default().with_dop(1), 1500);
    let txt = serial.explain("SELECT id FROM rel").unwrap();
    assert!(!txt.contains("Gather"), "{txt}");
    let tiny = db_with_rows(Config::default().with_dop(4), 10);
    let txt = tiny.explain("SELECT id FROM rel").unwrap();
    assert!(!txt.contains("Gather"), "{txt}");

    // DML never parallelizes: the plan API only explains SELECTs, but the
    // engine path for DELETE/UPDATE is the serial one — smoke-check that a
    // parallel-configured engine still runs DML correctly.
    let r = par.execute("DELETE FROM rel WHERE id >= 1400").unwrap();
    assert_eq!(r.affected, 100);
}

#[test]
fn explain_analyze_reports_per_worker_stats() {
    let db = db_with_rows(Config::default().with_dop(2), 1500);
    let txt = db
        .explain("EXPLAIN ANALYZE SELECT id FROM rel WHERE id % 2 = 0")
        .unwrap();
    assert!(txt.contains("Gather (dop=2)"), "{txt}");
    assert!(txt.contains("worker 0: rows="), "{txt}");
    assert!(txt.contains("worker 1: rows="), "{txt}");
    assert!(txt.contains("morsels="), "{txt}");
    assert!(txt.contains("Total: 750 row(s)"), "{txt}");
}

#[test]
fn deadline_cancels_mid_gather_and_engine_stays_usable() {
    let db = db_with_rows(
        Config::default()
            .with_dop(4)
            .with_statement_timeout_ms(Some(200)),
        1500,
    );
    // ~1ms per row per worker: the full scan would take seconds, so the
    // 200ms deadline must fire while the team is mid-Gather.
    db.register_native_udf(
        "slow",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        |args, _| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Value::Int(args[0].as_int()?))
        },
    );
    let err = db.execute("SELECT slow(id) FROM rel").unwrap_err();
    assert!(
        matches!(err, JaguarError::Timeout(_) | JaguarError::Cancelled(_)),
        "expected deadline abort, got: {err}"
    );
    // All threads stopped and the engine is immediately usable.
    let r = db.execute("SELECT COUNT(*) FROM rel").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1500));
}

#[test]
fn explicit_cancel_stops_the_team() {
    let db = Arc::new(db_with_rows(Config::default().with_dop(4), 1500));
    db.register_native_udf(
        "slow",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        |args, _| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(Value::Int(args[0].as_int()?))
        },
    );
    let token = db.statement_token();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let started = std::time::Instant::now();
    let err = db
        .execute(Request::from("SELECT slow(id) FROM rel").with_token(&token))
        .unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, JaguarError::Cancelled(_)), "{err}");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancel must stop all workers promptly, took {:?}",
        started.elapsed()
    );
    assert!(db.execute("SELECT id FROM rel WHERE id = 1").is_ok());
}

/// Satellite regression: `dop > pool size` must degrade to clean queueing
/// — dop is clamped to the pool size, concurrent parallel queries queue
/// on checkouts (`pool.queue_waits` ticks), and nothing deadlocks.
#[test]
fn pool_saturation_clamps_dop_and_queues_cleanly() {
    if !worker_available() {
        return;
    }
    let db = Arc::new(db_with_rows(
        Config::default()
            .with_dop(4)
            .with_pooled_executors(2)
            .with_pool_checkout_timeout_ms(10_000),
        1500,
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));
    db.register_udf(generic::def_isolated());

    // dop requested 4, pool holds 2 → the plan clamps to 2.
    let clamps_before = db.metrics().counter("par.dop_clamped");
    let txt = db
        .explain("SELECT generic_ic(bytearray, 1, 0, 0) FROM rel WHERE id < 100")
        .unwrap();
    assert!(txt.contains("Gather (dop=2)"), "{txt}");
    assert!(db.metrics().counter("par.dop_clamped") > clamps_before);

    // Two concurrent parallel queries want 4 checkouts from 2 workers:
    // they must queue, not deadlock or error.
    let sql = "SELECT generic_ic(bytearray, 1, 0, 0) FROM rel WHERE id % 2 = 0";
    let expected = db.execute(sql).unwrap().rows;
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || db.execute(sql).map(|r| r.rows))
        })
        .collect();
    for h in handles {
        let rows = h.join().unwrap().expect("saturated query must succeed");
        assert_eq!(rows, expected);
    }
    let stats = db.pool_stats().unwrap();
    assert!(
        stats.queue_waits > 0,
        "concurrent checkouts must have queued: {stats}"
    );
}

/// A statement's plan depends on its text, the catalog and `Config` —
/// never on what other sessions are doing. With one admission slot held
/// by an idle client, `EXPLAIN` of the same text is byte-identical to the
/// one taken while the server was idle, at the configured dop.
#[test]
fn plan_does_not_depend_on_other_sessions() {
    let db = db_with_rows(
        Config {
            max_connections: 1,
            ..Config::default()
        }
        .with_dop(4),
        1500,
    );
    let sql = "SELECT id FROM rel WHERE id % 2 = 0";
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let idle = db.explain(sql).unwrap();
    assert!(idle.contains("Gather (dop=4)"), "{idle}");

    // One client connects and runs a statement: it holds the only permit
    // for as long as its session lasts.
    let mut client = Client::connect(server.addr()).unwrap();
    client.execute("SELECT id FROM rel WHERE id = 1").unwrap();
    let busy = db.explain(sql).unwrap();
    assert_eq!(busy, idle, "a held permit must not change the plan");

    drop(client);
    server.stop();
}

#[test]
fn par_metrics_and_contention_counters_surface() {
    let db = db_with_rows(Config::default().with_dop(4), 1500);
    for _ in 0..3 {
        db.execute("SELECT id FROM rel WHERE id % 2 = 0").unwrap();
    }
    let m = db.metrics();
    assert!(m.counter("par.queries") >= 3, "{m}");
    assert!(m.counter("par.morsels") > 0, "{m}");
    assert!(m.counter("par.workers") >= 6, "{m}");
    assert!(
        m.histogram("par.worker_busy_us").is_some(),
        "worker busy histogram missing:\n{m}"
    );
    // Contention counters exist (zero is fine — they only tick on a
    // contended try_lock miss, which a quiet test may never hit).
    for name in [
        "storage.bufferpool.latch_waits",
        "storage.heap.insert_hint_waits",
        "storage.heap.alloc_lock_waits",
    ] {
        assert!(
            m.counters.iter().any(|(n, _)| n == name),
            "{name} missing from metrics:\n{m}"
        );
    }
}

/// SUM and AVG give the same bits at every dop. Floating-point addition is
/// not associative, so per-morsel partial sums of a FLOAT would round
/// differently from the serial running sum: such a plan stays serial. An
/// INT AVG adds exactly and divides once, so it goes parallel.
#[test]
fn sum_and_avg_are_bit_identical_at_every_dop() {
    let build = |dop: usize| {
        let db = Database::with_config(Config::default().with_dop(dop));
        db.execute("CREATE TABLE f (id INT, g INT, x FLOAT, big INT)")
            .unwrap();
        let t = db.catalog().table("f").unwrap();
        for id in 0..20_000i64 {
            t.insert(Tuple::new(vec![
                Value::Int(id),
                Value::Int(id % 7),
                Value::Float(id as f64 * 1.37 + 1e9 / (id as f64 + 0.5)),
                Value::Int((1 << 60) + id * 7_919),
            ]))
            .unwrap();
        }
        assert!(t.heap_pages() > 8, "{} pages", t.heap_pages());
        db
    };
    let serial_float = "parallel: serial (FLOAT SUM/AVG adds in scan order)";
    let queries = [
        ("SELECT SUM(x), AVG(x) FROM f", true),
        ("SELECT g, SUM(x), AVG(x) FROM f GROUP BY g", true),
        ("SELECT AVG(big) FROM f", false),
        ("SELECT g, AVG(big), SUM(big) FROM f GROUP BY g", false),
    ];
    let bits = |db: &Database, sql: &str| {
        let mut out = Vec::new();
        for row in db.execute(sql).unwrap().rows {
            jaguar_common::stream::write_tuple(&mut out, &row).unwrap();
        }
        out
    };
    let serial = build(1);
    for dop in [2, 4] {
        let par = build(dop);
        for (sql, floats) in queries {
            let plan = par.explain(sql).unwrap();
            assert_eq!(plan.contains(serial_float), floats, "{plan}");
            assert_eq!(plan.contains("Gather"), !floats, "{plan}");
            assert_eq!(bits(&par, sql), bits(&serial, sql), "dop {dop}: {sql}");
        }
    }
}

/// `LIMIT 0` reads nothing at any dop: the plan stays a team of one, which
/// skips its scan, so no row is read and a WHERE UDF is never called —
/// with an aggregate or an ORDER BY, which a `Gather` team would read
/// every row for, too.
#[test]
fn limit_zero_reads_nothing_at_any_dop() {
    for dop in [1, 4] {
        let db = db_with_rows(Config::default().with_dop(dop), 2000);
        db.register_udf(generic::def_native());
        for sql in [
            "SELECT COUNT(*) FROM rel WHERE generic(bytearray, 10, 0, 0) >= 0 LIMIT 0",
            "SELECT id FROM rel WHERE generic(bytearray, 10, 0, 0) >= 0 ORDER BY id LIMIT 0",
        ] {
            let r = db.execute(sql).unwrap();
            assert!(r.rows.is_empty(), "dop {dop}: {sql}");
            assert_eq!(r.stats.rows_scanned, 0, "dop {dop}: {sql}");
            assert_eq!(r.stats.udf_invocations, 0, "dop {dop}: {sql}");
            let plan = db.explain(sql).unwrap();
            assert!(!plan.contains("Gather"), "dop {dop}: {plan}");
            let gated = plan.contains("parallel: serial (LIMIT 0 reads nothing)");
            assert_eq!(gated, dop > 1, "dop {dop}: {plan}");
        }
    }
}

//! Engine-wide observability: EXPLAIN ANALYZE, the metrics registry
//! ("live Table 1"), the metrics wire request, connection limits, and
//! graceful server teardown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use jaguar_core::{ByteArray, Client, Config, DataType, Database, Tuple, UdfSignature, Value};

/// The `vm.tier.*` counters are process-wide: a test that asserts on
/// their deltas holds this guard, and so does every other test here that
/// runs sandboxed code.
fn vm_serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn db_with_rows(n: i64) -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (id INT, b BYTEARRAY)").unwrap();
    for i in 0..n {
        db.execute(&format!("INSERT INTO t VALUES ({i}, X'0102')"))
            .unwrap();
    }
    db
}

fn string_rows(r: &jaguar_core::QueryResult) -> Vec<String> {
    r.rows
        .iter()
        .map(|row| match row.get(0).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("expected string row, got {other:?}"),
        })
        .collect()
}

#[test]
fn explain_analyze_row_counts_match_cardinality() {
    let db = db_with_rows(10);
    let sql = "SELECT id FROM t WHERE id >= 4";
    let expected = db.execute(sql).unwrap().rows.len() as u64; // 6

    let r = db.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let lines = string_rows(&r);
    let text = lines.join("\n");

    // The output is the static plan followed by the observed profile
    // (the lines carrying `rows=`). The scan visits every row and judges
    // the one conjunct itself, so it — and everything above it — produces
    // exactly the query's cardinality, and no Filter operator is left.
    let profiled = |op: &str| -> &String {
        lines
            .iter()
            .find(|l| l.contains(op) && l.contains("rows="))
            .unwrap_or_else(|| panic!("no profiled {op} in:\n{text}"))
    };
    let scan = profiled("SeqScan t [id]");
    assert!(
        scan.contains(&format!("  scanned=10 rows={expected} time=")),
        "{text}"
    );
    assert!(!lines.iter().any(|l| l.contains("Filter (")), "{text}");
    // The static plan names the decoded columns too, says how many, and
    // tags the conjunct the scan judges.
    assert!(text.contains("Filter[0] [at scan] (id >= 4)"), "{text}");
    assert!(text.contains("SeqScan t [id] (10 rows)"), "{text}");
    assert!(
        text.contains(
            "-- plan notes: scan decodes 1 of 2 columns; \
             scan judges 1 conjunct(s) on record bytes"
        ),
        "{text}"
    );
    assert!(
        profiled("Project").contains(&format!("rows={expected}")),
        "{text}"
    );
    // Every profiled line carries timings; the summary line agrees.
    assert!(text.contains("time="), "{text}");
    assert!(text.contains("self="), "{text}");
    assert!(
        text.contains(&format!("Total: {expected} row(s)")),
        "{text}"
    );

    // A conjunct the scan cannot judge keeps its Filter operator, which
    // counts the residual conjuncts only.
    let residual = "SELECT id FROM t WHERE id >= 4 AND id + 0 < 8";
    let text = db.explain(&format!("EXPLAIN ANALYZE {residual}")).unwrap();
    let line = |op: &str| {
        (text.lines())
            .find(|l| l.contains(op) && l.contains("rows="))
            .unwrap_or_else(|| panic!("no profiled {op} in:\n{text}"))
    };
    assert!(
        line("SeqScan t [id]").contains("scanned=10 rows=6"),
        "{text}"
    );
    assert!(line("Filter (1 predicate(s))").contains("rows=4"), "{text}");

    // The stages after the scan each report what they produce, serially:
    // ids 0..9 make four groups of `id % 4` (sizes 3, 3, 2, 2), HAVING
    // keeps two, the sort keeps both and the LIMIT one.
    let db = Database::with_config(Config::default().with_dop(1));
    db.execute("CREATE TABLE t (id INT)").unwrap();
    for i in 0..10 {
        db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
    }
    let grouped = "SELECT id % 4 AS k, COUNT(*) AS n FROM t GROUP BY id % 4 \
                   HAVING n > 2 ORDER BY k DESC LIMIT 1";
    let text = db.explain(&format!("EXPLAIN ANALYZE {grouped}")).unwrap();
    let line = |op: &str| {
        (text.lines())
            .find(|l| l.contains(op) && l.contains("rows="))
            .unwrap_or_else(|| panic!("no profiled {op} in:\n{text}"))
    };
    for (op, rows) in [
        ("SeqScan t", 10),
        ("Aggregate (", 4),
        ("Project (", 4),
        ("Having", 2),
        ("Sort (", 2),
        ("Limit 1", 1),
    ] {
        assert!(
            line(op).contains(&format!(" rows={rows} time=")),
            "{op}: {text}"
        );
    }
    assert!(text.contains("Total: 1 row(s)"), "{text}");
}

#[test]
fn explain_without_analyze_does_not_execute() {
    let db = db_with_rows(3);
    let r = db.execute("EXPLAIN SELECT id FROM t").unwrap();
    let text = string_rows(&r).join("\n");
    assert!(text.contains("SeqScan t [id] (3 rows)"), "{text}");
    let all = db.execute("EXPLAIN SELECT * FROM t").unwrap();
    let all = string_rows(&all).join("\n");
    assert!(all.contains("SeqScan t [*] (3 rows)"), "{all}");
    assert!(!all.contains("scan decodes"), "nothing skipped: {all}");
    // Plain EXPLAIN never runs the query, so no observed row counts.
    assert!(!text.contains("rows="), "{text}");
}

/// `explain` of text that already says EXPLAIN ANALYZE runs the analysis
/// rather than dropping it; plain EXPLAIN text still only renders.
#[test]
fn explain_runs_the_analysis_its_text_asks_for() {
    let db = db_with_rows(8);
    let text = db
        .explain("EXPLAIN ANALYZE SELECT id FROM t WHERE id < 3")
        .unwrap();
    assert!(text.contains("Total: 3 row(s)"), "{text}");
    let plain = db.explain("EXPLAIN SELECT id FROM t WHERE id < 3").unwrap();
    assert!(!plain.contains("Total:"), "{plain}");
}

#[test]
fn explain_analyze_convenience_and_limit_short_circuit() {
    let db = db_with_rows(8);
    let text = db
        .explain("EXPLAIN ANALYZE SELECT id FROM t ORDER BY id LIMIT 2")
        .unwrap();
    // Limit produced exactly 2 rows even though the scan saw all 8.
    let limit_line = text
        .lines()
        .find(|l| l.contains("Limit") && l.contains("rows="))
        .unwrap_or_else(|| panic!("no profiled Limit in:\n{text}"));
    assert!(limit_line.contains("rows=2"), "{limit_line}");
    assert!(text.contains("rows=8"), "{text}");
}

/// EXPLAIN ANALYZE of a JagScript query reports the compiled-tier
/// activity it caused; plain EXPLAIN never executes and so never shows
/// the line.
#[test]
fn explain_analyze_reports_tier_activity() {
    let _serial = vm_serial();
    let db = Database::with_config(Config::default());
    db.execute("CREATE TABLE t (id INT, b BYTEARRAY)").unwrap();
    for i in 0..6 {
        db.execute(&format!("INSERT INTO t VALUES ({i}, X'0102')"))
            .unwrap();
    }
    db.register_jagscript_udf(
        "first_byte",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 { return b[0]; }",
        jaguar_core::UdfDesign::Sandboxed,
    )
    .unwrap();

    let analyzed = db
        .execute("EXPLAIN ANALYZE SELECT first_byte(b) FROM t")
        .unwrap();
    let text = string_rows(&analyzed).join("\n");
    assert!(text.contains("VM tier: compiled_calls="), "{text}");
    assert!(!text.contains("compiled_calls=0"), "{text}");
    assert!(text.contains(" interp_fallbacks=0"), "{text}");

    let plain = db.execute("EXPLAIN SELECT first_byte(b) FROM t").unwrap();
    let text = string_rows(&plain).join("\n");
    assert!(!text.contains("VM tier:"), "{text}");

    // A UDF whose hot loop is a counted loop shows that it ran as strips
    // and handed nothing back to the per-op path. (The counters are
    // process-wide, so only their being zero or not is asserted.)
    db.register_jagscript_udf(
        "byte_sum",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 {
            let acc: i64 = 0; let i: i64 = 0; let n: i64 = len(b);
            while i < n { acc = acc + b[i]; i = i + 1; }
            return acc;
        }",
        jaguar_core::UdfDesign::Sandboxed,
    )
    .unwrap();
    let analyzed = db
        .execute("EXPLAIN ANALYZE SELECT byte_sum(b) FROM t")
        .unwrap();
    let text = string_rows(&analyzed).join("\n");
    assert!(text.contains(" loop_strips="), "{text}");
    assert!(!text.contains(" loop_strips=0 "), "{text}");
    assert!(text.contains(" loop_fallbacks=0 "), "{text}");
}

#[test]
fn metrics_count_sandboxed_udf_invocations() {
    let _serial = vm_serial();
    let db = db_with_rows(5);
    db.register_jagscript_udf(
        "first_byte",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 { return b[0]; }",
        jaguar_core::UdfDesign::Sandboxed,
    )
    .unwrap();

    let before = db.metrics();
    db.execute("SELECT first_byte(b) FROM t").unwrap();
    let after = db.metrics();

    // 5 rows → at least 5 more JSM invocations than before (the registry
    // is process-global, so compare deltas, not absolutes).
    let delta = after.counter("udf.invocations.jsm") - before.counter("udf.invocations.jsm");
    assert!(delta >= 5, "jsm invocation delta {delta}");
    let lat = after.histogram("udf.latency_us.jsm").expect("jsm latency");
    assert!(lat.count >= 5, "latency observations {}", lat.count);
    assert!(after.counter("sql.queries") > before.counter("sql.queries"));

    // The snapshot renders in a stable plain-text format.
    let text = after.to_string();
    assert!(text.contains("udf.invocations.jsm"), "{text}");
}

/// The tier counters a statement publishes — once per UDF batch, however
/// the batch ends — add up to the same totals whatever the batch size and
/// the degree of parallelism: one compiled call per row, three strips per
/// compiled call and no fallback; and, for a statement whose last row
/// traps mid-batch, the same counts for every row up to and including the
/// trapping one.
#[test]
fn tier_counters_are_exact_across_batch_and_dop() {
    let _serial = vm_serial();
    const ROWS: u64 = 1_000;
    const NAMES: [&str; 3] = [
        "vm.tier.compiled_hits",
        "vm.tier.loop_strips",
        "vm.tier.loop_fallbacks",
    ];
    // A fresh database per run; the trapping UDF divides by zero on the
    // last row.
    let run = |batch: usize, dop: usize, sql: &str| {
        let db = Database::with_config(Config::default().with_dop(dop).with_udf_batch_size(batch));
        db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
            .unwrap();
        let t = db.catalog().table("rel").unwrap();
        for i in 0..ROWS {
            t.insert(Tuple::new(vec![
                Value::Int(i as i64),
                Value::Bytes(ByteArray::patterned(100, i)),
            ]))
            .unwrap();
        }
        db.register_udf(jaguar_udf::generic::def_vm(
            true,
            jaguar_vm::ResourceLimits::default(),
        ));
        db.register_jagscript_udf_with_volatility(
            "last_traps",
            UdfSignature::new(vec![DataType::Bytes, DataType::Int], DataType::Int),
            &format!(
                "fn main(data: bytes, id: i64) -> i64 {{
                    let acc: i64 = 0; let i: i64 = 0;
                    while i < 200 {{ acc = acc * 31 + i; i = i + 1; }}
                    let p: i64 = 0;
                    while p < 2 {{
                        let j: i64 = 0; let n: i64 = len(data);
                        while j < n {{ acc = acc + data[j]; j = j + 1; }}
                        p = p + 1;
                    }}
                    return acc / (id - {});
                }}",
                ROWS - 1
            ),
            jaguar_core::UdfDesign::Sandboxed,
            jaguar_udf::Volatility::Stable,
        )
        .unwrap();
        let before = db.metrics();
        let out = db
            .execute(sql)
            .map(|r| r.rows.len())
            .map_err(|e| e.to_string());
        let after = db.metrics();
        let parallel = after.counter("par.queries") - before.counter("par.queries");
        assert_eq!(parallel, u64::from(dop > 1), "{sql} at dop {dop}");
        (NAMES.map(|n| after.counter(n) - before.counter(n)), out)
    };
    let ok = "SELECT generic_vm(bytearray, 200, 2, 0) FROM rel";
    let traps = "SELECT last_traps(bytearray, id) FROM rel";
    for sql in [ok, traps] {
        let reference = run(1, 1, sql);
        assert_eq!(reference.0, [ROWS, 3 * ROWS, 0], "{sql}: {reference:?}");
        for (batch, dop) in [(256, 1), (1, 2), (256, 2)] {
            assert_eq!(
                run(batch, dop, sql),
                reference,
                "{sql} at batch {batch}, dop {dop}"
            );
        }
    }
}

#[test]
fn metrics_snapshot_over_the_wire() {
    let db = db_with_rows(3);
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.execute("SELECT id FROM t").unwrap();

    let m = client.metrics().unwrap();
    assert!(m.counter("net.requests") >= 1, "{}", m.text);
    assert!(m.counter("net.connections") >= 1, "{}", m.text);
    assert!(m.counter("sql.queries") >= 1, "{}", m.text);
    assert!(m.text.contains("net.requests"), "{}", m.text);
}

#[test]
fn server_stop_waits_for_inflight_query() {
    let db = db_with_rows(1);
    let finished = Arc::new(AtomicBool::new(false));
    let finished_udf = Arc::clone(&finished);
    db.register_native_udf(
        "slow",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        move |args, _| {
            std::thread::sleep(Duration::from_millis(300));
            finished_udf.store(true, Ordering::SeqCst);
            Ok(args[0].clone())
        },
    );

    let mut server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.execute("SELECT slow(id) FROM t")
    });

    // Let the query reach the UDF, then stop the server mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    server.stop();

    // stop() must not return before the in-flight query completed.
    assert!(
        finished.load(Ordering::SeqCst),
        "server.stop() returned before the in-flight query finished"
    );
    // And the client got its answer, not a dropped connection.
    let r = worker.join().unwrap().unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn connection_limit_rejects_with_busy_error() {
    let db = Database::with_config(Config {
        max_connections: 1,
        admission_queue_depth: 0, // no queueing: sheds are immediate
        admission_timeout_ms: 100,
        ..Config::default()
    });
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();
    let opts = jaguar_core::ClientOptions::default().no_retry();

    // The admission permit is claimed by the first *data-plane* request.
    let mut first = Client::connect_with(server.addr(), opts).unwrap();
    assert_eq!(first.execute("SELECT id FROM t").unwrap().rows.len(), 1);

    // The control plane is always admitted, even at capacity…
    let mut second = Client::connect_with(server.addr(), opts).unwrap();
    second.ping().unwrap();
    // …but data-plane work on a second session is shed with a retryable
    // busy error (no retry here, so the raw shed is observable).
    let err = second
        .execute("SELECT id FROM t")
        .expect_err("second session must be shed");
    assert!(err.to_string().contains("busy"), "{err}");

    // The first client is unaffected.
    assert_eq!(first.execute("SELECT id FROM t").unwrap().rows.len(), 1);

    // A shed is not a disconnect: once the first session leaves, the very
    // same second connection acquires the freed permit.
    first.quit().unwrap();
    for attempt in 0.. {
        match second.execute("SELECT id FROM t") {
            Ok(r) => {
                assert_eq!(r.rows.len(), 1);
                break;
            }
            Err(_) if attempt < 50 => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => panic!("slot never freed: {e}"),
        }
    }
}

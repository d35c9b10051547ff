//! Query lifecycle robustness: statement deadlines, cooperative
//! cancellation, and failure containment.
//!
//! These are the acceptance tests for the lifecycle layer: a runaway UDF
//! on *each* execution backend is aborted within the statement deadline
//! and the engine stays usable; a client cancels an in-flight query
//! out-of-band and the data survives recovery untouched; a UDF that
//! crashes its worker or fails on its own fails only the statement that
//! called it, and the next statement runs as if nothing had happened.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaguar_core::{
    ByteArray, Client, Config, DataType, Database, JaguarError, Placement, Request, Tuple, UdfDef,
    UdfDesign, UdfImpl, UdfSignature, Value, Volatility,
};
use jaguar_ipc::find_worker_binary;

fn worker_available() -> bool {
    if find_worker_binary().is_err() {
        eprintln!("skipping pooled lifecycle test: jaguar-worker not built");
        false
    } else {
        true
    }
}

fn ints(r: &jaguar_core::QueryResult) -> Vec<i64> {
    r.rows
        .iter()
        .map(|row| match row.get(0).unwrap() {
            Value::Int(i) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

/// Acceptance (a), in-process VM backend: an infinite-loop JagScript UDF
/// is aborted by the statement deadline via the interpreter's periodic
/// cancellation poll — fuel is disabled so the deadline is what fires.
#[test]
fn statement_deadline_aborts_infinite_loop_vm_udf() {
    let db = Database::with_config(
        Config::default()
            .no_resource_limits()
            .with_statement_timeout_ms(Some(300)),
    );
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
    db.register_jagscript_udf(
        "spin",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        "fn main(x: i64) -> i64 { let i: i64 = 0; while i < 1 { i = i * 1; } return x; }",
        UdfDesign::Sandboxed,
    )
    .unwrap();

    let start = Instant::now();
    let err = db.execute("SELECT spin(a) FROM t").unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, JaguarError::Timeout(_)),
        "deadline expiry must surface as a timeout, got: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(5),
        "abort must come promptly after the 300ms budget, took {elapsed:?}"
    );

    // The engine is fully usable afterwards: a cheap query finishes well
    // inside its own (fresh) deadline.
    let r = db.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// Acceptance (a), pooled IPC backend: a worker-side `hang` is killed when
/// the *statement* budget expires (tighter than the pool's own invoke
/// timeout), surfaces as a timeout, and the pool recovers.
#[test]
fn statement_deadline_kills_hung_pooled_worker() {
    if !worker_available() {
        return;
    }
    let db = Database::with_config(
        Config::default()
            .with_pooled_executors(1)
            .with_pool_invoke_timeout_ms(Some(60_000))
            .with_statement_timeout_ms(Some(400)),
    );
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.register_udf(UdfDef::new(
        "whang",
        UdfSignature::new(vec![], DataType::Int),
        UdfImpl::registered("hang", Placement::Worker),
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    let start = Instant::now();
    let err = db.execute("SELECT whang() FROM t").unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, JaguarError::Timeout(_)),
        "statement-budget kill must surface as a timeout, got: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "kill must come from the 400ms statement budget, not the 60s pool \
         timeout; took {elapsed:?}"
    );

    // The next checkout replaces the killed worker; the engine stays usable.
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// Acceptance (a), per-query IPC backend (the default config, no pool): a
/// worker-side `hang` is killed when the statement budget expires, just as
/// a pooled one is. The statement runs on a thread so that a worker nobody
/// kills fails this test instead of hanging the suite.
#[test]
fn statement_deadline_kills_hung_spawned_worker() {
    if !worker_available() {
        return;
    }
    let db = Arc::new(Database::with_config(
        Config::default().with_statement_timeout_ms(Some(400)),
    ));
    assert!(db.worker_pool().is_none(), "the default config spawns");
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.register_udf(UdfDef::new(
        "whang",
        UdfSignature::new(vec![], DataType::Int),
        UdfImpl::registered("hang", Placement::Worker),
    ));

    let (tx, rx) = std::sync::mpsc::channel();
    let runner = Arc::clone(&db);
    std::thread::spawn(move || {
        let _ = tx.send(runner.execute("SELECT whang() FROM t").map(|_| ()));
    });
    let err = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a 400ms statement deadline must end a hung spawned worker within 5s")
        .unwrap_err();
    assert!(
        matches!(err, JaguarError::Timeout(_)),
        "statement-budget kill must surface as a timeout, got: {err}"
    );

    let r = db.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// A round trip that spends its time in the engine's callbacks, not in
/// the worker, still ends at the statement deadline: the Design-2 generic
/// UDF makes 20 callbacks of 50 ms each (1 s in all) under a 300 ms
/// budget. The worker is killed at the first socket operation after the
/// deadline, and the next statement runs on a freshly spawned worker.
#[test]
fn statement_deadline_kills_a_worker_waiting_on_callbacks() {
    if !worker_available() {
        return;
    }
    let db = Database::with_config(
        Config::default()
            .with_pooled_executors(1)
            .with_statement_timeout_ms(Some(300)),
    );
    db.execute("CREATE TABLE t (a INT, b BYTEARRAY)").unwrap();
    db.catalog()
        .table("t")
        .unwrap()
        .insert(Tuple::new(vec![
            Value::Int(1),
            Value::Bytes(ByteArray::patterned(16, 1)),
        ]))
        .unwrap();
    db.register_udf(jaguar_udf::generic::def_isolated());
    db.register_callback("cb", |args| {
        std::thread::sleep(Duration::from_millis(50));
        Ok(args[0].clone())
    });
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));
    let before = pool.stats();

    let start = Instant::now();
    let err = db
        .execute("SELECT generic_ic(b, 0, 0, 20) FROM t")
        .unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, JaguarError::Timeout(_)),
        "a deadline passed inside callbacks must surface as a timeout, got: {err}"
    );
    assert!(
        elapsed < Duration::from_millis(700),
        "the 300ms budget must end the statement well before its callbacks \
         would (1s); took {elapsed:?}"
    );
    let killed = pool.stats();
    assert_eq!(killed.timeouts, before.timeouts + 1, "{killed}");

    let r = db.execute("SELECT generic_ic(b, 0, 0, 0) FROM t").unwrap();
    assert_eq!(ints(&r), vec![0]);
    let after = pool.stats();
    assert_eq!(after.spawns, killed.spawns + 1, "a fresh worker: {after}");
}

/// Acceptance (b): a client cancels a long scan out-of-band; the query
/// aborts with a cancellation error, the connection stays usable, and
/// after closing and reopening the database the data is untouched.
#[test]
fn client_cancel_aborts_long_scan_without_partial_effects() {
    let dir = std::env::temp_dir().join(format!("jaguar-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let db = Database::open(&dir, Config::default()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    for chunk in 0..20 {
        let vals: Vec<String> = (0..20).map(|i| format!("({})", chunk * 20 + i)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
            .unwrap();
    }
    // A scan over `nap(a)` takes 400 × 25ms = 10s if left alone.
    db.register_native_udf(
        "nap",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        |args, _cb| {
            std::thread::sleep(Duration::from_millis(25));
            Ok(args[0].clone())
        },
    );

    let mut server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let handle = client.cancel_handle();

    let worker = std::thread::spawn(move || {
        let err = client
            .execute("SELECT nap(a) FROM t")
            .expect_err("cancelled query must error");
        // Same connection, next statement: still usable.
        let rows = client.execute("SELECT a FROM t WHERE a < 3").unwrap().rows;
        (err, rows.len())
    });

    // Cancel once the statement is actually in flight (the handle reports
    // `false` while the connection is idle).
    let deadline = Instant::now() + Duration::from_secs(8);
    loop {
        if handle.cancel().unwrap() {
            break;
        }
        assert!(Instant::now() < deadline, "query never became cancellable");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (err, usable_rows) = worker.join().unwrap();
    assert!(
        err.to_string().contains("cancel"),
        "expected a cancellation error, got: {err}"
    );
    assert_eq!(usable_rows, 3, "connection must stay usable after cancel");

    // Recovery: close everything and reopen the directory. A pure scan has
    // no on-disk effects, cancelled or not.
    server.stop();
    drop(server);
    db.close().unwrap();
    let db = Database::open(&dir, Config::default()).unwrap();
    let r = db.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 400, "data intact after cancel + recovery");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancelled DML seals its partial effects as its own transaction: after
/// close + reopen every row is either old or new — never torn — and the
/// engine accepts further statements.
#[test]
fn cancelled_update_seals_partial_effects() {
    let dir = std::env::temp_dir().join(format!("jaguar-cancel-dml-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let db = Database::open(&dir, Config::default()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let vals: Vec<String> = (0..100).map(|_| "(0)".to_string()).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
        .unwrap();
    db.register_native_udf(
        "slowone",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        |args, _cb| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(Value::Int(args[0].as_int()? + 1))
        },
    );

    let token = db.statement_token();
    let t2 = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        t2.cancel();
    });
    let err = db
        .execute(Request::from("UPDATE t SET a = slowone(a)").with_token(&token))
        .unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, JaguarError::Cancelled(_)), "{err}");

    db.close().unwrap();
    let db = Database::open(&dir, Config::default()).unwrap();
    let r = db.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 100);
    let vs = ints(&r);
    assert!(
        vs.iter().all(|v| *v == 0 || *v == 1),
        "rows must be old or new, never torn: {vs:?}"
    );
    assert!(
        vs.contains(&0),
        "the cancel must have landed before the statement finished"
    );
    // The engine accepts further DML; re-running to completion converges.
    db.execute("UPDATE t SET a = 1").unwrap();
    assert!(ints(&db.execute("SELECT a FROM t").unwrap())
        .iter()
        .all(|v| *v == 1));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance (c): a UDF crash costs exactly the statement it happened
/// in. Each statement whose argument crashes the worker fails with
/// `Worker`; the very next statement that calls the same UDF with a
/// harmless argument succeeds at once, with no cooldown, and the two
/// together cost exactly the one respawn of the worker the crash killed.
#[test]
fn crashing_udf_fails_only_its_own_statement() {
    if !worker_available() {
        return;
    }
    let db = Database::with_config(Config::default().with_pooled_executors(1));
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
    db.register_udf(UdfDef::new(
        "wflaky",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("crash_if_positive", Placement::Worker),
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    // Three worker crashes (argument 1 aborts the worker), each followed
    // by a harmless call (argument 0) that runs at once.
    for round in 0..3 {
        let spawns_before = db.pool_stats().unwrap().spawns;
        let err = db.execute("SELECT wflaky(a) FROM t").unwrap_err();
        assert!(
            matches!(err, JaguarError::Worker(_)),
            "round {round}: expected a worker crash, got: {err}"
        );
        let r = db.execute("SELECT wflaky(b) FROM t").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(0));
        let spawned = db.pool_stats().unwrap().spawns - spawns_before;
        assert_eq!(
            spawned, 1,
            "round {round}: a crash and the statement after it spawned {spawned} workers"
        );
    }
}

/// A UDF's own deterministic error — here fuel exhaustion on every row —
/// fails the statements it happens in and nothing after them: under
/// Design 3 (in-process) and Design 4 (isolated), a later statement whose
/// rows stay within the budget returns them all.
#[test]
fn udf_own_error_never_changes_a_later_statement() {
    let mut designs = vec![UdfDesign::Sandboxed];
    if worker_available() {
        designs.push(UdfDesign::SandboxedIsolated);
    }
    for design in designs {
        let db = Database::with_config(Config {
            default_fuel: Some(24),
            ..Config::default()
        });
        db.execute("CREATE TABLE t (a INT)").unwrap();
        for a in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({a})")).unwrap();
        }
        db.register_jagscript_udf_with_volatility(
            "f",
            UdfSignature::new(vec![DataType::Int], DataType::Int),
            "fn main(a: i64) -> i64 {
                if a < 5 { return a + 1; }
                let x: i64 = a * 2 + 1;
                x = x * 3 - a; x = x * x + 7; x = x - a * 5; x = x * 2 + a;
                x = x * 3 - a; x = x * x + 7; x = x - a * 5; x = x * 2 + a;
                return x;
            }",
            design,
            Volatility::Stable,
        )
        .unwrap();
        for round in 0..3 {
            let err = db.execute("SELECT f(a) FROM t WHERE a >= 5").unwrap_err();
            assert!(
                err.to_string().contains("fuel"),
                "{design:?} round {round}: expected fuel exhaustion, got: {err}"
            );
        }
        let r = db
            .execute("SELECT f(a) FROM t WHERE a < 5")
            .unwrap_or_else(|e| panic!("{design:?}: a later statement failed: {e}"));
        assert_eq!(
            r.rows
                .iter()
                .map(|t| t.get(0).unwrap().clone())
                .collect::<Vec<_>>(),
            (1..=5).map(Value::Int).collect::<Vec<_>>(),
            "{design:?}"
        );
    }
}

/// A statement timeout configured on the server bounds queries arriving
/// over the wire, and an embedded cancel token aborts a SELECT promptly
/// even without any client involvement.
#[test]
fn embedded_token_cancels_select_promptly() {
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let vals: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", vals.join(", ")))
        .unwrap();
    let calls = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&calls);
    db.register_native_udf(
        "tick",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        move |args, _cb| {
            seen.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(10));
            Ok(args[0].clone())
        },
    );

    let token = db.statement_token();
    let t2 = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        t2.cancel();
    });
    let err = db
        .execute(Request::from("SELECT tick(a) FROM t").with_token(&token))
        .unwrap_err();
    canceller.join().unwrap();
    assert!(matches!(err, JaguarError::Cancelled(_)), "{err}");
    let n = calls.load(Ordering::Relaxed);
    assert!(
        n < 200,
        "cancellation must stop the scan early (saw {n} of 200 calls)"
    );
}

/// A scan that rejects every row on the record's bytes hands nothing to
/// the operators above it, so the scan itself must poll the statement's
/// token: a cancelled statement stops at its next page, one past its
/// deadline within the 64 polls a deadline check is spread over — serial,
/// parallel and DML alike, having read a sliver of the table.
#[test]
fn a_scan_that_rejects_every_row_still_notices_cancel_and_deadline() {
    use jaguar_core::{CancelToken, Tuple};
    for dop in [1, 2] {
        let db = Database::with_config(Config::default().with_dop(dop));
        db.execute("CREATE TABLE big (id INT, v INT)").unwrap();
        let big = db.catalog().table("big").unwrap();
        for id in 0..90_000 {
            let row = vec![Value::Int(id), Value::Int(id % 1000)];
            big.insert(Tuple::new(row)).unwrap();
        }
        let pages = u64::from(big.heap_pages());
        assert!(pages > 250, "{pages} pages");
        let fetched = || {
            let s = big.pool_stats();
            s.hits + s.misses
        };
        for sql in [
            "SELECT COUNT(*) FROM big WHERE v < 0",
            "SELECT id FROM big WHERE v < 0 AND id + 0 > 5",
            "DELETE FROM big WHERE v < 0",
            "UPDATE big SET v = 1 WHERE v < 0",
        ] {
            let plan = db.explain(sql).unwrap();
            assert!(plan.contains("[at scan] (v < 0)"), "{plan}");
            let cancelled = CancelToken::unbounded();
            cancelled.cancel();
            let before = fetched();
            let err = db
                .execute(Request::from(sql).with_token(&cancelled))
                .unwrap_err();
            assert!(matches!(err, JaguarError::Cancelled(_)), "{sql}: {err}");
            let read = fetched() - before;
            assert!(read <= 4, "{sql} (dop {dop}): cancelled after {read} pages");

            let expired = CancelToken::with_deadline(Duration::ZERO);
            let before = fetched();
            let err = db
                .execute(Request::from(sql).with_token(&expired))
                .unwrap_err();
            assert!(matches!(err, JaguarError::Timeout(_)), "{sql}: {err}");
            let read = fetched() - before;
            assert!(
                read <= 64 * dop as u64 + 8,
                "{sql} (dop {dop}): timed out after {read} of {pages} pages"
            );
        }
        assert_eq!(big.row_count(), 90_000);
    }
}

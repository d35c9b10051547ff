//! Vectorized invocation (`jaguar_udf::batch`): batch-size gating, hostile
//! batch-frame rejection at the IPC boundary, and containment when a
//! whole batch fails.

use std::time::Duration;

use jaguar_core::{obs, ByteArray, Config, DataType, Database, JaguarError, Request, Tuple, Value};
use jaguar_ipc::find_worker_binary;
use jaguar_udf::generic::def_vm;
use jaguar_udf::{Placement, UdfDef, UdfImpl, UdfSignature, Volatility};
use jaguar_vm::ResourceLimits;

fn worker_available() -> bool {
    if find_worker_binary().is_err() {
        eprintln!("skipping isolated designs: jaguar-worker not built (cargo build --workspace)");
        false
    } else {
        true
    }
}

/// Serializes the tests that read the global, monotonic
/// `udf.batch.crossings.jsm` counter — delta assertions are only sound
/// while no other test in this binary drives a JSM UDF.
static JSM_COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// A dop=1 database with `rows` integers and a `dbl` UDF of the given
/// volatility, configured for the given (pre-clamp) batch size. The UDF
/// is sandboxed-VM backed (JSM): batching gates are exercised against a
/// design with a real per-invocation crossing to amortize — the trusted
/// native design skips batching by policy (see
/// `trusted_native_stays_per_tuple` below).
fn dbl_db(batch: usize, volatility: Volatility, rows: usize) -> Database {
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE t (id INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..rows {
        t.insert(Tuple::new(vec![Value::Int(i as i64)])).unwrap();
    }
    let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
    let module = jaguar_lang::compile("dbl", "fn main(x: i64) -> i64 { return x * 2; }").unwrap();
    let spec = jaguar_udf::def::vm_spec(module, "main", ResourceLimits::default(), true, None)
        .expect("dbl module must verify");
    db.register_udf(
        UdfDef::new("dbl", sig, UdfImpl::bytecode(spec, Placement::Server))
            .with_volatility(volatility),
    );
    db
}

/// Batched crossings recorded for the given backend slug. The counters
/// are global and monotonic, so gating assertions take deltas around a
/// single statement.
fn crossings(slug: &str) -> u64 {
    obs::global()
        .snapshot()
        .counter(&format!("udf.batch.crossings.{slug}"))
}

/// Run one statement and report (result, JSM crossings delta).
fn run_counted(db: &Database, sql: &str) -> (Vec<Tuple>, u64) {
    let before = crossings("jsm");
    let rows = db.execute(sql).unwrap().rows;
    (rows, crossings("jsm") - before)
}

/// All gating scenarios live in ONE test so the global `jsm` crossing
/// counter is never read while another scenario in this binary writes it
/// (tests in a binary run concurrently; scenarios here run sequentially,
/// and the one other JSM-driving test shares `JSM_COUNTER_LOCK`).
#[test]
fn batch_gating_end_to_end() {
    let _serial = JSM_COUNTER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let reference: Vec<Tuple> = (0..200)
        .map(|i| Tuple::new(vec![Value::Int(i * 2)]))
        .collect();

    // A Stable UDF with batching on: one crossing per 200-row relation.
    let db = dbl_db(256, Volatility::Stable, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t");
    assert_eq!(rows, reference);
    assert_eq!(delta, 1, "200 rows at batch=256 must cross exactly once");

    // Requested size 2 clamps up to MIN_BATCH=64: ceil(200/64) crossings.
    let db = dbl_db(2, Volatility::Stable, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t");
    assert_eq!(rows, reference);
    assert_eq!(delta, 4, "batch=2 must clamp to 64: 64+64+64+8 rows");

    // Requested size 1_000_000 clamps down to MAX_BATCH=1024.
    let db = dbl_db(1_000_000, Volatility::Stable, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t");
    assert_eq!(rows, reference);
    assert_eq!(delta, 1, "huge requested sizes clamp to 1024, one crossing");

    // Batch size 1 disables batching entirely.
    let db = dbl_db(1, Volatility::Stable, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t");
    assert_eq!(rows, reference);
    assert_eq!(delta, 0, "batch=1 must take the per-tuple path");

    // A Volatile UDF (the default) is never batched, whatever the config.
    let db = dbl_db(256, Volatility::Volatile, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t");
    assert_eq!(rows, reference);
    assert_eq!(delta, 0, "Volatile UDFs must keep the per-tuple cadence");

    // LIMIT without ORDER BY short-circuits: batching would over-invoke
    // past the limit, so the planner must refuse it.
    let db = dbl_db(256, Volatility::Stable, 200);
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) FROM t LIMIT 10");
    assert_eq!(rows.len(), 10);
    assert_eq!(delta, 0, "bare LIMIT must not batch");
    // ...and stops the scan at its tenth row: no invocation past the limit.
    let stats = db.execute("SELECT dbl(id) FROM t LIMIT 10").unwrap().stats;
    assert_eq!(stats.udf_invocations, 10, "bare LIMIT must stop early");
    // ...but LIMIT after a SORT materializes everything first: batchable.
    let (rows, delta) = run_counted(&db, "SELECT dbl(id) AS v FROM t ORDER BY v LIMIT 10");
    assert_eq!(rows, reference[..10].to_vec());
    assert_eq!(delta, 1, "LIMIT after ORDER BY must batch");

    // Two UDF calls in the projection: the single-UDF gate refuses.
    let (rows, delta) = run_counted(&db, "SELECT dbl(id), dbl(id) FROM t");
    assert_eq!(rows.len(), 200);
    assert_eq!(delta, 0, "two UDF projections must not batch");

    // A fallible sibling projection (id % 2 can observe evaluation order
    // on error paths): the infallible-siblings gate refuses.
    let (rows, delta) = run_counted(&db, "SELECT id % 2, dbl(id) FROM t");
    assert_eq!(rows.len(), 200);
    assert_eq!(delta, 0, "fallible sibling expressions must not batch");
}

/// The per-backend batch policy: trusted native's crossing is a plain
/// function call, so batching it pays ValueBatch accumulation for
/// nothing (BENCH_batch measured a ~7% slowdown). Even a Stable native
/// UDF under a batching config must stay on the per-tuple path.
#[test]
fn trusted_native_stays_per_tuple() {
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(256));
    db.execute("CREATE TABLE t (id INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for i in 0..200 {
        t.insert(Tuple::new(vec![Value::Int(i)])).unwrap();
    }
    let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
    let native = UdfImpl::closure(|args, _| Ok(Value::Int(args[0].as_int()? * 2)));
    db.register_udf(UdfDef::new("ndbl", sig, native).with_volatility(Volatility::Stable));
    let before = crossings("cpp");
    let rows = db.execute("SELECT ndbl(id) FROM t").unwrap().rows;
    assert_eq!(
        rows,
        (0..200)
            .map(|i| Tuple::new(vec![Value::Int(i * 2)]))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        crossings("cpp") - before,
        0,
        "trusted native must never take the batched path"
    );
}

/// Hostile bytes at the IPC boundary: frames claiming implausible batch
/// sizes must be rejected by the length caps before any allocation, in
/// both directions (server←client request replay, compromised worker
/// reply).
#[test]
fn hostile_batch_frames_are_rejected() {
    use jaguar_common::polled::{Outbox, Polled};
    use jaguar_ipc::proto::{BatchFrame, Request, Response, MAX_BATCH_ROWS};
    let mut batch = BatchFrame::default();
    // Each body arrives as one frame, as the parent or the worker sends it.
    let polled = |body: &[u8]| {
        let mut out = Outbox::new(Vec::new());
        out.send(|f| {
            f.extend_from_slice(body);
            Ok(())
        })
        .unwrap();
        let bytes = std::mem::take(out.get_mut());
        Polled::new(std::io::Cursor::new(bytes), std::sync::Arc::default())
    };

    // An InvokeBatch frame declaring one row more than the wire cap.
    let mut frame = vec![0x08u8];
    frame.extend_from_slice(&(MAX_BATCH_ROWS + 1).to_le_bytes());
    let err = Request::read(&mut polled(&frame), &mut batch).unwrap_err();
    assert!(matches!(err, JaguarError::Protocol(_)), "{err}");

    // ...and one declaring u32::MAX rows (allocation-bomb attempt).
    let mut frame = vec![0x08u8];
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = Request::read(&mut polled(&frame), &mut batch).unwrap_err();
    assert!(matches!(err, JaguarError::Protocol(_)), "{err}");

    // A truncated frame claiming the cap exactly but carrying no rows:
    // decoding must fail cleanly, not hang or pre-allocate 4096 rows.
    let mut frame = vec![0x08u8];
    frame.extend_from_slice(&MAX_BATCH_ROWS.to_le_bytes());
    assert!(Request::read(&mut polled(&frame), &mut batch).is_err());

    // A BatchReply from a compromised worker declaring u32::MAX values.
    let mut frame = vec![0x88u8];
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    let rows = MAX_BATCH_ROWS as usize;
    let err = polled(&frame)
        .read(|r| Response::read(r, rows))
        .unwrap_err();
    assert!(matches!(err, JaguarError::Protocol(_)), "{err}");
}

/// When a worker dies mid-batch the whole batch fails as one Worker
/// error, and that error costs exactly its own statement: right after
/// each all-fail batch the same UDF answers a harmless batch at once, and
/// the two statements together cost exactly the one respawn of the
/// worker the crash killed.
#[test]
fn whole_batch_crash_fails_only_its_own_statement() {
    if !worker_available() {
        return;
    }
    let db = Database::with_config(
        Config::default()
            .with_dop(1)
            .with_udf_batch_size(256)
            .with_pooled_executors(1),
    );
    db.execute("CREATE TABLE t (a INT)").unwrap();
    let t = db.catalog().table("t").unwrap();
    for _ in 0..100 {
        t.insert(Tuple::new(vec![Value::Int(1)])).unwrap();
    }
    let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
    db.register_udf(
        UdfDef::new(
            "wcrash",
            sig,
            UdfImpl::registered("crash_if_positive", Placement::Worker),
        )
        .with_volatility(Volatility::Stable),
    );
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    let before = obs::global().snapshot().counter("udf.batch.crossings.icpp");
    for round in 0..3 {
        let spawns_before = db.pool_stats().unwrap().spawns;
        let err = db.execute("SELECT wcrash(a) FROM t").unwrap_err();
        assert!(
            matches!(err, JaguarError::Worker(_)),
            "round {round}: expected a worker crash, got: {err}"
        );
        // No cooldown: a harmless batch through the same UDF runs now.
        let r = db.execute("SELECT wcrash(a - 1) FROM t").unwrap();
        assert_eq!(r.rows.len(), 100);
        assert!(r.rows.iter().all(|t| t.get(0).unwrap() == &Value::Int(0)));
        let spawned = db.pool_stats().unwrap().spawns - spawns_before;
        assert_eq!(
            spawned, 1,
            "round {round}: a crash and the statement after it spawned {spawned} workers"
        );
    }
    assert!(
        obs::global().snapshot().counter("udf.batch.crossings.icpp") >= before + 3,
        "the crashing statements must have gone through the batched path"
    );
    // Statements not touching the UDF keep working.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(100));
}

/// An explicit cancel token fired from another thread must interrupt a
/// statement between the per-row polls inside a batch.
#[test]
fn token_cancel_interrupts_a_batch() {
    // Drives a JSM UDF, which bumps the jsm crossing counter the gating
    // test takes deltas of — serialize with it.
    let _serial = JSM_COUNTER_LOCK
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(256));
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..1000 {
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Bytes(ByteArray::patterned(100, i as u64)),
        ]))
        .unwrap();
    }
    db.register_udf(def_vm(true, ResourceLimits::default()));
    let token = db.statement_token();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            token.cancel();
        })
    };
    let err = db
        .execute(
            Request::from("SELECT generic_vm(bytearray, 2000000, 0, 0) FROM rel")
                .with_token(&token),
        )
        .unwrap_err();
    canceller.join().unwrap();
    assert!(
        matches!(err, JaguarError::Cancelled(_) | JaguarError::Timeout(_)),
        "expected mid-batch cancellation, got: {err}"
    );
    let r = db.execute("SELECT COUNT(*) FROM rel").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(1000));
}

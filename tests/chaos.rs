//! Fault-injection (chaos) tests: arm the named fault sites from
//! `jaguar_common::fault` and assert the engine degrades cleanly — errors
//! are contained, connections and pools recover, nothing hangs.
//!
//! Fault sites are process-global (and, for worker faults, inherited via
//! the environment), so every test in this binary serialises on one mutex.

use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use jaguar_common::fault;
use jaguar_core::{
    Client, ClientOptions, Config, DataType, Database, JaguarError, Placement, SyncMode, UdfDef,
    UdfImpl, UdfSignature, Value, Volatility,
};
use jaguar_ipc::find_worker_binary;

static CHAOS: Mutex<()> = Mutex::new(());

const WORKER_SITE: &str = "ipc.worker.drop_mid_reply";
const NET_SITE: &str = "net.server.drop_mid_response";
const SITES_ENV: &str = "JAGUAR_FAULT_SITES";

/// A worker that dies *after* executing the UDF but *before* writing its
/// reply: the parent sees a clean worker-death error, and once the fault
/// is disarmed a respawned worker serves the same query successfully.
#[test]
fn worker_death_mid_reply_is_contained_and_recovered() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    if find_worker_binary().is_err() {
        eprintln!("skipping chaos test: jaguar-worker not built");
        return;
    }

    // Arm before the pool spawns, so workers inherit the site. Each worker
    // process consumes its own single armed shot on its first invoke.
    std::env::set_var(SITES_ENV, format!("{WORKER_SITE}=1"));
    let db = Database::with_config(Config::default().with_pooled_executors(1));
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    let err = db.execute("SELECT wnoop(a) FROM t").unwrap_err();
    std::env::remove_var(SITES_ENV);
    assert!(
        matches!(err, JaguarError::Worker(_)),
        "mid-reply death must surface as a worker error, got: {err}"
    );
    assert!(err.is_containable(), "{err}");

    // Recovery may take a couple of attempts: a replacement worker spawned
    // while the env var was still set carries one more armed shot.
    let mut recovered = false;
    for _ in 0..5 {
        if db.execute("SELECT wnoop(a) FROM t").is_ok() {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "pool must recover once the fault is disarmed");
    assert!(db.pool_stats().unwrap().crashes >= 1);
}

/// The server drops the connection halfway through writing a response
/// frame: the client gets an error (not a hang, not a corrupt result),
/// and a fresh connection works because the site was armed for one shot.
#[test]
fn connection_dropped_mid_response_surfaces_cleanly() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    let server = db.serve("127.0.0.1:0").unwrap();

    jaguar_common::fault::arm(NET_SITE, 1);
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .execute("SELECT a FROM t")
        .expect_err("half-written frame must error at the client");
    let msg = err.to_string();
    assert!(!msg.is_empty(), "{msg}");

    // One shot only: a new connection gets a full, correct response.
    let mut client = Client::connect(server.addr()).unwrap();
    let r = client.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows.len(), 3);
}

/// Satellite regression: a half-open server (accepts the TCP connection,
/// never speaks the protocol) must trip the client's read timeout instead
/// of hanging the caller forever.
#[test]
fn client_read_timeout_survives_half_open_server() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let silent = std::thread::spawn(move || {
        // Accept and hold the socket open without ever responding.
        let _conn = listener.accept();
        std::thread::sleep(Duration::from_secs(5));
    });

    // No retry: a hang would otherwise be retried into a longer hang.
    let options = ClientOptions {
        connect_timeout: Duration::from_secs(2),
        read_timeout: Some(Duration::from_millis(300)),
        write_timeout: Some(Duration::from_secs(2)),
        ..ClientOptions::default().no_retry()
    };
    let mut client = Client::connect_with(addr, options).unwrap();
    let start = Instant::now();
    let err = client
        .execute("SELECT 1")
        .expect_err("silent server must not hang the client");
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(4),
        "read timeout must fire promptly, took {elapsed:?} ({err})"
    );
    silent.join().unwrap();
}

/// A read that timed out leaves its statement's reply on the way: the
/// connection is out of step, and the next statement fails instead of
/// taking that late reply for its own. The first statement is held at a
/// gate until the client's read timeout has fired, then let go.
#[test]
fn a_timed_out_read_never_hands_its_late_reply_to_the_next_statement() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    let db = Database::in_memory();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let (release, held) = mpsc::channel::<()>();
    let held = Mutex::new(held);
    db.register_native_udf_with_volatility(
        "gate",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        Volatility::Volatile,
        move |_, _| {
            let _ = held.lock().unwrap().recv();
            Ok(Value::Int(-1))
        },
    );
    let server = db.serve("127.0.0.1:0").unwrap();
    let options = ClientOptions {
        read_timeout: Some(Duration::from_millis(200)),
        ..ClientOptions::default().no_retry()
    };
    let mut client = Client::connect_with(server.addr(), options).unwrap();
    let timed_out = client
        .execute("SELECT gate(a) FROM t")
        .expect_err("the gate holds the statement past the read timeout");
    release.send(()).unwrap();
    match client.execute("SELECT a FROM t") {
        Ok(stale) => panic!("the next statement got a late reply: {:?}", stale.rows),
        Err(e) => assert!(e.to_string().contains(&timed_out.to_string()), "{e}"),
    }
    let mut fresh = Client::connect_with(server.addr(), options).unwrap();
    let r = fresh.execute("SELECT a FROM t").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(1)].into()]);
}

/// A synchronized connection flood at 2x (capacity + queue depth): every
/// session either completes its statement or is shed with a retryable
/// `ServerBusy` inside the admission window — never a hang, a protocol
/// error, or a dropped connection — and every session thread joins, so
/// nothing leaks. Capacity-many sessions are admitted immediately and the
/// FIFO queue admits up to `depth` more as permits free up.
#[test]
fn connection_flood_sheds_cleanly_and_leaks_no_threads() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    const CAP: usize = 2;
    const DEPTH: usize = 2;
    const FLOOD: usize = 2 * (CAP + DEPTH);
    const TIMEOUT_MS: u64 = 400;

    let db = Database::with_config(Config {
        max_connections: CAP,
        admission_queue_depth: DEPTH,
        admission_timeout_ms: TIMEOUT_MS,
        ..Config::default()
    });
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    // Hold each admitted permit for a beat so the flood actually contends;
    // a bare SELECT drains faster than the flood can form.
    db.register_native_udf(
        "hold",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        |args, _| {
            std::thread::sleep(Duration::from_millis(60));
            Ok(args[0].clone())
        },
    );
    let server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let before = db.metrics();

    let barrier = Arc::new(Barrier::new(FLOOD));
    let handles: Vec<_> = (0..FLOOD)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c =
                    Client::connect_with(addr, ClientOptions::default().no_retry()).unwrap();
                barrier.wait();
                let start = Instant::now();
                (c.execute("SELECT hold(id) FROM t"), start.elapsed())
            })
        })
        .collect();

    let (mut ok, mut shed) = (0usize, 0usize);
    for h in handles {
        // A panic here is a leaked/poisoned session thread — the flood
        // must never take one down.
        let (res, elapsed) = h.join().expect("session thread panicked under flood");
        match res {
            Ok(r) => {
                assert_eq!(r.rows.len(), 1);
                ok += 1;
            }
            Err(JaguarError::ServerBusy { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "shed must carry a retry hint");
                // A shed is bounded by the admission window (plus slack for
                // a loaded CI host), not by the queue ahead of it.
                assert!(
                    elapsed < Duration::from_millis(TIMEOUT_MS + 2_000),
                    "shed took {elapsed:?}"
                );
                shed += 1;
            }
            Err(e) => panic!("flood must shed with ServerBusy, got: {e}"),
        }
    }
    assert_eq!(ok + shed, FLOOD);
    // Capacity is always admitted; with the queue draining behind the
    // 60 ms holds, at least capacity + depth statements complete.
    assert!(ok >= CAP + DEPTH, "only {ok}/{FLOOD} admitted");

    let after = db.metrics();
    let queued = after.counter("net.admission.queued") - before.counter("net.admission.queued");
    let shed_metric = after.counter("net.admission.shed") - before.counter("net.admission.shed");
    assert_eq!(shed_metric as usize, shed, "shed metric must match sheds");
    assert!(queued >= 1, "flood at 4x capacity must exercise the queue");

    // The server is healthy afterwards: a fresh session runs immediately.
    let mut probe = Client::connect_with(addr, ClientOptions::default()).unwrap();
    assert_eq!(probe.execute("SELECT id FROM t").unwrap().rows.len(), 1);
}

/// An injected fsync failure during group commit fails its statement and
/// stops the log: reads keep working, every later commit, DDL statement
/// and `close` is refused, naming the fsync error, and only a reopen
/// (which replays the log) brings the database back. The failed commit's
/// row is in doubt, like any commit whose reply was lost; nothing after
/// it survives.
#[test]
fn injected_fsync_failure_stops_the_log_until_reopen() {
    let _guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    let dir = std::env::temp_dir().join(format!("jaguar-chaos-fsync-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let db = Database::open(&dir, Config::default().with_sync_mode(SyncMode::Full)).unwrap();
    db.execute("CREATE TABLE t (id INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    // One failed fsync; the disk works again at once.
    fault::arm("wal.fsync", 1);
    let err = db
        .execute("INSERT INTO t VALUES (2)")
        .expect_err("commit cannot succeed with fsync failing")
        .to_string();
    fault::disarm("wal.fsync");
    assert!(err.contains("injected fault at wal.fsync"), "{err}");

    // Reads still work: row 2 is in memory, under no-steal protection.
    assert_eq!(db.execute("SELECT id FROM t").unwrap().rows.len(), 2);

    let refused = |what: &str, res: Result<(), JaguarError>| {
        let refusal = res.expect_err(what).to_string();
        assert!(
            refusal.contains("stopped") && refusal.contains(&err),
            "{what}: {refusal}"
        );
    };
    let run = |sql| db.execute(sql).map(|_| ());
    refused("insert", run("INSERT INTO t VALUES (3)"));
    refused("create", run("CREATE TABLE u (id INT)"));
    refused("drop", run("DROP TABLE t"));
    refused("label", db.set_table_label("t", Some("TRUE")));
    refused("close", db.close());

    let db = Database::open(&dir, Config::default().with_sync_mode(SyncMode::Full)).unwrap();
    let r = db.execute("SELECT id FROM t ORDER BY id").unwrap();
    let ids: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row.get(0).unwrap() {
            Value::Int(i) => *i,
            other => panic!("expected int, got {other:?}"),
        })
        .collect();
    assert!(ids == [1] || ids == [1, 2], "{ids:?}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

//! Overload acceptance test (jaguar-guard): drive a server at ≥4x its
//! admission capacity and assert the degradation contract end to end —
//! zero panics or poisoned engines, sheds bounded by the admission
//! window, a control plane that keeps answering throughout, and a
//! post-load engine that serves queries immediately.
//!
//! The full harness with latency quantiles and the `BENCH_load.json`
//! artifact lives in `jaguar-bench` (`cargo run -p jaguar-bench --bin
//! loadtest`); this test is the tier-1 distillation of its gate.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jaguar_core::{
    Client, ClientOptions, Config, DataType, Database, JaguarError, UdfSignature, Value,
};

const CAP: usize = 2;
const DEPTH: usize = 2;
const SESSIONS: usize = 4 * CAP; // 4x the admission capacity
const STATEMENTS: usize = 30;
const TIMEOUT_MS: u64 = 300;

#[test]
fn overload_at_4x_capacity_degrades_gracefully() {
    let db = Database::with_config(Config {
        max_connections: CAP,
        admission_queue_depth: DEPTH,
        admission_timeout_ms: TIMEOUT_MS,
        // A small retry budget: sheds are expected and absorbed, but an
        // exhausted budget must still surface as ServerBusy, not panic.
        client_retry_attempts: 3,
        client_retry_base_ms: 5,
        ..Config::default()
    });
    db.execute("CREATE TABLE load (id INT, b BYTEARRAY)")
        .unwrap();
    for i in 0..32 {
        db.execute(&format!("INSERT INTO load VALUES ({i}, X'2a17')"))
            .unwrap();
    }
    // A sandboxed JagScript UDF keeps the VM in the loop without needing
    // the worker binary.
    db.register_jagscript_udf(
        "lb",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 { return b[0]; }",
        jaguar_core::UdfDesign::Sandboxed,
    )
    .unwrap();

    let before = db.metrics();
    let mut server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();

    // Control-plane prober: pings and metrics must be served for the
    // whole storm — admission never gates them.
    let stop_probe = Arc::new(AtomicBool::new(false));
    let probe_failures = Arc::new(AtomicU64::new(0));
    let prober = {
        let stop = Arc::clone(&stop_probe);
        let failures = Arc::clone(&probe_failures);
        std::thread::spawn(move || {
            let mut c = match Client::connect_with(addr, ClientOptions::default().no_retry()) {
                Ok(c) => c,
                Err(_) => return failures.store(u64::MAX, Ordering::SeqCst),
            };
            while !stop.load(Ordering::SeqCst) {
                if c.ping().is_err() || c.metrics().is_err() {
                    failures.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let statements = [
        "SELECT id FROM load WHERE id >= 8",
        "SELECT lb(b) FROM load WHERE id < 16",
        "INSERT INTO load VALUES (99, X'05ff')",
        "DELETE FROM load WHERE id = 99",
    ];
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|s| {
            std::thread::spawn(move || -> (usize, usize, Duration) {
                let opts = ClientOptions {
                    retry: jaguar_core::retry::RetryPolicy {
                        max_attempts: 3,
                        base_delay_ms: 5,
                        max_delay_ms: 50,
                        seed: s as u64,
                    },
                    ..ClientOptions::default()
                };
                let mut c = Client::connect_with(addr, opts).unwrap();
                let (mut ok, mut shed) = (0usize, 0usize);
                let mut max_shed = Duration::ZERO;
                for i in 0..STATEMENTS {
                    let stmt = statements[(s + i) % statements.len()];
                    let start = Instant::now();
                    match c.execute(stmt) {
                        Ok(_) => ok += 1,
                        Err(JaguarError::ServerBusy { .. }) => {
                            shed += 1;
                            max_shed = max_shed.max(start.elapsed());
                        }
                        // Anything else — a protocol error, a poisoned
                        // engine — fails the test.
                        Err(e) => panic!("session {s} statement {i} failed hard: {e}"),
                    }
                }
                (ok, shed, max_shed)
            })
        })
        .collect();

    let (mut ok, mut shed) = (0usize, 0usize);
    let mut max_shed = Duration::ZERO;
    for h in sessions {
        let (o, s, m) = h.join().expect("no session thread may panic under load");
        ok += o;
        shed += s;
        max_shed = max_shed.max(m);
    }
    stop_probe.store(true, Ordering::SeqCst);
    prober.join().unwrap();

    // Work got done, and whatever was shed stayed inside the admission
    // window: per attempt the server holds a request at most TIMEOUT_MS,
    // so 3 attempts with capped backoff bound the observed latency.
    assert_eq!(ok + shed, SESSIONS * STATEMENTS);
    assert!(ok > 0, "an overloaded server must still complete work");
    let bound = Duration::from_millis(3 * (TIMEOUT_MS + 50) + 2_000);
    assert!(
        max_shed < bound,
        "shed latency {max_shed:?} exceeds {bound:?}"
    );

    // The control plane was answered for the entire storm.
    assert_eq!(
        probe_failures.load(Ordering::SeqCst),
        0,
        "control plane starved during overload"
    );

    // Post-load: the engine is not poisoned — a fresh session queries
    // data and the sandboxed UDF immediately.
    let mut post = Client::connect_with(addr, ClientOptions::default()).unwrap();
    let r = post.execute("SELECT lb(b) FROM load WHERE id = 0").unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(0x2a));
    server.stop();

    // Overload is not failure: the admission path (not errors) absorbed
    // the excess.
    let after = db.metrics();
    let rejected = after.counter("net.rejected_busy") - before.counter("net.rejected_busy");
    let queued = after.counter("net.admission.queued") - before.counter("net.admission.queued");
    assert!(
        queued > 0 || rejected > 0,
        "a 4x storm must exercise the admission gate (queued={queued}, rejected={rejected})"
    );
}

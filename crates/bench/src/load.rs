//! Overload loadtest harness — the proof artifact for jaguar-guard.
//!
//! Drives N concurrent mixed read/write/UDF sessions through a real TCP
//! server whose admission capacity is deliberately a fraction of the
//! offered load, then reports what the overload machinery did about it:
//!
//! * client-side: per-statement latency quantiles, successful statements,
//!   clean `ServerBusy` sheds (after the client's bounded retries), and
//!   any *other* error — which the acceptance gate treats as a failure,
//!   because overload must only ever surface as a retryable shed;
//! * server-side (metric deltas): admission queueing/shedding and retry
//!   traffic;
//! * liveness: a control-plane prober runs Ping/Metrics on a separate
//!   connection throughout the storm (the gate always admits the control
//!   plane), and a post-load probe proves the engine is unpoisoned —
//!   a fresh session executes normally once pressure drains.
//!
//! [`run_load`] returns a [`LoadReport`]; the `loadtest` binary renders
//! it as `BENCH_load.json` (stamped with `host_cores`/`degraded_host`
//! like every timing-oriented BENCH artifact).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use jaguar_core::{
    Client, ClientOptions, Config, DataType, Database, JaguarError, Result, UdfDesign, UdfSignature,
};

/// Shape of one loadtest run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client sessions (the offered load).
    pub sessions: usize,
    /// Statements each session attempts.
    pub statements_per_session: usize,
    /// Server admission capacity (`Config::max_connections`).
    pub max_connections: usize,
    /// Admission queue depth behind the capacity.
    pub admission_queue_depth: usize,
    /// Queue-wait bound; also the shed's `retry_after_ms` hint.
    pub admission_timeout_ms: u64,
}

impl LoadConfig {
    /// CI-sized run: 4× capacity for a few hundred statements — enough to
    /// drive the gate through queueing and shedding in a couple seconds.
    pub fn smoke() -> LoadConfig {
        LoadConfig {
            sessions: 8,
            statements_per_session: 25,
            max_connections: 2,
            admission_queue_depth: 2,
            admission_timeout_ms: 250,
        }
    }

    /// The default standalone run (still 4× capacity, more of it).
    pub fn standard() -> LoadConfig {
        LoadConfig {
            sessions: 32,
            statements_per_session: 50,
            max_connections: 8,
            admission_queue_depth: 8,
            admission_timeout_ms: 500,
        }
    }

    /// Offered load over admission capacity.
    pub fn overload_factor(&self) -> f64 {
        self.sessions as f64 / self.max_connections.max(1) as f64
    }
}

/// Everything one loadtest run produced. Serialized to `BENCH_load.json`.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub sessions: usize,
    pub max_connections: usize,
    pub admission_queue_depth: usize,
    pub admission_timeout_ms: u64,
    pub statements_attempted: u64,
    pub statements_ok: u64,
    /// Statements shed with a clean `ServerBusy` (after client retries).
    pub busy_sheds: u64,
    /// Statements failing with anything else — must be zero.
    pub other_errors: u64,
    pub elapsed_s: f64,
    pub throughput_stmts_per_s: f64,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Slowest observed shed round trip — bounded by the admission
    /// timeout plus the client's retry backoff.
    pub max_shed_latency_ms: u64,
    /// Server metric deltas over the run.
    pub admission_queued: u64,
    pub admission_shed: u64,
    pub retry_attempts: u64,
    pub retry_exhausted: u64,
    /// Control-plane probes served / attempted during the storm.
    pub control_probes_ok: u64,
    pub control_probes_total: u64,
    /// A fresh post-load session executed a statement successfully.
    pub post_load_ok: bool,
    pub host_cores: usize,
    pub degraded_host: bool,
}

impl LoadReport {
    /// The jaguar-guard acceptance gate: under ≥4× capacity the run must
    /// finish with zero panics (implied by a report existing), zero
    /// non-busy errors, a live control plane, an unpoisoned engine, and
    /// some completed work.
    pub fn acceptable(&self) -> bool {
        self.other_errors == 0
            && self.post_load_ok
            && self.control_probes_ok == self.control_probes_total
            && self.statements_ok > 0
    }

    /// Render as the `BENCH_load.json` document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"load\",\n  \"sessions\": {},\n  \
             \"max_connections\": {},\n  \"admission_queue_depth\": {},\n  \
             \"admission_timeout_ms\": {},\n  \"statements_attempted\": {},\n  \
             \"statements_ok\": {},\n  \"busy_sheds\": {},\n  \
             \"other_errors\": {},\n  \"elapsed_s\": {:.3},\n  \
             \"throughput_stmts_per_s\": {:.1},\n  \"p50_us\": {},\n  \
             \"p99_us\": {},\n  \"max_shed_latency_ms\": {},\n  \
             \"admission_queued\": {},\n  \"admission_shed\": {},\n  \
             \"retry_attempts\": {},\n  \"retry_exhausted\": {},\n  \
             \"control_probes_ok\": {},\n  \
             \"control_probes_total\": {},\n  \"post_load_ok\": {},\n  \
             \"acceptable\": {},\n  \"host_cores\": {},\n  \
             \"degraded_host\": {}\n}}\n",
            self.sessions,
            self.max_connections,
            self.admission_queue_depth,
            self.admission_timeout_ms,
            self.statements_attempted,
            self.statements_ok,
            self.busy_sheds,
            self.other_errors,
            self.elapsed_s,
            self.throughput_stmts_per_s,
            self.p50_us,
            self.p99_us,
            self.max_shed_latency_ms,
            self.admission_queued,
            self.admission_shed,
            self.retry_attempts,
            self.retry_exhausted,
            self.control_probes_ok,
            self.control_probes_total,
            self.post_load_ok,
            self.acceptable(),
            self.host_cores,
            self.degraded_host,
        )
    }
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// Run one loadtest: build an overload-shaped server, storm it, and
/// account for every statement. See the module docs for the contract.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport> {
    let db = Database::with_config(Config {
        max_connections: cfg.max_connections,
        admission_queue_depth: cfg.admission_queue_depth,
        admission_timeout_ms: cfg.admission_timeout_ms,
        client_retry_attempts: 3,
        client_retry_base_ms: 5,
        ..Config::default()
    });
    db.execute("CREATE TABLE load (id INT, b BYTEARRAY)")?;
    for i in 0..64 {
        db.execute(&format!("INSERT INTO load VALUES ({i}, X'0A0B0C')"))?;
    }
    // A sandboxed JagScript UDF: exercises the VM path without needing
    // the worker binary.
    db.register_jagscript_udf(
        "lb",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        "fn main(b: bytes) -> i64 { return b[0]; }",
        UdfDesign::Sandboxed,
    )?;
    let before = db.metrics();
    let mut server = db.serve("127.0.0.1:0")?;
    let addr = server.addr();
    let options = ClientOptions::from_config(&Config {
        client_retry_attempts: 3,
        client_retry_base_ms: 5,
        ..Config::default()
    });

    let ok = Arc::new(AtomicU64::new(0));
    let sheds = Arc::new(AtomicU64::new(0));
    let others = Arc::new(AtomicU64::new(0));
    let max_shed_ms = Arc::new(AtomicU64::new(0));
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let first_other: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
    let storming = Arc::new(AtomicBool::new(true));

    // Control-plane prober: Ping + Metrics on its own connection for the
    // whole storm. The admission gate never queues these.
    let probes_ok = Arc::new(AtomicU64::new(0));
    let probes_total = Arc::new(AtomicU64::new(0));
    let prober = {
        let (storming, probes_ok, probes_total) = (
            Arc::clone(&storming),
            Arc::clone(&probes_ok),
            Arc::clone(&probes_total),
        );
        std::thread::spawn(move || {
            let mut c = match Client::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            while storming.load(Ordering::SeqCst) {
                probes_total.fetch_add(2, Ordering::SeqCst);
                if c.ping().is_ok() {
                    probes_ok.fetch_add(1, Ordering::SeqCst);
                }
                if c.metrics().is_ok() {
                    probes_ok.fetch_add(1, Ordering::SeqCst);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        })
    };

    let started = Instant::now();
    let mut handles = Vec::new();
    for s in 0..cfg.sessions {
        let (ok, sheds, others, max_shed_ms, latencies, first_other) = (
            Arc::clone(&ok),
            Arc::clone(&sheds),
            Arc::clone(&others),
            Arc::clone(&max_shed_ms),
            Arc::clone(&latencies),
            Arc::clone(&first_other),
        );
        let statements = cfg.statements_per_session;
        handles.push(std::thread::spawn(move || {
            let mut c = match Client::connect_with(addr, options) {
                Ok(c) => c,
                Err(e) => {
                    others.fetch_add(statements as u64, Ordering::SeqCst);
                    let mut fo = first_other.lock().unwrap_or_else(|p| p.into_inner());
                    fo.get_or_insert(format!("connect: {e}"));
                    return;
                }
            };
            let mut local = Vec::with_capacity(statements);
            for j in 0..statements {
                let sql = match j % 4 {
                    0 => "SELECT lb(b) FROM load WHERE id >= 10".to_string(),
                    1 => "SELECT id FROM load WHERE id < 32".to_string(),
                    2 => format!("INSERT INTO load VALUES ({}, X'01')", 1_000 + s * 1_000 + j),
                    _ => "SELECT lb(b) FROM load".to_string(),
                };
                let t0 = Instant::now();
                match c.execute(&sql) {
                    Ok(_) => {
                        local.push(t0.elapsed().as_micros() as u64);
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(JaguarError::ServerBusy { .. }) => {
                        sheds.fetch_add(1, Ordering::SeqCst);
                        max_shed_ms.fetch_max(t0.elapsed().as_millis() as u64, Ordering::SeqCst);
                    }
                    Err(e) => {
                        others.fetch_add(1, Ordering::SeqCst);
                        let mut fo = first_other.lock().unwrap_or_else(|p| p.into_inner());
                        fo.get_or_insert(format!("{sql}: {e}"));
                    }
                }
            }
            latencies
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend(local);
        }));
    }
    for h in handles {
        h.join()
            .map_err(|_| JaguarError::Other("loadtest session thread panicked".into()))?;
    }
    let elapsed = started.elapsed();
    storming.store(false, Ordering::SeqCst);
    let _ = prober.join();

    // Post-load probe: pressure has drained, a fresh session must work.
    let post_load_ok = Client::connect(addr)
        .and_then(|mut c| c.execute("SELECT id FROM load WHERE id = 1"))
        .map(|r| r.rows.len() == 1)
        .unwrap_or(false);
    server.stop();

    let after = db.metrics();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let mut lats = latencies.lock().unwrap_or_else(|p| p.into_inner()).clone();
    lats.sort_unstable();
    let statements_ok = ok.load(Ordering::SeqCst);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores == 1 {
        eprintln!(
            "WARNING: loadtest ran on a single-core host; latency quantiles are \
             unrepresentative. Stamping \"degraded_host\": true."
        );
    }
    if let Some(e) = first_other
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .as_ref()
    {
        eprintln!("loadtest: first non-busy error: {e}");
    }

    Ok(LoadReport {
        sessions: cfg.sessions,
        max_connections: cfg.max_connections,
        admission_queue_depth: cfg.admission_queue_depth,
        admission_timeout_ms: cfg.admission_timeout_ms,
        statements_attempted: (cfg.sessions * cfg.statements_per_session) as u64,
        statements_ok,
        busy_sheds: sheds.load(Ordering::SeqCst),
        other_errors: others.load(Ordering::SeqCst),
        elapsed_s: elapsed.as_secs_f64(),
        throughput_stmts_per_s: statements_ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_us: percentile(&lats, 0.50),
        p99_us: percentile(&lats, 0.99),
        max_shed_latency_ms: max_shed_ms.load(Ordering::SeqCst),
        admission_queued: delta("net.admission.queued"),
        admission_shed: delta("net.admission.shed"),
        retry_attempts: delta("retry.attempts"),
        retry_exhausted: delta("retry.exhausted"),
        control_probes_ok: probes_ok.load(Ordering::SeqCst),
        control_probes_total: probes_total.load(Ordering::SeqCst),
        post_load_ok,
        host_cores: cores,
        degraded_host: cores == 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_sane_indices() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let r = LoadReport {
            sessions: 8,
            max_connections: 2,
            admission_queue_depth: 2,
            admission_timeout_ms: 250,
            statements_attempted: 200,
            statements_ok: 180,
            busy_sheds: 20,
            other_errors: 0,
            elapsed_s: 1.5,
            throughput_stmts_per_s: 120.0,
            p50_us: 900,
            p99_us: 9_000,
            max_shed_latency_ms: 300,
            admission_queued: 40,
            admission_shed: 20,
            retry_attempts: 25,
            retry_exhausted: 20,
            control_probes_ok: 50,
            control_probes_total: 50,
            post_load_ok: true,
            host_cores: 8,
            degraded_host: false,
        };
        assert!(r.acceptable());
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"load\""));
        assert!(json.contains("\"busy_sheds\": 20"));
        assert!(json.contains("\"degraded_host\": false"));
        assert!(json.contains("\"acceptable\": true"));
        // Balanced braces — the hand-rolled JSON stays well-formed.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}

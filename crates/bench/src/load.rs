//! Overload loadtest harness — the proof artifact for jaguar-guard.
//!
//! Drives N concurrent mixed read/write/UDF sessions through a real TCP
//! server whose admission capacity is deliberately a fraction of the
//! offered load, then reports what the overload machinery did about it:
//!
//! * client-side: per-statement latencies, successful statements,
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
//! [`run_load`] returns a [`LoadReport`]; the `loadtest` binary writes
//! it as `BENCH_load.json` through the one table writer
//! ([`Table::write_json`]), and the tier-1 test `tests/loadtest.rs` asserts
//! [`LoadReport::acceptable`] on a smoke-sized run.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jaguar_core::{
    Client, ClientOptions, Config, DataType, Database, JaguarError, Result, UdfDesign,
    UdfSignature, Value,
};

use crate::report::{Cell, Table};

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
    pub cfg: LoadConfig,
    pub statements_attempted: u64,
    pub statements_ok: u64,
    /// Statements shed with a clean `ServerBusy` (after client retries).
    pub busy_sheds: u64,
    /// Statements failing with anything else — must be zero.
    pub other_errors: u64,
    pub elapsed_ms: u64,
    pub throughput_stmts_per_s: u64,
    /// Seconds per successful statement.
    pub latencies: Vec<f64>,
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
    /// A fresh post-load session ran the sandboxed UDF and got the
    /// expected value.
    pub post_load_ok: bool,
}

impl LoadReport {
    /// The jaguar-guard acceptance gate: under ≥4× capacity the run must
    /// finish with zero panics (implied by a report existing), zero
    /// non-busy errors, some completed work, sheds inside the admission
    /// window (three attempts of the admission timeout plus backoff, and
    /// 2 s of slack), an exercised admission gate, a control plane that
    /// answered every probe, and an unpoisoned engine.
    pub fn acceptable(&self) -> bool {
        self.other_errors == 0
            && self.statements_ok > 0
            && self.max_shed_latency_ms < 3 * (self.cfg.admission_timeout_ms + 50) + 2_000
            && self.admission_queued + self.admission_shed > 0
            && self.control_probes_total > 0
            && self.control_probes_ok == self.control_probes_total
            && self.post_load_ok
    }

    /// The report as a one-row table, the shape `BENCH_load.json` takes.
    pub fn to_table(&self) -> Table {
        let counts: [(&str, u64); 18] = [
            ("sessions", self.cfg.sessions as u64),
            ("max_connections", self.cfg.max_connections as u64),
            (
                "admission_queue_depth",
                self.cfg.admission_queue_depth as u64,
            ),
            ("admission_timeout_ms", self.cfg.admission_timeout_ms),
            ("statements_attempted", self.statements_attempted),
            ("statements_ok", self.statements_ok),
            ("busy_sheds", self.busy_sheds),
            ("other_errors", self.other_errors),
            ("elapsed_ms", self.elapsed_ms),
            ("throughput_stmts_per_s", self.throughput_stmts_per_s),
            ("max_shed_latency_ms", self.max_shed_latency_ms),
            ("admission_queued", self.admission_queued),
            ("admission_shed", self.admission_shed),
            ("retry_attempts", self.retry_attempts),
            ("retry_exhausted", self.retry_exhausted),
            ("control_probes_ok", self.control_probes_ok),
            ("control_probes_total", self.control_probes_total),
            ("post_load_ok", self.post_load_ok as u64),
        ];
        let mut header: Vec<&str> = counts.iter().map(|(k, _)| *k).collect();
        header.extend(["latency", "acceptable"]);
        let mut t = Table::new("E15 — overload loadtest", &header);
        let mut row: Vec<Cell> = counts.iter().map(|&(_, v)| Cell::from(v)).collect();
        row.push(if self.latencies.is_empty() {
            Cell::text("none completed")
        } else {
            Cell::series(self.latencies.clone())
        });
        row.push(Cell::text(if self.acceptable() { "yes" } else { "no" }));
        t.row(row);
        t
    }
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

    let storming = AtomicBool::new(true);
    let (probes_ok, probes_total) = (AtomicU64::new(0), AtomicU64::new(0));
    let started = Instant::now();
    let (sessions, elapsed) = std::thread::scope(|scope| {
        // Control-plane prober: Ping + Metrics on its own connection for the
        // whole storm. The admission gate never queues these.
        scope.spawn(|| {
            let Ok(mut c) = Client::connect(addr) else {
                return;
            };
            while storming.load(Ordering::SeqCst) {
                probes_total.fetch_add(2, Ordering::SeqCst);
                let answered = c.ping().is_ok() as u64 + c.metrics().is_ok() as u64;
                probes_ok.fetch_add(answered, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|s| scope.spawn(move || session(addr, options, s, cfg.statements_per_session)))
            .collect();
        let sessions: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        let elapsed = started.elapsed();
        storming.store(false, Ordering::SeqCst);
        (sessions, elapsed)
    });
    let mut all = Tally::default();
    for s in sessions {
        let s = s.map_err(|_| JaguarError::Other("loadtest session thread panicked".into()))?;
        all.sheds += s.sheds;
        all.others += s.others;
        all.max_shed_ms = all.max_shed_ms.max(s.max_shed_ms);
        all.latencies.extend(s.latencies);
        all.first_other = all.first_other.or(s.first_other);
    }

    // Post-load probe: pressure has drained, a fresh session must run the
    // sandboxed UDF and get the first byte of row 1 back.
    let post_load_ok = Client::connect(addr)
        .and_then(|mut c| c.execute("SELECT lb(b) FROM load WHERE id = 1"))
        .map(|r| r.rows.len() == 1 && r.rows[0].get(0).ok() == Some(&Value::Int(0x0A)))
        .unwrap_or(false);
    server.stop();

    let after = db.metrics();
    let delta = |name: &str| after.counter(name).saturating_sub(before.counter(name));
    let statements_ok = all.latencies.len() as u64;
    if let Some(e) = &all.first_other {
        eprintln!("loadtest: first non-busy error: {e}");
    }

    Ok(LoadReport {
        cfg: cfg.clone(),
        statements_attempted: (cfg.sessions * cfg.statements_per_session) as u64,
        statements_ok,
        busy_sheds: all.sheds,
        other_errors: all.others,
        elapsed_ms: elapsed.as_millis() as u64,
        throughput_stmts_per_s: (statements_ok as f64 / elapsed.as_secs_f64()) as u64,
        latencies: all.latencies,
        max_shed_latency_ms: all.max_shed_ms,
        admission_queued: delta("net.admission.queued"),
        admission_shed: delta("net.admission.shed"),
        retry_attempts: delta("retry.attempts"),
        retry_exhausted: delta("retry.exhausted"),
        control_probes_ok: probes_ok.load(Ordering::SeqCst),
        control_probes_total: probes_total.load(Ordering::SeqCst),
        post_load_ok,
    })
}

/// What one client session's statements came to.
#[derive(Default)]
struct Tally {
    sheds: u64,
    others: u64,
    max_shed_ms: u64,
    /// Seconds per successful statement.
    latencies: Vec<f64>,
    first_other: Option<String>,
}

/// One client session: `statements` statements of the mix, each timed.
fn session(addr: SocketAddr, options: ClientOptions, s: usize, statements: usize) -> Tally {
    let mut t = Tally::default();
    let mut c = match Client::connect_with(addr, options) {
        Ok(c) => c,
        Err(e) => {
            t.others = statements as u64;
            t.first_other = Some(format!("connect: {e}"));
            return t;
        }
    };
    for j in 0..statements {
        // Each session inserts rows of its own and deletes them again, so
        // writers never touch another session's rows.
        let own = 1_000 + s * 1_000 + j / 5;
        let sql = match j % 5 {
            0 => "SELECT lb(b) FROM load WHERE id >= 10".to_string(),
            1 => "SELECT id FROM load WHERE id < 32".to_string(),
            2 => format!("INSERT INTO load VALUES ({own}, X'01')"),
            3 => format!("DELETE FROM load WHERE id = {own}"),
            _ => "SELECT lb(b) FROM load".to_string(),
        };
        let t0 = Instant::now();
        match c.execute(&sql) {
            Ok(_) => t.latencies.push(t0.elapsed().as_secs_f64()),
            Err(JaguarError::ServerBusy { .. }) => {
                t.sheds += 1;
                t.max_shed_ms = t.max_shed_ms.max(t0.elapsed().as_millis() as u64);
            }
            Err(e) => {
                t.others += 1;
                t.first_other.get_or_insert(format!("{sql}: {e}"));
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> LoadReport {
        LoadReport {
            cfg: LoadConfig::smoke(),
            statements_attempted: 200,
            statements_ok: 180,
            busy_sheds: 20,
            other_errors: 0,
            elapsed_ms: 1_500,
            throughput_stmts_per_s: 120,
            latencies: vec![0.0009; 180],
            max_shed_latency_ms: 300,
            admission_queued: 40,
            admission_shed: 20,
            retry_attempts: 25,
            retry_exhausted: 20,
            control_probes_ok: 50,
            control_probes_total: 50,
            post_load_ok: true,
        }
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let r = report();
        assert!(r.acceptable());
        let json = r.to_table().to_json("load", "smoke", 1);
        assert!(json.contains("\"experiment\": \"load\""));
        assert!(json.contains("\"busy_sheds\": 20"));
        assert!(json.contains("\"degraded_host\": "));
        assert!(json.contains("\"acceptable\": \"yes\""));
        assert!(json.contains("\"latency\": {\"median_s\": 0.0009"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn the_gate_enforces_every_check() {
        let fails: [fn(&mut LoadReport); 7] = [
            |r| r.other_errors = 1,
            |r| r.statements_ok = 0,
            |r| r.max_shed_latency_ms = 3 * (250 + 50) + 2_000,
            |r| (r.admission_queued, r.admission_shed) = (0, 0),
            |r| (r.control_probes_ok, r.control_probes_total) = (0, 0),
            |r| r.control_probes_ok = 49,
            |r| r.post_load_ok = false,
        ];
        for (i, fail) in fails.iter().enumerate() {
            let mut r = report();
            fail(&mut r);
            assert!(!r.acceptable(), "check {i} not enforced");
        }
    }
}

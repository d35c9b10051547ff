//! The closed-loop load generator.
//!
//! Each client thread sends its next statement when the previous result is
//! fully decoded — callers of a database wait for their reply. A client
//! times whole statements: its timed span starts when it sends its first
//! statement and ends with the first statement that completes after
//! `window` has passed, so every timed statement lies wholly inside the
//! span and throughput is not quantised by a statement cut off at an edge.

use std::time::{Duration, Instant};

use jaguar_core::Client;

use crate::gen::Kind;
use crate::trace::{Span, SpanId, Tracer};
use crate::workload::Stream;

/// What one client observed in its timed span.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Latencies (µs) of verified-correct statements, send → last row
    /// decoded. A failed statement has no latency.
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    /// First timed statement sent → last timed statement verified.
    pub elapsed: Duration,
    /// UDF invocations the server reported for the timed statements.
    pub udf_invocations: u64,
    pub spans: Vec<Span>,
}

impl ClientLog {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Verified-correct statements per second of this client's span.
    pub fn throughput(&self) -> f64 {
        self.ok() as f64 / self.elapsed.as_secs_f64()
    }
}

fn on_each_client<T: Send>(
    clients: &mut [(Client, Stream)],
    f: impl Fn(usize, &mut Client, &mut Stream) -> Result<T, String> + Sync,
) -> Result<Vec<T>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(idx, (client, stream))| {
                let f = &f;
                scope.spawn(move || f(idx, client, stream))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    })
}

/// Run every client's stream untimed for `duration`. A statement that
/// fails here is an error: nothing measured after it would mean anything.
pub fn warm_up(clients: &mut [(Client, Stream)], duration: Duration) -> Result<(), String> {
    let until = Instant::now() + duration;
    on_each_client(clients, |_, client, stream| {
        while Instant::now() < until {
            let stmt = stream.next_stmt();
            let result = client
                .execute(&stmt.sql)
                .map_err(|e| format!("warm-up: {}: {e}", stmt.sql))?;
            stmt.expect
                .verify(&result.rows, result.affected)
                .map_err(|e| format!("warm-up: {}: {e}", stmt.sql))?;
        }
        Ok(())
    })
    .map(|_| ())
}

/// Run every client's timed span. With `trace_epoch`, each statement
/// records a span tree whose timestamps count from that instant.
pub fn timed(
    clients: &mut [(Client, Stream)],
    window: Duration,
    trace_epoch: Option<Instant>,
) -> Result<Vec<ClientLog>, String> {
    on_each_client(clients, |idx, client, stream| {
        Ok(run_client(idx, client, stream, window, trace_epoch))
    })
}

fn run_client(
    idx: usize,
    client: &mut Client,
    stream: &mut Stream,
    window: Duration,
    trace_epoch: Option<Instant>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut tracer = trace_epoch.map(Tracer::new);
    // Spans are recorded only when tracing; `None` flows through untraced.
    let open =
        |t: &mut Option<Tracer>, name, parent, id| t.as_mut().map(|t| t.begin(name, parent, id));
    let close = |t: &mut Option<Tracer>, span: Option<SpanId>| {
        if let (Some(t), Some(span)) = (t.as_mut(), span) {
            t.end(span);
        }
    };
    let first = Instant::now();
    let until = first + window;
    loop {
        // Statement ids are unique across clients: client index in the
        // top bits, sequence number below.
        let stmt_id = ((idx as u64) << 48) | log.attempted;
        let root = open(&mut tracer, "client.stmt", None, stmt_id);
        let stmt = stream.next_stmt();

        let exec = open(&mut tracer, "client.execute", root, stmt_id);
        let sent = Instant::now();
        let result = client.execute(&stmt.sql);
        let latency = sent.elapsed();
        close(&mut tracer, exec);

        let check = open(&mut tracer, "client.verify", root, stmt_id);
        let verdict = match &result {
            Ok(r) => stmt.expect.verify(&r.rows, r.affected),
            Err(e) => Err(e.to_string()),
        };
        close(&mut tracer, check);

        log.attempted += 1;
        match verdict {
            Ok(()) => {
                let us = latency.as_nanos() as f64 / 1e3;
                match stmt.kind {
                    Kind::Read => log.read_us.push(us),
                    Kind::Write => log.write_us.push(us),
                }
                if let Ok(r) = &result {
                    log.udf_invocations += r.stats.udf_invocations;
                }
            }
            Err(e) => {
                log.failed += 1;
                log.first_error.get_or_insert(format!("{}: {e}", stmt.sql));
            }
        }
        close(&mut tracer, root);
        let now = Instant::now();
        if now >= until {
            log.elapsed = now - first;
            break;
        }
    }
    log.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    log
}

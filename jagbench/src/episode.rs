//! One episode in this process: set-up, warm-up, timed window, checks —
//! and, when traced, the ladder.
//!
//! The obs registry, the memo cache and the tier-up counters are
//! process-global, and much of the run-to-run noise on a small shared host
//! is drawn once per process (where its memory landed), so every episode
//! runs in a process of its own: `jagbench episode …`, started by
//! `report::measure`.

use std::time::{Duration, Instant};

use crate::drive::{self, ClientLog};
use crate::gen::Sizes;
use crate::json::Json;
use crate::layers;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::workload::{Env, Stream, Workload};

pub struct EpisodeArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where a traced episode writes its spans.
    pub spans_out: Option<String>,
}

impl EpisodeArgs {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// A named value with its unit, in the order it is printed.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// After its window an untraced episode repeats set-up until
/// `SETUP_BUDGET` is spent or `SETUP_MAX` set-ups have run, and reports
/// the median: the fast set-ups (a few milliseconds) need the repeats to
/// be steady, the slow one cannot afford many.
const SETUP_MAX: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_millis(500);

/// Warm-up is a quarter of the window it precedes: caches fill, hot UDFs
/// tier up (after 64 calls) and pool workers have served their first query
/// long before it ends.
fn warmup_for(window: Duration) -> Duration {
    window / 4
}

/// Peak resident set of this process — server and client threads alike —
/// in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The window's outcome summed over clients.
pub struct Window {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub throughput_sps: f64,
    pub read_us: Vec<f64>,
    pub write_us: Vec<f64>,
    pub udf_invocations: u64,
    pub spans: Vec<Span>,
}

impl Window {
    fn collect(logs: Vec<ClientLog>) -> Window {
        let mut w = Window {
            attempted: 0,
            failed: 0,
            first_error: None,
            throughput_sps: 0.0,
            read_us: Vec::new(),
            write_us: Vec::new(),
            udf_invocations: 0,
            spans: Vec::new(),
        };
        for log in logs {
            w.attempted += log.attempted;
            w.failed += log.failed;
            // Clients run concurrently for the same span, so their rates add.
            w.throughput_sps += log.throughput();
            w.udf_invocations += log.udf_invocations;
            if w.first_error.is_none() {
                w.first_error = log.first_error;
            }
            w.read_us.extend(log.read_us);
            w.write_us.extend(log.write_us);
            trace::append(&mut w.spans, log.spans);
        }
        w
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        self.first_error.get_or_insert(error);
    }
}

/// The workload's end-of-run check, counted as one more operation:
/// `oltp_mix` must hold exactly the rows its clients left.
fn final_check(env: &mut Env, window: &mut Window) {
    if env.workload != Workload::OltpMix {
        return;
    }
    // Every generated statement was sent exactly once, so the streams'
    // tallies say how many rows must be left.
    let (mut inserts, mut deletes) = (0, 0);
    for (_, stream) in &env.clients {
        if let Stream::Oltp(s) = stream {
            inserts += s.inserts;
            deletes += s.deletes;
        }
    }
    let want = env.rows_loaded as u64 + inserts - deletes;
    window.attempted += 1;
    let (client, _) = &mut env.clients[0];
    match client.execute("SELECT COUNT(*) FROM acct") {
        Ok(r) => {
            let got = r
                .rows
                .first()
                .and_then(|row| row.get(0).ok()?.as_int().ok());
            if got != Some(want as i64) {
                window.fail(format!("final COUNT(*) is {got:?}, expected {want}"));
            }
        }
        Err(e) => window.fail(format!("final COUNT(*): {e}")),
    }
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().copied().map(Json::from).collect())
}

/// Run one episode. The result object is what `report::measure` combines:
/// an untraced episode returns its raw samples, a traced one its
/// per-layer metrics.
pub fn run(args: &EpisodeArgs) -> Result<Json, String> {
    let sizes = args.sizes();
    let window_len = Duration::from_secs_f64(args.seconds);
    let err = |e: jaguar_core::JaguarError| e.to_string();

    let t0 = Instant::now();
    let mut env = Env::setup(args.workload, args.seed, sizes).map_err(err)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    drive::warm_up(&mut env.clients, warmup_for(window_len))?;

    let epoch = Instant::now();
    let before = args.trace.then(|| layers::Counters::read(&env));
    let mut window = Window::collect(drive::timed(
        &mut env.clients,
        window_len,
        args.trace.then_some(epoch),
    )?);
    let mut result = if let Some(before) = before {
        let after = layers::Counters::read(&env);
        final_check(&mut env, &mut window);
        let traced = layers::measure(env, &window, &before, &after, args, epoch)?;
        if let Some(path) = &args.spans_out {
            std::fs::write(path, trace::spans_to_json(&traced.spans).to_string())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
        vec![
            ("metrics", metrics_json(&traced.metrics)),
            (
                "unresolved",
                Json::Arr(traced.unresolved.iter().map(Json::str).collect()),
            ),
            ("spans", Json::from(traced.spans.len() as u64)),
        ]
    } else {
        final_check(&mut env, &mut window);
        let rss = peak_rss_mb()?;
        env.teardown().map_err(err)?;
        // Set-up again, now that the measured instance is gone, so that
        // `setup_s` is a median and not one draw.
        let repeats = Instant::now();
        while setups.len() < SETUP_MAX && repeats.elapsed() < SETUP_BUDGET {
            let t0 = Instant::now();
            let env = Env::setup(args.workload, args.seed, sizes).map_err(err)?;
            setups.push(t0.elapsed().as_secs_f64());
            env.teardown().map_err(err)?;
        }
        vec![
            ("throughput_sps", Json::from(window.throughput_sps)),
            ("read_us", nums(&window.read_us)),
            ("write_us", nums(&window.write_us)),
            ("setup_s", Json::from(median(&setups).expect("ran"))),
            ("peak_rss_mb", Json::from(rss)),
        ]
    };
    result.push(("ops_attempted", Json::from(window.attempted)));
    result.push(("ops_failed", Json::from(window.failed)));
    result.push((
        "first_error",
        window.first_error.as_deref().map_or(Json::Null, Json::str),
    ));
    Ok(Json::obj(result))
}

//! Overload loadtest: storm a real server at a multiple of its admission
//! capacity and write the `BENCH_load.json` proof artifact.
//!
//! ```sh
//! # CI smoke (8 sessions over capacity 2, ~200 statements):
//! cargo run --release -p jaguar-bench --bin loadtest -- --smoke
//!
//! # the default standalone run (32 sessions over capacity 8):
//! cargo run --release -p jaguar-bench --bin loadtest
//!
//! # custom shape:
//! cargo run --release -p jaguar-bench --bin loadtest -- \
//!     --sessions 64 --statements 100 --capacity 8 --depth 8 --timeout-ms 500
//! ```
//!
//! Exits non-zero when the run violates the jaguar-guard acceptance gate
//! (any non-busy error, a starved control plane, a poisoned engine, or no
//! completed statement), so CI can gate on it directly.

use jaguar_bench::{run_load, LoadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = LoadConfig::standard();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{what} needs a numeric value")))
        };
        match a.as_str() {
            "--smoke" => cfg = LoadConfig::smoke(),
            "--sessions" => cfg.sessions = num("--sessions"),
            "--statements" => cfg.statements_per_session = num("--statements"),
            "--capacity" => cfg.max_connections = num("--capacity"),
            "--depth" => cfg.admission_queue_depth = num("--depth"),
            "--timeout-ms" => cfg.admission_timeout_ms = num("--timeout-ms") as u64,
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "loadtest: {} sessions x {} statements against capacity {} (+{} queued, \
         {} ms admission timeout) — {:.1}x overload",
        cfg.sessions,
        cfg.statements_per_session,
        cfg.max_connections,
        cfg.admission_queue_depth,
        cfg.admission_timeout_ms,
        cfg.overload_factor(),
    );
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => die(&format!("loadtest failed to run: {e}")),
    };
    println!(
        "loadtest: {}/{} ok, {} shed busy, {} other error(s); {:.1} stmts/s, \
         p50 {} us, p99 {} us; control plane {}/{}; post-load ok: {}",
        report.statements_ok,
        report.statements_attempted,
        report.busy_sheds,
        report.other_errors,
        report.throughput_stmts_per_s,
        report.p50_us,
        report.p99_us,
        report.control_probes_ok,
        report.control_probes_total,
        report.post_load_ok,
    );
    if let Err(e) = std::fs::write("BENCH_load.json", report.to_json()) {
        die(&format!("writing BENCH_load.json: {e}"));
    }
    eprintln!("loadtest: wrote BENCH_load.json");
    if !report.acceptable() {
        eprintln!("loadtest: FAILED the overload acceptance gate");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("loadtest: {msg}");
    std::process::exit(2);
}

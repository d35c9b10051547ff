//! Overload loadtest: storm a real server at a multiple of its admission
//! capacity and write the `BENCH_load.json` proof artifact.
//!
//! ```sh
//! # CI smoke (8 sessions over capacity 2, ~200 statements):
//! cargo run --release -p jaguar-bench --bin loadtest -- --smoke
//!
//! # the default standalone run (32 sessions over capacity 8):
//! cargo run --release -p jaguar-bench --bin loadtest
//! ```
//!
//! Exits non-zero when the run violates the jaguar-guard acceptance gate
//! ([`jaguar_bench::LoadReport::acceptable`]: any non-busy error, no
//! completed statement, a shed outside the admission window, an admission
//! gate never exercised, a starved control plane, or a poisoned engine), so
//! CI can gate on it directly.

use jaguar_bench::{run_load, LoadConfig};

fn main() {
    let cfg = match std::env::args().nth(1).as_deref() {
        None => LoadConfig::standard(),
        Some("--smoke") => LoadConfig::smoke(),
        Some(other) => die(&format!(
            "unknown argument {other:?} (the only flag is --smoke)"
        )),
    };
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
    let table = report.to_table();
    println!("{}", table.render());
    let scale = format!(
        "{} sessions x {} statements",
        cfg.sessions, cfg.statements_per_session
    );
    match table.write_json("load", &scale, 1) {
        Ok(path) => eprintln!("loadtest: wrote {path}"),
        Err(e) => die(&format!("writing BENCH_load.json: {e}")),
    }
    if !report.acceptable() {
        eprintln!("loadtest: FAILED the overload acceptance gate");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("loadtest: {msg}");
    std::process::exit(2);
}

//! Regenerate the paper's tables and figures.
//!
//! ```sh
//! # everything, at the paper's scale (10,000-tuple relations):
//! cargo run --release -p jaguar-bench --bin run_experiments
//!
//! # one experiment at quick scale (1,000-tuple relations):
//! cargo run --release -p jaguar-bench --bin run_experiments -- fig7 --quick
//!
//! # markdown output (for EXPERIMENTS.md):
//! cargo run --release -p jaguar-bench --bin run_experiments -- fig5 fig6 --markdown
//! ```
//!
//! Every experiment also writes `BENCH_<id>.json`. Build the worker binary
//! first (`cargo build --release --workspace`) or the isolated designs
//! (IC++/IJSM) are skipped with a note.

use jaguar_bench::{ExperimentCtx, Scale, EXPERIMENTS};

fn main() {
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Paper;
    let mut markdown = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => scale = Scale::Quick,
            "--markdown" => markdown = true,
            _ => ids.push(a),
        }
    }
    if ids.is_empty() {
        ids = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    }

    eprintln!(
        "building workload at {} scale ({} tuples per relation)...",
        scale.name(),
        scale.cardinality()
    );
    let ctx = match ExperimentCtx::new(scale) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to build workload: {e}");
            std::process::exit(1);
        }
    };
    for id in &ids {
        let started = std::time::Instant::now();
        match ctx.by_name(id) {
            Ok(table) if markdown => println!("{}", table.render_markdown()),
            Ok(table) => println!("{}", table.render()),
            Err(e) => {
                eprintln!("experiment '{id}' failed: {e}");
                std::process::exit(1);
            }
        }
        eprintln!("{id}: {:.1} s wall", started.elapsed().as_secs_f64());
    }
}

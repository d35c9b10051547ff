//! jagbench — the repository's benchmark.
//!
//! ```sh
//! bash jagbench/bench.sh run --seed 1 --out report.json      # all four workloads
//! bash jagbench/bench.sh run --trace --out report.json       # plus the per-layer ladder
//! bash jagbench/bench.sh run --smoke                         # tiny tables, 2 s windows
//! bash jagbench/bench.sh compare before.json after.json      # gate on BENCHMARK.json's bounds
//! bash jagbench/bench.sh --workload oltp_mix --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last form is what the benchmark driver calls: one workload, measured
//! exactly as `run` measures it. See `README.md` beside this package for the metric
//! definitions and why each workload exists.

mod drive;
mod episode;
mod gen;
mod json;
mod layers;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use episode::EpisodeArgs;
use workload::Workload;

const USAGE: &str = "usage:
  jagbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--spans <file>]
  jagbench run [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out <file>]
  jagbench compare <before.json> <after.json> [--bounds <BENCHMARK.json>]
workloads: udf_sandbox udf_isolated scan_agg oltp_mix";

/// `--flag value` pairs and bare words, in order.
pub struct Args {
    flags: Vec<(String, Option<String>)>,
    pub words: Vec<String>,
}

impl Args {
    /// Flags listed in `switches` take no value.
    fn parse(raw: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) if switches.contains(&name) => args.flags.push((name.into(), None)),
                Some(name) => {
                    let value = raw.next().ok_or(format!("--{name} needs a value"))?;
                    args.flags.push((name.into(), Some(value)));
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot read {v:?}"))
            })
            .transpose()
    }

    /// Reject flags outside `known`.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn episode_args(args: &Args) -> Result<EpisodeArgs, String> {
    args.only(&["workload", "seed", "seconds", "trace", "smoke", "spans"])?;
    let name = args.value("workload").ok_or("--workload is required")?;
    let seconds: f64 = args.parsed("seconds")?.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(EpisodeArgs {
        workload: Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))?,
        seed: args.parsed("seed")?.unwrap_or(1),
        seconds,
        trace: match args.value("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        smoke: args.has("smoke"),
        spans_out: args.value("spans").map(str::to_string),
    })
}

fn real_main() -> Result<ExitCode, String> {
    let mut raw = std::env::args().skip(1).peekable();
    match raw.peek().map(String::as_str) {
        Some("run") => {
            let args = Args::parse(raw.skip(1), &["trace", "smoke"])?;
            args.only(&["seed", "seconds", "trace", "smoke", "out"])?;
            report::run(&args)
        }
        Some("compare") => {
            let args = Args::parse(raw.skip(1), &[])?;
            args.only(&["bounds"])?;
            report::compare(&args)
        }
        // The benchmark driver's form: measure one workload.
        Some(flag) if flag.starts_with("--") => {
            report::contract(&episode_args(&Args::parse(raw, &["smoke"])?)?)
        }
        // Internal: one episode in this process, started by `measure`.
        Some("episode") => {
            let args = episode_args(&Args::parse(raw.skip(1), &["smoke"])?)?;
            // Worker scratch directories and on-disk databases stay inside
            // the build directory. Set before any thread exists.
            let root = workload::data_root();
            std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
            std::env::set_var("TMPDIR", &root);
            let result = episode::run(&args);
            let _ = std::fs::remove_dir_all(&root);
            println!("{}", result?);
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("jagbench: {e}");
            ExitCode::from(2)
        }
    }
}

//! Measuring a workload (episodes in processes of their own, combined by
//! median), `jagbench run` — all four workloads, one report — and
//! `jagbench compare`, the regression gate over two reports.

use std::process::{Command, ExitCode, Stdio};

use crate::episode::{metrics_json, EpisodeArgs, Metric};
use crate::json::{self, Json};
use crate::stats::{median, Tail};
use crate::workload::Workload;
use crate::Args;

/// Default length of the timed window; `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 18.0;
const SMOKE_SECONDS: f64 = 2.0;
const BOUNDS_FILE: &str = "BENCHMARK.json";

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// One `jagbench episode` in a process of its own; returns its result
/// object (the last line it prints).
fn spawn_episode(args: &EpisodeArgs) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("episode")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = &args.spans_out {
        cmd.args(["--spans", path]);
    }
    // stderr (the engine's log lines) passes through; stdout is parsed.
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning an episode of {}: {e}", args.workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} episode exited with {}",
            args.workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    json::parse(stdout.lines().last().unwrap_or(""))
}

/// An untraced run is this many episodes — each a fresh process that sets
/// up, warms up and times its share of the window — and reports the median
/// episode. Much of the noise on a small shared host is drawn once per
/// process (where its memory landed, which core a session thread settled
/// on): several short instances average it where one long one cannot.
const EPISODES: usize = 3;

fn floats(episode: &Json, key: &str) -> Vec<f64> {
    episode
        .get(key)
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(Json::as_f64)
        .collect()
}

fn tail_json(tail: Option<Tail>) -> Json {
    match tail {
        None => Json::Null,
        Some(t) => Json::obj([
            ("percentile", Json::from(t.percentile)),
            ("value_us", Json::from(t.value)),
            ("rank", Json::from(t.rank as u64)),
            ("samples", Json::from(t.samples as u64)),
        ]),
    }
}

/// Measure one workload: every end-to-end metric (untraced, the median of
/// `EPISODES` episodes sharing `seconds`) or every per-layer metric
/// (traced: one episode of half the window, then the ladder).
pub fn measure(args: &EpisodeArgs) -> Result<Json, String> {
    if args.trace {
        return spawn_episode(&EpisodeArgs {
            seconds: args.seconds / 2.0,
            spans_out: args.spans_out.clone(),
            ..*args
        });
    }
    let episodes = (0..EPISODES)
        .map(|_| {
            spawn_episode(&EpisodeArgs {
                seconds: args.seconds / EPISODES as f64,
                spans_out: None,
                ..*args
            })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let across = |f: &dyn Fn(&Json) -> Option<f64>| {
        median(&episodes.iter().filter_map(f).collect::<Vec<_>>())
    };
    let number = |key: &'static str| move |e: &Json| e.get(key).and_then(Json::as_f64);
    let p50 = |key: &'static str| move |e: &Json| median(&floats(e, key));
    let missing = |what: &str| format!("{}: no episode reported {what}", args.workload.name());
    let mut metrics = vec![
        Metric::new(
            "throughput_sps",
            across(&number("throughput_sps")).ok_or_else(|| missing("throughput"))?,
            "1/s",
        ),
        Metric::new(
            "read_p50_us",
            across(&p50("read_us")).ok_or_else(|| missing("a read latency"))?,
            "us",
        ),
    ];
    if let Some(w) = across(&p50("write_us")) {
        metrics.push(Metric::new("write_p50_us", w, "us"));
    }
    metrics.push(Metric::new(
        "setup_s",
        across(&number("setup_s")).ok_or_else(|| missing("set-up time"))?,
        "s",
    ));
    metrics.push(Metric::new(
        "peak_rss_mb",
        across(&number("peak_rss_mb")).ok_or_else(|| missing("peak RSS"))?,
        "MiB",
    ));

    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for e in &episodes {
        reads.extend(floats(e, "read_us"));
        writes.extend(floats(e, "write_us"));
    }
    let sum = |key| episodes.iter().filter_map(number(key)).sum::<f64>();
    let per_episode = episodes
        .iter()
        .map(|e| {
            Json::obj([
                (
                    "throughput_sps",
                    e.get("throughput_sps").cloned().unwrap_or(Json::Null),
                ),
                (
                    "read_p50_us",
                    p50("read_us")(e).map_or(Json::Null, Json::from),
                ),
                (
                    "write_p50_us",
                    p50("write_us")(e).map_or(Json::Null, Json::from),
                ),
                ("setup_s", e.get("setup_s").cloned().unwrap_or(Json::Null)),
            ])
        })
        .collect();
    let samples = Json::obj([
        ("read", Json::from(reads.len() as u64)),
        ("write", Json::from(writes.len() as u64)),
        ("episodes", Json::from(EPISODES as u64)),
    ]);
    reads.extend(writes);
    Ok(Json::obj([
        ("metrics", metrics_json(&metrics)),
        ("ops_attempted", Json::from(sum("ops_attempted"))),
        ("ops_failed", Json::from(sum("ops_failed"))),
        (
            "first_error",
            episodes
                .iter()
                .find_map(|e| e.get("first_error").filter(|v| **v != Json::Null))
                .cloned()
                .unwrap_or(Json::Null),
        ),
        ("stmt_tail_us", tail_json(Tail::of(&reads))),
        ("samples", samples),
        ("episodes", Json::Arr(per_episode)),
    ]))
}

/// The benchmark driver's protocol: print every metric by name, then the
/// result object as the last line of stdout.
pub fn contract(args: &EpisodeArgs) -> Result<ExitCode, String> {
    let detail = measure(args)?;
    print_detail("", &detail);
    let number = |key| detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    // The contract wants every end-to-end metric on every workload. A
    // read-only workload has no write latency, so in the driver's flat
    // list — and only there — its `write_p50_us` repeats `read_p50_us`.
    let mut metrics = detail.get("metrics").map_or(&[][..], Json::fields).to_vec();
    if !args.trace && !metrics.iter().any(|(k, _)| k == "write_p50_us") {
        let read = metrics
            .iter()
            .find(|(k, _)| k == "read_p50_us")
            .map(|(_, v)| v.clone())
            .ok_or("no read_p50_us to report")?;
        metrics.insert(2, ("write_p50_us".into(), read));
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(number("ops_failed") == 0.0)),
            ("attempted", Json::from(number("ops_attempted"))),
            ("failed", Json::from(number("ops_failed"))),
            ("metrics", Json::Obj(metrics)),
        ])
    );
    Ok(ExitCode::SUCCESS)
}

fn metric_value(detail: &Json, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// The names under `key` (`end_to_end` / `per_layer`) of the bounds file.
fn declared_names(bounds: &Json, key: &str) -> Vec<String> {
    bounds
        .get(key)
        .map_or(&[][..], Json::items)
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// A child's metric names must be exactly the declared list — except that
/// a read-only workload leaves `write_p50_us` out of its own report.
fn check_names(workload: Workload, detail: &Json, declared: &[String]) -> Result<(), String> {
    let got: Vec<&str> = detail
        .get("metrics")
        .map_or(&[][..], Json::fields)
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let want: Vec<&str> = declared
        .iter()
        .map(String::as_str)
        .filter(|n| *n != "write_p50_us" || got.contains(n))
        .collect();
    if got != want {
        return Err(format!(
            "{}: metrics {got:?} differ from {BOUNDS_FILE}'s {want:?}",
            workload.name()
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.has("smoke");
    let trace = args.has("trace");
    let seed: u64 = args.parsed("seed")?.unwrap_or(1);
    let seconds: f64 =
        args.parsed("seconds")?
            .unwrap_or(if smoke { SMOKE_SECONDS } else { RUN_SECONDS });
    let out = args.value("out").unwrap_or("BENCH_jagbench.json");
    let trace_out = format!("{out}.trace.json");
    // When run from the repository root, hold the children to the
    // declared metric lists.
    let bounds = std::path::Path::new(BOUNDS_FILE)
        .exists()
        .then(|| read_json(BOUNDS_FILE))
        .transpose()?;

    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if host_cores == 1 {
        eprintln!(
            "WARNING: single-core host: clients and server share one core; \
             stamping \"degraded_host\": true — these numbers are not comparable"
        );
    }
    let mut workloads = Vec::new();
    let mut all_spans = Vec::new();
    let mut failed_ops = 0.0;
    for workload in Workload::ALL {
        eprintln!("jagbench: {} ({seconds} s window)", workload.name());
        let args = EpisodeArgs {
            workload,
            seed,
            seconds,
            trace: false,
            smoke,
            spans_out: None,
        };
        let mut detail = measure(&args)?;
        if let Some(b) = &bounds {
            check_names(workload, &detail, &declared_names(b, "end_to_end"))?;
        }
        failed_ops += detail
            .get("ops_failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if trace {
            let spans_file = format!("{trace_out}.{}", workload.name());
            let traced = measure(&EpisodeArgs {
                trace: true,
                spans_out: Some(spans_file.clone()),
                ..args
            })?;
            if let Some(b) = &bounds {
                check_names(workload, &traced, &declared_names(b, "per_layer"))?;
            }
            failed_ops += traced
                .get("ops_failed")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            all_spans.push((workload.name().to_string(), read_json(&spans_file)?));
            std::fs::remove_file(&spans_file).map_err(|e| format!("{spans_file}: {e}"))?;
            let untraced = metric_value(&detail, "throughput_sps").unwrap_or(f64::NAN);
            let under_trace = metric_value(&traced, "trace.throughput_sps").unwrap_or(f64::NAN);
            if let Json::Obj(fields) = &mut detail {
                fields.push((
                    "trace_overhead_pct".into(),
                    Json::from((1.0 - under_trace / untraced) * 100.0),
                ));
                fields.push(("traced".into(), traced));
            }
        }
        workloads.push((workload.name().to_string(), detail));
    }

    let report = Json::obj([
        ("benchmark", Json::str("jagbench")),
        ("git_rev", Json::str(git_rev())),
        ("host_cores", Json::from(host_cores as u64)),
        ("degraded_host", Json::from(host_cores == 1)),
        ("seed", Json::from(seed)),
        ("window_s", Json::from(seconds)),
        ("smoke", Json::from(smoke)),
        ("workloads", Json::Obj(workloads)),
    ]);
    std::fs::write(out, report.pretty()).map_err(|e| format!("{out}: {e}"))?;
    if trace {
        std::fs::write(&trace_out, Json::Obj(all_spans).to_string())
            .map_err(|e| format!("{trace_out}: {e}"))?;
    }
    print_report(&report);
    println!(
        "report: {out}{}",
        if trace {
            format!(", spans: {trace_out}")
        } else {
            String::new()
        }
    );
    if failed_ops > 0.0 {
        eprintln!("jagbench: {failed_ops} operation(s) failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn print_metrics(indent: &str, detail: &Json) {
    for (name, m) in detail.get("metrics").map_or(&[][..], Json::fields) {
        println!(
            "{indent}{name:<28} {:>16.4} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

/// One measurement (traced or not) by name, with its failure accounting.
fn print_detail(indent: &str, detail: &Json) {
    print_metrics(indent, detail);
    for key in ["ops_attempted", "ops_failed"] {
        let v = detail.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!("{indent}{key:<28} {v:>16}");
    }
    if let Some(tail) = detail.get("stmt_tail_us").filter(|t| **t != Json::Null) {
        let f = |k| tail.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
        println!(
            "{indent}{:<28} {:>16.4} us (p{}, rank {} of {}; diagnostic, not gated)",
            "stmt_tail_us",
            f("value_us"),
            f("percentile"),
            f("rank"),
            f("samples")
        );
    }
    let unresolved = detail.get("unresolved").map_or(&[][..], Json::items);
    if !unresolved.is_empty() {
        let names: Vec<&str> = unresolved.iter().filter_map(Json::as_str).collect();
        println!("{indent}unresolved (deeper rung slower than the one above): {names:?}");
    }
    if let Some(e) = detail.get("first_error").and_then(Json::as_str) {
        println!("{indent}first failure: {e}");
    }
}

fn print_report(report: &Json) {
    for (name, detail) in report.get("workloads").map_or(&[][..], Json::fields) {
        println!("== {name}");
        print_detail("  ", detail);
        if let Some(traced) = detail.get("traced") {
            println!("  -- traced run");
            print_detail("    ", traced);
            let overhead = detail.get("trace_overhead_pct").and_then(Json::as_f64);
            println!(
                "    {:<28} {:>16.4} %",
                "trace_overhead_pct",
                overhead.unwrap_or(f64::NAN)
            );
        }
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Better {
    Lower,
    Higher,
}

/// How much worse `after` is than `before`, as a share of `before`
/// (negative when it improved).
fn worsening(better: Better, before: f64, after: f64) -> f64 {
    match better {
        Better::Lower => (after - before) / before,
        Better::Higher => (before - after) / before,
    }
}

/// A metric regressed when it got worse by more than its bound. A value
/// that is missing or not a number on one side only is a regression too:
/// the metric stopped being measurable.
fn regressed(better: Better, before: Option<f64>, after: Option<f64>, bound: f64) -> bool {
    match (before, after) {
        (Some(b), Some(a)) => {
            let w = worsening(better, b, a);
            w.is_nan() || w > bound
        }
        (None, None) => false,
        _ => true,
    }
}

fn failure_rate(detail: &Json) -> f64 {
    let n = |k| detail.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    if n("ops_attempted") > 0.0 {
        n("ops_failed") / n("ops_attempted")
    } else {
        1.0
    }
}

pub fn compare(args: &Args) -> Result<ExitCode, String> {
    let [before_path, after_path] = args.words.as_slice() else {
        return Err("compare takes two report files".into());
    };
    let (before, after) = (read_json(before_path)?, read_json(after_path)?);
    let bounds = read_json(args.value("bounds").unwrap_or(BOUNDS_FILE))?;

    for (label, report) in [(before_path, &before), (after_path, &after)] {
        let stamp = |k| match report.get(k) {
            None => "?".to_string(),
            Some(Json::Str(s)) => s.clone(),
            Some(other) => other.to_string(),
        };
        println!(
            "{label}: rev {} seed {} window {} s, {} core(s){}",
            stamp("git_rev"),
            stamp("seed"),
            stamp("window_s"),
            stamp("host_cores"),
            if report.get("degraded_host").and_then(Json::as_bool) == Some(true) {
                " — DEGRADED HOST, not comparable"
            } else {
                ""
            }
        );
    }
    for key in ["host_cores", "window_s", "smoke"] {
        if before.get(key) != after.get(key) {
            println!("WARNING: the reports differ in {key}; their numbers are not comparable");
        }
    }

    println!(
        "{:<13} {:<16} {:>14} {:>14} {:>22} {:>7}",
        "workload", "metric", "before", "after", "change (of before)", "bound"
    );
    let mut regressions = 0;
    for (workload, b_detail) in before.get("workloads").map_or(&[][..], Json::fields) {
        let Some(a_detail) = after.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<13} missing from {after_path}  REGRESSED");
            regressions += 1;
            continue;
        };
        for m in bounds.get("end_to_end").map_or(&[][..], Json::items) {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("bounds: metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("bounds: metric without bound")?;
            let better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                other => return Err(format!("bounds: {name}: better is {other:?}")),
            };
            let (b, a) = (metric_value(b_detail, name), metric_value(a_detail, name));
            if b.is_none() && a.is_none() {
                continue;
            }
            let bad = regressed(better, b, a, bound);
            regressions += bad as usize;
            let show = |v: Option<f64>| v.map_or("absent".to_string(), |v| format!("{v:.4}"));
            let change = match (b, a) {
                (Some(b), Some(a)) => format!(
                    "{:+.2}% {}",
                    (a - b) / b * 100.0,
                    if worsening(better, b, a) > 0.0 {
                        "worse"
                    } else {
                        "better"
                    }
                ),
                _ => "-".to_string(),
            };
            println!(
                "{workload:<13} {name:<16} {:>14} {:>14} {change:>22} {:>6.0}%{}",
                show(b),
                show(a),
                bound * 100.0,
                if bad { "  REGRESSED" } else { "" }
            );
        }
        let (fb, fa) = (failure_rate(b_detail), failure_rate(a_detail));
        if fa > fb {
            println!(
                "{workload:<13} ops_failed/ops_attempted rose from {fb:.6} to {fa:.6}  REGRESSED"
            );
            regressions += 1;
        }
    }
    if regressions > 0 {
        println!("{regressions} regression(s)");
        return Ok(ExitCode::FAILURE);
    }
    println!("no metric is worse than its bound");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_logic_respects_direction() {
        // Lower is better: +10 % is within a 10 % bound, +10.1 % is not.
        assert!(!regressed(Better::Lower, Some(100.0), Some(110.0), 0.10));
        assert!(regressed(Better::Lower, Some(100.0), Some(110.2), 0.10));
        assert!(
            !regressed(Better::Lower, Some(100.0), Some(50.0), 0.10),
            "an improvement"
        );
        // Higher is better: the same numbers flip.
        assert!(!regressed(Better::Higher, Some(100.0), Some(90.0), 0.10));
        assert!(regressed(Better::Higher, Some(100.0), Some(89.0), 0.10));
        assert!(!regressed(Better::Higher, Some(100.0), Some(200.0), 0.10));
        // The change is a share of the *before* value.
        assert_eq!(worsening(Better::Lower, 200.0, 250.0), 0.25);
        assert_eq!(worsening(Better::Higher, 200.0, 150.0), 0.25);
    }

    #[test]
    fn a_metric_that_disappears_or_is_nan_regresses() {
        assert!(
            !regressed(Better::Lower, None, None, 0.1),
            "absent on both: not applicable"
        );
        assert!(regressed(Better::Lower, Some(1.0), None, 0.1));
        assert!(regressed(Better::Lower, None, Some(1.0), 0.1));
        assert!(regressed(Better::Lower, Some(1.0), Some(f64::NAN), 0.1));
    }

    #[test]
    fn failure_rate_counts_no_attempts_as_total_failure() {
        let d = |a: u64, f: u64| {
            Json::obj([
                ("ops_attempted", Json::from(a)),
                ("ops_failed", Json::from(f)),
            ])
        };
        assert_eq!(failure_rate(&d(100, 0)), 0.0);
        assert_eq!(failure_rate(&d(100, 5)), 0.05);
        assert_eq!(failure_rate(&d(0, 0)), 1.0);
    }

    #[test]
    fn declared_names_must_match_except_absent_write_latency() {
        let declared: Vec<String> = ["throughput_sps", "read_p50_us", "write_p50_us", "setup_s"]
            .map(String::from)
            .to_vec();
        let detail = |names: &[&str]| {
            Json::obj([(
                "metrics",
                Json::obj(
                    names
                        .iter()
                        .map(|n| (*n, Json::obj([("value", Json::from(1.0))]))),
                ),
            )])
        };
        let w = Workload::ScanAgg;
        assert!(check_names(
            w,
            &detail(&["throughput_sps", "read_p50_us", "write_p50_us", "setup_s"]),
            &declared
        )
        .is_ok());
        assert!(check_names(
            w,
            &detail(&["throughput_sps", "read_p50_us", "setup_s"]),
            &declared
        )
        .is_ok());
        assert!(check_names(w, &detail(&["throughput_sps", "setup_s"]), &declared).is_err());
        assert!(check_names(
            w,
            &detail(&["throughput_sps", "read_p50_us", "setup_s", "extra"]),
            &declared
        )
        .is_err());
    }
}

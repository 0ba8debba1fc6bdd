//! `mcbench`: the repository's benchmark. Four workloads, each run in a
//! closed loop from one client thread, with every answer checked against
//! an oracle; end-to-end metrics from an untraced run, with times scaled to
//! a reference host speed (`yardstick`), per-layer metrics from a separate
//! traced run. See README.md for the workloads, the metric dictionary and
//! the trace format.
//!
//! ```text
//! mcbench                                  smoke profile: every workload, tiny sizes
//! mcbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! mcbench --all [--seed N] [--seconds S] [--trace]
//! mcbench summarize RESULTS.json...
//! ```
//!
//! A `--workload` run prints `workload metric value unit` lines and, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). `--all` runs each workload in its own child process, one at a
//! time, and writes `target/mcbench/results-<seed>.json`.

mod cold_chain;
mod cold_fattree;
mod env;
mod json;
mod metrics;
mod schedule;
mod serve_churn;
mod serve_read;
mod trace;
mod yardstick;

use metrics::{measure, median, per_layer, percentile, Metric, PassStats, Workload};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Tracer;
use yardstick::Yardstick;

/// Input sizes: the measured profile, or the smoke profile that checks
/// every oracle in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Smoke,
    Full,
}

pub const WORKLOADS: &[&str] = &["cold-fattree", "cold-chain", "serve-churn", "serve-read"];

/// The run length `--seconds` defaults to (BENCHMARK.json's `run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Ops of an untraced run at the default length; `--seconds` scales them.
/// Each count leaves at least ten samples beyond the p99. CALIBRATION.md
/// records how long they take.
const FULL_OPS: &[(&str, u64)] = &[
    ("cold-fattree", 1008),
    ("cold-chain", 1000),
    ("serve-churn", 3000),
    ("serve-read", 10_000),
];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Ops per pass in the smoke profile.
const SMOKE_OPS: u64 = 20;
const OUT_DIR: &str = "target/mcbench";

fn setup(name: &str, size: Size, dir: &Path, traced: bool) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "cold-fattree" => Box::new(cold_fattree::setup(size)?),
        "cold-chain" => Box::new(cold_chain::setup(size)?),
        "serve-churn" => Box::new(serve_churn::setup(size, &dir.join("journal"), traced)?),
        "serve-read" => Box::new(serve_read::setup(size)?),
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    })
}

/// The outcome of one run of one workload.
struct Report {
    workload: String,
    attempted: u64,
    failed: u64,
    wrong: u64,
    notes: Vec<String>,
    /// Ops behind the latency percentiles.
    n: usize,
    metrics: Vec<(Metric, f64)>,
}

impl Report {
    fn new(workload: &str, pass: &PassStats, n: usize, metrics: Vec<(Metric, f64)>) -> Report {
        Report {
            workload: workload.to_string(),
            attempted: pass.attempted,
            failed: pass.failed,
            wrong: pass.wrong,
            notes: pass.notes.clone(),
            n,
            metrics,
        }
    }

    fn correct(&self) -> bool {
        self.wrong == 0
    }

    fn lines(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(&format!("{} note {note}\n", self.workload));
        }
        for (m, v) in &self.metrics {
            let n = if m.name.starts_with("lat_p") {
                format!(" n={}", self.n)
            } else {
                String::new()
            };
            out.push_str(&format!("{} {} {v} {}{n}\n", self.workload, m.name, m.unit));
        }
        let rate = (self.failed + self.wrong) as f64 / self.attempted.max(1) as f64;
        out.push_str(&format!("{} error_rate {rate} fraction\n", self.workload));
        out
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::num(*v),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn metric(list: &[Metric], name: &str) -> Metric {
    *list
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is not in the metric registry"))
}

/// Threads one op runs on: `serve-read`'s batches fan out to the engine's
/// query workers; every other op is one thread's work, bar a few tiny
/// batches.
fn op_threads(name: &str) -> usize {
    match name {
        "serve-read" => serve_read::engine_config()
            .max_concurrent_queries
            .unwrap_or(1),
        _ => 1,
    }
}

/// Set-up time, p50, p99 and throughput of an untraced pass.
fn timings(setup_s: f64, pass: &PassStats) -> [(&'static str, f64); 4] {
    [
        ("setup_s", setup_s),
        ("lat_p50_ms", pass.class_median_ns() / 1e6),
        (
            "lat_p99_ms",
            percentile(&pass.lat_ns(false), 99.0) as f64 / 1e6,
        ),
        ("ops_per_s", pass.ops_per_s()),
    ]
}

/// The untraced run: a timed set-up of the measured instance, at least
/// `ops` closed-loop ops, the process's peak memory, and then, once the
/// measured instance is dropped, `setups - 1` further timed set-ups (each
/// built and dropped). `setup_s` is the median of all `setups`. Times are
/// reported at the yardstick's reference speed; the wall-clock values are
/// printed beside them as a note.
fn run_e2e(
    name: &str,
    size: Size,
    seed: u64,
    ops: u64,
    setups: usize,
    dir: &Path,
) -> Result<Report, String> {
    let mut yard = Yardstick::new(op_threads(name));
    let (mut wall_setups, mut ref_setups) = (Vec::new(), Vec::new());
    let mut timed_setup = |yard: &mut Yardstick, dir: &Path| {
        let (w, secs, factor) = yard.around(|| setup(name, size, dir, false));
        wall_setups.push(secs);
        ref_setups.push(secs * factor);
        w
    };
    let mut w = timed_setup(&mut yard, dir)?;
    let pass = measure(w.as_mut(), seed, ops, None, Some(&mut yard));
    // One workload instance's peak, before any further set-up.
    let peak_rss_mib = env::peak_rss_mib().unwrap_or(f64::NAN);
    drop(w);
    for k in 1..setups {
        drop(timed_setup(&mut yard, &dir.join(format!("setup-{k}")))?);
    }

    let scaled = pass.at_reference_speed(&yard);
    let e = |n: &str| metric(metrics::END_TO_END, n);
    let mut values: Vec<(Metric, f64)> = timings(median(&ref_setups), &scaled)
        .into_iter()
        .map(|(n, v)| (e(n), v))
        .collect();
    values.push((e("peak_rss_mib"), peak_rss_mib));
    let mut report = Report::new(name, &scaled, pass.lat_ns(false).len(), values);
    let wall: Vec<String> = timings(median(&wall_setups), &pass)
        .iter()
        .map(|(n, v)| format!("{n}={v}"))
        .collect();
    report.notes.push(format!(
        "wall-clock {} host_speed={}",
        wall.join(" "),
        yard.factor()
    ));
    Ok(report)
}

/// The traced run: one set-up, then at least `ops` ops in which untraced
/// and traced rounds of the same seeded schedule alternate.
fn run_traced(
    name: &str,
    size: Size,
    seed: u64,
    ops: u64,
    dir: &Path,
) -> Result<(Report, Tracer), String> {
    let mut w = setup(name, size, dir, true)?;
    let mut tracer = Tracer::new();
    let pass = measure(w.as_mut(), seed, ops, Some(&mut tracer), None);
    let layers = per_layer(&tracer, &pass, w.counters());
    let values = metrics::PER_LAYER
        .iter()
        .map(|m| (*m, layers[m.name]))
        .collect();
    let n = pass.lat_ns(true).len();
    Ok((Report::new(name, &pass, n, values), tracer))
}

/// A scratch directory for this process (the serve journals), removed
/// when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        all: false,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--all" => a.all = true,
            "--workload" => a.workload = Some(value("--workload")?.clone()),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be a finite, non-negative number".to_string());
                }
            }
            "--trace" => {
                a.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.all && a.workload.is_some() {
        return Err("--all and --workload exclude each other".to_string());
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("summarize") {
        return summarize(&args[1..]);
    }
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("mcbench: {why}");
            return ExitCode::from(2);
        }
    };
    if !a.all && a.workload.is_none() {
        return smoke();
    }
    if let Some(why) = env::build_refusal() {
        eprintln!("mcbench: refusing to measure: {why}");
        return ExitCode::from(2);
    }
    match &a.workload {
        Some(w) => workload(w, a.seed, a.seconds, a.trace),
        None => all(a.seed, a.seconds, a.trace),
    }
}

/// One workload in this process: prints its lines and the result object.
fn workload(name: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let dir = match WorkDir::new() {
        Ok(d) => d,
        Err(why) => {
            eprintln!("mcbench: {why}");
            return ExitCode::FAILURE;
        }
    };
    let full = FULL_OPS
        .iter()
        .find(|(w, _)| *w == name)
        .map_or(0, |(_, n)| *n);
    let ops = (full as f64 * seconds / DEFAULT_SECONDS).ceil() as u64;
    let result = if trace {
        run_traced(name, Size::Full, seed, ops, &dir.0).and_then(|(report, tracer)| {
            let path = Path::new(OUT_DIR).join(format!("{name}-{seed}.trace.json"));
            std::fs::write(&path, tracer.to_json(name, seed))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(report)
        })
    } else {
        run_e2e(name, Size::Full, seed, ops, SETUPS, &dir.0)
    };
    match result {
        Ok(report) => {
            print!("{}", report.lines());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("mcbench: {name}: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload, each in its own child process (so `peak_rss_mib` is
/// the workload's own), one at a time; writes the results file.
fn all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("mcbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let start = Instant::now();
    let mut runs = Vec::new();
    let mut ok = true;
    for w in WORKLOADS {
        for tr in [false, true].into_iter().filter(|&tr| !tr || trace) {
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if tr { "1" } else { "0" },
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let stdout = match out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).into_owned(),
                Ok(o) => {
                    eprintln!("mcbench: {w} exited with {}", o.status);
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("mcbench: cannot run {w}: {e}");
                    ok = false;
                    continue;
                }
            };
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or("");
            for l in lines {
                println!("{l}");
            }
            match json::parse(last) {
                Ok(v) => {
                    ok &= v.get("correct").and_then(json::Value::as_bool) == Some(true)
                        && v.get("failed").and_then(json::Value::as_f64) == Some(0.0);
                    runs.push(format!(
                        "{{\"workload\": {}, \"trace\": {}, \"result\": {last}}}",
                        json::quote(w),
                        u8::from(tr)
                    ));
                }
                Err(e) => {
                    eprintln!("mcbench: {w}: unreadable result line: {e}");
                    ok = false;
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    println!("all wall_s {wall_s} s");
    let results = format!(
        "{{\"fingerprint\": {}, \"wall_s\": {}, \"runs\": [\n{}\n]}}\n",
        env::fingerprint_json(Path::new(OUT_DIR), seed, seconds),
        json::num(wall_s),
        runs.join(",\n")
    );
    let path = Path::new(OUT_DIR).join(format!("results-{seed}.json"));
    match std::fs::write(&path, results) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("mcbench: {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The no-argument profile: every workload at the smallest sizes
/// (fattree(4), chain(2)), a few ops per pass, untraced and traced, all
/// oracles on. Fails if any answer is wrong or any op errs.
fn smoke() -> ExitCode {
    match smoke_report() {
        Ok((text, true)) => {
            print!("{text}");
            println!("smoke profile: every answer matched its oracle");
            ExitCode::SUCCESS
        }
        Ok((text, false)) => {
            print!("{text}");
            eprintln!("mcbench: smoke profile found wrong answers or failed ops");
            ExitCode::FAILURE
        }
        Err(why) => {
            eprintln!("mcbench: smoke: {why}");
            ExitCode::FAILURE
        }
    }
}

fn smoke_report() -> Result<(String, bool), String> {
    let dir = WorkDir::new()?;
    let mut text = String::new();
    let mut ok = true;
    for w in WORKLOADS {
        let e2e = run_e2e(w, Size::Smoke, 1, SMOKE_OPS, 1, &dir.0)?;
        let (layers, _) = run_traced(w, Size::Smoke, 1, 2 * SMOKE_OPS, &dir.0)?;
        for r in [&e2e, &layers] {
            text.push_str(&r.lines());
            ok &= r.correct() && r.failed == 0;
        }
    }
    Ok((text, ok))
}

/// Python's `statistics.quantiles(xs, n=4)` (the default, exclusive
/// method): the first quartile, the median and the third quartile.
fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let ld = d.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some([q(1), q(2), q(3)])
}

/// `mcbench summarize RESULTS.json...`: for every (workload, metric), the
/// median over the files, the quartiles, and two spreads relative to the
/// median: quartile distance and max − min.
fn summarize(files: &[String]) -> ExitCode {
    use std::collections::BTreeMap;
    let mut values: BTreeMap<(String, String), (String, Vec<f64>)> = BTreeMap::new();
    for f in files {
        let parsed = std::fs::read_to_string(f)
            .map_err(|e| e.to_string())
            .and_then(|t| json::parse(&t));
        let doc = match parsed {
            Ok(d) => d,
            Err(e) => {
                eprintln!("mcbench: {f}: {e}");
                return ExitCode::FAILURE;
            }
        };
        for run in doc
            .get("runs")
            .and_then(json::Value::as_array)
            .unwrap_or(&[])
        {
            let w = run
                .get("workload")
                .and_then(json::Value::as_str)
                .unwrap_or("?");
            let metrics = run
                .get("result")
                .and_then(|r| r.get("metrics"))
                .and_then(json::Value::as_object);
            for (name, m) in metrics.into_iter().flatten() {
                let (Some(v), Some(unit)) = (
                    m.get("value").and_then(json::Value::as_f64),
                    m.get("unit").and_then(json::Value::as_str),
                ) else {
                    continue;
                };
                let e = values
                    .entry((w.to_string(), name.clone()))
                    .or_insert_with(|| (unit.to_string(), Vec::new()));
                e.1.push(v);
            }
        }
    }
    println!("workload metric n median q1 q3 unit iqr_rel minmax_rel");
    for ((w, name), (unit, xs)) in &values {
        let Some([q1, med, q3]) = quartiles(xs) else {
            println!("{w} {name} {} {} - - {unit} - -", xs.len(), xs[0]);
            continue;
        };
        let (lo, hi) = xs
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
        let rel = |x: f64| if med == 0.0 { 0.0 } else { x / med.abs() };
        println!(
            "{w} {name} {} {med:.6} {q1:.6} {q3:.6} {unit} {:.4} {:.4}",
            xs.len(),
            rel(q3 - q1),
            rel(hi - lo)
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&args("--workload cold-chain --trace 0 --seed 4")).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seed, 4);
        assert!(parse_args(&args("--all --trace")).unwrap().trace);
        assert!(parse_args(&args("--all --trace --seed 2")).unwrap().trace);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds -1")).is_err());
    }

    /// BENCHMARK.json at the repository root lists exactly the metrics
    /// this program reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        for (key, registry) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            let listed = doc.get(key).and_then(json::Value::as_array).expect(key);
            let got: Vec<(String, String, String)> = listed
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(json::Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let want: Vec<(String, String, String)> = registry
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect();
            assert_eq!(got, want, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// The smoke profile runs every workload with every oracle, and its
    /// output names every metric.
    #[test]
    fn smoke_profile_reports_every_metric() {
        let (text, ok) = smoke_report().expect("smoke profile runs");
        assert!(ok, "smoke profile found errors:\n{text}");
        for w in WORKLOADS {
            for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
                let line = format!("{w} {} ", m.name);
                assert!(text.contains(&line), "missing {line:?}");
            }
        }
    }
}

//! Perf-regression gate: diffs a `cargo bench` median dump against a
//! checked-in baseline and warns on regressions.
//!
//! The criterion shim writes `BENCH_results.json` (flat JSON object,
//! benchmark label → median nanoseconds) after every `cargo bench` run.
//! This binary compares such a dump against `crates/bench/BENCH_baseline.json`
//! and reports every shared benchmark that regressed by more than the
//! threshold (default 15%). A benchmark only in the results is reported
//! as `new` and never fails the gate, so adding one needs no baseline
//! refresh. A baseline row missing from the results is reported as
//! `missing` and counts like a regression: retiring a benchmark means
//! deleting its baseline row in the same change, so a benchmark that
//! silently stops running cannot pass the gate.
//!
//! By default the gate is **advisory**: regressions are printed but the
//! exit code stays zero (baselines are machine-specific, so foreign
//! hardware will drift). Pass `--fail-on-regress` to exit non-zero on any
//! regression or missing row — that is what the CI job and local
//! pre-merge checks use.
//! Pass `--stable-only` to restrict the comparison to the benchmarks
//! whose medians are robust across machines (`solver_backends/*`,
//! `chain_engines/native_fdd`, and the two large fat-tree compiles that
//! depend on the sparse SCC loop solve staying sparse);
//! `--stable-only --fail-on-regress` is the *blocking* CI gate, while the
//! full set stays advisory.
//!
//! ```text
//! cargo bench -p mcnetkat-bench
//! cargo run -p mcnetkat-bench --bin bench_compare -- --fail-on-regress
//! # custom paths / threshold:
//! cargo run -p mcnetkat-bench --bin bench_compare -- current.json base.json 20
//! ```
//!
//! Refresh the baseline with `--update-baseline`: it rewrites
//! `crates/bench/BENCH_baseline.json` in place from the fresh
//! `BENCH_results.json` (and say so in the PR — baselines are
//! machine-specific, so refresh on the reference container).

use mcnetkat_bench::Table;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Benchmarks whose medians are robust across machines — the blocking
/// subset behind `--stable-only`. An entry ending in `/` names a whole
/// group; any other entry names one row exactly, so a new row whose name
/// merely starts like a stable one (`chain_engines/native_fdd_k32`) stays
/// advisory. The two large fat-tree compiles ride on the sparse SCC loop
/// solve; they are in the blocking set so a dense solve sneaking back in
/// (a 10×+ cliff, far beyond machine noise) fails the gate rather than
/// drowning in the advisory report.
const STABLE_ROWS: &[&str] = &[
    "solver_backends/",
    "chain_engines/native_fdd",
    "fattree_compile/f1000/16",
    "fattree_srlg/linecard1000/12",
];

/// Whether the benchmark row `name` is in the blocking subset.
fn is_stable(name: &str) -> bool {
    STABLE_ROWS.iter().any(|&entry| {
        if entry.ends_with('/') {
            name.starts_with(entry)
        } else {
            name == entry
        }
    })
}

// The audit guard asserts on a feature-dependent constant on purpose: a
// const assert would instead break `cargo test --features audit`, where
// building this binary (without running it) is fine.
#[allow(clippy::assertions_on_constants)]
fn main() -> ExitCode {
    // The diagram auditor adds a full node/interning-table walk to every
    // model compile — numbers taken with it on are not comparable to the
    // baseline. Feature unification is the usual culprit (some crate in
    // the build turning `audit` on for everyone), so fail loudly.
    assert!(
        !mcnetkat_fdd::AUDIT_ENABLED,
        "the `audit` feature is enabled in a benchmark build — timings \
         would include invariant audits; rebuild without it"
    );
    // Same story for the fault-injection registry: an armed-site check on
    // the compile hot path would skew every number it touches.
    assert!(
        !mcnetkat_fdd::FAILPOINTS_ENABLED,
        "the `failpoints` feature is enabled in a benchmark build — \
         timings would include fault-injection checks; rebuild without it"
    );
    let mut fail_on_regress = false;
    let mut update_baseline = false;
    let mut stable_only = false;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| match a.as_str() {
            "--fail-on-regress" => {
                fail_on_regress = true;
                false
            }
            "--update-baseline" => {
                update_baseline = true;
                false
            }
            "--stable-only" => {
                stable_only = true;
                false
            }
            _ => true,
        })
        .collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("error: unknown argument {flag}");
        return ExitCode::FAILURE;
    }
    // `cargo bench` writes the dump with the *package* directory as CWD,
    // while this binary usually runs from the workspace root — accept the
    // default file names from either location.
    let current_path = args.first().map(String::as_str).map_or_else(
        || first_existing(&["BENCH_results.json", "crates/bench/BENCH_results.json"]),
        str::to_string,
    );
    let current_path = current_path.as_str();
    let baseline_path = args.get(1).map(String::as_str).map_or_else(
        || first_existing(&["crates/bench/BENCH_baseline.json", "BENCH_baseline.json"]),
        str::to_string,
    );
    let baseline_path = baseline_path.as_str();
    let threshold_pct: f64 = args.get(2).map_or(15.0, |s| {
        s.parse().expect("threshold must be a number (percent)")
    });

    let mut current = match load(current_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {current_path}: {e}");
            eprintln!("hint: run `cargo bench -p mcnetkat-bench` first");
            return ExitCode::FAILURE;
        }
    };

    if update_baseline {
        if stable_only {
            // Rewriting only a subset would silently drop every other
            // benchmark from the baseline; make the caller choose.
            eprintln!("error: --update-baseline cannot be combined with --stable-only");
            return ExitCode::FAILURE;
        }
        return match write_baseline(baseline_path, &current) {
            Ok(()) => {
                println!(
                    "rewrote {baseline_path} from {current_path} ({} benchmarks)",
                    current.len()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: could not write {baseline_path}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut baseline = match load(baseline_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if stable_only {
        current.retain(|n, _| is_stable(n));
        baseline.retain(|n, _| is_stable(n));
        println!("stable subset only: {STABLE_ROWS:?}");
    }

    println!("comparing {current_path} against {baseline_path} (threshold {threshold_pct}%)\n");
    let mut table = Table::new(&["benchmark", "baseline", "current", "delta", "verdict"]);
    let mut regressions = 0usize;
    let mut missing = 0usize;
    for (name, &base_ns) in &baseline {
        let Some(&cur_ns) = current.get(name) else {
            missing += 1;
            table.row(vec![
                name.clone(),
                fmt_ns(base_ns),
                "—".into(),
                "—".into(),
                "missing".into(),
            ]);
            continue;
        };
        let delta_pct = (cur_ns - base_ns) / base_ns * 100.0;
        let verdict = if delta_pct > threshold_pct {
            regressions += 1;
            "REGRESSED"
        } else if delta_pct < -threshold_pct {
            "improved"
        } else {
            "ok"
        };
        table.row(vec![
            name.clone(),
            fmt_ns(base_ns),
            fmt_ns(cur_ns),
            format!("{delta_pct:+.1}%"),
            verdict.into(),
        ]);
    }
    for name in current.keys().filter(|n| !baseline.contains_key(*n)) {
        table.row(vec![
            name.clone(),
            "—".into(),
            fmt_ns(current[name]),
            "—".into(),
            "new".into(),
        ]);
    }
    table.print();

    if missing > 0 {
        eprintln!("\nwarning: {missing} baseline benchmark(s) missing from {current_path}");
    }
    if regressions > 0 {
        eprintln!("\nwarning: {regressions} benchmark(s) regressed by more than {threshold_pct}%");
    }
    if regressions + missing > 0 {
        if fail_on_regress {
            ExitCode::FAILURE
        } else {
            eprintln!("(advisory mode: exiting 0; pass --fail-on-regress to gate)");
            ExitCode::SUCCESS
        }
    } else {
        println!("\nno regressions beyond {threshold_pct}%");
        ExitCode::SUCCESS
    }
}

/// Rewrites the baseline file from a fresh results map, in the same flat
/// JSON shape the criterion shim dumps (integer nanoseconds where the
/// median is integral, so a round-tripped baseline diffs cleanly).
fn write_baseline(path: &str, results: &BTreeMap<String, f64>) -> Result<(), String> {
    let mut json = String::from("{\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        if ns.fract() == 0.0 {
            json.push_str(&format!("  \"{name}\": {ns:.0}{sep}\n"));
        } else {
            json.push_str(&format!("  \"{name}\": {ns}{sep}\n"));
        }
    }
    json.push_str("}\n");
    std::fs::write(path, json).map_err(|e| e.to_string())
}

/// The most recently modified candidate that exists on disk, else the
/// first candidate (so the error message names the preferred location).
/// Mtime ordering matters: a stale dump at one location must not shadow a
/// fresh one at the other.
fn first_existing(candidates: &[&str]) -> String {
    let existing: Vec<&&str> = candidates
        .iter()
        .filter(|p| std::path::Path::new(p).exists())
        .collect();
    if existing.len() > 1 {
        eprintln!("note: multiple candidates exist ({existing:?}); using the newest");
    }
    existing
        .into_iter()
        .max_by_key(|p| {
            std::fs::metadata(p)
                .and_then(|m| m.modified())
                .unwrap_or(std::time::SystemTime::UNIX_EPOCH)
        })
        .unwrap_or(&candidates[0])
        .to_string()
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn load(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_flat_json(&text)
}

/// Parses the shim's dump format: one flat JSON object mapping string
/// keys to numbers. Not a general JSON parser — nested values are
/// rejected — but accepts any whitespace layout.
fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut map = BTreeMap::new();
    let mut chars = text.chars().peekable();
    skip_ws(&mut chars);
    expect(&mut chars, '{')?;
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        expect(&mut chars, ':')?;
        skip_ws(&mut chars);
        let value = parse_number(&mut chars)?;
        map.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => return Ok(map),
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn expect(chars: &mut std::iter::Peekable<std::str::Chars<'_>>, want: char) -> Result<(), String> {
    match chars.next() {
        Some(c) if c == want => Ok(()),
        other => Err(format!("expected {want:?}, found {other:?}")),
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some(c @ ('"' | '\\' | '/')) => out.push(c),
                other => return Err(format!("unsupported escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

fn parse_number(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<f64, String> {
    let mut lit = String::new();
    while chars
        .peek()
        .is_some_and(|c| c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
    {
        lit.push(chars.next().unwrap());
    }
    lit.parse().map_err(|e| format!("bad number {lit:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact-name matching blocks on the very baseline rows the old prefix
    /// matching did, and leaves rows that only share a prefix advisory.
    #[test]
    fn stable_rows_match_groups_by_prefix_and_rows_exactly() {
        let baseline = parse_flat_json(include_str!("../../BENCH_baseline.json")).unwrap();
        let blocking: Vec<&str> = baseline
            .keys()
            .map(String::as_str)
            .filter(|n| is_stable(n))
            .collect();
        assert_eq!(
            blocking,
            [
                "chain_engines/native_fdd",
                "fattree_compile/f1000/16",
                "fattree_srlg/linecard1000/12",
                "solver_backends/GaussSeidel",
            ]
        );
        let by_prefix = |n: &str| STABLE_ROWS.iter().any(|p| n.starts_with(p));
        assert!(baseline.keys().all(|n| is_stable(n) == by_prefix(n)));
        assert!(!is_stable("chain_engines/native_fdd_k32"));
        assert!(!is_stable("fattree_compile/f1000/160"));
        assert!(is_stable("solver_backends/Jacobi"));
    }
}

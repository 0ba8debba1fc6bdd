//! Workload harness for the incremental service engine (`mcnetkat-serve`):
//! a synthetic update/query mix over fat-trees, measuring what a
//! long-lived verification service actually feels like — steady-state
//! patch latency against the cold-compile floor, query throughput, and
//! tail latencies.
//!
//! The workload has three phases per topology:
//!
//! 1. **Cold load** — one from-scratch compile through the engine (the
//!    baseline every patch is measured against).
//! 2. **Warmup** — a configuration *flap set* (single-switch scheme edits
//!    and link-probability changes) is applied once in each direction, so
//!    both sides of every flap have warm per-switch diagrams and
//!    `while`-loop solutions. This is the operating regime of a
//!    long-lived engine: churn revisits configurations far more often
//!    than it invents new ones.
//! 3. **Steady state** — deltas cycle through the warm flap set, each
//!    followed by a batch of delivery queries; patch and query latencies
//!    are recorded.
//!
//! Output: a human table on stdout plus a flat JSON dump
//! (`crates/bench/BENCH_serve.json`, same shape as the criterion shim's)
//! with `serve/<topo>/…` keys — `bench_compare` diffs it against
//! `BENCH_serve_baseline.json` when present. Override the path with
//! `MCNETKAT_SERVE_BENCH_PATH`; set it empty to disable the dump.
//!
//! `--smoke` is the CI profile: a smaller topology and fresh-delta count,
//! plus a **blocking** differential check — after every single delta the
//! patched diagram is verified `equiv` to a cold compile of the current
//! model. `MCNETKAT_SCALE=paper` adds fattree(10).
//!
//! `--recovery` adds the durability phase: a journaled engine takes a
//! 100-delta churn log, the process "dies" (the engine is dropped), and
//! the phase times [`Engine::recover`] replaying the log — the
//! `recovery_replay_ns` the serve README's snapshot-cadence advice is
//! based on — plus an overload probe (two query batches racing a
//! one-permit admission gate) whose shed rate lands in the same dump.

use mcnetkat_bench::{secs, timed, Scale, Table};
use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_serve::{Delta, Engine, EngineConfig, EngineError, ModelId, Query, QueryRequest};
use mcnetkat_topo::{fattree, NodeId};

// Runtime asserts on purpose — `cargo test --features audit` builds this
// binary without running it, and must keep compiling.
#[allow(clippy::assertions_on_constants)]
fn main() {
    assert!(
        !mcnetkat_fdd::AUDIT_ENABLED,
        "the `audit` feature is enabled in a benchmark build — timings \
         would include invariant audits; rebuild without it"
    );
    assert!(
        !mcnetkat_fdd::FAILPOINTS_ENABLED,
        "the `failpoints` feature is enabled in a benchmark build — \
         timings would include fault-injection checks; rebuild without it"
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    let recovery = std::env::args().any(|a| a == "--recovery");
    let ports: &[usize] = if smoke {
        &[4]
    } else {
        match mcnetkat_bench::scale() {
            Scale::Small => &[8],
            Scale::Paper => &[8, 10],
        }
    };
    let mut dump: Vec<(String, f64)> = Vec::new();
    for &p in ports {
        run_workload(p, smoke, &mut dump);
    }
    if recovery {
        run_recovery(if smoke { 4 } else { 8 }, &mut dump);
        run_overload(&mut dump);
    }
    write_dump(&dump);
    if smoke {
        println!("smoke profile: every delta verified against a cold compile — OK");
    }
}

fn model_for(p: usize) -> NetworkModel {
    let topo = fattree(p);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    )
}

/// The churn set: alternating single-switch scheme flaps on a few core
/// and aggregation switches, plus a link-probability flap on one prone
/// port. Each entry is (apply, revert) — cycling applies one direction
/// per steady-state step.
fn flap_set(model: &NetworkModel) -> Vec<(Delta, Delta)> {
    let find = |name: &str| model.topo.find(name);
    let mut flaps: Vec<(Delta, Delta)> = Vec::new();
    let scheme_flap = |s: NodeId| {
        (
            Delta::SetSwitchScheme(s, RoutingScheme::F10_3),
            Delta::ClearSwitchScheme(s),
        )
    };
    for name in ["core0", "core1", "agg0_0", "agg1_0"] {
        if let Some(s) = find(name) {
            flaps.push(scheme_flap(s));
        }
    }
    if let Some(&port) = model
        .topo
        .switches()
        .iter()
        .flat_map(|&s| model.prone_ports(s))
        .collect::<Vec<_>>()
        .first()
    {
        flaps.push((
            Delta::SetLinkPr(port, Ratio::new(1, 10)),
            Delta::ClearLinkPr(port),
        ));
    }
    flaps
}

fn run_workload(p: usize, smoke: bool, dump: &mut Vec<(String, f64)>) {
    let label = format!("fattree{p}");
    println!("== serve workload: fattree({p}) ==");
    let mut engine = Engine::default();

    // Phase 1: cold load.
    let model = model_for(p);
    let (id, cold_s) = timed(|| engine.load(model).expect("cold load failed"));
    println!("cold load: {}", secs(cold_s));

    // Phase 2: warm both sides of every flap (and, in smoke mode, verify
    // each patch against a cold compile — the CI equivalence gate).
    let flaps = flap_set(engine.model(id).unwrap());
    let fresh_deltas = flaps.len() * 2;
    let mut fresh_patch_ns: Vec<u64> = Vec::new();
    for (apply, revert) in &flaps {
        for d in [apply, revert] {
            let report = engine.apply(id, d.clone()).expect("warmup delta failed");
            fresh_patch_ns.push(duration_ns(report.elapsed));
            verify(&engine, id, smoke, d);
        }
    }

    // Phase 3: steady state — cycle the warm flap set, a query batch
    // after every delta.
    let steps = if smoke {
        fresh_deltas
    } else {
        fresh_deltas * 4
    };
    let srcs = query_mix(engine.model(id).unwrap());
    engine.reset_latencies();
    let mut patch_ns: Vec<u64> = Vec::new();
    let mut recompiled = 0u64;
    let mut queries = 0usize;
    let mut query_secs = 0.0f64;
    for step in 0..steps {
        let (apply, revert) = &flaps[step % flaps.len()];
        let d = if (step / flaps.len()).is_multiple_of(2) {
            apply
        } else {
            revert
        };
        let report = engine.apply(id, d.clone()).expect("steady delta failed");
        patch_ns.push(duration_ns(report.elapsed));
        recompiled += report.switches_recompiled as u64;
        verify(&engine, id, smoke, d);

        let reqs: Vec<QueryRequest> = srcs
            .iter()
            .map(|&src| Query::DeliveryProb { model: id, src }.into())
            .collect();
        let (answers, qs) = timed(|| engine.query_batch(&reqs));
        assert!(answers.iter().all(Result::is_ok), "query failed");
        queries += answers.len();
        query_secs += qs;
    }

    // Report.
    let stats = engine.stats();
    patch_ns.sort_unstable();
    fresh_patch_ns.sort_unstable();
    let cold_ns = cold_s * 1e9;
    let patch_p50 = percentile(&patch_ns, 50.0);
    let patch_p99 = percentile(&patch_ns, 99.0);
    let speedup = cold_ns / patch_p50 as f64;
    let throughput = queries as f64 / query_secs;
    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["cold compile".into(), secs(cold_s)]);
    table.row(vec![
        "fresh patch p50 (unwarmed delta)".into(),
        fmt_ns(percentile(&fresh_patch_ns, 50.0)),
    ]);
    table.row(vec!["steady patch p50".into(), fmt_ns(patch_p50)]);
    table.row(vec!["steady patch p99".into(), fmt_ns(patch_p99)]);
    table.row(vec![
        "patch speedup vs cold".into(),
        format!("{speedup:.1}x"),
    ]);
    table.row(vec![
        "switches recompiled / delta".into(),
        format!("{:.2}", recompiled as f64 / steps as f64),
    ]);
    table.row(vec!["query p50".into(), fmt_ns(stats.query_p50_ns)]);
    table.row(vec!["query p99".into(), fmt_ns(stats.query_p99_ns)]);
    table.row(vec![
        "query throughput".into(),
        format!("{throughput:.0}/s"),
    ]);
    table.row(vec![
        "while-cache hits".into(),
        format!("{}", stats.while_cache.hits),
    ]);
    table.row(vec![
        "op-cache evictions".into(),
        format!("{}", stats.op_cache_evictions),
    ]);
    table.print();
    println!();

    let key = |m: &str| format!("serve/{label}/{m}");
    dump.push((key("cold_compile_ns"), cold_ns));
    dump.push((
        key("fresh_patch_p50_ns"),
        percentile(&fresh_patch_ns, 50.0) as f64,
    ));
    dump.push((key("delta_patch_p50_ns"), patch_p50 as f64));
    dump.push((key("delta_patch_p99_ns"), patch_p99 as f64));
    dump.push((key("patch_speedup_x"), speedup));
    dump.push((
        key("switches_recompiled_per_delta"),
        recompiled as f64 / steps as f64,
    ));
    dump.push((key("query_p50_ns"), stats.query_p50_ns as f64));
    dump.push((key("query_p99_ns"), stats.query_p99_ns as f64));
    dump.push((key("query_throughput_per_sec"), throughput));
}

/// The `--recovery` phase: journal a 100-delta churn log (cycling the
/// flap set, so it is the same workload the steady-state phase measures),
/// drop the engine, and time [`Engine::recover`] replaying it — which
/// includes recovery's built-in cold re-verification of every model, the
/// price of a trustworthy restart.
fn run_recovery(p: usize, dump: &mut Vec<(String, f64)>) {
    const DELTAS: usize = 100;
    let label = format!("fattree{p}");
    println!("== serve recovery: fattree({p}), {DELTAS}-delta journal ==");
    let dir = std::env::temp_dir().join(format!(
        "mcnetkat-serve-bench-recovery-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine =
        Engine::with_journal(EngineConfig::default(), &dir).expect("journal dir unwritable");
    let id = engine.load(model_for(p)).expect("cold load failed");
    let flaps = flap_set(engine.model(id).unwrap());
    for step in 0..DELTAS {
        let (apply, revert) = &flaps[step % flaps.len()];
        let d = if (step / flaps.len()).is_multiple_of(2) {
            apply
        } else {
            revert
        };
        engine.apply(id, d.clone()).expect("journaled delta failed");
    }
    let journal_bytes = engine.stats().journal_bytes;
    drop(engine); // the "crash"

    let ((_, report), replay_s) =
        timed(|| Engine::recover(EngineConfig::default(), &dir).expect("recovery failed"));
    assert_eq!(
        report.records_replayed,
        DELTAS as u64 + 1,
        "load + every committed delta"
    );
    let _ = std::fs::remove_dir_all(&dir);

    let mut table = Table::new(&["metric", "value"]);
    table.row(vec!["journal size".into(), format!("{journal_bytes}B")]);
    table.row(vec![
        "records replayed".into(),
        format!("{}", report.records_replayed),
    ]);
    table.row(vec!["recovery replay".into(), secs(replay_s)]);
    table.print();
    println!();
    let key = |m: &str| format!("serve/{label}/{m}");
    dump.push((key("recovery_replay_ns"), replay_s * 1e9));
    dump.push((key("recovery_records"), report.records_replayed as f64));
    dump.push((key("recovery_journal_bytes"), journal_bytes as f64));
}

/// The overload probe: two query batches race a one-permit admission
/// gate. Sheds come only from cross-batch contention (each batch's own
/// fan-out is capped at the gate), so the rate is the advisory gauge of
/// how hard the gate bites — the accounting invariant (every request
/// answers or sheds, exactly counted) is asserted here and gated in the
/// serve test suite.
fn run_overload(dump: &mut Vec<(String, f64)>) {
    const BATCH: usize = 64;
    println!("== serve overload: 2 batches × {BATCH} queries, 1 permit ==");
    let config = EngineConfig {
        max_concurrent_queries: Some(1),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config);
    let id = engine.load(model_for(4)).expect("cold load failed");
    let reqs: Vec<QueryRequest> = (0..BATCH)
        .map(|_| Query::MinDelivery { model: id }.into())
        .collect();
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| engine.query_batch(&reqs));
        let h2 = scope.spawn(|| engine.query_batch(&reqs));
        (h1.join().unwrap(), h2.join().unwrap())
    });
    assert!(
        r1.iter()
            .chain(r2.iter())
            .all(|r| matches!(r, Ok(_) | Err(EngineError::Overloaded { .. }))),
        "every request must answer or shed"
    );
    let shed = engine.stats().queries_shed;
    let rate = shed as f64 / (2 * BATCH) as f64;
    println!("shed {shed}/{} ({:.0}%)\n", 2 * BATCH, rate * 100.0);
    dump.push(("serve/overload/queries_shed".into(), shed as f64));
    dump.push(("serve/overload/shed_rate".into(), rate));
}

/// In smoke mode, the blocking differential gate: the patched diagram
/// must be `equiv` to a cold compile of the current model.
fn verify(engine: &Engine, id: ModelId, smoke: bool, d: &Delta) {
    if smoke {
        assert!(
            engine.verify_against_cold(id).expect("cold verify failed"),
            "incremental ≢ cold after {d:?}"
        );
    }
}

/// A handful of ingresses spread across pods — the per-delta query batch.
fn query_mix(model: &NetworkModel) -> Vec<NodeId> {
    let mut srcs = model.ingresses();
    srcs.retain(|&s| s != model.dst);
    let stride = (srcs.len() / 6).max(1);
    srcs.into_iter().step_by(stride).take(6).collect()
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nearest-rank percentile of a sorted sample set.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
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

/// Writes the flat JSON dump `bench_compare` understands. The default
/// path keeps every benchmark artifact under `crates/bench/` when run
/// from the workspace root, and falls back to the CWD elsewhere.
fn write_dump(dump: &[(String, f64)]) {
    let path = std::env::var("MCNETKAT_SERVE_BENCH_PATH").unwrap_or_else(|_| {
        if std::path::Path::new("crates/bench").is_dir() {
            "crates/bench/BENCH_serve.json".to_string()
        } else {
            "BENCH_serve.json".to_string()
        }
    });
    if path.is_empty() {
        return;
    }
    let mut json = String::from("{\n");
    for (i, (name, v)) in dump.iter().enumerate() {
        let sep = if i + 1 == dump.len() { "" } else { "," };
        if v.fract() == 0.0 {
            json.push_str(&format!("  \"{name}\": {v:.0}{sep}\n"));
        } else {
            json.push_str(&format!("  \"{name}\": {v:.2}{sep}\n"));
        }
    }
    json.push_str("}\n");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
}

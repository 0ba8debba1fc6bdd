//! The metric dictionary and the closed measuring loop shared by every
//! workload.

use crate::schedule::{round_order, Rng};
use crate::trace::{SpanStats, Tracer};
use crate::yardstick::Yardstick;
use mcnetkat_fdd::Manager;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One reported metric: its name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`; BENCHMARK.json must agree (checked by a test).
    #[allow(dead_code)]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower"),
    m("lat_p50_ms", "ms", "lower"),
    m("lat_p99_ms", "ms", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer a
/// workload never calls reads 0 there. README.md says which end-to-end
/// metric each should move, on which workload.
pub const PER_LAYER: &[Metric] = &[
    m("topo.shortest_paths_ms", "ms", "lower"),
    m("net.fused.hop_inputs_ms", "ms", "lower"),
    m("net.fused.hop_compile_ms", "ms", "lower"),
    m("net.fused.assemble_chain_ms", "ms", "lower"),
    m("fdd.loops.while_loop_ms", "ms", "lower"),
    m("net.fused.tail_ms", "ms", "lower"),
    m("fdd.compile_ms", "ms", "lower"),
    m("fdd.query.prob_matching_us", "us", "lower"),
    m("net.parallel.compile_ms", "ms", "lower"),
    m("serve.engine.apply_ms", "ms", "lower"),
    m("serve.engine.apply_p99_ms", "ms", "lower"),
    m("serve.delta.apply_to_ms", "ms", "lower"),
    m("serve.engine.hop_key_ms", "ms", "lower"),
    m("serve.journal.append_ms", "ms", "lower"),
    m("serve.engine.unexplained_ms", "ms", "lower"),
    m("serve.engine.query_batch_us", "us", "lower"),
    m("serve.engine.batch_overhead_us", "us", "lower"),
    m("serve.engine.admission_us", "us", "lower"),
    m("net.queries.delivery_prob_us", "us", "lower"),
    m("net.queries.min_delivery_us", "us", "lower"),
    m("fdd.query.less_eq_us", "us", "lower"),
    m("fdd.query.equiv_us", "us", "lower"),
    m("net.queries.equiv_teleport_us", "us", "lower"),
    m("fdd.manager.op_cache_hit_rate", "fraction", "higher"),
    m("fdd.manager.peak_live_nodes", "count", "lower"),
    m("fdd.manager.peak_dist_entries", "count", "lower"),
    m("fdd.manager.live_nodes_end", "count", "lower"),
    m("net.fused.max_scratch_nodes", "count", "lower"),
    m("fdd.loops.transient_states", "count", "lower"),
    m("fdd.loops.lumped_blocks", "count", "lower"),
    m("fdd.loops.sccs", "count", "higher"),
    m("fdd.loops.fallbacks", "count", "lower"),
    m("fdd.loops.while_cache_hit_rate", "fraction", "higher"),
    m("serve.engine.hop_cache_hit_rate", "fraction", "higher"),
    m(
        "serve.engine.switches_recompiled_per_delta",
        "count",
        "lower",
    ),
    m("serve.journal.bytes_per_delta", "B", "lower"),
    m("serve.churn.warm_op_ms", "ms", "lower"),
    m("serve.churn.fresh_op_ms", "ms", "lower"),
    m("trace.overhead_ms", "ms", "lower"),
    m("trace.span_coverage", "fraction", "higher"),
];

/// How a per-layer time metric is read off the spans of one name.
enum Agg {
    /// Self time summed over the pass, per op, in ms.
    PerOpMs,
    /// Self time per call, in µs.
    PerCallUs,
    /// Self time per call, in ms.
    PerCallMs,
    /// 99th-percentile span duration, in ms.
    P99Ms,
}

/// Per-layer time metrics taken straight from one span name.
const FROM_SPANS: &[(&str, &str, Agg)] = &[
    (
        "topo.shortest_paths_ms",
        "topo.shortest_paths",
        Agg::PerOpMs,
    ),
    (
        "net.fused.hop_inputs_ms",
        "net.fused.hop_inputs",
        Agg::PerOpMs,
    ),
    (
        "net.fused.hop_compile_ms",
        "net.fused.hop_compile",
        Agg::PerOpMs,
    ),
    (
        "net.fused.assemble_chain_ms",
        "net.fused.assemble_chain",
        Agg::PerOpMs,
    ),
    (
        "fdd.loops.while_loop_ms",
        "fdd.loops.while_loop",
        Agg::PerOpMs,
    ),
    ("net.fused.tail_ms", "net.fused.tail", Agg::PerOpMs),
    ("fdd.compile_ms", "fdd.compile", Agg::PerOpMs),
    (
        "fdd.query.prob_matching_us",
        "fdd.query.prob_matching",
        Agg::PerCallUs,
    ),
    (
        "net.parallel.compile_ms",
        "net.parallel.compile",
        Agg::PerCallMs,
    ),
    (
        "serve.engine.apply_ms",
        "serve.engine.apply",
        Agg::PerCallMs,
    ),
    (
        "serve.engine.apply_p99_ms",
        "serve.engine.apply",
        Agg::P99Ms,
    ),
    (
        "serve.delta.apply_to_ms",
        "serve.delta.apply_to",
        Agg::PerOpMs,
    ),
    (
        "serve.engine.hop_key_ms",
        "serve.engine.hop_key",
        Agg::PerOpMs,
    ),
    (
        "serve.journal.append_ms",
        "serve.journal.append",
        Agg::PerOpMs,
    ),
    (
        "serve.engine.query_batch_us",
        "serve.engine.query_batch",
        Agg::PerCallUs,
    ),
    (
        "net.queries.delivery_prob_us",
        "net.queries.delivery_prob",
        Agg::PerCallUs,
    ),
    (
        "net.queries.min_delivery_us",
        "net.queries.min_delivery",
        Agg::PerCallUs,
    ),
    ("fdd.query.less_eq_us", "fdd.query.less_eq", Agg::PerCallUs),
    ("fdd.query.equiv_us", "fdd.query.equiv", Agg::PerCallUs),
    (
        "net.queries.equiv_teleport_us",
        "net.queries.equiv_teleport",
        Agg::PerCallUs,
    ),
];

/// Span names of the serve engine's shadow patch path (see
/// `serve_churn`): what `serve.engine.unexplained_ms` subtracts from
/// `serve.engine.apply_ms`.
pub const SHADOW_SPANS: &[&str] = &[
    "serve.delta.apply_to",
    "topo.shortest_paths",
    "serve.engine.hop_key",
    "net.fused.hop_compile",
    "net.fused.assemble_chain",
    "fdd.loops.while_loop",
    "net.fused.tail",
    "serve.journal.append",
];

/// Span names of the three ways the query probes answer one request
/// (see `serve_read::probe`).
pub const QUERY_DIRECT: &str = "query.direct";
pub const QUERY_ENGINE: &str = "serve.engine.query";
pub const QUERY_BATCH1: &str = "serve.engine.query_batch1";

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One op of a pass.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// Which input of the population it ran (ops of one class do the same
    /// work in every round).
    pub class: usize,
    /// Whether it ran in a traced round.
    pub traced: bool,
    /// When it started, in ns since the pass began.
    pub at_ns: u64,
    /// Its latency, unless it failed.
    pub lat_ns: Option<u64>,
}

/// Outcome counts and latencies of one pass.
#[derive(Debug, Default)]
pub struct PassStats {
    /// Every op, in id order.
    pub ops: Vec<OpRecord>,
    pub attempted: u64,
    /// Ops that returned an error (a shed query included).
    pub failed: u64,
    /// Ops whose answer differed from the oracle.
    pub wrong: u64,
    /// The first few failures and wrong answers, for the log.
    pub notes: Vec<String>,
    /// Wall time of the pass.
    pub wall_ns: u64,
    /// The part of `wall_ns` spent in untimed oracle checks.
    pub untimed_ns: u64,
}

impl PassStats {
    /// Per op id: whether it completed, in a traced round if `traced`, in
    /// an untraced one otherwise.
    pub fn completed(&self, traced: bool) -> Vec<bool> {
        self.ops
            .iter()
            .map(|op| op.lat_ns.is_some() && op.traced == traced)
            .collect()
    }

    /// Latencies of the completed ops of traced or of untraced rounds,
    /// ascending.
    pub fn lat_ns(&self, traced: bool) -> Vec<u64> {
        let mut lat: Vec<u64> = self
            .ops
            .iter()
            .filter(|op| op.traced == traced)
            .filter_map(|op| op.lat_ns)
            .collect();
        lat.sort_unstable();
        lat
    }

    /// The median over input classes of each class's median latency
    /// (untraced ops). Every class is equally frequent, so this is the
    /// median op of the population; taken per class, it does not jump
    /// between two classes when the overall median falls on the gap
    /// between them, where a nearest-rank median over all ops would read
    /// the slowest sample of one class.
    pub fn class_median_ns(&self) -> f64 {
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for op in self.ops.iter().filter(|op| !op.traced) {
            if let Some(ns) = op.lat_ns {
                by_class.entry(op.class).or_default().push(ns as f64);
            }
        }
        let medians: Vec<f64> = by_class.values().map(|v| median(v)).collect();
        median(&medians)
    }

    /// Mean latency of the completed ops of traced or of untraced rounds.
    pub fn mean_op_ns(&self, traced: bool) -> f64 {
        let lat = self.lat_ns(traced);
        lat.iter().sum::<u64>() as f64 / lat.len().max(1) as f64
    }

    /// Completed untraced ops per second of the pass's wall time, the
    /// untimed oracle checks and yardstick slices left out.
    pub fn ops_per_s(&self) -> f64 {
        let secs = self.wall_ns.saturating_sub(self.untimed_ns) as f64 / 1e9;
        self.lat_ns(false).len() as f64 / secs
    }

    /// This pass at the yardstick's reference speed: each op's latency
    /// times the factor of the slices around it, and the time between ops
    /// times the factor of the whole pass. Every op stays in.
    pub fn at_reference_speed(&self, yard: &Yardstick) -> PassStats {
        let mut ops = self.ops.clone();
        let (mut raw_ns, mut scaled_ns) = (0u64, 0.0);
        for op in &mut ops {
            if let Some(ns) = op.lat_ns {
                let scaled = ns as f64 * yard.factor_at(op.at_ns + ns / 2);
                raw_ns += ns;
                scaled_ns += scaled;
                op.lat_ns = Some(scaled.round() as u64);
            }
        }
        let between = self.wall_ns.saturating_sub(self.untimed_ns + raw_ns);
        PassStats {
            ops,
            attempted: self.attempted,
            failed: self.failed,
            wrong: self.wrong,
            notes: self.notes.clone(),
            wall_ns: (scaled_ns + between as f64 * yard.factor()).round() as u64,
            untimed_ns: 0,
        }
    }

    fn note(&mut self, why: String) {
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }
}

/// What one op of a workload sees: the seed, the tracer in a traced
/// round, and where to record its outcome.
pub struct Ctx<'a> {
    pub seed: u64,
    pub tracer: Option<&'a mut Tracer>,
    pub stats: PassStats,
    /// When the pass began.
    origin: Instant,
}

/// Nanoseconds since `origin`.
fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Ctx<'_> {
    /// Starts a new op of input class `class` and returns its id (0, 1,
    /// … within the pass).
    pub fn begin_op(&mut self, class: usize) -> u64 {
        let id = self.stats.ops.len() as u64;
        self.stats.ops.push(OpRecord {
            class,
            traced: self.tracer.is_some(),
            at_ns: ns_since(self.origin),
            lat_ns: None,
        });
        self.stats.attempted += 1;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.set_op(id);
        }
        id
    }

    /// A generator for per-op choices, fixed by the seed and the op id.
    pub fn op_rng(&self, op: u64) -> Rng {
        Rng::new(self.seed, (1 << 40) + op)
    }

    /// Records the current op as completed: its latency, and whether its
    /// answer matched the oracle (`Err` describes the mismatch).
    pub fn done(&mut self, elapsed: Duration, answer: Result<(), String>) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let op = self
            .stats
            .ops
            .last_mut()
            .expect("done() follows begin_op()");
        op.lat_ns = Some(ns);
        if let Err(why) = answer {
            self.wrong(why);
        }
    }

    /// Runs an oracle check between ops; its time does not count towards
    /// `ops_per_s`.
    pub fn untimed<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.stats.untimed_ns += ns_since(start);
        out
    }

    /// Records an op that returned an error.
    pub fn failed(&mut self, why: String) {
        self.stats.failed += 1;
        self.stats.note(format!("error: {why}"));
    }

    /// Records a wrong answer found outside an op's own check (an
    /// untimed oracle pass).
    pub fn wrong(&mut self, why: String) {
        self.stats.wrong += 1;
        self.stats.note(format!("wrong: {why}"));
    }
}

/// A workload: a population of inputs, each run as one or more closed-loop
/// ops. Built by its module's `setup`, which does all untimed preparation.
pub trait Workload {
    /// Inputs in one stratified round.
    fn population(&self) -> usize;
    /// Runs population member `input`.
    fn run(&mut self, input: usize, ctx: &mut Ctx<'_>);
    /// Layer counters gathered over the pass (meaningful after a traced
    /// pass), keyed by per-layer metric name.
    fn counters(&self) -> Vec<(&'static str, f64)>;
}

/// How often a measured pass takes a yardstick slice: after the first op
/// that ends this long after the last slice.
const SLICE_EVERY_NS: u64 = 25_000_000;

/// A closed-loop pass over a workload: whole seeded rounds until at least
/// `ops` ops have been attempted. The amount of work is fixed, not the
/// time, so that a faster program does not simply do more of it: memory
/// that grows with work stays comparable across versions. Given a tracer,
/// the pass alternates untraced and traced rounds (at least one of each),
/// so that both see the same host conditions and their difference is the
/// tracing. Given a yardstick, it takes a slice between ops every
/// `SLICE_EVERY_NS` (untimed).
pub fn measure(
    w: &mut dyn Workload,
    seed: u64,
    ops: u64,
    mut tracer: Option<&mut Tracer>,
    mut yard: Option<&mut Yardstick>,
) -> PassStats {
    let min_rounds = if tracer.is_some() { 2 } else { 1 };
    let mut stats = PassStats::default();
    let origin = Instant::now();
    let mut last_slice = 0;
    let mut round = 0;
    while round < min_rounds || stats.attempted < ops {
        let traced = round % 2 == 1;
        let mut ctx = Ctx {
            seed,
            tracer: tracer.as_deref_mut().filter(|_| traced),
            stats,
            origin,
        };
        for input in round_order(seed, round, w.population()) {
            w.run(input, &mut ctx);
            if let Some(y) = yard.as_deref_mut() {
                let now = ns_since(origin);
                if now - last_slice >= SLICE_EVERY_NS {
                    y.sample(now);
                    last_slice = ns_since(origin);
                    ctx.stats.untimed_ns += last_slice - now;
                }
            }
        }
        stats = ctx.stats;
        round += 1;
    }
    stats.wall_ns = ns_since(origin);
    stats
}

/// Per-layer metrics of a traced pass: span aggregates, the derived
/// differences, the workload's counters, and the tracing overhead (traced
/// rounds against the untraced rounds between them). Layers with no spans
/// and no counters read 0.
pub fn per_layer(
    tracer: &Tracer,
    pass: &PassStats,
    counters: Vec<(&'static str, f64)>,
) -> BTreeMap<&'static str, f64> {
    let keep = pass.completed(true);
    let spans = tracer.summary(&keep);
    let ops = keep.iter().filter(|&&k| k).count().max(1) as f64;
    let none = SpanStats::default();
    let get = |name: &str| spans.get(name).unwrap_or(&none);
    let per_call_ns = |name: &str| {
        let s = get(name);
        s.self_ns as f64 / s.calls.max(1) as f64
    };
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|m| (m.name, 0.0)).collect();
    for (metric, span, agg) in FROM_SPANS {
        let s = get(span);
        let v = match agg {
            Agg::PerOpMs => s.self_ns as f64 / ops / 1e6,
            Agg::PerCallUs => per_call_ns(span) / 1e3,
            Agg::PerCallMs => per_call_ns(span) / 1e6,
            Agg::P99Ms => {
                let mut d = s.durations_ns.clone();
                d.sort_unstable();
                percentile(&d, 99.0) as f64 / 1e6
            }
        };
        out.insert(metric, v);
    }
    let apply = get("serve.engine.apply");
    if apply.calls > 0 {
        let shadow_ns: u64 = SHADOW_SPANS.iter().map(|s| get(s).self_ns).sum();
        let per_apply = |ns: u64| ns as f64 / apply.calls as f64 / 1e6;
        out.insert(
            "serve.engine.unexplained_ms",
            per_apply(apply.total_ns()) - per_apply(shadow_ns),
        );
    }
    if get(QUERY_ENGINE).calls > 0 {
        let mean_ns = |name: &str| get(name).total_ns() as f64 / get(name).calls.max(1) as f64;
        out.insert(
            "serve.engine.batch_overhead_us",
            (mean_ns(QUERY_BATCH1) - mean_ns(QUERY_ENGINE)) / 1e3,
        );
        out.insert(
            "serve.engine.admission_us",
            (mean_ns(QUERY_ENGINE) - mean_ns(QUERY_DIRECT)) / 1e3,
        );
    }
    let untraced_ns = pass.mean_op_ns(false);
    out.insert(
        "trace.overhead_ms",
        (pass.mean_op_ns(true) - untraced_ns) / 1e6,
    );
    out.insert(
        "trace.span_coverage",
        tracer.layer_ns_per_op(&keep) / untraced_ns,
    );
    for (name, v) in counters {
        assert!(
            out.contains_key(name),
            "counter {name} is not a per-layer metric"
        );
        out.insert(name, v);
    }
    out
}

/// Gauges of the per-op managers a cold workload creates: summed cache
/// lookups and loop-solve sizes, maximal table sizes.
#[derive(Debug, Default)]
pub struct ManagerGauges {
    ops: u64,
    hits: u64,
    lookups: u64,
    peak_nodes: usize,
    peak_dist: usize,
    transient: u64,
    blocks: u64,
    sccs: u64,
    fallbacks: u64,
    pub max_scratch_nodes: usize,
}

impl ManagerGauges {
    /// Folds in one op's manager, after its op.
    pub fn absorb(&mut self, mgr: &Manager) {
        let op = mgr.op_cache_stats();
        let ls = mgr.loop_solve_stats();
        self.ops += 1;
        self.hits += op.total_hits();
        self.lookups += op.total_hits() + op.total_misses();
        self.peak_nodes = self.peak_nodes.max(mgr.peak_live_nodes());
        self.peak_dist = self.peak_dist.max(mgr.peak_dist_entries());
        self.transient += ls.transient_states;
        self.blocks += ls.lumped_blocks;
        self.sccs += ls.sccs;
        self.fallbacks += ls.fallback_retries + ls.dense_fallbacks;
    }

    pub fn counters(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        vec![
            (
                "fdd.manager.op_cache_hit_rate",
                self.hits as f64 / self.lookups.max(1) as f64,
            ),
            ("fdd.manager.peak_live_nodes", self.peak_nodes as f64),
            ("fdd.manager.peak_dist_entries", self.peak_dist as f64),
            ("net.fused.max_scratch_nodes", self.max_scratch_nodes as f64),
            ("fdd.loops.transient_states", self.transient as f64 / ops),
            ("fdd.loops.lumped_blocks", self.blocks as f64 / ops),
            ("fdd.loops.sccs", self.sccs as f64 / ops),
            ("fdd.loops.fallbacks", self.fallbacks as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&xs, 50.0), 500);
        assert_eq!(percentile(&xs, 99.0), 990);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    /// An untraced pass whose ops take the given latencies, one op per
    /// class per round, with no time between ops.
    fn pass_of(rounds: &[Vec<u64>]) -> PassStats {
        let mut stats = PassStats::default();
        for lats in rounds {
            for (class, &lat) in lats.iter().enumerate() {
                stats.ops.push(OpRecord {
                    class,
                    traced: false,
                    at_ns: stats.wall_ns,
                    lat_ns: Some(lat),
                });
                stats.wall_ns += lat;
            }
        }
        stats
    }

    #[test]
    fn reference_speed_cancels_the_host_and_keeps_the_program() {
        use crate::yardstick::{Sample, REFERENCE_NS};
        const MS: u64 = 1_000_000;
        // 20 rounds of 50 ops of 10 ms, one op per round five times as
        // slow, on a host that runs at half speed from 5 s on.
        let host = |t: u64| if t < 5_000 * MS { 1 } else { 2 };
        let run = |program: u64| {
            let mut pass = PassStats::default();
            for r in 0..20 {
                for class in 0..50 {
                    let base = if class == r { 50 * MS } else { 10 * MS };
                    let lat = base * program / 2 * host(pass.wall_ns);
                    pass.ops.push(OpRecord {
                        class,
                        traced: false,
                        at_ns: pass.wall_ns,
                        lat_ns: Some(lat),
                    });
                    pass.wall_ns += lat;
                }
            }
            let mut yard = Yardstick::new(1);
            yard.samples = (0..pass.wall_ns / (25 * MS))
                .map(|i| {
                    let at_ns = i * 25 * MS;
                    let ns = REFERENCE_NS[0] as u64 * host(at_ns);
                    Sample { at_ns, ns }
                })
                .collect();
            (pass.at_reference_speed(&yard), pass)
        };
        // Program at its usual speed (2 halves): the host's slow half is
        // divided out, and the one slow op per round still sets the p99.
        let (scaled, raw) = run(2);
        assert_eq!(percentile(&raw.lat_ns(false), 50.0), 20 * MS);
        assert_eq!(scaled.class_median_ns(), (10 * MS) as f64);
        assert_eq!(percentile(&scaled.lat_ns(false), 99.0), 50 * MS);
        assert!((scaled.ops_per_s() - 1000.0 / 10.8).abs() < 1e-6);
        // A program 1.5× as slow is 1.5× as slow at reference speed.
        let (slower, _) = run(3);
        assert_eq!(slower.class_median_ns(), (15 * MS) as f64);
        assert_eq!(percentile(&slower.lat_ns(false), 99.0), 75 * MS);
    }

    #[test]
    fn every_op_counts_towards_the_tail() {
        // 20 rounds of 50 ops: 49 fast ones and, in every round, one op
        // ten times as slow. 2% of ops are slow, so p99 is a slow op.
        let round = |slow: usize| (0..50).map(|c| if c == slow { 10 } else { 1 }).collect();
        let pass = pass_of(&(0..20).map(|r| round(r % 50)).collect::<Vec<_>>());
        assert_eq!(percentile(&pass.lat_ns(false), 99.0), 10);
        assert_eq!(pass.lat_ns(false).len(), 1000);
        // One slow op in one round of twenty: 0.1% of ops, so p99 stays.
        let mut calm: Vec<Vec<u64>> = vec![vec![1; 50]; 20];
        calm[7][3] = 10;
        assert_eq!(percentile(&pass_of(&calm).lat_ns(false), 99.0), 1);
    }

    #[test]
    fn throughput_is_taken_over_wall_time() {
        let mut pass = pass_of(&vec![vec![2_000_000; 10]; 5]);
        assert!((pass.ops_per_s() - 500.0).abs() < 1e-9);
        // Time between ops counts; oracle checks do not.
        pass.wall_ns += 100_000_000;
        assert!((pass.ops_per_s() - 250.0).abs() < 1e-9);
        pass.untimed_ns = 100_000_000;
        assert!((pass.ops_per_s() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_taken_per_class() {
        // Two classes of equal weight: the median lies between their
        // medians instead of jumping to either class's extreme.
        let pass = pass_of(&[vec![1, 100], vec![2, 101], vec![3, 102]]);
        assert_eq!(pass.class_median_ns(), 51.5);
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (metric, _, _) in FROM_SPANS {
            assert!(PER_LAYER.iter().any(|m| m.name == *metric), "{metric}");
        }
    }
}

//! `serve-churn`: configuration churn against a journaled
//! `serve::Engine` — the ROADMAP's "delta in → answer out, fsync
//! included".
//!
//! The engine (fsync on) holds one fattree model: ECMP, independent 1/1000
//! link failures, and a line-card SRLG at 1/1000 on every core switch
//! (aggregation links stay independent, so a port-probability edit
//! reaches every aggregation switch). One op is `Engine::apply(delta)`
//! followed by a `query_batch` of four `DeliveryProb` queries, timed from
//! the start of the apply until the batch returns; a controller waits for
//! each verdict before it sends the next change, so the loop is closed.
//!
//! Deltas come in apply/revert pairs, so the model returns to its base
//! between pairs. Of the pairs, 70% flap one of 8 fixed core/aggregation
//! switches between F10₃ and ECMP, 10% flap one of 2 ports' link
//! probability, 10% flap one of 4 groups' probability, and 10% set a
//! group (5%) or port (5%) probability never seen before. Setup replays
//! every warm pair once, so exactly 5% of deltas miss both the hop cache
//! and the `while` cache: hop-cache keying and the journal set the median,
//! fresh recompiles and loop solves the tail.
//!
//! The mix is synthetic: no measured or published change trace backs
//! these shares, and the fresh share alone decides how much weight the
//! tail gets. The traced run therefore also reports the median op on warm
//! and on fresh deltas alone (`serve.churn.warm_op_ms`,
//! `serve.churn.fresh_op_ms`), the latency at 0% and at 100% fresh.

use crate::metrics::{median, Ctx, Workload};
use crate::serve_read::{engine_config, probe, spread_ingresses};
use crate::trace::{Tracer, OP, PROBE};
use crate::Size;
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{
    assemble_chain, assemble_model, compile_hop_import, hop_inputs, FusedStats, HopInputs,
};
use mcnetkat_net::{FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_serve::journal::{JournalWriter, Record};
use mcnetkat_serve::{Answer, Delta, Engine, EngineError, ModelId, Query, QueryRequest};
use mcnetkat_topo::{fattree, Level, NodeId, ShortestPaths};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Every this many deltas, the engine is checked against a cold compile
/// (untimed). Odd, so the checks alternate between applied and reverted
/// states; with pairs, an even period would only ever see the base model.
/// The smoke profile checks every delta.
const ORACLE_EVERY: u64 = 49;
/// Queries per op.
const QUERIES: usize = 4;

/// One apply/revert pair of the population.
#[derive(Clone, Debug)]
enum Pair {
    /// A warm pair: both sides were applied during setup.
    Warm(Delta, Delta),
    /// Set a group's probability to a never-seen value, then restore it.
    FreshGroup(String),
    /// Set a port's probability to a never-seen value, then clear it.
    FreshLink(u32),
}

/// The base model: ECMP on fattree(`k`), independent 1/1000 link
/// failures, one line-card group at 1/1000 per core switch.
pub fn base_model(k: usize) -> NetworkModel {
    let topo = fattree(k);
    let dst = topo.find("edge0_0").expect("fat trees have edge0_0");
    let pr = base_pr();
    let cores: Vec<Srlg> = topo
        .switches()
        .iter()
        .filter(|&&s| topo.info(s).level == Level::Core)
        .map(|&s| Srlg::down_links_of(&topo, s, pr.clone()))
        .collect();
    let spec = FailureSpec::independent(pr).with_groups(cores);
    NetworkModel::new(topo, dst, RoutingScheme::Ecmp, spec)
}

fn base_pr() -> Ratio {
    Ratio::new(1, 1000)
}

/// `n` items spread evenly over `xs`.
fn spread<T: Clone>(xs: &[T], n: usize) -> Vec<T> {
    let stride = (xs.len() / n).max(1);
    xs.iter().step_by(stride).take(n).cloned().collect()
}

/// The 80 pairs of one round: 56 scheme flaps (7 per switch), 8 link
/// flaps (4 per port), 8 group flaps (2 per group), 4 fresh group edits
/// (1 per group) and 4 fresh link edits (2 per port).
///
/// The flapped switches are 4 cores and 4 aggregation switches, the
/// latter taken first from the destination's pod: on a plain fat tree,
/// F10₃ only changes what a switch does on the way down to the
/// destination, so only those flaps change the answers the oracle checks.
fn population(model: &NetworkModel) -> Vec<Pair> {
    let topo = &model.topo;
    let at = |level: Level| -> Vec<NodeId> {
        topo.switches()
            .iter()
            .copied()
            .filter(|&s| topo.info(s).level == level)
            .collect()
    };
    let dst_pod: Vec<NodeId> = topo.ports(model.dst).iter().map(|pp| pp.peer).collect();
    let mut aggs = at(Level::Agg);
    aggs.sort_by_key(|a| !dst_pod.contains(a));
    let mut switches = spread(&at(Level::Core), 4);
    switches.extend(aggs.into_iter().take(4));
    let ports = spread(&model.prone_ports(at(Level::Agg)[0]), 2);
    let names: Vec<String> = model
        .failure
        .groups
        .iter()
        .map(|g| g.name.clone())
        .collect();
    let groups = spread(&names, 4);
    let hot = Ratio::new(1, 100);

    let mut pop = Vec::new();
    for _ in 0..7 {
        for &s in &switches {
            pop.push(Pair::Warm(
                Delta::SetSwitchScheme(s, RoutingScheme::F10_3),
                Delta::ClearSwitchScheme(s),
            ));
        }
    }
    for _ in 0..4 {
        for &p in &ports {
            pop.push(Pair::Warm(
                Delta::SetLinkPr(p, hot.clone()),
                Delta::ClearLinkPr(p),
            ));
        }
    }
    for _ in 0..2 {
        for g in &groups {
            pop.push(Pair::Warm(
                Delta::SetGroupPr(g.clone(), hot.clone()),
                Delta::SetGroupPr(g.clone(), base_pr()),
            ));
        }
    }
    pop.extend(groups.iter().map(|g| Pair::FreshGroup(g.clone())));
    for _ in 0..2 {
        pop.extend(ports.iter().map(|&p| Pair::FreshLink(p)));
    }
    pop
}

/// The engine's patch path rebuilt from public calls, so that a traced
/// pass can time each step: `Delta::apply_to`, shortest paths,
/// `hop_inputs` and a hash lookup per switch, `compile_hop_import` on a
/// miss, `assemble_chain`, the loop solve, `assemble_model`, and a second
/// journal in the same directory taking the same intent and commit
/// records (with fsync).
struct Shadow {
    mgr: Manager,
    model: NetworkModel,
    hops: HashMap<HopInputs, Fdd>,
    fdd: Fdd,
    journal: JournalWriter,
    opts: CompileOptions,
    max_scratch_nodes: usize,
}

impl Shadow {
    fn new(model: NetworkModel, journal: &Path) -> Result<Shadow, String> {
        let journal = JournalWriter::create(journal).map_err(|e| e.to_string())?;
        let mgr = Manager::new();
        let fdd = mgr.fail();
        let mut s = Shadow {
            mgr,
            model: model.clone(),
            hops: HashMap::new(),
            fdd,
            journal,
            opts: CompileOptions::default(),
            max_scratch_nodes: 0,
        };
        s.fdd = s
            .compile(&model, &mut Tracer::new())
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    fn compile(&mut self, next: &NetworkModel, t: &mut Tracer) -> Result<Fdd, CompileError> {
        let sp = t.span("topo.shortest_paths", |_| {
            ShortestPaths::towards(&next.topo, next.dst)
        });
        let keyed: Vec<(NodeId, HopInputs, Option<Fdd>)> = t.span("serve.engine.hop_key", |_| {
            next.topo
                .switches()
                .iter()
                .map(|&s| {
                    let inp = hop_inputs(next, s, &sp);
                    let hit = self.hops.get(&inp).copied();
                    (s, inp, hit)
                })
                .collect()
        });
        let mut stats = FusedStats::default();
        let by_switch: HashMap<NodeId, Fdd> = t.span("net.fused.hop_compile", |_| {
            keyed
                .into_iter()
                .map(|(s, inp, hit)| {
                    let f = match hit {
                        Some(f) => f,
                        None => {
                            let f = compile_hop_import(&self.mgr, &inp, &self.opts, &mut stats)?;
                            self.hops.insert(inp, f);
                            f
                        }
                    };
                    Ok((s, f))
                })
                .collect::<Result<_, CompileError>>()
        })?;
        self.max_scratch_nodes = self.max_scratch_nodes.max(stats.max_scratch_nodes);
        let body = t.span("net.fused.assemble_chain", |_| {
            assemble_chain(&self.mgr, next, |s| Ok(by_switch[&s]))
        })?;
        t.span("fdd.loops.while_loop", |_| {
            self.mgr
                .while_loop(self.mgr.compile_pred(&next.guard()), body, &self.opts)
        })?;
        t.span("net.fused.tail", |_| {
            assemble_model(&self.mgr, next, body, &self.opts)
        })
    }

    fn apply(&mut self, delta: &Delta, t: &mut Tracer) -> Result<(), String> {
        let next = t
            .span("serve.delta.apply_to", |_| delta.apply_to(&self.model))
            .map_err(|e| e.to_string())?;
        let fdd = self.compile(&next, t).map_err(|e| e.to_string())?;
        t.span("serve.journal.append", |_| {
            self.journal.append(&Record::Apply {
                id: 0,
                delta: delta.clone(),
            })?;
            self.journal.append(&Record::Commit)
        })
        .map_err(|e| e.to_string())?;
        self.model = next;
        self.fdd = fdd;
        Ok(())
    }

    /// Whether the engine's diagram is equivalent to the shadow's (the
    /// engine's exported into the shadow's manager).
    fn agrees_with(&self, engine: &Engine, id: ModelId) -> Result<bool, EngineError> {
        let theirs = self.mgr.import(&engine.manager().export(engine.fdd(id)?));
        Ok(self.mgr.equiv(theirs, self.fdd))
    }
}

/// Engine gauges at the start of a pass, to report per-pass differences.
#[derive(Clone, Copy, Debug, Default)]
struct Baseline {
    hop_hits: u64,
    hop_misses: u64,
    while_hits: u64,
    while_misses: u64,
    op_hits: u64,
    op_lookups: u64,
    deltas: u64,
    recompiled: u64,
    journal_bytes: u64,
    transient: u64,
    blocks: u64,
    sccs: u64,
    fallbacks: u64,
}

impl Baseline {
    fn of(engine: &Engine) -> Baseline {
        let s = engine.stats();
        let ls = engine.manager().loop_solve_stats();
        Baseline {
            hop_hits: s.hop_cache_hits,
            hop_misses: s.hop_cache_misses,
            while_hits: s.while_cache.hits,
            while_misses: s.while_cache.misses,
            op_hits: s.op_cache_hits,
            op_lookups: s.op_cache_hits + s.op_cache_misses,
            deltas: s.deltas_applied,
            recompiled: s.switches_recompiled,
            journal_bytes: s.journal_bytes,
            transient: ls.transient_states,
            blocks: ls.lumped_blocks,
            sccs: ls.sccs,
            fallbacks: ls.fallback_retries + ls.dense_fallbacks,
        }
    }
}

pub struct ServeChurn {
    engine: Engine,
    id: ModelId,
    pairs: Vec<Pair>,
    reqs: Vec<QueryRequest>,
    /// Never-seen probabilities handed out so far.
    fresh: i64,
    /// Deltas applied since setup.
    deltas: u64,
    oracle_every: u64,
    shadow: Option<Shadow>,
    baseline: Baseline,
    /// Latencies of the untraced ops on warm (`[0]`) and fresh (`[1]`)
    /// deltas.
    untraced_ns: [Vec<u64>; 2],
}

/// Creates a journaled engine in `dir`, loads the base model, and applies
/// every warm pair once; with `traced`, also builds the shadow and warms
/// it the same way.
pub fn setup(size: Size, dir: &Path, traced: bool) -> Result<ServeChurn, String> {
    let k = match size {
        Size::Smoke => 4,
        Size::Full => 12,
    };
    let model = base_model(k);
    let mut engine = Engine::with_journal(engine_config(), dir).map_err(|e| e.to_string())?;
    let id = engine.load(model.clone()).map_err(|e| e.to_string())?;
    let pairs = population(&model);
    let reqs: Vec<QueryRequest> = spread_ingresses(&model, QUERIES)
        .into_iter()
        .map(|src| Query::DeliveryProb { model: id, src }.into())
        .collect();
    let mut shadow = if traced {
        Some(Shadow::new(model.clone(), &dir.join("shadow.log"))?)
    } else {
        None
    };
    let mut warmed: Vec<String> = Vec::new();
    for pair in &pairs {
        let Pair::Warm(apply, revert) = pair else {
            continue;
        };
        let key = format!("{apply:?}");
        if warmed.contains(&key) {
            continue;
        }
        warmed.push(key);
        for d in [apply, revert] {
            engine.apply(id, d.clone()).map_err(|e| e.to_string())?;
            if let Some(sh) = shadow.as_mut() {
                sh.apply(d, &mut Tracer::new())?;
            }
        }
    }
    for answer in engine.query_batch(&reqs) {
        answer.map_err(|e| e.to_string())?;
    }
    let baseline = Baseline::of(&engine);
    Ok(ServeChurn {
        engine,
        id,
        pairs,
        reqs,
        fresh: 0,
        deltas: 0,
        oracle_every: if size == Size::Smoke { 1 } else { ORACLE_EVERY },
        shadow,
        baseline,
        untraced_ns: [Vec::new(), Vec::new()],
    })
}

impl ServeChurn {
    fn fresh_pr(&mut self) -> Ratio {
        self.fresh += 1;
        Ratio::new(1, 2000 + self.fresh)
    }

    fn deltas_of(&mut self, input: usize) -> [Delta; 2] {
        match self.pairs[input].clone() {
            Pair::Warm(a, r) => [a, r],
            Pair::FreshGroup(g) => [
                Delta::SetGroupPr(g.clone(), self.fresh_pr()),
                Delta::SetGroupPr(g, base_pr()),
            ],
            Pair::FreshLink(p) => [Delta::SetLinkPr(p, self.fresh_pr()), Delta::ClearLinkPr(p)],
        }
    }

    fn op(&mut self, class: usize, delta: Delta, ctx: &mut Ctx<'_>) {
        ctx.begin_op(class);
        let (engine, id, reqs) = (&mut self.engine, self.id, &self.reqs);
        let start = Instant::now();
        let res = match ctx.tracer.as_deref_mut() {
            None => engine
                .apply(id, delta.clone())
                .map(|_| engine.query_batch(reqs)),
            Some(t) => t.span(OP, |t| {
                t.span("serve.engine.apply", |_| engine.apply(id, delta.clone()))
                    .map(|_| t.span("serve.engine.query_batch", |_| engine.query_batch(reqs)))
            }),
        };
        let elapsed = start.elapsed();
        self.deltas += 1;
        if ctx.tracer.is_none() {
            let fresh = !matches!(self.pairs[class / 2], Pair::Warm(..));
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
            self.untraced_ns[usize::from(fresh)].push(ns);
        }

        let mut side: Vec<Result<(), String>> = Vec::new();
        // The shadow follows every delta, traced round or not, so that both
        // kinds of round interleave the same work.
        if let Some(sh) = self.shadow.as_mut() {
            side.push(match ctx.tracer.as_deref_mut() {
                Some(t) => t.span(PROBE, |t| sh.apply(&delta, t)),
                None => sh.apply(&delta, &mut Tracer::new()),
            });
        }
        if let Some(t) = ctx.tracer.as_deref_mut() {
            if let Ok(answers) = &res {
                for (req, want) in reqs.iter().zip(answers) {
                    for got in probe(engine, req, t) {
                        side.push(same_answer(req, want, &got));
                    }
                }
            }
        }

        let answers = match res {
            Err(e) => return ctx.failed(format!("apply {delta:?}: {e}")),
            Ok(a) => a,
        };
        if let Some(err) = answers.iter().find_map(|a| a.as_ref().err()) {
            return ctx.failed(format!("query after {delta:?}: {err}"));
        }
        ctx.done(elapsed, Ok(()));
        for r in side {
            if let Err(why) = r {
                ctx.wrong(why);
            }
        }
        if self.deltas.is_multiple_of(self.oracle_every) {
            if let Err(why) = ctx.untimed(|| self.oracle(&answers)) {
                ctx.wrong(format!("after {delta:?}: {why}"));
            }
        }
    }

    /// The untimed check: the engine agrees with a cold compile (its own
    /// `verify_against_cold`, and the op's answers against a cold compile
    /// in a separate manager) and with the shadow.
    fn oracle(&self, answers: &[Result<Answer, EngineError>]) -> Result<(), String> {
        let engine = &self.engine;
        if !engine
            .verify_against_cold(self.id)
            .map_err(|e| e.to_string())?
        {
            return Err("verify_against_cold is false".to_string());
        }
        let model = engine.model(self.id).map_err(|e| e.to_string())?;
        let cold = Manager::new();
        let fdd = model
            .compile_with(&cold, &CompileOptions::default())
            .map_err(|e| e.to_string())?;
        let q = Queries::from_fdd(&cold, model, fdd);
        for (req, got) in self.reqs.iter().zip(answers) {
            let Query::DeliveryProb { src, .. } = req.query else {
                unreachable!("churn queries are DeliveryProb");
            };
            same_answer(req, &Ok(Answer::Prob(q.delivery_prob(src))), got)?;
        }
        if let Some(sh) = &self.shadow {
            if !sh.agrees_with(engine, self.id).map_err(|e| e.to_string())? {
                return Err("shadow diagram differs from the engine's".to_string());
            }
        }
        Ok(())
    }
}

fn same_answer(
    req: &QueryRequest,
    want: &Result<Answer, EngineError>,
    got: &Result<Answer, EngineError>,
) -> Result<(), String> {
    match (want, got) {
        (Ok(w), Ok(g)) if w == g => Ok(()),
        _ => Err(format!("{:?}: {got:?}, expected {want:?}", req.query)),
    }
}

impl Workload for ServeChurn {
    fn population(&self) -> usize {
        self.pairs.len()
    }

    fn run(&mut self, input: usize, ctx: &mut Ctx<'_>) {
        for (j, delta) in self.deltas_of(input).into_iter().enumerate() {
            self.op(2 * input + j, delta, ctx);
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let (b, now) = (self.baseline, Baseline::of(&self.engine));
        let mgr = self.engine.manager();
        let rate = |hits: u64, total: u64| hits as f64 / total.max(1) as f64;
        let deltas = (now.deltas - b.deltas).max(1) as f64;
        let mut out = vec![
            (
                "serve.engine.hop_cache_hit_rate",
                rate(
                    now.hop_hits - b.hop_hits,
                    now.hop_hits + now.hop_misses - b.hop_hits - b.hop_misses,
                ),
            ),
            (
                "fdd.loops.while_cache_hit_rate",
                rate(
                    now.while_hits - b.while_hits,
                    now.while_hits + now.while_misses - b.while_hits - b.while_misses,
                ),
            ),
            (
                "fdd.manager.op_cache_hit_rate",
                rate(now.op_hits - b.op_hits, now.op_lookups - b.op_lookups),
            ),
            (
                "serve.engine.switches_recompiled_per_delta",
                (now.recompiled - b.recompiled) as f64 / deltas,
            ),
            (
                "serve.journal.bytes_per_delta",
                (now.journal_bytes - b.journal_bytes) as f64 / deltas,
            ),
            (
                "fdd.loops.transient_states",
                (now.transient - b.transient) as f64 / deltas,
            ),
            (
                "fdd.loops.lumped_blocks",
                (now.blocks - b.blocks) as f64 / deltas,
            ),
            ("fdd.loops.sccs", (now.sccs - b.sccs) as f64 / deltas),
            ("fdd.loops.fallbacks", (now.fallbacks - b.fallbacks) as f64),
            ("fdd.manager.peak_live_nodes", mgr.peak_live_nodes() as f64),
            (
                "fdd.manager.peak_dist_entries",
                mgr.peak_dist_entries() as f64,
            ),
            ("fdd.manager.live_nodes_end", mgr.node_count() as f64),
        ];
        // The op latency at 0% and at 100% fresh deltas, so that a result
        // can be re-weighted to another share than the assumed 5%.
        for (name, lat) in ["serve.churn.warm_op_ms", "serve.churn.fresh_op_ms"]
            .into_iter()
            .zip(&self.untraced_ns)
        {
            let ms: Vec<f64> = lat.iter().map(|&ns| ns as f64 / 1e6).collect();
            out.push((name, if ms.is_empty() { 0.0 } else { median(&ms) }));
        }
        if let Some(sh) = &self.shadow {
            out.push(("net.fused.max_scratch_nodes", sh.max_scratch_nodes as f64));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_mix_matches_the_stated_shares() {
        let pop = population(&base_model(4));
        assert_eq!(pop.len(), 80);
        let count = |f: &dyn Fn(&Pair) -> bool| pop.iter().filter(|p| f(p)).count();
        let scheme = count(&|p| matches!(p, Pair::Warm(Delta::SetSwitchScheme(..), _)));
        let link = count(&|p| matches!(p, Pair::Warm(Delta::SetLinkPr(..), _)));
        let group = count(&|p| matches!(p, Pair::Warm(Delta::SetGroupPr(..), _)));
        let fresh_group = count(&|p| matches!(p, Pair::FreshGroup(_)));
        let fresh_link = count(&|p| matches!(p, Pair::FreshLink(_)));
        assert_eq!(
            (scheme, link, group, fresh_group, fresh_link),
            (56, 8, 8, 4, 4)
        );
        let distinct: std::collections::BTreeSet<String> =
            pop.iter().map(|p| format!("{p:?}")).collect();
        assert_eq!(
            distinct.len(),
            8 + 2 + 4 + 4 + 2,
            "8 switches, 2 ports, 4 groups"
        );
    }
}

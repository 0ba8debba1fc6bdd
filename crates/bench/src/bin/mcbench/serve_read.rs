//! `serve-read`: read traffic against a long-lived `serve::Engine`.
//!
//! Three fattree models are loaded (ECMP and F10₃ under independent
//! failures, ECMP under line-card SRLGs); nothing is journaled and no
//! delta is applied. One op is a `query_batch` of 16: ten
//! `DeliveryProb`, two `Reachable`, two `MinDelivery`, one `Refines`
//! (F10₃ over ECMP) and one query alternating between `Equiv` and
//! `EquivTeleport`. It shares the engine with `serve-churn` but only
//! reads, so a change that speeds patching at the expense of queries
//! shows here. Every answer is checked against a cold compile made at
//! setup in a separate manager.
//!
//! The batch composition is synthetic, not taken from a measured query
//! trace. The traced run reports each query kind's cost on its own, so a
//! result can be re-weighted to another mix.

use crate::metrics::{Ctx, Workload, QUERY_BATCH1, QUERY_DIRECT, QUERY_ENGINE};
use crate::trace::{Tracer, OP, PROBE};
use crate::Size;
use mcnetkat_fdd::{CompileOptions, Manager};
use mcnetkat_net::{FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_serve::{Answer, Engine, EngineConfig, EngineError, ModelId, Query, QueryRequest};
use mcnetkat_topo::{fattree, NodeId};
use std::time::Instant;

/// Batches per stratified round. With 3 models × 12 ingresses, every
/// delivery input appears 5 times as `DeliveryProb` and once as
/// `Reachable`, every model 12 times as `MinDelivery`, and each `Equiv`
/// pair and `EquivTeleport` model three times.
const BATCHES_PER_ROUND: usize = 18;
/// Ingresses per model in the delivery population.
const INGRESSES: usize = 12;

/// The engine configuration both serve workloads use: batch fan-out and
/// admission capped at two queries, the cores of the box this was sized
/// on.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        max_concurrent_queries: Some(2),
        ..EngineConfig::default()
    }
}

/// `count` ingresses spread evenly over the model's ingress list.
pub fn spread_ingresses(model: &NetworkModel, count: usize) -> Vec<NodeId> {
    let all = model.ingresses();
    let stride = (all.len() / count).max(1);
    all.into_iter().step_by(stride).take(count).collect()
}

/// Answers `q` by calling the layer under the engine directly on
/// `engine.manager()` (no admission, no budget, no batch), in a span named
/// after the layer.
pub fn direct_answer(engine: &Engine, q: &Query, t: &mut Tracer) -> Result<Answer, EngineError> {
    let mgr = engine.manager();
    let queries = |id: ModelId| -> Result<Queries<'_>, EngineError> {
        Ok(Queries::from_fdd(mgr, engine.model(id)?, engine.fdd(id)?))
    };
    Ok(match q {
        Query::DeliveryProb { model, src } => {
            let q = queries(*model)?;
            Answer::Prob(t.span("net.queries.delivery_prob", |_| q.delivery_prob(*src)))
        }
        Query::Reachable { model, src } => {
            let q = queries(*model)?;
            let p = t.span("net.queries.delivery_prob", |_| q.delivery_prob(*src));
            Answer::Bool(p > Ratio::zero())
        }
        Query::MinDelivery { model } => {
            let q = queries(*model)?;
            Answer::Prob(t.span("net.queries.min_delivery", |_| q.min_delivery()))
        }
        Query::Refines { left, right } => {
            let (l, r) = (engine.fdd(*left)?, engine.fdd(*right)?);
            Answer::Bool(t.span("fdd.query.less_eq", |_| mgr.less_eq(r, l)))
        }
        Query::Equiv { left, right } => {
            let (l, r) = (engine.fdd(*left)?, engine.fdd(*right)?);
            Answer::Bool(t.span("fdd.query.equiv", |_| mgr.equiv(l, r)))
        }
        Query::EquivTeleport { model } => {
            let q = queries(*model)?;
            Answer::Bool(t.span("net.queries.equiv_teleport", |_| q.equiv_teleport())?)
        }
    })
}

/// Answers `req` by a direct layer call under a [`PROBE`] root. A
/// `DeliveryProb` — the cheap query, whose cost is mostly the engine's
/// wrapping — is also answered through `Engine::query` and a one-request
/// `Engine::query_batch`, after an untimed direct call has warmed the
/// caches all three walk. Returns every answer.
pub fn probe(
    engine: &Engine,
    req: &QueryRequest,
    t: &mut Tracer,
) -> Vec<Result<Answer, EngineError>> {
    t.span(PROBE, |t| {
        if !matches!(req.query, Query::DeliveryProb { .. }) {
            return vec![direct_answer(engine, &req.query, t)];
        }
        let warm = direct_answer(engine, &req.query, &mut Tracer::new());
        let direct = t.span(QUERY_DIRECT, |t| direct_answer(engine, &req.query, t));
        let single = t.span(QUERY_ENGINE, |_| engine.query(req));
        let batch = t.span(QUERY_BATCH1, |_| {
            engine
                .query_batch(std::slice::from_ref(req))
                .pop()
                .expect("one answer per request")
        });
        vec![warm, direct, single, batch]
    })
}

/// A read request and the cold-compile answer it must return.
#[derive(Clone, Debug)]
struct Expected {
    req: QueryRequest,
    answer: Answer,
}

pub struct ServeRead {
    engine: Engine,
    /// Delivery inputs (model, ingress) with their exact answers.
    delivery: Vec<(ModelId, NodeId, Ratio)>,
    min: Vec<Expected>,
    refines: Expected,
    equiv: Vec<Expected>,
    teleport: Vec<Expected>,
    /// The batches of one round, in population order (the schedule
    /// permutes them).
    batches: Vec<Vec<Expected>>,
    op_cache_before: (u64, u64),
}

fn models(k: usize) -> Vec<NetworkModel> {
    let topo = fattree(k);
    let dst = topo.find("edge0_0").expect("fat trees have edge0_0");
    let pr = Ratio::new(1, 1000);
    let lc = FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr));
    vec![
        NetworkModel::new(
            topo.clone(),
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::independent(pr.clone()),
        ),
        NetworkModel::new(
            topo.clone(),
            dst,
            RoutingScheme::F10_3,
            FailureSpec::independent(pr),
        ),
        NetworkModel::new(topo, dst, RoutingScheme::Ecmp, lc),
    ]
}

/// Loads the models, derives every answer from a cold compile in a
/// separate manager, lays out one round of batches, and runs that round
/// once untimed.
pub fn setup(size: Size) -> Result<ServeRead, String> {
    let k = match size {
        Size::Smoke => 4,
        Size::Full => 12,
    };
    let models = models(k);
    let mut engine = Engine::new(engine_config());
    let ids: Vec<ModelId> = models
        .iter()
        .map(|m| engine.load(m.clone()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let cold = Manager::new();
    let opts = CompileOptions::default();
    let fdds = models
        .iter()
        .map(|m| m.compile_with(&cold, &opts).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let q = |i: usize| Queries::from_fdd(&cold, &models[i], fdds[i]);
    let exp = |query: Query, answer: Answer| Expected {
        req: query.into(),
        answer,
    };

    let mut delivery = Vec::new();
    for (i, m) in models.iter().enumerate() {
        for src in spread_ingresses(m, INGRESSES) {
            delivery.push((ids[i], src, q(i).delivery_prob(src)));
        }
    }
    let min = (0..models.len())
        .map(|i| {
            exp(
                Query::MinDelivery { model: ids[i] },
                Answer::Prob(q(i).min_delivery()),
            )
        })
        .collect();
    let refines = exp(
        Query::Refines {
            left: ids[1],
            right: ids[0],
        },
        Answer::Bool(q(0).refines(&q(1))),
    );
    let equiv = [(0, 1), (0, 2), (1, 2)]
        .into_iter()
        .map(|(a, b)| {
            exp(
                Query::Equiv {
                    left: ids[a],
                    right: ids[b],
                },
                Answer::Bool(cold.equiv(fdds[a], fdds[b])),
            )
        })
        .collect();
    let teleport = (0..models.len())
        .map(|i| {
            let ok = q(i).equiv_teleport().map_err(|e| e.to_string())?;
            Ok(exp(
                Query::EquivTeleport { model: ids[i] },
                Answer::Bool(ok),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;

    let mut w = ServeRead {
        engine,
        delivery,
        min,
        refines,
        equiv,
        teleport,
        batches: Vec::new(),
        op_cache_before: (0, 0),
    };
    w.batches = w.round_batches();
    for b in 0..w.batches.len() {
        let reqs: Vec<QueryRequest> = w.batches[b].iter().map(|e| e.req.clone()).collect();
        for (e, got) in w.batches[b].iter().zip(w.engine.query_batch(&reqs)) {
            check(e, &got)?;
        }
    }
    let op = w.engine.manager().op_cache_stats();
    w.op_cache_before = (op.total_hits(), op.total_hits() + op.total_misses());
    Ok(w)
}

fn check(e: &Expected, got: &Result<Answer, EngineError>) -> Result<(), String> {
    match got {
        Ok(a) if *a == e.answer => Ok(()),
        Ok(a) => Err(format!(
            "{:?}: got {a:?}, cold compile {:?}",
            e.req.query, e.answer
        )),
        Err(err) => Err(format!("{:?}: {err}", e.req.query)),
    }
}

impl ServeRead {
    /// One round's batches. Batch `b` takes delivery inputs
    /// `10b..10b+10` (mod the population) as `DeliveryProb`, two as
    /// `Reachable`, two `MinDelivery`, the `Refines`, and an `Equiv` (even
    /// `b`) or `EquivTeleport` (odd `b`).
    fn round_batches(&self) -> Vec<Vec<Expected>> {
        let d = self.delivery.len();
        let delivery = |i: usize| {
            let (model, src, p) = &self.delivery[i % d];
            Expected {
                req: Query::DeliveryProb {
                    model: *model,
                    src: *src,
                }
                .into(),
                answer: Answer::Prob(p.clone()),
            }
        };
        let reachable = |i: usize| {
            let (model, src, p) = &self.delivery[i % d];
            Expected {
                req: Query::Reachable {
                    model: *model,
                    src: *src,
                }
                .into(),
                answer: Answer::Bool(*p > Ratio::zero()),
            }
        };
        (0..BATCHES_PER_ROUND)
            .map(|b| {
                let mut batch: Vec<Expected> = (0..10).map(|j| delivery(10 * b + j)).collect();
                batch.extend((0..2).map(|j| reachable(2 * b + j)));
                batch.extend((0..2).map(|j| self.min[(2 * b + j) % self.min.len()].clone()));
                batch.push(self.refines.clone());
                batch.push(if b % 2 == 0 {
                    self.equiv[(b / 2) % self.equiv.len()].clone()
                } else {
                    self.teleport[(b / 2) % self.teleport.len()].clone()
                });
                batch
            })
            .collect()
    }
}

impl Workload for ServeRead {
    fn population(&self) -> usize {
        self.batches.len()
    }

    fn run(&mut self, input: usize, ctx: &mut Ctx<'_>) {
        ctx.begin_op(input);
        let batch = &self.batches[input];
        let reqs: Vec<QueryRequest> = batch.iter().map(|e| e.req.clone()).collect();
        let start = Instant::now();
        let answers = match ctx.tracer.as_deref_mut() {
            None => self.engine.query_batch(&reqs),
            Some(t) => t.span(OP, |t| {
                t.span("serve.engine.query_batch", |_| {
                    self.engine.query_batch(&reqs)
                })
            }),
        };
        let elapsed = start.elapsed();
        let mut probed: Vec<(&Expected, Result<Answer, EngineError>)> = Vec::new();
        if let Some(t) = ctx.tracer.as_deref_mut() {
            for e in batch {
                probed.extend(probe(&self.engine, &e.req, t).into_iter().map(|a| (e, a)));
            }
        }
        if let Some(err) = answers.iter().find_map(|a| a.as_ref().err()) {
            ctx.failed(err.to_string());
            return;
        }
        let verdict = batch
            .iter()
            .zip(&answers)
            .try_for_each(|(e, got)| check(e, got));
        ctx.done(elapsed, verdict);
        for (e, got) in &probed {
            if let Err(why) = check(e, got) {
                ctx.wrong(format!("probe: {why}"));
            }
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        let mgr = self.engine.manager();
        let op = mgr.op_cache_stats();
        let hits = op.total_hits() - self.op_cache_before.0;
        let lookups = op.total_hits() + op.total_misses() - self.op_cache_before.1;
        vec![
            (
                "fdd.manager.op_cache_hit_rate",
                hits as f64 / lookups.max(1) as f64,
            ),
            ("fdd.manager.peak_live_nodes", mgr.peak_live_nodes() as f64),
            (
                "fdd.manager.peak_dist_entries",
                mgr.peak_dist_entries() as f64,
            ),
            ("fdd.manager.live_nodes_end", mgr.node_count() as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn full_round_visits_each_input_equally() {
        let w = setup(Size::Full).unwrap();
        let mut seen: HashMap<String, usize> = HashMap::new();
        for e in w.batches.iter().flatten() {
            *seen.entry(format!("{:?}", e.req.query)).or_insert(0) += 1;
        }
        let count = |kind: &str| {
            let mut c: Vec<usize> = seen
                .iter()
                .filter(|(q, _)| q.starts_with(kind))
                .map(|(_, n)| *n)
                .collect();
            c.sort_unstable();
            c.dedup();
            c
        };
        assert_eq!(w.batches.len(), BATCHES_PER_ROUND);
        assert!(w.batches.iter().all(|b| b.len() == 16));
        assert_eq!(count("DeliveryProb"), [5]);
        assert_eq!(count("Reachable"), [1]);
        assert_eq!(count("MinDelivery"), [12]);
        assert_eq!(count("Refines"), [BATCHES_PER_ROUND]);
        assert_eq!(count("Equiv {"), [3]);
        assert_eq!(count("EquivTeleport"), [3]);
    }
}

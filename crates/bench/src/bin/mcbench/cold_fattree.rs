//! `cold-fattree`: the paper's fat-tree evaluation as a cold compile to
//! a first answer.
//!
//! One op is a fresh `Manager`, `NetworkModel::compile_with` and one
//! `Queries::delivery_prob` from a seeded ingress; dropping the manager
//! is not timed. The twelve models cover all three failure encodings of
//! `net::fused::hop_inputs` (factored independent draws, line-card SRLGs,
//! a budget-coupled `k = 1` bound), two routing schemes and four sizes, so
//! the fused hop compile and the lumped loop solve do most of the work.
//! Every answer is checked against a committed table of exact rationals.

use crate::metrics::{Ctx, ManagerGauges, Workload};
use crate::trace::{Tracer, OP, PROBE};
use crate::Size;
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{
    assemble_chain, assemble_model, compile_hop_import, hop_inputs, FusedStats, HopInputs,
};
use mcnetkat_net::{
    compile_model_parallel, FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{fattree, NodeId, ShortestPaths};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Exact delivery probabilities for every (model, ingress) pair of both
/// profiles: `label ingress numerator/denominator` per line.
const ORACLE: &str = include_str!("fattree_oracle.txt");

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    /// Every down link fails independently with probability 1/1000.
    Independent,
    /// One SRLG per switch line card (all its down links), 1/1000.
    LineCards,
    /// Independent 1/1000 draws under a failure budget `k = 1`.
    Bounded1,
}

/// One population member: fattree(`k`) routed by `scheme` under `failure`.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub k: usize,
    pub scheme: RoutingScheme,
    pub failure: Failure,
}

impl Shape {
    pub fn label(&self) -> String {
        let scheme = match self.scheme {
            RoutingScheme::Ecmp => "ecmp",
            RoutingScheme::F10_3 => "f10_3",
            RoutingScheme::F10_3_5 => "f10_3_5",
        };
        let failure = match self.failure {
            Failure::Independent => "ind",
            Failure::LineCards => "lc",
            Failure::Bounded1 => "k1",
        };
        format!("ft{}-{scheme}-{failure}", self.k)
    }

    pub fn model(&self) -> NetworkModel {
        let topo = fattree(self.k);
        let dst = topo.find("edge0_0").expect("fat trees have edge0_0");
        let pr = Ratio::new(1, 1000);
        let spec = match self.failure {
            Failure::Independent => FailureSpec::independent(pr),
            Failure::LineCards => {
                FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr))
            }
            Failure::Bounded1 => FailureSpec::bounded(pr, 1),
        };
        NetworkModel::new(topo, dst, self.scheme, spec)
    }
}

/// The population of a profile.
pub fn shapes(size: Size) -> Vec<Shape> {
    use Failure::*;
    use RoutingScheme::*;
    let s = |k, scheme, failure| Shape { k, scheme, failure };
    match size {
        Size::Smoke => vec![
            s(4, Ecmp, Independent),
            s(4, F10_3, LineCards),
            s(4, Ecmp, Bounded1),
            s(4, F10_3, Bounded1),
        ],
        Size::Full => {
            let mut v = Vec::new();
            for k in [8, 12] {
                for scheme in [Ecmp, F10_3] {
                    for failure in [Independent, LineCards] {
                        v.push(s(k, scheme, failure));
                    }
                }
            }
            v.push(s(16, Ecmp, Independent));
            v.push(s(16, F10_3, LineCards));
            v.push(s(6, Ecmp, Bounded1));
            v.push(s(6, F10_3, Bounded1));
            v
        }
    }
}

/// The committed oracle table, keyed by (model label, ingress name).
pub fn oracle_table() -> Result<BTreeMap<(String, String), Ratio>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in ORACLE.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [label, ingress, value] = f[..] else {
            return Err(format!("oracle line {}: expected 3 fields", i + 1));
        };
        let value: Ratio = value
            .parse()
            .map_err(|_| format!("oracle line {}: bad rational {value}", i + 1))?;
        out.insert((label.to_string(), ingress.to_string()), value);
    }
    Ok(out)
}

struct Entry {
    label: String,
    model: NetworkModel,
    /// Every ingress with its exact expected delivery probability.
    ingresses: Vec<(NodeId, Ratio)>,
}

pub struct ColdFattree {
    entries: Vec<Entry>,
    opts: CompileOptions,
    gauges: ManagerGauges,
}

/// Builds the models and their oracle rows, then runs one untimed
/// warm-up op per model.
pub fn setup(size: Size) -> Result<ColdFattree, String> {
    let table = oracle_table()?;
    let mut entries = Vec::new();
    for shape in shapes(size) {
        let label = shape.label();
        let model = shape.model();
        let ingresses = model
            .ingresses()
            .into_iter()
            .map(|s| {
                let name = &model.topo.info(s).name;
                table
                    .get(&(label.clone(), name.clone()))
                    .map(|r| (s, r.clone()))
                    .ok_or_else(|| format!("oracle table has no entry for {label} {name}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        entries.push(Entry {
            label,
            model,
            ingresses,
        });
    }
    let w = ColdFattree {
        entries,
        opts: CompileOptions::default(),
        gauges: ManagerGauges::default(),
    };
    for e in &w.entries {
        let (src, want) = &e.ingresses[0];
        let got = cold_answer(&e.model, *src, &w.opts).map_err(|e| e.to_string())?;
        check(&e.label, want, &got)?;
    }
    Ok(w)
}

fn cold_answer(
    model: &NetworkModel,
    src: NodeId,
    opts: &CompileOptions,
) -> Result<Ratio, CompileError> {
    let mgr = Manager::new();
    let fdd = model.compile_with(&mgr, opts)?;
    Ok(Queries::from_fdd(&mgr, model, fdd).delivery_prob(src))
}

fn check(label: &str, want: &Ratio, got: &Ratio) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{label}: delivery {got}, oracle {want}"))
    }
}

impl Workload for ColdFattree {
    fn population(&self) -> usize {
        self.entries.len()
    }

    fn run(&mut self, input: usize, ctx: &mut Ctx<'_>) {
        let op = ctx.begin_op(input);
        let e = &self.entries[input];
        let (src, want) = &e.ingresses[ctx.op_rng(op).below(e.ingresses.len())];
        let mut parallel = None;
        let outcome = match ctx.tracer.as_deref_mut() {
            None => {
                let start = Instant::now();
                let mgr = Manager::new();
                let res = e
                    .model
                    .compile_with(&mgr, &self.opts)
                    .map(|fdd| Queries::from_fdd(&mgr, &e.model, fdd).delivery_prob(*src));
                let elapsed = start.elapsed();
                drop(mgr);
                res.map(|got| (elapsed, got))
            }
            Some(t) => {
                let start = Instant::now();
                let res = t.span(OP, |t| {
                    traced_op(
                        t,
                        &e.model,
                        *src,
                        &self.opts,
                        &mut self.gauges.max_scratch_nodes,
                    )
                });
                let elapsed = start.elapsed();
                if let Ok((_, mgr)) = &res {
                    self.gauges.absorb(mgr);
                }
                // The tree-reduce parallel backend on the same model, beside
                // the op: the evidence for keeping or deleting it.
                parallel = Some(t.span(PROBE, |t| {
                    t.span("net.parallel.compile", |_| {
                        let pm = Manager::new();
                        let p = compile_model_parallel(&pm, &e.model, 2, &self.opts)
                            .map(|fdd| Queries::from_fdd(&pm, &e.model, fdd).delivery_prob(*src));
                        (p, pm)
                    })
                }));
                res.map(|(got, _mgr)| (elapsed, got))
            }
        };
        match outcome {
            Ok((elapsed, got)) => ctx.done(elapsed, check(&e.label, want, &got)),
            Err(err) => ctx.failed(format!("{}: {err}", e.label)),
        }
        match parallel.map(|(p, _pm)| p) {
            Some(Ok(p)) => {
                if let Err(why) = check(&format!("{} (parallel)", e.label), want, &p) {
                    ctx.wrong(why);
                }
            }
            Some(Err(err)) => ctx.failed(format!("{} (parallel): {err}", e.label)),
            None => {}
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        self.gauges.counters()
    }
}

/// The fused pipeline of `NetworkModel::compile_with`, step by public
/// step: shortest paths, every switch's hop inputs, every hop compile,
/// the `sw`-case fold, the loop solve (which primes the manager's
/// `while` cache, so `assemble_model` then times only the tail), and the
/// query. Returns the answer and the manager, to be dropped untimed.
fn traced_op(
    t: &mut Tracer,
    model: &NetworkModel,
    src: NodeId,
    opts: &CompileOptions,
    max_scratch_nodes: &mut usize,
) -> Result<(Ratio, Manager), CompileError> {
    let mgr = Manager::new();
    let sp = t.span("topo.shortest_paths", |_| {
        ShortestPaths::towards(&model.topo, model.dst)
    });
    let switches = model.topo.switches();
    let inputs: Vec<HopInputs> = t.span("net.fused.hop_inputs", |_| {
        switches
            .iter()
            .map(|&s| hop_inputs(model, s, &sp))
            .collect()
    });
    let mut stats = FusedStats::default();
    let hops: HashMap<NodeId, Fdd> = t.span("net.fused.hop_compile", |_| {
        switches
            .iter()
            .zip(&inputs)
            .map(|(&s, inp)| Ok((s, compile_hop_import(&mgr, inp, opts, &mut stats)?)))
            .collect::<Result<_, CompileError>>()
    })?;
    *max_scratch_nodes = (*max_scratch_nodes).max(stats.max_scratch_nodes);
    let body = t.span("net.fused.assemble_chain", |_| {
        assemble_chain(&mgr, model, |s| Ok(hops[&s]))
    })?;
    t.span("fdd.loops.while_loop", |_| {
        mgr.while_loop(mgr.compile_pred(&model.guard()), body, opts)
    })?;
    let fdd = t.span("net.fused.tail", |_| {
        assemble_model(&mgr, model, body, opts)
    })?;
    let p = t.span("net.queries.delivery_prob", |_| {
        Queries::from_fdd(&mgr, model, fdd).delivery_prob(src)
    });
    Ok((p, mgr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_covers_every_model_and_ingress() {
        let table = oracle_table().unwrap();
        for size in [Size::Smoke, Size::Full] {
            for shape in shapes(size) {
                let model = shape.model();
                for s in model.ingresses() {
                    let key = (shape.label(), model.topo.info(s).name.clone());
                    assert!(table.contains_key(&key), "missing {key:?}");
                }
            }
        }
    }

    /// The table's small entries, re-derived through the legacy
    /// whole-program compile — a pipeline independent of the fused one
    /// the benchmark measures.
    #[test]
    fn oracle_small_entries_match_legacy_compile() {
        let table = oracle_table().unwrap();
        let small = shapes(Size::Smoke)
            .into_iter()
            .chain(shapes(Size::Full).into_iter().filter(|s| s.k <= 6));
        for shape in small {
            let model = shape.model();
            let mgr = Manager::new();
            let fdd = model
                .compile_legacy_with(&mgr, &CompileOptions::default())
                .expect("legacy compile");
            let q = Queries::from_fdd(&mgr, &model, fdd);
            for s in model.ingresses() {
                let key = (shape.label(), model.topo.info(s).name.clone());
                assert_eq!(q.delivery_prob(s), table[&key], "{key:?}");
            }
        }
    }

    /// Regenerates the table from the fused pipeline:
    /// `cargo test --release -- --ignored --nocapture print_oracle_table`
    /// and keep the lines that start with `ft`.
    #[test]
    #[ignore]
    fn print_oracle_table() {
        for size in [Size::Smoke, Size::Full] {
            for shape in shapes(size) {
                let model = shape.model();
                let mgr = Manager::new();
                let fdd = model.compile(&mgr).expect("compile");
                let q = Queries::from_fdd(&mgr, &model, fdd);
                for s in model.ingresses() {
                    println!(
                        "{} {} {}",
                        shape.label(),
                        model.topo.info(s).name,
                        q.delivery_prob(s)
                    );
                }
            }
        }
    }
}

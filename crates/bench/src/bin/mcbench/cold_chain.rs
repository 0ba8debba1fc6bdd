//! `cold-chain`: the paper's Figure 9/10 chain-of-diamonds benchmark.
//!
//! One op is a fresh `Manager` and `chain_delivery_native`: a
//! whole-program `Manager::compile` (no per-switch fusion, so
//! `net::fused` does no work here) and one `prob_matching` query. The
//! loop is a long line of singleton SCCs with no pod symmetry to lump,
//! so the loop solve and big-`Ratio` arithmetic dominate. Answers are
//! checked against the closed form `chain_expected_delivery`.

use crate::metrics::{Ctx, ManagerGauges, Workload};
use crate::trace::OP;
use crate::Size;
use mcnetkat_fdd::Manager;
use mcnetkat_net::{
    chain_benchmark, chain_delivery_native, chain_expected_delivery, ChainBenchmark,
};
use mcnetkat_num::Ratio;
use std::time::Instant;

struct Entry {
    label: String,
    bench: ChainBenchmark,
    expected: Ratio,
}

pub struct ColdChain {
    entries: Vec<Entry>,
    gauges: ManagerGauges,
}

/// The population of a profile: (diamonds, failure probability).
pub fn inputs(size: Size) -> Vec<(usize, Ratio)> {
    let ks: &[usize] = match size {
        Size::Smoke => &[2],
        Size::Full => &[4, 8, 16, 32],
    };
    ks.iter()
        .flat_map(|&k| [(k, Ratio::new(1, 1000)), (k, Ratio::new(1, 100))])
        .collect()
}

/// Builds every chain program and its closed-form answer, then runs one
/// untimed warm-up op per input.
pub fn setup(size: Size) -> Result<ColdChain, String> {
    let entries: Vec<Entry> = inputs(size)
        .into_iter()
        .map(|(k, pfail)| Entry {
            label: format!("chain{k}-p{pfail}"),
            expected: chain_expected_delivery(k, &pfail),
            bench: chain_benchmark(k, pfail),
        })
        .collect();
    for e in &entries {
        let got = chain_delivery_native(&e.bench, &Manager::new()).map_err(|e| e.to_string())?;
        check(e, &got)?;
    }
    Ok(ColdChain {
        entries,
        gauges: ManagerGauges::default(),
    })
}

fn check(e: &Entry, got: &Ratio) -> Result<(), String> {
    if *got == e.expected {
        Ok(())
    } else {
        Err(format!(
            "{}: delivery {got}, closed form {}",
            e.label, e.expected
        ))
    }
}

impl Workload for ColdChain {
    fn population(&self) -> usize {
        self.entries.len()
    }

    fn run(&mut self, input: usize, ctx: &mut Ctx<'_>) {
        ctx.begin_op(input);
        let e = &self.entries[input];
        let start = Instant::now();
        let mgr = Manager::new();
        let res = match ctx.tracer.as_deref_mut() {
            None => chain_delivery_native(&e.bench, &mgr),
            // `chain_delivery_native`'s two steps, each in its own span.
            Some(t) => t.span(OP, |t| {
                let fdd = t.span("fdd.compile", |_| mgr.compile(&e.bench.program))?;
                Ok(t.span("fdd.query.prob_matching", |_| {
                    mgr.prob_matching(fdd, &e.bench.input, &e.bench.accept)
                }))
            }),
        };
        let elapsed = start.elapsed();
        if ctx.tracer.is_some() {
            self.gauges.absorb(&mgr);
        }
        drop(mgr);
        match res {
            Ok(got) => ctx.done(elapsed, check(e, &got)),
            Err(err) => ctx.failed(format!("{}: {err}", e.label)),
        }
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        self.gauges.counters()
    }
}

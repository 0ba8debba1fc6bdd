//! Structural scaling: a cold fat-tree compile may hold at most a small
//! constant times the nodes its result and its largest per-switch scratch
//! compile need, and a whole-program chain compile's peak nodes grow
//! linearly in the chain length. An O(n²) construction anywhere in the
//! pipeline (a left-folded ingress disjunction was one, and `restrict` on
//! a `sw` case spine walking its false edges another) then fails this
//! test deterministically instead of hiding in a timing.

use mcnetkat_fdd::{CompileOptions, Manager};
use mcnetkat_net::fused::{assemble_chain, assemble_model, compile_hops, hop_inputs};
use mcnetkat_net::{chain_benchmark, FailureSpec, FusedStats, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{fattree, ShortestPaths};
use std::collections::HashMap;

/// Peak live nodes per node of (result + largest scratch compile).
/// Measured 7.4 at fattree(16) and 8.0 at fattree(24); with the ingress
/// disjunction folded left (`Pred::any` as a left fold) they read 26.7
/// and 56.5.
const C: usize = 12;

#[test]
fn peak_nodes_stay_within_a_constant_of_result_plus_scratch() {
    for k in [16, 24] {
        let topo = fattree(k);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 1000)),
        );
        let mgr = Manager::new();
        let opts = CompileOptions::default();
        let sp = ShortestPaths::towards(&model.topo, model.dst);
        let switches = model.topo.switches();
        let inputs: Vec<_> = switches
            .iter()
            .map(|&s| hop_inputs(&model, s, &sp))
            .collect();
        let mut stats = FusedStats::default();
        let hops = compile_hops(&mgr, &inputs, 1, &opts, &mut stats).unwrap();
        let by_switch: HashMap<_, _> = switches.iter().copied().zip(hops).collect();
        let body = assemble_chain(&mgr, &model, |s| Ok(by_switch[&s])).unwrap();
        let fdd = assemble_model(&mgr, &model, body, &opts).unwrap();

        let (peak, size) = (mgr.peak_live_nodes(), mgr.reachable_size(fdd));
        let scratch = stats.max_scratch_nodes;
        eprintln!(
            "fattree({k}): peak {peak}, result {size}, scratch {scratch}, ratio {:.1}",
            peak as f64 / (size + scratch) as f64
        );
        assert!(
            peak <= C * (size + scratch),
            "fattree({k}): peak {peak} live nodes for a {size}-node result \
             and {scratch} scratch nodes (bound {C}×)"
        );
    }
}

/// Largest allowed ratio of chain(64)'s peak live nodes to chain(32)'s.
/// Measured 2.0; with `restrict` walking the case spine's false edges and
/// `seq` composing unrestricted arms it read 41,995 / 12,811 = 3.3.
const CHAIN_DOUBLING: f64 = 2.2;

#[test]
fn chain_compile_peak_nodes_grow_linearly() {
    let peak = |k: usize| {
        let bench = chain_benchmark(k, Ratio::new(1, 1000));
        let mgr = Manager::new();
        mgr.compile(&bench.program).unwrap();
        mgr.peak_live_nodes()
    };
    let (p32, p64) = (peak(32), peak(64));
    let ratio = p64 as f64 / p32 as f64;
    eprintln!("chain(32): peak {p32}; chain(64): peak {p64}; ratio {ratio:.2}");
    assert!(
        ratio <= CHAIN_DOUBLING,
        "chain(64) peaks at {p64} live nodes, {ratio:.2}× chain(32)'s {p32} \
         (bound {CHAIN_DOUBLING}×)"
    );
}

/// Largest allowed ratio of the teleport spec's peak live nodes at
/// fattree(32) to its peak at fattree(16) (4× the switches). Measured
/// 4.3; with one nested `local` per port around the ingress filter, each
/// rebuilding the ingress-sized diagram, it read 6.7.
const TELEPORT_DOUBLING: f64 = 5.0;

#[test]
fn teleport_spec_peak_nodes_grow_with_the_switches() {
    for failure in [
        FailureSpec::independent(Ratio::new(1, 1000)),
        FailureSpec::bounded(Ratio::new(1, 1000), 1),
    ] {
        let peak = |k: usize| {
            let topo = fattree(k);
            let dst = topo.find("edge0_0").unwrap();
            let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, failure.clone());
            let mgr = Manager::new();
            mgr.compile(&model.teleport()).unwrap();
            mgr.peak_live_nodes()
        };
        let (p16, p32) = (peak(16), peak(32));
        let ratio = p32 as f64 / p16 as f64;
        eprintln!("teleport fattree(16): peak {p16}; fattree(32): peak {p32}; ratio {ratio:.2}");
        assert!(
            ratio <= TELEPORT_DOUBLING,
            "teleport at fattree(32) peaks at {p32} live nodes, {ratio:.2}× \
             fattree(16)'s {p16} (bound {TELEPORT_DOUBLING}×)"
        );
    }
}

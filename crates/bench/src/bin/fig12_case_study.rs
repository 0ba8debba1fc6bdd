//! E7+E8+E9 / Figure 12 — the F10 case study on AB FatTree vs FatTree.
//!
//! (a) delivery probability vs link-failure probability (k = ∞),
//! (b) hop-count CDF at pr = 1/4,
//! (c) expected hop count conditioned on delivery.
//!
//! Paper shape: F10₀ dips sharply as failures increase while F10₃ and
//! F10₃,₅ stay high; detours buy delivery at the cost of longer paths; on
//! a standard FatTree F10₃,₅'s detours are longer (no 3-hop option).

use mcnetkat_bench::Table;
use mcnetkat_fdd::Manager;
use mcnetkat_net::{FailureSpec, NetworkModel, Queries, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, fattree, Topology};

const HOP_CAP: u32 = 14;

fn configs() -> Vec<(&'static str, Topology, RoutingScheme)> {
    vec![
        ("AB FatTree, F10_0", ab_fattree(4), RoutingScheme::Ecmp),
        ("AB FatTree, F10_3", ab_fattree(4), RoutingScheme::F10_3),
        ("AB FatTree, F10_3,5", ab_fattree(4), RoutingScheme::F10_3_5),
        ("FatTree,    F10_3,5", fattree(4), RoutingScheme::F10_3_5),
    ]
}

fn main() {
    let probs: Vec<(i64, i64)> = vec![(1, 128), (1, 64), (1, 32), (1, 16), (1, 8), (1, 4)];

    // (a) delivery probability vs failure probability.
    println!("Figure 12(a) — P[delivery] vs link-failure probability (k=∞)\n");
    let mut ta = Table::new(&["pr", "AB/F10_0", "AB/F10_3", "AB/F10_3,5", "FT/F10_3,5"]);
    for &(n, d) in &probs {
        let mut row = vec![format!("1/{d}")];
        for (_, topo, scheme) in configs() {
            let dst = topo.find("edge0_0").unwrap();
            let model = NetworkModel::new(
                topo,
                dst,
                scheme,
                FailureSpec::independent(Ratio::new(n, d)),
            );
            let mgr = Manager::new();
            let q = Queries::new(&mgr, &model).expect("compile");
            row.push(format!("{:.4}", q.delivery_avg().to_f64()));
        }
        ta.row(row);
    }
    ta.print();

    // (b) hop-count CDF at pr = 1/4.
    println!("\nFigure 12(b) — hop-count CDF, pr = 1/4 (P[delivered ∧ hops ≤ x])\n");
    let mut tb = Table::new(&["hops", "AB/F10_0", "AB/F10_3", "AB/F10_3,5", "FT/F10_3,5"]);
    let mut cdfs = Vec::new();
    for (_, topo, scheme) in configs() {
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            scheme,
            FailureSpec::independent(Ratio::new(1, 4)),
        )
        .with_hop_cap(HOP_CAP);
        let mgr = Manager::new();
        let q = Queries::new(&mgr, &model).expect("compile");
        cdfs.push(q.hop_stats_avg());
    }
    for hops in 2..=(HOP_CAP as usize) {
        let mut row = vec![hops.to_string()];
        for stats in &cdfs {
            row.push(format!("{:.4}", stats.cdf[hops].1.to_f64()));
        }
        tb.row(row);
    }
    tb.print();

    // (c) expected hop count conditioned on delivery.
    println!("\nFigure 12(c) — E[hop count | delivered]\n");
    let mut tc = Table::new(&["pr", "AB/F10_0", "AB/F10_3", "AB/F10_3,5", "FT/F10_3,5"]);
    for &(n, d) in &probs {
        let mut row = vec![format!("1/{d}")];
        for (_, topo, scheme) in configs() {
            let dst = topo.find("edge0_0").unwrap();
            let model = NetworkModel::new(
                topo,
                dst,
                scheme,
                FailureSpec::independent(Ratio::new(n, d)),
            )
            .with_hop_cap(HOP_CAP);
            let mgr = Manager::new();
            let q = Queries::new(&mgr, &model).expect("compile");
            row.push(format!("{:.3}", q.hop_stats_avg().expected_hops.to_f64()));
        }
        tc.row(row);
    }
    tc.print();
}

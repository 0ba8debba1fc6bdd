//! A condensed version of the §7 case study: F10 routing on an AB FatTree
//! under link failures — resilience, delivery probability, and path
//! stretch.
//!
//! Run with: `cargo run --release --example f10_case_study`

use mcnetkat::fdd::Manager;
use mcnetkat::net::{FailureModel, NetworkModel, Queries, RoutingScheme};
use mcnetkat::num::Ratio;
use mcnetkat::topo::ab_fattree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").expect("destination exists");
    println!(
        "AB FatTree p=4: {} switches, destination {}",
        topo.switches().len(),
        topo.info(dst).name
    );

    // k-resilience: is the scheme equivalent to teleportation when at
    // most k links fail?
    println!("\nresilience (≡ teleport under at most k failures):");
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        let mut ks = Vec::new();
        for k in 0..=4u32 {
            let model = NetworkModel::new(
                topo.clone(),
                dst,
                scheme,
                FailureModel::bounded(Ratio::new(1, 100), k),
            );
            let mgr = Manager::new();
            let q = Queries::new(&mgr, &model)?;
            ks.push(if q.equiv_teleport()? { '✓' } else { '✗' });
        }
        println!("  {:8} k=0..4: {:?}", scheme.name(), ks);
    }

    // Delivery probability and expected path length under heavy failures.
    println!("\nunder unbounded failures with pr = 1/8:");
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        let model = NetworkModel::new(
            topo.clone(),
            dst,
            scheme,
            FailureModel::independent(Ratio::new(1, 8)),
        )
        .with_hop_cap(14);
        let mgr = Manager::new();
        let q = Queries::new(&mgr, &model)?;
        let stats = q.hop_stats_avg();
        println!(
            "  {:8} P[deliver] = {:.4}   E[hops | delivered] = {:.3}",
            scheme.name(),
            stats.delivery,
            stats.expected_hops
        );
    }
    Ok(())
}

//! E5+E6 / Figure 11 (b) and (c) — k-resilience of the F10 schemes on the
//! AB FatTree, and the refinement order between them.
//!
//! Expected (paper Figure 11b): F10₀ is 0-resilient, F10₃ is 2-resilient,
//! F10₃,₅ is 3-resilient. Figure 11c: refinement becomes strict exactly
//! when the weaker scheme stops being fully resilient.

use mcnetkat_bench::Table;
use mcnetkat_fdd::Manager;
use mcnetkat_net::{FailureModel, NetworkModel, Queries, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::ab_fattree;

fn main() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    let ks: Vec<Option<u32>> = vec![Some(0), Some(1), Some(2), Some(3), Some(4), None];
    let schemes = [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ];

    println!("Figure 11(b) — k-resilience: M̂(scheme, f_k) ≡ teleport?\n");
    let mut table = Table::new(&["k", "F10_0", "F10_3", "F10_3,5"]);
    for k in &ks {
        let mut row = vec![k.map_or("∞".into(), |k| k.to_string())];
        for scheme in schemes {
            let failure = match k {
                Some(k) => FailureModel::bounded(pr.clone(), *k),
                None => FailureModel::independent(pr.clone()),
            };
            let model = NetworkModel::new(topo.clone(), dst, scheme, failure);
            let mgr = Manager::new();
            let q = Queries::new(&mgr, &model).expect("compile");
            let resilient = q.equiv_teleport().expect("teleport");
            row.push(if resilient { "✓" } else { "✗" }.into());
        }
        table.row(row);
    }
    table.print();

    println!("\nFigure 11(c) — refinement under f_k (≡ equivalent, < strict)\n");
    let mut table = Table::new(&[
        "k",
        "F10_0 vs F10_3",
        "F10_3 vs F10_3,5",
        "F10_3,5 vs teleport",
    ]);
    for k in &ks {
        let failure = match k {
            Some(k) => FailureModel::bounded(pr.clone(), *k),
            None => FailureModel::independent(pr.clone()),
        };
        let mgr = Manager::new();
        let models: Vec<NetworkModel> = schemes
            .iter()
            .map(|&s| NetworkModel::new(topo.clone(), dst, s, failure.clone()))
            .collect();
        let queries: Vec<Queries> = models
            .iter()
            .map(|m| Queries::new(&mgr, m).expect("compile"))
            .collect();
        let rel = |a: &Queries, b: &Queries| {
            if a.refines(b) && b.refines(a) {
                "≡"
            } else if a.refines(b) {
                "<"
            } else {
                "?"
            }
        };
        let tele_fdd = mgr.compile(&models[2].teleport()).expect("teleport");
        let t35 = if mgr.equiv(queries[2].fdd(), tele_fdd) {
            "≡"
        } else if mgr.less_eq(queries[2].fdd(), tele_fdd) {
            "<"
        } else {
            "?"
        };
        table.row(vec![
            k.map_or("∞".into(), |k| k.to_string()),
            rel(&queries[0], &queries[1]).into(),
            rel(&queries[1], &queries[2]).into(),
            t35.into(),
        ]);
    }
    table.print();
}

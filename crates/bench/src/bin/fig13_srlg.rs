//! Beyond-paper figure: correlated shared-risk-group failures.
//!
//! The paper's case study (§7, Figure 11b) quantifies resilience only
//! under *independent* per-link failures. This experiment runs the same
//! pipeline under correlated "line card" SRLGs — all down links of a
//! switch fail together, with the same per-link marginal probability —
//! and compares:
//!
//! * **(a)** min/avg delivery on fattree(6) under ECMP: failure-oblivious
//!   routing only samples one link per hop, so correlation is invisible
//!   to it (the singleton-SRLG row doubles as the equivalence sanity
//!   check);
//! * **(b)** min delivery and resilience of the F10 schemes on the AB
//!   FatTree: failure-*aware* rerouting loses exactly when primary and
//!   backup share a risk group, so one line-card event (`k = 1`) already
//!   breaks F10₃'s 1-resilience from Figure 11b.
//!
//! `MCNETKAT_SCALE=paper` grows part (a) to fattree(8).

use mcnetkat_bench::{scale, secs, timed, Scale, Table};
use mcnetkat_fdd::Manager;
use mcnetkat_net::{FailureModel, FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, fattree, Topology};

/// One line-card group per non-edge switch.
fn linecard_spec(topo: &Topology, pr: &Ratio, k: Option<u32>) -> FailureSpec {
    let base = match k {
        Some(k) => FailureSpec::bounded(Ratio::zero(), k),
        None => FailureSpec::independent(Ratio::zero()),
    };
    base.with_groups(Srlg::linecards(topo, pr))
}

fn main() {
    let p = match scale() {
        Scale::Small => 6,
        Scale::Paper => 8,
    };
    let pr = Ratio::new(1, 100);

    println!("(a) ECMP on fattree({p}), per-link failure marginal {pr}\n");
    let topo = fattree(p);
    let dst = topo.find("edge0_0").unwrap();
    let specs: Vec<(&str, FailureSpec)> = vec![
        ("independent", FailureSpec::independent(pr.clone())),
        (
            "SRLG singletons",
            FailureSpec::independent(pr.clone()).with_groups(Srlg::singletons(&topo, &pr)),
        ),
        ("SRLG line cards", linecard_spec(&topo, &pr, None)),
    ];
    let mut table = Table::new(&["failure model", "min delivery", "avg delivery", "compile"]);
    for (name, spec) in specs {
        let model = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, spec);
        let mgr = Manager::new();
        let (q, t) = timed(|| Queries::new(&mgr, &model).expect("compile"));
        table.row(vec![
            name.into(),
            format!("{:.6}", q.min_delivery().to_f64()),
            format!("{:.6}", q.delivery_avg()),
            secs(t),
        ]);
    }
    table.print();
    println!("\nECMP never reads link health, so only per-link marginals matter:");
    println!("all three rows agree — and the singleton row is the compiled");
    println!("equivalence anchor (singleton SRLGs ≡ independent).\n");

    println!("(b) F10 schemes on ab_fattree(4): independent vs line-card SRLGs\n");
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let schemes = [RoutingScheme::F10_3, RoutingScheme::F10_3_5];
    let mut table = Table::new(&["scheme", "failure model", "min delivery", "1-resilient?"]);
    for scheme in schemes {
        for correlated in [false, true] {
            let mgr = Manager::new();
            let (unbounded, bounded1): (FailureSpec, FailureSpec) = if correlated {
                (
                    linecard_spec(&topo, &pr, None),
                    linecard_spec(&topo, &pr, Some(1)),
                )
            } else {
                (
                    FailureModel::independent(pr.clone()).into(),
                    FailureModel::bounded(pr.clone(), 1).into(),
                )
            };
            let m_unbounded = NetworkModel::new(topo.clone(), dst, scheme, unbounded);
            let q_unbounded = Queries::new(&mgr, &m_unbounded).expect("compile");
            let m_bounded = NetworkModel::new(topo.clone(), dst, scheme, bounded1);
            let q_bounded = Queries::new(&mgr, &m_bounded).expect("compile");
            let resilient = q_bounded.equiv_teleport().expect("teleport");
            table.row(vec![
                scheme.name().into(),
                if correlated {
                    "SRLG line cards".into()
                } else {
                    "independent".into()
                },
                format!("{:.6}", q_unbounded.min_delivery().to_f64()),
                if resilient { "✓" } else { "✗" }.into(),
            ]);
        }
    }
    table.print();
    println!("\nOne line-card event kills a core's primary *and* all rerouting");
    println!("candidates at once: the F10 schemes stop being 1-resilient, a");
    println!("scenario the independent f_k family cannot express.");
}

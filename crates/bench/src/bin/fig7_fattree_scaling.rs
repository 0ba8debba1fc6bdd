//! E2 / Figure 7 — scalability on FatTree data-center topologies.
//!
//! For a family of FatTrees with ECMP routing, measures the time to build
//! the stochastic-matrix (FDD) representation with the native backend and
//! with the PRISM-translation backend, with no failures (`#f=0`) and with
//! independent failures of probability 1/1000.
//!
//! The paper's shape: the native backend scales to thousands of switches;
//! failures cost extra; native beats the PRISM route throughout. The paper
//! scale runs the native backend up to p = 40 (2000 switches) and the
//! PRISM route up to p = 16; the small scale runs the PRISM route up to
//! p = 6 (see `PRISM_MAX_P_SMALL` and `PRISM_MAX_P_PAPER`).

use mcnetkat_bench::{scale, secs, timed, Scale, Table};
use mcnetkat_fdd::Manager;
use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_prism::{check_reachability, translate, McMode};
use mcnetkat_topo::fattree;

/// The largest FatTree the PRISM columns run on at the small scale. The
/// PRISM route model checks the whole program's explicit state space,
/// whose cost grows more than tenfold per step of p: at p = 8 its two
/// cells take minutes, against seconds for the rest of the small figure.
const PRISM_MAX_P_SMALL: usize = 6;
/// The same at the paper scale: past p = 16 one cell would take longer
/// than the rest of the figure.
const PRISM_MAX_P_PAPER: usize = 16;

fn main() {
    let (ps, prism_max_p): (Vec<usize>, usize) = match scale() {
        Scale::Small => (vec![4, 6, 8], PRISM_MAX_P_SMALL),
        Scale::Paper => (vec![4, 6, 8, 10, 12, 14, 16, 24, 32, 40], PRISM_MAX_P_PAPER),
    };
    let mut table = Table::new(&[
        "p",
        "switches",
        "native(f=0)",
        "native(f=1/1000)",
        "prism(f=0)",
        "prism(f=1/1000)",
    ]);
    let prism_skipped = ps.iter().any(|&p| p > prism_max_p);
    for p in ps {
        let topo = fattree(p);
        let nsw = topo.switches().len();
        let dst = topo.find("edge0_0").unwrap();
        let mut cells = vec![p.to_string(), nsw.to_string()];

        for failure in [
            FailureSpec::none(),
            FailureSpec::independent(Ratio::new(1, 1000)),
        ] {
            let model = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, failure);
            let mgr = Manager::new();
            let (res, t) = timed(|| model.compile(&mgr));
            res.expect("native compile");
            cells.insert(cells.len(), secs(t));
        }
        if p > prism_max_p {
            cells.extend(["—".to_string(), "—".to_string()]);
            table.row(cells);
            continue;
        }
        // PRISM backend: translation is fast; the model-checking step
        // dominates (one reachability query from a representative source).
        for failure in [
            FailureSpec::none(),
            FailureSpec::independent(Ratio::new(1, 1000)),
        ] {
            let model = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, failure);
            let prog = model.program();
            let src = model.ingresses()[0];
            let input =
                mcnetkat_core::Packet::new().with(model.fields.sw, model.topo.sw_value(src));
            let accept = mcnetkat_core::Pred::test(model.fields.sw, model.topo.sw_value(dst));
            let (res, t) = timed(|| {
                let auto = translate(&prog).expect("translate");
                check_reachability(&auto, &input, &accept, McMode::Approx)
            });
            res.expect("prism check");
            cells.push(secs(t));
        }
        table.row(cells);
    }
    println!("Figure 7 — FatTree scalability, ECMP routing");
    println!("(native = FDD compile; prism = translate + model-check one query)\n");
    table.print();
    if prism_skipped {
        println!(
            "\n—: PRISM not run past p = {prism_max_p} at this scale: its explicit-state \
             check grows more than tenfold per step of p (see the smaller rows)"
        );
    }
}

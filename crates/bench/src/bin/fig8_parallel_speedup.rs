//! E3 / Figure 8 — speedup from the parallel per-switch backend.
//!
//! Compiles a FatTree model with 1..=N worker threads and reports the
//! speedup over one worker. The paper measured machines in a cluster; we
//! sweep threads on one machine and expect near-linear scaling up to the
//! physical core count.

use mcnetkat_bench::{scale, secs, timed, Scale, Table};
use mcnetkat_fdd::Manager;
use mcnetkat_net::{compile_model_parallel, FailureSpec, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::fattree;

fn main() {
    let p = match scale() {
        Scale::Small => 8,
        Scale::Paper => 14,
    };
    let topo = fattree(p);
    let dst = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::F10_3,
        FailureSpec::independent(Ratio::new(1, 100)),
    );
    let ncpu = std::thread::available_parallelism().map_or(4, |n| n.get());
    let workers: Vec<usize> = [1usize, 2, 4, 8, 16, 32]
        .into_iter()
        .filter(|&w| w <= ncpu.max(4))
        .collect();

    println!(
        "Figure 8 — parallel speedup (FatTree p={p}, {} switches, {} cores)\n",
        model.topo.switches().len(),
        ncpu
    );
    if ncpu == 1 {
        println!("note: this host exposes a single core; expect speedup ≈ 1.");
        println!("      (the paper's near-linear curve needs multi-core hardware)\n");
    }
    let mut table = Table::new(&["workers", "time", "speedup"]);
    let mut base = None;
    for w in workers {
        let mgr = Manager::new();
        let (res, t) = timed(|| compile_model_parallel(&mgr, &model, w, &Default::default()));
        res.expect("parallel compile");
        let baseline = *base.get_or_insert(t);
        table.row(vec![
            w.to_string(),
            secs(t),
            format!("{:.2}x", baseline / t),
        ]);
    }
    table.print();
}

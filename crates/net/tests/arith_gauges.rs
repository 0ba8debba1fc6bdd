//! The `Ratio` layer's slow-path gauges, pinned on the two workload
//! shapes the benchmark measures: a fat-tree compile stays entirely on
//! the inline `Small` fast path, while the chain benchmark's loop solve
//! needs big rationals. A change that pushes fat-tree arithmetic onto the
//! `Big` path (or silently stops counting it) fails here.

use mcnetkat_fdd::Manager;
use mcnetkat_net::{
    chain_benchmark, chain_delivery_native, chain_expected_delivery, FailureSpec, NetworkModel,
    RoutingScheme,
};
use mcnetkat_num::{arith_stats, reset_arith_stats, ArithStats, Ratio};
use mcnetkat_topo::ab_fattree;

#[test]
fn fattree4_compile_never_leaves_the_small_path() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let src = topo.find("edge1_0").unwrap();
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    );
    let mgr = Manager::new();
    // `compile` runs the fused pipeline on this thread (one worker), so
    // every operation it performs lands in this thread's counters.
    reset_arith_stats();
    let fdd = model.compile(&mgr).unwrap();
    let pk = mcnetkat_core::Packet::new().with(model.fields.sw, model.topo.sw_value(src));
    let delivered = mgr.prob_delivery(fdd, &pk);
    assert_eq!(arith_stats(), ArithStats::default());
    assert!(delivered > Ratio::zero() && delivered <= Ratio::one());
}

#[test]
fn chain8_loop_solve_takes_the_big_path() {
    let pfail = Ratio::new(1, 1000);
    let bench = chain_benchmark(8, pfail.clone());
    let expected = chain_expected_delivery(8, &pfail);
    reset_arith_stats();
    let got = chain_delivery_native(&bench, &Manager::new()).unwrap();
    let stats = arith_stats();
    assert_eq!(got, expected);
    assert!(
        stats.big_ops > 0,
        "chain(8) made no Big-path ops: {stats:?}"
    );
    assert!(stats.promotions > 0, "chain(8) promoted nothing: {stats:?}");
    reset_arith_stats();
    assert_eq!(arith_stats(), ArithStats::default());
}

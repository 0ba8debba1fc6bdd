//! End-to-end integration tests spanning all crates: paper-level claims
//! checked on full network models.

use mcnetkat::baseline::ExactInference;
use mcnetkat::fdd::Manager;
use mcnetkat::net::{
    chain_benchmark, chain_expected_delivery, compile_model_parallel, running_example,
    FailureModel, NetworkModel, Queries, RoutingScheme,
};
use mcnetkat::num::Ratio;
use mcnetkat::prism::{check_reachability, translate, McMode};
use mcnetkat::topo::{ab_fattree, fattree, parse_dot, to_dot};

/// §2: the paper's headline numbers, end to end.
#[test]
fn running_example_full_claims() {
    let ex = running_example();
    let mgr = Manager::new();
    let tele = mgr.compile(&ex.teleport()).unwrap();
    let pk = ex.ingress_packet();

    // Correctness without failures, 1-resilience under f1.
    for policy in [&ex.naive, &ex.resilient] {
        let m = mgr.compile(&ex.model(policy, &ex.f0)).unwrap();
        assert!(mgr.equiv(m, tele));
    }
    let resil_f1 = mgr.compile(&ex.model(&ex.resilient, &ex.f1)).unwrap();
    assert!(mgr.equiv(resil_f1, tele));

    // The quoted 80% / 96% SLA numbers.
    let naive_f2 = mgr.compile(&ex.model(&ex.naive, &ex.f2)).unwrap();
    let resil_f2 = mgr.compile(&ex.model(&ex.resilient, &ex.f2)).unwrap();
    assert_eq!(mgr.prob_delivery(naive_f2, &pk), Ratio::new(4, 5));
    assert_eq!(mgr.prob_delivery(resil_f2, &pk), Ratio::new(24, 25));

    // The refinement chain drop < naive < resilient < teleport.
    let bot = mgr.fail();
    assert!(mgr.less(bot, naive_f2));
    assert!(mgr.less(naive_f2, resil_f2));
    assert!(mgr.less(resil_f2, tele));
}

/// Figure 11(b)'s diagonal: 0/2/3-resilience of the three schemes.
#[test]
fn f10_resilience_table_diagonal() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    let expect: [(RoutingScheme, u32); 3] = [
        (RoutingScheme::Ecmp, 0),
        (RoutingScheme::F10_3, 2),
        (RoutingScheme::F10_3_5, 3),
    ];
    for (scheme, resilience) in expect {
        // Resilient at k = resilience…
        let mgr = Manager::new();
        let m = NetworkModel::new(
            topo.clone(),
            dst,
            scheme,
            FailureModel::bounded(pr.clone(), resilience),
        );
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(
            q.equiv_teleport().unwrap(),
            "{} should be {}-resilient",
            scheme.name(),
            resilience
        );
        // …but not at k + 1.
        let m = NetworkModel::new(
            topo.clone(),
            dst,
            scheme,
            FailureModel::bounded(pr.clone(), resilience + 1),
        );
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(
            !q.equiv_teleport().unwrap(),
            "{} should not be {}-resilient",
            scheme.name(),
            resilience + 1
        );
    }
}

/// Figure 11(c): the exact refinement order between the F10 schemes.
/// Refinement turns strict exactly when the weaker scheme stops being
/// fully resilient: at k = 1 only F10₀ has, at k = 3 F10₃ has too.
#[test]
fn f10_refinement_order() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    for k in [1, 3] {
        let mgr = Manager::new();
        let models: Vec<NetworkModel> = [
            RoutingScheme::Ecmp,
            RoutingScheme::F10_3,
            RoutingScheme::F10_3_5,
        ]
        .into_iter()
        .map(|s| NetworkModel::new(topo.clone(), dst, s, FailureModel::bounded(pr.clone(), k)))
        .collect();
        let q: Vec<Queries> = models
            .iter()
            .map(|m| Queries::new(&mgr, m).unwrap())
            .collect();
        assert!(q[0].strictly_refines(&q[1]), "k={k}: F10_0 < F10_3");
        if k == 1 {
            assert!(
                q[1].refines(&q[2]) && q[2].refines(&q[1]),
                "k=1: F10_3 ≡ F10_3,5"
            );
        } else {
            assert!(q[1].strictly_refines(&q[2]), "k={k}: F10_3 < F10_3,5");
        }
        let tele = mgr.compile(&models[2].teleport()).unwrap();
        assert!(mgr.less_eq(q[2].fdd(), tele), "k={k}: F10_3,5 ≤ teleport");
        assert!(mgr.equiv(q[2].fdd(), tele), "k={k}: F10_3,5 ≡ teleport");
    }
}

/// All three engines agree exactly on the chain benchmark.
#[test]
fn chain_engines_agree() {
    let pfail = Ratio::new(1, 16);
    let bench = chain_benchmark(3, pfail.clone());
    let expect = chain_expected_delivery(3, &pfail);

    let mgr = Manager::new();
    let fdd = mgr.compile(&bench.program).unwrap();
    assert_eq!(mgr.prob_matching(fdd, &bench.input, &bench.accept), expect);

    let auto = translate(&bench.program).unwrap();
    let mc = check_reachability(&auto, &bench.input, &bench.accept, McMode::Exact).unwrap();
    assert_eq!(mc.exact, Some(expect.clone()));
    let approx = check_reachability(&auto, &bench.input, &bench.accept, McMode::Approx).unwrap();
    assert!((approx.probability - expect.to_f64()).abs() < 1e-9);

    let base = ExactInference::new(96).query(&bench.program, &bench.input, &bench.accept);
    assert!(base.is_exact());
    assert_eq!(base.probability, expect);
}

/// The parallel map-reduce backend is semantics-preserving on a model
/// with failures and detours.
#[test]
fn parallel_backend_preserves_semantics() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::F10_3_5,
        FailureModel::bounded(Ratio::new(1, 10), 2),
    );
    let mgr = Manager::new();
    let sequential = model.compile(&mgr).unwrap();
    let parallel = compile_model_parallel(&mgr, &model, 3, &Default::default()).unwrap();
    assert!(mgr.equiv(sequential, parallel));
}

/// Topology round trip through DOT does not change verification results.
#[test]
fn dot_round_trip_preserves_model_results() {
    let topo = fattree(4);
    let reparsed = parse_dot(&to_dot(&topo)).unwrap();
    let dst1 = topo.find("edge0_0").unwrap();
    let dst2 = reparsed.find("edge0_0").unwrap();
    let mgr = Manager::new();
    // Levels survive the round trip, so ECMP models agree.
    let m1 = NetworkModel::new(topo, dst1, RoutingScheme::Ecmp, FailureModel::none());
    let m2 = NetworkModel::new(reparsed, dst2, RoutingScheme::Ecmp, FailureModel::none());
    let f1 = m1.compile(&mgr).unwrap();
    let f2 = m2.compile(&mgr).unwrap();
    assert!(mgr.equiv(f1, f2));
}

/// FatTree vs AB FatTree: same delivery under ECMP without failures, but
/// the AB wiring strictly helps F10_3 under failures.
#[test]
fn ab_wiring_helps_f10() {
    let pr = FailureModel::independent(Ratio::new(1, 8));
    let mgr = Manager::new();
    let mk = |topo: mcnetkat::topo::Topology, scheme| {
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, scheme, pr.clone())
    };
    let ab = mk(ab_fattree(4), RoutingScheme::F10_3);
    let ft = mk(fattree(4), RoutingScheme::F10_3);
    let q_ab = Queries::new(&mgr, &ab).unwrap();
    let q_ft = Queries::new(&mgr, &ft).unwrap();
    let src_ab = ab.topo.find("edge1_0").unwrap();
    let src_ft = ft.topo.find("edge1_0").unwrap();
    // On the standard FatTree no opposite-type aggs exist, so F10_3
    // degenerates and delivers strictly less.
    assert!(q_ft.delivery_prob(src_ft) < q_ab.delivery_prob(src_ab));
}

/// Hop-count accounting: shortest paths dominate when there are no
/// failures, and the CDF is monotone.
#[test]
fn hop_count_cdf_sane() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::F10_3,
        FailureModel::independent(Ratio::new(1, 4)),
    )
    .with_hop_cap(12);
    let mgr = Manager::new();
    let q = Queries::new(&mgr, &model).unwrap();
    let stats = q.hop_stats_avg();
    let mut prev = 0.0;
    for &(_, p) in &stats.cdf {
        assert!(p >= prev - 1e-12, "CDF must be monotone");
        prev = p;
    }
    assert!(stats.delivery > 0.9);
    assert!(stats.expected_hops >= 2.0);
}

//! Integration tests for correlated (shared-risk-group) failure models:
//! the singleton-SRLG ≡ independent semantic anchor on the §2 running
//! example and fattree(4), correlated-vs-independent separation on the
//! F10 schemes, and parallel-compile agreement under SRLG specs.

use mcnetkat_fdd::Manager;
use mcnetkat_net::{
    compile_model_parallel, running_example, FailureSpec, NetFields, NetworkModel, Queries,
    RoutingScheme, Srlg,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, fattree, Topology};

/// The all-singletons SRLG spec over every failure-prone link: must be
/// indistinguishable from independent failures with the same `pr`.
fn singleton_spec(topo: &Topology, pr: &Ratio, k: Option<u32>) -> FailureSpec {
    let base = match k {
        Some(k) => FailureSpec::bounded(pr.clone(), k),
        None => FailureSpec::independent(pr.clone()),
    };
    base.with_groups(Srlg::singletons(topo, pr))
}

/// One "line card" group per aggregation/core switch: all of a switch's
/// down links fail together.
fn linecard_spec(topo: &Topology, pr: &Ratio, k: Option<u32>) -> FailureSpec {
    let base = match k {
        Some(k) => FailureSpec::bounded(Ratio::zero(), k),
        None => FailureSpec::independent(Ratio::zero()),
    };
    base.with_groups(Srlg::linecards(topo, pr))
}

#[test]
fn singleton_srlg_matches_independent_on_running_example_hop() {
    // The §2 running example draws up2/up3 independently with pr 1/5
    // (`f2`). A spec with one singleton group per link must compile to an
    // equivalent diagram once the group scratch fields are projected out.
    let ex = running_example();
    let fields = NetFields::with_groups(3, 2);
    let pr = Ratio::new(1, 5);
    let spec = FailureSpec::independent(pr.clone())
        .with_group(Srlg::new("l12", pr.clone(), vec![(1, 2)]))
        .with_group(Srlg::new("l13", pr.clone(), vec![(1, 3)]));
    let mgr = Manager::new();
    let corr = mgr.compile(&spec.hop_program(&fields, 1, &[2, 3])).unwrap();
    let corr = mgr.forget(corr, fields.grps());
    let indep = mgr.compile(&ex.f2).unwrap();
    assert!(mgr.equiv(corr, indep));
    assert!(mgr.less_eq(corr, indep) && mgr.less_eq(indep, corr));
}

#[test]
fn singleton_srlg_matches_independent_on_running_example_model() {
    let ex = running_example();
    let fields = NetFields::with_groups(3, 2);
    let pr = Ratio::new(1, 5);
    let spec = FailureSpec::independent(pr.clone())
        .with_group(Srlg::new("l12", pr.clone(), vec![(1, 2)]))
        .with_group(Srlg::new("l13", pr, vec![(1, 3)]));
    // Per-hop failure program plus the per-hop group erasure (no up-flag
    // erasure: the §2 model carries the flags in its loop states).
    let f_corr = spec
        .hop_program(&fields, 1, &[2, 3])
        .seq(spec.erase_program(&fields, &[]));
    let mgr = Manager::new();
    for policy in [&ex.naive, &ex.resilient] {
        let corr = mgr.compile(&ex.model(policy, &f_corr)).unwrap();
        let corr = mgr.forget(corr, fields.grps());
        let indep = mgr.compile(&ex.model(policy, &ex.f2)).unwrap();
        assert!(mgr.equiv(corr, indep));
        assert!(mgr.less_eq(corr, indep) && mgr.less_eq(indep, corr));
    }
}

#[test]
fn singleton_srlg_refines_independent_both_ways_on_fattree4() {
    let topo = fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    for k in [None, Some(1), Some(2)] {
        let indep = match k {
            Some(k) => FailureSpec::bounded(pr.clone(), k),
            None => FailureSpec::independent(pr.clone()),
        };
        let m_indep = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, indep);
        let m_srlg = NetworkModel::new(
            topo.clone(),
            dst,
            RoutingScheme::Ecmp,
            singleton_spec(&topo, &pr, k),
        );
        let mgr = Manager::new();
        let q_indep = Queries::new(&mgr, &m_indep).unwrap();
        let q_srlg = Queries::new(&mgr, &m_srlg).unwrap();
        assert!(q_srlg.refines(&q_indep), "k={k:?}");
        assert!(q_indep.refines(&q_srlg), "k={k:?}");
        assert!(mgr.equiv(q_srlg.fdd(), q_indep.fdd()), "k={k:?}");
    }
}

#[test]
fn linecard_correlation_separates_from_independent_on_f10() {
    // F10₃'s core-level rerouting candidates share the core's line card
    // with the primary next hop, so correlated card failures kill primary
    // and backup together: delivery drops strictly below the independent
    // model with identical per-link marginals.
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 10);
    let m_indep = NetworkModel::new(
        topo.clone(),
        dst,
        RoutingScheme::F10_3,
        FailureSpec::independent(pr.clone()),
    );
    let m_corr = NetworkModel::new(
        topo.clone(),
        dst,
        RoutingScheme::F10_3,
        linecard_spec(&topo, &pr, None),
    );
    let mgr = Manager::new();
    let q_indep = Queries::new(&mgr, &m_indep).unwrap();
    let q_corr = Queries::new(&mgr, &m_corr).unwrap();
    assert!(!mgr.equiv(q_corr.fdd(), q_indep.fdd()));
    assert!(
        q_corr.min_delivery() < q_indep.min_delivery(),
        "correlated {} vs independent {}",
        q_corr.min_delivery(),
        q_indep.min_delivery()
    );
    // Correlation only ever hurts here: the correlated model refines the
    // independent one, strictly.
    assert!(q_corr.refines(&q_indep));
    assert!(!q_indep.refines(&q_corr));
}

#[test]
fn one_linecard_failure_breaks_f10_one_resilience() {
    // Figure 11b: F10₃ is 1-resilient under f_1 — any *single link*
    // failure is routed around. A single line-card event that takes a
    // whole core's downlinks with it is not: every rerouting candidate at
    // that core dies with the primary.
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    let mgr = Manager::new();
    let m_indep = NetworkModel::new(
        topo.clone(),
        dst,
        RoutingScheme::F10_3,
        FailureSpec::bounded(pr.clone(), 1),
    );
    let q_indep = Queries::new(&mgr, &m_indep).unwrap();
    assert!(q_indep.equiv_teleport().unwrap());
    let m_corr = NetworkModel::new(
        topo.clone(),
        dst,
        RoutingScheme::F10_3,
        linecard_spec(&topo, &pr, Some(1)),
    );
    let q_corr = Queries::new(&mgr, &m_corr).unwrap();
    assert!(!q_corr.equiv_teleport().unwrap());
}

#[test]
fn parallel_compile_agrees_under_srlg() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let spec = linecard_spec(&topo, &Ratio::new(1, 10), None);
    let m = NetworkModel::new(topo, dst, RoutingScheme::F10_3, spec);
    let mgr = Manager::new();
    let sequential = m.compile(&mgr).unwrap();
    for workers in [2, 3] {
        let parallel = compile_model_parallel(&mgr, &m, workers, &Default::default()).unwrap();
        assert!(mgr.equiv(sequential, parallel), "workers = {workers}");
    }
}

#[test]
fn heterogeneous_links_order_between_uniform_bounds() {
    // Raising one link's failure probability sits between the all-low and
    // all-high uniform models in the refinement order. Destination
    // edge0_1 makes the override genuinely partial: paths towards it
    // cross aggregation down-port 2 (overridden high) and core down-port
    // 1 (kept low), so the mixed model is strictly between the uniforms.
    let topo = fattree(4);
    let dst = topo.find("edge0_1").unwrap();
    let low = Ratio::new(1, 10);
    let high = Ratio::new(1, 4);
    let mixed = FailureSpec::independent(low.clone()).with_link_pr(2, high.clone());
    let mgr = Manager::new();
    let mk = |failure: FailureSpec| -> NetworkModel {
        NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, failure)
    };
    let m_low = mk(FailureSpec::independent(low));
    let m_mixed = mk(mixed);
    let m_high = mk(FailureSpec::independent(high));
    let q_low = Queries::new(&mgr, &m_low).unwrap();
    let q_mixed = Queries::new(&mgr, &m_mixed).unwrap();
    let q_high = Queries::new(&mgr, &m_high).unwrap();
    assert!(q_high.refines(&q_mixed));
    assert!(q_mixed.refines(&q_low));
    assert!(q_mixed.strictly_refines(&q_low));
    assert!(q_high.strictly_refines(&q_mixed));
}

#[test]
fn compiled_srlg_models_mention_no_group_fields() {
    // The group scratch fields must be fully projected out of compiled
    // diagrams: no tests (Domain) on any grp field.
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let spec = linecard_spec(&topo, &Ratio::new(1, 10), Some(2));
    let m = NetworkModel::new(topo, dst, RoutingScheme::F10_3_5, spec);
    let mgr = Manager::new();
    let fdd = m.compile(&mgr).unwrap();
    let dom = mgr.domain(fdd);
    for &g in m.fields.grps() {
        assert!(!dom.tested.contains_key(&g), "{g} tested in compiled model");
    }
    // And the model still answers queries.
    let q = Queries::from_fdd(&mgr, &m, fdd);
    let d = q.min_delivery();
    assert!(d > Ratio::zero() && d < Ratio::one(), "min delivery {d}");
}

//! Reference differential for the fused hop's scenario sum.
//!
//! The fused pipeline compiles only a switch's route and sums its failure
//! events out of the route diagram (`fused::compile_hop_import`). The
//! reference is the draw-first hop it replaces: compile
//! `FailureSpec::hop_program ; route` and project every scratch field out
//! with write-only elimination (`Manager::forget`). In one manager the two
//! must give the very same diagram handle — not just equivalent diagrams
//! — for every switch, across fat trees, routing schemes, every failure
//! encoding (independent, per-link overrides, line cards, singletons,
//! groups plus independent draws, budgets `k = 0..=3` with and without
//! groups, zero-probability groups, failure-free) and a hop cap.

use mcnetkat_fdd::{CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{compile_hop_import, compile_hops, hop_inputs, HopInputs};
use mcnetkat_net::{FailureSpec, FusedStats, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, fattree, NodeId, ShortestPaths, Topology};

/// `hop_program ; route`, compiled, with the `up`/`grp` flags forgotten.
fn draw_first(mgr: &Manager, model: &NetworkModel, s: NodeId, inputs: &HopInputs) -> Fdd {
    let fields = &model.fields;
    let prone = model.prone_ports(s);
    let draw = model
        .failure
        .hop_program(fields, model.topo.sw_value(s), &prone);
    let hop = mgr.compile(&draw.seq(inputs.route.clone())).unwrap();
    let scratch: Vec<_> = prone
        .iter()
        .map(|&p| fields.up(p))
        .chain(fields.grps().iter().copied())
        .collect();
    mgr.forget(hop, &scratch)
}

/// Every switch's scenario hop is the draw-first hop, handle for handle.
fn assert_scenarios_match(what: &str, model: &NetworkModel) {
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let mgr = Manager::new();
    let opts = CompileOptions::default();
    for &s in model.topo.switches() {
        let inputs = hop_inputs(model, s, &sp);
        let got = compile_hop_import(&mgr, &inputs, &opts, &mut FusedStats::default()).unwrap();
        let want = draw_first(&mgr, model, s, &inputs);
        assert_eq!(got, want, "{what}: switch {}", model.topo.info(s).name);
    }
}

/// Line-card groups on every other switch that has failure-prone links,
/// leaving the rest to independent draws.
fn some_linecards(topo: &Topology, pr: &Ratio) -> Vec<Srlg> {
    Srlg::linecards(topo, pr).into_iter().step_by(2).collect()
}

fn encodings(topo: &Topology) -> Vec<(String, FailureSpec)> {
    let r = Ratio::new;
    let mut out = vec![
        ("independent".into(), FailureSpec::independent(r(1, 10))),
        (
            "link_pr overrides".into(),
            FailureSpec::independent(r(1, 10))
                .with_link_pr(1, r(1, 3))
                .with_link_pr(2, Ratio::zero()),
        ),
        (
            "line cards".into(),
            FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(topo, &r(1, 20))),
        ),
        (
            "singletons".into(),
            FailureSpec::independent(r(1, 10)).with_groups(Srlg::singletons(topo, &r(1, 20))),
        ),
        (
            "groups plus independent".into(),
            FailureSpec::independent(r(1, 10)).with_groups(some_linecards(topo, &r(1, 20))),
        ),
        (
            "zero-probability groups".into(),
            FailureSpec::independent(r(1, 10)).with_groups(some_linecards(topo, &Ratio::zero())),
        ),
        ("failure-free".into(), FailureSpec::none()),
        (
            "failure-free by probability".into(),
            FailureSpec::independent(Ratio::zero()),
        ),
    ];
    for k in 0..=3 {
        out.push((format!("k = {k}"), FailureSpec::bounded(r(1, 10), k)));
        out.push((
            format!("k = {k}, groups"),
            FailureSpec::bounded(r(1, 10), k).with_groups(some_linecards(topo, &r(1, 5))),
        ));
    }
    out.push((
        "k = 1, zero-probability groups".into(),
        FailureSpec::bounded(r(1, 10), 1).with_groups(some_linecards(topo, &Ratio::zero())),
    ));
    out.push((
        "k = 2, line cards only".into(),
        FailureSpec::bounded(Ratio::zero(), 2).with_groups(Srlg::linecards(topo, &r(1, 5))),
    ));
    out
}

fn check_topology(name: &str, topo: Topology) {
    let dst = topo.find("edge0_0").unwrap();
    for (encoding, spec) in encodings(&topo) {
        for scheme in [
            RoutingScheme::Ecmp,
            RoutingScheme::F10_3,
            RoutingScheme::F10_3_5,
        ] {
            let model = NetworkModel::new(topo.clone(), dst, scheme, spec.clone());
            assert_scenarios_match(&format!("{name}, {scheme:?}, {encoding}"), &model);
        }
    }
}

#[test]
fn scenario_hops_match_the_draw_first_hops_on_fattree4() {
    check_topology("fattree(4)", fattree(4));
}

#[test]
fn scenario_hops_match_the_draw_first_hops_on_ab_fattree4() {
    check_topology("ab_fattree(4)", ab_fattree(4));
}

#[test]
fn scenario_hops_match_the_draw_first_hops_on_fattree6() {
    check_topology("fattree(6)", fattree(6));
}

#[test]
fn scenario_hops_match_the_draw_first_hops_under_a_hop_cap() {
    let topo = fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let r = Ratio::new;
    for (encoding, spec) in [
        ("independent", FailureSpec::independent(r(1, 10))),
        (
            "k = 2, groups",
            FailureSpec::bounded(r(1, 10), 2).with_groups(some_linecards(&topo, &r(1, 5))),
        ),
    ] {
        let model =
            NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3_5, spec).with_hop_cap(6);
        assert_scenarios_match(&format!("fattree(4), hop cap 6, {encoding}"), &model);
    }
}

/// The scenario sum never builds the draw's outcome cross-product: the
/// largest per-switch scratch manager stays small where compiling the
/// budget-guarded draw chain, or one group prefix per line card, made
/// over a thousand nodes.
#[test]
fn scenario_hops_keep_the_scratch_manager_small() {
    let pr = Ratio::new(1, 1000);
    for (k, scheme, line_cards) in [
        (6, RoutingScheme::Ecmp, false),
        (6, RoutingScheme::F10_3, false),
        (8, RoutingScheme::F10_3, true),
    ] {
        let topo = fattree(k);
        let dst = topo.find("edge0_0").unwrap();
        let spec = if line_cards {
            FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr))
        } else {
            FailureSpec::bounded(pr.clone(), 1)
        };
        let model = NetworkModel::new(topo, dst, scheme, spec);
        let sp = ShortestPaths::towards(&model.topo, model.dst);
        let inputs: Vec<HopInputs> = model
            .topo
            .switches()
            .iter()
            .map(|&s| hop_inputs(&model, s, &sp))
            .collect();
        let mut stats = FusedStats::default();
        let opts = CompileOptions::default();
        compile_hops(&Manager::new(), &inputs, 1, &opts, &mut stats).unwrap();
        assert!(
            stats.max_scratch_nodes <= 128,
            "fattree({k}), {scheme:?}, line cards {line_cards}: {} scratch nodes",
            stats.max_scratch_nodes
        );
    }
}

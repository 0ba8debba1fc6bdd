//! Differential tests pinning the fused per-switch pipeline against the
//! legacy whole-body compile path.
//!
//! The fused pipeline (`NetworkModel::compile`) compiles each switch's
//! hop in a scratch manager, eliminates the `up_i`/`grp_j` scratch fields
//! eagerly, and assembles the global model from scratch-free diagrams.
//! The legacy path (`NetworkModel::compile_legacy`) builds the whole body
//! FDD first. These tests pin the two `equiv` (and `refines` both ways)
//! on the §2 running example's hop, fattree(4)/(6) under every failure
//! family, all-singleton and correlated SRLG specs, randomised guarded
//! specs and models whose ingress is the destination — for both the
//! sequential and parallel backends, bounded and unbounded.

use mcnetkat_core::{Packet, Pred, Prog};
use mcnetkat_fdd::{CompileOptions, Manager, ScratchField};
use mcnetkat_net::fused::{assemble_tail, compile_hop_import, hop_inputs, HopInputs};
use mcnetkat_net::{
    compile_model_parallel, running_example, FailureSpec, FusedStats, NetworkModel, RoutingScheme,
    Srlg,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, fattree, Level, ShortestPaths, Topology};

/// Pins fused ≡ legacy (and ≤ both ways) for one model, sequentially and
/// through the parallel backend.
fn assert_fused_matches_legacy(model: &NetworkModel, workers: &[usize]) {
    let mgr = Manager::new();
    let legacy = model.compile_legacy(&mgr).unwrap();
    let fused = model.compile(&mgr).unwrap();
    assert!(mgr.equiv(fused, legacy), "sequential fused ≢ legacy");
    assert!(
        mgr.less_eq(fused, legacy) && mgr.less_eq(legacy, fused),
        "refinement must hold both ways"
    );
    for &w in workers {
        let par = compile_model_parallel(&mgr, model, w, &Default::default()).unwrap();
        assert!(mgr.equiv(par, legacy), "parallel({w}) fused ≢ legacy");
    }
}

/// The §2 running example's fragile hop: compiling the routing program
/// *without* the draw and eliminating `up2`/`up3` with the `f2` weights
/// must equal compiling the full `f2 ; p̂ ; t̂` hop — the factored draw
/// representation behind the fused pipeline, pinned on the paper's own
/// example.
#[test]
fn sec2_example_hop_eliminates_to_the_drawn_hop() {
    let ex = running_example();
    let pr = Ratio::new(1, 5); // f2: both links fail with probability 1/5
    let mgr = Manager::new();
    let hop = ex.resilient.clone().seq(ex.topology.clone());
    let drawn = mgr.compile(&ex.f2.clone().seq(hop.clone())).unwrap();
    let drawn = mgr.forget(drawn, &[ex.fields.up(1), ex.fields.up(2), ex.fields.up(3)]);
    let routed = mgr.compile(&hop).unwrap();
    let eliminated = mgr.eliminate(
        routed,
        &[
            ScratchField::bernoulli(ex.fields.up(2), Ratio::one() - pr.clone()),
            ScratchField::bernoulli(ex.fields.up(3), Ratio::one() - pr.clone()),
            ScratchField::write_only(ex.fields.up(1)),
        ],
    );
    assert!(mgr.equiv(eliminated, drawn));
    assert!(mgr.less_eq(eliminated, drawn) && mgr.less_eq(drawn, eliminated));
}

/// `hop_inputs` keeps only the `pt` arms of the topology step that the
/// switch's route can take. Every switch's sliced hop must import to the
/// very diagram of the unsliced one: the switch's route followed by the
/// full `topology_step(s)`, with the same failure events and budget
/// summed out. The destination switch, whose route is `drop`, is among
/// the switches.
#[test]
fn sliced_hops_import_to_the_unsliced_diagram() {
    let pr = Ratio::new(1, 10);
    for k in [4, 6] {
        let topo = ab_fattree(k);
        let dst = topo.find("edge0_0").unwrap();
        let encodings = [
            ("independent", FailureSpec::independent(pr.clone())),
            (
                "line-card SRLG",
                FailureSpec::independent(Ratio::zero())
                    .with_groups(Srlg::linecards(&topo, &Ratio::new(1, 20))),
            ),
            ("bounded k=1", FailureSpec::bounded(pr.clone(), 1)),
        ];
        for (encoding, spec) in encodings {
            for scheme in [
                RoutingScheme::Ecmp,
                RoutingScheme::F10_3,
                RoutingScheme::F10_3_5,
            ] {
                let m = NetworkModel::new(topo.clone(), dst, scheme, spec.clone());
                let sliced = assert_sliced_hops_match(&m);
                let what = format!("fattree({k}), {scheme:?}, {encoding}");
                // Only the topology step tells the two routes apart.
                assert!(sliced > 0, "{what}: no switch was sliced");
            }
        }
    }
}

/// Checks every switch of `model` (see
/// [`sliced_hops_import_to_the_unsliced_diagram`]) and returns how many
/// switches' routes differ from the unsliced one.
fn assert_sliced_hops_match(model: &NetworkModel) -> usize {
    assert!(model.hop_cap.is_none());
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let mgr = Manager::new();
    let opts = CompileOptions::default();
    let mut differ = 0;
    for &s in model.topo.switches() {
        let sliced = hop_inputs(model, s, &sp);
        let full = HopInputs {
            route: model.switch_route(s, &sp).seq(model.topology_step(s)),
            ..sliced.clone()
        };
        differ += usize::from(sliced.route != full.route);
        let mut stats = FusedStats::default();
        let got = compile_hop_import(&mgr, &sliced, &opts, &mut stats).unwrap();
        let want = compile_hop_import(&mgr, &full, &opts, &mut stats).unwrap();
        assert_eq!(got, want, "switch {}", model.topo.info(s).name);
    }
    differ
}

#[test]
fn fattree4_all_schemes_unbounded() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        let m = NetworkModel::new(
            topo.clone(),
            dst,
            scheme,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        assert_fused_matches_legacy(&m, &[3]);
    }
}

#[test]
fn fattree4_bounded_budgets() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    for k in [0u32, 1, 2] {
        let m = NetworkModel::new(
            topo.clone(),
            dst,
            RoutingScheme::F10_3,
            FailureSpec::bounded(Ratio::new(1, 10), k),
        );
        assert_fused_matches_legacy(&m, &[2]);
    }
}

#[test]
fn fattree4_heterogeneous_link_probabilities() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let spec = FailureSpec::independent(Ratio::new(1, 100))
        .with_link_pr(1, Ratio::new(1, 2))
        .with_link_pr(2, Ratio::zero());
    let m = NetworkModel::new(topo, dst, RoutingScheme::F10_3, spec);
    assert_fused_matches_legacy(&m, &[3]);
}

#[test]
fn fattree6_ecmp_unbounded() {
    let topo = fattree(6);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    );
    assert_fused_matches_legacy(&m, &[4]);
}

#[test]
fn fattree4_hop_capped_model() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 10)),
    )
    .with_hop_cap(6);
    assert_fused_matches_legacy(&m, &[2]);
}

/// The failure-free rows of the fattree(4) scheme × failure-family
/// matrix; the tests around it cover every scheme under independent,
/// budget-bounded and SRLG failures.
#[test]
fn fattree4_failure_free_all_schemes() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        let m = NetworkModel::new(topo.clone(), dst, scheme, FailureSpec::none());
        assert_fused_matches_legacy(&m, &[2]);
    }
}

/// Models whose only ingress is the destination itself — a topology with
/// no edge switch falls back to its first switch. There the tail's
/// `(in ∧ ¬guard) ; body ; loop` summand of the do-while law is not
/// empty, so the fused tail must build it.
#[test]
fn ingress_at_destination_builds_the_unrolled_summand() {
    let chain = mcnetkat_topo::chain(1);
    let first = chain.switches()[0];
    let chain_model = NetworkModel::new(chain, first, RoutingScheme::Ecmp, FailureSpec::none());

    // Core/agg only: the core's down links are failure-prone.
    let mut topo = Topology::new();
    let agg0 = topo.add_switch("agg0", Level::Agg);
    let core0 = topo.add_switch("core0", Level::Core);
    let core1 = topo.add_switch("core1", Level::Core);
    let agg1 = topo.add_switch("agg1", Level::Agg);
    for core in [core0, core1] {
        topo.link(core, agg0);
        topo.link(core, agg1);
    }
    let plain = NetworkModel::new(
        topo,
        agg0,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 10)),
    );
    for m in [chain_model, plain] {
        assert_eq!(m.ingresses(), vec![m.dst], "the ingress falls back to dst");
        assert_fused_matches_legacy(&m, &[2]);
    }
}

/// No routing scheme moves a packet out of the destination (its switch
/// program is `drop`), so in a real model the unrolled summand denotes
/// drop. With a loop body that does leave the destination, the summand
/// carries mass, and `assemble_tail` must still equal the whole program
/// `in ; do body while guard ; pt←0` compiled by the general path.
#[test]
fn assemble_tail_matches_general_compile_with_a_live_unrolled_summand() {
    let topo = mcnetkat_topo::chain(1);
    let dst = topo.switches()[0];
    let m = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none());
    let f = &m.fields;
    let out = m
        .topo
        .ports(dst)
        .iter()
        .find(|pp| m.topo.info(pp.peer).level != Level::Host)
        .unwrap();
    let leave =
        Prog::assign(f.sw, m.topo.sw_value(out.peer)).seq(Prog::assign(f.pt, out.peer_port));
    let body = Prog::ite(Pred::test(f.sw, m.topo.sw_value(dst)), leave, m.body());
    let mut whole = Prog::filter(m.ingress_pred())
        .seq(Prog::do_while(body.clone(), m.guard()))
        .seq(Prog::assign(f.pt, 0));
    whole = Prog::local(f.dt, 0, whole);
    for i in (1..=m.topo.max_degree() as u32).rev() {
        whole = Prog::local(f.up(i), 1, whole);
    }

    let mgr = Manager::new();
    let opts = CompileOptions::default();
    let general = mgr.compile(&whole).unwrap();
    let fbody = mgr.compile(&body).unwrap();
    let w = mgr
        .while_loop(mgr.compile_pred(&m.guard()), fbody, &opts)
        .unwrap();
    let tail = assemble_tail(&mgr, &m, fbody, w, &opts).unwrap();
    assert!(mgr.equiv(tail, general));
    let at_dst = Packet::new().with(f.sw, m.topo.sw_value(dst)).with(f.pt, 0);
    assert!(
        !mgr.eval(tail, &at_dst).is_drop(),
        "a packet injected at the destination must take the unrolled summand"
    );
}

/// All-singleton SRLG specs: fused ≡ legacy *and* both ≡ the plain
/// independent model (the semantic anchor from PR 4), unbounded and
/// bounded.
#[test]
fn srlg_singletons_match_independent_through_both_pipelines() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 20);
    for k in [None, Some(1)] {
        let base = match k {
            Some(k) => FailureSpec::bounded(pr.clone(), k),
            None => FailureSpec::independent(pr.clone()),
        };
        let spec = base.with_groups(Srlg::singletons(&topo, &pr));
        let m = NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3, spec);
        assert_fused_matches_legacy(&m, &[3]);
        let indep = match k {
            Some(k) => FailureSpec::bounded(pr.clone(), k),
            None => FailureSpec::independent(pr.clone()),
        };
        let mi = NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3, indep);
        let mgr = Manager::new();
        let grouped = m.compile(&mgr).unwrap();
        let plain = mi.compile(&mgr).unwrap();
        assert!(mgr.equiv(grouped, plain), "k = {k:?}");
    }
}

/// Correlated line-card groups (members genuinely fail together).
#[test]
fn srlg_linecards_match_legacy_through_both_pipelines() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 20);
    for k in [None, Some(1)] {
        let base = match k {
            Some(k) => FailureSpec::bounded(Ratio::zero(), k),
            None => FailureSpec::independent(Ratio::zero()),
        };
        let spec = base.with_groups(Srlg::linecards(&topo, &pr));
        let m = NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3_5, spec);
        assert_fused_matches_legacy(&m, &[2]);
    }
}

/// Randomised guarded specs: a small deterministic sweep over failure
/// probability, budget, scheme and singleton-group presence (pseudo-random
/// in spirit, exhaustive in practice — every combination is checked).
#[test]
fn randomised_spec_sweep_matches_legacy() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let prs = [Ratio::new(1, 4), Ratio::new(1, 16)];
    let ks = [None, Some(1)];
    let schemes = [RoutingScheme::Ecmp, RoutingScheme::F10_3_5];
    for pr in &prs {
        for &k in &ks {
            for &scheme in &schemes {
                for grouped in [false, true] {
                    let base = match k {
                        Some(k) => FailureSpec::bounded(pr.clone(), k),
                        None => FailureSpec::independent(pr.clone()),
                    };
                    let spec = if grouped {
                        FailureSpec {
                            pr: Ratio::zero(),
                            ..base
                        }
                        .with_groups(Srlg::linecards(&topo, pr))
                    } else {
                        base
                    };
                    let m = NetworkModel::new(topo.clone(), dst, scheme, spec);
                    let mgr = Manager::new();
                    let legacy = m.compile_legacy(&mgr).unwrap();
                    let fused = m.compile(&mgr).unwrap();
                    assert!(
                        mgr.equiv(fused, legacy),
                        "pr={pr} k={k:?} scheme={scheme:?} grouped={grouped}"
                    );
                }
            }
        }
    }
}

/// The scale the fused pipeline unlocks: fattree(10) compiles in well
/// under a second even in debug builds — this is the CI smoke gate that
/// keeps p ≥ 10 green.
#[test]
fn fattree10_smoke_compile() {
    let topo = fattree(10);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none());
    let mgr = Manager::new();
    let fdd = m.compile(&mgr).unwrap();
    let tele = mgr.compile(&m.teleport()).unwrap();
    assert!(
        mgr.equiv(fdd, tele),
        "failure-free ECMP delivers everything"
    );
}

/// The scale the sparse SCC solve unlocks:
/// fattree(16) *with failures* — thousands of transient loop states —
/// compiles inside a strict wall-clock budget even in debug builds, and
/// the answer is a real probability, not a degenerate one. The budget is
/// generous for CI-grade hardware but would blow up instantly if the
/// dense solve ever crept back in.
#[test]
fn fattree16_smoke_compile_with_failures() {
    let budget = std::time::Duration::from_secs(120);
    let start = std::time::Instant::now();
    let topo = fattree(16);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    );
    let mgr = Manager::new();
    let fdd = m.compile(&mgr).unwrap();
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget,
        "fattree(16) compile took {elapsed:?}, budget {budget:?}"
    );
    let src = m.topo.find("edge1_0").unwrap();
    let pk = Packet::new().with(m.fields.sw, m.topo.sw_value(src));
    let p = mgr.prob_delivery(fdd, &pk);
    assert!(
        p > Ratio::new(99, 100) && p < Ratio::one(),
        "delivery under 1/1000 failures should be near-certain but not 1"
    );
}

/// A fat-tree compile solves its loops: on fattree(4)/(6), ECMP and F10₃,
/// unbounded and bounded at the paper's 1/1000, the loop-solve gauges
/// record at least one solve. On ECMP the port a packet arrived on never
/// changes its next hop, so the loop solve aliases states that differ only
/// in it.
#[test]
fn fattree_compiles_record_loop_solves() {
    let pr = Ratio::new(1, 1000);
    for p in [4, 6] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        for scheme in [RoutingScheme::Ecmp, RoutingScheme::F10_3] {
            for spec in [
                FailureSpec::independent(pr.clone()),
                FailureSpec::bounded(pr.clone(), 1),
            ] {
                let label = format!("fattree({p}), {scheme:?}, k = {:?}", spec.k);
                let m = NetworkModel::new(topo.clone(), dst, scheme, spec);
                let mgr = Manager::new();
                m.compile(&mgr).unwrap();
                let stats = mgr.loop_solve_stats();
                assert!(stats.solves > 0, "{label}: no loop was solved");
                assert!(stats.aliased_states < stats.transient_states, "{label}");
                if scheme == RoutingScheme::Ecmp {
                    assert!(stats.aliased_states > 0, "{label}: no state aliased");
                }
            }
        }
    }
}

/// Sanity check that the §2-style delivery numbers survive the pipeline
/// swap on a real fattree: fused and legacy agree on the actual query
/// output, not just on `equiv`.
fn delivery(topo: Topology, scheme: RoutingScheme) -> (Ratio, Ratio) {
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo,
        dst,
        scheme,
        FailureSpec::independent(Ratio::new(1, 4)),
    );
    let mgr = Manager::new();
    let fused = m.compile(&mgr).unwrap();
    let legacy = m.compile_legacy(&mgr).unwrap();
    let src = m.topo.find("edge1_0").unwrap();
    let pk = Packet::new().with(m.fields.sw, m.topo.sw_value(src));
    (
        mgr.prob_delivery(fused, &pk),
        mgr.prob_delivery(legacy, &pk),
    )
}

#[test]
fn delivery_probabilities_agree_exactly() {
    for scheme in [RoutingScheme::Ecmp, RoutingScheme::F10_3] {
        let (fused, legacy) = delivery(ab_fattree(4), scheme);
        assert_eq!(fused, legacy, "{scheme:?}");
        assert!(fused > Ratio::zero() && fused < Ratio::one());
    }
}

//! Unit tests of the engine, its deltas, queries and gauges.

use super::*;
use crate::stats::{percentiles, LatencyRing, LATENCY_SAMPLE_CAP};
use mcnetkat_fdd::{Budget, CompileError, Manager};
use mcnetkat_net::{FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, NodeId};
use std::time::Instant;

fn fattree_model(pr: Ratio) -> NetworkModel {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::independent(pr))
}

#[test]
fn load_matches_cold_compile() {
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn single_switch_delta_changes_one_switch() {
    let mut engine = Engine::default();
    let model = fattree_model(Ratio::new(1, 100));
    let agg = model.topo.find("core0").unwrap();
    let id = engine.load(model).unwrap();
    let report = engine
        .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
        .unwrap();
    assert_eq!(report.switches_rekeyed, 1);
    assert_eq!(report.rekey, Rekey::Touched);
    assert_eq!(report.switches_changed, 1);
    assert_eq!(report.switches_recompiled, 1);
    assert!(!report.full_rebuild);
    assert!(engine.verify_against_cold(id).unwrap());

    // A destination change is read by every switch: all re-key.
    let switches = engine.model(id).unwrap().topo.switches().len();
    let dst = engine.model(id).unwrap().topo.find("edge1_0").unwrap();
    let report = engine.apply(id, Delta::SetDst(dst)).unwrap();
    assert_eq!(report.switches_rekeyed, switches);
    assert_eq!(report.rekey, Rekey::All);
    assert_eq!(engine.stats().switches_rekeyed, 1 + switches as u64);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn failure_free_flip_touches_every_prone_switch() {
    // Regression: under a budget, `hop_program` draws `up_i <- 1` for
    // a failure-free spec, so an edit that ends failure-freedom
    // changes every prone switch's inputs — not only those owning the
    // edited port, which is all `touched` used to name.
    let topo = mcnetkat_topo::fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::bounded(Ratio::zero(), 1),
    );
    let prone = model
        .topo
        .switches()
        .iter()
        .filter(|&&s| !model.prone_ports(s).is_empty())
        .count();
    let mut engine = Engine::default();
    let id = engine.load(model).unwrap();
    let report = engine
        .apply(id, Delta::SetLinkPr(4, Ratio::new(1, 10)))
        .unwrap();
    assert_eq!(report.touched_upper_bound, prone);
    assert_eq!(report.switches_rekeyed, prone);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn flapping_delta_hits_all_caches() {
    let mut engine = Engine::default();
    let model = fattree_model(Ratio::new(1, 100));
    let agg = model.topo.find("core0").unwrap();
    let id = engine.load(model).unwrap();
    engine
        .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
        .unwrap();
    engine.apply(id, Delta::ClearSwitchScheme(agg)).unwrap();
    // Third flap: both configurations are warm — no switch compiles,
    // and the loop solve comes from the while cache.
    let report = engine
        .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
        .unwrap();
    assert_eq!(report.switches_changed, 1);
    assert_eq!(report.switches_recompiled, 0);
    assert!(report.loop_cache_hit);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn budget_delta_is_a_full_rebuild() {
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    let report = engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
    assert!(report.full_rebuild);
    assert_eq!(report.rekey, Rekey::Structural);
    assert!(engine.stats().full_rebuilds == 1);
    assert!(engine.verify_against_cold(id).unwrap());
}

/// The engine's `EquivTeleport` answer for `id`, under `budget`.
fn equiv_teleport(engine: &Engine, id: ModelId, budget: Budget) -> Result<Answer, EngineError> {
    engine.query(&QueryRequest {
        query: Query::EquivTeleport { model: id },
        budget,
    })
}

/// `Queries::equiv_teleport` on a cold compile of `model`.
fn cold_equiv_teleport(model: &NetworkModel) -> Answer {
    let mgr = Manager::new();
    Answer::Bool(Queries::new(&mgr, model).unwrap().equiv_teleport().unwrap())
}

#[test]
fn cached_teleport_answers_track_deltas_to_the_spec() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let other = topo.find("edge1_0").unwrap();
    let spec = FailureSpec::independent(Ratio::new(1, 10));
    let mut engine = Engine::default();
    let id = engine
        .load(NetworkModel::new(topo, dst, RoutingScheme::F10_3_5, spec))
        .unwrap();
    let mut answers = Vec::new();
    // The budget adds the `fl` local to the spec (and makes the
    // model resilient); the new destination moves the ingresses.
    for delta in [
        None,
        Some(Delta::SetBudget(Some(1))),
        Some(Delta::SetDst(other)),
    ] {
        if let Some(delta) = delta {
            engine.apply(id, delta).unwrap();
            assert!(!engine.teleport_cached(id), "reset on apply");
        }
        let want = cold_equiv_teleport(engine.model(id).unwrap());
        for _ in 0..2 {
            // The first call compiles and caches, the second reads it.
            let got = equiv_teleport(&engine, id, Budget::unlimited()).unwrap();
            assert_eq!(got, want);
            assert!(engine.teleport_cached(id));
        }
        answers.push(want);
    }
    assert_eq!(
        answers,
        [Answer::Bool(false), Answer::Bool(true), Answer::Bool(true)]
    );
}

#[test]
fn a_tripped_teleport_compile_is_not_cached() {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none());
    let want = cold_equiv_teleport(&model);
    let mut engine = Engine::default();
    let id = engine.load(model).unwrap();
    // Past its deadline: rejected before the compile.
    let expired = Budget::unlimited().with_deadline_at(Instant::now());
    assert!(matches!(
        equiv_teleport(&engine, id, expired),
        Err(EngineError::Compile(CompileError::DeadlineExceeded))
    ));
    assert!(!engine.teleport_cached(id));
    // A node ceiling at today's table size trips inside the compile.
    let full = Budget::unlimited().with_max_live_nodes(engine.manager().node_count());
    assert!(matches!(
        equiv_teleport(&engine, id, full),
        Err(EngineError::Compile(CompileError::ResourceExhausted { .. }))
    ));
    assert!(!engine.teleport_cached(id));
    assert_eq!(
        equiv_teleport(&engine, id, Budget::unlimited()).unwrap(),
        want
    );
    assert_eq!(want, Answer::Bool(true));
}

#[test]
fn apply_reports_its_phases() {
    let dir = std::env::temp_dir().join(format!("mcnetkat-phases-{}", std::process::id()));
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let model = fattree_model(Ratio::new(1, 100));
    let agg = model.topo.find("core0").unwrap();
    let id = engine.load(model).unwrap();
    let patch = engine
        .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
        .unwrap();
    let rebuild = engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
    for report in [patch, rebuild] {
        let p = report.phases;
        assert!(p.sum() <= report.elapsed, "{p:?} vs {:?}", report.elapsed);
        assert!(!p.hop_compile.is_zero(), "{p:?}");
        assert!(!p.journal.is_zero(), "{p:?}");
    }
    assert!(rebuild.full_rebuild);
    assert!(!rebuild.phases.tail.is_zero(), "{:?}", rebuild.phases);
    assert!(!rebuild.phases.loop_solve.is_zero(), "{:?}", rebuild.phases);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_delta_under_budget_patches_member_switch_only() {
    // Regression: under a failure budget the budget-coupled branch of
    // `hop_inputs` used to list every group's flag on every switch, so
    // AddGroup/RemoveGroup invalidated the whole network instead of
    // the member-group switches declared by `Delta::touched`.
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
    let (sw, port) = {
        let m = engine.model(id).unwrap();
        let node = m.topo.find("core0").unwrap();
        (m.topo.sw_value(node), m.prone_ports(node)[0])
    };
    let group = Srlg {
        name: "conduit".into(),
        pr: Ratio::new(1, 50),
        members: vec![(sw, port)],
    };
    let report = engine.apply(id, Delta::AddGroup(group)).unwrap();
    assert!(!report.full_rebuild);
    assert_eq!(report.touched_upper_bound, 1);
    assert_eq!(report.switches_changed, 1);
    assert!(engine.verify_against_cold(id).unwrap());
    let report = engine
        .apply(id, Delta::RemoveGroup("conduit".into()))
        .unwrap();
    assert_eq!(report.switches_changed, 1);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn removing_a_group_patches_its_own_switch_only() {
    // Hop inputs name a group's flags, not its index: removing the
    // first of two groups leaves the second group's switch alone.
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
    let cards: Vec<Srlg> = {
        let m = engine.model(id).unwrap();
        ["core0", "core1"]
            .iter()
            .map(|name| {
                let node = m.topo.find(name).unwrap();
                Srlg::down_links_of(&m.topo, node, Ratio::new(1, 50))
            })
            .collect()
    };
    let first = cards[0].name.clone();
    for card in cards {
        engine.apply(id, Delta::AddGroup(card)).unwrap();
    }
    let report = engine.apply(id, Delta::RemoveGroup(first)).unwrap();
    assert!(!report.full_rebuild);
    assert_eq!(report.touched_upper_bound, 1);
    assert_eq!(report.switches_changed, 1);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn set_topology_remaps_overrides_and_dst_by_name() {
    use mcnetkat_topo::{Level, Topology};
    let mut t1 = Topology::new();
    let a1 = t1.add_switch("a", Level::Plain);
    let b1 = t1.add_switch("b", Level::Plain);
    let c1 = t1.add_switch("c", Level::Plain);
    t1.link(a1, b1);
    t1.link(b1, c1);
    let mut model = NetworkModel::new(
        t1,
        a1,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::zero()),
    );
    model.scheme_overrides.insert(c1, RoutingScheme::F10_3);

    // Same names, different insertion order: every NodeId shifts, so
    // a raw-id carry-over would rebind dst and the override.
    let mut t2 = Topology::new();
    let x2 = t2.add_switch("x", Level::Plain);
    let c2 = t2.add_switch("c", Level::Plain);
    let b2 = t2.add_switch("b", Level::Plain);
    let a2 = t2.add_switch("a", Level::Plain);
    t2.link(a2, b2);
    t2.link(b2, c2);
    t2.link(c2, x2);
    let next = Delta::SetTopology(t2).apply_to(&model).unwrap();
    assert_eq!(next.dst, a2);
    assert_eq!(next.scheme_overrides.len(), 1);
    assert_eq!(next.scheme_overrides.get(&c2), Some(&RoutingScheme::F10_3));

    // A topology without the destination's name is rejected.
    let mut t3 = Topology::new();
    t3.add_switch("z", Level::Plain);
    assert!(matches!(
        Delta::SetTopology(t3).apply_to(&model),
        Err(EngineError::InvalidDelta(_))
    ));
}

#[test]
fn trim_hop_cache_drops_unreferenced_entries() {
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    let core = engine.model(id).unwrap().topo.find("core0").unwrap();
    engine
        .apply(id, Delta::SetSwitchScheme(core, RoutingScheme::F10_3))
        .unwrap();
    // The pre-edit core0 diagram is cached but no longer referenced.
    let entries = engine.stats().hop_cache_entries;
    assert_eq!(engine.trim_hop_cache(), 1);
    assert_eq!(engine.stats().hop_cache_entries, entries - 1);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn latency_ring_is_bounded() {
    let mut ring = LatencyRing::new();
    for i in 0..(LATENCY_SAMPLE_CAP as u64 + 10) {
        ring.push(i);
    }
    assert_eq!(ring.samples.len(), LATENCY_SAMPLE_CAP);
    // The newest samples are retained; the oldest were overwritten.
    assert!(ring.samples.contains(&(LATENCY_SAMPLE_CAP as u64 + 9)));
    assert!(!ring.samples.contains(&0));
}

#[test]
fn rejected_delta_leaves_model_intact() {
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    let before = engine.fdd(id).unwrap();
    let err = engine
        .apply(id, Delta::SetUniformPr(Ratio::new(3, 2)))
        .unwrap_err();
    assert!(matches!(err, EngineError::InvalidDelta(_)));
    assert_eq!(engine.fdd(id).unwrap(), before);
    assert!(engine.verify_against_cold(id).unwrap());
}

#[test]
fn queries_answer_concurrently() {
    let mut engine = Engine::default();
    let model = fattree_model(Ratio::new(1, 4));
    let id = engine.load(model).unwrap();
    let srcs: Vec<NodeId> = engine.model(id).unwrap().ingresses();
    let reqs: Vec<QueryRequest> = srcs
        .iter()
        .map(|&src| Query::DeliveryProb { model: id, src }.into())
        .chain([Query::MinDelivery { model: id }.into()])
        .collect();
    let answers = engine.query_batch(&reqs);
    assert_eq!(answers.len(), srcs.len() + 1);
    let min = answers.last().unwrap().as_ref().unwrap();
    for a in &answers[..srcs.len()] {
        assert!(a.as_ref().unwrap().prob().unwrap() >= min.prob().unwrap());
    }
    assert_eq!(engine.stats().queries, reqs.len() as u64);
    assert!(engine.stats().query_p99_ns >= engine.stats().query_p50_ns);
}

#[test]
fn cancelled_budget_rejects_query() {
    let mut engine = Engine::default();
    let id = engine.load(fattree_model(Ratio::zero())).unwrap();
    let src = engine.model(id).unwrap().ingresses()[0];
    let token = mcnetkat_fdd::CancelToken::new();
    token.cancel();
    let req = QueryRequest {
        query: Query::DeliveryProb { model: id, src },
        budget: Budget::unlimited().with_cancel(token),
    };
    let err = engine.query(&req).unwrap_err();
    assert!(matches!(err, EngineError::Compile(CompileError::Cancelled)));
}

#[test]
fn refines_between_two_cached_models() {
    let mut engine = Engine::default();
    let reliable = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    let lossy = engine.load(fattree_model(Ratio::new(1, 4))).unwrap();
    let answers = engine.query_batch(&[
        Query::Refines {
            left: reliable,
            right: lossy,
        }
        .into(),
        Query::Refines {
            left: lossy,
            right: reliable,
        }
        .into(),
    ]);
    // Delivery is monotone in link reliability: the reliable network
    // refines the lossy one from every ingress, strictly.
    assert_eq!(answers[0].as_ref().unwrap().truth(), Some(true));
    assert_eq!(answers[1].as_ref().unwrap().truth(), Some(false));
}

#[test]
fn one_request_batch_runs_inline_through_the_gate() {
    let mut engine = Engine::new(EngineConfig {
        max_concurrent_queries: Some(1),
        ..EngineConfig::default()
    });
    let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
    let req: QueryRequest = Query::MinDelivery { model: id }.into();
    let batch = engine.query_batch(std::slice::from_ref(&req));
    assert_eq!(batch.len(), 1);
    assert_eq!(
        batch[0].as_ref().unwrap().prob(),
        engine.query(&req).unwrap().prob()
    );
    // With the only slot taken, the inline batch is shed like a query.
    let _held = engine.admit().unwrap();
    let shed = engine.query_batch(&[req]);
    assert!(matches!(
        shed[..],
        [Err(EngineError::Overloaded {
            active: 1,
            limit: 1
        })]
    ));
}

#[test]
fn unknown_model_is_reported() {
    let engine = Engine::default();
    let ghost = ModelId(99);
    assert!(matches!(
        engine.model(ghost).unwrap_err(),
        EngineError::UnknownModel(id) if id == ghost
    ));
    let res = engine.query(&Query::MinDelivery { model: ghost }.into());
    assert!(matches!(
        res.unwrap_err(),
        EngineError::UnknownModel(id) if id == ghost
    ));
}

#[test]
fn second_identical_model_is_all_cache_hits() {
    let mut engine = Engine::default();
    let model = fattree_model(Ratio::new(1, 100));
    let switches = model.topo.switches().len() as u64;
    engine.load(model.clone()).unwrap();
    let misses_before = engine.stats().hop_cache_misses;
    assert_eq!(misses_before, switches);
    engine.load(model).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.hop_cache_misses, misses_before);
    assert_eq!(stats.hop_cache_hits, switches);
}

#[test]
fn percentile_ranks() {
    assert_eq!(percentiles(&[]), (0, 0));
    assert_eq!(percentiles(&[7]), (7, 7));
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(percentiles(&v), (50, 99));
}

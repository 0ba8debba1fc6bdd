//! Differential property tests for the incremental engine: for random
//! delta sequences — switch program edits, link-probability changes,
//! SRLG membership churn, budget/hop-cap/destination flips — the engine's
//! patched diagram must equal a cold compile of the current model after
//! *every* prefix, and the patch accounting must respect the delta's
//! declared invalidation bound. Debug builds also cross-check, on every
//! apply, that the switches outside the touched set kept their inputs;
//! run under `--release`, the suite checks the code the benchmark
//! measures.

use mcnetkat_net::{down_ports, FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_serve::{Delta, Engine, EngineError, Query};
use mcnetkat_topo::ab_fattree;
use proptest::collection::vec;
use proptest::prelude::*;

const SCHEMES: [RoutingScheme; 3] = [
    RoutingScheme::Ecmp,
    RoutingScheme::F10_3,
    RoutingScheme::F10_3_5,
];

fn pr_pool(i: u8) -> Ratio {
    match i % 4 {
        0 => Ratio::zero(),
        1 => Ratio::new(1, 100),
        2 => Ratio::new(1, 10),
        _ => Ratio::new(1, 4),
    }
}

/// An abstract delta: indices into pools, concretized against the
/// *current* model so sequences stay mostly valid as the model evolves.
/// Some combinations are deliberately invalid (removing an absent group,
/// adding an overlapping one) — those exercise the rejection path, which
/// must leave the engine untouched.
#[derive(Clone, Debug)]
enum Desc {
    Scheme(u8),
    SwitchScheme(usize, u8),
    ClearSwitchScheme(usize),
    UniformPr(u8),
    LinkPr(usize, u8),
    ClearLinkPr(usize),
    AddGroup(usize, u8),
    RemoveGroup(usize),
    GroupPr(usize, u8),
    GroupMembers(usize, usize),
    HopCap(u8),
    Budget(u8),
    Dst(usize),
}

fn arb_desc() -> impl Strategy<Value = Desc> {
    prop_oneof![
        (0..3u8).prop_map(Desc::Scheme),
        (0..64usize, 0..3u8).prop_map(|(s, c)| Desc::SwitchScheme(s, c)),
        (0..64usize).prop_map(Desc::ClearSwitchScheme),
        (0..4u8).prop_map(Desc::UniformPr),
        (0..8usize, 0..4u8).prop_map(|(p, r)| Desc::LinkPr(p, r)),
        (0..8usize).prop_map(Desc::ClearLinkPr),
        (0..64usize, 1..4u8).prop_map(|(s, r)| Desc::AddGroup(s, r)),
        (0..4usize).prop_map(Desc::RemoveGroup),
        (0..4usize, 0..4u8).prop_map(|(g, r)| Desc::GroupPr(g, r)),
        (0..4usize, 0..64usize).prop_map(|(g, s)| Desc::GroupMembers(g, s)),
        (0..3u8).prop_map(Desc::HopCap),
        (0..2u8).prop_map(Desc::Budget),
        (0..64usize).prop_map(Desc::Dst),
    ]
}

/// Maps an abstract descriptor onto the model's actual switches, prone
/// ports, and current group list.
fn concretize(d: &Desc, model: &NetworkModel) -> Delta {
    let switches = model.topo.switches();
    let pick_switch = |i: usize| switches[i % switches.len()];
    let prone: Vec<u32> = {
        let mut ports: Vec<u32> = switches
            .iter()
            .flat_map(|&s| down_ports(&model.topo, s))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    };
    let pick_port = |i: usize| prone[i % prone.len()];
    // Index past the current group list on purpose sometimes: an absent
    // name must be rejected cleanly.
    let pick_group_name = |i: usize| -> String {
        if model.failure.groups.is_empty() || i >= model.failure.groups.len() {
            "absent".to_string()
        } else {
            model.failure.groups[i].name.clone()
        }
    };
    match d {
        Desc::Scheme(c) => Delta::SetScheme(SCHEMES[*c as usize % SCHEMES.len()]),
        Desc::SwitchScheme(s, c) => {
            Delta::SetSwitchScheme(pick_switch(*s), SCHEMES[*c as usize % SCHEMES.len()])
        }
        Desc::ClearSwitchScheme(s) => Delta::ClearSwitchScheme(pick_switch(*s)),
        Desc::UniformPr(r) => Delta::SetUniformPr(pr_pool(*r)),
        Desc::LinkPr(p, r) => Delta::SetLinkPr(pick_port(*p), pr_pool(*r)),
        Desc::ClearLinkPr(p) => Delta::ClearLinkPr(pick_port(*p)),
        Desc::AddGroup(s, r) => {
            let node = pick_switch(*s);
            let mut g = Srlg::down_links_of(&model.topo, node, pr_pool(*r));
            g.name = format!("grp_{}", model.topo.info(node).name);
            Delta::AddGroup(g)
        }
        Desc::RemoveGroup(g) => Delta::RemoveGroup(pick_group_name(*g)),
        Desc::GroupPr(g, r) => Delta::SetGroupPr(pick_group_name(*g), pr_pool(*r)),
        Desc::GroupMembers(g, s) => {
            let node = pick_switch(*s);
            let sw = model.topo.sw_value(node);
            let members: Vec<(u32, u32)> = down_ports(&model.topo, node)
                .into_iter()
                .map(|p| (sw, p))
                .collect();
            Delta::SetGroupMembers(pick_group_name(*g), members)
        }
        Desc::HopCap(c) => Delta::SetHopCap([None, Some(8), Some(16)][*c as usize % 3]),
        Desc::Budget(b) => Delta::SetBudget([None, Some(1)][*b as usize % 2]),
        Desc::Dst(s) => Delta::SetDst(pick_switch(*s)),
    }
}

/// The factored base: independent draws, no budget.
fn base_model() -> NetworkModel {
    base_with(FailureSpec::independent(Ratio::new(1, 100)))
}

/// The budget-coupled, failure-free base: any nonzero probability edit
/// flips `FailureSpec::is_failure_free`, which every prone switch's hop
/// program reads.
fn failure_free_budget_model() -> NetworkModel {
    base_with(FailureSpec::bounded(Ratio::zero(), 1))
}

fn base_with(failure: FailureSpec) -> NetworkModel {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(topo, dst, RoutingScheme::Ecmp, failure)
}

/// The differential invariant: after every delta-sequence prefix the
/// engine's patched diagram is `equiv` to a from-scratch compile of the
/// current model, and on every successful patch the accounting respects
/// the bound `switches_recompiled ≤ switches_changed ≤ switches_rekeyed
/// ≤ |touched(delta)|` (recompile count may only exceed the changed set
/// when a structural delta dropped the whole cache).
fn check_sequence(base: NetworkModel, descs: &[Desc]) -> Result<(), TestCaseError> {
    let mut engine = Engine::default();
    let id = engine.load(base).unwrap();
    prop_assert!(engine.verify_against_cold(id).unwrap());
    for d in descs {
        let delta = concretize(d, engine.model(id).unwrap());
        match engine.apply(id, delta) {
            Ok(report) => {
                prop_assert!(
                    report.switches_changed <= report.switches_rekeyed
                        && report.switches_rekeyed <= report.touched_upper_bound,
                    "{d:?}: changed {} / rekeyed {} / touched bound {}",
                    report.switches_changed,
                    report.switches_rekeyed,
                    report.touched_upper_bound
                );
                if !report.full_rebuild {
                    prop_assert!(
                        report.switches_recompiled <= report.switches_changed,
                        "{d:?}: recompiled {} > changed {}",
                        report.switches_recompiled,
                        report.switches_changed
                    );
                }
            }
            // Deliberately-invalid combinations must reject cleanly …
            Err(EngineError::InvalidDelta(_)) => {}
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected error: {e}"))),
        }
        // … and either way the live diagram matches a cold compile.
        prop_assert!(engine.verify_against_cold(id).unwrap());
    }
    // The model stays queryable after the whole sequence.
    let min = engine
        .query(&Query::MinDelivery { model: id }.into())
        .unwrap();
    prop_assert!(min.prob().is_some());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn patched_equals_cold_after_every_prefix(descs in vec(arb_desc(), 1..7)) {
        check_sequence(base_model(), &descs)?;
    }

    #[test]
    fn patched_equals_cold_from_a_failure_free_budget(descs in vec(arb_desc(), 1..7)) {
        check_sequence(failure_free_budget_model(), &descs)?;
    }
}

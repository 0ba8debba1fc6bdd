//! The `Delta::touched` contract, checked exhaustively on a table and in
//! every build profile: for each delta kind under each failure-encoding
//! mode, every switch outside the declared touched set has identical
//! `HopInputs` before and after the delta. `Engine::apply` reuses those
//! switches' diagrams without re-keying them, so a violation here is a
//! wrong patched answer, not just wrong accounting. Plain `assert!`s:
//! unlike the engine's debug cross-check, this runs under `--release`.

use mcnetkat_net::fused::hop_inputs;
use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_serve::{Delta, Touched};
use mcnetkat_topo::{fattree, Level, NodeId, ShortestPaths};

/// A failure-prone port shared by every core and aggregation switch.
const PORT: u32 = 1;
/// A port only the core switches have as failure-prone.
const CORE_PORT: u32 = 4;

fn at(model: &NetworkModel, level: Level) -> Vec<NodeId> {
    let topo = &model.topo;
    topo.switches()
        .iter()
        .copied()
        .filter(|&s| topo.info(s).level == level)
        .collect()
}

/// fattree(4) with one scheme override, uniform and [`PORT`]-override
/// link probability `pr`, and line-card groups on the core switches: the
/// first at `groups[0]`, the rest at `groups[1]`.
fn model(pr: Ratio, k: Option<u32>, groups: [Ratio; 2]) -> NetworkModel {
    let topo = fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let agg = topo.find("agg1_0").unwrap();
    let cards: Vec<Srlg> = topo
        .switches()
        .iter()
        .filter(|&&s| topo.info(s).level == Level::Core)
        .enumerate()
        .map(|(i, &s)| Srlg::down_links_of(&topo, s, groups[usize::from(i > 0)].clone()))
        .collect();
    let spec = FailureSpec {
        pr: pr.clone(),
        k,
        link_pr: [(PORT, pr)].into_iter().collect(),
        groups: cards,
    };
    NetworkModel::new(topo, dst, RoutingScheme::Ecmp, spec)
        .with_switch_scheme(agg, RoutingScheme::F10_3)
}

/// The failure-encoding modes `hop_inputs` distinguishes, by name.
fn configs() -> Vec<(&'static str, NetworkModel)> {
    let (z, p) = (Ratio::zero(), Ratio::new(1, 50));
    vec![
        (
            "factored, line-card SRLGs",
            model(p.clone(), None, [p.clone(), p.clone()]),
        ),
        (
            "budget-coupled",
            model(p.clone(), Some(1), [p.clone(), p.clone()]),
        ),
        (
            "budget, failure-free",
            model(z.clone(), Some(1), [z.clone(), z.clone()]),
        ),
        (
            "factored, failure-free",
            model(z.clone(), None, [z.clone(), z.clone()]),
        ),
        (
            "budget, one failing group",
            model(z.clone(), Some(1), [p, z]),
        ),
    ]
}

/// One delta of every kind, most in a zero and a nonzero flavour so that
/// each config sees edits that flip `is_failure_free` and edits that
/// keep it.
fn deltas(m: &NetworkModel) -> Vec<Delta> {
    let r = Ratio::new;
    let agg = at(m, Level::Agg)[0];
    let overridden = *m.scheme_overrides.keys().next().unwrap();
    let first = m.failure.groups[0].clone();
    let mut out = vec![
        Delta::SetScheme(RoutingScheme::F10_3),
        Delta::SetSwitchScheme(agg, RoutingScheme::F10_3_5),
        Delta::ClearSwitchScheme(overridden),
        Delta::SetBudget(None),
        Delta::SetBudget(Some(2)),
        Delta::ClearLinkPr(PORT),
        Delta::RemoveGroup(first.name.clone()),
        Delta::SetGroupMembers(first.name.clone(), first.members[..2].to_vec()),
        Delta::SetHopCap(Some(8)),
        Delta::SetTopology(m.topo.clone()),
        Delta::SetDst(at(m, Level::Edge)[3]),
    ];
    for pr in [Ratio::zero(), r(1, 10)] {
        let mut card = Srlg::down_links_of(&m.topo, agg, pr.clone());
        card.name = "agg line card".into();
        out.extend([
            Delta::SetUniformPr(pr.clone()),
            Delta::SetLinkPr(PORT, pr.clone()),
            Delta::SetLinkPr(CORE_PORT, pr.clone()),
            Delta::AddGroup(card),
            Delta::SetGroupPr(first.name.clone(), pr),
        ]);
    }
    out
}

#[test]
fn switches_outside_touched_keep_their_hop_inputs() {
    for (config, before) in configs() {
        let sp_before = ShortestPaths::towards(&before.topo, before.dst);
        for delta in deltas(&before) {
            let after = delta
                .apply_to(&before)
                .unwrap_or_else(|e| panic!("{config}: {delta:?} rejected: {e}"));
            let Touched::Set(touched) = delta.touched(&before) else {
                continue; // every switch is re-keyed
            };
            let sp_after = ShortestPaths::towards(&after.topo, after.dst);
            for &s in before.topo.switches() {
                if touched.contains(&s) {
                    continue;
                }
                assert!(
                    hop_inputs(&before, s, &sp_before) == hop_inputs(&after, s, &sp_after),
                    "{config}: {delta:?} changed the inputs of {}, outside its touched set",
                    before.topo.info(s).name
                );
            }
        }
    }
}

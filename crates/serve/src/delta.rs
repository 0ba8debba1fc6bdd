//! Model deltas: the edits [`Engine::apply`](crate::Engine::apply)
//! patches a loaded model with, and the switches each may invalidate.

use crate::EngineError;
use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{NodeId, Topology};
use std::collections::BTreeSet;

/// A model delta: an edit to a loaded model's configuration. Applied with
/// [`Engine::apply`](crate::Engine::apply), which re-keys only the
/// switches the delta touches ([`Delta::touched`]) and recompiles those
/// whose [`HopInputs`](mcnetkat_net::fused::HopInputs) changed, unless the
/// delta [`Delta::is_structural`].
#[derive(Clone, Debug)]
pub enum Delta {
    /// Replace the model-wide default routing scheme.
    SetScheme(RoutingScheme),
    /// Override one switch's routing scheme (a switch program edit).
    SetSwitchScheme(NodeId, RoutingScheme),
    /// Drop one switch's scheme override (back to the model default).
    ClearSwitchScheme(NodeId),
    /// Replace the uniform per-link failure probability.
    SetUniformPr(Ratio),
    /// Override one port's failure probability (heterogeneous links).
    SetLinkPr(u32, Ratio),
    /// Drop one port's probability override.
    ClearLinkPr(u32),
    /// Replace the failure budget `k` — **structural**: every switch that
    /// draws keys on `k`, so the whole per-switch cache is dropped.
    SetBudget(Option<u32>),
    /// Append one shared-risk link group.
    AddGroup(Srlg),
    /// Remove the named shared-risk group.
    RemoveGroup(String),
    /// Replace the named group's failure probability.
    SetGroupPr(String, Ratio),
    /// Replace the named group's member set (SRLG membership churn).
    SetGroupMembers(String, Vec<(u32, u32)>),
    /// Enable/disable/retarget the hop-counter cap.
    SetHopCap(Option<u32>),
    /// Replace the topology wholesale (link/switch add/remove) —
    /// **structural**: shortest paths shift globally.
    SetTopology(Topology),
    /// Retarget the destination switch — every route changes.
    SetDst(NodeId),
}

/// The switches a [`Delta`] may invalidate — the only ones
/// [`Engine::apply`](crate::Engine::apply) re-keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Touched {
    /// Potentially every switch.
    All,
    /// At most these switches.
    Set(BTreeSet<NodeId>),
}

impl Touched {
    /// Whether `s` is inside the bound.
    pub fn contains(&self, s: NodeId) -> bool {
        match self {
            Touched::All => true,
            Touched::Set(set) => set.contains(&s),
        }
    }

    /// The bound's size, given the model's switch count.
    pub fn len(&self, switches: usize) -> usize {
        match self {
            Touched::All => switches,
            Touched::Set(set) => set.len(),
        }
    }
}

impl Delta {
    /// Whether this delta touches shared compile structure (the failure
    /// budget every drawing switch keys on, the topology's global shortest
    /// paths) and
    /// therefore drops the per-switch cache for a full rebuild instead of
    /// patching.
    pub fn is_structural(&self) -> bool {
        matches!(self, Delta::SetBudget(_) | Delta::SetTopology(_))
    }

    /// The switches this delta may invalidate, computed *before*
    /// application. This is a correctness contract, not just accounting:
    /// [`Engine::apply`](crate::Engine::apply) recomputes
    /// [`HopInputs`](mcnetkat_net::fused::HopInputs) only for these
    /// switches and reuses every other switch's previous inputs and
    /// diagram, so a switch whose inputs change must lie inside this set.
    /// An edit to a model-wide property that `hop_inputs` reads (whether
    /// the failure spec is failure-free, the budget `k`, the destination,
    /// the hop cap, the topology) must therefore widen the set to every
    /// switch that reads it.
    pub fn touched(&self, model: &NetworkModel) -> Touched {
        let prone_switches = || {
            Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|&s| !model.prone_ports(s).is_empty())
                    .collect(),
            )
        };
        let group_switch = |members: &[(u32, u32)]| -> BTreeSet<NodeId> {
            members
                .iter()
                .filter_map(|&(sw, _)| model.topo.node_of_sw(sw))
                .collect()
        };
        match self {
            Delta::SetHopCap(_)
            | Delta::SetBudget(_)
            | Delta::SetTopology(_)
            | Delta::SetDst(_) => Touched::All,
            Delta::SetScheme(_) => Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|s| !model.scheme_overrides.contains_key(s))
                    .collect(),
            ),
            Delta::SetSwitchScheme(s, _) | Delta::ClearSwitchScheme(s) => {
                Touched::Set([*s].into_iter().collect())
            }
            // Every prone switch reads `is_failure_free`: its events'
            // probabilities and its budget drop out when it holds, and each
            // link step tests its `up_i` flag only when it does not.
            Delta::SetUniformPr(_) => prone_switches(),
            _ if self.flips_failure_free(&model.failure) => prone_switches(),
            Delta::SetLinkPr(port, _) | Delta::ClearLinkPr(port) => Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|&s| model.prone_ports(s).contains(port))
                    .collect(),
            ),
            Delta::AddGroup(g) => Touched::Set(group_switch(&g.members)),
            // Hop inputs name a group by its flags, not its index, so the
            // groups after a removed one keep their keys.
            Delta::RemoveGroup(name) | Delta::SetGroupPr(name, _) => Touched::Set(
                model
                    .failure
                    .groups
                    .iter()
                    .find(|g| &g.name == name)
                    .map(|g| group_switch(&g.members))
                    .unwrap_or_default(),
            ),
            Delta::SetGroupMembers(name, new_members) => {
                let mut touched = group_switch(new_members);
                if let Some(g) = model.failure.groups.iter().find(|g| &g.name == name) {
                    touched.extend(group_switch(&g.members));
                }
                Touched::Set(touched)
            }
        }
    }

    /// Whether applying this delta to `failure` flips
    /// [`FailureSpec::is_failure_free`].
    fn flips_failure_free(&self, failure: &FailureSpec) -> bool {
        let mut next = failure.clone();
        self.edit_failure(&mut next).is_ok() && next.is_failure_free() != failure.is_failure_free()
    }

    /// Applies this delta's failure-spec edit to `failure`; a delta that
    /// edits something else leaves it as it is.
    fn edit_failure(&self, failure: &mut FailureSpec) -> Result<(), EngineError> {
        let find_group = |failure: &FailureSpec, name: &str| -> Result<usize, EngineError> {
            failure
                .groups
                .iter()
                .position(|g| g.name == name)
                .ok_or_else(|| EngineError::InvalidDelta(format!("no group named {name:?}")))
        };
        match self {
            Delta::SetUniformPr(pr) => failure.pr = pr.clone(),
            Delta::SetLinkPr(port, pr) => {
                failure.link_pr.insert(*port, pr.clone());
            }
            Delta::ClearLinkPr(port) => {
                failure.link_pr.remove(port);
            }
            Delta::SetBudget(k) => failure.k = *k,
            Delta::AddGroup(g) => failure.groups.push(g.clone()),
            Delta::RemoveGroup(name) => {
                let i = find_group(failure, name)?;
                failure.groups.remove(i);
            }
            Delta::SetGroupPr(name, pr) => {
                let i = find_group(failure, name)?;
                failure.groups[i].pr = pr.clone();
            }
            Delta::SetGroupMembers(name, members) => {
                let i = find_group(failure, name)?;
                failure.groups[i].members = members.clone();
            }
            Delta::SetScheme(_)
            | Delta::SetSwitchScheme(..)
            | Delta::ClearSwitchScheme(_)
            | Delta::SetHopCap(_)
            | Delta::SetTopology(_)
            | Delta::SetDst(_) => {}
        }
        Ok(())
    }

    /// Builds the updated model this delta describes, without compiling
    /// anything. Field handles are re-derived through the process-wide
    /// interner, so they stay identical for identical names — cached
    /// diagrams remain valid across deltas.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidDelta`] when the edit is inconsistent (bad
    /// probability, unknown group, spec/topology mismatch); the input
    /// model is untouched.
    pub fn apply_to(&self, model: &NetworkModel) -> Result<NetworkModel, EngineError> {
        let mut topo = model.topo.clone();
        let mut dst = model.dst;
        let mut scheme = model.scheme;
        let mut overrides = model.scheme_overrides.clone();
        let mut failure = model.failure.clone();
        let mut hop_cap = model.hop_cap;
        self.edit_failure(&mut failure)?;
        match self {
            Delta::SetScheme(s) => scheme = *s,
            Delta::SetSwitchScheme(node, s) => {
                if !topo.switches().contains(node) {
                    return Err(EngineError::InvalidDelta(format!(
                        "no switch with id {node:?}"
                    )));
                }
                overrides.insert(*node, *s);
            }
            Delta::ClearSwitchScheme(node) => {
                overrides.remove(node);
            }
            Delta::SetHopCap(cap) => hop_cap = *cap,
            Delta::SetTopology(t) => {
                // `NodeId` is an index into a topology's node table, so a
                // raw id carried across a swap can silently rebind to a
                // different switch. Remap the destination and the scheme
                // overrides by node *name* into the replacement topology;
                // overrides whose switch no longer exists are dropped.
                let next_topo = t.clone();
                let dst_name = &topo.info(dst).name;
                dst = next_topo
                    .find(dst_name)
                    .filter(|n| next_topo.switches().contains(n))
                    .ok_or_else(|| {
                        EngineError::InvalidDelta(format!(
                            "new topology has no switch named {dst_name:?} \
                             (the current destination)"
                        ))
                    })?;
                overrides = overrides
                    .iter()
                    .filter_map(|(s, sch)| {
                        next_topo
                            .find(&topo.info(*s).name)
                            .filter(|n| next_topo.switches().contains(n))
                            .map(|n| (n, *sch))
                    })
                    .collect();
                topo = next_topo;
            }
            Delta::SetDst(node) => {
                if !topo.switches().contains(node) {
                    return Err(EngineError::InvalidDelta(format!(
                        "no switch with id {node:?}"
                    )));
                }
                dst = *node;
            }
            Delta::SetUniformPr(_)
            | Delta::SetLinkPr(..)
            | Delta::ClearLinkPr(_)
            | Delta::SetBudget(_)
            | Delta::AddGroup(_)
            | Delta::RemoveGroup(_)
            | Delta::SetGroupPr(..)
            | Delta::SetGroupMembers(..) => {} // edited by `edit_failure`
        }
        let mut next =
            NetworkModel::try_new(topo, dst, scheme, failure).map_err(EngineError::InvalidDelta)?;
        next.scheme_overrides = overrides;
        next.hop_cap = hop_cap;
        Ok(next)
    }
}

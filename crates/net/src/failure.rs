//! Failure models (§2, §7): the paper's `f_k` family — links fail
//! independently with probability `pr`, optionally bounded to at most `k`
//! simultaneous failures — generalised to [`FailureSpec`], which adds
//! per-link heterogeneous probabilities and correlated shared-risk link
//! groups (SRLGs).
//!
//! The bounded variants are encoded with a failure-budget counter field
//! `fl`: a draw can only come up "down" while fewer than `k` budget units
//! have been charged, so every randomness resolution exhibits at most `k`
//! failure *events* — exactly the support condition the `k`-resilience
//! table (Figure 11b) quantifies over. An SRLG charges the budget **once
//! per group**, no matter how many member links it takes down: a line-card
//! failure is one event.
//!
//! # The SRLG encoding
//!
//! Each group `j` owns a scratch health field `grp_j` (see
//! [`NetFields::grp`]). The per-hop program draws `grp_j` once — a single
//! Bernoulli guarded by the budget — and derives every member link's
//! `up_i` from it (`if grp_j=1 then up_i<-1 else up_i<-0`). Group fields
//! are erased at the end of every hop together with the `up_i` flags (see
//! [`FailureSpec::erase_program`]), so loop states never carry them, and
//! the legacy whole-body compile projects them out entirely with
//! [`mcnetkat_fdd::Manager::forget`] — a spec whose groups are all
//! singletons therefore compiles to a diagram *equivalent* to the plain
//! independent model's.
//!
//! The fused pipeline never compiles that program: it takes a switch's
//! draws as [`FailureEvent`]s (`FailureSpec::hop_events`) — a group's
//! members there are one event — and sums them out of the route diagram
//! (see `crate::fused`), so no group field ever exists in it.

use crate::scheme::down_ports;
use crate::NetFields;
use mcnetkat_core::{Field, Pred, Prog};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{NodeId, Topology};
use std::collections::{BTreeMap, BTreeSet};

/// A shared-risk link group: a named set of `(switch, port)` links that
/// fail *together* — one Bernoulli draw per hop takes every member down.
///
/// Members are `(sw, port)` pairs where `sw` is the ProbNetKAT switch
/// value ([`Topology::sw_value`]) and `port` the switch-local port number
/// of the failure-prone (downward) end of the link. All members of a
/// group must live on **one** switch (enforced by
/// [`FailureSpec::validate`]): failures are memoryless and drawn per
/// switch-hop, so links on different switches are resolved at different
/// hops and could neither fail together nor charge the budget once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Srlg {
    /// Human-readable group name (conduit, line card, power domain, …).
    pub name: String,
    /// Probability that the whole group fails at a hop.
    pub pr: Ratio,
    /// Member links as `(switch value, port)` pairs.
    pub members: Vec<(u32, u32)>,
}

impl Srlg {
    /// Builds a group from explicit `(switch value, port)` members.
    pub fn new(name: impl Into<String>, pr: Ratio, members: Vec<(u32, u32)>) -> Srlg {
        Srlg {
            name: name.into(),
            pr,
            members,
        }
    }

    /// The "line card" group of a switch: all of its failure-prone
    /// (downward) links, which share the switch's down-facing hardware.
    pub fn down_links_of(topo: &Topology, s: NodeId, pr: Ratio) -> Srlg {
        let sw = topo.sw_value(s);
        Srlg {
            name: format!("linecard:{}", topo.info(s).name),
            pr,
            members: down_ports(topo, s).into_iter().map(|p| (sw, p)).collect(),
        }
    }

    /// One line-card group ([`Srlg::down_links_of`]) per switch that has
    /// failure-prone links — the standard correlated scenario used by the
    /// `fig13_srlg` experiment and the SRLG benchmark.
    pub fn linecards(topo: &Topology, pr: &Ratio) -> Vec<Srlg> {
        topo.switches()
            .iter()
            .filter(|&&s| !down_ports(topo, s).is_empty())
            .map(|&s| Srlg::down_links_of(topo, s, pr.clone()))
            .collect()
    }

    /// One singleton group per failure-prone link of the topology — the
    /// degenerate spec that must be equivalent to independent failures.
    pub fn singletons(topo: &Topology, pr: &Ratio) -> Vec<Srlg> {
        let mut out = Vec::new();
        for &s in topo.switches() {
            let sw = topo.sw_value(s);
            for p in down_ports(topo, s) {
                out.push(Srlg {
                    name: format!("{}:{p}", topo.info(s).name),
                    pr: pr.clone(),
                    members: vec![(sw, p)],
                });
            }
        }
        out
    }

    /// The member ports this group contributes on switch `sw`, filtered to
    /// the given candidate ports (in candidate order).
    ///
    /// O(1) for a group that lives on another switch: a validated group
    /// ([`FailureSpec::validate`]) has every member on one switch, so its
    /// first member names that switch.
    pub(crate) fn ports_on(&self, sw: u32, ports: &[u32]) -> Vec<u32> {
        match self.members.first() {
            Some(&(home, _)) if home == sw => ports
                .iter()
                .copied()
                .filter(|&p| self.members.contains(&(sw, p)))
                .collect(),
            _ => Vec::new(),
        }
    }
}

/// One failure event of a switch-hop: with probability `pr` it takes down
/// every health flag in `ups` at once. An ungrouped port's independent
/// draw is an event with one flag; a shared-risk group's members on the
/// switch are one event, charging a failure budget once.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FailureEvent {
    /// Probability that the event happens at a hop.
    pub pr: Ratio,
    /// The `up` flags it takes down.
    pub ups: Vec<Field>,
}

/// A composite failure specification: the generalisation of the paper's
/// `f_k` that [`crate::NetworkModel`] runs at every hop.
///
/// Three sources of randomness compose per hop, all sharing one failure
/// budget `k`:
///
/// 1. **Uniform independent draws** (`pr`) for every failure-prone port —
///    the original `f_k`.
/// 2. **Per-link overrides** (`link_pr`): ports listed here draw with
///    their own probability instead of `pr` (heterogeneous link quality).
///    Keys are port numbers; an override applies to that port on every
///    switch where it is failure-prone.
/// 3. **Shared-risk link groups** (`groups`): each [`Srlg`] is drawn
///    *once* per hop and takes all member links down together, charging
///    the budget once. Ports covered by a group do not also draw
///    independently.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FailureSpec {
    /// Default per-link failure probability.
    pub pr: Ratio,
    /// Maximum number of failure events (`None` = unbounded).
    pub k: Option<u32>,
    /// Per-port probability overrides (port number → probability).
    pub link_pr: BTreeMap<u32, Ratio>,
    /// Shared-risk link groups; group `j` (0-based index) uses the health
    /// field [`NetFields::grp`]`(j + 1)`.
    pub groups: Vec<Srlg>,
}

impl FailureSpec {
    /// The failure-free spec `f_0` (every link up).
    pub fn none() -> FailureSpec {
        FailureSpec::bounded(Ratio::zero(), 0)
    }

    /// Links fail independently with probability `pr`, no bound (`f_∞`).
    pub fn independent(pr: Ratio) -> FailureSpec {
        FailureSpec {
            pr,
            k: None,
            link_pr: BTreeMap::new(),
            groups: Vec::new(),
        }
    }

    /// At most `k` failure events, each drawn with probability `pr` (`f_k`).
    pub fn bounded(pr: Ratio, k: u32) -> FailureSpec {
        FailureSpec {
            k: Some(k),
            ..FailureSpec::independent(pr)
        }
    }

    /// Overrides the failure probability of one port.
    pub fn with_link_pr(mut self, port: u32, pr: Ratio) -> FailureSpec {
        self.link_pr.insert(port, pr);
        self
    }

    /// Adds one shared-risk group.
    pub fn with_group(mut self, group: Srlg) -> FailureSpec {
        self.groups.push(group);
        self
    }

    /// Adds shared-risk groups in order.
    pub fn with_groups(mut self, groups: impl IntoIterator<Item = Srlg>) -> FailureSpec {
        self.groups.extend(groups);
        self
    }

    /// The failure probability of `port` for independent draws.
    pub fn port_pr(&self, port: u32) -> &Ratio {
        self.link_pr.get(&port).unwrap_or(&self.pr)
    }

    /// Returns `true` if no link can ever fail.
    pub fn is_failure_free(&self) -> bool {
        self.k == Some(0)
            || (self.pr.is_zero()
                && self.link_pr.values().all(Ratio::is_zero)
                && self.groups.iter().all(|g| g.pr.is_zero()))
    }

    /// Checks the spec against a topology: every probability must be a
    /// probability, every `link_pr` key must be a failure-prone port of at
    /// least one switch (a typo would otherwise silently fall back to the
    /// uniform `pr`), every group member must name an existing switch and
    /// one of its failure-prone (downward) ports, no link may belong to
    /// two groups, and a group must not span switches — draws are per
    /// switch-hop, so cross-switch members would neither fail together
    /// nor charge the budget once.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, topo: &Topology) -> Result<(), String> {
        if !self.pr.is_probability() {
            return Err(format!("pr {} is not a probability", self.pr));
        }
        let prone_union: BTreeSet<u32> = topo
            .switches()
            .iter()
            .flat_map(|&s| down_ports(topo, s))
            .collect();
        for (port, pr) in &self.link_pr {
            if !pr.is_probability() {
                return Err(format!("link_pr[{port}] = {pr} is not a probability"));
            }
            if !prone_union.contains(port) {
                return Err(format!(
                    "link_pr[{port}]: no switch has failure-prone port {port}"
                ));
            }
        }
        let mut seen = BTreeSet::new();
        for g in &self.groups {
            if !g.pr.is_probability() {
                return Err(format!(
                    "group {}: pr {} is not a probability",
                    g.name, g.pr
                ));
            }
            if let Some(&(first_sw, _)) = g.members.first() {
                if g.members.iter().any(|&(sw, _)| sw != first_sw) {
                    return Err(format!(
                        "group {} spans multiple switches: draws are per \
                         switch-hop, so its members would not fail together",
                        g.name
                    ));
                }
            }
            for &(sw, port) in &g.members {
                let node = topo
                    .node_of_sw(sw)
                    .ok_or_else(|| format!("group {}: no switch with value {sw}", g.name))?;
                if !down_ports(topo, node).contains(&port) {
                    return Err(format!(
                        "group {}: port {port} of {} is not failure-prone",
                        g.name,
                        topo.info(node).name
                    ));
                }
                if !seen.insert((sw, port)) {
                    return Err(format!(
                        "link ({sw}, {port}) belongs to more than one group"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The program that draws fresh health flags for the failure-prone
    /// `ports` of switch `sw` — the `f` that runs at the start of every
    /// hop in `M̂(p, t, f) = M((f;p), t)`.
    ///
    /// Groups with members on this switch are drawn first (in declaration
    /// order): one budget-guarded Bernoulli into the group's `grp_j`
    /// field, then each member's `up_i` derived from it. Remaining ports
    /// draw independently with [`FailureSpec::port_pr`], in `ports` order.
    ///
    /// # Panics
    ///
    /// Panics if `fields` was not built with at least
    /// [`FailureSpec::group_count`] group fields (see
    /// [`NetFields::with_groups`]).
    pub fn hop_program(&self, fields: &NetFields, sw: u32, ports: &[u32]) -> Prog {
        if self.is_failure_free() {
            return Prog::seq_all(ports.iter().map(|&p| Prog::assign(fields.up(p), 1)));
        }
        // Hoisted out of the per-port loop: the budget-bump cascade is
        // port-independent and `Prog` clones are cheap (`Arc`-backed), so
        // it is built once per hop instead of once per port.
        let bump = self.k.map(|k| bump_counter(fields, k));
        let mut steps = Vec::with_capacity(ports.len());
        let mut grouped: BTreeSet<u32> = BTreeSet::new();
        for (j, group) in self.groups.iter().enumerate() {
            let members = group.ports_on(sw, ports);
            if members.is_empty() {
                continue;
            }
            let grp = fields.grp(j as u32 + 1);
            steps.push(self.draw(grp, &group.pr, fields, bump.as_ref()));
            for &p in &members {
                grouped.insert(p);
                steps.push(Prog::ite(
                    Pred::test(grp, 1),
                    Prog::assign(fields.up(p), 1),
                    Prog::assign(fields.up(p), 0),
                ));
            }
        }
        for &p in ports {
            if grouped.contains(&p) {
                continue;
            }
            steps.push(self.draw(fields.up(p), self.port_pr(p), fields, bump.as_ref()));
        }
        Prog::seq_all(steps)
    }

    /// The events [`FailureSpec::hop_program`] draws for the failure-prone
    /// `ports` of switch `sw`, in its draw order: groups with members on
    /// the switch (declaration order), then the ungrouped ports (in
    /// `ports` order). A failure-free spec never fails a link, so every
    /// event then has probability zero.
    pub(crate) fn hop_events(
        &self,
        fields: &NetFields,
        sw: u32,
        ports: &[u32],
    ) -> Vec<FailureEvent> {
        let free = self.is_failure_free();
        let event = |pr: &Ratio, ports: &[u32]| FailureEvent {
            pr: if free { Ratio::zero() } else { pr.clone() },
            ups: ports.iter().map(|&p| fields.up(p)).collect(),
        };
        let mut events = Vec::new();
        let mut grouped: BTreeSet<u32> = BTreeSet::new();
        for group in &self.groups {
            let members = group.ports_on(sw, ports);
            if !members.is_empty() {
                grouped.extend(&members);
                events.push(event(&group.pr, &members));
            }
        }
        for &p in ports {
            if !grouped.contains(&p) {
                events.push(event(self.port_pr(p), &[p]));
            }
        }
        events
    }

    /// One budget-guarded Bernoulli draw into `health` (an `up_i` flag or
    /// a group field): down with probability `pr` — charging one budget
    /// unit — and up otherwise. An exhausted budget forces the draw up,
    /// preserving the Figure 11b support condition.
    fn draw(&self, health: Field, pr: &Ratio, fields: &NetFields, bump: Option<&Prog>) -> Prog {
        if pr.is_zero() {
            return Prog::assign(health, 1);
        }
        let fail_then_count = match bump {
            None => Prog::assign(health, 0),
            Some(b) => Prog::assign(health, 0).seq(b.clone()),
        };
        let draw = Prog::choice2(fail_then_count, pr.clone(), Prog::assign(health, 1));
        match self.k {
            // Budget exhausted ⇒ the draw comes up healthy.
            Some(k) => Prog::ite(Pred::test(fields.fl, k), Prog::assign(health, 1), draw),
            None => draw,
        }
    }

    /// Erases the health flags drawn by [`FailureSpec::hop_program`] —
    /// the given `up` ports plus every group field — so loop states do not
    /// carry stale link state (failures are memoryless: everything is
    /// re-drawn next hop).
    pub fn erase_program(&self, fields: &NetFields, ports: &[u32]) -> Prog {
        let ups = ports.iter().map(|&p| Prog::assign(fields.up(p), 0));
        let grps = (1..=self.groups.len() as u32).map(|j| Prog::assign(fields.grp(j), 0));
        Prog::seq_all(ups.chain(grps))
    }

    /// Number of declared shared-risk groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// `fl <- fl + 1`, capped at `k`, via a conditional cascade (ProbNetKAT has
/// only constant assignments).
fn bump_counter(fields: &NetFields, k: u32) -> Prog {
    let mut prog = Prog::skip();
    for v in (0..k).rev() {
        prog = Prog::ite(
            Pred::test(fields.fl, v),
            Prog::assign(fields.fl, v + 1),
            prog,
        );
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Interp, Packet};

    fn fields() -> NetFields {
        NetFields::new(4)
    }

    #[test]
    fn failure_free_sets_all_up() {
        let f = fields();
        let prog = FailureSpec::none().hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        let expect = Packet::new().with(f.up(1), 1).with(f.up(2), 1);
        assert_eq!(d.prob(&expect), Ratio::one());
    }

    #[test]
    fn independent_failures_multiply() {
        let f = fields();
        let spec = FailureSpec::independent(Ratio::new(1, 5));
        let prog = spec.hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        // Both up: (4/5)^2.
        let both_up = Packet::new().with(f.up(1), 1).with(f.up(2), 1);
        assert_eq!(d.prob(&both_up), Ratio::new(16, 25));
        // Both down: (1/5)^2. Down flags are 0 = absent, so the outcome is
        // the empty packet (no fl counter with k=∞).
        let both_down = Packet::new();
        assert_eq!(d.prob(&both_down), Ratio::new(1, 25));
        // Exactly one down: 1/5 · 4/5 each way.
        let one_down = Packet::new().with(f.up(2), 1);
        assert_eq!(d.prob(&one_down), Ratio::new(4, 25));
    }

    #[test]
    fn bounded_model_caps_failures() {
        let f = fields();
        let spec = FailureSpec::bounded(Ratio::new(1, 2), 1);
        let prog = spec.hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        // With k=1, the outcome "both links down" is impossible.
        let mut none_up = Packet::new().with(f.fl, 2);
        none_up.set(f.up(1), 0);
        assert_eq!(d.prob(&none_up), Ratio::zero());
        // One failure: up1 down (fl=1), up2 forced up: 1/2.
        let one = Packet::new().with(f.fl, 1).with(f.up(2), 1);
        assert_eq!(d.prob(&one), Ratio::new(1, 2));
        // No failure: 1/2 * 1/2.
        let zero = Packet::new().with(f.up(1), 1).with(f.up(2), 1);
        assert_eq!(d.prob(&zero), Ratio::new(1, 4));
        assert_eq!(d.mass(), Ratio::one());
    }

    #[test]
    fn exhausted_budget_forces_up() {
        let f = fields();
        let spec = FailureSpec::bounded(Ratio::new(1, 2), 1);
        let prog = spec.hop_program(&f, 1, &[1]);
        // Start with fl already at the bound.
        let start = Packet::new().with(f.fl, 1);
        let d = Interp::new().eval_packet(&prog, &start);
        assert_eq!(d.prob(&start.with(f.up(1), 1)), Ratio::one());
    }

    #[test]
    fn erase_resets_flags() {
        let f = fields();
        let prog = FailureSpec::none().erase_program(&f, &[1, 2]);
        let start = Packet::new().with(f.up(1), 1).with(f.up(2), 1);
        let d = Interp::new().eval_packet(&prog, &start);
        assert_eq!(d.prob(&Packet::new()), Ratio::one());
    }

    #[test]
    fn heterogeneous_overrides_change_one_port() {
        let f = fields();
        let spec = FailureSpec::independent(Ratio::new(1, 5)).with_link_pr(2, Ratio::new(1, 2));
        let prog = spec.hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        // Port 1 keeps the uniform 1/5, port 2 uses 1/2.
        let both_up = Packet::new().with(f.up(1), 1).with(f.up(2), 1);
        assert_eq!(d.prob(&both_up), Ratio::new(4, 5) * Ratio::new(1, 2));
        let only_two_down = Packet::new().with(f.up(1), 1);
        assert_eq!(d.prob(&only_two_down), Ratio::new(4, 5) * Ratio::new(1, 2));
        let only_one_down = Packet::new().with(f.up(2), 1);
        assert_eq!(d.prob(&only_one_down), Ratio::new(1, 5) * Ratio::new(1, 2));
        assert_eq!(d.mass(), Ratio::one());
    }

    #[test]
    fn zero_probability_override_never_fails() {
        let f = fields();
        let spec = FailureSpec::independent(Ratio::new(1, 2)).with_link_pr(1, Ratio::zero());
        assert!(!spec.is_failure_free());
        let prog = spec.hop_program(&f, 1, &[1]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        assert_eq!(d.prob(&Packet::new().with(f.up(1), 1)), Ratio::one());
    }

    #[test]
    fn srlg_members_fail_together() {
        let f = NetFields::with_groups(4, 1);
        let spec = FailureSpec::independent(Ratio::zero()).with_group(Srlg::new(
            "conduit",
            Ratio::new(1, 3),
            vec![(7, 1), (7, 2)],
        ));
        let prog = spec.hop_program(&f, 7, &[1, 2, 3]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        // Port 3 is ungrouped with pr 0: always up. Ports 1 and 2 are
        // perfectly correlated: both down with 1/3, both up with 2/3 —
        // no mixed outcome exists.
        let both_up = Packet::new()
            .with(f.up(1), 1)
            .with(f.up(2), 1)
            .with(f.up(3), 1)
            .with(f.grp(1), 1);
        assert_eq!(d.prob(&both_up), Ratio::new(2, 3));
        let both_down = Packet::new().with(f.up(3), 1);
        assert_eq!(d.prob(&both_down), Ratio::new(1, 3));
        assert_eq!(d.mass(), Ratio::one());
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn srlg_charges_budget_once_per_group() {
        // With budget k=1 a two-member group can still take *both* links
        // down — a line-card failure is one event — which the independent
        // bounded model cannot.
        let f = NetFields::with_groups(4, 1);
        let spec = FailureSpec::bounded(Ratio::new(1, 2), 1).with_group(Srlg::new(
            "card",
            Ratio::new(1, 2),
            vec![(1, 1), (1, 2)],
        ));
        let prog = spec.hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        let card_down = Packet::new().with(f.fl, 1);
        assert_eq!(d.prob(&card_down), Ratio::new(1, 2));
        assert_eq!(d.mass(), Ratio::one());
    }

    #[test]
    fn srlg_respects_exhausted_budget() {
        let f = NetFields::with_groups(4, 1);
        let spec = FailureSpec::bounded(Ratio::zero(), 1).with_group(Srlg::new(
            "card",
            Ratio::new(1, 2),
            vec![(1, 1), (1, 2)],
        ));
        let start = Packet::new().with(f.fl, 1);
        let prog = spec.hop_program(&f, 1, &[1, 2]);
        let d = Interp::new().eval_packet(&prog, &start);
        let all_up = start.with(f.up(1), 1).with(f.up(2), 1).with(f.grp(1), 1);
        assert_eq!(d.prob(&all_up), Ratio::one());
    }

    #[test]
    fn groups_only_draw_on_their_switch() {
        let f = NetFields::with_groups(4, 1);
        let spec = FailureSpec::independent(Ratio::zero()).with_group(Srlg::new(
            "elsewhere",
            Ratio::new(1, 2),
            vec![(2, 1)],
        ));
        // Switch 1 has no member of the group: port 1 draws independently
        // (pr 0 ⇒ up), and grp1 is not drawn at all.
        let prog = spec.hop_program(&f, 1, &[1]);
        let d = Interp::new().eval_packet(&prog, &Packet::new());
        assert_eq!(d.prob(&Packet::new().with(f.up(1), 1)), Ratio::one());
    }

    #[test]
    fn hop_events_follow_the_draw_order() {
        let f = NetFields::with_groups(4, 3);
        let r = Ratio::new;
        let spec = FailureSpec::bounded(r(1, 5), 2)
            .with_link_pr(3, r(1, 2))
            .with_group(Srlg::new("a", r(1, 7), vec![(1, 2)]))
            .with_group(Srlg::new("elsewhere", r(1, 9), vec![(2, 1)]))
            .with_group(Srlg::new("b", r(1, 3), vec![(1, 4), (1, 1)]));
        let event = |pr: Ratio, ports: &[u32]| FailureEvent {
            pr,
            ups: ports.iter().map(|&p| f.up(p)).collect(),
        };
        // Groups on this switch in declaration order (members in port
        // order), then the ungrouped ports.
        assert_eq!(
            spec.hop_events(&f, 1, &[1, 2, 3, 4]),
            vec![
                event(r(1, 7), &[2]),
                event(r(1, 3), &[1, 4]),
                event(r(1, 2), &[3]),
            ]
        );
        // A failure-free spec draws the same events, none of which fails.
        let free = FailureSpec { k: Some(0), ..spec };
        assert!(free
            .hop_events(&f, 1, &[1, 2, 3, 4])
            .iter()
            .all(|e| e.pr.is_zero()));
        // A group on another switch contributes nothing here.
        assert!(free.groups[1].ports_on(1, &[1, 2, 3, 4]).is_empty());
        assert_eq!(free.groups[1].ports_on(2, &[1, 2]), vec![1]);
    }

    #[test]
    fn erase_clears_ups_and_groups() {
        let f = NetFields::with_groups(4, 2);
        let spec = FailureSpec::independent(Ratio::new(1, 2))
            .with_group(Srlg::new("a", Ratio::new(1, 2), vec![(1, 1)]))
            .with_group(Srlg::new("b", Ratio::new(1, 2), vec![(1, 2)]));
        let prog = spec.erase_program(&f, &[1, 2]);
        let start = Packet::new()
            .with(f.up(1), 1)
            .with(f.up(2), 1)
            .with(f.grp(1), 1)
            .with(f.grp(2), 1);
        let d = Interp::new().eval_packet(&prog, &start);
        assert_eq!(d.prob(&Packet::new()), Ratio::one());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        use mcnetkat_topo::ab_fattree;
        let topo = ab_fattree(4);
        let agg = topo.find("agg0_0").unwrap();
        let sw = topo.sw_value(agg);
        let down = down_ports(&topo, agg);
        let ok = FailureSpec::independent(Ratio::new(1, 10)).with_group(Srlg::new(
            "card",
            Ratio::new(1, 10),
            vec![(sw, down[0])],
        ));
        assert!(ok.validate(&topo).is_ok());
        // Unknown switch value.
        let bad_sw =
            FailureSpec::none().with_group(Srlg::new("x", Ratio::new(1, 2), vec![(10_000, 1)]));
        assert!(bad_sw.validate(&topo).unwrap_err().contains("no switch"));
        // A non-prone (upward) port.
        let edge = topo.find("edge0_0").unwrap();
        let up_port = topo.ports(edge)[0].port;
        let bad_port = FailureSpec::none().with_group(Srlg::new(
            "x",
            Ratio::new(1, 2),
            vec![(topo.sw_value(edge), up_port)],
        ));
        assert!(bad_port
            .validate(&topo)
            .unwrap_err()
            .contains("not failure-prone"));
        // Overlapping groups.
        let overlap = FailureSpec::none()
            .with_group(Srlg::new("a", Ratio::new(1, 2), vec![(sw, down[0])]))
            .with_group(Srlg::new("b", Ratio::new(1, 2), vec![(sw, down[0])]));
        assert!(overlap
            .validate(&topo)
            .unwrap_err()
            .contains("more than one group"));
        // A non-probability.
        let bad_pr = FailureSpec::independent(Ratio::new(3, 2));
        assert!(bad_pr.validate(&topo).unwrap_err().contains("probability"));
        // A group spanning two switches: per-hop draws cannot correlate
        // across switches, so this must be rejected.
        let agg2 = topo.find("agg1_0").unwrap();
        let spanning = FailureSpec::none().with_group(Srlg::new(
            "conduit",
            Ratio::new(1, 2),
            vec![(sw, down[0]), (topo.sw_value(agg2), 1)],
        ));
        assert!(spanning
            .validate(&topo)
            .unwrap_err()
            .contains("spans multiple switches"));
        // A link_pr override on a port number no switch can ever draw.
        let bad_override =
            FailureSpec::independent(Ratio::new(1, 10)).with_link_pr(99, Ratio::new(1, 2));
        assert!(bad_override
            .validate(&topo)
            .unwrap_err()
            .contains("no switch has failure-prone port"));
    }

    #[test]
    fn linecards_cover_every_prone_link_once() {
        use mcnetkat_topo::ab_fattree;
        let topo = ab_fattree(4);
        let cards = Srlg::linecards(&topo, &Ratio::new(1, 100));
        // Aggregation + core switches only; together they own every prone
        // link exactly once, so the spec validates.
        let total: usize = topo
            .switches()
            .iter()
            .map(|&s| down_ports(&topo, s).len())
            .sum();
        assert_eq!(cards.iter().map(|g| g.members.len()).sum::<usize>(), total);
        let spec = FailureSpec::independent(Ratio::zero()).with_groups(cards);
        assert!(spec.validate(&topo).is_ok());
    }

    #[test]
    fn singleton_helpers_cover_all_prone_links() {
        use mcnetkat_topo::ab_fattree;
        let topo = ab_fattree(4);
        let singles = Srlg::singletons(&topo, &Ratio::new(1, 100));
        let total: usize = topo
            .switches()
            .iter()
            .map(|&s| down_ports(&topo, s).len())
            .sum();
        assert_eq!(singles.len(), total);
        assert!(singles.iter().all(|g| g.members.len() == 1));
        let spec = FailureSpec::independent(Ratio::new(1, 100)).with_groups(singles);
        assert!(spec.validate(&topo).is_ok());
    }
}

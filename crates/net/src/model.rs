//! Network model assembly: the `M̂(p, t, f)` construction of §2/§7.
//!
//! ```text
//! M̂(p, f) ≜ var up₁<-1 in … var up_d<-1 in
//!            in ; do (f ; p ; t̂ ; erase) while (¬ sw=dst) ; pt<-0
//! ```
//!
//! where `t̂` is the failure-aware topology program (links move packets
//! only when their `up` flag is set) and `erase` clears the per-hop link
//! flags so loop states stay small (flags are re-drawn every hop — the
//! failure model is memoryless, exactly as in the paper where `f` runs at
//! every hop).

use crate::fused::{compile_model_fused, FusedStats};
use crate::scheme::{down_ports, switch_program};
use crate::{FailureSpec, NetFields, RoutingScheme};
use mcnetkat_core::{Pred, Prog};
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, Manager};
use mcnetkat_topo::{Level, NodeId, ShortestPaths, Topology};
use std::collections::BTreeMap;

/// A complete network verification model.
#[derive(Clone, Debug)]
pub struct NetworkModel {
    /// The fabric.
    pub topo: Topology,
    /// Destination switch (packets exit the loop on arrival).
    pub dst: NodeId,
    /// Field handles.
    pub fields: NetFields,
    /// Routing scheme on every switch (unless overridden per switch).
    pub scheme: RoutingScheme,
    /// Per-switch scheme overrides: switches listed here run their own
    /// scheme instead of [`NetworkModel::scheme`] — the seam that lets an
    /// incremental engine model a single-switch program edit (see
    /// [`NetworkModel::scheme_for`]).
    pub scheme_overrides: BTreeMap<NodeId, RoutingScheme>,
    /// Failure specification run at every hop (the plain [`crate::FailureModel`]
    /// converts into this via `Into`).
    pub failure: FailureSpec,
    /// When set, a hop counter is threaded through the model, capped at
    /// this many hops (for the path-stretch analyses of Figure 12 b/c).
    pub hop_cap: Option<u32>,
}

impl NetworkModel {
    /// Builds a model for `topo` with destination `dst`. `failure` is
    /// anything convertible into a [`FailureSpec`] — a plain
    /// [`crate::FailureModel`] or a full spec with overrides and
    /// shared-risk groups.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FailureSpec::validate`] against `topo`
    /// (bad probabilities, unknown group members, overlapping groups);
    /// [`NetworkModel::try_new`] returns the reason instead.
    pub fn new(
        topo: Topology,
        dst: NodeId,
        scheme: RoutingScheme,
        failure: impl Into<FailureSpec>,
    ) -> NetworkModel {
        NetworkModel::try_new(topo, dst, scheme, failure)
            .unwrap_or_else(|e| panic!("invalid failure spec: {e}"))
    }

    /// [`NetworkModel::new`] for a spec that may not validate — one that
    /// arrives from outside the program, such as a model delta or a
    /// decoded description.
    ///
    /// # Errors
    ///
    /// The first [`FailureSpec::validate`] violation against `topo`.
    pub fn try_new(
        topo: Topology,
        dst: NodeId,
        scheme: RoutingScheme,
        failure: impl Into<FailureSpec>,
    ) -> Result<NetworkModel, String> {
        let failure = failure.into();
        failure.validate(&topo)?;
        let fields = NetFields::with_groups(topo.max_degree(), failure.group_count());
        Ok(NetworkModel::from_parts(topo, dst, fields, scheme, failure))
    }

    /// Builds a model over explicitly provided field handles — the hook
    /// for sweeping [`crate::FieldOrder`] policies (each policy interns
    /// its fields in its own order, possibly namespaced).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FailureSpec::validate`], or if `fields`
    /// declares fewer `up`/`grp` handles than the topology and spec need.
    pub fn new_with_fields(
        topo: Topology,
        dst: NodeId,
        fields: NetFields,
        scheme: RoutingScheme,
        failure: impl Into<FailureSpec>,
    ) -> NetworkModel {
        let failure = failure.into();
        if let Err(e) = failure.validate(&topo) {
            panic!("invalid failure spec: {e}");
        }
        NetworkModel::from_parts(topo, dst, fields, scheme, failure)
    }

    /// Assembles a model from an already-validated spec.
    ///
    /// # Panics
    ///
    /// Panics if `fields` declares fewer `up`/`grp` handles than the
    /// topology and spec need.
    fn from_parts(
        topo: Topology,
        dst: NodeId,
        fields: NetFields,
        scheme: RoutingScheme,
        failure: FailureSpec,
    ) -> NetworkModel {
        assert!(
            fields.ups().len() >= topo.max_degree(),
            "fields declare {} up flags, topology needs {}",
            fields.ups().len(),
            topo.max_degree()
        );
        assert!(
            fields.grps().len() >= failure.group_count(),
            "fields declare {} group flags, spec needs {}",
            fields.grps().len(),
            failure.group_count()
        );
        NetworkModel {
            topo,
            dst,
            fields,
            scheme,
            scheme_overrides: BTreeMap::new(),
            failure,
            hop_cap: None,
        }
    }

    /// Enables the hop counter with the given cap.
    pub fn with_hop_cap(mut self, cap: u32) -> NetworkModel {
        self.hop_cap = Some(cap);
        self
    }

    /// Overrides the routing scheme of one switch (a "switch program
    /// edit"): `s` runs `scheme` instead of the model-wide default. Every
    /// compile path — legacy, fused, parallel — honours the override.
    pub fn with_switch_scheme(mut self, s: NodeId, scheme: RoutingScheme) -> NetworkModel {
        self.scheme_overrides.insert(s, scheme);
        self
    }

    /// The routing scheme switch `s` actually runs: its override if one is
    /// set, the model-wide default otherwise.
    pub fn scheme_for(&self, s: NodeId) -> RoutingScheme {
        self.scheme_overrides
            .get(&s)
            .copied()
            .unwrap_or(self.scheme)
    }

    /// The ingress locations: every edge switch other than the
    /// destination, at the virtual host port 0. Topologies without levels
    /// (e.g. the chain) use their first switch.
    pub fn ingresses(&self) -> Vec<NodeId> {
        let edges: Vec<NodeId> = self
            .topo
            .switches()
            .iter()
            .copied()
            .filter(|&s| self.topo.info(s).level == Level::Edge && s != self.dst)
            .collect();
        if edges.is_empty() {
            self.topo.switches().first().copied().into_iter().collect()
        } else {
            edges
        }
    }

    /// The `in` predicate: a disjunction of switch tests over the ingress
    /// locations (port 0 — the virtual host-facing port).
    pub fn ingress_pred(&self) -> Pred {
        Pred::any(self.ingresses().into_iter().map(|s| {
            Pred::test(self.fields.sw, self.topo.sw_value(s)).and(Pred::test(self.fields.pt, 0))
        }))
    }

    /// The failure-prone ports of switch `s` (downward links, §7).
    pub fn prone_ports(&self, s: NodeId) -> Vec<u32> {
        down_ports(&self.topo, s)
    }

    /// The failure-prone ports any switch ever draws — the union of
    /// [`NetworkModel::prone_ports`] over all switches. Ports outside this
    /// set are never drawn, so the per-hop erasure skips them.
    pub fn drawn_ports(&self) -> Vec<u32> {
        let mut drawn = std::collections::BTreeSet::new();
        for &s in self.topo.switches() {
            drawn.extend(self.prone_ports(s));
        }
        drawn.into_iter().collect()
    }

    /// The per-switch hop program `f_s ; p_s`: draw link health, then
    /// forward.
    pub fn switch_policy(&self, s: NodeId, sp: &ShortestPaths) -> Prog {
        let prone = self.prone_ports(s);
        let draw = self
            .failure
            .hop_program(&self.fields, self.topo.sw_value(s), &prone);
        let route = switch_program(
            self.scheme_for(s),
            &self.fields,
            &self.topo,
            sp,
            s,
            self.dst,
        );
        draw.seq(route)
    }

    /// The full forwarding policy: `case sw=1 then … else case sw=2 …`.
    pub fn policy(&self) -> Prog {
        let sp = ShortestPaths::towards(&self.topo, self.dst);
        let branches = self
            .topo
            .switches()
            .iter()
            .map(|&s| {
                (
                    Pred::test(self.fields.sw, self.topo.sw_value(s)),
                    self.switch_policy(s, &sp),
                )
            })
            .collect();
        Prog::case(branches, Prog::drop())
    }

    /// The failure-aware topology program `t̂`: moves the packet across the
    /// link at `(sw, pt)` provided the link is up; packets on dead or
    /// unknown ports are dropped.
    pub fn topology_program(&self) -> Prog {
        let mut branches = Vec::new();
        for &s in self.topo.switches() {
            let prone = self.prone_ports(s);
            for pp in self.topo.ports(s) {
                // Only switch-to-switch links move packets.
                if self.topo.info(pp.peer).level == Level::Host {
                    continue;
                }
                let here = Pred::test(self.fields.sw, self.topo.sw_value(s))
                    .and(Pred::test(self.fields.pt, pp.port));
                branches.push((here, self.link_step(pp, &prone)));
            }
        }
        Prog::case(branches, Prog::drop())
    }

    /// The topology step restricted to switch `s` — the `sw = s` slice of
    /// [`NetworkModel::topology_program`], dispatching on `pt` only. The
    /// fused per-switch pipeline composes this with `s`'s routing program,
    /// where `sw = s` is established by the surrounding case chain.
    pub fn topology_step(&self, s: NodeId) -> Prog {
        let prone = self.prone_ports(s);
        let mut branches = Vec::new();
        for pp in self.topo.ports(s) {
            if self.topo.info(pp.peer).level == Level::Host {
                continue;
            }
            branches.push((
                Pred::test(self.fields.pt, pp.port),
                self.link_step(pp, &prone),
            ));
        }
        Prog::case(branches, Prog::drop())
    }

    /// One link crossing: move across `pp` to the peer, guarded by the
    /// link's health flag when the link can fail (`prone` is the owning
    /// switch's failure-prone port set, hoisted by the caller).
    fn link_step(&self, pp: &mcnetkat_topo::PortPeer, prone: &[u32]) -> Prog {
        let mv = Prog::assign(self.fields.sw, self.topo.sw_value(pp.peer))
            .seq(Prog::assign(self.fields.pt, pp.peer_port));
        if prone.contains(&pp.port) && !self.failure.is_failure_free() {
            Prog::ite(Pred::test(self.fields.up(pp.port), 1), mv, Prog::drop())
        } else {
            mv
        }
    }

    /// One loop iteration: `f ; p ; t̂` plus hop counting and per-hop flag
    /// erasure.
    pub fn body(&self) -> Prog {
        let mut prog = self.policy().seq(self.topology_program());
        if let Some(cap) = self.hop_cap {
            prog = prog.seq(bump_hop_counter(&self.fields, cap));
        }
        // Clear the flags: they are re-drawn next hop, and carrying them in
        // the loop state would blow up the chain for no semantic gain.
        // Ports that no switch ever draws keep their declaration value and
        // need no erasure; group fields are cleared alongside the flags.
        prog.seq(
            self.failure
                .erase_program(&self.fields, &self.drawn_ports()),
        )
    }

    /// The guard: keep forwarding while not at the destination.
    pub fn guard(&self) -> Pred {
        Pred::test(self.fields.sw, self.topo.sw_value(self.dst)).not()
    }

    /// The complete program `M̂`.
    pub fn program(&self) -> Prog {
        let ingress = Prog::filter(self.ingress_pred());
        let loop_prog = Prog::do_while(self.body(), self.guard());
        // Normalise the arrival port so outputs are canonical.
        let mut inner = ingress.seq(loop_prog).seq(Prog::assign(self.fields.pt, 0));
        // Local declarations: up flags, failure budget, detour flag. The
        // detour flag is declared for *every* scheme so that models with
        // different schemes stay comparable on every input class.
        inner = Prog::local(self.fields.dt, 0, inner);
        if self.failure.k.is_some() && !self.failure.is_failure_free() {
            inner = Prog::local(self.fields.fl, 0, inner);
        }
        for i in (1..=self.topo.max_degree() as u32).rev() {
            inner = Prog::local(self.fields.up(i), 1, inner);
        }
        inner
    }

    /// Compiles the model to its big-step FDD through the fused
    /// per-switch pipeline: each switch's hop program (`failure draw ;
    /// scheme ; topology step ; hop bump`) is compiled in its own scratch
    /// manager, its `up_i`/`grp_j` scratch fields are eliminated
    /// immediately ([`Manager::eliminate`]), and only then is the global
    /// `sw`-case chain assembled — so peak diagram size scales with the
    /// largest single switch, not the whole topology. The result mentions
    /// no scratch field, and a spec whose groups are all singletons
    /// yields a diagram equivalent to the plain independent model's.
    ///
    /// The legacy whole-body path survives as
    /// [`NetworkModel::compile_legacy`] (the two are pinned equivalent by
    /// differential tests).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the FDD backend.
    pub fn compile(&self, mgr: &Manager) -> Result<Fdd, CompileError> {
        self.compile_with(mgr, &CompileOptions::default())
    }

    /// Compiles with explicit options (fused pipeline, see
    /// [`NetworkModel::compile`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the FDD backend.
    pub fn compile_with(&self, mgr: &Manager, opts: &CompileOptions) -> Result<Fdd, CompileError> {
        Ok(compile_model_fused(mgr, self, opts)?.0)
    }

    /// Compiles with explicit options and returns the fused pipeline's
    /// scratch-size gauges alongside the diagram (see [`FusedStats`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the FDD backend.
    pub fn compile_with_stats(
        &self,
        mgr: &Manager,
        opts: &CompileOptions,
    ) -> Result<(Fdd, FusedStats), CompileError> {
        compile_model_fused(mgr, self, opts)
    }

    /// The legacy whole-body compile: builds the complete program AST
    /// (every switch's scratch fields alive simultaneously), compiles it
    /// in `mgr`, and projects the group scratch fields out with
    /// [`Manager::forget`]. Kept as the differential-testing oracle for
    /// the fused pipeline; prefer [`NetworkModel::compile`].
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the FDD backend.
    pub fn compile_legacy(&self, mgr: &Manager) -> Result<Fdd, CompileError> {
        let fdd = mgr.compile(&self.program())?;
        Ok(mgr.forget(fdd, self.fields.grps()))
    }

    /// The legacy whole-body compile with explicit options (see
    /// [`NetworkModel::compile_legacy`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the FDD backend.
    pub fn compile_legacy_with(
        &self,
        mgr: &Manager,
        opts: &CompileOptions,
    ) -> Result<Fdd, CompileError> {
        let fdd = mgr.compile_with(&self.program(), opts)?;
        Ok(mgr.forget(fdd, self.fields.grps()))
    }

    /// The ideal specification: teleport every ingress packet straight to
    /// the destination (`in ; sw<-dst ; pt<-0`), with the same local-field
    /// erasure as the model so the two are comparable on every input
    /// class.
    pub fn teleport(&self) -> Prog {
        teleport(self)
    }
}

/// `cnt <- min(cnt + 1, cap)` over the hop-counter field.
pub(crate) fn bump_hop_counter(fields: &NetFields, cap: u32) -> Prog {
    let mut prog = Prog::skip(); // at the cap: saturate
    for v in (0..cap).rev() {
        prog = Prog::ite(
            Pred::test(fields.cnt, v),
            Prog::assign(fields.cnt, v + 1),
            prog,
        );
    }
    prog
}

/// The teleport specification for a model (see
/// [`NetworkModel::teleport`]).
pub fn teleport(model: &NetworkModel) -> Prog {
    let fields = &model.fields;
    let mut prog = Prog::filter(model.ingress_pred())
        .seq(Prog::assign(fields.sw, model.topo.sw_value(model.dst)))
        .seq(Prog::assign(fields.pt, 0));
    if model.hop_cap.is_some() {
        // Teleportation is never compared against hop-counting models, but
        // keep the field deterministic if someone tries.
        prog = prog.seq(Prog::assign(fields.cnt, 0));
    }
    prog = Prog::local(fields.dt, 0, prog);
    if model.failure.k.is_some() && !model.failure.is_failure_free() {
        prog = Prog::local(fields.fl, 0, prog);
    }
    for i in (1..=model.topo.max_degree() as u32).rev() {
        prog = Prog::local(fields.up(i), 1, prog);
    }
    prog
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailureModel;
    use mcnetkat_core::Packet;
    use mcnetkat_num::Ratio;
    use mcnetkat_topo::ab_fattree;

    fn ingress_packet(model: &NetworkModel, sw: NodeId) -> Packet {
        Packet::new().with(model.fields.sw, model.topo.sw_value(sw))
    }

    #[test]
    fn failure_free_ecmp_delivers_everything() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureModel::none());
        let mgr = Manager::new();
        let fdd = model.compile(&mgr).unwrap();
        for src in model.ingresses() {
            let pk = ingress_packet(&model, src);
            assert_eq!(
                mgr.prob_delivery(fdd, &pk),
                Ratio::one(),
                "from {}",
                model.topo.info(src).name
            );
        }
    }

    #[test]
    fn failure_free_model_equals_teleport() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureModel::none());
        let mgr = Manager::new();
        let fdd = model.compile(&mgr).unwrap();
        let tele = mgr.compile(&model.teleport()).unwrap();
        assert!(mgr.equiv(fdd, tele));
    }

    #[test]
    fn non_ingress_packets_are_dropped() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureModel::none());
        let mgr = Manager::new();
        let fdd = model.compile(&mgr).unwrap();
        // A core switch is not an ingress.
        let core = model.topo.find("core0").unwrap();
        let pk = ingress_packet(&model, core);
        assert_eq!(mgr.prob_delivery(fdd, &pk), Ratio::zero());
    }

    #[test]
    fn ecmp_is_lossy_under_failures() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureModel::independent(Ratio::new(1, 4)),
        );
        let mgr = Manager::new();
        let fdd = model.compile(&mgr).unwrap();
        let src = model.topo.find("edge1_0").unwrap();
        let pk = ingress_packet(&model, src);
        let p = mgr.prob_delivery(fdd, &pk);
        assert!(p < Ratio::one(), "delivery should be lossy, got {p}");
        assert!(p > Ratio::zero());
    }

    #[test]
    fn f103_beats_ecmp_under_failures() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let failure = FailureModel::independent(Ratio::new(1, 4));
        let mgr = Manager::new();
        let ecmp = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, failure.clone());
        let f103 = NetworkModel::new(topo, dst, RoutingScheme::F10_3, failure);
        let fe = ecmp.compile(&mgr).unwrap();
        let f3 = f103.compile(&mgr).unwrap();
        let src = ecmp.topo.find("edge1_0").unwrap();
        let pk = ingress_packet(&ecmp, src);
        let pe = mgr.prob_delivery(fe, &pk);
        let p3 = mgr.prob_delivery(f3, &pk);
        assert!(p3 > pe, "F10_3 ({p3}) should beat ECMP ({pe})");
    }

    #[test]
    fn hop_counter_counts_path_length() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model =
            NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureModel::none()).with_hop_cap(8);
        let mgr = Manager::new();
        let fdd = model.compile(&mgr).unwrap();
        // From the other edge in pod 0 the path is always 2 hops.
        let src = model.topo.find("edge0_1").unwrap();
        let pk = ingress_packet(&model, src);
        let out = mgr.output_dist(fdd, &pk);
        let cnt = model.fields.cnt;
        for (o, r) in out {
            let o = o.expect("no drops without failures");
            assert_eq!(o.get(cnt), 2, "prob {r}");
        }
    }

    #[test]
    fn try_new_returns_the_validation_error() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let bad = FailureModel::independent(Ratio::new(3, 2));
        let err = NetworkModel::try_new(topo.clone(), dst, RoutingScheme::Ecmp, bad).unwrap_err();
        assert!(err.contains("probability"), "{err}");
        let ok = FailureModel::independent(Ratio::new(1, 2));
        assert!(NetworkModel::try_new(topo, dst, RoutingScheme::Ecmp, ok).is_ok());
    }
}

//! High-level verification queries on compiled network models: delivery
//! probability, resilience (equivalence with teleport), refinement between
//! schemes, and hop-count statistics (Figure 12).
//!
//! The aggregates over all ingresses are exact, from one walk that starts
//! each ingress at its arm of the `sw` case ([`Manager::summarise_each`]).
//!
//! All queries are failure-model agnostic: the Figure 11b k-resilience
//! check and the refinement order run unchanged under the correlated
//! shared-risk-group specs of [`crate::FailureSpec`] — the compiled
//! diagram carries no group scratch state (see
//! [`crate::NetworkModel::compile`]).

use crate::NetworkModel;
use mcnetkat_core::Packet;
use mcnetkat_fdd::{Action, ActionDist, CompileError, CompileOptions, Fdd, Manager};
use mcnetkat_num::Ratio;
use mcnetkat_topo::NodeId;

/// A compiled model plus the manager that owns its diagram.
pub struct Queries<'a> {
    mgr: &'a Manager,
    model: &'a NetworkModel,
    fdd: Fdd,
}

/// Exact hop-count statistics for one or more ingresses (Figure 12 b/c).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HopStats {
    /// `P(delivered ∧ hops ≤ x)` for each x up to the cap.
    pub cdf: Vec<(u32, Ratio)>,
    /// Overall delivery probability.
    pub delivery: Ratio,
    /// `E[hops | delivered]` (0 when nothing is delivered).
    pub expected_hops: Ratio,
}

impl<'a> Queries<'a> {
    /// Compiles `model` and wraps the result.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from compilation.
    pub fn new(mgr: &'a Manager, model: &'a NetworkModel) -> Result<Queries<'a>, CompileError> {
        Ok(Queries {
            mgr,
            model,
            fdd: model.compile(mgr)?,
        })
    }

    /// Compiles with explicit options.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from compilation.
    pub fn with_options(
        mgr: &'a Manager,
        model: &'a NetworkModel,
        opts: &CompileOptions,
    ) -> Result<Queries<'a>, CompileError> {
        Ok(Queries {
            mgr,
            model,
            fdd: model.compile_with(mgr, opts)?,
        })
    }

    /// Wraps an externally compiled diagram (e.g. from the parallel
    /// backend).
    pub fn from_fdd(mgr: &'a Manager, model: &'a NetworkModel, fdd: Fdd) -> Queries<'a> {
        Queries { mgr, model, fdd }
    }

    /// The compiled diagram.
    pub fn fdd(&self) -> Fdd {
        self.fdd
    }

    /// The ingress packet for source switch `src`.
    pub fn ingress_packet(&self, src: NodeId) -> Packet {
        Packet::new().with(self.model.fields.sw, self.model.topo.sw_value(src))
    }

    /// Delivery probability from `src`.
    pub fn delivery_prob(&self, src: NodeId) -> Ratio {
        self.mgr.prob_delivery(self.fdd, &self.ingress_packet(src))
    }

    /// Delivery probability from each ingress, in one walk.
    fn ingress_deliveries(&self) -> Vec<Ratio> {
        let ingresses = self.model.ingresses();
        let values = ingresses.iter().map(|&s| self.model.topo.sw_value(s));
        self.mgr
            .prob_delivery_each(self.fdd, self.model.fields.sw, values)
    }

    /// Minimum delivery probability over all ingresses — the worst-case
    /// SLA number.
    pub fn min_delivery(&self) -> Ratio {
        self.ingress_deliveries()
            .into_iter()
            .min()
            .unwrap_or_else(Ratio::zero)
    }

    /// Whether the model is equivalent to teleportation — i.e. delivers
    /// every packet with probability 1 (the resilience check of
    /// Figure 11b).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from compiling the specification.
    pub fn equiv_teleport(&self) -> Result<bool, CompileError> {
        let tele = self.mgr.compile(&self.model.teleport())?;
        Ok(self.mgr.equiv(self.fdd, tele))
    }

    /// Whether `self`'s scheme is refined by `other` (`self ≤ other`):
    /// `other` delivers every packet with at least `self`'s probability
    /// (Figure 11c).
    pub fn refines(&self, other: &Queries<'_>) -> bool {
        self.same_manager(other);
        self.mgr.less_eq(self.fdd, other.fdd)
    }

    /// Strict refinement `self < other`, decided in one pass.
    pub fn strictly_refines(&self, other: &Queries<'_>) -> bool {
        self.same_manager(other);
        self.mgr.less(self.fdd, other.fdd)
    }

    fn same_manager(&self, other: &Queries<'_>) {
        assert!(
            std::ptr::eq(self.mgr, other.mgr),
            "refinement requires diagrams from the same manager"
        );
    }

    /// Mean delivery probability over all ingresses (packets enter the
    /// fabric uniformly at random, as in the paper's aggregate plots).
    pub fn delivery_avg(&self) -> Ratio {
        let each = self.ingress_deliveries();
        let n = Ratio::from_integer(each.len() as i64);
        each.into_iter().sum::<Ratio>() / n
    }

    /// Hop-count statistics from `src`. The model must have been built
    /// with [`NetworkModel::with_hop_cap`].
    ///
    /// # Panics
    ///
    /// Panics if the model has no hop counter.
    pub fn hop_stats(&self, src: NodeId) -> HopStats {
        self.hop_stats_of(&[src])
    }

    /// Hop-count statistics aggregated over all ingresses, weighting each
    /// source uniformly — the view of Figure 12(b)/(c), where delivered
    /// traffic shifts towards short intra-pod paths as failures increase.
    ///
    /// # Panics
    ///
    /// Panics if the model has no hop counter.
    pub fn hop_stats_avg(&self) -> HopStats {
        self.hop_stats_of(&self.model.ingresses())
    }

    fn hop_stats_of(&self, sources: &[NodeId]) -> HopStats {
        let cap = self
            .model
            .hop_cap
            .expect("hop_stats requires a model with a hop cap");
        // Delivered mass by hop count. An ingress packet sets only `sw`, so
        // a delivered output's count is the one its action writes, or 0.
        let mut by_hops = vec![Ratio::zero(); cap as usize + 1];
        let values = sources.iter().map(|&s| self.model.topo.sw_value(s));
        let sw = self.model.fields.sw;
        for d in self
            .mgr
            .summarise_each(self.fdd, sw, values, ActionDist::clone)
        {
            for (a, r) in d.iter().filter(|(a, _)| **a != Action::Drop) {
                by_hops[a.lookup(self.model.fields.cnt).unwrap_or(0).min(cap) as usize] += r;
            }
        }
        let n = Ratio::from_integer(sources.len() as i64);
        let (mut delivery, mut weighted, mut cdf) = (Ratio::zero(), Ratio::zero(), Vec::new());
        for (hops, mass) in by_hops.iter().enumerate() {
            delivery += &(mass / &n);
            weighted += &(Ratio::from_integer(hops as i64) * mass);
            cdf.push((hops as u32, delivery.clone()));
        }
        let expected_hops = if delivery.is_zero() {
            Ratio::zero()
        } else {
            weighted / n / &delivery
        };
        HopStats {
            cdf,
            delivery,
            expected_hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureSpec, RoutingScheme};
    use mcnetkat_topo::ab_fattree;

    fn model(scheme: RoutingScheme, failure: FailureSpec) -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, scheme, failure)
    }

    #[test]
    fn teleport_equivalence_without_failures() {
        let mgr = Manager::new();
        let m = model(RoutingScheme::F10_3, FailureSpec::none());
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(q.equiv_teleport().unwrap());
        assert_eq!(q.min_delivery(), Ratio::one());
    }

    #[test]
    fn ecmp_not_one_resilient() {
        let mgr = Manager::new();
        let m = model(
            RoutingScheme::Ecmp,
            FailureSpec::bounded(Ratio::new(1, 100), 1),
        );
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(!q.equiv_teleport().unwrap());
    }

    #[test]
    fn f103_is_one_resilient() {
        let mgr = Manager::new();
        let m = model(
            RoutingScheme::F10_3,
            FailureSpec::bounded(Ratio::new(1, 100), 1),
        );
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(q.equiv_teleport().unwrap());
    }

    #[test]
    fn resilience_table_runs_under_correlated_models() {
        // The Figure 11b check under a *correlated* bounded spec: with at
        // most one failure event, F10_3 survives any single-link group
        // but not a group spanning an aggregation switch's line card
        // towards the destination edge.
        use crate::{FailureSpec, Srlg};
        let mgr = Manager::new();
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let agg = topo.find("agg0_0").unwrap();
        let pr = Ratio::new(1, 100);
        let single = FailureSpec::bounded(Ratio::zero(), 1).with_group(Srlg::new(
            "one-link",
            pr.clone(),
            vec![(topo.sw_value(agg), 1)],
        ));
        let m = NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3, single);
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(q.equiv_teleport().unwrap());
        // A core's whole line card in one group: rerouting candidates die
        // with the primary, so 1-resilience is lost.
        let core = topo.find("core0").unwrap();
        let card =
            FailureSpec::bounded(Ratio::zero(), 1).with_group(Srlg::down_links_of(&topo, core, pr));
        let m = NetworkModel::new(topo.clone(), dst, RoutingScheme::F10_3, card);
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(!q.equiv_teleport().unwrap());
        assert!(q.min_delivery() < Ratio::one());
    }

    #[test]
    fn refinement_between_schemes() {
        let mgr = Manager::new();
        let failure = FailureSpec::independent(Ratio::new(1, 8));
        let me = model(RoutingScheme::Ecmp, failure.clone());
        let m3 = model(RoutingScheme::F10_3, failure);
        let qe = Queries::new(&mgr, &me).unwrap();
        let q3 = Queries::new(&mgr, &m3).unwrap();
        assert!(qe.refines(&q3));
        assert!(qe.strictly_refines(&q3));
        assert!(!q3.refines(&qe));
    }

    #[test]
    fn hop_stats_shape() {
        let mgr = Manager::new();
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let m =
            NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none()).with_hop_cap(8);
        let q = Queries::new(&mgr, &m).unwrap();
        let src = m.topo.find("edge1_0").unwrap();
        let stats = q.hop_stats(src);
        assert_eq!(stats.delivery, Ratio::one());
        // Cross-pod shortest paths are 4 hops.
        assert_eq!(stats.expected_hops, Ratio::from_integer(4));
        assert_eq!(stats.cdf[3].1, Ratio::zero());
        assert_eq!(stats.cdf[4].1, Ratio::one());
    }
}

//! High-level verification queries on compiled network models: delivery
//! probability, resilience (equivalence with teleport), refinement between
//! schemes, and hop-count statistics (Figure 12).
//!
//! All queries are failure-model agnostic: the Figure 11b k-resilience
//! check and the refinement order run unchanged under the correlated
//! shared-risk-group specs of [`crate::FailureSpec`] — the compiled
//! diagram carries no group scratch state (see
//! [`crate::NetworkModel::compile`]).

use crate::NetworkModel;
use mcnetkat_core::Packet;
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, Manager};
use mcnetkat_num::Ratio;
use mcnetkat_topo::NodeId;

/// A compiled model plus the manager that owns its diagram.
pub struct Queries<'a> {
    mgr: &'a Manager,
    model: &'a NetworkModel,
    fdd: Fdd,
}

/// Hop-count statistics for one ingress (Figure 12 b/c).
#[derive(Clone, Debug)]
pub struct HopStats {
    /// `P(delivered ∧ hops ≤ x)` for each x up to the cap.
    pub cdf: Vec<(u32, f64)>,
    /// Overall delivery probability.
    pub delivery: f64,
    /// `E[hops | delivered]`.
    pub expected_hops: f64,
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

    /// Minimum delivery probability over all ingresses — the worst-case
    /// SLA number.
    pub fn min_delivery(&self) -> Ratio {
        self.model
            .ingresses()
            .into_iter()
            .map(|s| self.delivery_prob(s))
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
        assert!(
            std::ptr::eq(self.mgr, other.mgr),
            "refinement requires diagrams from the same manager"
        );
        self.mgr.less_eq(self.fdd, other.fdd)
    }

    /// Strict refinement `self < other`.
    pub fn strictly_refines(&self, other: &Queries<'_>) -> bool {
        self.refines(other) && !other.refines(self)
    }

    /// Mean delivery probability over all ingresses (packets enter the
    /// fabric uniformly at random, as in the paper's aggregate plots).
    pub fn delivery_avg(&self) -> f64 {
        let sources = self.model.ingresses();
        let n = sources.len() as f64;
        sources
            .into_iter()
            .map(|s| self.delivery_prob(s).to_f64())
            .sum::<f64>()
            / n
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
        let cnt = self.model.fields.cnt;
        let weight = 1.0 / sources.len() as f64;
        let mut by_hops = vec![0.0f64; cap as usize + 1];
        let mut delivery = 0.0f64;
        for &src in sources {
            let out = self.mgr.output_dist(self.fdd, &self.ingress_packet(src));
            for (o, r) in out {
                if let Some(pk) = o {
                    let hops = pk.get(cnt).min(cap) as usize;
                    by_hops[hops] += weight * r.to_f64();
                    delivery += weight * r.to_f64();
                }
            }
        }
        let mut cdf = Vec::with_capacity(cap as usize + 1);
        let mut acc = 0.0;
        for (hops, p) in by_hops.iter().enumerate() {
            acc += p;
            cdf.push((hops as u32, acc));
        }
        let expected_hops = if delivery > 0.0 {
            by_hops
                .iter()
                .enumerate()
                .map(|(h, p)| h as f64 * p)
                .sum::<f64>()
                / delivery
        } else {
            0.0
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
    use crate::{FailureModel, RoutingScheme};
    use mcnetkat_topo::ab_fattree;

    fn model(scheme: RoutingScheme, failure: FailureModel) -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, scheme, failure)
    }

    #[test]
    fn teleport_equivalence_without_failures() {
        let mgr = Manager::new();
        let m = model(RoutingScheme::F10_3, FailureModel::none());
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(q.equiv_teleport().unwrap());
        assert_eq!(q.min_delivery(), Ratio::one());
    }

    #[test]
    fn ecmp_not_one_resilient() {
        let mgr = Manager::new();
        let m = model(
            RoutingScheme::Ecmp,
            FailureModel::bounded(Ratio::new(1, 100), 1),
        );
        let q = Queries::new(&mgr, &m).unwrap();
        assert!(!q.equiv_teleport().unwrap());
    }

    #[test]
    fn f103_is_one_resilient() {
        let mgr = Manager::new();
        let m = model(
            RoutingScheme::F10_3,
            FailureModel::bounded(Ratio::new(1, 100), 1),
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
        let failure = FailureModel::independent(Ratio::new(1, 8));
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
            NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureModel::none()).with_hop_cap(8);
        let q = Queries::new(&mgr, &m).unwrap();
        let src = m.topo.find("edge1_0").unwrap();
        let stats = q.hop_stats(src);
        assert!((stats.delivery - 1.0).abs() < 1e-9);
        // Cross-pod shortest paths are 4 hops.
        assert!((stats.expected_hops - 4.0).abs() < 1e-9);
        assert!(stats.cdf[3].1 < 1e-9);
        assert!((stats.cdf[4].1 - 1.0).abs() < 1e-9);
    }
}

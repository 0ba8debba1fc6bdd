//! Verification queries over compiled FDDs: output distributions,
//! program equivalence (`≡`), refinement (`≤`), and expectations.
//!
//! Equivalence and refinement enumerate the input equivalence classes of
//! both diagrams (dynamic domain reduction) and compare the induced output
//! distributions exactly, using rational arithmetic throughout. This is
//! complete: two guarded programs are equivalent iff they agree on every
//! input class (Corollary 3.2 specialised to single packets).

use crate::{Fdd, Manager, SymPkt};
use mcnetkat_core::Packet;
use mcnetkat_num::Ratio;
use std::collections::BTreeMap;

/// A distribution over single-packet outcomes (`None` = dropped),
/// with exact probabilities.
pub type OutputDist = BTreeMap<Option<Packet>, Ratio>;

/// A distribution over symbolic outcomes for one input class.
pub type SymOutputDist = BTreeMap<Option<SymPkt>, Ratio>;

impl Manager {
    /// The output distribution of `p` on the concrete input packet `pk`.
    pub fn output_dist(&self, p: Fdd, pk: &Packet) -> OutputDist {
        let mut out = OutputDist::new();
        for (action, r) in self.eval_shared(p, pk).iter() {
            let slot = out.entry(action.apply(pk)).or_insert_with(Ratio::zero);
            *slot += r;
        }
        out
    }

    /// The symbolic output distribution of `p` on an input class.
    pub fn sym_output_dist(&self, p: Fdd, class: &SymPkt) -> SymOutputDist {
        let mut out = SymOutputDist::new();
        for (action, r) in self.eval_sym_shared(p, class).iter() {
            let slot = out.entry(class.apply(action)).or_insert_with(Ratio::zero);
            *slot += r;
        }
        out
    }

    /// Probability that `p` on input `pk` delivers a packet satisfying
    /// `accept`.
    pub fn prob_matching(&self, p: Fdd, pk: &Packet, accept: &mcnetkat_core::Pred) -> Ratio {
        self.output_dist(p, pk)
            .into_iter()
            .filter_map(|(o, r)| match o {
                Some(out) if accept.eval(&out) => Some(r),
                _ => None,
            })
            .sum()
    }

    /// Probability that `p` delivers (does not drop) the input packet.
    pub fn prob_delivery(&self, p: Fdd, pk: &Packet) -> Ratio {
        self.output_dist(p, pk)
            .into_iter()
            .filter_map(|(o, r)| o.is_some().then_some(r))
            .sum()
    }

    /// Expected value of `f` over the output distribution on `pk`.
    pub fn expectation(&self, p: Fdd, pk: &Packet, f: impl Fn(Option<&Packet>) -> f64) -> f64 {
        self.output_dist(p, pk)
            .into_iter()
            .map(|(o, r)| f(o.as_ref()) * r.to_f64())
            .sum()
    }

    /// The joint input classes of two diagrams.
    fn joint_classes(&self, p: Fdd, q: Fdd) -> Vec<SymPkt> {
        let mut dom = self.domain(p);
        dom.merge(&self.domain(q));
        dom.input_classes()
    }

    /// Exact program equivalence `p ≡ q` (Corollary 3.2).
    ///
    /// Hash-consing makes identical diagrams pointer-equal, which is the
    /// fast path; otherwise every joint input class is compared.
    pub fn equiv(&self, p: Fdd, q: Fdd) -> bool {
        if p == q {
            return true;
        }
        self.joint_classes(p, q)
            .iter()
            .all(|class| self.sym_output_dist(p, class) == self.sym_output_dist(q, class))
    }

    /// Probabilistic refinement `p ≤ q`: for every input class and every
    /// *delivered* output, `q` assigns at least as much probability as `p`
    /// (the order used for `M̂(p) < M̂(p̂)` in §2/§7).
    pub fn less_eq(&self, p: Fdd, q: Fdd) -> bool {
        self.joint_classes(p, q).iter().all(|class| {
            let dp = self.sym_output_dist(p, class);
            let dq = self.sym_output_dist(q, class);
            dp.iter().all(|(o, rp)| match o {
                None => true,
                Some(_) => dq.get(o).map_or(rp.is_zero(), |rq| rp <= rq),
            })
        })
    }

    /// Strict refinement: `p ≤ q` and not `q ≤ p`.
    pub fn less(&self, p: Fdd, q: Fdd) -> bool {
        self.less_eq(p, q) && !self.less_eq(q, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Field, Pred, Prog};

    fn mgr_and_fields() -> (Manager, Field, Field) {
        (Manager::new(), Field::named("qr_f"), Field::named("qr_g"))
    }

    #[test]
    fn output_dist_concrete() {
        let (mgr, f, _) = mgr_and_fields();
        let p = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::drop());
        let fdd = mgr.compile(&p).unwrap();
        let d = mgr.output_dist(fdd, &Packet::new());
        assert_eq!(d[&Some(Packet::new().with(f, 1))], Ratio::new(1, 3));
        assert_eq!(d[&None], Ratio::new(2, 3));
        assert_eq!(mgr.prob_delivery(fdd, &Packet::new()), Ratio::new(1, 3));
    }

    #[test]
    fn equivalence_of_syntactically_different_programs() {
        let (mgr, f, g) = mgr_and_fields();
        // f<-1; g<-2  ≡  g<-2; f<-1
        let a = mgr
            .compile(&Prog::assign(f, 1).seq(Prog::assign(g, 2)))
            .unwrap();
        let b = mgr
            .compile(&Prog::assign(g, 2).seq(Prog::assign(f, 1)))
            .unwrap();
        assert!(mgr.equiv(a, b));
    }

    #[test]
    fn equivalence_distinguishes_programs() {
        let (mgr, f, _) = mgr_and_fields();
        let a = mgr.compile(&Prog::assign(f, 1)).unwrap();
        let b = mgr.compile(&Prog::assign(f, 2)).unwrap();
        assert!(!mgr.equiv(a, b));
    }

    #[test]
    fn choice_probabilities_matter_for_equiv() {
        let (mgr, f, _) = mgr_and_fields();
        let p = |r: Ratio| Prog::choice2(Prog::assign(f, 1), r, Prog::assign(f, 2));
        let a = mgr.compile(&p(Ratio::new(1, 2))).unwrap();
        let b = mgr.compile(&p(Ratio::new(1, 2))).unwrap();
        let c = mgr.compile(&p(Ratio::new(1, 3))).unwrap();
        assert!(mgr.equiv(a, b));
        assert!(!mgr.equiv(a, c));
    }

    #[test]
    fn mod_to_tested_value_equals_skip_on_that_class() {
        let (mgr, f, _) = mgr_and_fields();
        // if f=1 then f<-1 else drop ≡ f=1 (filter)
        let a = mgr
            .compile(&Prog::ite(
                Pred::test(f, 1),
                Prog::assign(f, 1),
                Prog::drop(),
            ))
            .unwrap();
        let b = mgr.compile(&Prog::test(f, 1)).unwrap();
        assert!(mgr.equiv(a, b));
    }

    #[test]
    fn refinement_orders_lossy_programs() {
        let (mgr, f, _) = mgr_and_fields();
        let flaky = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::drop());
        let reliable = Prog::assign(f, 1);
        let a = mgr.compile(&flaky).unwrap();
        let b = mgr.compile(&reliable).unwrap();
        assert!(mgr.less_eq(a, b));
        assert!(!mgr.less_eq(b, a));
        assert!(mgr.less(a, b));
        assert!(mgr.less_eq(mgr.fail(), a));
    }

    #[test]
    fn refinement_is_reflexive() {
        let (mgr, f, _) = mgr_and_fields();
        let a = mgr
            .compile(&Prog::choice2(
                Prog::assign(f, 1),
                Ratio::new(1, 4),
                Prog::drop(),
            ))
            .unwrap();
        assert!(mgr.less_eq(a, a));
        assert!(!mgr.less(a, a));
    }

    #[test]
    fn incomparable_programs() {
        let (mgr, f, _) = mgr_and_fields();
        let a = mgr.compile(&Prog::assign(f, 1)).unwrap();
        let b = mgr.compile(&Prog::assign(f, 2)).unwrap();
        assert!(!mgr.less_eq(a, b));
        assert!(!mgr.less_eq(b, a));
    }

    #[test]
    fn expectation_weights_outputs() {
        let (mgr, f, _) = mgr_and_fields();
        let p = Prog::choice2(Prog::assign(f, 10), Ratio::new(1, 2), Prog::assign(f, 20));
        let fdd = mgr.compile(&p).unwrap();
        let e = mgr.expectation(fdd, &Packet::new(), |o| {
            o.map_or(0.0, |pk| pk.get(f) as f64)
        });
        assert!((e - 15.0).abs() < 1e-12);
    }
}

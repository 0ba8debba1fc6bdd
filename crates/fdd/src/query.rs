//! Verification queries over compiled FDDs: output distributions,
//! program equivalence (`≡`), refinement (`≤`), and expectations.
//!
//! Equivalence and refinement are decided by one read-only descent over
//! the pair of diagrams, the way BDD `apply` walks two operands (Bryant
//! 1986), under a single lock acquisition and without building a node.
//! At a pair `(u, v)` the descent splits on the smaller top test
//! `f = w`: the true side follows each diagram's false edges through its
//! `f` tests until one tests `f = w` (taking its true edge) or the field
//! changes; the false side steps past `f = w` only where it is a node's
//! top test. Since the split is always the minimum test, both sides are
//! existing nodes. The descent iterates along false edges and recurses
//! only on true edges, so its stack depth is bounded by the number of
//! fields, not by the length of a test chain.
//!
//! A leaf pair is compared under the path's positive tests, because an
//! action is not canonical there: `f←w` below `f = w` is `skip` (the
//! `mod_to_tested_value_equals_skip_on_that_class` test). The descent
//! carries the positive tests on fields some reachable leaf writes (the
//! only ones a leaf can observe) and at a leaf drops every modification
//! `g←w` the context already holds before comparing. When no action
//! writes a tested value, the leaves compare as they are: interned
//! distributions are equal iff their ids are, and refinement is a
//! merge-walk over the two sorted supports. The verdict is the
//! conjunction of the leaf pairs' verdicts, so each node pair is walked
//! once per context (the memo is a visited set), and the walk stops as
//! soon as the verdict is false.
//!
//! This is exact. On the input class that fixes the path's positive
//! fields and leaves every other field `*`, distinct normalised actions
//! yield distinct outputs, so comparing normalised distributions is
//! comparing that class's output distributions. Every other class on the
//! path only merges outputs (a delivered output into a delivered one),
//! and both `=` and the entrywise `≤` on delivered outputs survive
//! merging. The paths partition the input classes, so the descent
//! agrees with comparing every class (Corollary 3.2 specialised to single
//! packets) — the enumeration the differential tests keep as an oracle.
//!
//! # The case-spine index
//!
//! A network model compiles to a diagram whose top is a case on the
//! switch field: one `sw = v` test per switch along the false edges.
//! [`Manager::case_index`] walks that spine once and maps each tested
//! value to its true child (its *arm*); the node where the spine ends is
//! `rest`. A packet whose value has an arm starts evaluation there, any
//! other value (or a wildcard) starts at `rest`, and the leaf it reaches
//! is the one a walk from the root reaches: on an ordered diagram every
//! other spine test fails for that packet, and nothing below an arm or at
//! `rest` tests the field again. [`Manager::summarise_each`] answers a
//! list of packets `{field = v}` this way under one lock, summarising
//! each distinct leaf once; the aggregate network queries (minimum and
//! mean delivery, hop-count statistics) are built on it, and the `while`
//! loop exploration (`loops::compile_while`) starts each state at its arm.
//! [`Manager::restrict_eq`] and [`Manager::restrict_ne`] on a diagram
//! topped by a test of the restricted field answer from the same index,
//! kept in a bounded memo (`case_spine` in [`Manager::op_cache_stats`]):
//! the arm for the value, or `rest` (resp. the diagram itself) when the
//! spine has no arm for it.

use crate::manager::{DistId, Walker};
use crate::{Action, ActionDist, Fdd, Manager, SymPkt};
use fxhash::{FxHashMap, FxHashSet};
use mcnetkat_core::{Field, Packet, Value};
use mcnetkat_num::Ratio;
use std::cmp::Ordering;
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

    /// The probability that `p` delivers the packet `{field = v}` (every
    /// other field 0), for each `v` in `values`: [`Manager::prob_delivery`]
    /// on each, in one walk (see [`Manager::summarise_each`]).
    pub fn prob_delivery_each(
        &self,
        p: Fdd,
        field: Field,
        values: impl IntoIterator<Item = Value>,
    ) -> Vec<Ratio> {
        self.summarise_each(p, field, values, |d| {
            d.iter()
                .filter(|(a, _)| **a != Action::Drop)
                .map(|(_, r)| r)
                .sum()
        })
    }

    /// `summary` of the leaf distribution `p` yields on the packet
    /// `{field = v}` (every other field 0), for each `v` in `values`.
    ///
    /// One lock and one walk: the case spine of `p` is indexed once, each
    /// packet starts at its arm (module docs), and `summary` runs once per
    /// distinct leaf. It sees the leaf's actions, not the packet, so it
    /// must not depend on `field`'s input value.
    pub fn summarise_each<T: Clone>(
        &self,
        p: Fdd,
        field: Field,
        values: impl IntoIterator<Item = Value>,
        mut summary: impl FnMut(&ActionDist) -> T,
    ) -> Vec<T> {
        let walk = self.walker();
        let index = walk.case_index(p);
        let mut memo: FxHashMap<DistId, T> = FxHashMap::default();
        let mut pk = Packet::new();
        values
            .into_iter()
            .map(|v| {
                pk.set(field, v);
                let (id, d) = walk.leaf(walk.descend(index.start(&pk), |f, w| pk.matches(f, w)));
                memo.entry(id).or_insert_with(|| summary(d)).clone()
            })
            .collect()
    }

    /// Indexes the case spine at the top of `p` in one walk along its
    /// false edges (module docs).
    pub fn case_index(&self, p: Fdd) -> CaseIndex {
        self.walker().case_index(p)
    }

    /// Expected value of `f` over the output distribution on `pk`.
    pub fn expectation(&self, p: Fdd, pk: &Packet, f: impl Fn(Option<&Packet>) -> f64) -> f64 {
        self.output_dist(p, pk)
            .into_iter()
            .map(|(o, r)| f(o.as_ref()) * r.to_f64())
            .sum()
    }

    /// Exact program equivalence `p ≡ q` (Corollary 3.2), decided by the
    /// pair descent (module docs).
    pub fn equiv(&self, p: Fdd, q: Fdd) -> bool {
        self.decide(p, q, Relation::Equiv, HOLDS) == HOLDS
    }

    /// Probabilistic refinement `p ≤ q`: for every input class and every
    /// *delivered* output, `q` assigns at least as much probability as `p`
    /// (the order used for `M̂(p) < M̂(p̂)` in §2/§7).
    pub fn less_eq(&self, p: Fdd, q: Fdd) -> bool {
        self.decide(p, q, Relation::Refine, HOLDS) == HOLDS
    }

    /// Strict refinement: `p ≤ q` and not `q ≤ p`, both decided in one
    /// descent.
    pub fn less(&self, p: Fdd, q: Fdd) -> bool {
        self.decide(p, q, Relation::Refine, HOLDS | CONVERSE) == HOLDS
    }

    /// Runs the pair descent for the verdict bits in `want`.
    fn decide(&self, p: Fdd, q: Fdd, relation: Relation, want: u8) -> u8 {
        if p == q {
            return want;
        }
        let mut descent = Descent::new(self.walker(), p, q, relation, want);
        descent.pair(p, q, 0);
        descent.verdict
    }
}

/// The case spine at the top of a diagram (module docs): the `field = v`
/// tests along the false edges from the root, where `field` is the root's
/// top field, each mapped to its true child.
#[derive(Clone, Debug)]
pub struct CaseIndex {
    /// The root's top field; `None` when the root is a leaf.
    pub(crate) field: Option<Field>,
    /// `(v, true child of the test field = v)`, ascending in `v` (the order
    /// the false edges visit them in).
    pub(crate) arms: Vec<(Value, Fdd)>,
    /// The first node along the spine that does not test `field`.
    pub(crate) rest: Fdd,
}

impl CaseIndex {
    /// The field the spine tests (`None` for a leaf root).
    pub fn field(&self) -> Option<Field> {
        self.field
    }

    /// The true child of the spine's `field = v` test, if it has one.
    pub fn arm(&self, v: Value) -> Option<Fdd> {
        self.arm_from(0, v)
    }

    /// [`CaseIndex::arm`] on the spine's suffix from its `from`-th arm on:
    /// the spine of the node that tests the `from`-th value.
    pub(crate) fn arm_from(&self, from: usize, v: Value) -> Option<Fdd> {
        let arms = &self.arms[from..];
        arms.binary_search_by_key(&v, |&(w, _)| w)
            .ok()
            .map(|ix| arms[ix].1)
    }

    /// Where the spine ends: the start for every value without an arm.
    pub fn rest(&self) -> Fdd {
        self.rest
    }

    /// The node at which evaluating on the concrete packet `pk` can start:
    /// it reaches the leaf a walk from the root reaches.
    pub fn start(&self, pk: &Packet) -> Fdd {
        self.start_at(self.field.map(|f| pk.get(f)))
    }

    /// [`CaseIndex::start`] for a symbolic packet: a wildcard starts at
    /// [`CaseIndex::rest`], since it fails every test.
    pub fn start_sym(&self, pk: &SymPkt) -> Fdd {
        self.start_at(self.field.and_then(|f| pk.get(f)))
    }

    fn start_at(&self, v: Option<Value>) -> Fdd {
        v.and_then(|v| self.arm(v)).unwrap_or(self.rest)
    }
}

impl Walker<'_> {
    /// The leaf the symbolic packet `pk` reaches, starting at its arm of
    /// `spine`: its distribution and the distribution's interned id.
    pub(crate) fn eval_sym_at(&self, spine: &CaseIndex, pk: &SymPkt) -> (DistId, &ActionDist) {
        self.leaf(self.descend(spine.start_sym(pk), |f, v| pk.test(f, v)))
    }
}

/// The relation a [`Descent`] decides. Its verdicts are bit sets: bit
/// [`HOLDS`] for `p ≡ q` or `p ≤ q`, bit [`CONVERSE`] for `q ≤ p`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Relation {
    Equiv,
    Refine,
}

const HOLDS: u8 = 1;
const CONVERSE: u8 = 2;

/// One equivalence or refinement query's walk over a pair of diagrams
/// (module docs).
///
/// The verdict is the conjunction of every leaf pair's verdict, so a
/// branch pair already visited under the same context adds nothing: the
/// memo is a visited set, and the walk ends as soon as every asked-for
/// bit has failed.
struct Descent<'a> {
    walk: Walker<'a>,
    relation: Relation,
    /// The verdict bits that still hold.
    verdict: u8,
    /// Fields some reachable leaf of either diagram writes: the only
    /// fields whose positive tests a leaf can observe.
    written: FxHashSet<Field>,
    /// The current path's positive tests on written fields, in field
    /// order (true edges only ever go to greater fields).
    path: Vec<(Field, Value)>,
    /// Interned path contexts: context 0 is empty, and `(ctx, f, w)` names
    /// context `ctx` plus `f = w`.
    contexts: FxHashMap<(u32, Field, Value), u32>,
    /// Branch pairs visited, with their context.
    visited: FxHashSet<(Fdd, Fdd, u32)>,
}

impl<'a> Descent<'a> {
    fn new(walk: Walker<'a>, p: Fdd, q: Fdd, relation: Relation, want: u8) -> Descent<'a> {
        let mut written = FxHashSet::default();
        for x in walk.reachable(&[p, q]) {
            if walk.top(x).is_none() {
                for (action, _) in walk.leaf(x).1.iter() {
                    if let Action::Mods(mods) = action {
                        written.extend(mods.iter().map(|&(f, _)| f));
                    }
                }
            }
        }
        Descent {
            walk,
            relation,
            verdict: want,
            written,
            path: Vec::new(),
            contexts: FxHashMap::default(),
            visited: FxHashSet::default(),
        }
    }

    /// Folds the leaf pairs below `(u, v)` under context `ctx` into the
    /// verdict: iterates along the false edges and recurses on each true
    /// side.
    fn pair(&mut self, mut u: Fdd, mut v: Fdd, ctx: u32) {
        while u != v {
            let (f, w) = match (self.walk.top(u), self.walk.top(v)) {
                (None, None) => {
                    self.verdict &= self.leaves(u, v);
                    return;
                }
                (Some(t), None) | (None, Some(t)) => t,
                (Some(s), Some(t)) => s.min(t),
            };
            if !self.visited.insert((u, v, ctx)) {
                return;
            }
            let (hu, hv) = (
                self.walk.cofactor_eq(u, f, w),
                self.walk.cofactor_eq(v, f, w),
            );
            if self.written.contains(&f) {
                let next = self.contexts.len() as u32 + 1;
                let hi_ctx = *self.contexts.entry((ctx, f, w)).or_insert(next);
                self.path.push((f, w));
                self.pair(hu, hv, hi_ctx);
                self.path.pop();
            } else {
                self.pair(hu, hv, ctx);
            }
            if self.verdict == 0 {
                return;
            }
            u = self.walk.cofactor_ne(u, f, w);
            v = self.walk.cofactor_ne(v, f, w);
        }
    }

    /// The verdict on two leaves under the current path.
    fn leaves(&self, u: Fdd, v: Fdd) -> u8 {
        let ((du, a), (dv, b)) = (self.walk.leaf(u), self.walk.leaf(v));
        let tests = &self.path[..];
        if !writes_tested(a, tests) && !writes_tested(b, tests) {
            return match self.relation {
                // Interned: equal distributions have equal ids.
                Relation::Equiv => u8::from(du == dv),
                Relation::Refine => self.refine(
                    || delivers_at_most(a.iter(), b.iter(), &[]),
                    || delivers_at_most(b.iter(), a.iter(), &[]),
                ),
            };
        }
        let (a, b) = (untested(a, tests), untested(b, tests));
        match self.relation {
            Relation::Equiv => u8::from(
                a.len() == b.len()
                    && entries(&a)
                        .zip(entries(&b))
                        .all(|((x, r), (y, s))| cmp_untested(x, y, tests).is_eq() && r == s),
            ),
            Relation::Refine => self.refine(
                || delivers_at_most(entries(&a), entries(&b), tests),
                || delivers_at_most(entries(&b), entries(&a), tests),
            ),
        }
    }

    /// The refinement bits still asked for, each decided only if needed.
    fn refine(&self, holds: impl FnOnce() -> bool, converse: impl FnOnce() -> bool) -> u8 {
        let mut out = 0;
        if self.verdict & HOLDS != 0 && holds() {
            out |= HOLDS;
        }
        if self.verdict & CONVERSE != 0 && converse() {
            out |= CONVERSE;
        }
        out
    }
}

/// Whether some action of `d` writes a value its path already tested.
fn writes_tested(d: &ActionDist, tests: &[(Field, Value)]) -> bool {
    !tests.is_empty()
        && d.iter().any(|(action, _)| match action {
            Action::Drop => false,
            Action::Mods(mods) => mods.iter().any(|m| tests.binary_search(m).is_ok()),
        })
}

/// Orders actions as `Ord` does once every modification in `tests` is
/// dropped from them.
fn cmp_untested(a: &Action, b: &Action, tests: &[(Field, Value)]) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    match (a, b) {
        (Action::Mods(x), Action::Mods(y)) => {
            let kept = |m: &&(Field, Value)| tests.binary_search(m).is_err();
            x.iter().filter(kept).cmp(y.iter().filter(kept))
        }
        _ => a.cmp(b),
    }
}

/// The entries of `d` with the modifications in `tests` dropped, in
/// [`cmp_untested`] order, actions that became equal merged.
fn untested<'d>(d: &'d ActionDist, tests: &[(Field, Value)]) -> Vec<(&'d Action, Ratio)> {
    let mut out: Vec<(&Action, Ratio)> = d.iter().map(|(a, r)| (a, r.clone())).collect();
    out.sort_by(|x, y| cmp_untested(x.0, y.0, tests));
    out.dedup_by(|later, earlier| {
        let same = cmp_untested(later.0, earlier.0, tests).is_eq();
        if same {
            earlier.1 += &later.1;
        }
        same
    });
    out
}

/// Iterates `untested` entries as `ActionDist::iter` does.
fn entries<'x>(d: &'x [(&'x Action, Ratio)]) -> impl Iterator<Item = (&'x Action, &'x Ratio)> {
    d.iter().map(|(x, r)| (*x, r))
}

/// Whether `b` gives every delivering action of `a` at least `a`'s
/// probability, actions compared by [`cmp_untested`]: a merge-walk over
/// the two supports, both sorted in that order.
fn delivers_at_most<'x>(
    mut a: impl Iterator<Item = (&'x Action, &'x Ratio)>,
    b: impl Iterator<Item = (&'x Action, &'x Ratio)>,
    tests: &[(Field, Value)],
) -> bool {
    let mut b = b.peekable();
    a.all(|(x, r)| {
        if *x == Action::Drop {
            return true;
        }
        while b
            .next_if(|&(y, _)| cmp_untested(y, x, tests).is_lt())
            .is_some()
        {}
        matches!(b.peek(), Some(&(y, s)) if cmp_untested(y, x, tests).is_eq() && r <= s)
    })
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
    fn shared_subdiagram_is_judged_per_path() {
        let (mgr, f, g) = mgr_and_fields();
        // Both branches below `f=1 + f=2` share one diagram each side;
        // `f<-1` is skip below `f=1` but not below `f=2`.
        let t = Pred::test(f, 1).or(Pred::test(f, 2));
        let shared = |p: Prog| {
            Prog::ite(
                t.clone(),
                Prog::ite(Pred::test(g, 0), p, Prog::drop()),
                Prog::drop(),
            )
        };
        let a = mgr.compile(&shared(Prog::assign(f, 1))).unwrap();
        let b = mgr.compile(&shared(Prog::skip())).unwrap();
        assert!(!mgr.equiv(a, b));
        assert!(!mgr.less_eq(a, b));
        assert!(!mgr.less_eq(b, a));
        let below_one = |p: Prog| Prog::ite(Pred::test(f, 1), p, Prog::drop());
        let a = mgr.compile(&below_one(shared(Prog::assign(f, 1)))).unwrap();
        let b = mgr.compile(&below_one(shared(Prog::skip()))).unwrap();
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

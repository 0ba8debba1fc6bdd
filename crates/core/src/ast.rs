//! Abstract syntax of ProbNetKAT (Figure 2) plus the guarded derived forms
//! of §2/§5: conditionals, while loops, disjoint `case` branching, and local
//! variables.

use crate::{Field, Value};
use mcnetkat_num::Ratio;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A ProbNetKAT predicate.
///
/// Predicates form a Boolean algebra; they filter packet sets without
/// producing randomness.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// `drop` — false.
    False,
    /// `skip` — true.
    True,
    /// `f = n` — field test.
    Test(Field, Value),
    /// `t & u` — disjunction.
    Or(Arc<Pred>, Arc<Pred>),
    /// `t ; u` — conjunction.
    And(Arc<Pred>, Arc<Pred>),
    /// `¬t` — negation.
    Not(Arc<Pred>),
}

/// The disjunction of `preds` as a balanced tree (`drop` if empty).
fn any_balanced(preds: &[Pred]) -> Pred {
    match preds {
        [] => Pred::False,
        [p] => p.clone(),
        _ => {
            let (l, r) = preds.split_at(preds.len() / 2);
            any_balanced(l).or(any_balanced(r))
        }
    }
}

impl Pred {
    /// The always-false predicate `drop`.
    pub fn f() -> Pred {
        Pred::False
    }

    /// The always-true predicate `skip`.
    pub fn t() -> Pred {
        Pred::True
    }

    /// The field test `f = n`.
    pub fn test(f: Field, n: Value) -> Pred {
        Pred::Test(f, n)
    }

    /// Disjunction `self & other` (NetKAT writes union for "or").
    pub fn or(self, other: Pred) -> Pred {
        match (&self, &other) {
            (Pred::True, _) | (_, Pred::False) => self,
            (Pred::False, _) | (_, Pred::True) => other,
            _ => Pred::Or(Arc::new(self), Arc::new(other)),
        }
    }

    /// Conjunction `self ; other`.
    pub fn and(self, other: Pred) -> Pred {
        match (&self, &other) {
            (Pred::False, _) | (_, Pred::True) => self,
            (Pred::True, _) | (_, Pred::False) => other,
            _ => Pred::And(Arc::new(self), Arc::new(other)),
        }
    }

    /// Negation `¬self`.
    ///
    /// Deliberately named like the paper's `¬` combinator rather than
    /// routed through `std::ops::Not`: predicates are consumed by value in
    /// builder chains (`t.and(u).not()`), and `!t` syntax would read as
    /// boolean evaluation, not AST construction.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        match self {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => inner.as_ref().clone(),
            p => Pred::Not(Arc::new(p)),
        }
    }

    /// Disjunction of a list of predicates (false if empty), as a
    /// balanced tree: compiling it merges diagrams of equal size, so a
    /// disjunction of `n` disjoint tests builds O(n log n) nodes where a
    /// left fold rebuilds the growing chain `n` times.
    pub fn any<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        any_balanced(&preds.into_iter().collect::<Vec<_>>())
    }

    /// Conjunction of a list of predicates (true if empty).
    pub fn all<I: IntoIterator<Item = Pred>>(preds: I) -> Pred {
        preds.into_iter().fold(Pred::True, Pred::and)
    }

    /// Evaluates the predicate on a single packet.
    pub fn eval(&self, pk: &crate::Packet) -> bool {
        match self {
            Pred::False => false,
            Pred::True => true,
            Pred::Test(f, n) => pk.matches(*f, *n),
            Pred::Or(a, b) => a.eval(pk) || b.eval(pk),
            Pred::And(a, b) => a.eval(pk) && b.eval(pk),
            Pred::Not(a) => !a.eval(pk),
        }
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Pred::False | Pred::True | Pred::Test(..) => 1,
            Pred::Or(a, b) | Pred::And(a, b) => 1 + a.size() + b.size(),
            Pred::Not(a) => 1 + a.size(),
        }
    }

    fn collect_fields(&self, out: &mut BTreeMap<Field, Vec<Value>>) {
        match self {
            Pred::False | Pred::True => {}
            Pred::Test(f, n) => out.entry(*f).or_default().push(*n),
            Pred::Or(a, b) | Pred::And(a, b) => {
                a.collect_fields(out);
                b.collect_fields(out);
            }
            Pred::Not(a) => a.collect_fields(out),
        }
    }
}

/// A ProbNetKAT program in the guarded, history-free fragment — plus the
/// unguarded operators `Union` and `Star` so the reference interpreter can
/// exercise the full Figure 2 syntax in tests.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Prog {
    /// A predicate used as a filter.
    Filter(Pred),
    /// `f <- n` — assignment.
    Assign(Field, Value),
    /// `p & q` — parallel composition (not in the guarded fragment).
    Union(Arc<Prog>, Arc<Prog>),
    /// `p ; q` — sequential composition.
    Seq(Arc<Prog>, Arc<Prog>),
    /// N-ary probabilistic choice `p1 @ r1 ⊕ … ⊕ pn @ rn`.
    ///
    /// Invariant (checked by [`Prog::choice`]): probabilities are in `[0,1]`
    /// and sum to 1.
    Choice(Arc<Vec<(Prog, Ratio)>>),
    /// `p*` — iteration (not in the guarded fragment).
    Star(Arc<Prog>),
    /// `if t then p else q`.
    If(Pred, Arc<Prog>, Arc<Prog>),
    /// `while t do p`.
    While(Pred, Arc<Prog>),
    /// `var f <- n in p` — a local field, erased to 0 on scope exit.
    Local(Field, Value, Arc<Prog>),
}

impl Prog {
    /// The program `drop`.
    pub fn drop() -> Prog {
        Prog::Filter(Pred::False)
    }

    /// The program `skip`.
    pub fn skip() -> Prog {
        Prog::Filter(Pred::True)
    }

    /// The filter `t`.
    pub fn filter(t: Pred) -> Prog {
        Prog::Filter(t)
    }

    /// The test `f = n` as a program.
    pub fn test(f: Field, n: Value) -> Prog {
        Prog::Filter(Pred::test(f, n))
    }

    /// The assignment `f <- n`.
    pub fn assign(f: Field, n: Value) -> Prog {
        Prog::Assign(f, n)
    }

    /// Sequential composition `self ; other`, simplifying units.
    pub fn seq(self, other: Prog) -> Prog {
        match (&self, &other) {
            (Prog::Filter(Pred::True), _) => other,
            (_, Prog::Filter(Pred::True)) => self,
            (Prog::Filter(Pred::False), _) => Prog::drop(),
            _ => Prog::Seq(Arc::new(self), Arc::new(other)),
        }
    }

    /// Sequences a list of programs (skip if empty).
    pub fn seq_all<I: IntoIterator<Item = Prog>>(progs: I) -> Prog {
        progs.into_iter().fold(Prog::skip(), Prog::seq)
    }

    /// Parallel composition `self & other` (leaves the guarded fragment).
    pub fn union(self, other: Prog) -> Prog {
        Prog::Union(Arc::new(self), Arc::new(other))
    }

    /// Binary probabilistic choice `self ⊕_r other`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not in `[0, 1]`.
    pub fn choice2(self, r: Ratio, other: Prog) -> Prog {
        assert!(r.is_probability(), "choice probability out of range: {r}");
        let complement = Ratio::one() - &r;
        Prog::choice(vec![(self, r), (other, complement)])
    }

    /// N-ary probabilistic choice.
    ///
    /// # Panics
    ///
    /// Panics if the branch list is empty, any probability is outside
    /// `[0, 1]`, or the probabilities do not sum to 1.
    pub fn choice(branches: Vec<(Prog, Ratio)>) -> Prog {
        assert!(!branches.is_empty(), "empty probabilistic choice");
        let total: Ratio = branches.iter().map(|(_, r)| r.clone()).sum();
        assert!(
            total == Ratio::one(),
            "choice probabilities sum to {total}, not 1"
        );
        assert!(
            branches.iter().all(|(_, r)| r.is_probability()),
            "choice probability out of range"
        );
        if branches.len() == 1 {
            return branches.into_iter().next().unwrap().0;
        }
        Prog::Choice(Arc::new(branches))
    }

    /// Uniform choice between the given programs.
    ///
    /// # Panics
    ///
    /// Panics if `progs` is empty.
    pub fn uniform(progs: Vec<Prog>) -> Prog {
        assert!(!progs.is_empty(), "uniform choice over nothing");
        let n = progs.len() as i64;
        Prog::choice(
            progs
                .into_iter()
                .map(|p| (p, Ratio::new(1, n)))
                .collect::<Vec<_>>(),
        )
    }

    /// Iteration `self*` (leaves the guarded fragment).
    pub fn star(self) -> Prog {
        Prog::Star(Arc::new(self))
    }

    /// The conditional `if t then p else q`.
    pub fn ite(t: Pred, p: Prog, q: Prog) -> Prog {
        match t {
            Pred::True => p,
            Pred::False => q,
            t => Prog::If(t, Arc::new(p), Arc::new(q)),
        }
    }

    /// The loop `while t do p`.
    pub fn while_(t: Pred, p: Prog) -> Prog {
        match t {
            Pred::False => Prog::skip(),
            t => Prog::While(t, Arc::new(p)),
        }
    }

    /// The `do p while t` loop used by the case study:
    /// `p ; while t do p`.
    pub fn do_while(p: Prog, t: Pred) -> Prog {
        p.clone().seq(Prog::while_(t, p))
    }

    /// N-ary disjoint `case` branching (§6 "Parallel speedup") with a final
    /// default. Semantically a cascade of conditionals; the FDD backend
    /// compiles the branches in parallel.
    pub fn case(branches: Vec<(Pred, Prog)>, default: Prog) -> Prog {
        branches
            .into_iter()
            .rev()
            .fold(default, |acc, (t, p)| Prog::ite(t, p, acc))
    }

    /// Local variable `var f <- n in p`, desugarable to `f<-n ; p ; f<-0`.
    pub fn local(f: Field, n: Value, p: Prog) -> Prog {
        Prog::Local(f, n, Arc::new(p))
    }

    /// Removes derived forms, yielding a program built only from Figure 2
    /// core syntax (filters, assignments, union, seq, choice, star).
    ///
    /// `if`/`while`/`case` become guarded union and iteration; locals become
    /// the assign/erase sandwich.
    pub fn desugar(&self) -> Prog {
        match self {
            Prog::Filter(_) | Prog::Assign(..) => self.clone(),
            Prog::Union(p, q) => Prog::Union(Arc::new(p.desugar()), Arc::new(q.desugar())),
            Prog::Seq(p, q) => Prog::Seq(Arc::new(p.desugar()), Arc::new(q.desugar())),
            Prog::Choice(branches) => Prog::Choice(Arc::new(
                branches
                    .iter()
                    .map(|(p, r)| (p.desugar(), r.clone()))
                    .collect(),
            )),
            Prog::Star(p) => Prog::Star(Arc::new(p.desugar())),
            Prog::If(t, p, q) => {
                // t;p & ¬t;q
                let left = Prog::filter(t.clone()).seq(p.desugar());
                let right = Prog::filter(t.clone().not()).seq(q.desugar());
                left.union(right)
            }
            Prog::While(t, p) => {
                // (t;p)* ; ¬t
                Prog::filter(t.clone())
                    .seq(p.desugar())
                    .star()
                    .seq(Prog::filter(t.clone().not()))
            }
            Prog::Local(f, n, p) => Prog::assign(*f, *n)
                .seq(p.desugar())
                .seq(Prog::assign(*f, 0)),
        }
    }

    /// Returns `true` if the program stays within the guarded fragment
    /// (no `Union`, no `Star`) that the McNetKAT compiler accepts.
    pub fn is_guarded(&self) -> bool {
        match self {
            Prog::Filter(_) | Prog::Assign(..) => true,
            Prog::Union(..) | Prog::Star(..) => false,
            Prog::Seq(p, q) => p.is_guarded() && q.is_guarded(),
            Prog::Choice(branches) => branches.iter().all(|(p, _)| p.is_guarded()),
            Prog::If(_, p, q) => p.is_guarded() && q.is_guarded(),
            Prog::While(_, p) => p.is_guarded(),
            Prog::Local(_, _, p) => p.is_guarded(),
        }
    }

    /// Returns `true` if the program contains no loop (`While`/`Star`).
    pub fn is_loop_free(&self) -> bool {
        match self {
            Prog::Filter(_) | Prog::Assign(..) => true,
            Prog::Star(..) => false,
            Prog::While(..) => false,
            Prog::Union(p, q) | Prog::Seq(p, q) => p.is_loop_free() && q.is_loop_free(),
            Prog::Choice(branches) => branches.iter().all(|(p, _)| p.is_loop_free()),
            Prog::If(_, p, q) => p.is_loop_free() && q.is_loop_free(),
            Prog::Local(_, _, p) => p.is_loop_free(),
        }
    }

    /// Number of AST nodes (a rough program-size metric for benchmarks).
    pub fn size(&self) -> usize {
        match self {
            Prog::Filter(t) => t.size(),
            Prog::Assign(..) => 1,
            Prog::Union(p, q) | Prog::Seq(p, q) => 1 + p.size() + q.size(),
            Prog::Choice(branches) => 1 + branches.iter().map(|(p, _)| p.size()).sum::<usize>(),
            Prog::Star(p) => 1 + p.size(),
            Prog::If(t, p, q) => 1 + t.size() + p.size() + q.size(),
            Prog::While(t, p) => 1 + t.size() + p.size(),
            Prog::Local(_, _, p) => 2 + p.size(),
        }
    }

    /// The fields the program mentions, with every value each field is
    /// tested against or assigned. Used for PRISM variable bounds and for
    /// sizing symbolic-packet domains.
    pub fn field_values(&self) -> BTreeMap<Field, Vec<Value>> {
        let mut out = BTreeMap::new();
        self.collect_fields(&mut out);
        for values in out.values_mut() {
            values.sort_unstable();
            values.dedup();
        }
        out
    }

    fn collect_fields(&self, out: &mut BTreeMap<Field, Vec<Value>>) {
        match self {
            Prog::Filter(t) => t.collect_fields(out),
            Prog::Assign(f, n) => out.entry(*f).or_default().push(*n),
            Prog::Union(p, q) | Prog::Seq(p, q) => {
                p.collect_fields(out);
                q.collect_fields(out);
            }
            Prog::Choice(branches) => {
                for (p, _) in branches.iter() {
                    p.collect_fields(out);
                }
            }
            Prog::Star(p) => p.collect_fields(out),
            Prog::If(t, p, q) => {
                t.collect_fields(out);
                p.collect_fields(out);
                q.collect_fields(out);
            }
            Prog::While(t, p) => {
                t.collect_fields(out);
                p.collect_fields(out);
            }
            Prog::Local(f, n, p) => {
                out.entry(*f).or_default().push(*n);
                out.entry(*f).or_default().push(0);
                p.collect_fields(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields() -> (Field, Field) {
        (Field::named("ast_sw"), Field::named("ast_pt"))
    }

    #[test]
    fn smart_constructors_simplify() {
        let (sw, _) = fields();
        assert_eq!(Pred::test(sw, 1).or(Pred::t()), Pred::True);
        assert_eq!(Pred::test(sw, 1).and(Pred::f()), Pred::False);
        assert_eq!(Pred::t().not(), Pred::False);
        assert_eq!(Pred::test(sw, 1).not().not(), Pred::test(sw, 1));
        assert_eq!(Prog::skip().seq(Prog::assign(sw, 1)), Prog::assign(sw, 1));
        assert_eq!(Prog::drop().seq(Prog::assign(sw, 1)), Prog::drop());
    }

    #[test]
    fn choice_validates_probabilities() {
        let (sw, _) = fields();
        let p = Prog::assign(sw, 1);
        let q = Prog::assign(sw, 2);
        let ok = Prog::choice2(p.clone(), Ratio::new(1, 2), q.clone());
        assert!(matches!(ok, Prog::Choice(_)));
        let bad = std::panic::catch_unwind(|| {
            Prog::choice(vec![
                (p.clone(), Ratio::new(1, 2)),
                (q.clone(), Ratio::new(1, 3)),
            ])
        });
        assert!(bad.is_err());
    }

    #[test]
    fn uniform_splits_evenly() {
        let (sw, _) = fields();
        let progs = vec![
            Prog::assign(sw, 1),
            Prog::assign(sw, 2),
            Prog::assign(sw, 3),
        ];
        match Prog::uniform(progs) {
            Prog::Choice(branches) => {
                assert!(branches.iter().all(|(_, r)| *r == Ratio::new(1, 3)));
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn guardedness() {
        let (sw, pt) = fields();
        let guarded = Prog::ite(
            Pred::test(sw, 1),
            Prog::while_(Pred::test(pt, 0), Prog::assign(pt, 1)),
            Prog::drop(),
        );
        assert!(guarded.is_guarded());
        assert!(!guarded.desugar().is_guarded());
        assert!(!Prog::skip().union(Prog::drop()).is_guarded());
        assert!(!Prog::skip().star().is_guarded());
    }

    #[test]
    fn desugar_if_shape() {
        let (sw, pt) = fields();
        let p = Prog::ite(Pred::test(sw, 1), Prog::assign(pt, 2), Prog::drop());
        match p.desugar() {
            Prog::Union(left, _) => match left.as_ref() {
                Prog::Seq(f, _) => assert_eq!(**f, Prog::test(sw, 1)),
                other => panic!("unexpected left branch {other:?}"),
            },
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn case_is_conditional_cascade() {
        let (sw, pt) = fields();
        let p = Prog::case(
            vec![
                (Pred::test(sw, 1), Prog::assign(pt, 1)),
                (Pred::test(sw, 2), Prog::assign(pt, 2)),
            ],
            Prog::drop(),
        );
        match p {
            Prog::If(t, _, els) => {
                assert_eq!(t, Pred::test(sw, 1));
                assert!(matches!(els.as_ref(), Prog::If(..)));
            }
            other => panic!("expected if, got {other:?}"),
        }
    }

    #[test]
    fn field_values_collects_tests_and_mods() {
        let (sw, pt) = fields();
        let p = Prog::ite(Pred::test(sw, 1), Prog::assign(pt, 2), Prog::assign(pt, 3));
        let fv = p.field_values();
        assert_eq!(fv[&sw], vec![1]);
        assert_eq!(fv[&pt], vec![2, 3]);
    }

    #[test]
    fn size_counts_nodes() {
        let (sw, pt) = fields();
        assert_eq!(Prog::assign(sw, 1).size(), 1);
        let p = Prog::assign(sw, 1).seq(Prog::assign(pt, 2));
        assert_eq!(p.size(), 3);
    }

    #[test]
    fn loop_freedom() {
        let (sw, _) = fields();
        assert!(Prog::assign(sw, 1).is_loop_free());
        assert!(!Prog::while_(Pred::test(sw, 1), Prog::assign(sw, 2)).is_loop_free());
    }
}

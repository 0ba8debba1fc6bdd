//! Differential testing: the production FDD compiler against the
//! reference denotational interpreter (Theorem 3.1 says they must agree),
//! and against the PRISM-translation backend, on randomly generated
//! guarded programs; and the structural `equiv`/`less_eq`/`less` pair
//! descent against enumerating every joint input class.

use mcnetkat::core::{Field, Interp, Packet, Pred, Prog};
use mcnetkat::fdd::{Fdd, Manager, SymOutputDist};
use mcnetkat::net::{running_example, FailureSpec, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat::num::Ratio;
use mcnetkat::topo::fattree;
use proptest::prelude::*;

fn fields() -> Vec<Field> {
    vec![
        Field::named("dt_a"),
        Field::named("dt_b"),
        Field::named("dt_c"),
    ]
}

fn arb_pred(depth: u32) -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        Just(Pred::t()),
        Just(Pred::f()),
        (0..3usize, 0..4u32).prop_map(|(f, v)| Pred::test(fields()[f], v)),
    ];
    leaf.prop_recursive(depth, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            inner.prop_map(Pred::not),
        ]
    })
    .boxed()
}

/// Loop-free guarded programs.
fn arb_prog(depth: u32) -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        Just(Prog::skip()),
        Just(Prog::drop()),
        (0..3usize, 0..4u32).prop_map(|(f, v)| Prog::assign(fields()[f], v)),
        arb_pred(1).prop_map(Prog::filter),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (inner.clone(), 1..8i64, inner.clone()).prop_map(|(p, n, q)| Prog::choice2(
                p,
                Ratio::new(n, 8),
                q
            )),
            (arb_pred(1), inner.clone(), inner.clone()).prop_map(|(t, p, q)| Prog::ite(t, p, q)),
            (0..3usize, 0..4u32, inner.clone()).prop_map(|(f, v, p)| Prog::local(
                fields()[f],
                v,
                p
            )),
        ]
    })
    .boxed()
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(0..4u32, 3)
        .prop_map(|vs| Packet::from_pairs(fields().into_iter().zip(vs)))
}

/// The interpreter's output distribution as a sorted, exact map.
fn interp_dist(prog: &Prog, pk: &Packet) -> Vec<(Option<Packet>, Ratio)> {
    Interp::new()
        .eval_packet(prog, pk)
        .iter()
        .map(|(o, r)| (o.clone(), r.clone()))
        .filter(|(_, r)| !r.is_zero())
        .collect()
}

/// The FDD backend's output distribution in the same shape.
fn fdd_dist(mgr: &Manager, prog: &Prog, pk: &Packet) -> Vec<(Option<Packet>, Ratio)> {
    let fdd = mgr.compile(prog).expect("guarded program compiles");
    mgr.output_dist(fdd, pk)
        .into_iter()
        .filter(|(_, r)| !r.is_zero())
        .collect()
}

/// Whether `b` gives every delivered output of `a` at least `a`'s
/// probability.
fn delivers_at_most(a: &SymOutputDist, b: &SymOutputDist) -> bool {
    a.iter().all(|(o, r)| match o {
        None => true,
        Some(_) => b.get(o).map_or(r.is_zero(), |s| r <= s),
    })
}

/// The class-enumeration reference for `(p ≡ q, p ≤ q, q ≤ p)`: compare
/// the output distributions of `p` and `q` on every joint input class.
fn enumerated(mgr: &Manager, p: Fdd, q: Fdd) -> (bool, bool, bool) {
    let mut dom = mgr.domain(p);
    dom.merge(&mgr.domain(q));
    let (mut eq, mut le, mut ge) = (true, true, true);
    for class in dom.input_classes() {
        let dp = mgr.sym_output_dist(p, &class);
        let dq = mgr.sym_output_dist(q, &class);
        eq &= dp == dq;
        le &= delivers_at_most(&dp, &dq);
        ge &= delivers_at_most(&dq, &dp);
    }
    (eq, le, ge)
}

/// Checks `equiv`, `less_eq` both ways and `less` both ways against
/// [`enumerated`], returning the reference verdicts.
fn check_against_enumeration(mgr: &Manager, p: Fdd, q: Fdd) -> (bool, bool, bool) {
    let (eq, le, ge) = enumerated(mgr, p, q);
    assert_eq!(mgr.equiv(p, q), eq, "equiv({p:?}, {q:?})");
    assert_eq!(mgr.equiv(q, p), eq, "equiv({q:?}, {p:?})");
    assert_eq!(mgr.less_eq(p, q), le, "less_eq({p:?}, {q:?})");
    assert_eq!(mgr.less_eq(q, p), ge, "less_eq({q:?}, {p:?})");
    assert_eq!(mgr.less(p, q), le && !ge, "less({p:?}, {q:?})");
    assert_eq!(mgr.less(q, p), ge && !le, "less({q:?}, {p:?})");
    (eq, le, ge)
}

/// Program pairs for the relation differential. Independent random
/// programs are almost never equivalent, so most pairs are related by
/// construction: a program and itself under `; skip`, re-weighted
/// choices, a choice against its lossy copy, and an assignment of a
/// tested value (which is `skip` below that test, and only that test)
/// against `skip`.
fn arb_related_pair() -> BoxedStrategy<(Prog, Prog)> {
    let field = || (0..3usize, 0..4u32).prop_map(|(f, v)| (fields()[f], v));
    prop_oneof![
        (arb_prog(3), arb_prog(3)),
        arb_prog(3).prop_map(|p| (p.clone(), p.seq(Prog::skip()))),
        (arb_prog(2), 1..8i64, 1..8i64, arb_prog(2)).prop_map(|(p, m, n, q)| (
            Prog::choice2(p.clone(), Ratio::new(m, 8), q.clone()),
            Prog::choice2(p, Ratio::new(n, 8), q)
        )),
        (arb_prog(3), 1..8i64)
            .prop_map(|(p, n)| (Prog::choice2(p.clone(), Ratio::new(n, 8), Prog::drop()), p)),
        (field(), arb_prog(2), arb_prog(2)).prop_map(|((f, v), p, q)| (
            Prog::ite(
                Pred::test(f, v),
                Prog::assign(f, v).seq(p.clone()),
                q.clone()
            ),
            Prog::ite(Pred::test(f, v), p, q)
        )),
        (field(), field(), arb_prog(2)).prop_map(|((f, v), (g, w), q)| (
            Prog::ite(
                Pred::test(f, v),
                Prog::assign(g, w).seq(Prog::assign(f, v)),
                q.clone()
            ),
            Prog::ite(Pred::test(f, v), Prog::assign(g, w), q).seq(Prog::skip())
        )),
        // One sub-program below two tests of the same field: the
        // assignment is `skip` below only one of them.
        (field(), 0..4u32, arb_prog(2), arb_prog(2)).prop_map(|((f, v), u, p, q)| {
            let t = Pred::test(f, v).or(Pred::test(f, u));
            (
                Prog::ite(t.clone(), Prog::assign(f, v).seq(p.clone()), q.clone()),
                Prog::ite(t, p, q),
            )
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pair descent decides `≡`, `≤` and `<` exactly as enumerating
    /// every joint input class does.
    #[test]
    fn structural_relations_match_enumeration(pair in arb_related_pair()) {
        let mgr = Manager::new();
        let p = mgr.compile(&pair.0).expect("compiles");
        let q = mgr.compile(&pair.1).expect("compiles");
        check_against_enumeration(&mgr, p, q);
    }

    /// Theorem 3.1 on singleton inputs: B⟦p⟧ agrees with ⟦p⟧ exactly.
    #[test]
    fn fdd_matches_reference_interpreter(prog in arb_prog(4), pk in arb_packet()) {
        let mgr = Manager::new();
        prop_assert_eq!(fdd_dist(&mgr, &prog, &pk), interp_dist(&prog, &pk));
    }

    /// The PRISM route computes the same query probabilities.
    #[test]
    fn prism_matches_fdd(prog in arb_prog(3), pk in arb_packet(), t in arb_pred(2)) {
        let mgr = Manager::new();
        let fdd = mgr.compile(&prog).expect("compiles");
        let p_fdd = mgr.prob_matching(fdd, &pk, &t);
        let auto = mcnetkat::prism::translate(&prog).expect("translates");
        let r = mcnetkat::prism::check_reachability(
            &auto, &pk, &t, mcnetkat::prism::McMode::Exact,
        ).expect("model checks");
        prop_assert_eq!(r.exact, Some(p_fdd));
    }

    /// The baseline exact-inference engine agrees on loop-free programs.
    #[test]
    fn baseline_matches_fdd(prog in arb_prog(3), pk in arb_packet()) {
        let mgr = Manager::new();
        let fdd = mgr.compile(&prog).expect("compiles");
        let base = mcnetkat::baseline::ExactInference::default().delivery(&prog, &pk);
        prop_assert!(base.is_exact());
        prop_assert_eq!(base.probability, mgr.prob_delivery(fdd, &pk));
    }

    /// Equivalence is a congruence for sequencing: p ≡ q implies
    /// p;r ≡ q;r (spot-checked with r = a random assignment).
    #[test]
    fn equiv_respects_seq(prog in arb_prog(3), f in 0..3usize, v in 0..4u32) {
        let mgr = Manager::new();
        let a = mgr.compile(&prog).expect("compiles");
        // A syntactic re-association of prog must stay equivalent.
        let reassoc = Prog::skip().seq(prog.clone().seq(Prog::skip()));
        let b = mgr.compile(&reassoc).expect("compiles");
        prop_assert!(mgr.equiv(a, b));
        let pa = mgr.compile(&prog.clone().seq(Prog::assign(fields()[f], v))).unwrap();
        let pb = mgr.compile(&reassoc.seq(Prog::assign(fields()[f], v))).unwrap();
        prop_assert!(mgr.equiv(pa, pb));
    }

    /// Output distributions are genuine probability distributions.
    #[test]
    fn fdd_outputs_are_distributions(prog in arb_prog(4), pk in arb_packet()) {
        let mgr = Manager::new();
        let total: Ratio = fdd_dist(&mgr, &prog, &pk).into_iter().map(|(_, r)| r).sum();
        prop_assert_eq!(total, Ratio::one());
    }

    /// `drop ≤ p ≤ skip-like upper bounds`: refinement sanity.
    #[test]
    fn refinement_bounds(prog in arb_prog(3)) {
        let mgr = Manager::new();
        let p = mgr.compile(&prog).expect("compiles");
        prop_assert!(mgr.less_eq(mgr.fail(), p));
        prop_assert!(mgr.less_eq(p, p));
    }
}

/// Loops with deterministically decreasing counters terminate within the
/// interpreter budget, so the two semantics can be compared exactly.
#[test]
fn fdd_matches_interpreter_on_counting_loops() {
    let f = Field::named("dt_loop");
    for start in 0..5u32 {
        let body = Prog::case(
            (1..=4)
                .map(|v| (Pred::test(f, v), Prog::assign(f, v - 1)))
                .collect(),
            Prog::drop(),
        );
        let prog = Prog::while_(Pred::test(f, 0).not(), body);
        let pk = Packet::new().with(f, start);
        let mgr = Manager::new();
        assert_eq!(
            fdd_dist(&mgr, &prog, &pk),
            interp_dist(&prog, &pk),
            "start = {start}"
        );
    }
}

/// A probabilistic loop where the interpreter's residual vanishes only in
/// the limit: the FDD closed form must dominate every finite unrolling.
#[test]
fn fdd_closed_form_dominates_unrollings() {
    let f = Field::named("dt_geo");
    let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 3), Prog::skip());
    let prog = Prog::while_(Pred::test(f, 0), body);
    let mgr = Manager::new();
    let fdd = mgr.compile(&prog).unwrap();
    let exact = mgr.prob_delivery(fdd, &Packet::new());
    assert_eq!(exact, Ratio::one());
    for budget in [1usize, 4, 16] {
        let approx = Interp::with_budget(budget)
            .eval_packet(&prog, &Packet::new())
            .mass();
        assert!(approx < exact, "budget {budget}");
    }
}

/// The pair descent against the enumeration on fat-tree models: every
/// scheme under every failure encoding, their teleport specifications and
/// `drop`, pairwise.
#[test]
fn structural_relations_match_enumeration_on_fattree4() {
    let topo = fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let pr = Ratio::new(1, 100);
    let failures = [
        FailureSpec::none(),
        FailureSpec::independent(pr.clone()),
        FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr)),
    ];
    let mgr = Manager::new();
    let mut fdds = vec![mgr.fail()];
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        for failure in &failures {
            let model = NetworkModel::new(topo.clone(), dst, scheme, failure.clone());
            fdds.push(Queries::new(&mgr, &model).unwrap().fdd());
            fdds.push(mgr.compile(&model.teleport()).unwrap());
        }
    }
    fdds.sort();
    fdds.dedup();
    let mut related = 0;
    for (i, &p) in fdds.iter().enumerate() {
        for &q in &fdds[i..] {
            let (_, le, ge) = check_against_enumeration(&mgr, p, q);
            related += usize::from(p != q && (le || ge));
        }
    }
    // The models are ordered below teleport, above drop, and by scheme:
    // the check must exercise both verdicts.
    assert!(related > fdds.len(), "only {related} related pairs");
}

/// §2's refinement chain `drop < naive < resilient < teleport` under
/// `f2`, strict at every step, and agreeing with the enumeration.
#[test]
fn running_example_refinement_chain_is_strict() {
    let ex = running_example();
    let mgr = Manager::new();
    let chain = [
        mgr.fail(),
        mgr.compile(&ex.model(&ex.naive, &ex.f2)).unwrap(),
        mgr.compile(&ex.model(&ex.resilient, &ex.f2)).unwrap(),
        mgr.compile(&ex.teleport()).unwrap(),
    ];
    for (i, &p) in chain.iter().enumerate() {
        for &q in &chain[i + 1..] {
            assert!(mgr.less(p, q), "{i}: {p:?} < {q:?}");
            assert!(!mgr.less_eq(q, p));
            assert_eq!(check_against_enumeration(&mgr, p, q), (false, true, false));
        }
    }
}

//! Property tests for `Manager::seq`'s algebraic fast paths and the
//! do-while law the model tail is built on, against the reference
//! denotational interpreter on every concrete packet of a small domain.
//!
//! * **Filter first.** For a predicate `t`, `seq(t, q)` is `ite(t, q, drop)`.
//! * **Leaf last.** For a leaf `a` (here a deterministic assignment),
//!   `seq(p, a)` maps `p`'s leaves through `a` and keeps `p`'s tests.
//! * **Do-while law.** `i ; do b while g ≡ (i∧g) ; while g do b +
//!   (i∧¬g) ; b ; while g do b`, because `while g do b` unfolds to
//!   `if g then (b ; while g do b) else skip`.
//!
//! The differential against the general `seq` itself (fast paths off)
//! lives in the manager's unit tests, next to the reference it needs.

use mcnetkat_core::{Field, Interp, Packet, Pred, Prog};
use mcnetkat_fdd::{Action, ActionDist, CompileOptions, Fdd, Manager};
use mcnetkat_num::Ratio;
use proptest::prelude::*;

/// Two ordinary fields and the loop counter `c`.
fn field(ix: usize) -> Field {
    match ix {
        0 => Field::named("sfp_a"),
        1 => Field::named("sfp_b"),
        _ => Field::named("sfp_c"),
    }
}

const COUNTER: usize = 2;

/// Random predicates over the first `fields` fields, values 0..=2.
fn arb_pred(fields: usize) -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        Just(Pred::t()),
        Just(Pred::f()),
        (0..fields, 0..=2u32).prop_map(|(f, v)| Pred::test(field(f), v)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            inner.prop_map(Pred::not),
        ]
    })
    .boxed()
}

/// Random loop-free guarded programs over the first `fields` fields.
fn arb_prog(fields: usize) -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        Just(Prog::skip()),
        Just(Prog::drop()),
        (0..fields, 0..=2u32).prop_map(|(f, v)| Prog::assign(field(f), v)),
        arb_pred(fields).prop_map(Prog::filter),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (inner.clone(), 1..4i64, inner.clone()).prop_map(|(p, n, q)| Prog::choice2(
                p,
                Ratio::new(n, 4),
                q
            )),
            (arb_pred(fields), inner.clone(), inner.clone())
                .prop_map(|(t, p, q)| Prog::ite(t, p, q)),
        ]
    })
    .boxed()
}

/// A random deterministic assignment: up to three `field ← value` pairs
/// (possibly none, which is skip).
fn arb_assignment() -> BoxedStrategy<Vec<(Field, u32)>> {
    proptest::collection::vec((0..3usize, 0..=2u32), 0..4)
        .prop_map(|pairs| pairs.into_iter().map(|(f, v)| (field(f), v)).collect())
        .boxed()
}

/// Every packet with each field in 0..=3 — value 3 is one no test or
/// assignment mentions.
fn domain() -> Vec<Packet> {
    let mut out = Vec::new();
    for a in 0..=3u32 {
        for b in 0..=3u32 {
            for c in 0..=3u32 {
                out.push(Packet::from_pairs([
                    (field(0), a),
                    (field(1), b),
                    (field(2), c),
                ]));
            }
        }
    }
    out
}

type Dist = Vec<(Option<Packet>, Ratio)>;

fn interp_dist(prog: &Prog, pk: &Packet) -> Dist {
    Interp::new()
        .eval_packet(prog, pk)
        .iter()
        .filter(|(_, r)| !r.is_zero())
        .map(|(o, r)| (o.clone(), r.clone()))
        .collect()
}

fn fdd_dist(mgr: &Manager, fdd: Fdd, pk: &Packet) -> Dist {
    mgr.output_dist(fdd, pk)
        .into_iter()
        .filter(|(_, r)| !r.is_zero())
        .collect()
}

/// `fdd` denotes `prog` on every packet of the domain.
fn agrees_with_interp(mgr: &Manager, fdd: Fdd, prog: &Prog) -> Result<(), TestCaseError> {
    for pk in domain() {
        let (got, want) = (fdd_dist(mgr, fdd, &pk), interp_dist(prog, &pk));
        prop_assert!(got == want, "on {pk:?}: fdd {got:?}, interpreter {want:?}");
    }
    Ok(())
}

/// `c ← c+1`, saturating at 2 (any value outside 0..=1 jumps to 2), so a
/// loop guarded by `c ≠ 2` exits within two iterations from any packet.
fn bump_counter() -> Prog {
    let c = field(COUNTER);
    Prog::ite(Pred::test(c, 0), Prog::assign(c, 1), Prog::assign(c, 2))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter first: `seq(t, q)` for a random predicate `t`.
    #[test]
    fn filter_first_seq_matches_interpreter(t in arb_pred(3), q in arb_prog(3)) {
        let mgr = Manager::new();
        let ft = mgr.compile_pred(&t);
        prop_assert!(mgr.is_predicate(ft));
        let fq = mgr.compile(&q).unwrap();
        let composed = mgr.seq(ft, fq);
        agrees_with_interp(&mgr, composed, &Prog::filter(t).seq(q))?;
    }

    /// Leaf last: `seq(p, a)` for a random deterministic assignment `a`.
    #[test]
    fn leaf_last_seq_matches_interpreter(p in arb_prog(3), a in arb_assignment()) {
        let mgr = Manager::new();
        let fp = mgr.compile(&p).unwrap();
        let leaf = mgr.leaf(ActionDist::dirac(Action::mods(a.iter().copied())));
        let composed = mgr.seq(fp, leaf);
        let assign = Prog::seq_all(a.iter().map(|&(f, v)| Prog::assign(f, v)));
        agrees_with_interp(&mgr, composed, &p.seq(assign))?;
    }

    /// The do-while law the model tail uses: as a program identity
    /// (its two summands are disjoint, so their sum is an `if`), and in the
    /// diagram form `assemble_model` builds, on a terminating loop.
    #[test]
    fn ingress_do_while_law(i in arb_pred(3), g in arb_pred(2), b in arb_prog(2)) {
        let mgr = Manager::new();
        let g = g.and(Pred::test(field(COUNTER), 2).not());
        let b = b.seq(bump_counter());
        let whole = Prog::filter(i.clone()).seq(Prog::do_while(b.clone(), g.clone()));
        let lhs = mgr.compile(&whole).unwrap();
        agrees_with_interp(&mgr, lhs, &whole)?;

        let w_prog = Prog::while_(g.clone(), b.clone());
        let law = Prog::ite(
            i.clone().and(g.clone()),
            w_prog.clone(),
            Prog::filter(i.clone().and(g.clone().not())).seq(b.clone()).seq(w_prog),
        );
        let rhs = mgr.compile(&law).unwrap();
        agrees_with_interp(&mgr, rhs, &law)?;
        prop_assert!(mgr.equiv(lhs, rhs));

        let (fi, fg) = (mgr.compile_pred(&i), mgr.compile_pred(&g));
        let fb = mgr.compile(&b).unwrap();
        let w = mgr.while_loop(fg, fb, &CompileOptions::default()).unwrap();
        let fail = mgr.fail();
        let in_and_g = mgr.ite(fi, fg, fail);
        let in_not_g = mgr.ite(fg, fail, fi);
        let body_then_loop = mgr.seq(fb, w);
        let unrolled = mgr.seq(in_not_g, body_then_loop);
        prop_assert!(mgr.equiv(lhs, mgr.ite(in_and_g, w, unrolled)));
    }
}

//! The case-spine index against evaluation from the root: on random
//! diagrams, a concrete or symbolic packet started at its arm of
//! `Manager::case_index` (or at `rest`) reaches the leaf a walk from the
//! root reaches. The diagrams cover a top case chain on `sw` whose arms
//! test further fields, a root whose top field is not `sw`, and a leaf
//! root; the packets cover values on and off the spine, value 0 (what an
//! unset concrete field holds) and wildcards.

use mcnetkat_core::{Field, Packet, Pred, Prog};
use mcnetkat_fdd::{Fdd, Manager, SymPkt};
use mcnetkat_num::Ratio;
use proptest::prelude::*;

/// `sw`, `a`, `b`, interned in that order, so `sw` is the smallest field
/// and a case on it is the top of a diagram.
fn fields() -> [Field; 3] {
    [
        Field::named("ci_sw"),
        Field::named("ci_a"),
        Field::named("ci_b"),
    ]
}

/// Values 0..=5 are tested or assigned; 6 and 7 are off every spine.
const VALUES: u32 = 8;

fn arb_pred(used: &'static [usize]) -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        Just(Pred::t()),
        Just(Pred::f()),
        (0..used.len(), 0..=5u32).prop_map(move |(f, v)| Pred::test(fields()[used[f]], v)),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            inner.prop_map(Pred::not),
        ]
    })
    .boxed()
}

/// Random loop-free programs testing and assigning the fields `used`
/// indexes.
fn arb_prog(used: &'static [usize]) -> BoxedStrategy<Prog> {
    let leaf = prop_oneof![
        Just(Prog::skip()),
        Just(Prog::drop()),
        (0..used.len(), 0..=5u32).prop_map(move |(f, v)| Prog::assign(fields()[used[f]], v)),
        arb_pred(used).prop_map(Prog::filter),
    ];
    leaf.prop_recursive(2, 12, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (inner.clone(), 1..4i64, inner.clone()).prop_map(|(p, n, q)| Prog::choice2(
                p,
                Ratio::new(n, 4),
                q
            )),
            (arb_pred(used), inner.clone(), inner.clone()).prop_map(|(t, p, q)| Prog::ite(t, p, q)),
        ]
    })
    .boxed()
}

const ALL: &[usize] = &[0, 1, 2];
const NOT_SW: &[usize] = &[1, 2];

/// A case on `sw` over a few values (0 among the candidates), each arm and
/// the default a random program over every field.
fn arb_case() -> BoxedStrategy<Prog> {
    (
        proptest::collection::vec((0..=5u32, arb_prog(ALL)), 0..5),
        arb_prog(ALL),
    )
        .prop_map(|(arms, default)| {
            let sw = fields()[0];
            let arms = arms
                .into_iter()
                .map(|(v, p)| (Pred::test(sw, v), p))
                .collect();
            Prog::case(arms, default)
        })
        .boxed()
}

/// Diagrams of every shape the index distinguishes.
fn arb_diagram() -> BoxedStrategy<Prog> {
    prop_oneof![
        arb_case(),
        arb_prog(ALL),
        arb_prog(NOT_SW),
        prop_oneof![
            Just(Prog::skip()),
            Just(Prog::drop()),
            (0..=5u32).prop_map(|v| Prog::assign(fields()[1], v)),
        ],
    ]
    .boxed()
}

/// Every concrete packet with each field in `0..VALUES`.
fn packets() -> Vec<Packet> {
    let [sw, a, b] = fields();
    let mut out = Vec::new();
    for s in 0..VALUES {
        for x in 0..VALUES {
            for y in 0..VALUES {
                out.push(Packet::from_pairs([(sw, s), (a, x), (b, y)]));
            }
        }
    }
    out
}

/// Every symbolic packet with each field a wildcard or in `0..VALUES`.
fn sym_packets() -> Vec<SymPkt> {
    let [sw, a, b] = fields();
    let axis = || std::iter::once(None).chain((0..VALUES).map(Some));
    let mut out = Vec::new();
    for s in axis() {
        for x in axis() {
            for y in axis() {
                let pairs = [(sw, s), (a, x), (b, y)];
                out.push(SymPkt::from_pairs(
                    pairs.into_iter().filter_map(|(f, v)| Some((f, v?))),
                ));
            }
        }
    }
    out
}

fn check(mgr: &Manager, p: Fdd) -> Result<(), TestCaseError> {
    let index = mgr.case_index(p);
    match index.field() {
        None => prop_assert_eq!(index.rest(), p, "a leaf root is its own rest"),
        Some(f) => {
            // Starting at an arm is restricting to its value.
            for v in 0..VALUES {
                let start = index.start(&Packet::new().with(f, v));
                prop_assert_eq!(start, mgr.restrict_eq(p, f, v), "{}={}", f, v);
            }
            prop_assert_eq!(index.start_sym(&SymPkt::star()), index.rest());
        }
    }
    for pk in packets() {
        let (got, want) = (mgr.eval(index.start(&pk), &pk), mgr.eval(p, &pk));
        prop_assert!(
            got == want,
            "on {pk:?}: from the arm {got:?}, from the root {want:?}"
        );
    }
    for pk in sym_packets() {
        let start = index.start_sym(&pk);
        let (got, want) = (mgr.eval_sym(start, &pk), mgr.eval_sym(p, &pk));
        prop_assert!(
            got == want,
            "on {pk}: from the arm {got:?}, from the root {want:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn starting_at_the_arm_reaches_the_root_walks_leaf(prog in arb_diagram()) {
        let mgr = Manager::new();
        let p = mgr.compile(&prog).unwrap();
        check(&mgr, p)?;
    }
}

/// Each shape the proptest draws from, pinned once.
#[test]
fn every_shape_is_indexed_exactly() {
    let [sw, a, b] = fields();
    let mgr = Manager::new();
    let arm = |v: u32| Prog::ite(Pred::test(a, v), Prog::assign(b, v), Prog::drop());
    let chain = Prog::case(
        vec![
            (Pred::test(sw, 0), arm(1)),
            (Pred::test(sw, 2), arm(2)),
            (Pred::test(sw, 5), Prog::assign(sw, 1)),
        ],
        Prog::ite(Pred::test(b, 3), Prog::skip(), Prog::drop()),
    );
    let top = mgr.compile(&chain).unwrap();
    let index = mgr.case_index(top);
    assert_eq!(index.field(), Some(sw));
    assert!(index.arm(0).is_some() && index.arm(2).is_some() && index.arm(5).is_some());
    assert_eq!(index.arm(1), None);
    // An unset concrete `sw` is 0, which has an arm; a wildcard has none.
    assert_eq!(index.start(&Packet::new()), index.arm(0).unwrap());
    assert_eq!(index.start_sym(&SymPkt::star()), index.rest());

    let not_sw = mgr
        .compile(&Prog::ite(
            Pred::test(a, 1),
            Prog::assign(b, 1),
            Prog::skip(),
        ))
        .unwrap();
    assert_eq!(mgr.case_index(not_sw).field(), Some(a));

    let leaf = mgr.compile(&Prog::assign(b, 4)).unwrap();
    let index = mgr.case_index(leaf);
    assert_eq!((index.field(), index.rest()), (None, leaf));

    for p in [top, not_sw, leaf] {
        check(&mgr, p).unwrap();
    }
}

/// `prob_delivery_each` is `prob_delivery` on each packet `{sw = v}`.
#[test]
fn prob_delivery_each_matches_per_packet_queries() {
    let [sw, a, _] = fields();
    let mgr = Manager::new();
    let prog = Prog::case(
        vec![
            (
                Pred::test(sw, 1),
                Prog::choice2(Prog::assign(a, 1), Ratio::new(1, 3), Prog::drop()),
            ),
            (Pred::test(sw, 3), Prog::drop()),
            (Pred::test(sw, 4), Prog::assign(a, 2)),
        ],
        Prog::ite(Pred::test(a, 0), Prog::skip(), Prog::drop()),
    );
    let p = mgr.compile(&prog).unwrap();
    let values: Vec<u32> = (0..VALUES).chain([4, 1]).collect();
    let each = mgr.prob_delivery_each(p, sw, values.iter().copied());
    for (&v, got) in values.iter().zip(&each) {
        assert_eq!(
            *got,
            mgr.prob_delivery(p, &Packet::new().with(sw, v)),
            "sw={v}"
        );
    }
    assert_eq!(each[1], Ratio::new(1, 3));
}

//! Differential tests pinning the structured sparse solver to the exact
//! dense path.
//!
//! `AbsorbingChain::solve_sparse_scc` (SCC condensation + per-component
//! exact elimination) is the production loop solver; nothing else in the
//! suite would catch it being subtly wrong on chains with non-trivial
//! structure. These tests generate randomised absorbing chains —
//! multi-SCC, multi-absorbing-class, with cycles, self-loops and
//! disconnected regions — and require the sparse solve to agree *exactly*
//! (`Ratio` equality, not tolerance) with `solve_exact`, and
//! PRISM-approx's float reachability within tolerance.

use mcnetkat_linalg::{AbsorbingChain, LinalgError};
use mcnetkat_num::Ratio;
use proptest::prelude::*;

/// A random absorbing chain with structure: `nt` transient states, `na`
/// absorbing classes, sparse random rows that may form cycles, self-loops
/// and multiple SCCs. Every transient state keeps guaranteed weight on an
/// absorbing state so the chain genuinely absorbs.
fn arb_structured_chain() -> impl Strategy<Value = AbsorbingChain> {
    (
        2..12usize,
        1..4usize,
        proptest::collection::vec(0..7u32, 400),
    )
        .prop_map(|(nt, na, weights)| {
            let n = nt + na;
            let mut chain = AbsorbingChain::new(n);
            for a in nt..n {
                chain.set_absorbing(a);
            }
            let mut w = weights.into_iter().cycle();
            for s in 0..nt {
                let mut row: Vec<u32> = (0..n).map(|_| w.next().unwrap()).collect();
                // Sparsify: drop roughly half the entries so the transient
                // graph breaks into non-trivial SCC structure.
                for slot in row.iter_mut() {
                    if w.next().unwrap() < 4 {
                        *slot = 0;
                    }
                }
                // Guaranteed absorption, spread across the classes.
                let a = nt + (s % na);
                row[a] += 1;
                let total: u32 = row.iter().sum();
                for (t, &weight) in row.iter().enumerate() {
                    if weight > 0 {
                        chain.add(s, t, Ratio::new(weight as i64, total as i64));
                    }
                }
            }
            chain
        })
}

/// A random chain that need not absorb: each transient row is a dead end
/// (no transitions), a row over transient states only (so closed, trapped
/// islands and probability-1 self-loops form), a sub-stochastic row that
/// loses some of its mass, or a stochastic row over every state. Unlike
/// [`arb_structured_chain`], this reaches the singular chains and the
/// chains that leak without absorbing.
fn arb_leaky_chain() -> impl Strategy<Value = AbsorbingChain> {
    (
        1..9usize,
        1..4usize,
        proptest::collection::vec(0..8u32, 300),
    )
        .prop_map(|(nt, na, weights)| {
            let n = nt + na;
            let mut chain = AbsorbingChain::new(n);
            for a in nt..n {
                chain.set_absorbing(a);
            }
            let mut w = weights.into_iter().cycle();
            for s in 0..nt {
                let kind = w.next().unwrap() % 4;
                if kind == 0 {
                    continue;
                }
                let targets = if kind == 1 { nt } else { n };
                let row: Vec<u32> = (0..targets)
                    .map(|_| {
                        let weight = w.next().unwrap();
                        if w.next().unwrap() < 5 {
                            0
                        } else {
                            weight
                        }
                    })
                    .collect();
                let lost = if kind == 2 { 1 + w.next().unwrap() } else { 0 };
                let total: u32 = row.iter().sum::<u32>() + lost;
                for (t, &weight) in row.iter().enumerate() {
                    if weight > 0 {
                        chain.add(s, t, Ratio::new(weight as i64, total as i64));
                    }
                }
            }
            chain
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sparse solve fails exactly when the dense one does, and agrees
    /// with it `Ratio`-exactly otherwise: no chain the sparse solve
    /// rejects has an answer the dense elimination could give instead.
    #[test]
    fn sparse_scc_fails_exactly_when_solve_exact_does(chain in arb_leaky_chain()) {
        let exact = chain.solve_exact();
        let sparse = chain.solve_sparse_scc();
        prop_assert_eq!(sparse.is_err(), exact.is_err(), "{:?} vs {:?}", sparse, exact);
        if let (Ok(sparse), Ok(exact)) = (sparse, exact) {
            prop_assert_eq!(sparse.to_dense(), exact);
        }
    }

    /// The tentpole invariant: SparseScc ≡ solve_exact, *exactly*. Not a
    /// tolerance check — `Ratio` equality.
    #[test]
    fn sparse_scc_equals_solve_exact(chain in arb_structured_chain()) {
        chain.validate().unwrap();
        let exact = chain.solve_exact().unwrap();
        let sparse = chain.solve_sparse_scc().unwrap();
        prop_assert_eq!(sparse.to_dense(), exact, "sccs={}", sparse.scc_count());
        // Sparse means sparse: no stored zeros.
        for t in 0..sparse.num_transient() {
            for (_, p) in sparse.sparse_row(t) {
                prop_assert!(!p.is_zero());
            }
        }
    }

    /// The sparse exact solve agrees with PRISM-approx's float
    /// reachability within float tolerance, per absorbing target (the
    /// exact ↔ float direction of the differential matrix).
    #[test]
    fn sparse_scc_within_tolerance_of_float_backends(chain in arb_structured_chain()) {
        let sparse = chain.solve_sparse_scc().unwrap();
        for &a in sparse.absorbing_states() {
            let float = chain.reach_prob_approx(&[a]).unwrap();
            for (s, f) in float.iter().enumerate() {
                let e = sparse.prob(s, a).to_f64();
                prop_assert!((e - f).abs() < 1e-8, "s={} a={}: {} vs {}", s, a, e, f);
            }
        }
    }
}

/// Deterministic multi-SCC shape: two 2-cycles in series feeding one
/// absorbing state — the condensation must see exactly two components,
/// and the probabilities are all 1 (single absorbing class).
#[test]
fn two_cycle_chain_condenses_to_two_components() {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(4);
    chain.add(0, 1, Ratio::one());
    chain.add(1, 0, Ratio::new(1, 2));
    chain.add(1, 2, Ratio::new(1, 2));
    chain.add(2, 3, Ratio::one());
    chain.add(3, 2, Ratio::new(1, 3));
    chain.add(3, 4, Ratio::new(2, 3));
    let sparse = chain.solve_sparse_scc().unwrap();
    assert_eq!(sparse.scc_count(), 2);
    for s in 0..4 {
        assert_eq!(sparse.prob(s, 4), Ratio::one());
    }
    assert_eq!(sparse.to_dense(), chain.solve_exact().unwrap());
}

/// A trapped cycle (no path to any absorbing state) is the same singular
/// error the dense exact path reports — per-component detection must not
/// turn it into a wrong answer.
#[test]
fn trapped_cycles_error_like_solve_exact() {
    let mut chain = AbsorbingChain::new(4);
    chain.set_absorbing(3);
    // 0 reaches absorption; 1 ↔ 2 is a trapped island.
    chain.add(0, 3, Ratio::one());
    chain.add(1, 2, Ratio::one());
    chain.add(2, 1, Ratio::one());
    assert!(matches!(chain.solve_exact(), Err(LinalgError::Singular(_))));
    assert!(matches!(
        chain.solve_sparse_scc(),
        Err(LinalgError::Singular(_))
    ));
}

/// Transient states with *no* outgoing transitions at all get an all-zero
/// absorption row from the dense solve (R has a zero row, (I−Q) is still
/// nonsingular); the sparse path must reproduce that, not error.
#[test]
fn empty_transient_rows_absorb_nowhere() {
    let mut chain = AbsorbingChain::new(3);
    chain.set_absorbing(2);
    chain.add(0, 2, Ratio::one());
    // State 1 has no row at all.
    let exact = chain.solve_exact().unwrap();
    let sparse = chain.solve_sparse_scc().unwrap();
    assert_eq!(sparse.to_dense(), exact);
    assert_eq!(sparse.prob(1, 2), Ratio::zero());
    assert!(sparse.sparse_row(1).is_empty());
}

/// A cycle that leaks mass only into a transient dead end reaches no
/// absorbing state, yet `I − Q` is nonsingular: the cycle keeps less than
/// all of its mass, and the dead end has no transitions at all. The dense
/// solve gives every transient state an all-zero row; the sparse solve
/// must too, not report the cycle as trapped.
#[test]
fn cycle_leaking_into_a_dead_end_absorbs_nowhere() {
    let mut chain = AbsorbingChain::new(4);
    chain.set_absorbing(3);
    // 1 ↔ 2, each half back to the other and half into dead end 0.
    chain.add(1, 2, Ratio::new(1, 2));
    chain.add(1, 0, Ratio::new(1, 2));
    chain.add(2, 1, Ratio::new(1, 2));
    chain.add(2, 0, Ratio::new(1, 2));
    let exact = chain.solve_exact().unwrap();
    let sparse = chain.solve_sparse_scc().unwrap();
    assert_eq!(sparse.to_dense(), exact);
    for t in 0..sparse.num_transient() {
        assert!(sparse.sparse_row(t).is_empty(), "row {t}");
    }
}

//! Table-driven solver parity: the sparse SCC solve and the float PRISM-approx reachability must reproduce the exact dense
//! solve over a set of named fixtures chosen to exercise the structural
//! corners — self-loops, disconnected transient islands with separate
//! absorbing classes, and explicitly-added zero-probability edges. The
//! sparse solve must agree by `Ratio` equality, PRISM-approx within 1e-9.

use mcnetkat_linalg::AbsorbingChain;
use mcnetkat_num::Ratio;

/// A lazy gambler's ruin: every transient state self-loops with ½ and
/// otherwise moves one step towards ruin (3) or fortune (4).
fn self_loops() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(3);
    chain.set_absorbing(4);
    chain.add(0, 0, Ratio::new(1, 2));
    chain.add(0, 3, Ratio::new(1, 4));
    chain.add(0, 1, Ratio::new(1, 4));
    chain.add(1, 1, Ratio::new(1, 2));
    chain.add(1, 0, Ratio::new(1, 4));
    chain.add(1, 2, Ratio::new(1, 4));
    chain.add(2, 2, Ratio::new(1, 2));
    chain.add(2, 1, Ratio::new(1, 4));
    chain.add(2, 4, Ratio::new(1, 4));
    chain
}

/// Two disjoint transient islands absorbing into disjoint classes — the
/// transient graph is disconnected and the (I−Q) system is block
/// diagonal. States 0,1 reach only {4,5}; states 2,3 reach only {6}.
fn disconnected_islands() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(7);
    for a in 4..7 {
        chain.set_absorbing(a);
    }
    chain.add(0, 1, Ratio::new(2, 3));
    chain.add(0, 4, Ratio::new(1, 3));
    chain.add(1, 0, Ratio::new(1, 2));
    chain.add(1, 5, Ratio::new(1, 2));
    chain.add(2, 3, Ratio::new(3, 4));
    chain.add(2, 6, Ratio::new(1, 4));
    chain.add(3, 2, Ratio::new(1, 5));
    chain.add(3, 6, Ratio::new(4, 5));
    chain
}

/// Explicit zero-probability edges interleaved with real ones: the zeros
/// must be treated as absent by every backend (no spurious structure, no
/// division hazards), including a zero self-loop and a zero edge into an
/// otherwise-unreachable absorbing state.
fn zero_probability_edge() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(5);
    chain.set_absorbing(3);
    chain.set_absorbing(4);
    chain.add(0, 0, Ratio::zero());
    chain.add(0, 1, Ratio::new(1, 2));
    chain.add(0, 3, Ratio::new(1, 2));
    chain.add(1, 4, Ratio::zero());
    chain.add(1, 0, Ratio::new(1, 3));
    chain.add(1, 3, Ratio::new(2, 3));
    chain.add(2, 2, Ratio::zero());
    chain.add(2, 3, Ratio::one());
    chain
}

/// A two-state cycle whose only exit is through its second state — the
/// smallest genuinely cyclic fixture (non-trivial SCC).
fn cycle_with_exit() -> AbsorbingChain {
    let mut chain = AbsorbingChain::new(3);
    chain.set_absorbing(2);
    chain.add(0, 1, Ratio::one());
    chain.add(1, 0, Ratio::new(2, 3));
    chain.add(1, 2, Ratio::new(1, 3));
    chain
}

fn fixtures() -> Vec<(&'static str, AbsorbingChain)> {
    vec![
        ("self_loops", self_loops()),
        ("disconnected_islands", disconnected_islands()),
        ("zero_probability_edge", zero_probability_edge()),
        ("cycle_with_exit", cycle_with_exit()),
    ]
}

/// The exact answer for `(state, absorbing state)`, from `solve_exact`'s
/// transient rows; in these fixtures the transient states are `0..nt`,
/// so absorbing rows read back as point masses.
fn exact_prob(exact: &[Vec<Ratio>], s: usize, a: usize) -> Ratio {
    let nt = exact.len();
    match exact.get(s) {
        Some(row) => row[a - nt].clone(),
        None if s == a => Ratio::one(),
        None => Ratio::zero(),
    }
}

#[test]
fn every_backend_agrees_on_every_fixture() {
    for (name, chain) in fixtures() {
        let exact = chain.solve_exact().unwrap_or_else(|e| {
            panic!("fixture {name}: exact solve failed: {e:?}");
        });
        let n = chain.len();
        let absorbing: Vec<usize> = (exact.len()..n).collect();
        let sparse = chain
            .solve_sparse_scc()
            .unwrap_or_else(|e| panic!("fixture {name}: sparse solve failed: {e:?}"));
        // Identical absorbing-state sets, in the same compact order.
        assert_eq!(
            sparse.absorbing_states(),
            &absorbing[..],
            "fixture {name}: absorbing set"
        );
        assert_eq!(sparse.to_dense(), exact, "fixture {name}");
        // State ids, not row positions: absorbing rows have no `exact`
        // entry and must read back as point masses.
        for s in 0..n {
            for &a in &absorbing {
                assert_eq!(
                    sparse.prob(s, a),
                    exact_prob(&exact, s, a),
                    "fixture {name}: prob({s}, {a})"
                );
            }
        }
        for &a in &absorbing {
            let approx = chain
                .reach_prob_approx(&[a])
                .unwrap_or_else(|e| panic!("fixture {name}: approx failed: {e:?}"));
            for (s, got) in approx.iter().enumerate() {
                let want = exact_prob(&exact, s, a).to_f64();
                assert!(
                    (want - got).abs() < 1e-9,
                    "fixture {name}: approx P[F {a}] from {s} = {got}, want {want}"
                );
            }
        }
    }
}

/// Absorption is total on every fixture: each transient row of the
/// sparse solve sums to exactly 1, and PRISM-approx reaches the set of
/// all absorbing states with probability 1 (nothing is trapped, nothing
/// leaks).
#[test]
fn every_backend_conserves_mass() {
    for (name, chain) in fixtures() {
        let sparse = chain.solve_sparse_scc().unwrap();
        for t in 0..sparse.num_transient() {
            let mass: Ratio = sparse.sparse_row(t).iter().map(|(_, p)| p).sum();
            assert_eq!(mass, Ratio::one(), "fixture {name}: row {t}");
        }
        let all: Vec<usize> = (0..chain.len())
            .filter(|&s| chain.is_absorbing(s))
            .collect();
        for (s, mass) in chain.reach_prob_approx(&all).unwrap().iter().enumerate() {
            assert!(
                (mass - 1.0).abs() < 1e-9,
                "fixture {name}: approx state {s} mass {mass}"
            );
        }
    }
}

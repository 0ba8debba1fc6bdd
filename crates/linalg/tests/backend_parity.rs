//! Table-driven backend parity: every [`SolverBackend`] must produce the
//! same [`AbsorptionResult`] over a set of named fixtures chosen to
//! exercise the structural corners — self-loops, disconnected transient
//! islands with separate absorbing classes, and explicitly-added
//! zero-probability edges. Probabilities must agree within 1e-9 and the
//! absorbing-state sets must be identical; the exact dense solve is the
//! reference.

use mcnetkat_linalg::{AbsorbingChain, SolverBackend};
use mcnetkat_num::Ratio;

const BACKENDS: [SolverBackend; 3] = [
    SolverBackend::SparseScc,
    SolverBackend::SparseLu,
    SolverBackend::GaussSeidel,
];

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

#[test]
fn every_backend_agrees_on_every_fixture() {
    for (name, chain) in fixtures() {
        let exact = chain.solve_exact().unwrap_or_else(|e| {
            panic!("fixture {name}: exact solve failed: {e:?}");
        });
        let n = chain.len();
        let nt = exact.len();
        for backend in BACKENDS {
            let result = chain
                .solve(backend)
                .unwrap_or_else(|e| panic!("fixture {name}: {backend:?} failed: {e:?}"));
            // Identical absorbing-state sets, in the same compact order.
            let absorbing: Vec<usize> = (nt..n).collect();
            assert_eq!(
                result.absorbing_states(),
                &absorbing[..],
                "fixture {name}: {backend:?} absorbing set"
            );
            // Identical probabilities, for transient *and* absorbing rows
            // (state ids, not row positions — absorbing rows have no
            // `exact` entry and must read back as point masses).
            for s in 0..n {
                for &a in &absorbing {
                    let want = match exact.get(s) {
                        Some(row) => row[a - nt].to_f64(),
                        None if s == a => 1.0,
                        None => 0.0,
                    };
                    let got = result.prob(s, a);
                    assert!(
                        (want - got).abs() < 1e-9,
                        "fixture {name}: {backend:?} prob({s}, {a}) = {got}, want {want}"
                    );
                }
            }
        }
    }
}

/// Absorption is total on every fixture: each transient row of every
/// backend sums to 1 (nothing is trapped, nothing leaks).
#[test]
fn every_backend_conserves_mass() {
    for (name, chain) in fixtures() {
        for backend in BACKENDS {
            let result = chain.solve(backend).unwrap();
            let nt = chain.len() - result.absorbing_states().len();
            for s in 0..nt {
                let mass: f64 = result.row(s).iter().map(|(_, p)| p).sum();
                assert!(
                    (mass - 1.0).abs() < 1e-9,
                    "fixture {name}: {backend:?} row {s} mass {mass}"
                );
            }
        }
    }
}

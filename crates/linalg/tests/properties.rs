//! Property-based tests for the linear-algebra substrate: solver
//! agreement across backends, absorption-probability invariants, and
//! LU correctness on random systems.

use mcnetkat_linalg::{
    gauss_seidel, AbsorbingChain, DenseMatrix, IterativeOptions, SolverBackend, SparseLu, Triplets,
};
use mcnetkat_num::Ratio;
use proptest::prelude::*;

/// A random absorbing chain: `n` states, the last two absorbing, every
/// transient row a random distribution with guaranteed absorbing weight.
fn arb_chain() -> impl Strategy<Value = AbsorbingChain> {
    (3..10usize, proptest::collection::vec(0..5u32, 100)).prop_map(|(n, weights)| {
        let mut chain = AbsorbingChain::new(n);
        chain.set_absorbing(n - 1);
        chain.set_absorbing(n - 2);
        let mut w = weights.into_iter().cycle();
        for s in 0..n - 2 {
            let mut row: Vec<u32> = (0..n).map(|_| w.next().unwrap()).collect();
            row[n - 1] += 1; // every state can reach an absorbing state
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All float backends agree with the exact rational solve.
    #[test]
    fn backends_agree_with_exact(chain in arb_chain()) {
        chain.validate().unwrap();
        let exact = chain.solve_exact().unwrap();
        for backend in [SolverBackend::SparseLu, SolverBackend::GaussSeidel] {
            let float = chain.solve(backend).unwrap();
            let n = chain.len();
            // Transient states are 0..n-2, so state id and transient rank
            // coincide here.
            for (s, row) in exact.iter().enumerate().take(n - 2) {
                for (col, &a) in [n - 2, n - 1].iter().enumerate() {
                    let e = row[col].to_f64();
                    let f = float.prob(s, a);
                    prop_assert!((e - f).abs() < 1e-8, "{backend:?} s={s} a={a}: {e} vs {f}");
                }
            }
        }
    }

    /// Absorption rows are probability distributions: entries in [0,1]
    /// summing to 1 (every state reaches absorption by construction).
    #[test]
    fn absorption_rows_are_distributions(chain in arb_chain()) {
        let exact = chain.solve_exact().unwrap();
        for row in &exact {
            let total: Ratio = row.iter().cloned().sum();
            prop_assert_eq!(total, Ratio::one());
            for p in row {
                prop_assert!(p.is_probability());
            }
        }
    }

    /// Sparse LU solves random diagonally dominant systems to machine
    /// precision (checked via the residual).
    #[test]
    fn sparse_lu_residual_is_small(
        n in 2..12usize,
        entries in proptest::collection::vec((-10i32..10, 0..144usize), 10..40),
        rhs in proptest::collection::vec(-5.0f64..5.0, 12),
    ) {
        let mut t = Triplets::new(n, n);
        let mut diag = vec![0.0f64; n];
        for (v, pos) in entries {
            let (i, j) = (pos / 12 % n, pos % n);
            if i != j && v != 0 {
                t.push(i, j, v as f64 / 10.0);
                diag[i] += (v as f64 / 10.0).abs();
            }
        }
        for (i, d) in diag.iter().enumerate() {
            t.push(i, i, d + 1.0); // strict diagonal dominance
        }
        let a = t.to_csr();
        let b = &rhs[..n];
        let x = SparseLu::factor(&a).unwrap().solve(b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(b) {
            prop_assert!((l - r).abs() < 1e-8);
        }
    }

    /// Gauss–Seidel agrees with back-substitution on substochastic
    /// forward chains.
    #[test]
    fn iterative_methods_agree(
        n in 2..10usize,
        probs in proptest::collection::vec(0..9u32, 10),
    ) {
        let mut t = Triplets::new(n, n);
        let mut forward = vec![0.0f64; n];
        for (i, p) in probs.iter().take(n).enumerate() {
            // Row i: move forward with probability p/10 (leaky).
            if *p > 0 && i + 1 < n {
                forward[i] = *p as f64 / 10.0;
                t.push(i, i + 1, forward[i]);
            }
        }
        let q = t.to_csr();
        let b = vec![1.0; n];
        // x_i = b_i + q_i x_{i+1}, solved from the last state down.
        let mut want = vec![0.0f64; n];
        for i in (0..n).rev() {
            want[i] = b[i] + forward[i] * want.get(i + 1).unwrap_or(&0.0);
        }
        let xg = gauss_seidel(&q, &b, IterativeOptions::default()).unwrap();
        for (got, want) in xg.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-8);
        }
    }

    /// Dense exact solve inverts exactly: A · A⁻¹b = b over rationals.
    #[test]
    fn exact_dense_solve_is_exact(
        n in 1..5usize,
        seed in proptest::collection::vec(-5i64..5, 36),
    ) {
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let mut row: Vec<Ratio> = (0..n)
                .map(|j| Ratio::from_integer(seed[(i * n + j) % seed.len()]))
                .collect();
            // Make it diagonally dominant so it is nonsingular.
            let dom: i64 = 1 + row.iter().map(|r| r.abs().to_f64() as i64).sum::<i64>();
            row[i] = Ratio::from_integer(dom);
            rows.push(row);
        }
        let a = DenseMatrix::from_rows(rows);
        let b: Vec<Ratio> = (0..n).map(|i| Ratio::from_integer(seed[i % seed.len()])).collect();
        let x = a.solve(&b).unwrap();
        prop_assert_eq!(a.matvec(&x), b);
    }
}

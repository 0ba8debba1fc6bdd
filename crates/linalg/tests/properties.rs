//! Property-based tests for the linear-algebra substrate: PRISM-approx
//! agreement with the exact solve, absorption-probability invariants, and
//! exactness of the dense elimination.

use mcnetkat_linalg::{AbsorbingChain, DenseMatrix};
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

    /// PRISM-approx's float reachability agrees with the exact rational
    /// solve, one absorbing target at a time.
    #[test]
    fn backends_agree_with_exact(chain in arb_chain()) {
        chain.validate().unwrap();
        let exact = chain.solve_exact().unwrap();
        let n = chain.len();
        for (col, &a) in [n - 2, n - 1].iter().enumerate() {
            let float = chain.reach_prob_approx(&[a]).unwrap();
            // Transient states are 0..n-2, so state id and transient rank
            // coincide here.
            for (s, row) in exact.iter().enumerate().take(n - 2) {
                let e = row[col].to_f64();
                let f = float[s];
                prop_assert!((e - f).abs() < 1e-8, "s={s} a={a}: {e} vs {f}");
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

    /// PRISM-approx's Gauss–Seidel agrees with float back-substitution on
    /// forward chains: state `i` steps to `i + 1` with `f_i`, hits the
    /// target with `g_i` and is lost otherwise, so `x_i = g_i + f_i x_{i+1}`.
    #[test]
    fn iterative_methods_agree(
        n in 2..10usize,
        probs in proptest::collection::vec(0..9u32, 10),
    ) {
        let (target, lost) = (n, n + 1);
        let mut chain = AbsorbingChain::new(n + 2);
        chain.set_absorbing(target);
        chain.set_absorbing(lost);
        let mut forward = vec![0.0f64; n];
        let mut hit = vec![0.0f64; n];
        for (i, &p) in probs.iter().take(n).enumerate() {
            let f = if i + 1 < n { Ratio::new(p as i64, 10) } else { Ratio::zero() };
            let g = Ratio::new(10 - p as i64, 20);
            let rest = &(&Ratio::one() - &f) - &g;
            forward[i] = f.to_f64();
            hit[i] = g.to_f64();
            if !f.is_zero() {
                chain.add(i, i + 1, f);
            }
            chain.add(i, target, g);
            chain.add(i, lost, rest);
        }
        let mut want = vec![0.0f64; n];
        for i in (0..n).rev() {
            want[i] = hit[i] + forward[i] * want.get(i + 1).unwrap_or(&0.0);
        }
        let xg = chain.reach_prob_approx(&[target]).unwrap();
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

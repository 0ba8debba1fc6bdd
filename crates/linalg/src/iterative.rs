//! Iterative solvers for `(I − Q) x = b` with substochastic `Q`.
//!
//! For absorbing chains the spectral radius of `Q` is strictly below one
//! (Lemma B.3 of the paper), so the fixed-point iteration `x ← Q x + b`
//! converges geometrically. Gauss–Seidel runs that iteration but reuses
//! fresh values within a sweep, which typically converges about twice as
//! fast as the plain iteration.

use crate::{CsrMatrix, LinalgError};

/// Convergence controls for the iterative solvers.
#[derive(Clone, Copy, Debug)]
pub struct IterativeOptions {
    /// Give up after this many sweeps.
    pub max_iters: usize,
    /// Stop when the ∞-norm of the update falls below this.
    pub tolerance: f64,
}

impl Default for IterativeOptions {
    fn default() -> Self {
        IterativeOptions {
            max_iters: 100_000,
            tolerance: 1e-12,
        }
    }
}

/// Solves `(I − Q) x = b` by Gauss–Seidel sweeps.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if shapes disagree and
/// [`LinalgError::NoConvergence`] when the budget runs out.
pub fn gauss_seidel(
    q: &CsrMatrix,
    b: &[f64],
    opts: IterativeOptions,
) -> Result<Vec<f64>, LinalgError> {
    if q.nrows() != q.ncols() || q.nrows() != b.len() {
        return Err(LinalgError::DimensionMismatch);
    }
    let n = b.len();
    let mut x = b.to_vec();
    for it in 0..opts.max_iters {
        let mut delta = 0.0f64;
        for i in 0..n {
            // x_i = b_i + Σ_j Q_ij x_j, with the diagonal moved to the left:
            // (1 - Q_ii) x_i = b_i + Σ_{j≠i} Q_ij x_j.
            let mut acc = b[i];
            let mut diag = 0.0;
            for (j, v) in q.row(i) {
                if j == i {
                    diag = v;
                } else {
                    acc += v * x[j];
                }
            }
            let denom = 1.0 - diag;
            let next = if denom.abs() < 1e-15 {
                acc
            } else {
                acc / denom
            };
            delta = delta.max((next - x[i]).abs());
            x[i] = next;
        }
        if delta <= opts.tolerance {
            return Ok(x);
        }
        if it + 1 == opts.max_iters {
            return Err(LinalgError::NoConvergence {
                iterations: opts.max_iters,
                residual: delta,
            });
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplets;

    fn chain_q(n: usize, p: f64) -> CsrMatrix {
        // Random-walk-style Q: state i moves to i+1 with prob p (last state
        // leaks to an absorbing state outside Q).
        let mut t = Triplets::new(n, n);
        for i in 0..n.saturating_sub(1) {
            t.push(i, i + 1, p);
        }
        t.to_csr()
    }

    /// Known answer for `chain_q(n, p)`: `x_i = b_i + p x_{i+1}` and
    /// `x_{n-1} = b_{n-1}`, back-substituted from the last state down.
    fn chain_answer(p: f64, b: &[f64]) -> Vec<f64> {
        let n = b.len();
        let mut want = vec![0.0; n];
        want[n - 1] = b[n - 1];
        for i in (0..n - 1).rev() {
            want[i] = b[i] + p * want[i + 1];
        }
        want
    }

    #[test]
    fn jacobi_solves_chain() {
        let q = chain_q(4, 0.5);
        // (I-Q)x = b with b = reach-probability into absorbing state.
        let b = vec![0.5, 0.5, 0.5, 1.0];
        let x = gauss_seidel(&q, &b, IterativeOptions::default()).unwrap();
        // x_i = b_i + 0.5 x_{i+1}
        assert!((x[3] - 1.0).abs() < 1e-10);
        assert!((x[2] - 1.0).abs() < 1e-10);
        assert!((x[0] - (0.5 + 0.5 * x[1])).abs() < 1e-10);
        for (got, want) in x.iter().zip(&chain_answer(0.5, &b)) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn gauss_seidel_matches_jacobi() {
        // Reference: the plain fixed-point iteration x <- Q x + b, run until
        // it stops moving; Gauss-Seidel must reach the same fixed point.
        let q = chain_q(10, 0.9);
        let b: Vec<f64> = (0..10).map(|i| 0.1 * (i as f64 + 1.0)).collect();
        let mut xj = b.clone();
        loop {
            let next: Vec<f64> = q
                .matvec(&xj)
                .iter()
                .zip(&b)
                .map(|(qx, bi)| qx + bi)
                .collect();
            let moved = next.iter().zip(&xj).any(|(a, b)| a != b);
            xj = next;
            if !moved {
                break;
            }
        }
        let xg = gauss_seidel(&q, &b, IterativeOptions::default()).unwrap();
        for ((a, g), want) in xj.iter().zip(&xg).zip(&chain_answer(0.9, &b)) {
            assert!((a - g).abs() < 1e-9);
            assert!((g - want).abs() < 1e-10, "{g} vs {want}");
        }
    }

    #[test]
    fn gauss_seidel_handles_self_loops() {
        // Q with a diagonal entry: state 0 self-loops with prob 0.5.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 0.5);
        t.push(0, 1, 0.25);
        let q = t.to_csr();
        let b = vec![0.25, 1.0];
        let x = gauss_seidel(&q, &b, IterativeOptions::default()).unwrap();
        // x1 = 1; x0 = (0.25 + 0.25*1) / (1 - 0.5) = 1.
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn reports_no_convergence_for_tiny_budget() {
        let q = chain_q(50, 0.999);
        let b = vec![0.001; 50];
        let err = gauss_seidel(
            &q,
            &b,
            IterativeOptions {
                max_iters: 3,
                tolerance: 1e-15,
            },
        );
        assert!(matches!(err, Err(LinalgError::NoConvergence { .. })));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let q = chain_q(3, 0.5);
        assert!(matches!(
            gauss_seidel(&q, &[1.0, 2.0], IterativeOptions::default()),
            Err(LinalgError::DimensionMismatch)
        ));
    }
}

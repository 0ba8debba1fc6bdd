//! Exact linear algebra for McNetKAT.
//!
//! The paper's native backend solves `(I − Q)X = R` for the absorption
//! probabilities of the small-step Markov chain (§4, equation 2) using the
//! UMFPACK sparse LU library. This crate computes the same matrix exactly,
//! over [`mcnetkat_num::Ratio`]:
//!
//! * [`AbsorbingChain::solve_sparse_scc`] condenses the transient graph
//!   into its SCC DAG ([`scc`]) and solves one component at a time — the
//!   solve behind every compiled `while` loop;
//! * [`AbsorbingChain::solve_exact`] is dense Gaussian elimination over
//!   [`DenseMatrix`], the reference the sparse solve is tested against;
//!   the two fail on exactly the same (singular) chains.
//!
//! The one float computation is [`AbsorbingChain::reach_prob_approx`]: a
//! Gauss–Seidel iteration, the engine of the PRISM model checker that the
//! paper compares against (`mcnetkat-prism`'s approximate mode).

#![forbid(unsafe_code)]

pub mod absorbing;
mod dense;
mod iterative;
pub mod scc;
mod sparse;

pub use absorbing::{AbsorbingChain, SparseAbsorption};
pub use dense::DenseMatrix;
use iterative::{gauss_seidel, IterativeOptions};
pub use scc::{condense, Condensation};
use sparse::{CsrMatrix, Triplets};

/// Errors produced by solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is singular at the given pivot.
    Singular(usize),
    /// An iterative method failed to converge within its budget.
    NoConvergence {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Final residual norm.
        residual: f64,
    },
    /// Dimension mismatch between operands.
    DimensionMismatch,
    /// The caller's interruption check asked the solver to stop early
    /// (cooperative cancellation / deadline budgets — see
    /// [`AbsorbingChain::solve_sparse_scc_interruptible`]). The partial
    /// solve is discarded; the caller maps this back onto its own typed
    /// abort error.
    Interrupted,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::Singular(k) => write!(f, "singular matrix at pivot {k}"),
            LinalgError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            LinalgError::DimensionMismatch => write!(f, "dimension mismatch"),
            LinalgError::Interrupted => write!(f, "solve interrupted by caller"),
        }
    }
}

impl std::error::Error for LinalgError {}

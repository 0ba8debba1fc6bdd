//! Dense and sparse linear algebra for McNetKAT.
//!
//! The paper's native backend solves `(I − Q)X = R` for the absorption
//! probabilities of the small-step Markov chain (§4, equation 2) using the
//! UMFPACK sparse LU library. This crate is the from-scratch substitute:
//!
//! * generic dense matrices and Gaussian elimination over any [`Scalar`]
//!   (used with `f64` *and* exact [`mcnetkat_num::Ratio`], so tests can
//!   cross-check the float pipeline against exact arithmetic),
//! * CSR sparse matrices built from triplets,
//! * a sparse left-looking LU factorisation with partial pivoting
//!   (Gilbert–Peierls), and
//! * an iterative Gauss–Seidel solver that exploits the substochasticity
//!   of `Q`.
//!
//! The [`absorbing`] module puts these together into the absorbing-chain
//! solver used by the FDD backend for `while` loops.

#![forbid(unsafe_code)]

pub mod absorbing;
mod dense;
mod iterative;
mod lu;
pub mod lump;
mod scalar;
pub mod scc;
mod sparse;

pub use absorbing::{AbsorbingChain, AbsorptionResult, SolverBackend, SparseAbsorption};
pub use dense::DenseMatrix;
pub use iterative::{gauss_seidel, IterativeOptions};
pub use lu::SparseLu;
pub use lump::{is_lumpable, refine, Partition};
pub use scalar::Scalar;
pub use scc::{condense, Condensation};
pub use sparse::{CsrMatrix, Triplets};

/// Errors produced by solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// The matrix is singular (or numerically singular) at the given pivot.
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

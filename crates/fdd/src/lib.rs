//! Probabilistic forwarding decision diagrams: McNetKAT's native backend.
//!
//! This crate implements §5.1 of the paper: compilation of guarded
//! ProbNetKAT programs to hash-consed probabilistic FDDs, with `while`
//! loops solved in closed form via absorbing Markov chains (§4) over a
//! dynamically reduced symbolic-packet domain.
//!
//! # Pipeline (Figure 5)
//!
//! ```text
//! Prog ──compile──▶ probabilistic FDD ──(loops)──▶ sparse (I−Q)X=R solve
//!                        ▲                                   │
//!                        └──────────── rebuild ◀─────────────┘
//! ```
//!
//! # Examples
//!
//! ```
//! use mcnetkat_core::{Field, Packet, Pred, Prog};
//! use mcnetkat_fdd::Manager;
//! use mcnetkat_num::Ratio;
//!
//! let mgr = Manager::new();
//! let f = Field::named("doc_fdd_f");
//! // A loop that exits with probability 1: closed form, not approximation.
//! let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::skip());
//! let prog = Prog::while_(Pred::test(f, 0), body);
//! let fdd = mgr.compile(&prog)?;
//! assert_eq!(mgr.prob_delivery(fdd, &Packet::new()), Ratio::one());
//! # Ok::<(), mcnetkat_fdd::CompileError>(())
//! ```

#![forbid(unsafe_code)]

mod action;
mod budget;
mod compile;
mod export;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod loops;
mod manager;
mod matrix;
mod query;
mod sympkt;

pub use action::{Action, ActionDist};
pub use budget::{Budget, CancelToken};
pub use compile::{CompileError, CompileOptions};
pub use export::FddExport;
pub(crate) use manager::Node;
#[cfg(feature = "audit")]
pub use manager::{AuditReport, AuditViolation};
pub use manager::{
    Fdd, GovernorGuard, LoopSolveStats, Manager, OpCacheEntry, OpCacheStats, ScratchField,
    WhileCacheStats,
};
pub use matrix::BigStepMatrix;
// Re-exported because `CompileError::Solver` carries it: downstream
// crates can match on solver failures without a direct linalg dependency.
pub use mcnetkat_linalg::LinalgError;
pub use query::{CaseIndex, OutputDist, SymOutputDist};
pub use sympkt::{step, Domain, SymPkt};

/// Whether this build was compiled with the `audit` feature (and thus
/// pays for `Manager::audit`'s machinery — the method only exists under
/// the feature, so no intra-doc link — plus any downstream self-auditing
/// compile hooks). Release benches assert this is `false` so the auditor
/// can never silently tax a measured hot path.
pub const AUDIT_ENABLED: bool = cfg!(feature = "audit");

/// Whether this build was compiled with the `failpoints` feature (and thus
/// carries the deterministic fault-injection registry in the `failpoints`
/// module — which only exists under the feature, so no intra-doc link).
/// Release benches assert this is `false`, exactly like
/// [`AUDIT_ENABLED`], so injected faults and their bookkeeping can never
/// leak into a measured hot path.
pub const FAILPOINTS_ENABLED: bool = cfg!(feature = "failpoints");

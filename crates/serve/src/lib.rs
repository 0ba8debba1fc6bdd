//! `mcnetkat-serve`: a long-lived incremental verification engine.
//!
//! The batch compilers rebuild the world on every call, but the fused
//! per-switch pipeline already factors a model into independently
//! compiled, scratch-free switch diagrams — so a model *delta* (a switch
//! program edit, a link-probability change, SRLG membership churn, a
//! topology swap) invalidates only the touched switches' diagrams. This
//! crate exploits that: an [`Engine`] owns one long-lived
//! [`Manager`](mcnetkat_fdd::Manager), caches every per-switch diagram
//! keyed on its full compile inputs ([`mcnetkat_net::fused::HopInputs`] —
//! switch program, failure-spec slice, hop cap), and on [`Engine::apply`]
//! re-keys only the switches the delta touches ([`Delta::touched`]),
//! recompiles those whose inputs changed, re-folds the `sw`-case chain,
//! and finishes through the same [`mcnetkat_net::fused::assemble_model`]
//! tail as the batch pipeline. The manager's `while`-loop solution cache
//! makes the loop solve incremental too: a chain body the engine has
//! seen before (a link flapping back up, a scheme toggled back) skips the
//! solve entirely.
//!
//! Cache lookups are *correct by construction*: a hop diagram depends on
//! nothing but its `HopInputs`, two hops with equal inputs compile to
//! identical diagrams, so cache keys are exactly the structural hashes of
//! those inputs. Which switches get looked up is a contract: every
//! switch outside [`Delta::touched`] reuses its previous diagram without
//! recomputing its inputs. Deltas that touch shared structure — the
//! failure budget `k`, the topology — fall back to a full rebuild (the
//! per-switch cache is dropped); see [`Delta::is_structural`].
//!
//! Queries ([`Engine::query_batch`]) answer concurrently over the shared
//! manager (its tables are lock-protected), each under its own
//! [`Budget`](mcnetkat_fdd::Budget): a query whose budget is already
//! cancelled or expired is rejected without running, and per-query
//! latencies feed the engine's p50/p99 gauges ([`EngineStats`]). Under
//! load the engine sheds instead of falling over: an admission gate
//! ([`EngineConfig::max_concurrent_queries`]) refuses excess queries with
//! [`EngineError::Overloaded`], and batch fan-out is capped at the same
//! limit (the rest queue). A query that trips its deadline returns
//! [`CompileError::DeadlineExceeded`]; a caller that would rather have a
//! late answer retries with a longer budget. A long-lived server bounds
//! its memory with the manager's op-cache bound
//! (`engine.manager().set_cache_capacity(n)`) and
//! [`Engine::trim_hop_cache`].
//!
//! The engine's state can also survive the process. A journaling engine
//! ([`Engine::with_journal`]) appends each load/delta/unload to a
//! checksummed redo journal as one record, after its compile succeeds and
//! before the in-memory swap; [`Engine::snapshot`] checkpoints the loaded
//! models' descriptions; and [`Engine::recover`] rebuilds an engine from
//! snapshot + journal tail, truncating torn tails, refusing interior
//! corruption, and re-verifying every recovered model against a cold
//! compile. See the [`journal`] module docs for the format and the
//! atomicity contract.
//!
//! ```
//! use mcnetkat_net::{FailureSpec, NetworkModel, RoutingScheme};
//! use mcnetkat_num::Ratio;
//! use mcnetkat_serve::{Delta, Engine, Query};
//! use mcnetkat_topo::ab_fattree;
//!
//! let topo = ab_fattree(4);
//! let dst = topo.find("edge0_0").unwrap();
//! let core = topo.find("core0").unwrap();
//! let model = NetworkModel::new(
//!     topo, dst, RoutingScheme::Ecmp,
//!     FailureSpec::independent(Ratio::new(1, 100)),
//! );
//!
//! let mut engine = Engine::default();
//! let id = engine.load(model)?;
//!
//! // A single-switch program edit recompiles one switch, not 20.
//! let report = engine.apply(id, Delta::SetSwitchScheme(core, RoutingScheme::F10_3))?;
//! assert_eq!(report.switches_changed, 1);
//!
//! // Batch queries answer concurrently under per-query budgets.
//! let src = engine.model(id)?.topo.find("edge0_1").unwrap();
//! let answers = engine.query_batch(&[
//!     Query::DeliveryProb { model: id, src }.into(),
//!     Query::MinDelivery { model: id }.into(),
//! ]);
//! assert!(answers.iter().all(Result::is_ok));
//! # Ok::<(), mcnetkat_serve::EngineError>(())
//! ```

#![forbid(unsafe_code)]

// `Delta` and the switches it may invalidate.
mod delta;
// `Engine`: the only module holding `Fdd` handles (models, hop cache).
mod engine;
pub mod journal;
// `Query` and the concurrent, admission-gated query path.
mod query;
// Reports and gauges.
mod stats;
#[cfg(test)]
mod tests;

pub use delta::{Delta, Touched};
pub use engine::{Engine, EngineConfig, RecoveryReport};
pub use query::{Answer, Query, QueryRequest};
pub use stats::{ApplyPhases, DeltaReport, EngineStats, Rekey};

use journal::JournalError;
use mcnetkat_fdd::CompileError;

/// Handle to a model loaded into an [`Engine`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ModelId(u64);

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Errors surfaced by the engine API.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The [`ModelId`] names no loaded model (never loaded, or evicted).
    UnknownModel(ModelId),
    /// The delta cannot be applied to the current model (validation
    /// failure, unknown group name, …) — the model is left untouched.
    InvalidDelta(String),
    /// The underlying compile failed (budget trip, solver failure, …).
    Compile(CompileError),
    /// The journal rejected the operation's record — the in-memory state
    /// is untouched (the append runs *before* the swap).
    Journal(JournalError),
    /// The admission gate shed this query:
    /// [`EngineConfig::max_concurrent_queries`] queries were already in
    /// flight. Retry later; nothing ran.
    Overloaded {
        /// In-flight queries observed at admission.
        active: usize,
        /// The configured admission limit.
        limit: usize,
    },
}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> EngineError {
        EngineError::Compile(e)
    }
}

impl From<JournalError> for EngineError {
    fn from(e: JournalError) -> EngineError {
        EngineError::Journal(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownModel(id) => write!(f, "unknown model {id}"),
            EngineError::InvalidDelta(why) => write!(f, "invalid delta: {why}"),
            EngineError::Compile(e) => write!(f, "compile failed: {e}"),
            EngineError::Journal(e) => write!(f, "journal failed: {e}"),
            EngineError::Overloaded { active, limit } => {
                write!(f, "overloaded: {active} queries in flight (limit {limit})")
            }
        }
    }
}

impl std::error::Error for EngineError {}

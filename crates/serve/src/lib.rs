//! `mcnetkat-serve`: a long-lived incremental verification engine.
//!
//! The batch compilers rebuild the world on every call, but the fused
//! per-switch pipeline already factors a model into independently
//! compiled, scratch-free switch diagrams — so a model *delta* (a switch
//! program edit, a link-probability change, SRLG membership churn, a
//! topology swap) invalidates only the touched switches' diagrams. This
//! crate exploits that: an [`Engine`] owns one long-lived
//! [`Manager`], caches every per-switch diagram keyed on its full compile
//! inputs ([`mcnetkat_net::fused::HopInputs`] — switch program, failure-spec
//! slice, hop cap), and on [`Engine::apply`] re-keys only the switches
//! the delta touches ([`Delta::touched`]), recompiles those whose inputs
//! changed, re-folds the `sw`-case chain, and finishes through the same
//! [`mcnetkat_net::fused::assemble_model`] tail as the batch pipeline.
//! The manager's `while`-loop solution cache makes the loop solve
//! incremental too: a chain body the engine has seen before (a link
//! flapping back up, a scheme toggled back) skips the solve entirely.
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
//! [`Budget`]: a query whose budget is already cancelled or expired is
//! rejected without running, and per-query latencies feed the engine's
//! p50/p99 gauges ([`EngineStats`]). Under load the engine degrades
//! instead of falling over: an admission gate
//! ([`EngineConfig::max_concurrent_queries`]) sheds excess queries with
//! [`EngineError::Overloaded`], batch fan-out is capped at the same
//! limit (the rest queue), and a deadline-tripped query gets one bounded
//! retry ([`EngineConfig::degraded_grace`]) before its error surfaces.
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

pub mod journal;

use journal::{JournalError, Record, RecoveryError};
use mcnetkat_fdd::{Budget, CompileError, CompileOptions, Fdd, Manager, WhileCacheStats};
use mcnetkat_net::fused::{
    assemble_chain, assemble_tail, compile_hops, hop_inputs, FusedStats, HopInputs,
};
use mcnetkat_net::{FailureSpec, ModelDescription, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{NodeId, ShortestPaths, Topology};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

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

/// A model delta: an edit to a loaded model's configuration. Applied with
/// [`Engine::apply`], which re-keys only the switches the delta touches
/// ([`Delta::touched`]) and recompiles those whose [`HopInputs`] changed,
/// unless the delta [`Delta::is_structural`].
#[derive(Clone, Debug)]
pub enum Delta {
    /// Replace the model-wide default routing scheme.
    SetScheme(RoutingScheme),
    /// Override one switch's routing scheme (a switch program edit).
    SetSwitchScheme(NodeId, RoutingScheme),
    /// Drop one switch's scheme override (back to the model default).
    ClearSwitchScheme(NodeId),
    /// Replace the uniform per-link failure probability.
    SetUniformPr(Ratio),
    /// Override one port's failure probability (heterogeneous links).
    SetLinkPr(u32, Ratio),
    /// Drop one port's probability override.
    ClearLinkPr(u32),
    /// Replace the failure budget `k` — **structural**: every switch that
    /// draws keys on `k`, so the whole per-switch cache is dropped.
    SetBudget(Option<u32>),
    /// Append one shared-risk link group.
    AddGroup(Srlg),
    /// Remove the named shared-risk group.
    RemoveGroup(String),
    /// Replace the named group's failure probability.
    SetGroupPr(String, Ratio),
    /// Replace the named group's member set (SRLG membership churn).
    SetGroupMembers(String, Vec<(u32, u32)>),
    /// Enable/disable/retarget the hop-counter cap.
    SetHopCap(Option<u32>),
    /// Replace the topology wholesale (link/switch add/remove) —
    /// **structural**: shortest paths shift globally.
    SetTopology(Topology),
    /// Retarget the destination switch — every route changes.
    SetDst(NodeId),
}

/// The switches a [`Delta`] may invalidate — the only ones
/// [`Engine::apply`] re-keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Touched {
    /// Potentially every switch.
    All,
    /// At most these switches.
    Set(BTreeSet<NodeId>),
}

impl Touched {
    /// Whether `s` is inside the bound.
    pub fn contains(&self, s: NodeId) -> bool {
        match self {
            Touched::All => true,
            Touched::Set(set) => set.contains(&s),
        }
    }

    /// The bound's size, given the model's switch count.
    pub fn len(&self, switches: usize) -> usize {
        match self {
            Touched::All => switches,
            Touched::Set(set) => set.len(),
        }
    }
}

impl Delta {
    /// Whether this delta touches shared compile structure (the failure
    /// budget every drawing switch keys on, the topology's global shortest
    /// paths) and
    /// therefore drops the per-switch cache for a full rebuild instead of
    /// patching.
    pub fn is_structural(&self) -> bool {
        matches!(self, Delta::SetBudget(_) | Delta::SetTopology(_))
    }

    /// The switches this delta may invalidate, computed *before*
    /// application. This is a correctness contract, not just accounting:
    /// [`Engine::apply`] recomputes [`HopInputs`] only for these switches
    /// and reuses every other switch's previous inputs and diagram, so a
    /// switch whose inputs change must lie inside this set. An edit to
    /// a model-wide property that `hop_inputs` reads (whether the failure
    /// spec is failure-free, the budget `k`, the destination, the hop
    /// cap, the topology) must therefore widen the set to every switch
    /// that reads it.
    pub fn touched(&self, model: &NetworkModel) -> Touched {
        let prone_switches = || {
            Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|&s| !model.prone_ports(s).is_empty())
                    .collect(),
            )
        };
        let group_switch = |members: &[(u32, u32)]| -> BTreeSet<NodeId> {
            members
                .iter()
                .filter_map(|&(sw, _)| model.topo.node_of_sw(sw))
                .collect()
        };
        match self {
            Delta::SetHopCap(_)
            | Delta::SetBudget(_)
            | Delta::SetTopology(_)
            | Delta::SetDst(_) => Touched::All,
            Delta::SetScheme(_) => Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|s| !model.scheme_overrides.contains_key(s))
                    .collect(),
            ),
            Delta::SetSwitchScheme(s, _) | Delta::ClearSwitchScheme(s) => {
                Touched::Set([*s].into_iter().collect())
            }
            // Every prone switch reads `is_failure_free`: its events'
            // probabilities and its budget drop out when it holds, and each
            // link step tests its `up_i` flag only when it does not.
            Delta::SetUniformPr(_) => prone_switches(),
            _ if self.flips_failure_free(&model.failure) => prone_switches(),
            Delta::SetLinkPr(port, _) | Delta::ClearLinkPr(port) => Touched::Set(
                model
                    .topo
                    .switches()
                    .iter()
                    .copied()
                    .filter(|&s| model.prone_ports(s).contains(port))
                    .collect(),
            ),
            Delta::AddGroup(g) => Touched::Set(group_switch(&g.members)),
            // Hop inputs name a group by its flags, not its index, so the
            // groups after a removed one keep their keys.
            Delta::RemoveGroup(name) | Delta::SetGroupPr(name, _) => Touched::Set(
                model
                    .failure
                    .groups
                    .iter()
                    .find(|g| &g.name == name)
                    .map(|g| group_switch(&g.members))
                    .unwrap_or_default(),
            ),
            Delta::SetGroupMembers(name, new_members) => {
                let mut touched = group_switch(new_members);
                if let Some(g) = model.failure.groups.iter().find(|g| &g.name == name) {
                    touched.extend(group_switch(&g.members));
                }
                Touched::Set(touched)
            }
        }
    }

    /// Whether applying this delta to `failure` flips
    /// [`FailureSpec::is_failure_free`].
    fn flips_failure_free(&self, failure: &FailureSpec) -> bool {
        let mut next = failure.clone();
        self.edit_failure(&mut next).is_ok() && next.is_failure_free() != failure.is_failure_free()
    }

    /// Applies this delta's failure-spec edit to `failure`; a delta that
    /// edits something else leaves it as it is.
    fn edit_failure(&self, failure: &mut FailureSpec) -> Result<(), EngineError> {
        let find_group = |failure: &FailureSpec, name: &str| -> Result<usize, EngineError> {
            failure
                .groups
                .iter()
                .position(|g| g.name == name)
                .ok_or_else(|| EngineError::InvalidDelta(format!("no group named {name:?}")))
        };
        match self {
            Delta::SetUniformPr(pr) => failure.pr = pr.clone(),
            Delta::SetLinkPr(port, pr) => {
                failure.link_pr.insert(*port, pr.clone());
            }
            Delta::ClearLinkPr(port) => {
                failure.link_pr.remove(port);
            }
            Delta::SetBudget(k) => failure.k = *k,
            Delta::AddGroup(g) => failure.groups.push(g.clone()),
            Delta::RemoveGroup(name) => {
                let i = find_group(failure, name)?;
                failure.groups.remove(i);
            }
            Delta::SetGroupPr(name, pr) => {
                let i = find_group(failure, name)?;
                failure.groups[i].pr = pr.clone();
            }
            Delta::SetGroupMembers(name, members) => {
                let i = find_group(failure, name)?;
                failure.groups[i].members = members.clone();
            }
            Delta::SetScheme(_)
            | Delta::SetSwitchScheme(..)
            | Delta::ClearSwitchScheme(_)
            | Delta::SetHopCap(_)
            | Delta::SetTopology(_)
            | Delta::SetDst(_) => {}
        }
        Ok(())
    }

    /// Builds the updated model this delta describes, without compiling
    /// anything. Field handles are re-derived through the process-wide
    /// interner, so they stay identical for identical names — cached
    /// diagrams remain valid across deltas.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidDelta`] when the edit is inconsistent (bad
    /// probability, unknown group, spec/topology mismatch); the input
    /// model is untouched.
    pub fn apply_to(&self, model: &NetworkModel) -> Result<NetworkModel, EngineError> {
        let mut topo = model.topo.clone();
        let mut dst = model.dst;
        let mut scheme = model.scheme;
        let mut overrides = model.scheme_overrides.clone();
        let mut failure = model.failure.clone();
        let mut hop_cap = model.hop_cap;
        self.edit_failure(&mut failure)?;
        match self {
            Delta::SetScheme(s) => scheme = *s,
            Delta::SetSwitchScheme(node, s) => {
                if !topo.switches().contains(node) {
                    return Err(EngineError::InvalidDelta(format!(
                        "no switch with id {node:?}"
                    )));
                }
                overrides.insert(*node, *s);
            }
            Delta::ClearSwitchScheme(node) => {
                overrides.remove(node);
            }
            Delta::SetHopCap(cap) => hop_cap = *cap,
            Delta::SetTopology(t) => {
                // `NodeId` is an index into a topology's node table, so a
                // raw id carried across a swap can silently rebind to a
                // different switch. Remap the destination and the scheme
                // overrides by node *name* into the replacement topology;
                // overrides whose switch no longer exists are dropped.
                let next_topo = t.clone();
                let dst_name = &topo.info(dst).name;
                dst = next_topo
                    .find(dst_name)
                    .filter(|n| next_topo.switches().contains(n))
                    .ok_or_else(|| {
                        EngineError::InvalidDelta(format!(
                            "new topology has no switch named {dst_name:?} \
                             (the current destination)"
                        ))
                    })?;
                overrides = overrides
                    .iter()
                    .filter_map(|(s, sch)| {
                        next_topo
                            .find(&topo.info(*s).name)
                            .filter(|n| next_topo.switches().contains(n))
                            .map(|n| (n, *sch))
                    })
                    .collect();
                topo = next_topo;
            }
            Delta::SetDst(node) => {
                if !topo.switches().contains(node) {
                    return Err(EngineError::InvalidDelta(format!(
                        "no switch with id {node:?}"
                    )));
                }
                dst = *node;
            }
            Delta::SetUniformPr(_)
            | Delta::SetLinkPr(..)
            | Delta::ClearLinkPr(_)
            | Delta::SetBudget(_)
            | Delta::AddGroup(_)
            | Delta::RemoveGroup(_)
            | Delta::SetGroupPr(..)
            | Delta::SetGroupMembers(..) => {} // edited by `edit_failure`
        }
        let mut next =
            NetworkModel::try_new(topo, dst, scheme, failure).map_err(EngineError::InvalidDelta)?;
        next.scheme_overrides = overrides;
        next.hop_cap = hop_cap;
        Ok(next)
    }
}

/// What one [`Engine::apply`] did.
#[derive(Clone, Copy, Debug)]
pub struct DeltaReport {
    /// Size of the delta's declared invalidation upper bound
    /// ([`Delta::touched`]; the switch count when `All`).
    pub touched_upper_bound: usize,
    /// Switches whose [`HopInputs`] were recomputed and looked up in the
    /// hop cache; every other switch reused its previous inputs and
    /// diagram. [`DeltaReport::rekey`] states why this many.
    pub switches_rekeyed: usize,
    /// Why [`DeltaReport::switches_rekeyed`] is what it is.
    pub rekey: Rekey,
    /// Re-keyed switches whose [`HopInputs`] actually changed. Invariant:
    /// `switches_changed <= switches_rekeyed`.
    pub switches_changed: usize,
    /// Switches recompiled (per-switch cache misses). At most
    /// `switches_changed` on a patch; up to the full switch count on a
    /// structural rebuild (the cache was dropped).
    pub switches_recompiled: usize,
    /// Whether the delta was structural (cache dropped, full rebuild).
    pub full_rebuild: bool,
    /// Whether the loop solve was answered from the `while`-solution
    /// cache (a chain body the engine had already seen).
    pub loop_cache_hit: bool,
    /// Where the patch's time went, phase by phase. The phases never
    /// overlap, so their sum is at most [`DeltaReport::elapsed`].
    pub phases: ApplyPhases,
    /// Wall-clock time of the whole patch.
    pub elapsed: Duration,
}

/// Wall-clock time of each phase of one [`Engine::apply`], in pipeline
/// order ([`DeltaReport::phases`]). What is left of
/// [`DeltaReport::elapsed`] is the delta's own bookkeeping: computing the
/// next model and its touched set, and updating the engine's tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyPhases {
    /// Recomputing the touched switches' [`HopInputs`] and looking them up
    /// in the hop cache.
    pub rekey: Duration,
    /// Compiling the hop-cache misses ([`compile_hops`]).
    pub hop_compile: Duration,
    /// Folding the `sw`-case chain ([`assemble_chain`]).
    pub assemble_chain: Duration,
    /// Solving the loop, or finding it in the `while`-solution cache.
    pub loop_solve: Duration,
    /// Ingress, normalisation and local wrappers ([`assemble_tail`]).
    pub tail: Duration,
    /// Appending the delta's record to the journal (a no-op without
    /// one).
    pub journal: Duration,
}

impl ApplyPhases {
    /// The phases' total.
    pub fn sum(&self) -> Duration {
        self.rekey
            + self.hop_compile
            + self.assemble_chain
            + self.loop_solve
            + self.tail
            + self.journal
    }
}

/// Why an [`Engine::apply`] re-keyed the switches it did
/// ([`DeltaReport::rekey`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rekey {
    /// Only the switches the delta's [`Touched::Set`] names: one for a
    /// switch program edit, every switch owning the port for a port
    /// probability edit, every prone switch when the edit flips
    /// [`FailureSpec::is_failure_free`].
    Touched,
    /// Every switch: the delta edits a model-wide property
    /// ([`Touched::All`]: the hop cap or the destination).
    All,
    /// Every switch against a fresh hop cache: the delta is
    /// [`Delta::is_structural`].
    Structural,
}

/// A single query against loaded models.
#[derive(Clone, Debug)]
pub enum Query {
    /// Probability a packet injected at ingress `src` reaches the
    /// destination.
    DeliveryProb {
        /// The model to query.
        model: ModelId,
        /// Ingress switch.
        src: NodeId,
    },
    /// Whether `src` can reach the destination at all (delivery
    /// probability strictly positive).
    Reachable {
        /// The model to query.
        model: ModelId,
        /// Ingress switch.
        src: NodeId,
    },
    /// The minimum delivery probability over every ingress.
    MinDelivery {
        /// The model to query.
        model: ModelId,
    },
    /// Whether `left` refines `right`: at least as likely to deliver from
    /// every ingress ([`Queries::refines`]).
    Refines {
        /// The candidate refinement.
        left: ModelId,
        /// The model refined against.
        right: ModelId,
    },
    /// Whether the two compiled models are equivalent as packet
    /// transformers.
    Equiv {
        /// First model.
        left: ModelId,
        /// Second model.
        right: ModelId,
    },
    /// Whether the model delivers like the ideal teleport specification
    /// (failure-free resilience check).
    EquivTeleport {
        /// The model to query.
        model: ModelId,
    },
}

/// A [`Query`] plus its resource [`Budget`]. A budget that is already
/// cancelled or past its deadline rejects the query at admission; limits
/// are also re-checked against the manager between query steps.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// What to answer.
    pub query: Query,
    /// Per-query resource budget (unlimited by default).
    pub budget: Budget,
}

impl QueryRequest {
    /// Gives the request a deadline this far in the future, keeping the
    /// rest of its budget. The overload story in one line: batch
    /// producers attach deadlines, slow queries trip them, and the
    /// degraded-answer path ([`EngineConfig::degraded_grace`]) gets one
    /// bounded retry before the error surfaces.
    pub fn with_deadline(mut self, timeout: Duration) -> QueryRequest {
        self.budget = self.budget.with_deadline(timeout);
        self
    }
}

impl From<Query> for QueryRequest {
    fn from(query: Query) -> QueryRequest {
        QueryRequest {
            query,
            budget: Budget::unlimited(),
        }
    }
}

/// A query's answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// An exact probability.
    Prob(Ratio),
    /// A truth value.
    Bool(bool),
}

impl Answer {
    /// The probability inside, if this is a probability answer.
    pub fn prob(&self) -> Option<&Ratio> {
        match self {
            Answer::Prob(r) => Some(r),
            Answer::Bool(_) => None,
        }
    }

    /// The truth value inside, if this is a boolean answer.
    pub fn truth(&self) -> Option<bool> {
        match self {
            Answer::Bool(b) => Some(*b),
            Answer::Prob(_) => None,
        }
    }
}

/// A point-in-time snapshot of the engine's gauges.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Loaded models.
    pub models: usize,
    /// Per-switch diagrams currently cached.
    pub hop_cache_entries: usize,
    /// Per-switch diagrams reused instead of compiled (cumulative): hop
    /// cache hits, plus switches outside a delta's touched set, which
    /// reuse their previous diagram without a lookup.
    pub hop_cache_hits: u64,
    /// Per-switch compiles that ran (cumulative).
    pub hop_cache_misses: u64,
    /// Deltas applied (cumulative).
    pub deltas_applied: u64,
    /// Deltas that dropped the cache for a structural rebuild.
    pub full_rebuilds: u64,
    /// Switches re-keyed, summed over all deltas
    /// ([`DeltaReport::switches_rekeyed`]).
    pub switches_rekeyed: u64,
    /// Switches whose inputs changed, summed over all deltas.
    pub switches_changed: u64,
    /// Switches recompiled, summed over all deltas.
    pub switches_recompiled: u64,
    /// Queries answered (cumulative, including rejected ones).
    pub queries: u64,
    /// Median per-query latency in nanoseconds (0 before any query).
    pub query_p50_ns: u64,
    /// 99th-percentile per-query latency in nanoseconds.
    pub query_p99_ns: u64,
    /// The manager's `while`-loop solution cache counters — the gauge of
    /// how many chain-body solves the warm cache absorbed.
    pub while_cache: WhileCacheStats,
    /// Op-cache lookups answered from cache, summed over all op caches.
    pub op_cache_hits: u64,
    /// Op-cache lookups that had to compute, summed.
    pub op_cache_misses: u64,
    /// Op-cache entries discarded by the capacity bound
    /// ([`Manager::set_cache_capacity`]) — nonzero means the bound is
    /// actively limiting the long-lived manager's memory.
    pub op_cache_evictions: u64,
    /// Peak live nodes the shared manager ever held.
    pub peak_live_nodes: usize,
    /// Bytes of write-ahead journal written (0 when not journaling).
    pub journal_bytes: u64,
    /// Records appended to the journal, including a resumed prefix's.
    pub journal_records: u64,
    /// Whether a journal failure has poisoned the writer (mutating
    /// operations now refuse; recover to resume).
    pub journal_poisoned: bool,
    /// Times this engine's state was rebuilt by [`Engine::recover`]
    /// (0 or 1 — an engine recovers at construction, never live).
    pub recoveries: u64,
    /// Queries shed by the admission gate ([`EngineError::Overloaded`]).
    pub queries_shed: u64,
    /// Deadline-tripped queries salvaged by the degraded retry
    /// ([`EngineConfig::degraded_grace`]).
    pub degraded_answers: u64,
    /// Hop-cache entries evicted by unload auto-trim,
    /// [`Engine::trim_hop_cache`], and the configured cache limit.
    pub hop_cache_evictions: u64,
}

/// Each switch's compile inputs and the hop diagram they keyed.
type SwitchHops = BTreeMap<NodeId, (HopInputs, Fdd)>;

struct ModelEntry {
    model: NetworkModel,
    fdd: Fdd,
    hops: SwitchHops,
    /// `model`'s compiled teleport specification
    /// ([`NetworkModel::teleport`]), filled by the first
    /// [`Query::EquivTeleport`] whose compile succeeds and emptied
    /// whenever `model` changes. Like `fdd` it is a handle into the
    /// engine's manager, so a manager compaction must remap it too.
    teleport: OnceLock<Fdd>,
}

/// What [`Engine::compile_incremental`] built.
struct Patch {
    /// The assembled model diagram.
    fdd: Fdd,
    /// The re-keyed switches' inputs and diagrams.
    rekeyed: SwitchHops,
    /// Re-keyed switches that missed the hop cache and compiled.
    recompiled: usize,
    /// Time per compile phase (the journal phase is left zero).
    phases: ApplyPhases,
}

impl ModelEntry {
    /// The entry for a model compiled with every switch re-keyed.
    fn new(model: NetworkModel, patch: Patch) -> ModelEntry {
        ModelEntry {
            model,
            fdd: patch.fdd,
            hops: patch.rekeyed,
            teleport: OnceLock::new(),
        }
    }

    /// Every switch's current compile inputs.
    fn inputs(&self) -> impl Iterator<Item = &HopInputs> {
        self.hops.values().map(|(inp, _)| inp)
    }
}

/// Configuration for a fresh [`Engine`].
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// Compile options for every compile the engine runs (loop state
    /// limit, default budget for loads/patches).
    pub opts: CompileOptions,
    /// When set, bound each of the manager's op caches to this many
    /// entries (clear-on-overflow; see [`Manager::set_cache_capacity`]).
    /// Evictions surface in [`EngineStats::op_cache_evictions`].
    pub cache_capacity: Option<usize>,
    /// When set, the per-switch hop cache is trimmed back to the entries
    /// referenced by the loaded models whenever it grows past this many
    /// entries ([`Engine::trim_hop_cache`] runs after the load/apply that
    /// overflowed). Unset means the cache only shrinks on structural
    /// rebuilds and unloads — fine for benchmarks; bound it for a
    /// long-lived server.
    pub hop_cache_limit: Option<usize>,
    /// When set, at most this many queries run at once; excess queries
    /// are shed at admission with [`EngineError::Overloaded`] instead of
    /// queueing without bound. [`Engine::query_batch`] also caps its
    /// worker fan-out here (its own requests queue rather than shed).
    /// Unset means no gate (every caller thread runs).
    pub max_concurrent_queries: Option<usize>,
    /// When set, a query that trips its deadline is retried once with a
    /// fresh budget of this duration before the error surfaces — a late
    /// degraded answer beats none. Salvaged queries count in
    /// [`EngineStats::degraded_answers`]. Unset disables the retry.
    pub degraded_grace: Option<Duration>,
}

/// Cap on retained query-latency samples. Once full, new samples
/// overwrite the oldest (a ring), so the gauges track a recent window
/// instead of the whole process lifetime and [`Engine::stats`] sorts a
/// bounded vector.
const LATENCY_SAMPLE_CAP: usize = 4096;

/// A fixed-capacity ring of latency samples. Order is irrelevant (the
/// percentile pass sorts), so overwrite-at-cursor is all it needs.
struct LatencyRing {
    samples: Vec<u64>,
    cursor: usize,
}

impl LatencyRing {
    fn new() -> LatencyRing {
        LatencyRing {
            samples: Vec::new(),
            cursor: 0,
        }
    }

    fn push(&mut self, ns: u64) {
        if self.samples.len() < LATENCY_SAMPLE_CAP {
            self.samples.push(ns);
        } else {
            self.samples[self.cursor] = ns;
            self.cursor = (self.cursor + 1) % LATENCY_SAMPLE_CAP;
        }
    }

    fn clear(&mut self) {
        self.samples.clear();
        self.cursor = 0;
    }
}

/// A long-lived incremental verification engine: one shared [`Manager`],
/// a per-switch diagram cache keyed on [`HopInputs`], loaded models, and
/// latency-tracked concurrent queries. See the crate docs for the full
/// story.
pub struct Engine {
    mgr: Manager,
    opts: CompileOptions,
    models: BTreeMap<ModelId, ModelEntry>,
    next_id: u64,
    hops: HashMap<HopInputs, Fdd>,
    // Cumulative counters. Delta-path counters are plain (apply takes
    // `&mut self`); query counters are atomics (query_batch takes `&self`
    // and runs concurrently).
    hop_hits: u64,
    hop_misses: u64,
    deltas_applied: u64,
    full_rebuilds: u64,
    switches_rekeyed: u64,
    switches_changed: u64,
    switches_recompiled: u64,
    hop_cache_evictions: u64,
    queries: AtomicU64,
    latencies_ns: Mutex<LatencyRing>,
    hop_cache_limit: Option<usize>,
    // Durability: the write-ahead journal (None for an in-memory-only
    // engine) and how many times this state was rebuilt by recovery.
    journal: Option<journal::JournalWriter>,
    recoveries: u64,
    // Overload tolerance: the admission gate and its gauges.
    max_concurrent_queries: Option<usize>,
    degraded_grace: Option<Duration>,
    active_queries: AtomicUsize,
    queries_shed: AtomicU64,
    degraded_answers: AtomicU64,
}

/// What [`Engine::recover`] rebuilt and repaired.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Models rebuilt from the snapshot checkpoint.
    pub snapshot_models: usize,
    /// Journal records replayed past the snapshot offset.
    pub records_replayed: u64,
    /// Torn-tail bytes truncated off the journal before resuming.
    pub truncated_bytes: u64,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Engine {
        let mgr = match config.cache_capacity {
            Some(cap) => Manager::with_cache_capacity(cap),
            None => Manager::new(),
        };
        Engine {
            mgr,
            opts: config.opts,
            models: BTreeMap::new(),
            next_id: 0,
            hops: HashMap::new(),
            hop_hits: 0,
            hop_misses: 0,
            deltas_applied: 0,
            full_rebuilds: 0,
            switches_rekeyed: 0,
            switches_changed: 0,
            switches_recompiled: 0,
            hop_cache_evictions: 0,
            queries: AtomicU64::new(0),
            latencies_ns: Mutex::new(LatencyRing::new()),
            hop_cache_limit: config.hop_cache_limit,
            journal: None,
            recoveries: 0,
            max_concurrent_queries: config.max_concurrent_queries,
            degraded_grace: config.degraded_grace,
            active_queries: AtomicUsize::new(0),
            queries_shed: AtomicU64::new(0),
            degraded_answers: AtomicU64::new(0),
        }
    }

    /// Creates a **journaling** engine over a fresh durability directory:
    /// every load, delta, and unload is appended to
    /// `dir/`[`journal::JOURNAL_FILE`] after its compile and *before* it
    /// mutates state, so a crash at any point recovers
    /// ([`Engine::recover`]) to exactly the state the survivor would have
    /// reported.
    ///
    /// This is a *fresh start*: any stale journal or snapshot in `dir`
    /// is discarded. To resume an existing directory's state, use
    /// [`Engine::recover`] instead.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] when the directory or journal cannot be
    /// created.
    pub fn with_journal(
        config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Engine, EngineError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(|e| JournalError::Io(e.to_string()))?;
        let snap = dir.join(journal::SNAPSHOT_FILE);
        if snap.exists() {
            std::fs::remove_file(&snap).map_err(|e| JournalError::Io(e.to_string()))?;
        }
        let writer = journal::JournalWriter::create(&dir.join(journal::JOURNAL_FILE))?;
        let mut engine = Engine::new(config);
        engine.journal = Some(writer);
        Ok(engine)
    }

    /// Rebuilds an engine from a durability directory: the snapshot's
    /// models (if one exists), then every whole journal record past the
    /// snapshot offset, applied in order through the normal
    /// (non-journaling) load/apply/unload paths. A torn journal tail is
    /// truncated (partial writes are expected on crash); interior
    /// corruption is refused with a typed [`RecoveryError`]. Every
    /// recovered model is then re-verified against a cold compile
    /// ([`Engine::verify_against_cold`]) before the engine is handed
    /// back, journaling resumed at the truncated tail.
    ///
    /// `config` should match the crashed engine's (the replay re-runs
    /// its compiles under this config's budget and options).
    ///
    /// # Errors
    ///
    /// [`RecoveryError`]; the partially-built engine is dropped.
    pub fn recover(
        config: EngineConfig,
        dir: impl AsRef<Path>,
    ) -> Result<(Engine, RecoveryReport), RecoveryError> {
        let dir = dir.as_ref();
        let journal_path = dir.join(journal::JOURNAL_FILE);
        let snapshot_path = dir.join(journal::SNAPSHOT_FILE);
        if !journal_path.exists() && !snapshot_path.exists() {
            return Err(RecoveryError::NothingToRecover);
        }

        let scanned = if journal_path.exists() {
            journal::scan(&journal_path)?
        } else {
            journal::ScanResult {
                records: Vec::new(),
                valid_len: 0,
                truncated_bytes: 0,
            }
        };
        let snap = if snapshot_path.exists() {
            let s = journal::read_snapshot(&snapshot_path)?;
            if s.journal_offset > scanned.valid_len {
                return Err(RecoveryError::Snapshot(format!(
                    "snapshot taken at journal offset {} but only {} valid journal bytes exist",
                    s.journal_offset, scanned.valid_len
                )));
            }
            Some(s)
        } else {
            None
        };

        let mut engine = Engine::new(config);
        let mut snapshot_models = 0usize;
        if let Some(s) = &snap {
            engine.next_id = s.next_id;
            engine.deltas_applied = s.counters.deltas_applied;
            engine.full_rebuilds = s.counters.full_rebuilds;
            engine.switches_changed = s.counters.switches_changed;
            for (id, desc) in &s.models {
                let model = desc.build().map_err(|e| {
                    RecoveryError::Snapshot(format!("model m{id} failed to build: {e}"))
                })?;
                engine.load_recovered(ModelId(*id), model).map_err(|e| {
                    RecoveryError::Snapshot(format!("model m{id} failed to compile: {e}"))
                })?;
                snapshot_models += 1;
            }
        }

        // Replay the tail. Every whole record is an operation whose
        // compile had succeeded, appended just before the survivor's swap.
        let floor = snap.as_ref().map_or(0, |s| s.journal_offset);
        let mut replayed = 0u64;
        for (offset, rec) in &scanned.records {
            if *offset < floor {
                continue; // already inside the snapshot
            }
            let fail = |why: String| RecoveryError::Replay {
                index: replayed,
                why,
            };
            match rec {
                Record::Load { id, desc } => {
                    let model = desc.build().map_err(fail)?;
                    engine
                        .load_recovered(ModelId(*id), model)
                        .map_err(|e| fail(e.to_string()))?;
                    engine.next_id = engine.next_id.max(id + 1);
                }
                Record::Apply { id, delta } => {
                    // The engine's journal is still `None`, so this is
                    // the ordinary apply path minus journaling — same
                    // compile, same accounting.
                    engine
                        .apply(ModelId(*id), delta.clone())
                        .map_err(|e| fail(e.to_string()))?;
                }
                Record::Unload { id } => {
                    engine
                        .unload(ModelId(*id))
                        .map_err(|e| fail(e.to_string()))?;
                }
                Record::Commit => continue, // written by no engine path
            }
            replayed += 1;
        }

        // The recovered state must not merely load — it must be the
        // ground truth. Re-verify every model against a cold compile.
        let ids: Vec<ModelId> = engine.models.keys().copied().collect();
        for id in ids {
            match engine.verify_against_cold(id) {
                Ok(true) => {}
                Ok(false) => {
                    return Err(RecoveryError::Verify(format!(
                        "model {id} differs from a cold compile"
                    )))
                }
                Err(e) => return Err(RecoveryError::Verify(format!("model {id}: {e}"))),
            }
        }

        // Truncate the torn tail for real and resume journaling there.
        let writer = journal::JournalWriter::open_at(
            &journal_path,
            scanned.valid_len,
            scanned.records.len() as u64,
        )
        .map_err(|e| RecoveryError::Io(e.to_string()))?;
        engine.journal = Some(writer);
        engine.recoveries = 1;

        Ok((
            engine,
            RecoveryReport {
                snapshot_models,
                records_replayed: replayed,
                truncated_bytes: scanned.truncated_bytes,
            },
        ))
    }

    /// Writes a snapshot checkpoint of the durable state — every loaded
    /// model's description (not its FDD — recompilation is the source of
    /// truth), the id counter, the delta accounting, and the journal
    /// offset — atomically (temp file + rename). Recovery from a
    /// snapshot replays only the journal records past its offset, so
    /// periodic snapshots bound replay time for long delta histories.
    ///
    /// # Errors
    ///
    /// [`EngineError::Journal`] on write failure.
    pub fn snapshot(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        let snap = journal::Snapshot {
            journal_offset: self.journal.as_ref().map_or(0, |w| w.offset()),
            next_id: self.next_id,
            models: self
                .models
                .iter()
                .map(|(id, e)| (id.0, ModelDescription::of(&e.model)))
                .collect(),
            counters: journal::SnapshotCounters {
                deltas_applied: self.deltas_applied,
                full_rebuilds: self.full_rebuilds,
                switches_changed: self.switches_changed,
            },
        };
        journal::write_snapshot(path.as_ref(), &snap)?;
        Ok(())
    }

    /// Appends one operation's record, with one `fsync` (a no-op
    /// without a journal). Callers run it after the operation's fallible
    /// work and before its infallible swap, so on error they leave the
    /// engine as it was.
    fn journal_append(&mut self, rec: &Record) -> Result<(), EngineError> {
        if let Some(w) = &mut self.journal {
            w.append(rec)?;
        }
        Ok(())
    }

    /// The engine's shared manager (for cross-manager imports in
    /// differential tests and for direct diagram queries).
    pub fn manager(&self) -> &Manager {
        &self.mgr
    }

    /// Loads a model, compiling it through the per-switch cache (a model
    /// sharing switches with an already-loaded one reuses their
    /// diagrams), and returns its handle.
    ///
    /// All loaded models share field handles: [`NetworkModel::new`]
    /// interns the canonical fields in one fixed order.
    ///
    /// # Errors
    ///
    /// Propagates compile failures and [`EngineError::Journal`]; the
    /// engine state is unchanged on error.
    pub fn load(&mut self, model: NetworkModel) -> Result<ModelId, EngineError> {
        let id = ModelId(self.next_id);
        let patch = self.compile_incremental(&model, &Touched::All, &SwitchHops::new())?;
        self.journal_append(&Record::Load {
            id: id.0,
            desc: ModelDescription::of(&model),
        })?;
        self.next_id += 1;
        self.models.insert(id, ModelEntry::new(model, patch));
        self.enforce_hop_cache_limit();
        Ok(id)
    }

    /// Loads a model under a recovery-dictated id, bypassing the journal
    /// (recovery replays the journal; re-journaling would double it).
    fn load_recovered(&mut self, id: ModelId, model: NetworkModel) -> Result<(), EngineError> {
        if self.models.contains_key(&id) {
            return Err(EngineError::InvalidDelta(format!(
                "duplicate model id {id} in recovery stream"
            )));
        }
        let patch = self.compile_incremental(&model, &Touched::All, &SwitchHops::new())?;
        self.models.insert(id, ModelEntry::new(model, patch));
        self.enforce_hop_cache_limit();
        Ok(())
    }

    /// Drops a loaded model and auto-trims its now-unreferenced hop-cache
    /// entries (diagrams other loaded models still reference stay warm);
    /// the evictions count in [`EngineStats::hop_cache_evictions`].
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] if `id` is not loaded;
    /// [`EngineError::Journal`] when the unload cannot be journaled (the
    /// model stays loaded).
    pub fn unload(&mut self, id: ModelId) -> Result<(), EngineError> {
        if !self.models.contains_key(&id) {
            return Err(EngineError::UnknownModel(id));
        }
        self.journal_append(&Record::Unload { id: id.0 })?;
        self.unload_internal(id);
        Ok(())
    }

    /// The journal-free unload: remove the entry, then evict every hop
    /// diagram it referenced that no remaining model does.
    fn unload_internal(&mut self, id: ModelId) {
        let entry = self.models.remove(&id).expect("caller checked presence");
        let live: HashSet<&HopInputs> = self.models.values().flat_map(ModelEntry::inputs).collect();
        let mut evicted = 0u64;
        for inp in entry.inputs() {
            if !live.contains(inp) && self.hops.remove(inp).is_some() {
                evicted += 1;
            }
        }
        drop(live);
        self.hop_cache_evictions += evicted;
        self.enforce_hop_cache_limit();
    }

    /// The current model behind a handle.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] if `id` is not loaded.
    pub fn model(&self, id: ModelId) -> Result<&NetworkModel, EngineError> {
        self.models
            .get(&id)
            .map(|e| &e.model)
            .ok_or(EngineError::UnknownModel(id))
    }

    /// The model's current compiled diagram (a handle into
    /// [`Engine::manager`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] if `id` is not loaded.
    pub fn fdd(&self, id: ModelId) -> Result<Fdd, EngineError> {
        self.models
            .get(&id)
            .map(|e| e.fdd)
            .ok_or(EngineError::UnknownModel(id))
    }

    /// Applies a delta to a loaded model: computes the updated model,
    /// re-keys only the switches [`Delta::touched`] names (all of them
    /// for a [`Touched::All`] or structural delta), recompiles those
    /// whose [`HopInputs`] miss the hop cache, re-folds the `sw`-case
    /// chain, and finishes through the batch pipeline's
    /// [`assemble_model`](mcnetkat_net::fused::assemble_model) tail —
    /// where an already-seen chain body hits the `while`-solution cache
    /// and skips the loop solve. Every other switch reuses its previous
    /// inputs and diagram, so a one-switch delta costs one switch's
    /// keying, not the network's. The report times each of those steps
    /// ([`DeltaReport::phases`]).
    ///
    /// On error the engine keeps the pre-delta model and diagram.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`], [`EngineError::InvalidDelta`], a
    /// propagated compile failure, or [`EngineError::Journal`].
    pub fn apply(&mut self, id: ModelId, delta: Delta) -> Result<DeltaReport, EngineError> {
        let start = Instant::now();
        let entry = self.models.get(&id).ok_or(EngineError::UnknownModel(id))?;
        let next = delta.apply_to(&entry.model)?;
        let touched = delta.touched(&entry.model);
        let full_rebuild = delta.is_structural();
        // Shared structure moved under the cache: a structural delta
        // recompiles against a fresh cache so no stale field/budget
        // coupling survives. The pre-delta cache is kept aside and only
        // dropped once the compile succeeds — a budget trip restores it
        // (and the rebuild counter) along with the model.
        let saved_hops = full_rebuild.then(|| std::mem::take(&mut self.hops));

        let while_stats_before = self.mgr.while_cache_stats();
        let mut hops = std::mem::take(
            &mut self
                .models
                .get_mut(&id)
                .expect("entry looked up above")
                .hops,
        );
        // The record goes down after the compile and before the
        // (infallible) in-memory swap: a crash on either side of it leaves
        // journal and state agreeing, and a failed compile writes nothing.
        let compiled = self
            .compile_incremental(&next, &touched, &hops)
            .and_then(|mut patch| {
                let journal_start = Instant::now();
                self.journal_append(&Record::Apply { id: id.0, delta })?;
                patch.phases.journal = journal_start.elapsed();
                Ok(patch)
            });
        let entry = self.models.get_mut(&id).expect("entry looked up above");
        let patch = match compiled {
            Ok(patch) => patch,
            Err(e) => {
                // Pre-delta state intact.
                entry.hops = hops;
                if let Some(old) = saved_hops {
                    self.hops = old;
                }
                return Err(e);
            }
        };
        let changed = patch
            .rekeyed
            .iter()
            .filter(|(s, (inp, _))| hops.get(s).map(|(old, _)| old) != Some(inp))
            .count();
        let rekeyed = patch.rekeyed.len();
        if touched == Touched::All {
            // The topology may have changed: drop switches that are gone.
            hops = patch.rekeyed;
        } else {
            hops.extend(patch.rekeyed);
        }
        entry.model = next;
        entry.fdd = patch.fdd;
        entry.hops = hops;
        entry.teleport = OnceLock::new();

        if full_rebuild {
            self.full_rebuilds += 1;
        }
        self.deltas_applied += 1;
        self.switches_rekeyed += rekeyed as u64;
        self.switches_changed += changed as u64;
        self.switches_recompiled += patch.recompiled as u64;
        self.enforce_hop_cache_limit();
        let while_stats_after = self.mgr.while_cache_stats();
        let switches = self.models[&id].model.topo.switches().len();
        Ok(DeltaReport {
            touched_upper_bound: touched.len(switches),
            switches_rekeyed: rekeyed,
            rekey: match touched {
                _ if full_rebuild => Rekey::Structural,
                Touched::All => Rekey::All,
                Touched::Set(_) => Rekey::Touched,
            },
            switches_changed: changed,
            switches_recompiled: patch.recompiled,
            full_rebuild,
            loop_cache_hit: while_stats_after.hits > while_stats_before.hits,
            phases: patch.phases,
            elapsed: start.elapsed(),
        })
    }

    /// Compiles `model` against the per-switch cache. Switches inside
    /// `touched` are re-keyed: their [`HopInputs`] are recomputed and
    /// looked up in the hop cache, and the deduplicated misses compile
    /// through [`compile_hops`] into the cache. Every other switch reuses
    /// its inputs and diagram from `prev` as they are, which is sound only
    /// because [`Delta::touched`] names every switch whose inputs can
    /// change; debug builds recompute the untouched switches' inputs to
    /// check that contract.
    fn compile_incremental(
        &mut self,
        model: &NetworkModel,
        touched: &Touched,
        prev: &SwitchHops,
    ) -> Result<Patch, EngineError> {
        let mut phases = ApplyPhases::default();
        let rekey_start = Instant::now();
        let sp = ShortestPaths::towards(&model.topo, model.dst);
        let mut keyed: Vec<(NodeId, HopInputs)> = Vec::new();
        for &s in model.topo.switches() {
            if touched.contains(s) {
                // Per-switch budget checkpoint, mirroring the cold compile.
                #[cfg(feature = "failpoints")]
                mcnetkat_fdd::failpoints::check_compile("serve::apply::patch")?;
                self.opts.budget.check_external()?;
                keyed.push((s, hop_inputs(model, s, &sp)));
            } else {
                debug_assert!(
                    prev.get(&s).map(|(inp, _)| inp) == Some(&hop_inputs(model, s, &sp)),
                    "switch {s:?} lies outside the delta's touched set but its inputs changed"
                );
                self.hop_hits += 1;
            }
        }
        // A miss is an input neither the cache nor an earlier switch of
        // this compile holds; repeats of it count as hits.
        let mut misses: Vec<HopInputs> = Vec::new();
        let mut missed: HashSet<&HopInputs> = HashSet::new();
        for (_, inp) in &keyed {
            if self.hops.contains_key(inp) || !missed.insert(inp) {
                self.hop_hits += 1;
            } else {
                self.hop_misses += 1;
                misses.push(inp.clone());
            }
        }
        phases.rekey = rekey_start.elapsed();
        let compile_start = Instant::now();
        let fresh = compile_hops(
            &self.mgr,
            &misses,
            1,
            &self.opts,
            &mut FusedStats::default(),
        )?;
        let recompiled = misses.len();
        self.hops.extend(misses.into_iter().zip(fresh));
        let rekeyed: SwitchHops = keyed
            .into_iter()
            .map(|(s, inp)| {
                let fdd = self.hops[&inp];
                (s, (inp, fdd))
            })
            .collect();
        phases.hop_compile = compile_start.elapsed();
        let chain_start = Instant::now();
        let body = assemble_chain(&self.mgr, model, |s| {
            let (_, fdd) = rekeyed
                .get(&s)
                .or_else(|| prev.get(&s))
                .expect("an untouched switch keeps its previous inputs");
            Ok(*fdd)
        })?;
        phases.assemble_chain = chain_start.elapsed();
        #[cfg(feature = "failpoints")]
        mcnetkat_fdd::failpoints::check_compile("serve::apply::assemble")?;
        let loop_start = Instant::now();
        let guard = self.mgr.compile_pred(&model.guard());
        let loop_fdd = self.mgr.while_loop(guard, body, &self.opts)?;
        phases.loop_solve = loop_start.elapsed();
        let tail_start = Instant::now();
        let fdd = assemble_tail(&self.mgr, model, body, loop_fdd, &self.opts)?;
        phases.tail = tail_start.elapsed();
        #[cfg(feature = "audit")]
        mcnetkat_net::fused::audit_compiled_model(&self.mgr, model, fdd);
        Ok(Patch {
            fdd,
            rekeyed,
            recompiled,
            phases,
        })
    }

    /// Recompiles the model cold — fresh manager, empty caches, the batch
    /// [`NetworkModel::compile_with`] pipeline — imports the result, and
    /// checks it equivalent to the engine's incrementally patched
    /// diagram. The ground-truth check the CI `serve` job gates on.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] or a propagated compile failure from
    /// the cold compile.
    pub fn verify_against_cold(&self, id: ModelId) -> Result<bool, EngineError> {
        let entry = self.models.get(&id).ok_or(EngineError::UnknownModel(id))?;
        let cold_mgr = Manager::new();
        let cold = entry.model.compile_with(&cold_mgr, &self.opts)?;
        let imported = self.mgr.import(&cold_mgr.export(cold));
        Ok(self.mgr.equiv(entry.fdd, imported))
    }

    /// Answers a batch of queries concurrently over the shared manager,
    /// each under its own budget. Results come back in request order;
    /// each failure is per-query (one budget trip doesn't poison the
    /// batch).
    ///
    /// Worker fan-out is capped at
    /// [`EngineConfig::max_concurrent_queries`] (falling back to the
    /// machine's parallelism), and the requests past the cap *queue* on
    /// the workers' shared cursor rather than spawning threads — a 10k
    /// query batch runs on a handful of threads. A batch with one worker
    /// (one request, or a cap of one) runs on the caller's thread. Under
    /// cross-batch contention, individual queries can still shed with
    /// [`EngineError::Overloaded`] (the admission gate is global).
    pub fn query_batch(&self, reqs: &[QueryRequest]) -> Vec<Result<Answer, EngineError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = reqs
            .len()
            .min(self.max_concurrent_queries.unwrap_or(hardware))
            .max(1);
        if workers == 1 {
            // One worker would only queue the requests behind a thread
            // spawn: answer them on the caller's thread, in order.
            return reqs.iter().map(|req| self.query(req)).collect();
        }
        let slots: Vec<OnceLock<Result<Answer, EngineError>>> =
            (0..reqs.len()).map(|_| OnceLock::new()).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let result = self.query(req);
                    slots[i]
                        .set(result)
                        .map_err(|_| "slot")
                        .expect("slot set once");
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("every slot filled by a worker"))
            .collect()
    }

    /// Answers one query under its budget, recording its latency.
    ///
    /// Admission happens in two layers. First the concurrency gate:
    /// when [`EngineConfig::max_concurrent_queries`] queries are already
    /// in flight, the query is *shed* with [`EngineError::Overloaded`]
    /// before any work. Then the budget: a cancelled or expired budget
    /// rejects the query, and limits are re-checked against the manager
    /// between steps of multi-part queries. A query that completes its
    /// computation returns its answer even if the deadline passed
    /// meanwhile — a late exact answer is still an answer — and a query
    /// that *trips* its deadline gets one degraded retry under
    /// [`EngineConfig::degraded_grace`] (when configured) before the
    /// error surfaces.
    ///
    /// # Errors
    ///
    /// [`EngineError::Overloaded`], [`EngineError::UnknownModel`], a
    /// budget-trip [`CompileError`], or a propagated compile failure
    /// (the teleport check compiles its specification on first use,
    /// under the query's budget).
    pub fn query(&self, req: &QueryRequest) -> Result<Answer, EngineError> {
        let start = Instant::now();
        self.queries.fetch_add(1, Ordering::Relaxed);
        let _permit = self.admit()?;
        let mut result = self.answer(req);
        if let (Err(EngineError::Compile(CompileError::DeadlineExceeded)), Some(grace)) =
            (&result, self.degraded_grace)
        {
            // Degraded path: one bounded retry with a fresh deadline.
            // The retry runs the same exact solve, so its only new
            // allowance is time.
            let retry = QueryRequest {
                query: req.query.clone(),
                budget: Budget::unlimited().with_deadline(grace),
            };
            if let Ok(answer) = self.answer(&retry) {
                self.degraded_answers.fetch_add(1, Ordering::Relaxed);
                result = Ok(answer);
            }
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.latencies_ns
            .lock()
            .expect("latency gauge poisoned")
            .push(ns);
        result
    }

    /// The admission gate: takes a concurrency permit or sheds.
    fn admit(&self) -> Result<Option<QueryPermit<'_>>, EngineError> {
        let Some(limit) = self.max_concurrent_queries else {
            return Ok(None);
        };
        let mut active = self.active_queries.load(Ordering::Relaxed);
        loop {
            if active >= limit {
                self.queries_shed.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded { active, limit });
            }
            match self.active_queries.compare_exchange_weak(
                active,
                active + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(Some(QueryPermit(&self.active_queries))),
                Err(now) => active = now,
            }
        }
    }

    fn answer(&self, req: &QueryRequest) -> Result<Answer, EngineError> {
        req.budget.check_external()?;
        let queries = |id: ModelId| -> Result<Queries<'_>, EngineError> {
            let entry = self.models.get(&id).ok_or(EngineError::UnknownModel(id))?;
            Ok(Queries::from_fdd(&self.mgr, &entry.model, entry.fdd))
        };
        match &req.query {
            Query::DeliveryProb { model, src } => {
                Ok(Answer::Prob(queries(*model)?.delivery_prob(*src)))
            }
            Query::Reachable { model, src } => {
                let p = queries(*model)?.delivery_prob(*src);
                Ok(Answer::Bool(p > Ratio::zero()))
            }
            Query::MinDelivery { model } => {
                let q = queries(*model)?;
                self.mgr.check_budget(&req.budget)?;
                Ok(Answer::Prob(q.min_delivery()))
            }
            Query::Refines { left, right } => {
                let l = queries(*left)?;
                let r = queries(*right)?;
                self.mgr.check_budget(&req.budget)?;
                // `Queries::refines` reads `self ≤ other`; "left refines
                // right" means right's delivery is dominated by left's.
                Ok(Answer::Bool(r.refines(&l)))
            }
            Query::Equiv { left, right } => {
                let l = self.fdd(*left)?;
                let r = self.fdd(*right)?;
                self.mgr.check_budget(&req.budget)?;
                Ok(Answer::Bool(self.mgr.equiv(l, r)))
            }
            Query::EquivTeleport { model } => {
                let entry = self
                    .models
                    .get(model)
                    .ok_or(EngineError::UnknownModel(*model))?;
                self.mgr.check_budget(&req.budget)?;
                let teleport = self.teleport(entry, &req.budget)?;
                Ok(Answer::Bool(self.mgr.equiv(entry.fdd, teleport)))
            }
        }
    }

    /// `entry`'s compiled teleport specification: compiled under `budget`
    /// on first use and cached in the entry only once the compile
    /// succeeds, so a tripped budget never leaves a truncated diagram
    /// behind.
    fn teleport(&self, entry: &ModelEntry, budget: &Budget) -> Result<Fdd, CompileError> {
        if let Some(&fdd) = entry.teleport.get() {
            return Ok(fdd);
        }
        let opts = CompileOptions {
            budget: budget.clone(),
            ..self.opts.clone()
        };
        let fdd = self.mgr.compile_with(&entry.model.teleport(), &opts)?;
        Ok(*entry.teleport.get_or_init(|| fdd))
    }

    /// Snapshot of every engine gauge: cache effectiveness, patch
    /// accounting, query latency percentiles, and the shared manager's
    /// cache/memory counters.
    pub fn stats(&self) -> EngineStats {
        let lat = self
            .latencies_ns
            .lock()
            .expect("latency gauge poisoned")
            .samples
            .clone();
        let (p50, p99) = percentiles(&lat);
        let op = self.mgr.op_cache_stats();
        EngineStats {
            models: self.models.len(),
            hop_cache_entries: self.hops.len(),
            hop_cache_hits: self.hop_hits,
            hop_cache_misses: self.hop_misses,
            deltas_applied: self.deltas_applied,
            full_rebuilds: self.full_rebuilds,
            switches_rekeyed: self.switches_rekeyed,
            switches_changed: self.switches_changed,
            switches_recompiled: self.switches_recompiled,
            queries: self.queries.load(Ordering::Relaxed),
            query_p50_ns: p50,
            query_p99_ns: p99,
            while_cache: self.mgr.while_cache_stats(),
            op_cache_hits: op.total_hits(),
            op_cache_misses: op.total_misses(),
            op_cache_evictions: op.total_evictions(),
            peak_live_nodes: self.mgr.peak_live_nodes(),
            journal_bytes: self.journal.as_ref().map_or(0, |w| w.offset()),
            journal_records: self.journal.as_ref().map_or(0, |w| w.records()),
            journal_poisoned: self.journal.as_ref().is_some_and(|w| w.is_poisoned()),
            recoveries: self.recoveries,
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
            hop_cache_evictions: self.hop_cache_evictions,
        }
    }

    /// Clears the recorded query-latency samples (so a benchmark can
    /// measure steady state without its warmup skewing the percentiles).
    pub fn reset_latencies(&self) {
        self.latencies_ns
            .lock()
            .expect("latency gauge poisoned")
            .clear();
    }

    /// Drops every cached per-switch diagram not referenced by a loaded
    /// model's current inputs, returning how many were evicted. Runs
    /// automatically when the cache overflows
    /// [`EngineConfig::hop_cache_limit`]; callable directly to release
    /// diagrams (and the manager nodes they pin) after an unload or a
    /// burst of one-off deltas.
    pub fn trim_hop_cache(&mut self) -> usize {
        let live: HashSet<&HopInputs> = self.models.values().flat_map(ModelEntry::inputs).collect();
        let before = self.hops.len();
        self.hops.retain(|inp, _| live.contains(inp));
        let evicted = before - self.hops.len();
        self.hop_cache_evictions += evicted as u64;
        evicted
    }

    /// Applies the configured hop-cache bound after a successful
    /// load/apply.
    fn enforce_hop_cache_limit(&mut self) {
        if self
            .hop_cache_limit
            .is_some_and(|limit| self.hops.len() > limit)
        {
            self.trim_hop_cache();
        }
    }
}

/// An admission-gate permit: holding one means the query is counted in
/// `active_queries`; dropping it (on any exit path) releases the slot.
struct QueryPermit<'a>(&'a AtomicUsize);

impl Drop for QueryPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// `(p50, p99)` of a latency sample set, in the sample unit. Zero when
/// empty. Nearest-rank percentiles on a sorted copy.
fn percentiles(samples: &[u64]) -> (u64, u64) {
    if samples.is_empty() {
        return (0, 0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = |p: f64| -> u64 {
        let idx = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
        sorted[idx]
    };
    (rank(50.0), rank(99.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_net::FailureSpec;
    use mcnetkat_topo::ab_fattree;

    fn fattree_model(pr: Ratio) -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::independent(pr))
    }

    #[test]
    fn load_matches_cold_compile() {
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn single_switch_delta_changes_one_switch() {
        let mut engine = Engine::default();
        let model = fattree_model(Ratio::new(1, 100));
        let agg = model.topo.find("core0").unwrap();
        let id = engine.load(model).unwrap();
        let report = engine
            .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
            .unwrap();
        assert_eq!(report.switches_rekeyed, 1);
        assert_eq!(report.rekey, Rekey::Touched);
        assert_eq!(report.switches_changed, 1);
        assert_eq!(report.switches_recompiled, 1);
        assert!(!report.full_rebuild);
        assert!(engine.verify_against_cold(id).unwrap());

        // A destination change is read by every switch: all re-key.
        let switches = engine.model(id).unwrap().topo.switches().len();
        let dst = engine.model(id).unwrap().topo.find("edge1_0").unwrap();
        let report = engine.apply(id, Delta::SetDst(dst)).unwrap();
        assert_eq!(report.switches_rekeyed, switches);
        assert_eq!(report.rekey, Rekey::All);
        assert_eq!(engine.stats().switches_rekeyed, 1 + switches as u64);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn failure_free_flip_touches_every_prone_switch() {
        // Regression: under a budget, `hop_program` draws `up_i <- 1` for
        // a failure-free spec, so an edit that ends failure-freedom
        // changes every prone switch's inputs — not only those owning the
        // edited port, which is all `touched` used to name.
        let topo = mcnetkat_topo::fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::bounded(Ratio::zero(), 1),
        );
        let prone = model
            .topo
            .switches()
            .iter()
            .filter(|&&s| !model.prone_ports(s).is_empty())
            .count();
        let mut engine = Engine::default();
        let id = engine.load(model).unwrap();
        let report = engine
            .apply(id, Delta::SetLinkPr(4, Ratio::new(1, 10)))
            .unwrap();
        assert_eq!(report.touched_upper_bound, prone);
        assert_eq!(report.switches_rekeyed, prone);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn flapping_delta_hits_all_caches() {
        let mut engine = Engine::default();
        let model = fattree_model(Ratio::new(1, 100));
        let agg = model.topo.find("core0").unwrap();
        let id = engine.load(model).unwrap();
        engine
            .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
            .unwrap();
        engine.apply(id, Delta::ClearSwitchScheme(agg)).unwrap();
        // Third flap: both configurations are warm — no switch compiles,
        // and the loop solve comes from the while cache.
        let report = engine
            .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
            .unwrap();
        assert_eq!(report.switches_changed, 1);
        assert_eq!(report.switches_recompiled, 0);
        assert!(report.loop_cache_hit);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn budget_delta_is_a_full_rebuild() {
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        let report = engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
        assert!(report.full_rebuild);
        assert_eq!(report.rekey, Rekey::Structural);
        assert!(engine.stats().full_rebuilds == 1);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    /// The engine's `EquivTeleport` answer for `id`, under `budget`.
    fn equiv_teleport(engine: &Engine, id: ModelId, budget: Budget) -> Result<Answer, EngineError> {
        engine.query(&QueryRequest {
            query: Query::EquivTeleport { model: id },
            budget,
        })
    }

    /// `Queries::equiv_teleport` on a cold compile of `model`.
    fn cold_equiv_teleport(model: &NetworkModel) -> Answer {
        let mgr = Manager::new();
        Answer::Bool(Queries::new(&mgr, model).unwrap().equiv_teleport().unwrap())
    }

    #[test]
    fn cached_teleport_answers_track_deltas_to_the_spec() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let other = topo.find("edge1_0").unwrap();
        let spec = FailureSpec::independent(Ratio::new(1, 10));
        let mut engine = Engine::default();
        let id = engine
            .load(NetworkModel::new(topo, dst, RoutingScheme::F10_3_5, spec))
            .unwrap();
        let mut answers = Vec::new();
        // The budget adds the `fl` local to the spec (and makes the
        // model resilient); the new destination moves the ingresses.
        for delta in [
            None,
            Some(Delta::SetBudget(Some(1))),
            Some(Delta::SetDst(other)),
        ] {
            if let Some(delta) = delta {
                engine.apply(id, delta).unwrap();
                assert!(
                    engine.models[&id].teleport.get().is_none(),
                    "reset on apply"
                );
            }
            let want = cold_equiv_teleport(engine.model(id).unwrap());
            for _ in 0..2 {
                // The first call compiles and caches, the second reads it.
                let got = equiv_teleport(&engine, id, Budget::unlimited()).unwrap();
                assert_eq!(got, want);
                assert!(engine.models[&id].teleport.get().is_some());
            }
            answers.push(want);
        }
        assert_eq!(
            answers,
            [Answer::Bool(false), Answer::Bool(true), Answer::Bool(true)]
        );
    }

    #[test]
    fn a_tripped_teleport_compile_is_not_cached() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none());
        let want = cold_equiv_teleport(&model);
        let mut engine = Engine::default();
        let id = engine.load(model).unwrap();
        // Past its deadline: rejected before the compile.
        let expired = Budget::unlimited().with_deadline_at(Instant::now());
        assert!(matches!(
            equiv_teleport(&engine, id, expired),
            Err(EngineError::Compile(CompileError::DeadlineExceeded))
        ));
        assert!(engine.models[&id].teleport.get().is_none());
        // A node ceiling at today's table size trips inside the compile.
        let full = Budget::unlimited().with_max_live_nodes(engine.mgr.node_count());
        assert!(matches!(
            equiv_teleport(&engine, id, full),
            Err(EngineError::Compile(CompileError::ResourceExhausted { .. }))
        ));
        assert!(engine.models[&id].teleport.get().is_none());
        assert_eq!(
            equiv_teleport(&engine, id, Budget::unlimited()).unwrap(),
            want
        );
        assert_eq!(want, Answer::Bool(true));
    }

    #[test]
    fn apply_reports_its_phases() {
        let dir = std::env::temp_dir().join(format!("mcnetkat-phases-{}", std::process::id()));
        let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
        let model = fattree_model(Ratio::new(1, 100));
        let agg = model.topo.find("core0").unwrap();
        let id = engine.load(model).unwrap();
        let patch = engine
            .apply(id, Delta::SetSwitchScheme(agg, RoutingScheme::F10_3))
            .unwrap();
        let rebuild = engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
        for report in [patch, rebuild] {
            let p = report.phases;
            assert!(p.sum() <= report.elapsed, "{p:?} vs {:?}", report.elapsed);
            assert!(!p.hop_compile.is_zero(), "{p:?}");
            assert!(!p.journal.is_zero(), "{p:?}");
        }
        assert!(rebuild.full_rebuild);
        assert!(!rebuild.phases.tail.is_zero(), "{:?}", rebuild.phases);
        assert!(!rebuild.phases.loop_solve.is_zero(), "{:?}", rebuild.phases);
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_delta_under_budget_patches_member_switch_only() {
        // Regression: under a failure budget the budget-coupled branch of
        // `hop_inputs` used to list every group's flag on every switch, so
        // AddGroup/RemoveGroup invalidated the whole network instead of
        // the member-group switches declared by `Delta::touched`.
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
        let (sw, port) = {
            let m = engine.model(id).unwrap();
            let node = m.topo.find("core0").unwrap();
            (m.topo.sw_value(node), m.prone_ports(node)[0])
        };
        let group = Srlg {
            name: "conduit".into(),
            pr: Ratio::new(1, 50),
            members: vec![(sw, port)],
        };
        let report = engine.apply(id, Delta::AddGroup(group)).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.touched_upper_bound, 1);
        assert_eq!(report.switches_changed, 1);
        assert!(engine.verify_against_cold(id).unwrap());
        let report = engine
            .apply(id, Delta::RemoveGroup("conduit".into()))
            .unwrap();
        assert_eq!(report.switches_changed, 1);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn removing_a_group_patches_its_own_switch_only() {
        // Hop inputs name a group's flags, not its index: removing the
        // first of two groups leaves the second group's switch alone.
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        engine.apply(id, Delta::SetBudget(Some(1))).unwrap();
        let cards: Vec<Srlg> = {
            let m = engine.model(id).unwrap();
            ["core0", "core1"]
                .iter()
                .map(|name| {
                    let node = m.topo.find(name).unwrap();
                    Srlg::down_links_of(&m.topo, node, Ratio::new(1, 50))
                })
                .collect()
        };
        let first = cards[0].name.clone();
        for card in cards {
            engine.apply(id, Delta::AddGroup(card)).unwrap();
        }
        let report = engine.apply(id, Delta::RemoveGroup(first)).unwrap();
        assert!(!report.full_rebuild);
        assert_eq!(report.touched_upper_bound, 1);
        assert_eq!(report.switches_changed, 1);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn set_topology_remaps_overrides_and_dst_by_name() {
        use mcnetkat_topo::{Level, Topology};
        let mut t1 = Topology::new();
        let a1 = t1.add_switch("a", Level::Plain);
        let b1 = t1.add_switch("b", Level::Plain);
        let c1 = t1.add_switch("c", Level::Plain);
        t1.link(a1, b1);
        t1.link(b1, c1);
        let mut model = NetworkModel::new(
            t1,
            a1,
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::zero()),
        );
        model.scheme_overrides.insert(c1, RoutingScheme::F10_3);

        // Same names, different insertion order: every NodeId shifts, so
        // a raw-id carry-over would rebind dst and the override.
        let mut t2 = Topology::new();
        let x2 = t2.add_switch("x", Level::Plain);
        let c2 = t2.add_switch("c", Level::Plain);
        let b2 = t2.add_switch("b", Level::Plain);
        let a2 = t2.add_switch("a", Level::Plain);
        t2.link(a2, b2);
        t2.link(b2, c2);
        t2.link(c2, x2);
        let next = Delta::SetTopology(t2).apply_to(&model).unwrap();
        assert_eq!(next.dst, a2);
        assert_eq!(next.scheme_overrides.len(), 1);
        assert_eq!(next.scheme_overrides.get(&c2), Some(&RoutingScheme::F10_3));

        // A topology without the destination's name is rejected.
        let mut t3 = Topology::new();
        t3.add_switch("z", Level::Plain);
        assert!(matches!(
            Delta::SetTopology(t3).apply_to(&model),
            Err(EngineError::InvalidDelta(_))
        ));
    }

    #[test]
    fn trim_hop_cache_drops_unreferenced_entries() {
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        let core = engine.model(id).unwrap().topo.find("core0").unwrap();
        engine
            .apply(id, Delta::SetSwitchScheme(core, RoutingScheme::F10_3))
            .unwrap();
        // The pre-edit core0 diagram is cached but no longer referenced.
        let entries = engine.stats().hop_cache_entries;
        assert_eq!(engine.trim_hop_cache(), 1);
        assert_eq!(engine.stats().hop_cache_entries, entries - 1);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn latency_ring_is_bounded() {
        let mut ring = LatencyRing::new();
        for i in 0..(LATENCY_SAMPLE_CAP as u64 + 10) {
            ring.push(i);
        }
        assert_eq!(ring.samples.len(), LATENCY_SAMPLE_CAP);
        // The newest samples are retained; the oldest were overwritten.
        assert!(ring.samples.contains(&(LATENCY_SAMPLE_CAP as u64 + 9)));
        assert!(!ring.samples.contains(&0));
    }

    #[test]
    fn rejected_delta_leaves_model_intact() {
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        let before = engine.fdd(id).unwrap();
        let err = engine
            .apply(id, Delta::SetUniformPr(Ratio::new(3, 2)))
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidDelta(_)));
        assert_eq!(engine.fdd(id).unwrap(), before);
        assert!(engine.verify_against_cold(id).unwrap());
    }

    #[test]
    fn queries_answer_concurrently() {
        let mut engine = Engine::default();
        let model = fattree_model(Ratio::new(1, 4));
        let id = engine.load(model).unwrap();
        let srcs: Vec<NodeId> = engine.model(id).unwrap().ingresses();
        let reqs: Vec<QueryRequest> = srcs
            .iter()
            .map(|&src| Query::DeliveryProb { model: id, src }.into())
            .chain([Query::MinDelivery { model: id }.into()])
            .collect();
        let answers = engine.query_batch(&reqs);
        assert_eq!(answers.len(), srcs.len() + 1);
        let min = answers.last().unwrap().as_ref().unwrap();
        for a in &answers[..srcs.len()] {
            assert!(a.as_ref().unwrap().prob().unwrap() >= min.prob().unwrap());
        }
        assert_eq!(engine.stats().queries, reqs.len() as u64);
        assert!(engine.stats().query_p99_ns >= engine.stats().query_p50_ns);
    }

    #[test]
    fn cancelled_budget_rejects_query() {
        let mut engine = Engine::default();
        let id = engine.load(fattree_model(Ratio::zero())).unwrap();
        let src = engine.model(id).unwrap().ingresses()[0];
        let token = mcnetkat_fdd::CancelToken::new();
        token.cancel();
        let req = QueryRequest {
            query: Query::DeliveryProb { model: id, src },
            budget: Budget::unlimited().with_cancel(token),
        };
        let err = engine.query(&req).unwrap_err();
        assert!(matches!(err, EngineError::Compile(CompileError::Cancelled)));
    }

    #[test]
    fn refines_between_two_cached_models() {
        let mut engine = Engine::default();
        let reliable = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        let lossy = engine.load(fattree_model(Ratio::new(1, 4))).unwrap();
        let answers = engine.query_batch(&[
            Query::Refines {
                left: reliable,
                right: lossy,
            }
            .into(),
            Query::Refines {
                left: lossy,
                right: reliable,
            }
            .into(),
        ]);
        // Delivery is monotone in link reliability: the reliable network
        // refines the lossy one from every ingress, strictly.
        assert_eq!(answers[0].as_ref().unwrap().truth(), Some(true));
        assert_eq!(answers[1].as_ref().unwrap().truth(), Some(false));
    }

    #[test]
    fn one_request_batch_runs_inline_through_the_gate() {
        let mut engine = Engine::new(EngineConfig {
            max_concurrent_queries: Some(1),
            ..EngineConfig::default()
        });
        let id = engine.load(fattree_model(Ratio::new(1, 100))).unwrap();
        let req: QueryRequest = Query::MinDelivery { model: id }.into();
        let batch = engine.query_batch(std::slice::from_ref(&req));
        assert_eq!(batch.len(), 1);
        assert_eq!(
            batch[0].as_ref().unwrap().prob(),
            engine.query(&req).unwrap().prob()
        );
        // With the only slot taken, the inline batch is shed like a query.
        let _held = engine.admit().unwrap();
        let shed = engine.query_batch(&[req]);
        assert!(matches!(
            shed[..],
            [Err(EngineError::Overloaded {
                active: 1,
                limit: 1
            })]
        ));
    }

    #[test]
    fn unknown_model_is_reported() {
        let engine = Engine::default();
        let ghost = ModelId(99);
        assert!(matches!(
            engine.model(ghost).unwrap_err(),
            EngineError::UnknownModel(id) if id == ghost
        ));
        let res = engine.query(&Query::MinDelivery { model: ghost }.into());
        assert!(matches!(
            res.unwrap_err(),
            EngineError::UnknownModel(id) if id == ghost
        ));
    }

    #[test]
    fn second_identical_model_is_all_cache_hits() {
        let mut engine = Engine::default();
        let model = fattree_model(Ratio::new(1, 100));
        let switches = model.topo.switches().len() as u64;
        engine.load(model.clone()).unwrap();
        let misses_before = engine.stats().hop_cache_misses;
        assert_eq!(misses_before, switches);
        engine.load(model).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.hop_cache_misses, misses_before);
        assert_eq!(stats.hop_cache_hits, switches);
    }

    #[test]
    fn percentile_ranks() {
        assert_eq!(percentiles(&[]), (0, 0));
        assert_eq!(percentiles(&[7]), (7, 7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentiles(&v), (50, 99));
    }
}

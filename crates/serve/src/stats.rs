//! What the engine reports: one apply's [`DeltaReport`] and the
//! engine-wide [`EngineStats`] gauges.

use mcnetkat_fdd::WhileCacheStats;
use std::time::Duration;

/// What one [`Engine::apply`](crate::Engine::apply) did.
#[derive(Clone, Copy, Debug)]
pub struct DeltaReport {
    /// Size of the delta's declared invalidation upper bound
    /// ([`Delta::touched`](crate::Delta::touched); the switch count when `All`).
    pub touched_upper_bound: usize,
    /// Switches whose [`HopInputs`](mcnetkat_net::fused::HopInputs) were recomputed and looked up in the
    /// hop cache; every other switch reused its previous inputs and
    /// diagram. [`DeltaReport::rekey`] states why this many.
    pub switches_rekeyed: usize,
    /// Why [`DeltaReport::switches_rekeyed`] is what it is.
    pub rekey: Rekey,
    /// Re-keyed switches whose [`HopInputs`](mcnetkat_net::fused::HopInputs) actually changed. Invariant:
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

/// Wall-clock time of each phase of one [`Engine::apply`](crate::Engine::apply), in pipeline
/// order ([`DeltaReport::phases`]). What is left of
/// [`DeltaReport::elapsed`] is the delta's own bookkeeping: computing the
/// next model and its touched set, and updating the engine's tables.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ApplyPhases {
    /// Recomputing the touched switches' [`HopInputs`](mcnetkat_net::fused::HopInputs) and looking them up
    /// in the hop cache.
    pub rekey: Duration,
    /// Compiling the hop-cache misses ([`compile_hops`](mcnetkat_net::fused::compile_hops)).
    pub hop_compile: Duration,
    /// Folding the `sw`-case chain ([`assemble_chain`](mcnetkat_net::fused::assemble_chain)).
    pub assemble_chain: Duration,
    /// Solving the loop, or finding it in the `while`-solution cache.
    pub loop_solve: Duration,
    /// Ingress, normalisation and local wrappers ([`assemble_tail`](mcnetkat_net::fused::assemble_tail)).
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

/// Why an [`Engine::apply`](crate::Engine::apply) re-keyed the switches it did
/// ([`DeltaReport::rekey`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rekey {
    /// Only the switches the delta's [`Touched::Set`](crate::Touched::Set) names: one for a
    /// switch program edit, every switch owning the port for a port
    /// probability edit, every prone switch when the edit flips
    /// [`FailureSpec::is_failure_free`](mcnetkat_net::FailureSpec::is_failure_free).
    Touched,
    /// Every switch: the delta edits a model-wide property
    /// ([`Touched::All`](crate::Touched::All): the hop cap or the destination).
    All,
    /// Every switch against a fresh hop cache: the delta is
    /// [`Delta::is_structural`](crate::Delta::is_structural).
    Structural,
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
    /// ([`Manager::set_cache_capacity`](mcnetkat_fdd::Manager::set_cache_capacity)) — nonzero means the bound is
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
    /// Times this engine's state was rebuilt by [`Engine::recover`](crate::Engine::recover)
    /// (0 or 1 — an engine recovers at construction, never live).
    pub recoveries: u64,
    /// Queries shed by the admission gate ([`EngineError::Overloaded`](crate::EngineError::Overloaded)).
    pub queries_shed: u64,
    /// Hop-cache entries evicted by unload auto-trim and
    /// [`Engine::trim_hop_cache`](crate::Engine::trim_hop_cache).
    pub hop_cache_evictions: u64,
}

/// Cap on retained query-latency samples. Once full, new samples
/// overwrite the oldest (a ring), so the gauges track a recent window
/// instead of the whole process lifetime and [`Engine::stats`](crate::Engine::stats) sorts a
/// bounded vector.
pub(crate) const LATENCY_SAMPLE_CAP: usize = 4096;

/// A fixed-capacity ring of latency samples. Order is irrelevant (the
/// percentile pass sorts), so overwrite-at-cursor is all it needs.
pub(crate) struct LatencyRing {
    pub(crate) samples: Vec<u64>,
    cursor: usize,
}

impl LatencyRing {
    pub(crate) fn new() -> LatencyRing {
        LatencyRing {
            samples: Vec::new(),
            cursor: 0,
        }
    }

    pub(crate) fn push(&mut self, ns: u64) {
        if self.samples.len() < LATENCY_SAMPLE_CAP {
            self.samples.push(ns);
        } else {
            self.samples[self.cursor] = ns;
            self.cursor = (self.cursor + 1) % LATENCY_SAMPLE_CAP;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.samples.clear();
        self.cursor = 0;
    }
}

/// `(p50, p99)` of a latency sample set, in the sample unit. Zero when
/// empty. Nearest-rank percentiles on a sorted copy.
pub(crate) fn percentiles(samples: &[u64]) -> (u64, u64) {
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

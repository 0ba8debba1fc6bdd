//! Hash-consed probabilistic FDDs and their core algorithms.
//!
//! A probabilistic FDD (§5.1) is a rooted DAG whose interior nodes test
//! `field = value` and whose leaves hold distributions over [`Action`]s. It
//! represents a function `Pk → D(Pk + ∅)` — equivalently a stochastic
//! matrix over `Pk + ∅` — compactly, like a BDD represents a Boolean
//! function.
//!
//! Ordering invariant (inherited from deterministic FDDs): interior tests
//! are ordered by `(field, value)`; the true-branch of a `f = v` test never
//! tests `f` again, and the false-branch only tests `f` against larger
//! values. Together with hash-consing this makes structurally equal FDDs
//! pointer-equal.
//!
//! # Leaf interning
//!
//! Leaf distributions are *interned* alongside nodes: a [`Node`] stores a
//! copyable [`DistId`] into a side table of `Arc<ActionDist>`s rather than
//! the distribution itself. This makes `Node` a `Copy` type — the
//! recursive combinators (`seq`, `sum`, `ite`, `restrict_*`, `scale`,
//! `prepend`) copy a handful of words per visited node instead of cloning
//! a `Vec<(Action, Ratio)>` — and lets distribution-level operations be
//! memoised on ids (`dist_sum`/`dist_scale`/`dist_then`). All interior
//! tables use the FxHash hasher: keys are trusted ids, so the DoS
//! resistance of SipHash buys nothing and costs measurably on every memo
//! lookup.

use crate::compile::OptsKey;
use crate::{Action, ActionDist, Budget, CompileError, Domain, SymPkt};
use fxhash::FxHashMap;
use mcnetkat_core::{Field, Packet, Value};
use mcnetkat_num::Ratio;
use parking_lot::Mutex;
use std::hash::Hash;
use std::sync::Arc;

/// A handle to a hash-consed FDD node, valid within its [`Manager`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fdd(u32);

/// A handle to an interned leaf distribution, valid within its [`Manager`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub(crate) struct DistId(u32);

/// A handle to an interned [`Action`], valid within its [`Manager`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct ActId(u32);

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Node {
    Leaf(DistId),
    Branch {
        field: Field,
        value: Value,
        hi: Fdd,
        lo: Fdd,
    },
}

/// A memo table with hit/miss counters, behind the Fx hasher.
///
/// Capacity-bounded: when an insert would push the table past the
/// manager's `cache_capacity`, the whole table is cleared first
/// (clear-on-overflow — O(1) amortised, no LRU bookkeeping on the hot
/// path) and the dropped entries are counted as evictions. Memo tables
/// only cache *derivable* results, so clearing is always sound.
struct Cache<K, V> {
    map: FxHashMap<K, V>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for Cache<K, V> {
    fn default() -> Self {
        Cache {
            map: FxHashMap::default(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

impl<K: Eq + Hash, V: Copy> Cache<K, V> {
    fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get(key) {
            Some(&v) => {
                self.hits += 1;
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: K, value: V, capacity: usize) {
        if self.map.len() >= capacity {
            self.evictions += self.map.len() as u64;
            self.map.clear();
        }
        self.map.insert(key, value);
    }

    fn reset(&mut self) {
        self.evictions += self.map.len() as u64;
        self.map.clear();
    }

    /// Empties the table and zeroes its counters, keeping its capacity.
    fn clear(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    fn stats(&self, name: &'static str) -> OpCacheEntry {
        OpCacheEntry {
            name,
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            evictions: self.evictions,
        }
    }
}

struct Inner {
    nodes: Vec<Node>,
    /// Per-node predicate flag, parallel to `nodes` and set once in
    /// `cons`: a leaf is a predicate when it is exactly pass or drop, a
    /// branch when both children are. Makes [`Manager::is_predicate`] — and
    /// `seq`'s filter-first fast path — O(1).
    predicate: Vec<bool>,
    consed: Cache<Node, Fdd>,
    /// Interned leaf distributions; `DistId` indexes this table. The `Arc`
    /// lets readers hand distributions out without deep-cloning them while
    /// the manager lock is held.
    dists: Vec<Arc<ActionDist>>,
    dist_ids: FxHashMap<Arc<ActionDist>, DistId>,
    /// Running total of support entries across `dists` — the
    /// peak-dist-entry gauge (the store is append-only, so the running
    /// total *is* the peak).
    dist_entries: usize,
    /// Upper bound on each *operation* cache's entry count
    /// (clear-on-overflow; see [`Manager::set_cache_capacity`]). The
    /// hash-cons map and the dist/action identity tables are exempt:
    /// clearing them would duplicate nodes and break canonicity.
    cache_capacity: usize,
    /// Interned actions (the `prepend` modification sets), `Arc`-shared
    /// between the table and the id map like `dists`.
    actions: Vec<Arc<Action>>,
    action_ids: FxHashMap<Arc<Action>, ActId>,
    /// Distinguished leaves, created on first use (hot in `seq`).
    pass_leaf: Option<Fdd>,
    fail_leaf: Option<Fdd>,
    zero_leaf: Option<Fdd>,
    seq_cache: Cache<(Fdd, Fdd), Fdd>,
    sum_cache: Cache<(Fdd, Fdd), Fdd>,
    ite_cache: Cache<(Fdd, Fdd, Fdd), Fdd>,
    restrict_eq_cache: Cache<(Fdd, Field, Value), Fdd>,
    restrict_ne_cache: Cache<(Fdd, Field, Value), Fdd>,
    scale_cache: Cache<(Fdd, Ratio), Fdd>,
    prepend_cache: Cache<(Fdd, ActId), Fdd>,
    dist_sum_cache: Cache<(DistId, DistId), DistId>,
    dist_scale_cache: Cache<(DistId, Ratio), DistId>,
    dist_then_cache: Cache<(ActId, DistId), DistId>,
    // Memoised `while`-loop solutions (see `Manager::while_loop`). The key
    // must include every solver-configuration option: `state_limit` bounds
    // which loops solve at all, so the same (guard, body) can legitimately
    // yield different outcomes under different options. See `OptsKey` for
    // the full rule.
    while_cache: Cache<(Fdd, Fdd, OptsKey), Fdd>,
    /// Cumulative absorbing-chain solve gauges (see `LoopSolveStats`).
    loop_stats: LoopSolveStats,
    /// The installed resource governor, present only while a governed
    /// compile is in flight (see `Manager::govern`).
    governor: Option<Governor>,
}

/// The state of one governed compile: the budget under enforcement, a
/// poll counter that amortises the clock read, a refcount for nested
/// `Manager::govern` installs (the outermost budget wins), and the
/// latched abort error once a limit trips.
///
/// After a trip, recursive ops short-circuit to the fail leaf and skip
/// all op-cache inserts: the node table only ever receives well-formed
/// canonical nodes (so audits stay clean), while the memo tables never
/// record a truncated result (so a later retry recomputes honestly).
/// The truncated Ok results themselves never escape — every fallible
/// seam re-checks `Manager::governed_error` before returning.
struct Governor {
    budget: Budget,
    depth: u32,
    polls: u32,
    tripped: Option<CompileError>,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            nodes: Vec::new(),
            predicate: Vec::new(),
            consed: Cache::default(),
            dists: Vec::new(),
            dist_ids: FxHashMap::default(),
            dist_entries: 0,
            cache_capacity: usize::MAX,
            actions: Vec::new(),
            action_ids: FxHashMap::default(),
            pass_leaf: None,
            fail_leaf: None,
            zero_leaf: None,
            seq_cache: Cache::default(),
            sum_cache: Cache::default(),
            ite_cache: Cache::default(),
            restrict_eq_cache: Cache::default(),
            restrict_ne_cache: Cache::default(),
            scale_cache: Cache::default(),
            prepend_cache: Cache::default(),
            dist_sum_cache: Cache::default(),
            dist_scale_cache: Cache::default(),
            dist_then_cache: Cache::default(),
            while_cache: Cache::default(),
            loop_stats: LoopSolveStats::default(),
            governor: None,
        }
    }
}

/// A read-only view of the node and leaf tables under one lock
/// acquisition: what the pair descent behind [`Manager::equiv`] and
/// [`Manager::less_eq`] walks, the case-spine index
/// ([`Manager::case_index`]), evaluation and the reachability walks. It
/// only follows existing edges, so a query never builds a node.
pub(crate) struct Walker<'a>(parking_lot::MutexGuard<'a, Inner>);

impl Walker<'_> {
    /// The top test of `p`, or `None` for a leaf.
    pub(crate) fn top(&self, p: Fdd) -> Option<(Field, Value)> {
        var_of(&self.0.nodes[p.0 as usize])
    }

    /// The distribution at leaf `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is a branch.
    pub(crate) fn leaf(&self, p: Fdd) -> (DistId, &ActionDist) {
        match self.0.nodes[p.0 as usize] {
            Node::Leaf(did) => (did, &self.0.dists[did.0 as usize]),
            Node::Branch { .. } => panic!("{p:?} is not a leaf"),
        }
    }

    /// The leaf `p` reaches on a packet that passes exactly the tests
    /// `passes` accepts.
    pub(crate) fn descend(&self, mut p: Fdd, passes: impl Fn(Field, Value) -> bool) -> Fdd {
        while let Node::Branch {
            field,
            value,
            hi,
            lo,
        } = self.0.nodes[p.0 as usize]
        {
            p = if passes(field, value) { hi } else { lo };
        }
        p
    }

    /// The interned distribution at leaf `p`, shared rather than cloned.
    fn leaf_shared(&self, p: Fdd) -> Arc<ActionDist> {
        let (did, _) = self.leaf(p);
        self.0.dists[did.0 as usize].clone()
    }

    /// Every node reachable from `roots`, each once.
    pub(crate) fn reachable(&self, roots: &[Fdd]) -> Vec<Fdd> {
        // One bit per node of the table: cheaper than hashing, even for a
        // small diagram in a large manager.
        let mut seen = vec![0u64; self.0.nodes.len().div_ceil(64)];
        let mut stack = roots.to_vec();
        let mut out = Vec::new();
        while let Some(x) = stack.pop() {
            let (word, bit) = (x.0 as usize / 64, 1u64 << (x.0 % 64));
            if seen[word] & bit != 0 {
                continue;
            }
            seen[word] |= bit;
            out.push(x);
            if let Node::Branch { hi, lo, .. } = self.0.nodes[x.0 as usize] {
                stack.push(hi);
                stack.push(lo);
            }
        }
        out
    }

    /// `p` restricted to `f = v`, where `(f, v)` is at most `p`'s top
    /// test: follows the false edges of `f` tests until one tests `f = v`
    /// (and takes its true edge) or the field changes.
    pub(crate) fn cofactor_eq(&self, mut p: Fdd, f: Field, v: Value) -> Fdd {
        while let Node::Branch {
            field,
            value,
            hi,
            lo,
        } = self.0.nodes[p.0 as usize]
        {
            if field != f {
                break;
            }
            debug_assert!(value >= v, "cofactor below the top test");
            if value == v {
                return hi;
            }
            p = lo;
        }
        p
    }

    /// `p` restricted to `f ≠ v`, where `(f, v)` is at most `p`'s top
    /// test: steps past `f = v` only where it is that top test.
    pub(crate) fn cofactor_ne(&self, p: Fdd, f: Field, v: Value) -> Fdd {
        match self.0.nodes[p.0 as usize] {
            Node::Branch {
                field, value, lo, ..
            } if (field, value) == (f, v) => lo,
            _ => p,
        }
    }
}

/// Cumulative gauges over every absorbing-chain solve this manager ran
/// (cache hits don't count — they skip the solve).
///
/// `sccs` counts components of the condensed transient graphs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoopSolveStats {
    /// Absorbing chains actually solved.
    pub solves: u64,
    /// Total transient states across all solves.
    pub transient_states: u64,
    /// Always equal to `transient_states`: the loop solve runs on the raw
    /// chain. Kept only because the benchmark harness reads it.
    pub lumped_blocks: u64,
    /// Total SCCs of the transient graphs.
    pub sccs: u64,
    /// Largest single chain solved (transient states).
    pub max_transient: usize,
    /// Always 0: the loop solve has no retry. Kept only because the
    /// benchmark harness reads it.
    pub fallback_retries: u64,
    /// Always 0: the loop solve has no dense fallback. Kept only because
    /// the benchmark harness reads it.
    pub dense_fallbacks: u64,
}

/// A scratch field to existentially eliminate from a diagram, together
/// with the distribution its value is drawn from at diagram entry.
///
/// Used by [`Manager::eliminate`]. An empty `draw` declares the field
/// *write-only* scratch: leaf modifications are stripped, but a surviving
/// test panics (the old [`Manager::forget`] contract). A non-empty `draw`
/// must be a full distribution (mass exactly 1); surviving tests are then
/// resolved by convex-summing the branches with the draw's weights —
/// exactly `draw ; p` followed by projecting the field out.
///
/// `Eq`/`Hash` are structural (the [`mcnetkat_num::Ratio`] representation
/// is canonical), so a scratch-field list can key an incremental-compilation
/// cache: two hops with identical programs *and* identical scratch specs
/// compile to identical diagrams.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ScratchField {
    /// The field to eliminate.
    pub field: Field,
    /// Entry distribution over the field's values (empty = write-only).
    pub draw: Vec<(Value, Ratio)>,
}

impl ScratchField {
    /// A write-only scratch field: mods are stripped, tests panic.
    pub fn write_only(field: Field) -> ScratchField {
        ScratchField {
            field,
            draw: Vec::new(),
        }
    }

    /// A field drawn from an explicit distribution at entry.
    pub fn drawn(field: Field, draw: Vec<(Value, Ratio)>) -> ScratchField {
        ScratchField { field, draw }
    }

    /// A health flag: `1` with probability `p_up`, `0` otherwise — the
    /// shape of every `up_i`/`grp_j` draw in `mcnetkat-net`.
    pub fn bernoulli(field: Field, p_up: Ratio) -> ScratchField {
        let p_down = Ratio::one() - p_up.clone();
        ScratchField {
            field,
            draw: vec![(1, p_up), (0, p_down)],
        }
    }

    /// Total probability the draw assigns to `v`.
    fn prob_of(&self, v: Value) -> Ratio {
        self.draw
            .iter()
            .filter(|(u, _)| *u == v)
            .map(|(_, r)| r)
            .sum()
    }
}

/// Hit/miss counters for the manager's `while`-loop solution cache.
///
/// Returned by [`Manager::while_cache_stats`]; benchmarks use it to report
/// how much loop solving was skipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WhileCacheStats {
    /// Loops answered from the cache.
    pub hits: u64,
    /// Loops that had to be solved.
    pub misses: u64,
    /// Distinct (guard, body, options) keys currently cached.
    pub entries: usize,
}

/// Hit/miss counters for one operation cache.
///
/// Part of [`OpCacheStats`]; see [`Manager::op_cache_stats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpCacheEntry {
    /// Cache name (`"seq"`, `"cons"`, `"dist_sum"`, …).
    pub name: &'static str,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute (and then stored) a result.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Entries discarded by clear-on-overflow (see
    /// [`Manager::set_cache_capacity`]) or [`Manager::reset_op_caches`].
    pub evictions: u64,
}

impl OpCacheEntry {
    /// Fraction of lookups answered from the cache (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups (hits + misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A snapshot of every operation cache's counters.
///
/// Returned by [`Manager::op_cache_stats`]. The `cons` entry counts
/// hash-cons lookups (hits are structurally duplicate nodes); `dist_*`
/// entries count the distribution-level memos enabled by leaf interning.
#[derive(Clone, Debug, Default)]
pub struct OpCacheStats {
    /// Per-cache counters, in a stable reporting order.
    pub caches: Vec<OpCacheEntry>,
}

impl OpCacheStats {
    /// Looks up one cache's counters by name.
    pub fn get(&self, name: &str) -> Option<&OpCacheEntry> {
        self.caches.iter().find(|c| c.name == name)
    }

    /// Lookups answered from any cache, summed.
    pub fn total_hits(&self) -> u64 {
        self.caches.iter().map(|c| c.hits).sum()
    }

    /// Lookups that had to compute, summed over all caches.
    pub fn total_misses(&self) -> u64 {
        self.caches.iter().map(|c| c.misses).sum()
    }

    /// Entries discarded by clear-on-overflow or an explicit reset,
    /// summed over all caches — the gauge a long-lived engine watches to
    /// tell whether its [`Manager::set_cache_capacity`] bound is tight
    /// enough to matter.
    pub fn total_evictions(&self) -> u64 {
        self.caches.iter().map(|c| c.evictions).sum()
    }
}

/// An FDD store: owns the node table, the hash-cons map, and the operation
/// caches.
///
/// Handles from different managers must not be mixed; use
/// [`crate::FddExport`] to move diagrams between managers (that is how the
/// parallel backend ships per-switch FDDs between workers).
///
/// # Examples
///
/// ```
/// use mcnetkat_fdd::{ActionDist, Manager};
/// let mgr = Manager::new();
/// let t = mgr.leaf(ActionDist::skip());
/// let d = mgr.leaf(ActionDist::drop());
/// assert_ne!(t, d);
/// assert_eq!(mgr.leaf(ActionDist::skip()), t); // hash-consed
/// ```
pub struct Manager {
    inner: Mutex<Inner>,
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new()
    }
}

fn var_of(node: &Node) -> Option<(Field, Value)> {
    match node {
        Node::Leaf(_) => None,
        Node::Branch { field, value, .. } => Some((*field, *value)),
    }
}

/// Explains how a `Branch { field, value, hi, lo }` node would break the
/// canonical FDD ordering, or `None` when it is well-ordered. The rule
/// (§5.1): the true branch never re-tests the same field (its root
/// variable must lie on a strictly greater field), and the false branch's
/// root variable must be strictly greater in the `(field, value)` order.
///
/// Shared between `mk_branch`'s construction-time `debug_assert!` and the
/// `audit` feature's full-table walk, so the two checks can never drift.
/// (Release builds without `audit` compile both callers out.)
#[cfg_attr(not(any(debug_assertions, feature = "audit")), allow(dead_code))]
fn branch_order_violation(
    nodes: &[Node],
    field: Field,
    value: Value,
    hi: Fdd,
    lo: Fdd,
) -> Option<String> {
    if let Some((f, v)) = var_of(&nodes[hi.0 as usize]) {
        if f <= field {
            return Some(format!(
                "true branch re-tests ({f:?}, {v}) — must test a strictly greater field"
            ));
        }
    }
    if let Some((f, v)) = var_of(&nodes[lo.0 as usize]) {
        if (f, v) <= (field, value) {
            return Some(format!(
                "false branch tests ({f:?}, {v}) — must be strictly greater in (field, value) order"
            ));
        }
    }
    None
}

/// Whether a leaf distribution may sit in a guard: exactly pass or drop.
/// `cons` records it as the leaf's predicate flag, from which every
/// branch's flag follows (see [`Manager::is_predicate`]).
fn is_guard_leaf(d: &ActionDist) -> bool {
    d.is_skip() || d.is_drop()
}

/// Explains how a leaf distribution breaks `ite`'s deterministic-guard
/// contract (every guard leaf must be exactly pass or drop), or `None`
/// when the leaf is a valid guard. The rule is [`is_guard_leaf`], the
/// same one `cons` uses to set the per-node predicate flag behind
/// [`Manager::is_predicate`] — named here, like
/// [`branch_order_violation`], so the construction-time panic and the
/// diagram-level flag state one rule, not two drifting copies.
fn guard_leaf_violation(d: &ActionDist) -> Option<String> {
    if is_guard_leaf(d) {
        None
    } else {
        Some(format!(
            "guard leaf is not deterministic pass/drop: {d} — \
             the guard diagram is probabilistic"
        ))
    }
}

/// Aborts on a broken structural invariant with a uniform message shape.
/// Every named invariant helper (`branch_order_violation`,
/// `guard_leaf_violation`) panics through here, so grepping for
/// "FDD invariant" finds every construction-time invariant failure.
fn invariant_panic(invariant: &str, why: &str) -> ! {
    panic!("FDD invariant `{invariant}` violated: {why}")
}

impl Manager {
    /// Creates an empty manager.
    pub fn new() -> Manager {
        Manager {
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Creates an empty manager whose operation caches are bounded to
    /// `capacity` entries each (see [`Manager::set_cache_capacity`]).
    pub fn with_cache_capacity(capacity: usize) -> Manager {
        let mgr = Manager::new();
        mgr.set_cache_capacity(capacity);
        mgr
    }

    /// Bounds every *operation* cache (`seq`, `sum`, `ite`,
    /// `restrict_*`, `scale`, `prepend`, `dist_*`, `while`) to at most
    /// `capacity` entries. An insert that would exceed the bound clears
    /// the whole cache first (cheap clear-on-overflow, no LRU tracking);
    /// cleared entries are reported as `evictions` in
    /// [`Manager::op_cache_stats`]. The hash-cons map and the
    /// distribution/action intern tables are *not* bounded: they are
    /// identity tables, and clearing them would break node canonicity.
    ///
    /// The default is `usize::MAX` (unbounded) — the knob exists for
    /// long-lived managers (e.g. a shared manager serving many
    /// `while_loop` workflows) whose memo tables would otherwise grow
    /// without bound.
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.inner.lock().cache_capacity = capacity.max(1);
    }

    /// Clears every operation cache immediately (counted as evictions).
    /// Node, distribution and action stores are untouched, so existing
    /// [`Fdd`] handles stay valid; only memoised op results are dropped.
    pub fn reset_op_caches(&self) {
        let mut inner = self.inner.lock();
        inner.seq_cache.reset();
        inner.sum_cache.reset();
        inner.ite_cache.reset();
        inner.restrict_eq_cache.reset();
        inner.restrict_ne_cache.reset();
        inner.scale_cache.reset();
        inner.prepend_cache.reset();
        inner.dist_sum_cache.reset();
        inner.dist_scale_cache.reset();
        inner.dist_then_cache.reset();
        inner.while_cache.reset();
    }

    /// Drops every node, distribution, action, operation-cache entry,
    /// `while`-cache entry and gauge, keeping the tables' allocated
    /// capacity. Afterwards the manager behaves exactly like a fresh
    /// [`Manager::new`] one with the same cache capacity: the same
    /// operations hand out the same [`Fdd`] ids, the peak gauges read from
    /// zero, and the op-cache counters restart. A governor installed by a
    /// live [`GovernorGuard`] stays installed.
    ///
    /// Every [`Fdd`] handle taken before the call is invalidated. This is
    /// the reset of a reused scratch manager: compiling many small
    /// diagrams one after another in one cleared manager skips the table
    /// growth a fresh manager pays for each.
    pub fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Number of distinct nodes allocated so far.
    pub fn node_count(&self) -> usize {
        self.inner.lock().nodes.len()
    }

    /// Peak live node count. Node stores are append-only (operation-cache
    /// clears drop memo entries, never nodes), so the peak *is* the
    /// current count — this gauge exists so benchmarks state the metric
    /// they gate on explicitly.
    pub fn peak_live_nodes(&self) -> usize {
        self.node_count()
    }

    /// Peak total leaf-distribution support entries (the sum of
    /// `support_size()` over every interned distribution), maintained
    /// incrementally. Append-only like the node store, so peak = current.
    pub fn peak_dist_entries(&self) -> usize {
        self.inner.lock().dist_entries
    }

    /// Number of distinct leaf distributions interned so far.
    pub fn dist_count(&self) -> usize {
        self.inner.lock().dists.len()
    }

    /// Size metrics of the interned-distribution table:
    /// `(distributions, total support entries, largest single support)`.
    pub fn dist_table_stats(&self) -> (usize, usize, usize) {
        let inner = self.inner.lock();
        let (mut total, mut max) = (0usize, 0usize);
        for d in &inner.dists {
            let s = d.support_size();
            total += s;
            max = max.max(s);
        }
        (inner.dists.len(), total, max)
    }

    /// Creates (or reuses) a leaf node.
    pub fn leaf(&self, dist: ActionDist) -> Fdd {
        let mut inner = self.inner.lock();
        inner.mk_leaf(dist)
    }

    /// The always-pass FDD (predicate "true").
    pub fn pass(&self) -> Fdd {
        self.inner.lock().leaf_pass()
    }

    /// The always-drop FDD (predicate "false").
    pub fn fail(&self) -> Fdd {
        self.inner.lock().leaf_fail()
    }

    /// Creates (or reuses) a branch testing `field = value`.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the ordering invariant would be violated.
    pub fn branch(&self, field: Field, value: Value, hi: Fdd, lo: Fdd) -> Fdd {
        let mut inner = self.inner.lock();
        inner.mk_branch(field, value, hi, lo)
    }

    /// Sequential composition of two FDDs (matrix product `B⟦p;q⟧`).
    ///
    /// Two algebraic fast paths skip the general product, and both results
    /// are memoised like any other `seq`:
    ///
    /// * a predicate `p` (see [`Manager::is_predicate`]) is a filter, so
    ///   `p ; q` is `ite(p, q, drop)`;
    /// * a leaf `q` tests nothing, so `p ; q` keeps `p`'s tests and maps
    ///   each of `p`'s leaves through `q` — no path test has to be
    ///   re-introduced with `ite`.
    pub fn seq(&self, p: Fdd, q: Fdd) -> Fdd {
        let mut inner = self.inner.lock();
        inner.seq(p, q)
    }

    /// Pointwise sum of two (sub-)distribution FDDs.
    pub fn sum(&self, p: Fdd, q: Fdd) -> Fdd {
        let mut inner = self.inner.lock();
        inner.sum(p, q)
    }

    /// Scales all leaf probabilities by `r`.
    pub fn scale(&self, p: Fdd, r: &Ratio) -> Fdd {
        let mut inner = self.inner.lock();
        inner.scale(p, r)
    }

    /// Conditional `if t then p else q` where `t` is a predicate FDD
    /// (every leaf pass or drop).
    ///
    /// # Panics
    ///
    /// Panics if a leaf of `t` is not deterministic pass/drop.
    pub fn ite(&self, t: Fdd, p: Fdd, q: Fdd) -> Fdd {
        let mut inner = self.inner.lock();
        inner.ite(t, p, q)
    }

    /// Convex combination `Σ rᵢ · pᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the weights do not sum to 1.
    pub fn convex(&self, branches: &[(Fdd, Ratio)]) -> Fdd {
        let total: Ratio = branches.iter().map(|(_, r)| r).sum();
        assert!(total == Ratio::one(), "convex weights sum to {total}");
        let mut inner = self.inner.lock();
        let mut acc = inner.leaf_zero();
        for (p, r) in branches {
            let scaled = inner.scale(*p, r);
            acc = inner.sum(acc, scaled);
        }
        acc
    }

    /// Partial evaluation under the assumption `f = v`.
    pub fn restrict_eq(&self, p: Fdd, f: Field, v: Value) -> Fdd {
        let mut inner = self.inner.lock();
        inner.restrict_eq(p, f, v)
    }

    /// Partial evaluation under the assumption `f ≠ v`.
    pub fn restrict_ne(&self, p: Fdd, f: Field, v: Value) -> Fdd {
        let mut inner = self.inner.lock();
        inner.restrict_ne(p, f, v)
    }

    /// Evaluates the FDD on a concrete packet.
    pub fn eval(&self, p: Fdd, pk: &Packet) -> ActionDist {
        // The deep clone happens after the lock is released.
        self.eval_shared(p, pk).as_ref().clone()
    }

    /// Evaluates on a concrete packet, returning the interned distribution
    /// without deep-cloning it (the lock is released before returning).
    pub(crate) fn eval_shared(&self, p: Fdd, pk: &Packet) -> Arc<ActionDist> {
        let walk = self.walker();
        walk.leaf_shared(walk.descend(p, |f, v| pk.matches(f, v)))
    }

    /// Evaluates the FDD on a symbolic packet (wildcards fail all tests).
    pub fn eval_sym(&self, p: Fdd, pk: &SymPkt) -> ActionDist {
        // The deep clone happens after the lock is released.
        self.eval_sym_shared(p, pk).as_ref().clone()
    }

    /// Evaluates on a symbolic packet, returning the interned distribution
    /// without deep-cloning it (the lock is released before returning).
    pub(crate) fn eval_sym_shared(&self, p: Fdd, pk: &SymPkt) -> Arc<ActionDist> {
        let walk = self.walker();
        walk.leaf_shared(walk.descend(p, |f, v| pk.test(f, v)))
    }

    /// Collects the tested fields/values of the diagram into a [`Domain`].
    pub fn domain(&self, p: Fdd) -> Domain {
        let walk = self.walker();
        let mut dom = Domain::new();
        for x in walk.reachable(&[p]) {
            if let Some((field, value)) = walk.top(x) {
                dom.add_test(field, value);
            }
        }
        dom
    }

    /// Number of reachable nodes (a size metric for benchmarks).
    pub fn reachable_size(&self, p: Fdd) -> usize {
        self.walker().reachable(&[p]).len()
    }

    /// Whether `p` is a predicate diagram: every leaf pass or drop.
    ///
    /// O(1): every node carries a predicate flag, set once when it is
    /// hash-consed (a leaf is a predicate when it is exactly pass or drop,
    /// a branch when both children are).
    pub fn is_predicate(&self, p: Fdd) -> bool {
        self.inner.lock().predicate[p.0 as usize]
    }

    pub(crate) fn node(&self, p: Fdd) -> Node {
        self.inner.lock().nodes[p.0 as usize]
    }

    /// Takes the lock for a read-only walk (see [`Walker`]).
    pub(crate) fn walker(&self) -> Walker<'_> {
        Walker(self.inner.lock())
    }

    /// The interned distribution behind a leaf id.
    pub(crate) fn leaf_dist(&self, id: DistId) -> Arc<ActionDist> {
        self.inner.lock().dists[id.0 as usize].clone()
    }

    /// Looks up a memoised `while`-loop solution, counting the outcome.
    pub(crate) fn while_cache_lookup(&self, guard: Fdd, body: Fdd, key: &OptsKey) -> Option<Fdd> {
        let mut inner = self.inner.lock();
        inner.while_cache.get(&(guard, body, key.clone()))
    }

    /// Records a solved `while` loop in the memo cache.
    pub(crate) fn while_cache_store(&self, guard: Fdd, body: Fdd, key: OptsKey, result: Fdd) {
        let mut inner = self.inner.lock();
        let cap = inner.cache_capacity;
        inner.while_cache.insert((guard, body, key), result, cap);
    }

    /// Hit/miss counters of the `while`-loop solution cache.
    pub fn while_cache_stats(&self) -> WhileCacheStats {
        let inner = self.inner.lock();
        WhileCacheStats {
            hits: inner.while_cache.hits,
            misses: inner.while_cache.misses,
            entries: inner.while_cache.map.len(),
        }
    }

    /// Cumulative absorbing-chain solve gauges (see [`LoopSolveStats`]).
    pub fn loop_solve_stats(&self) -> LoopSolveStats {
        self.inner.lock().loop_stats
    }

    /// Accumulates one absorbing-chain solve into [`LoopSolveStats`].
    pub(crate) fn record_loop_solve(&self, transient: usize, sccs: usize) {
        let mut inner = self.inner.lock();
        let s = &mut inner.loop_stats;
        s.solves += 1;
        s.transient_states += transient as u64;
        s.lumped_blocks += transient as u64;
        s.sccs += sccs as u64;
        s.max_transient = s.max_transient.max(transient);
    }

    /// Installs `budget` as this manager's resource governor for the
    /// lifetime of the returned guard. While governed, the recursive
    /// diagram combinators poll the budget at op-cache misses; once a
    /// limit trips they short-circuit cheaply and suppress memo inserts,
    /// and [`Manager::governed_error`] reports the typed abort error.
    ///
    /// Nested installs refcount — the outermost budget wins (inner calls
    /// with a different budget are absorbed into the outer governed
    /// region). Dropping the outermost guard uninstalls the governor and
    /// clears any latched trip, so the manager — whose tables only ever
    /// received well-formed nodes — is immediately reusable, including
    /// for a retry of the aborted compile.
    pub fn govern(&self, budget: &Budget) -> GovernorGuard<'_> {
        let mut inner = self.inner.lock();
        match inner.governor.as_mut() {
            Some(g) => g.depth += 1,
            None => {
                inner.governor = Some(Governor {
                    budget: budget.clone(),
                    depth: 1,
                    polls: 0,
                    tripped: None,
                });
            }
        }
        drop(inner);
        GovernorGuard { mgr: self }
    }

    /// The installed governor's verdict: `Err` with the latched abort
    /// error if a budget limit has tripped (evaluating the budget freshly
    /// if no checkpoint has run recently), `Ok` otherwise — including
    /// when no governor is installed.
    ///
    /// Fallible seams (program-node compiles, loop solves, per-switch
    /// pipelines) call this before returning, so a short-circuited
    /// diagram from a tripped compile can never escape as `Ok`.
    ///
    /// # Errors
    ///
    /// The [`CompileError`] variant matching the tripped limit.
    pub fn governed_error(&self) -> Result<(), CompileError> {
        let mut inner = self.inner.lock();
        let live_nodes = inner.nodes.len();
        let dist_entries = inner.dist_entries;
        if let Some(g) = inner.governor.as_mut() {
            if let Some(e) = &g.tripped {
                return Err(e.clone());
            }
            if let Some(e) = g.budget.violation(live_nodes, dist_entries) {
                g.tripped = Some(e.clone());
                return Err(e);
            }
        }
        Ok(())
    }

    /// One-off check of `budget` against this manager's current gauges,
    /// without installing a governor — the checkpoint for call sites
    /// outside a governed region (e.g. between the steps of a query).
    ///
    /// # Errors
    ///
    /// The [`CompileError`] variant matching the violated limit.
    pub fn check_budget(&self, budget: &Budget) -> Result<(), CompileError> {
        let inner = self.inner.lock();
        match budget.violation(inner.nodes.len(), inner.dist_entries) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Projects write-only scratch fields out of a diagram: every
    /// modification of a field in `fields` is removed from every leaf
    /// action (merging actions that become equal, with their probabilities
    /// added). This is the FDD-level scope exit for fields used purely as
    /// internal scratch state — e.g. the shared-risk-group health fields
    /// of `mcnetkat-net`, which are drawn and consumed within a single hop
    /// and must not leak into the compiled model.
    ///
    /// The write-only special case of [`Manager::eliminate`].
    ///
    /// # Panics
    ///
    /// Panics if the diagram *tests* any of the fields: a write-only
    /// scratch field is unobservable by contract, so a surviving test
    /// means the caller's scratch discipline is broken.
    pub fn forget(&self, p: Fdd, fields: &[Field]) -> Fdd {
        let scratch: Vec<ScratchField> = fields
            .iter()
            .map(|&f| ScratchField::write_only(f))
            .collect();
        self.eliminate(p, &scratch)
    }

    /// True FDD-level existential elimination of scratch fields.
    ///
    /// Semantically, `eliminate(p, scratch)` equals `draw ; p` followed by
    /// projecting every scratch field out of the outputs, where `draw`
    /// independently samples each scratch field from its entry
    /// distribution:
    ///
    /// * an interior node testing a scratch field `f` is replaced by the
    ///   convex sum of its branches, weighted by the draw — each arm
    ///   `f = v` of the test chain gets weight `P(f = v)`, and the
    ///   fall-through branch gets the remaining mass;
    /// * leaf modifications of scratch fields are stripped, with actions
    ///   that become equal merged (probabilities added).
    ///
    /// This is what lets the fused per-switch compile pipeline sum link
    /// health out of a routing diagram *without ever building the draw's
    /// outcome cross-product*: the routing FDD tests `up_i` along paths,
    /// and each test is resolved into a weighted average bottom-up.
    ///
    /// Sound whenever the scratch fields' entry values are independent of
    /// each other and of every non-scratch field the diagram tests (true
    /// for fresh per-hop Bernoulli draws; *not* true for budget-coupled
    /// draws, which must be compiled into the diagram before write-only
    /// elimination).
    ///
    /// # Panics
    ///
    /// Panics if a non-empty draw's mass is not exactly 1, or if the
    /// diagram tests a field declared write-only (empty draw).
    pub fn eliminate(&self, p: Fdd, scratch: &[ScratchField]) -> Fdd {
        if scratch.is_empty() {
            return p;
        }
        for sf in scratch {
            if !sf.draw.is_empty() {
                let mass: Ratio = sf.draw.iter().map(|(_, r)| r).sum();
                assert!(
                    mass == Ratio::one(),
                    "draw for {} has mass {mass}, expected 1",
                    sf.field
                );
            }
        }
        let mut inner = self.inner.lock();
        let mut memo = FxHashMap::default();
        inner.eliminate(p, scratch, &mut memo)
    }

    /// Snapshot of every operation cache's hit/miss/entry counters.
    ///
    /// `cons` is the hash-cons map (hits = structurally duplicate nodes);
    /// `seq`/`sum`/`ite`/`restrict_*`/`scale`/`prepend` are the diagram
    /// combinator memos; `dist_sum`/`dist_scale`/`dist_then` are the
    /// distribution-level memos on interned leaf ids; `while` is the
    /// loop-solution cache (also available as [`Manager::while_cache_stats`]).
    pub fn op_cache_stats(&self) -> OpCacheStats {
        let inner = self.inner.lock();
        OpCacheStats {
            caches: vec![
                inner.consed.stats("cons"),
                inner.seq_cache.stats("seq"),
                inner.sum_cache.stats("sum"),
                inner.ite_cache.stats("ite"),
                inner.restrict_eq_cache.stats("restrict_eq"),
                inner.restrict_ne_cache.stats("restrict_ne"),
                inner.scale_cache.stats("scale"),
                inner.prepend_cache.stats("prepend"),
                inner.dist_sum_cache.stats("dist_sum"),
                inner.dist_scale_cache.stats("dist_scale"),
                inner.dist_then_cache.stats("dist_then"),
                inner.while_cache.stats("while"),
            ],
        }
    }

    /// Walks the *entire* live node table and every interning table,
    /// checking the structural invariants the compiler relies on:
    ///
    /// * canonical `(field, value)` order on every branch (the same named
    ///   check `mk_branch` debug-asserts at construction time);
    /// * every node's predicate flag matches its structure;
    /// * no redundant branches (`hi == lo`) and no structural duplicates
    ///   (hash-consing must make structural equality pointer equality);
    /// * the hash-cons map is an exact inverse of the node table;
    /// * no dangling child, `DistId` or `ActId` references, and the
    ///   dist/action identity maps round-trip through their tables;
    /// * every leaf distribution is sub-stochastic (mass ≤ 1) with sorted,
    ///   strictly positive entries whose probabilities are canonical
    ///   [`Ratio`]s.
    ///
    /// This is a diagnostic pass, not a hot-path check: it takes the
    /// manager lock for the full walk and costs O(nodes + dist entries).
    /// Only available with the `audit` cargo feature; release benches
    /// assert the feature is *off* (see [`crate::AUDIT_ENABLED`]).
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> AuditReport {
        let inner = self.inner.lock();
        let mut violations = Vec::new();

        let mut seen: FxHashMap<Node, u32> = FxHashMap::default();
        for (i, node) in inner.nodes.iter().enumerate() {
            let id = i as u32;
            match *node {
                Node::Leaf(did) => {
                    if did.0 as usize >= inner.dists.len() {
                        violations.push(AuditViolation::DanglingDist {
                            node: id,
                            dist: did.0,
                        });
                    }
                }
                Node::Branch {
                    field,
                    value,
                    hi,
                    lo,
                } => {
                    let mut dangling = false;
                    for child in [hi, lo] {
                        // Children must precede their parent: the table is
                        // append-only and `mk_branch` interns bottom-up.
                        if child.0 >= id {
                            violations.push(AuditViolation::DanglingChild {
                                node: id,
                                child: child.0,
                            });
                            dangling = true;
                        }
                    }
                    if dangling {
                        continue;
                    }
                    if hi == lo {
                        violations.push(AuditViolation::RedundantBranch { node: id });
                    } else if let Some(detail) =
                        branch_order_violation(&inner.nodes, field, value, hi, lo)
                    {
                        violations.push(AuditViolation::OrderViolation { node: id, detail });
                    }
                }
            }
            let predicate = match *node {
                Node::Leaf(did) => inner
                    .dists
                    .get(did.0 as usize)
                    .is_some_and(|d| is_guard_leaf(d)),
                Node::Branch { hi, lo, .. } => {
                    inner.predicate.get(hi.0 as usize) == Some(&true)
                        && inner.predicate.get(lo.0 as usize) == Some(&true)
                }
            };
            if inner.predicate.get(i) != Some(&predicate) {
                violations.push(AuditViolation::PredicateFlag { node: id });
            }
            if let Some(&first) = seen.get(node) {
                violations.push(AuditViolation::DuplicateNode { node: id, first });
            } else {
                seen.insert(*node, id);
            }
        }

        if inner.consed.map.len() != inner.nodes.len() {
            violations.push(AuditViolation::ConsMapMismatch {
                detail: format!(
                    "hash-cons map has {} entries for {} nodes",
                    inner.consed.map.len(),
                    inner.nodes.len()
                ),
            });
        }
        for (node, &id) in &inner.consed.map {
            if inner.nodes.get(id.0 as usize) != Some(node) {
                violations.push(AuditViolation::ConsMapMismatch {
                    detail: format!("map entry {node:?} -> {} disagrees with node table", id.0),
                });
            }
        }

        for (i, dist) in inner.dists.iter().enumerate() {
            let id = i as u32;
            let mass = dist.mass();
            if !mass.is_probability() {
                violations.push(AuditViolation::SuperStochasticLeaf { dist: id, mass });
            }
            let mut prev: Option<&Action> = None;
            for (a, r) in dist.iter() {
                if r.is_negative() || r.is_zero() {
                    violations.push(AuditViolation::NonPositiveEntry { dist: id });
                }
                if !r.is_canonical() {
                    violations.push(AuditViolation::NonCanonicalRatio { dist: id });
                }
                if prev.is_some_and(|p| p >= a) {
                    violations.push(AuditViolation::UnsortedDist { dist: id });
                }
                prev = Some(a);
            }
        }

        if inner.dist_ids.len() != inner.dists.len() {
            violations.push(AuditViolation::InternMapMismatch {
                detail: format!(
                    "dist identity map has {} entries for {} distributions",
                    inner.dist_ids.len(),
                    inner.dists.len()
                ),
            });
        }
        for (dist, &id) in &inner.dist_ids {
            if inner.dists.get(id.0 as usize).map(Arc::as_ref) != Some(dist.as_ref()) {
                violations.push(AuditViolation::InternMapMismatch {
                    detail: format!("dist id {} does not round-trip through the table", id.0),
                });
            }
        }
        if inner.action_ids.len() != inner.actions.len() {
            violations.push(AuditViolation::InternMapMismatch {
                detail: format!(
                    "action identity map has {} entries for {} actions",
                    inner.action_ids.len(),
                    inner.actions.len()
                ),
            });
        }
        for (action, &id) in &inner.action_ids {
            if inner.actions.get(id.0 as usize).map(Arc::as_ref) != Some(action.as_ref()) {
                violations.push(AuditViolation::InternMapMismatch {
                    detail: format!("action id {} does not round-trip through the table", id.0),
                });
            }
        }

        AuditReport {
            nodes: inner.nodes.len(),
            dists: inner.dists.len(),
            actions: inner.actions.len(),
            violations,
        }
    }
}

/// One invariant violation found by [`Manager::audit`].
#[cfg(feature = "audit")]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditViolation {
    /// A branch node's children break the canonical `(field, value)` order.
    OrderViolation {
        /// Offending node id.
        node: u32,
        /// Which child broke the order, and how.
        detail: String,
    },
    /// A branch with identical children survived construction (`mk_branch`
    /// must collapse these).
    RedundantBranch {
        /// Offending node id.
        node: u32,
    },
    /// A node's predicate flag disagrees with its structure (a leaf is a
    /// predicate iff it is pass or drop, a branch iff both children are).
    PredicateFlag {
        /// Offending node id.
        node: u32,
    },
    /// Two structurally identical nodes were allocated — hash-consing no
    /// longer makes structural equality pointer equality.
    DuplicateNode {
        /// The later duplicate.
        node: u32,
        /// The first allocation of the same structure.
        first: u32,
    },
    /// The hash-cons map disagrees with the node table.
    ConsMapMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A leaf references a distribution id outside the intern table.
    DanglingDist {
        /// Offending node id.
        node: u32,
        /// The out-of-range distribution id.
        dist: u32,
    },
    /// A branch child points at itself or past the append-only table.
    DanglingChild {
        /// Offending node id.
        node: u32,
        /// The out-of-range child id.
        child: u32,
    },
    /// A dist/action identity map disagrees with its table.
    InternMapMismatch {
        /// What disagreed.
        detail: String,
    },
    /// A leaf distribution's total mass is outside `[0, 1]`.
    SuperStochasticLeaf {
        /// Offending distribution id.
        dist: u32,
        /// Its total mass.
        mass: Ratio,
    },
    /// A leaf distribution stores a zero or negative entry probability.
    NonPositiveEntry {
        /// Offending distribution id.
        dist: u32,
    },
    /// A leaf distribution's entries are not strictly sorted by action.
    UnsortedDist {
        /// Offending distribution id.
        dist: u32,
    },
    /// A stored probability is not in canonical [`Ratio`] form.
    NonCanonicalRatio {
        /// Offending distribution id.
        dist: u32,
    },
}

#[cfg(feature = "audit")]
impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditViolation::OrderViolation { node, detail } => {
                write!(f, "node {node}: ordering violated — {detail}")
            }
            AuditViolation::RedundantBranch { node } => {
                write!(f, "node {node}: redundant branch (hi == lo)")
            }
            AuditViolation::PredicateFlag { node } => {
                write!(
                    f,
                    "node {node}: predicate flag disagrees with its structure"
                )
            }
            AuditViolation::DuplicateNode { node, first } => {
                write!(f, "node {node}: structural duplicate of node {first}")
            }
            AuditViolation::ConsMapMismatch { detail } => {
                write!(f, "hash-cons map: {detail}")
            }
            AuditViolation::DanglingDist { node, dist } => {
                write!(f, "node {node}: dangling DistId {dist}")
            }
            AuditViolation::DanglingChild { node, child } => {
                write!(f, "node {node}: dangling child {child}")
            }
            AuditViolation::InternMapMismatch { detail } => {
                write!(f, "intern tables: {detail}")
            }
            AuditViolation::SuperStochasticLeaf { dist, mass } => {
                write!(f, "dist {dist}: mass {mass} outside [0, 1]")
            }
            AuditViolation::NonPositiveEntry { dist } => {
                write!(f, "dist {dist}: non-positive entry probability")
            }
            AuditViolation::UnsortedDist { dist } => {
                write!(f, "dist {dist}: entries not strictly sorted by action")
            }
            AuditViolation::NonCanonicalRatio { dist } => {
                write!(f, "dist {dist}: non-canonical Ratio")
            }
        }
    }
}

/// The result of a [`Manager::audit`] pass: table sizes plus every
/// violation found (empty means every checked invariant holds).
#[cfg(feature = "audit")]
#[derive(Clone, Debug)]
pub struct AuditReport {
    /// Nodes in the (append-only) node table.
    pub nodes: usize,
    /// Interned leaf distributions.
    pub dists: usize,
    /// Interned actions.
    pub actions: usize,
    /// Everything the walk found wrong.
    pub violations: Vec<AuditViolation>,
}

#[cfg(feature = "audit")]
impl AuditReport {
    /// No violations found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Panics with every violation when the report is not clean — the
    /// one-liner for tests and self-auditing compile hooks.
    ///
    /// # Panics
    ///
    /// Panics if [`AuditReport::is_clean`] is false.
    pub fn assert_clean(&self) {
        if !self.is_clean() {
            let lines: Vec<String> = self.violations.iter().map(ToString::to_string).collect();
            panic!(
                "Manager::audit found {} violation(s):\n  {}",
                self.violations.len(),
                lines.join("\n  ")
            );
        }
    }
}

/// RAII guard returned by [`Manager::govern`]. Dropping the outermost
/// guard uninstalls the governor and clears any latched abort, restoring
/// the manager to its ungoverned (and fully reusable) state.
#[must_use = "the governor is uninstalled when this guard drops"]
pub struct GovernorGuard<'a> {
    mgr: &'a Manager,
}

impl Drop for GovernorGuard<'_> {
    fn drop(&mut self) {
        let mut inner = self.mgr.inner.lock();
        let uninstall = match inner.governor.as_mut() {
            Some(g) => {
                g.depth -= 1;
                g.depth == 0
            }
            None => false,
        };
        if uninstall {
            inner.governor = None;
        }
    }
}

impl Inner {
    /// See [`Manager::clear`]. Lists every field of `Inner` so that a new
    /// table cannot be forgotten here without a compile error.
    fn clear(&mut self) {
        let Inner {
            nodes,
            predicate,
            consed,
            dists,
            dist_ids,
            dist_entries,
            cache_capacity: _,
            actions,
            action_ids,
            pass_leaf,
            fail_leaf,
            zero_leaf,
            seq_cache,
            sum_cache,
            ite_cache,
            restrict_eq_cache,
            restrict_ne_cache,
            scale_cache,
            prepend_cache,
            dist_sum_cache,
            dist_scale_cache,
            dist_then_cache,
            while_cache,
            loop_stats,
            governor: _,
        } = self;
        nodes.clear();
        predicate.clear();
        consed.clear();
        dists.clear();
        dist_ids.clear();
        *dist_entries = 0;
        actions.clear();
        action_ids.clear();
        *pass_leaf = None;
        *fail_leaf = None;
        *zero_leaf = None;
        seq_cache.clear();
        sum_cache.clear();
        ite_cache.clear();
        restrict_eq_cache.clear();
        restrict_ne_cache.clear();
        scale_cache.clear();
        prepend_cache.clear();
        dist_sum_cache.clear();
        dist_scale_cache.clear();
        dist_then_cache.clear();
        while_cache.clear();
        *loop_stats = LoopSolveStats::default();
    }

    /// Governed checkpoint on op-cache miss paths. Returns `true` when
    /// the compile is aborting — the caller short-circuits to a cheap
    /// degenerate result (the fail leaf) so the recursion collapses in
    /// O(stack depth). The full budget evaluation (which reads the
    /// clock) is amortised to every 64th poll; a trip is latched, so
    /// later checkpoints are a single branch.
    fn gov_checkpoint(&mut self) -> bool {
        let live_nodes = self.nodes.len();
        let dist_entries = self.dist_entries;
        let Some(g) = self.governor.as_mut() else {
            return false;
        };
        if g.tripped.is_some() {
            return true;
        }
        g.polls = g.polls.wrapping_add(1);
        // Evaluate on the first poll (so tiny compiles still get one real
        // check) and every 64th thereafter.
        if g.polls & 0x3f != 1 {
            return false;
        }
        if let Some(e) = g.budget.violation(live_nodes, dist_entries) {
            g.tripped = Some(e);
            return true;
        }
        false
    }

    /// Whether a governed abort is latched. Op-cache inserts are
    /// suppressed while true: a short-circuited frame may have combined
    /// fail-leaf placeholders, and memoising that result under the real
    /// operands' key would poison later (retry) compiles. Results
    /// computed *before* the trip are correct and stay cached.
    fn gov_tripped(&self) -> bool {
        self.governor.as_ref().is_some_and(|g| g.tripped.is_some())
    }

    fn cons(&mut self, node: Node) -> Fdd {
        if let Some(id) = self.consed.get(&node) {
            return id;
        }
        let id = Fdd(self.nodes.len() as u32);
        let predicate = match node {
            Node::Leaf(did) => is_guard_leaf(&self.dists[did.0 as usize]),
            Node::Branch { hi, lo, .. } => {
                self.predicate[hi.0 as usize] && self.predicate[lo.0 as usize]
            }
        };
        self.nodes.push(node);
        self.predicate.push(predicate);
        self.consed.insert(node, id, usize::MAX);
        id
    }

    fn intern_dist(&mut self, dist: ActionDist) -> DistId {
        if let Some(&id) = self.dist_ids.get(&dist) {
            return id;
        }
        let id = DistId(self.dists.len() as u32);
        self.dist_entries += dist.support_size();
        let arc = Arc::new(dist);
        self.dists.push(arc.clone());
        self.dist_ids.insert(arc, id);
        id
    }

    fn intern_action(&mut self, action: &Action) -> ActId {
        if let Some(&id) = self.action_ids.get(action) {
            return id;
        }
        let id = ActId(self.actions.len() as u32);
        let arc = Arc::new(action.clone());
        self.actions.push(arc.clone());
        self.action_ids.insert(arc, id);
        id
    }

    fn mk_leaf(&mut self, dist: ActionDist) -> Fdd {
        let did = self.intern_dist(dist);
        self.cons(Node::Leaf(did))
    }

    fn leaf_pass(&mut self) -> Fdd {
        match self.pass_leaf {
            Some(f) => f,
            None => {
                let f = self.mk_leaf(ActionDist::skip());
                self.pass_leaf = Some(f);
                f
            }
        }
    }

    fn leaf_fail(&mut self) -> Fdd {
        match self.fail_leaf {
            Some(f) => f,
            None => {
                let f = self.mk_leaf(ActionDist::drop());
                self.fail_leaf = Some(f);
                f
            }
        }
    }

    fn leaf_zero(&mut self) -> Fdd {
        match self.zero_leaf {
            Some(f) => f,
            None => {
                let f = self.mk_leaf(ActionDist::zero());
                self.zero_leaf = Some(f);
                f
            }
        }
    }

    fn mk_branch(&mut self, field: Field, value: Value, hi: Fdd, lo: Fdd) -> Fdd {
        if hi == lo {
            return hi;
        }
        #[cfg(debug_assertions)]
        if let Some(why) = branch_order_violation(&self.nodes, field, value, hi, lo) {
            invariant_panic("branch order", &format!("at ({field:?}, {value}): {why}"));
        }
        self.cons(Node::Branch {
            field,
            value,
            hi,
            lo,
        })
    }

    /// Pointwise sum of two interned distributions, memoised on ids.
    fn dist_sum(&mut self, a: DistId, b: DistId) -> DistId {
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(hit) = self.dist_sum_cache.get(&key) {
            return hit;
        }
        let da = self.dists[key.0 .0 as usize].clone();
        let db = self.dists[key.1 .0 as usize].clone();
        let out = self.intern_dist(da.sum(&db));
        let cap = self.cache_capacity;
        self.dist_sum_cache.insert(key, out, cap);
        out
    }

    /// Scales an interned distribution, memoised on (id, ratio).
    fn dist_scale(&mut self, did: DistId, r: &Ratio) -> DistId {
        let key = (did, r.clone());
        if let Some(hit) = self.dist_scale_cache.get(&key) {
            return hit;
        }
        let d = self.dists[did.0 as usize].clone();
        let out = self.intern_dist(d.scale(r));
        let cap = self.cache_capacity;
        self.dist_scale_cache.insert(key, out, cap);
        out
    }

    /// Prepends an interned action to every action of an interned
    /// distribution, memoised on ids.
    fn dist_then(&mut self, aid: ActId, did: DistId) -> DistId {
        let key = (aid, did);
        if let Some(hit) = self.dist_then_cache.get(&key) {
            return hit;
        }
        let mods = self.actions[aid.0 as usize].clone();
        let d = self.dists[did.0 as usize].clone();
        let out = self.intern_dist(d.map_actions(|a| mods.then(a)));
        let cap = self.cache_capacity;
        self.dist_then_cache.insert(key, out, cap);
        out
    }

    /// See [`Manager::eliminate`]. The memo is per-call: the result
    /// depends on the scratch set and its draws, which is not worth
    /// keying a persistent cache on (the operation runs a handful of
    /// times per compiled model). Memoising by node id alone is sound
    /// because the convex-sum semantics is context-free: a test chain's
    /// weights are the *unconditional* entry probabilities, and mid-chain
    /// nodes are folded by the chain walk, never looked up through the
    /// memo under a `f ≠ v` assumption.
    fn eliminate(
        &mut self,
        p: Fdd,
        scratch: &[ScratchField],
        memo: &mut FxHashMap<Fdd, Fdd>,
    ) -> Fdd {
        if let Some(&hit) = memo.get(&p) {
            return hit;
        }
        let result = match self.nodes[p.0 as usize] {
            Node::Leaf(did) => {
                let d = self.dists[did.0 as usize].clone();
                let stripped = d.map_actions(|a| match a {
                    Action::Drop => Action::Drop,
                    Action::Mods(mods) => Action::Mods(
                        mods.iter()
                            .copied()
                            .filter(|(f, _)| scratch.iter().all(|s| s.field != *f))
                            .collect(),
                    ),
                });
                self.mk_leaf(stripped)
            }
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => match scratch.iter().find(|s| s.field == field) {
                None => {
                    let nh = self.eliminate(hi, scratch, memo);
                    let nl = self.eliminate(lo, scratch, memo);
                    self.mk_branch(field, value, nh, nl)
                }
                Some(sf) => {
                    assert!(
                        !sf.draw.is_empty(),
                        "cannot forget field {field}: the diagram tests it"
                    );
                    // Collect the whole `field = v` chain along the false
                    // branches (the ordering invariant puts every test of
                    // one field on a single lo-descent).
                    let mut arms = vec![(value, hi)];
                    let mut tail = lo;
                    while let Node::Branch {
                        field: f2,
                        value: v2,
                        hi: h2,
                        lo: l2,
                    } = self.nodes[tail.0 as usize]
                    {
                        if f2 != field {
                            break;
                        }
                        arms.push((v2, h2));
                        tail = l2;
                    }
                    // Σ_v P(f=v)·elim(arm_v), with the untested mass on
                    // the fall-through branch.
                    let mut used = Ratio::zero();
                    let mut acc = self.leaf_zero();
                    for (v, branch) in arms {
                        let w = sf.prob_of(v);
                        if w.is_zero() {
                            continue;
                        }
                        used += &w;
                        let e = self.eliminate(branch, scratch, memo);
                        let scaled = self.scale(e, &w);
                        acc = self.sum(acc, scaled);
                    }
                    let rest = Ratio::one() - used;
                    if !rest.is_zero() {
                        let e = self.eliminate(tail, scratch, memo);
                        let scaled = self.scale(e, &rest);
                        acc = self.sum(acc, scaled);
                    }
                    acc
                }
            },
        };
        memo.insert(p, result);
        result
    }

    fn restrict_eq(&mut self, p: Fdd, f: Field, v: Value) -> Fdd {
        let (field, value, hi, lo) = match self.nodes[p.0 as usize] {
            Node::Leaf(_) => return p,
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => (field, value, hi, lo),
        };
        if field > f {
            return p;
        }
        let key = (p, f, v);
        if let Some(hit) = self.restrict_eq_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let result = if field < f {
            let nh = self.restrict_eq(hi, f, v);
            let nl = self.restrict_eq(lo, f, v);
            self.mk_branch(field, value, nh, nl)
        } else if value == v {
            hi // true-branch never tests `f` again
        } else {
            self.restrict_eq(lo, f, v)
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.restrict_eq_cache.insert(key, result, cap);
        }
        result
    }

    fn restrict_ne(&mut self, p: Fdd, f: Field, v: Value) -> Fdd {
        let (field, value, hi, lo) = match self.nodes[p.0 as usize] {
            Node::Leaf(_) => return p,
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => (field, value, hi, lo),
        };
        if field > f || (field == f && value > v) {
            return p;
        }
        let key = (p, f, v);
        if let Some(hit) = self.restrict_ne_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let result = if field < f {
            let nh = self.restrict_ne(hi, f, v);
            let nl = self.restrict_ne(lo, f, v);
            self.mk_branch(field, value, nh, nl)
        } else if value == v {
            lo // the (f,v) test fails; lo never re-tests (f,v)
        } else {
            // field == f, value < v: keep the test, recurse on the lo side.
            let nl = self.restrict_ne(lo, f, v);
            self.mk_branch(field, value, hi, nl)
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.restrict_ne_cache.insert(key, result, cap);
        }
        result
    }

    fn scale(&mut self, p: Fdd, r: &Ratio) -> Fdd {
        if r.is_one() {
            return p;
        }
        let key = (p, r.clone());
        if let Some(hit) = self.scale_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let result = match self.nodes[p.0 as usize] {
            Node::Leaf(did) => {
                let ndid = self.dist_scale(did, r);
                self.cons(Node::Leaf(ndid))
            }
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => {
                let nh = self.scale(hi, r);
                let nl = self.scale(lo, r);
                self.mk_branch(field, value, nh, nl)
            }
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.scale_cache.insert(key, result, cap);
        }
        result
    }

    fn sum(&mut self, p: Fdd, q: Fdd) -> Fdd {
        let key = if p <= q { (p, q) } else { (q, p) };
        if let Some(hit) = self.sum_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let np = self.nodes[p.0 as usize];
        let nq = self.nodes[q.0 as usize];
        let result = match (np, nq) {
            (Node::Leaf(dp), Node::Leaf(dq)) => {
                let did = self.dist_sum(dp, dq);
                self.cons(Node::Leaf(did))
            }
            _ => {
                let (f, v) = match (var_of(&np), var_of(&nq)) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => unreachable!(),
                };
                let ph = self.restrict_eq(p, f, v);
                let qh = self.restrict_eq(q, f, v);
                let pl = self.restrict_ne(p, f, v);
                let ql = self.restrict_ne(q, f, v);
                let hi = self.sum(ph, qh);
                let lo = self.sum(pl, ql);
                self.mk_branch(f, v, hi, lo)
            }
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.sum_cache.insert(key, result, cap);
        }
        result
    }

    fn ite(&mut self, t: Fdd, p: Fdd, q: Fdd) -> Fdd {
        let key = (t, p, q);
        if let Some(hit) = self.ite_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let nt = self.nodes[t.0 as usize];
        let result = match nt {
            Node::Leaf(did) => self.ite_leaf(did, p, q),
            Node::Branch { field, value, .. } if self.is_case_arm(t, p, q) => {
                // `if f=v then p else q` where neither operand tests
                // anything at or before `f=v`: the expansion below would
                // rebuild exactly this node.
                self.mk_branch(field, value, p, q)
            }
            Node::Branch { .. } => {
                let (f, v, [th, ph, qh], [tl, pl, ql]) = self.ite_split(t, p, q);
                let hi = self.ite(th, ph, qh);
                let lo = self.ite(tl, pl, ql);
                self.mk_branch(f, v, hi, lo)
            }
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.ite_cache.insert(key, result, cap);
        }
        result
    }

    /// `ite` on a leaf guard: pass selects `p`, drop selects `q`.
    fn ite_leaf(&self, did: DistId, p: Fdd, q: Fdd) -> Fdd {
        let d = &self.dists[did.0 as usize];
        if d.is_skip() {
            p
        } else if d.is_drop() {
            q
        } else {
            let why = guard_leaf_violation(d)
                .expect("leaf is neither pass nor drop, so the helper must explain");
            invariant_panic("ite deterministic guard", &why)
        }
    }

    /// Whether `ite(t, p, q)` is one arm of a `case` chain: `t` is the
    /// single test `f=v ? pass : drop`, `p` tests only fields after `f`,
    /// and `q` tests only variables after `(f, v)`. Then `f=v ? p : q` is
    /// already an ordered diagram — the answer.
    fn is_case_arm(&mut self, t: Fdd, p: Fdd, q: Fdd) -> bool {
        let Node::Branch {
            field,
            value,
            hi,
            lo,
        } = self.nodes[t.0 as usize]
        else {
            return false;
        };
        hi == self.leaf_pass()
            && lo == self.leaf_fail()
            && var_of(&self.nodes[p.0 as usize]).is_none_or(|(f, _)| f > field)
            && var_of(&self.nodes[q.0 as usize]).is_none_or(|top| top > (field, value))
    }

    /// Shannon expansion of `ite(t, p, q)` on the smallest variable the
    /// three diagrams test: that variable and the operands restricted to
    /// its true and false sides.
    fn ite_split(&mut self, t: Fdd, p: Fdd, q: Fdd) -> (Field, Value, [Fdd; 3], [Fdd; 3]) {
        let (f, v) = [t, p, q]
            .into_iter()
            .filter_map(|x| var_of(&self.nodes[x.0 as usize]))
            .min()
            .expect("the guard is a branch");
        let hi = [t, p, q].map(|x| self.restrict_eq(x, f, v));
        let lo = [t, p, q].map(|x| self.restrict_ne(x, f, v));
        (f, v, hi, lo)
    }

    /// Restricts `q` by the modifications of `mods` (partial evaluation),
    /// then prepends the modifications to every resulting action.
    fn action_then(&mut self, mods: &Action, q: Fdd) -> Fdd {
        match mods {
            Action::Drop => self.leaf_fail(),
            Action::Mods(pairs) => {
                let mut restricted = q;
                for &(f, v) in pairs {
                    restricted = self.restrict_eq(restricted, f, v);
                }
                if pairs.is_empty() {
                    return restricted;
                }
                let aid = self.intern_action(mods);
                self.prepend(aid, restricted)
            }
        }
    }

    fn prepend(&mut self, aid: ActId, q: Fdd) -> Fdd {
        let key = (q, aid);
        if let Some(hit) = self.prepend_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let result = match self.nodes[q.0 as usize] {
            Node::Leaf(did) => {
                let ndid = self.dist_then(aid, did);
                self.cons(Node::Leaf(ndid))
            }
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => {
                let nh = self.prepend(aid, hi);
                let nl = self.prepend(aid, lo);
                self.mk_branch(field, value, nh, nl)
            }
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.prepend_cache.insert(key, result, cap);
        }
        result
    }

    fn seq(&mut self, p: Fdd, q: Fdd) -> Fdd {
        let key = (p, q);
        if let Some(hit) = self.seq_cache.get(&key) {
            return hit;
        }
        if self.gov_checkpoint() {
            return self.leaf_fail();
        }
        let result = if self.predicate[p.0 as usize] {
            // A filter passes the packet unchanged or drops it.
            let fail = self.leaf_fail();
            self.ite(p, q, fail)
        } else {
            match self.nodes[p.0 as usize] {
                Node::Leaf(did) => self.seq_leaf(did, q),
                Node::Branch {
                    field,
                    value,
                    hi,
                    lo,
                } => {
                    let nh = self.seq(hi, q);
                    let nl = self.seq(lo, q);
                    if matches!(self.nodes[q.0 as usize], Node::Leaf(_)) {
                        // `nh`/`nl` only test what `hi`/`lo` test, so they
                        // already sit in order under this node's test.
                        self.mk_branch(field, value, nh, nl)
                    } else {
                        self.seq_branch(field, value, nh, nl)
                    }
                }
            }
        };
        if !self.gov_tripped() {
            let cap = self.cache_capacity;
            self.seq_cache.insert(key, result, cap);
        }
        result
    }

    /// `seq`'s leaf case: each action of the leaf, continued into `q`
    /// (restricted by the action's modifications), weighted and summed.
    fn seq_leaf(&mut self, did: DistId, q: Fdd) -> Fdd {
        let d = self.dists[did.0 as usize].clone();
        let mut acc = self.leaf_zero();
        for (action, r) in d.iter() {
            let cont = self.action_then(action, q);
            let scaled = self.scale(cont, r);
            acc = self.sum(acc, scaled);
        }
        acc
    }

    /// `seq`'s general branch case, given the composed children: the path
    /// test is re-introduced via `ite` so the constraint `field = value`
    /// (resp. `≠`) also resolves the residual tests `q` contributes — the
    /// leaf case only restricted `q` by the *modifications*, not by the
    /// path.
    fn seq_branch(&mut self, field: Field, value: Value, nh: Fdd, nl: Fdd) -> Fdd {
        let pass = self.leaf_pass();
        let fail = self.leaf_fail();
        let test = self.mk_branch(field, value, pass, fail);
        self.ite(test, nh, nl)
    }

    /// The general `seq` without the predicate and leaf fast paths, memoised
    /// per call: the reference the fast paths are differential-tested
    /// against.
    #[cfg(test)]
    fn seq_reference(&mut self, p: Fdd, q: Fdd, memo: &mut FxHashMap<Fdd, Fdd>) -> Fdd {
        if let Some(&hit) = memo.get(&p) {
            return hit;
        }
        let result = match self.nodes[p.0 as usize] {
            Node::Leaf(did) => self.seq_leaf(did, q),
            Node::Branch {
                field,
                value,
                hi,
                lo,
            } => {
                let nh = self.seq_reference(hi, q, memo);
                let nl = self.seq_reference(lo, q, memo);
                self.seq_branch(field, value, nh, nl)
            }
        };
        memo.insert(p, result);
        result
    }

    /// The general `ite` without the case-arm fast path, memoised per
    /// call: the reference the fast path is differential-tested against.
    #[cfg(test)]
    fn ite_reference(
        &mut self,
        t: Fdd,
        p: Fdd,
        q: Fdd,
        memo: &mut FxHashMap<(Fdd, Fdd, Fdd), Fdd>,
    ) -> Fdd {
        if let Some(&hit) = memo.get(&(t, p, q)) {
            return hit;
        }
        let result = match self.nodes[t.0 as usize] {
            Node::Leaf(did) => self.ite_leaf(did, p, q),
            Node::Branch { .. } => {
                let (f, v, [th, ph, qh], [tl, pl, ql]) = self.ite_split(t, p, q);
                let hi = self.ite_reference(th, ph, qh, memo);
                let lo = self.ite_reference(tl, pl, ql, memo);
                self.mk_branch(f, v, hi, lo)
            }
        };
        memo.insert((t, p, q), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcnetkat_core::{Pred, Prog};

    fn fields() -> (Field, Field) {
        (Field::named("mgr_a"), Field::named("mgr_b"))
    }

    #[test]
    fn hash_consing_dedups() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let a = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let b = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        assert_eq!(a, b);
    }

    #[test]
    fn equal_children_collapse() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let t = mgr.pass();
        assert_eq!(mgr.branch(f, 1, t, t), t);
    }

    #[test]
    fn eval_follows_branches() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let fdd = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        assert!(mgr.eval(fdd, &Packet::new().with(f, 1)).is_skip());
        assert!(mgr.eval(fdd, &Packet::new().with(f, 2)).is_drop());
        assert!(mgr.eval(fdd, &Packet::new()).is_drop());
    }

    #[test]
    fn restrict_eq_resolves_tests() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let fdd = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        assert_eq!(mgr.restrict_eq(fdd, f, 1), mgr.pass());
        assert_eq!(mgr.restrict_eq(fdd, f, 2), mgr.fail());
    }

    #[test]
    fn restrict_ne_removes_single_test() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let inner = mgr.branch(f, 2, mgr.pass(), mgr.fail());
        let fdd = mgr.branch(f, 1, mgr.fail(), inner);
        // Knowing f ≠ 1 discards the first test.
        assert_eq!(mgr.restrict_ne(fdd, f, 1), inner);
        // Knowing f ≠ 2 rewrites the inner test.
        let expect = mgr.branch(f, 1, mgr.fail(), mgr.fail());
        assert_eq!(mgr.restrict_ne(fdd, f, 2), expect);
    }

    #[test]
    fn seq_applies_mods_and_resolves_tests() {
        let mgr = Manager::new();
        let (f, _) = fields();
        // p = f<-1 ; q = (f=1 ? skip : drop). Sequencing resolves the test.
        let p = mgr.leaf(ActionDist::dirac(Action::assign(f, 1)));
        let q = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let pq = mgr.seq(p, q);
        let d = mgr.eval(pq, &Packet::new());
        assert_eq!(d, ActionDist::dirac(Action::assign(f, 1)));
    }

    #[test]
    fn seq_drop_absorbs() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let p = mgr.fail();
        let q = mgr.leaf(ActionDist::dirac(Action::assign(f, 1)));
        assert_eq!(mgr.seq(p, q), mgr.fail());
        assert_eq!(mgr.seq(q, mgr.fail()), mgr.fail());
    }

    #[test]
    fn convex_combination_mixes_leaves() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let p = mgr.leaf(ActionDist::dirac(Action::assign(f, 1)));
        let q = mgr.leaf(ActionDist::dirac(Action::assign(f, 2)));
        let mix = mgr.convex(&[(p, Ratio::new(1, 4)), (q, Ratio::new(3, 4))]);
        let d = mgr.eval(mix, &Packet::new());
        assert_eq!(d.prob(&Action::assign(f, 1)), Ratio::new(1, 4));
        assert_eq!(d.prob(&Action::assign(f, 2)), Ratio::new(3, 4));
    }

    #[test]
    fn ite_selects_branches() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let guard = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let p = mgr.leaf(ActionDist::dirac(Action::assign(g, 10)));
        let q = mgr.leaf(ActionDist::dirac(Action::assign(g, 20)));
        let fdd = mgr.ite(guard, p, q);
        let d1 = mgr.eval(fdd, &Packet::new().with(f, 1));
        let d2 = mgr.eval(fdd, &Packet::new().with(f, 7));
        assert_eq!(d1, ActionDist::dirac(Action::assign(g, 10)));
        assert_eq!(d2, ActionDist::dirac(Action::assign(g, 20)));
    }

    #[test]
    fn ordering_keeps_fields_sorted() {
        let mgr = Manager::new();
        let (f, g) = fields();
        assert!(f < g);
        let inner_g = mgr.branch(g, 1, mgr.pass(), mgr.fail());
        let fdd = mgr.branch(f, 1, inner_g, mgr.fail());
        // Evaluation respects both tests.
        let pk = Packet::new().with(f, 1).with(g, 1);
        assert!(mgr.eval(fdd, &pk).is_skip());
        assert!(mgr.eval(fdd, &pk.with(g, 2)).is_drop());
    }

    #[test]
    fn seq_resolves_tests_via_path_not_just_mods() {
        // Regression: p tests f (without modifying it), q tests f again.
        // The composed diagram must resolve q's test from the *path*.
        let mgr = Manager::new();
        let (f, g) = fields();
        // p = if f=1 then g<-1 else g<-2 (no f mods)
        let p_hi = mgr.leaf(ActionDist::dirac(Action::assign(g, 1)));
        let p_lo = mgr.leaf(ActionDist::dirac(Action::assign(g, 2)));
        let p = mgr.branch(f, 1, p_hi, p_lo);
        // q = if f=1 then skip else drop
        let q = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let pq = mgr.seq(p, q);
        // f=1 path survives with g<-1; f≠1 path is dropped by q.
        let d1 = mgr.eval(pq, &Packet::new().with(f, 1));
        assert_eq!(d1, ActionDist::dirac(Action::assign(g, 1)));
        let d2 = mgr.eval(pq, &Packet::new().with(f, 2));
        assert!(d2.is_drop());
        // And mods still win over path knowledge: p' = f=1 ; f<-2, then q.
        let assign_f2 = mgr.leaf(ActionDist::dirac(Action::assign(f, 2)));
        let p2 = mgr.branch(f, 1, assign_f2, mgr.fail());
        let p2q = mgr.seq(p2, q);
        assert!(mgr.eval(p2q, &Packet::new().with(f, 1)).is_drop());
    }

    #[test]
    fn domain_collects_tests() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let inner = mgr.branch(g, 5, mgr.pass(), mgr.fail());
        let fdd = mgr.branch(f, 1, inner, mgr.fail());
        let dom = mgr.domain(fdd);
        assert_eq!(dom.tested[&f], vec![1]);
        assert_eq!(dom.tested[&g], vec![5]);
        assert_eq!(dom.class_count(), 4);
    }

    #[test]
    fn sym_eval_wildcard_takes_false_branches() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let fdd = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        assert!(mgr.eval_sym(fdd, &SymPkt::star()).is_drop());
        assert!(mgr.eval_sym(fdd, &SymPkt::from_pairs([(f, 1)])).is_skip());
    }

    #[test]
    fn is_predicate_detects_probabilistic_leaves() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let prob = mgr.convex(&[
            (mgr.pass(), Ratio::new(1, 2)),
            (mgr.fail(), Ratio::new(1, 2)),
        ]);
        assert!(mgr.is_predicate(mgr.pass()));
        assert!(mgr.is_predicate(mgr.branch(f, 1, mgr.pass(), mgr.fail())));
        assert!(!mgr.is_predicate(prob));
    }

    #[test]
    fn leaves_are_interned_once() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let d = ActionDist::dirac(Action::assign(f, 1));
        let a = mgr.leaf(d.clone());
        let b = mgr.leaf(d);
        assert_eq!(a, b);
        // pass + the assign leaf = 2 distributions; re-interning added none.
        let _ = mgr.pass();
        assert_eq!(mgr.dist_count(), 2);
    }

    #[test]
    fn forget_strips_scratch_mods_and_merges_actions() {
        let mgr = Manager::new();
        let (f, g) = fields();
        // Two actions differing only in the scratch field g collapse into
        // one, with their probabilities added.
        let d = ActionDist::from_pairs([
            (Action::mods([(f, 1), (g, 0)]), Ratio::new(1, 4)),
            (Action::mods([(f, 1), (g, 1)]), Ratio::new(1, 4)),
            (Action::Drop, Ratio::new(1, 2)),
        ]);
        let p = mgr.leaf(d);
        let q = mgr.forget(p, &[g]);
        let out = mgr.eval(q, &Packet::new());
        assert_eq!(out.prob(&Action::assign(f, 1)), Ratio::new(1, 2));
        assert_eq!(out.prob(&Action::Drop), Ratio::new(1, 2));
        assert_eq!(out.support_size(), 2);
    }

    #[test]
    fn forget_preserves_tests_on_other_fields() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let hi = mgr.leaf(ActionDist::dirac(Action::mods([(g, 7)])));
        let p = mgr.branch(f, 1, hi, mgr.fail());
        let q = mgr.forget(p, &[g]);
        // The f test survives; the g modification is gone.
        assert!(mgr
            .eval(q, &Packet::new().with(f, 1))
            .iter()
            .all(|(a, _)| a.is_skip()));
        assert!(mgr.eval(q, &Packet::new()).is_drop());
        // Forgetting nothing is the identity.
        assert_eq!(mgr.forget(p, &[]), p);
    }

    #[test]
    #[should_panic(expected = "tests it")]
    fn forget_rejects_tested_fields() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let p = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let _ = mgr.forget(p, &[f]);
    }

    #[test]
    fn eliminate_sums_out_tested_fields() {
        let mgr = Manager::new();
        let (f, g) = fields();
        // if g=1 then f<-10 else f<-20, with g ~ Bernoulli(1/4 on 1).
        let hi = mgr.leaf(ActionDist::dirac(Action::assign(f, 10)));
        let lo = mgr.leaf(ActionDist::dirac(Action::assign(f, 20)));
        let p = mgr.branch(g, 1, hi, lo);
        let e = mgr.eliminate(p, &[ScratchField::bernoulli(g, Ratio::new(1, 4))]);
        let d = mgr.eval(e, &Packet::new());
        assert_eq!(d.prob(&Action::assign(f, 10)), Ratio::new(1, 4));
        assert_eq!(d.prob(&Action::assign(f, 20)), Ratio::new(3, 4));
        // The scratch field is gone entirely.
        assert!(!mgr.domain(e).tested.contains_key(&g));
    }

    #[test]
    fn eliminate_handles_value_chains_and_untested_mass() {
        let mgr = Manager::new();
        let (f, g) = fields();
        // Chain testing g=1 and g=2; draw puts mass on 1, 2 and 3 (3 is
        // untested, so its mass lands on the innermost false branch).
        let a = mgr.leaf(ActionDist::dirac(Action::assign(f, 1)));
        let b = mgr.leaf(ActionDist::dirac(Action::assign(f, 2)));
        let c = mgr.leaf(ActionDist::dirac(Action::assign(f, 3)));
        let chain = mgr.branch(g, 1, a, mgr.branch(g, 2, b, c));
        let draw = vec![
            (1, Ratio::new(1, 2)),
            (2, Ratio::new(1, 3)),
            (3, Ratio::new(1, 6)),
        ];
        let e = mgr.eliminate(chain, &[ScratchField::drawn(g, draw)]);
        let d = mgr.eval(e, &Packet::new());
        assert_eq!(d.prob(&Action::assign(f, 1)), Ratio::new(1, 2));
        assert_eq!(d.prob(&Action::assign(f, 2)), Ratio::new(1, 3));
        assert_eq!(d.prob(&Action::assign(f, 3)), Ratio::new(1, 6));
    }

    #[test]
    #[should_panic(expected = "mass")]
    fn eliminate_rejects_subdistribution_draws() {
        let mgr = Manager::new();
        let (_, g) = fields();
        let p = mgr.branch(g, 1, mgr.pass(), mgr.fail());
        let _ = mgr.eliminate(p, &[ScratchField::drawn(g, vec![(1, Ratio::new(1, 2))])]);
    }

    #[test]
    fn cache_capacity_clears_on_overflow_and_reports_evictions() {
        let mgr = Manager::with_cache_capacity(4);
        let (f, _) = fields();
        // Distinct restrict_eq keys overflow the 4-entry bound quickly.
        let mut p = mgr.pass();
        for v in (1..=12u32).rev() {
            p = mgr.branch(f, v, mgr.fail(), p);
        }
        for v in 1..=12u32 {
            let _ = mgr.restrict_eq(p, f, v);
        }
        let stats = mgr.op_cache_stats();
        let re = stats.get("restrict_eq").unwrap();
        assert!(re.evictions > 0, "expected evictions, got {re:?}");
        assert!(re.entries <= 4, "bounded cache grew to {}", re.entries);
        // The hash-cons identity table is exempt from the bound.
        let cons = stats.get("cons").unwrap();
        assert_eq!(cons.entries, mgr.node_count());
        assert_eq!(cons.evictions, 0);
    }

    #[test]
    fn reset_op_caches_drops_memos_but_keeps_nodes() {
        let mgr = Manager::new();
        let (f, g) = fields();
        let p = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let q = mgr.branch(g, 2, mgr.pass(), mgr.fail());
        let pq = mgr.seq(p, q);
        let nodes_before = mgr.node_count();
        let entries_before = mgr.op_cache_stats().get("seq").unwrap().entries;
        assert!(entries_before > 0);
        mgr.reset_op_caches();
        let stats = mgr.op_cache_stats();
        let seq = stats.get("seq").unwrap();
        assert_eq!(seq.entries, 0);
        assert_eq!(seq.evictions, entries_before as u64);
        assert_eq!(mgr.node_count(), nodes_before, "nodes survive the reset");
        // Results stay correct (and hash-consing still dedups to the same
        // handle) after a reset.
        assert_eq!(mgr.seq(p, q), pq);
    }

    #[test]
    fn peak_gauges_track_interned_sizes() {
        let mgr = Manager::new();
        let (f, _) = fields();
        assert_eq!(mgr.peak_live_nodes(), 0);
        assert_eq!(mgr.peak_dist_entries(), 0);
        let d = ActionDist::from_pairs([
            (Action::assign(f, 1), Ratio::new(1, 2)),
            (Action::Drop, Ratio::new(1, 2)),
        ]);
        let _ = mgr.leaf(d);
        let _ = mgr.pass();
        assert_eq!(mgr.peak_live_nodes(), 2);
        // 2-entry leaf + 1-entry skip leaf.
        assert_eq!(mgr.peak_dist_entries(), 3);
        let (_, total, _) = mgr.dist_table_stats();
        assert_eq!(mgr.peak_dist_entries(), total);
    }

    #[test]
    fn op_cache_stats_counts_lookups() {
        let mgr = Manager::new();
        let (f, _) = fields();
        let p = mgr.branch(f, 1, mgr.pass(), mgr.fail());
        let q = mgr.branch(f, 2, mgr.pass(), mgr.fail());
        let _ = mgr.seq(p, q);
        let first = mgr.op_cache_stats();
        let seq1 = *first.get("seq").unwrap();
        assert!(seq1.misses >= 1);
        // Repeating the identical operation is answered from the cache.
        let _ = mgr.seq(p, q);
        let second = mgr.op_cache_stats();
        let seq2 = *second.get("seq").unwrap();
        assert_eq!(seq2.misses, seq1.misses);
        assert_eq!(seq2.hits, seq1.hits + 1);
        assert!(seq2.hit_rate() > 0.0);
        // The cons entry tracks the hash-cons table.
        let cons = *second.get("cons").unwrap();
        assert_eq!(cons.entries, mgr.node_count());
    }

    /// A hop-shaped program: a route choosing a port, then a `pt` case
    /// whose arms test two scratch health flags, which are summed out.
    fn hop_like() -> (Prog, Vec<ScratchField>) {
        let pt = Field::named("mgr_hop_pt");
        let up = [Field::named("mgr_hop_up1"), Field::named("mgr_hop_up2")];
        let route = Prog::uniform(vec![Prog::assign(pt, 1), Prog::assign(pt, 2)]);
        let arm = |i: usize, to: Value| {
            Prog::ite(Pred::test(up[i], 1), Prog::assign(pt, to), Prog::drop())
        };
        let step = Prog::case(
            vec![
                (Pred::test(pt, 1), arm(0, 7)),
                (Pred::test(pt, 2), arm(1, 8)),
            ],
            Prog::drop(),
        );
        let scratch = vec![
            ScratchField::bernoulli(up[0], Ratio::new(9, 10)),
            ScratchField::bernoulli(up[1], Ratio::new(3, 4)),
        ];
        (route.seq(step), scratch)
    }

    #[test]
    fn clear_makes_a_reused_manager_indistinguishable_from_a_fresh_one() {
        let (prog, scratch) = hop_like();
        let hop = |mgr: &Manager| {
            let compiled = mgr.compile(&prog).unwrap();
            mgr.eliminate(compiled, &scratch)
        };
        let fresh = Manager::new();
        let want = hop(&fresh);

        let reused = Manager::new();
        // A loop solve as well, so the `while` cache and the loop gauges
        // have something to drop.
        let (f, g) = fields();
        let body = Prog::choice2(Prog::assign(f, 1), Ratio::new(1, 2), Prog::assign(g, 1));
        let _ = reused
            .compile(&Prog::while_(Pred::test(f, 0), body))
            .unwrap();
        let _ = hop(&reused);
        assert!(reused.while_cache_stats().entries > 0);
        reused.clear();
        assert_eq!(reused.node_count(), 0);
        assert_eq!(
            (reused.peak_live_nodes(), reused.peak_dist_entries()),
            (0, 0)
        );
        assert_eq!(reused.dist_table_stats(), (0, 0, 0));
        assert_eq!(reused.while_cache_stats(), WhileCacheStats::default());
        assert_eq!(reused.loop_solve_stats(), LoopSolveStats::default());
        assert_eq!(
            reused.op_cache_stats().caches,
            Manager::new().op_cache_stats().caches
        );

        let got = hop(&reused);
        assert_eq!(got, want, "the same ops hand out the same ids");
        assert_eq!(
            format!("{:?}", reused.export(got)),
            format!("{:?}", fresh.export(want))
        );
        assert_eq!(reused.peak_live_nodes(), fresh.peak_live_nodes());
        assert_eq!(reused.peak_dist_entries(), fresh.peak_dist_entries());
        assert_eq!(
            reused.op_cache_stats().caches,
            fresh.op_cache_stats().caches
        );
        #[cfg(feature = "audit")]
        reused.audit().assert_clean();
    }

    #[test]
    fn clear_keeps_the_cache_capacity() {
        let mgr = Manager::with_cache_capacity(2);
        let (f, _) = fields();
        for _ in 0..2 {
            mgr.clear();
            let mut p = mgr.pass();
            for v in (1..=6u32).rev() {
                p = mgr.branch(f, v, mgr.fail(), p);
            }
            for v in 1..=6u32 {
                let _ = mgr.restrict_eq(p, f, v);
            }
            assert!(mgr.op_cache_stats().get("restrict_eq").unwrap().entries <= 2);
        }
    }

    /// The two test fields in variable order (interning order depends on
    /// which test runs first).
    fn ordered_fields() -> (Field, Field) {
        let (a, b) = fields();
        (a.min(b), a.max(b))
    }

    #[test]
    fn case_arm_ite_skips_the_shannon_expansion() {
        let mgr = Manager::new();
        let (f, g) = ordered_fields();
        let assign = |v| mgr.leaf(ActionDist::dirac(Action::assign(g, v)));
        let arms = [
            assign(1),
            mgr.branch(g, 5, assign(2), mgr.fail()),
            assign(3),
        ];
        let mut chain = mgr.fail();
        for (v, &arm) in (1u32..4).zip(&arms).rev() {
            let t = mgr.branch(f, v, mgr.pass(), mgr.fail());
            chain = mgr.ite(t, arm, chain);
        }
        let stats = mgr.op_cache_stats();
        assert_eq!(stats.get("restrict_eq").unwrap().lookups(), 0);
        assert_eq!(stats.get("restrict_ne").unwrap().lookups(), 0);
        for (v, &arm) in (1u32..).zip(&arms) {
            assert_eq!(mgr.restrict_eq(chain, f, v), arm);
        }
        assert_eq!(mgr.restrict_eq(chain, f, 9), mgr.fail());
    }

    /// `seq`'s fast paths against [`Inner::seq_reference`], the general
    /// product with both fast paths off.
    mod fast_paths {
        use super::*;
        use mcnetkat_core::{Pred, Prog};
        use proptest::prelude::*;

        fn field(ix: usize) -> Field {
            Field::named(["mgr_fp_a", "mgr_fp_b", "mgr_fp_c"][ix])
        }

        fn arb_pred() -> BoxedStrategy<Pred> {
            let leaf = prop_oneof![
                Just(Pred::t()),
                Just(Pred::f()),
                (0..3usize, 0..=2u32).prop_map(|(f, v)| Pred::test(field(f), v)),
            ];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
                    (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
                    inner.prop_map(Pred::not),
                ]
            })
            .boxed()
        }

        fn arb_prog() -> BoxedStrategy<Prog> {
            let leaf = prop_oneof![
                Just(Prog::skip()),
                Just(Prog::drop()),
                (0..3usize, 0..=2u32).prop_map(|(f, v)| Prog::assign(field(f), v)),
                arb_pred().prop_map(Prog::filter),
            ];
            leaf.prop_recursive(3, 16, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
                    (inner.clone(), 1..4i64, inner.clone()).prop_map(|(p, n, q)| Prog::choice2(
                        p,
                        Ratio::new(n, 4),
                        q
                    )),
                    (arb_pred(), inner.clone(), inner.clone())
                        .prop_map(|(t, p, q)| Prog::ite(t, p, q)),
                ]
            })
            .boxed()
        }

        fn reference(mgr: &Manager, p: Fdd, q: Fdd) -> Fdd {
            mgr.inner
                .lock()
                .seq_reference(p, q, &mut FxHashMap::default())
        }

        fn ite_reference(mgr: &Manager, t: Fdd, p: Fdd, q: Fdd) -> Fdd {
            mgr.inner
                .lock()
                .ite_reference(t, p, q, &mut FxHashMap::default())
        }

        /// `p` with every test on a field before `f` resolved (to 0), and
        /// also `f` itself when `through` is set.
        fn strip(mgr: &Manager, mut p: Fdd, f: Field, through: bool) -> Fdd {
            for g in (0..3).map(field).filter(|&g| g < f || (through && g == f)) {
                p = mgr.restrict_eq(p, g, 0);
            }
            p
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Filter first: `ite(t, q, drop)` denotes the general product.
            #[test]
            fn filter_first_seq_matches_general_seq(t in arb_pred(), q in arb_prog()) {
                let mgr = Manager::new();
                let ft = mgr.compile_pred(&t);
                let fq = mgr.compile(&q).unwrap();
                let want = reference(&mgr, ft, fq);
                prop_assert!(mgr.equiv(mgr.seq(ft, fq), want));
            }

            /// The case-arm `ite` builds the very diagram the general `ite`
            /// builds. `p` is as compiled, free of tests up to `f`, or topped
            /// by `f` (which must take the general path); `q` is as
            /// compiled, or a case chain topped by `f` at a larger value.
            #[test]
            fn case_arm_ite_matches_general_ite(
                var in (0..3usize, 0..=2u32, 1..=2u32),
                progs in (arb_prog(), arb_prog(), arb_prog()),
                shapes in (0..3usize, 0..2usize),
                general in arb_pred(),
            ) {
                let ((fi, v, w), (p, q, r), (p_shape, q_shape)) = (var, progs, shapes);
                let mgr = Manager::new();
                let f = field(fi);
                let t = mgr.branch(f, v, mgr.pass(), mgr.fail());
                let (fp, fq, fr) = (
                    mgr.compile(&p).unwrap(),
                    mgr.compile(&q).unwrap(),
                    mgr.compile(&r).unwrap(),
                );
                let fp = match p_shape {
                    0 => fp,
                    1 => strip(&mgr, fp, f, true),
                    _ => {
                        let test = mgr.branch(f, w, mgr.pass(), mgr.fail());
                        let (a, b) = (strip(&mgr, fp, f, true), strip(&mgr, fr, f, false));
                        mgr.ite(test, a, b)
                    }
                };
                let fq = if q_shape == 0 {
                    fq
                } else {
                    let mut rest = strip(&mgr, fq, f, false);
                    for u in 0..=v + w {
                        rest = mgr.restrict_ne(rest, f, u);
                    }
                    let test = mgr.branch(f, v + w, mgr.pass(), mgr.fail());
                    mgr.ite(test, strip(&mgr, fr, f, true), rest)
                };
                let want = ite_reference(&mgr, t, fp, fq);
                prop_assert_eq!(mgr.ite(t, fp, fq), want);
                let general = mgr.compile_pred(&general);
                let want = ite_reference(&mgr, general, fp, fq);
                prop_assert_eq!(mgr.ite(general, fp, fq), want);
            }

            /// Leaf last: mapping the leaves builds the very diagram the
            /// general product builds, not only an equivalent one.
            #[test]
            fn leaf_last_seq_matches_general_seq(
                p in arb_prog(),
                pairs in proptest::collection::vec((0..3usize, 0..=2u32), 0..4),
            ) {
                let mgr = Manager::new();
                let fp = mgr.compile(&p).unwrap();
                let a = Action::mods(pairs.into_iter().map(|(f, v)| (field(f), v)));
                let leaf = mgr.leaf(ActionDist::dirac(a));
                let want = reference(&mgr, fp, leaf);
                prop_assert_eq!(mgr.seq(fp, leaf), want);
            }
        }
    }
}

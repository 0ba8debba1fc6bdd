//! Fused per-switch compilation with eager scratch-field elimination.
//!
//! The legacy pipeline compiled the *whole* loop body — every switch's
//! failure draw, routing scheme, topology step and flag erasure — into one
//! FDD before solving the loop, so every switch's `up_i` (and `grp_j`)
//! scratch fields were alive in the same manager simultaneously. Peak
//! diagram size therefore scaled with the cross-product of the entire
//! topology's per-hop randomness (~165 k live nodes and ~1.8 M leaf
//! distribution entries on fattree(8)), even though each scratch field is
//! born and dies within a single switch-hop.
//!
//! This module restructures compilation the way the paper does
//! (conf_pldi_SmolkaKKFHK019 compiles switch-local programs first and only
//! then assembles the global model):
//!
//! ```text
//!   per switch s:
//!     hop_inputs(s)                                 — key: route_s (topo-step
//!                                                     sliced to the ports
//!                                                     scheme_s writes),
//!                                                     failure events, budget
//!   per missing hop (compile_hops: one scratch manager per call or
//!                    worker, reused):
//!     scheme_s ; topo-step_s ; bump?                — compile the route
//!     sum the failure events out                    — scenario sum
//!     export → import                               — scratch-free, tiny
//!     clear the scratch manager                     — Manager::clear
//!   main manager:
//!     case sw=s₁ … sw=sₙ chain of imported hops     — assemble_chain
//!     while-solve                                   — assemble_model
//!     ingress ; pt<-0 ; local wrappers              — assemble_tail
//! ```
//!
//! The tail after the loop solve costs a few `ite`s, not whole-model
//! products: `ingress ; do body while g` is rewritten by the do-while law
//! so `body ; loop` is never built for a fat tree, and the remaining
//! `seq`s take [`Manager::seq`]'s filter-first and leaf-last fast paths
//! (see [`assemble_tail`]).
//!
//! Every compile takes that shape. A cold compile keys every switch and
//! compiles them all, inline ([`NetworkModel::compile_with`]) or on a
//! worker pool ([`compile_model_parallel`]); the incremental
//! engine in `mcnetkat-serve` keys only the switches a delta touches and
//! compiles only its hop-cache misses. [`compile_hops`] is the one place
//! hop diagrams are made.
//!
//! A hop's result is tiny (a few nodes on a fat tree), so the hop compile
//! is kept close to what that result costs. The topology step keeps only
//! the `pt` arms the switch's route can take (see [`hop_inputs`]); every
//! arm of a `case` chain — the `pt` case, and the `sw` chain of
//! [`assemble_chain`] — is one node built by [`Manager::ite`]'s case-arm
//! fast path; and [`compile_hops`] compiles every hop of a worker in one
//! scratch manager, [cleared](Manager::clear) between hops, instead of
//! growing a fresh manager's tables from empty for each.
//!
//! Peak live nodes now scale with the *largest single switch*, not the
//! topology.
//!
//! # The scenario sum
//!
//! No draw program is ever compiled. The route tests `up_i` flags and
//! never writes them, so it already says everything that depends on link
//! health; the switch's [failure events](FailureEvent) are summed out of
//! it exactly, on the diagram:
//!
//! * **Unbounded** (`k = None`): each event is a two-way mix,
//!   `(1−pr)·restrict(X, ups=1) + pr·restrict(X, ups=0)`; the single-port
//!   events together are one [`Manager::eliminate`] pass.
//! * **Under a budget** (`k = Some(_)`): the hop is a case on `fl`. For a
//!   start `fl = v < k`, a mix over the events indexed by the failures so
//!   far, where an exhausted budget forces later events up and a failing
//!   scenario appends `fl ← v + failures`; for `fl = k`, every flag up;
//!   for any other `fl`, the unbounded mix with no bump, as the draw's
//!   budget bump leaves such values alone.
//!
//! Either way the result is exactly the legacy `draw ; route` with the
//! scratch fields projected out (pinned diagram-for-diagram by
//! `crates/net/tests/hop_scenarios.rs`), and it mentions no scratch
//! field, so the global body, the loop solve, and the final diagram never
//! see one — no per-hop erasure, no final [`Manager::forget`] projection.

use crate::model::bump_hop_counter;
use crate::{FailureEvent, NetworkModel};
use mcnetkat_core::{Field, Pred, Prog, Value};
use mcnetkat_fdd::{
    Action, ActionDist, CancelToken, CompileError, CompileOptions, Fdd, FddExport, Manager,
    ScratchField,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{NodeId, ShortestPaths};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};

/// Size gauges from one fused compile: how big the per-switch scratch
/// compilations got before elimination. Together with the main manager's
/// [`Manager::peak_live_nodes`] / [`Manager::peak_dist_entries`] this
/// bounds the pipeline's true peak memory.
#[derive(Clone, Copy, Debug, Default)]
pub struct FusedStats {
    /// Switches compiled.
    pub switches: usize,
    /// Largest scratch-manager node count over all switches.
    pub max_scratch_nodes: usize,
    /// Largest scratch-manager distribution-entry total over all switches.
    pub max_scratch_dist_entries: usize,
}

impl FusedStats {
    fn absorb_scratch(&mut self, scratch: &Manager) {
        self.switches += 1;
        self.max_scratch_nodes = self.max_scratch_nodes.max(scratch.peak_live_nodes());
        self.max_scratch_dist_entries = self
            .max_scratch_dist_entries
            .max(scratch.peak_dist_entries());
    }

    /// Folds another gauge set in (sums switch counts, maxes the peaks) —
    /// used to merge per-worker gauges in [`compile_hops`].
    pub fn merge(&mut self, other: &FusedStats) {
        self.switches += other.switches;
        self.max_scratch_nodes = self.max_scratch_nodes.max(other.max_scratch_nodes);
        self.max_scratch_dist_entries = self
            .max_scratch_dist_entries
            .max(other.max_scratch_dist_entries);
    }
}

/// The complete, self-contained inputs of one switch's fused hop compile:
/// the route to compile (scheme + topology step + hop bump) and the
/// failure events to sum out of it afterwards.
///
/// Everything the compiled hop diagram depends on is in here — the
/// routing scheme (via the expanded route), the topology slice, the hop
/// cap, and the failure-spec slice relevant to this switch (its events'
/// probabilities and flags, the budget). `Eq`/`Hash` are structural, so
/// two switches — or the same switch before and after a model delta —
/// compile to identical diagrams **iff** their `HopInputs` compare equal.
/// That makes [`HopInputs::cache_key`] a sound invalidation key for
/// incremental recompilation (`mcnetkat-serve` builds its per-switch
/// diagram cache on exactly this).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HopInputs {
    /// `forward ; sliced topology step ; hop bump`: tests `up` flags,
    /// never writes them.
    pub route: Prog,
    /// The switch's failure events, in [`crate::FailureSpec::hop_program`]'s
    /// draw order.
    pub draws: Vec<FailureEvent>,
    /// The budget counter and its bound `(fl, k)`, on a switch that draws
    /// something under a failure budget.
    pub budget: Option<(Field, u32)>,
}

impl HopInputs {
    /// A 64-bit structural fingerprint of the inputs (a [`std::hash::Hash`]
    /// digest). Stable within a process — which is all an in-memory
    /// diagram cache needs — but not across processes or builds.
    pub fn cache_key(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }
}

/// Assembles switch `s`'s fused hop-compile inputs: `scheme ; topology
/// step ; hop bump` plus the failure events to sum out of it. Pure
/// AST/spec work — no manager involved.
///
/// The topology step is sliced to the `pt` values the switch's route can
/// leave on a forwarded packet, when every non-drop path of the route
/// assigns `pt`; otherwise it keeps an arm for every switch-facing port.
/// The slice is exact — a packet never reaches a dropped arm — and it
/// depends only on `s`'s own route, so the inputs stay a sound
/// per-switch key.
pub fn hop_inputs(model: &NetworkModel, s: NodeId, sp: &ShortestPaths) -> HopInputs {
    let fields = &model.fields;
    let spec = &model.failure;

    // The deterministic part of the hop: route, cross the link, count.
    // The topology step keeps only the arms for the ports the route can
    // write, when it always writes one: a core switch routes down one of
    // its k ports, so the other arms are dead.
    let forward = model.switch_route(s, sp);
    let ports = assigned_values(&forward, fields.pt);
    let mut route = forward.seq(model.topology_step_on(s, ports.as_ref()));
    if let Some(cap) = model.hop_cap {
        route = route.seq(bump_hop_counter(fields, cap));
    }

    let draws = spec.hop_events(fields, model.topo.sw_value(s), &model.prone_ports(s));
    // Only a switch that draws reads the budget, and a failure-free spec's
    // draws never consult it: an edit that flips `is_failure_free` must
    // change no key outside the switches that draw.
    let budget = spec
        .k
        .filter(|_| !draws.is_empty() && !spec.is_failure_free())
        .map(|k| (fields.fl, k));
    HopInputs {
        route,
        draws,
        budget,
    }
}

/// The values `prog` leaves in `field` on every packet it does not drop,
/// or `None` when some such packet may keep the value it came in with.
/// `Some(∅)` means `prog` drops everything. Loops and locals are not
/// looked into (`None`), and filters are assumed to pass, so the set may
/// hold a value no packet carries — never miss one that a packet does.
fn assigned_values(prog: &Prog, field: Field) -> Option<BTreeSet<Value>> {
    type Values = Option<BTreeSet<Value>>;
    fn join(a: Values, b: Values) -> Values {
        let (mut a, b) = (a?, b?);
        a.extend(b);
        Some(a)
    }
    /// The values after `p`, given those before it.
    fn after(p: &Prog, field: Field, before: Values) -> Values {
        match p {
            Prog::Filter(Pred::False) => Some(BTreeSet::new()),
            Prog::Filter(_) => before,
            Prog::Assign(f, v) if *f == field => match before {
                Some(none) if none.is_empty() => Some(none),
                _ => Some(BTreeSet::from([*v])),
            },
            Prog::Assign(..) => before,
            Prog::Seq(a, b) => after(b, field, after(a, field, before)),
            Prog::If(_, a, b) | Prog::Union(a, b) => {
                join(after(a, field, before.clone()), after(b, field, before))
            }
            Prog::Choice(branches) => branches
                .iter()
                .map(|(b, _)| after(b, field, before.clone()))
                .fold(Some(BTreeSet::new()), join),
            Prog::Star(_) | Prog::While(..) | Prog::Local(..) => None,
        }
    }
    after(prog, field, None)
}

/// Compiles one hop's [`HopInputs`] in a fresh scratch manager, eliminates
/// the scratch fields, and imports the (tiny, scratch-free) result into
/// `target`. `stats` records the scratch manager's peak size.
///
/// A one-off: [`compile_hops`] runs the same steps in one scratch manager
/// per worker, cleared between hops, which skips the table growth a fresh
/// manager pays for every hop. Both give the same diagram and the same
/// gauges.
///
/// # Errors
///
/// Propagates [`CompileError`] from the scratch compile.
pub fn compile_hop_import(
    target: &Manager,
    inputs: &HopInputs,
    opts: &CompileOptions,
    stats: &mut FusedStats,
) -> Result<Fdd, CompileError> {
    compile_hop_in(&Manager::new(), target, inputs, opts, stats)
}

/// [`compile_hop_import`] in the caller's scratch manager, which is
/// [cleared](Manager::clear) afterwards, on success and failure alike, so
/// it is ready for the next hop and `stats` sees this hop's peaks alone.
fn compile_hop_in(
    scratch: &Manager,
    target: &Manager,
    inputs: &HopInputs,
    opts: &CompileOptions,
    stats: &mut FusedStats,
) -> Result<Fdd, CompileError> {
    let result = scratch.compile_with(&inputs.route, opts).map(|route| {
        let fdd = sum_scenarios(scratch, route, inputs);
        stats.absorb_scratch(scratch);
        target.import(&scratch.export(fdd))
    });
    scratch.clear();
    result
}

/// Sums the failure events of `inputs` out of its compiled `route`: the
/// diagram of `draw ; route` with every scratch field projected out, where
/// `draw` is the switch's [`crate::FailureSpec::hop_program`]. See the module
/// docs' "The scenario sum".
fn sum_scenarios(mgr: &Manager, route: Fdd, inputs: &HopInputs) -> Fdd {
    let draws = &inputs.draws;
    let one = Ratio::one();
    // Independent single-port draws sum out in one `eliminate` pass; a
    // group's flags fall together, so each group is a two-way mix.
    let singles: Vec<ScratchField> = draws
        .iter()
        .filter(|d| d.ups.len() == 1)
        .map(|d| ScratchField::bernoulli(d.ups[0], &one - &d.pr))
        .collect();
    let unbounded =
        draws
            .iter()
            .filter(|d| d.ups.len() > 1)
            .fold(mgr.eliminate(route, &singles), |hop, d| {
                let up = Some(set_flags(mgr, hop, &d.ups, 1));
                let down = Some(set_flags(mgr, hop, &d.ups, 0));
                let mix = add_scaled(mgr, None, up, &(&one - &d.pr));
                add_scaled(mgr, mix, down, &d.pr).expect("a mix keeps its mass")
            });
    let Some((fl, k)) = inputs.budget else {
        return unbounded;
    };

    // One pass over the events in draw order. `under[f]` holds the
    // scenarios with exactly `f < k` failures so far; `spent[b - 1]` those
    // that used up a budget of `b` failures, whose later events are then
    // forced up. `None` is the zero diagram.
    let mut under: Vec<Option<Fdd>> = vec![None; k as usize];
    let mut spent: Vec<Option<Fdd>> = vec![None; k as usize];
    if let Some(none_failed) = under.first_mut() {
        *none_failed = Some(route);
    }
    let mut all_up = route;
    for d in draws {
        let p_up = &one - &d.pr;
        let fail: Vec<Option<Fdd>> = under
            .iter()
            .map(|x| x.filter(|_| !d.pr.is_zero()))
            .map(|x| x.map(|x| set_flags(mgr, x, &d.ups, 0)))
            .collect();
        for (b, slot) in spent.iter_mut().enumerate() {
            let forced_up = slot.map(|x| set_flags(mgr, x, &d.ups, 1));
            *slot = add_scaled(mgr, forced_up, fail[b], &d.pr);
        }
        for (f, slot) in under.iter_mut().enumerate() {
            let stay_up = slot.map(|x| set_flags(mgr, x, &d.ups, 1));
            let stay_up = add_scaled(mgr, None, stay_up, &p_up);
            *slot = match f.checked_sub(1) {
                None => stay_up,
                Some(g) => add_scaled(mgr, stay_up, fail[g], &d.pr),
            };
        }
        all_up = set_flags(mgr, all_up, &d.ups, 1);
    }

    // A start `fl = v < k` leaves a budget of `k - v`; a failing scenario
    // leaves `fl` at `v` plus its failures.
    let bump = |x: Fdd, to: Value| mgr.seq(x, mgr.leaf(ActionDist::dirac(Action::assign(fl, to))));
    let test = |v: Value| mgr.branch(fl, v, mgr.pass(), mgr.fail());
    let mut hop = mgr.ite(test(k), all_up, unbounded);
    for v in (0..k).rev() {
        let left = (k - v) as usize;
        let mut from_v = under[0];
        for (f, x) in (0..).zip(&under[..left]).skip(1) {
            from_v = add_scaled(mgr, from_v, x.map(|x| bump(x, v + f)), &one);
        }
        from_v = add_scaled(mgr, from_v, spent[left - 1].map(|x| bump(x, k)), &one);
        hop = mgr.ite(test(v), from_v.expect("a start keeps its mass"), hop);
    }
    hop
}

/// `p` with every flag in `ups` fixed to `v`: its tests resolved.
fn set_flags(mgr: &Manager, p: Fdd, ups: &[Field], v: Value) -> Fdd {
    ups.iter().fold(p, |p, &up| mgr.restrict_eq(p, up, v))
}

/// `acc + r·p`, where `None` is the zero diagram and a zero weight adds
/// nothing.
fn add_scaled(mgr: &Manager, acc: Option<Fdd>, p: Option<Fdd>, r: &Ratio) -> Option<Fdd> {
    let Some(p) = p.filter(|_| !r.is_zero()) else {
        return acc;
    };
    let scaled = mgr.scale(p, r);
    Some(acc.map_or(scaled, |a| mgr.sum(a, scaled)))
}

/// Folds per-switch hop diagrams into the global `sw`-case chain, in
/// reverse switch order so the chain tests switches in declaration order
/// (mirroring the legacy `Prog::case`). `hop` supplies each switch's
/// scratch-free diagram — a fresh compile in the batch pipeline, a cache
/// lookup in an incremental engine.
///
/// # Errors
///
/// Propagates the first error `hop` returns.
pub fn assemble_chain(
    mgr: &Manager,
    model: &NetworkModel,
    mut hop: impl FnMut(NodeId) -> Result<Fdd, CompileError>,
) -> Result<Fdd, CompileError> {
    let mut body = mgr.fail();
    for &s in model.topo.switches().iter().rev() {
        let fdd = hop(s)?;
        let test = mgr.branch(
            model.fields.sw,
            model.topo.sw_value(s),
            mgr.pass(),
            mgr.fail(),
        );
        body = mgr.ite(test, fdd, body);
    }
    Ok(body)
}

/// Compiles every input's scratch-free hop ([`compile_hop_import`]) and
/// imports it into `mgr`, returning the diagrams in input order. `stats`
/// gains one switch per input.
///
/// With `workers <= 1` the hops compile inline in one scratch manager,
/// [cleared](Manager::clear) after every hop. Otherwise the inputs split
/// into contiguous chunks on `std::thread::scope` workers, each compiling
/// its hops in its own cleared-and-reused scratch manager, importing them
/// into a private manager and shipping them back as one multi-root
/// [`FddExport`]; `mgr` imports the chunks in order. Either way `stats`
/// records per-switch peaks, as with [`compile_hop_import`]. A worker
/// panic becomes [`CompileError::WorkerPanicked`], and any worker failure
/// cancels its siblings through a child of the caller's [`CancelToken`]
/// (the caller's own token never fires). Every worker is joined before
/// this returns.
///
/// # Errors
///
/// The first real [`CompileError`] any hop raises (a sibling's
/// consequent `Cancelled` never masks it), or a budget trip.
pub fn compile_hops(
    mgr: &Manager,
    inputs: &[HopInputs],
    workers: usize,
    opts: &CompileOptions,
    stats: &mut FusedStats,
) -> Result<Vec<Fdd>, CompileError> {
    if workers <= 1 || inputs.is_empty() {
        let scratch = Manager::new();
        return inputs
            .iter()
            .map(|inp| {
                // Per-hop budget checkpoint: deadline/cancellation aborts
                // land at switch granularity even before the per-op
                // governor notices.
                opts.budget.check_external()?;
                compile_hop_in(&scratch, mgr, inp, opts, stats)
            })
            .collect();
    }

    let abort = opts
        .budget
        .cancel
        .as_ref()
        .map_or_else(CancelToken::new, CancelToken::child);
    let worker_opts = CompileOptions {
        budget: opts.budget.clone().with_cancel(abort.clone()),
        ..opts.clone()
    };
    let chunk = inputs.len().div_ceil(workers);
    let mut parts: Vec<(FddExport, FusedStats)> = Vec::with_capacity(workers);
    let mut first_err: Option<CompileError> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .chunks(chunk)
            .map(|work| {
                let (abort, opts) = (&abort, &worker_opts);
                scope.spawn(move || {
                    let result = contain_panics(|| compile_chunk(work, opts));
                    if result.is_err() {
                        // Fail fast: siblings see the cancellation at their
                        // next checkpoint, not after finishing their chunk.
                        abort.cancel();
                    }
                    result
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(Ok(part)) => parts.push(part),
                Ok(Err(e)) => note_error(&mut first_err, e),
                // Unreachable in practice (`contain_panics` already caught
                // inside the worker), kept so a join failure can never
                // poison the scope.
                Err(payload) => note_error(
                    &mut first_err,
                    CompileError::WorkerPanicked {
                        payload: payload_string(payload.as_ref()),
                    },
                ),
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    opts.budget.check_external()?;
    let mut hops = Vec::with_capacity(inputs.len());
    for (part, worker_stats) in &parts {
        hops.extend(mgr.import_all(part));
        stats.merge(worker_stats);
    }
    Ok(hops)
}

/// One pool worker's share of [`compile_hops`]: its chunk's hops, compiled
/// into a private manager and exported together.
fn compile_chunk(
    work: &[HopInputs],
    opts: &CompileOptions,
) -> Result<(FddExport, FusedStats), CompileError> {
    let local = Manager::new();
    let scratch = Manager::new();
    let mut stats = FusedStats::default();
    let mut hops = Vec::with_capacity(work.len());
    for inp in work {
        #[cfg(feature = "failpoints")]
        mcnetkat_fdd::failpoints::check_compile("net::parallel::worker")?;
        opts.budget.check_external()?;
        hops.push(compile_hop_in(&scratch, &local, inp, opts, &mut stats)?);
    }
    Ok((local.export_all(&hops), stats))
}

/// Renders a caught panic payload for [`CompileError::WorkerPanicked`].
fn payload_string(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Error-precedence accumulator for fan-in joins: the first *real* error
/// wins; [`CompileError::Cancelled`] only sticks when nothing better
/// arrives, because sibling workers are cancelled *as a consequence* of
/// the first failure and their cancellation must not mask its cause.
fn note_error(slot: &mut Option<CompileError>, e: CompileError) {
    match slot {
        None => *slot = Some(e),
        Some(CompileError::Cancelled) if !matches!(e, CompileError::Cancelled) => *slot = Some(e),
        Some(_) => {}
    }
}

/// Runs `f`, converting any panic into [`CompileError::WorkerPanicked`]
/// so a fan-out phase degrades into a typed error instead of tearing the
/// process down. The default panic hook still reports the panic site to
/// stderr, which is exactly what a postmortem wants.
fn contain_panics<T>(f: impl FnOnce() -> Result<T, CompileError>) -> Result<T, CompileError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(CompileError::WorkerPanicked {
            payload: payload_string(payload.as_ref()),
        }),
    }
}

/// The cold compile of the whole model, the parallelising backend of §6
/// ("Parallel speedup"): key every switch, compile every hop with
/// [`compile_hops`] on `workers` threads (each with a private manager,
/// mirroring the paper's per-process workers), fold the `sw`-case chain
/// and finish with [`assemble_model`]. Returns the diagram in `mgr`.
///
/// With `workers == 1` the hops compile inline; that is
/// [`NetworkModel::compile_with`], the baseline for speedup measurements.
/// `opts` governs every compile performed by this function, on worker
/// threads and in `mgr` alike. The `while` solve goes through
/// [`Manager::while_loop`], so repeated loops across models sharing a
/// manager hit the loop-solution cache.
///
/// # Errors
///
/// Propagates the first [`CompileError`] raised by any worker.
pub fn compile_model_parallel(
    mgr: &Manager,
    model: &NetworkModel,
    workers: usize,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let switches = model.topo.switches();
    let inputs: Vec<HopInputs> = switches
        .iter()
        .map(|&s| hop_inputs(model, s, &sp))
        .collect();
    let hops = compile_hops(mgr, &inputs, workers, opts, &mut FusedStats::default())?;
    drop(inputs); // the hop ASTs are dead weight during the loop solve
    let by_switch: HashMap<NodeId, Fdd> = switches.iter().copied().zip(hops).collect();
    let body = assemble_chain(mgr, model, |s| Ok(by_switch[&s]))?;
    let fdd = assemble_model(mgr, model, body, opts)?;
    #[cfg(feature = "audit")]
    audit_compiled_model(mgr, model, fdd);
    Ok(fdd)
}

/// The `audit` feature's post-compile verification, run on every model
/// diagram a cold compile or an incremental patch returns: the manager's
/// node and interning tables pass [`Manager::audit`], and the compiled
/// model mentions no scratch field — `up_i`/`grp_j` must not survive
/// elimination, whatever the failure spec.
///
/// # Panics
///
/// Panics on any audit violation or surviving scratch-field test.
#[cfg(feature = "audit")]
pub fn audit_compiled_model(mgr: &Manager, model: &NetworkModel, fdd: Fdd) {
    mgr.audit().assert_clean();
    let dom = mgr.domain(fdd);
    for &f in model.fields.ups().iter().chain(model.fields.grps()) {
        assert!(
            !dom.tested.contains_key(&f),
            "compiled model diagram tests scratch field {f} — elimination failed to strip it"
        );
    }
}

/// The sequential tail every compile shares: loop solve, then
/// [`assemble_tail`], given an already-assembled loop-body diagram.
///
/// In the incremental engine, after a model delta recompiles only the
/// invalidated switches and re-folds the `sw`-case chain
/// ([`assemble_chain`]), this tail finishes the model. An unchanged
/// chain body hits the manager's `while`-loop solution cache, so the loop
/// solve itself is also incremental.
///
/// # Errors
///
/// Propagates [`CompileError`] from the loop solve and the tail compiles.
pub fn assemble_model(
    mgr: &Manager,
    model: &NetworkModel,
    body: Fdd,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    let guard = mgr.compile_pred(&model.guard());
    let loop_fdd = mgr.while_loop(guard, body, opts)?;
    assemble_tail(mgr, model, body, loop_fdd, opts)
}

/// Everything after the loop solve: ingress filter, arrival-port
/// normalisation and the local-variable wrappers around the solved loop
/// `loop_fdd` (= `while g do body`).
///
/// The model runs `in ; do body while g`. Rather than composing
/// `body ; loop` as a whole diagram, the tail uses the do-while law:
/// since `while g do b = if g then (b ; while g do b) else skip`,
///
/// ```text
///   in ; b ; while g do b = (in ∧ g) ; while g do b + (in ∧ ¬g) ; b ; while g do b
/// ```
///
/// and the two summands are disjoint, so the sum is an `ite` on `in ∧ g`.
/// The second summand is built only when `in ∧ ¬g` is satisfiable. Every
/// fat tree's ingress excludes the destination while `g` is `sw ≠ dst`,
/// so there it is empty; it is non-empty only for a degenerate topology
/// whose fallback ingress is the destination. Every other step is a
/// `seq` with a filter on the left or an assignment leaf on the right,
/// which [`Manager::seq`] answers by its fast paths.
///
/// # Errors
///
/// Propagates [`CompileError`] from the tail compiles.
pub fn assemble_tail(
    mgr: &Manager,
    model: &NetworkModel,
    body: Fdd,
    loop_fdd: Fdd,
    opts: &CompileOptions,
) -> Result<Fdd, CompileError> {
    let guard = mgr.compile_pred(&model.guard());
    let ingress = mgr.compile_pred(&model.ingress_pred());
    let fail = mgr.fail();
    let in_and_g = mgr.ite(ingress, guard, fail);
    let in_not_g = mgr.ite(guard, fail, ingress);
    let unrolled = if in_not_g == fail {
        fail
    } else {
        let do_while = mgr.seq(body, loop_fdd);
        mgr.seq(in_not_g, do_while)
    };
    let with_in = mgr.ite(in_and_g, loop_fdd, unrolled);
    let normalise = mgr.compile_with(&Prog::assign(model.fields.pt, 0), opts)?;
    let core = mgr.seq(with_in, normalise);

    let (pre, post) = local_wrappers(model);
    let pre_fdd = mgr.compile_with(&pre, opts)?;
    let post_fdd = mgr.compile_with(&post, opts)?;
    let tmp = mgr.seq(core, post_fdd);
    Ok(mgr.seq(pre_fdd, tmp))
}

/// The local-variable wrappers of [`NetworkModel::program`] as explicit
/// pre/post assignment sequences (enter assignments before, erasures
/// after).
pub(crate) fn local_wrappers(model: &NetworkModel) -> (Prog, Prog) {
    let mut pre = Vec::new();
    let mut post = Vec::new();
    for i in 1..=model.topo.max_degree() as u32 {
        pre.push(Prog::assign(model.fields.up(i), 1));
        post.push(Prog::assign(model.fields.up(i), 0));
    }
    if model.failure.k.is_some() && !model.failure.is_failure_free() {
        pre.push(Prog::assign(model.fields.fl, 0));
        post.push(Prog::assign(model.fields.fl, 0));
    }
    pre.push(Prog::assign(model.fields.dt, 0));
    post.push(Prog::assign(model.fields.dt, 0));
    (Prog::seq_all(pre), Prog::seq_all(post))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureSpec, RoutingScheme, Srlg};
    use mcnetkat_topo::ab_fattree;

    fn mk(scheme: RoutingScheme, failure: FailureSpec) -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(topo, dst, scheme, failure)
    }

    #[test]
    fn fused_matches_legacy_unbounded() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_bounded() {
        let m = mk(
            RoutingScheme::F10_3_5,
            FailureSpec::bounded(Ratio::new(1, 10), 2),
        );
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_failure_free() {
        let m = mk(RoutingScheme::Ecmp, FailureSpec::none());
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn fused_matches_legacy_srlg_unbounded() {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let pr = Ratio::new(1, 50);
        let spec = FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr));
        let m = NetworkModel::new(topo, dst, RoutingScheme::F10_3, spec);
        let mgr = Manager::new();
        let legacy = m.compile_legacy(&mgr).unwrap();
        let fused = m.compile(&mgr).unwrap();
        assert!(mgr.equiv(fused, legacy));
    }

    #[test]
    fn compile_hops_returns_input_order_for_any_worker_count() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let mut every = every_hop(&m);
        every.push(every[3].clone());
        let cases: [&[HopInputs]; 3] = [&[], &every[..1], &every];
        let opts = CompileOptions::default();
        let mgr = Manager::new();
        for inputs in cases {
            let reference: Vec<Fdd> = inputs
                .iter()
                .map(|inp| compile_hop_import(&mgr, inp, &opts, &mut FusedStats::default()))
                .collect::<Result<_, _>>()
                .unwrap();
            for workers in [1, 2, 3, 7] {
                let mut stats = FusedStats::default();
                let hops = compile_hops(&mgr, inputs, workers, &opts, &mut stats).unwrap();
                assert_eq!(hops.len(), inputs.len(), "workers = {workers}");
                assert_eq!(stats.switches, inputs.len(), "workers = {workers}");
                for (i, (&hop, &want)) in hops.iter().zip(&reference).enumerate() {
                    assert!(mgr.equiv(hop, want), "workers = {workers}, input {i}");
                }
            }
        }
    }

    /// Every switch's [`HopInputs`], in switch order.
    fn every_hop(m: &NetworkModel) -> Vec<HopInputs> {
        let sp = ShortestPaths::towards(&m.topo, m.dst);
        m.topo
            .switches()
            .iter()
            .map(|&s| hop_inputs(m, s, &sp))
            .collect()
    }

    #[test]
    fn fused_scratch_stats_are_per_switch_sized() {
        let m = mk(
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 1000)),
        );
        let opts = CompileOptions::default();
        let mgr = Manager::new();
        let fdd = compile_model_parallel(&mgr, &m, 1, &opts).unwrap();
        // The compiled diagram mentions no scratch field.
        let dom = mgr.domain(fdd);
        for up in m.fields.ups() {
            assert!(!dom.tested.contains_key(up));
        }
        // The reused scratch manager is cleared between switches, so its
        // peaks are the largest single switch's: the same as from a fresh
        // manager per switch, inline or on workers.
        let inputs = every_hop(&m);
        let (mut nodes, mut dists) = (0, 0);
        for inp in &inputs {
            let mut one = FusedStats::default();
            compile_hop_import(&Manager::new(), inp, &opts, &mut one).unwrap();
            nodes = nodes.max(one.max_scratch_nodes);
            dists = dists.max(one.max_scratch_dist_entries);
        }
        for workers in [1, 2] {
            let mut stats = FusedStats::default();
            compile_hops(&Manager::new(), &inputs, workers, &opts, &mut stats).unwrap();
            assert_eq!(stats.switches, m.topo.switches().len());
            assert_eq!(stats.max_scratch_nodes, nodes, "workers = {workers}");
            assert_eq!(stats.max_scratch_dist_entries, dists, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_stats_cover_every_switch() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let opts = CompileOptions::default();
        let mgr = Manager::new();
        let mut stats = FusedStats::default();
        let hops = compile_hops(&mgr, &every_hop(&m), 3, &opts, &mut stats).unwrap();
        assert_eq!(stats.switches, m.topo.switches().len());
        assert!(stats.max_scratch_nodes > 0);
        let by_switch: HashMap<NodeId, Fdd> = m.topo.switches().iter().copied().zip(hops).collect();
        let body = assemble_chain(&mgr, &m, |s| Ok(by_switch[&s])).unwrap();
        let fdd = assemble_model(&mgr, &m, body, &opts).unwrap();
        assert!(mgr.equiv(fdd, m.compile(&mgr).unwrap()));
    }

    #[test]
    fn parallel_respects_state_limit_like_sequential() {
        // Regression: workers used to compile with `CompileOptions::default()`
        // regardless of the caller's options. A tiny state limit must make
        // the parallel path fail with the same error as the sequential one.
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let opts = CompileOptions {
            state_limit: 4,
            ..CompileOptions::default()
        };
        let mgr = Manager::new();
        let seq_err = m.compile_with(&mgr, &opts).unwrap_err();
        assert!(
            matches!(seq_err, CompileError::StateSpaceTooLarge { .. }),
            "sequential: {seq_err}"
        );
        for workers in [1, 4] {
            let par_err = compile_model_parallel(&mgr, &m, workers, &opts).unwrap_err();
            assert!(
                matches!(par_err, CompileError::StateSpaceTooLarge { .. }),
                "workers = {workers}: {par_err}"
            );
        }
    }

    #[test]
    fn parallel_loop_solutions_hit_the_cache_on_recompile() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let mgr = Manager::new();
        let first = compile_model_parallel(&mgr, &m, 2, &Default::default()).unwrap();
        let misses_after_first = mgr.while_cache_stats().misses;
        let second = compile_model_parallel(&mgr, &m, 3, &Default::default()).unwrap();
        assert!(mgr.equiv(first, second));
        let stats = mgr.while_cache_stats();
        assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
        assert_eq!(stats.misses, misses_after_first, "no new loop solves");
    }

    #[test]
    fn a_failed_hop_leaves_the_reused_scratch_manager_clear() {
        let m = mk(
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let sp = ShortestPaths::towards(&m.topo, m.dst);
        let inputs = hop_inputs(&m, m.topo.switches()[0], &sp);
        let scratch = Manager::new();
        let cancelled = CompileOptions {
            budget: mcnetkat_fdd::Budget::unlimited().with_cancel({
                let token = CancelToken::new();
                token.cancel();
                token
            }),
            ..CompileOptions::default()
        };
        let target = Manager::new();
        let mut stats = FusedStats::default();
        assert!(compile_hop_in(&scratch, &target, &inputs, &cancelled, &mut stats).is_err());
        assert_eq!(scratch.node_count(), 0);
        assert_eq!(stats.switches, 0);
        let opts = CompileOptions::default();
        let got = compile_hop_in(&scratch, &target, &inputs, &opts, &mut stats).unwrap();
        let want = compile_hop_import(&target, &inputs, &opts, &mut FusedStats::default());
        assert_eq!(got, want.unwrap());
        assert_eq!(scratch.node_count(), 0);
    }

    #[test]
    fn assigned_values_tracks_every_forwarding_path() {
        let (f, g) = (Field::named("fused_av_f"), Field::named("fused_av_g"));
        let set = |vs: &[Value]| Some(vs.iter().copied().collect::<BTreeSet<_>>());
        let pick = |v| Prog::assign(f, v);
        assert_eq!(assigned_values(&Prog::drop(), f), set(&[]));
        assert_eq!(assigned_values(&Prog::skip(), f), None);
        assert_eq!(assigned_values(&pick(3), f), set(&[3]));
        assert_eq!(assigned_values(&Prog::assign(g, 3), f), None);
        // The last write wins; a write after a drop forwards nothing.
        assert_eq!(assigned_values(&pick(1).seq(pick(2)), f), set(&[2]));
        assert_eq!(
            assigned_values(&Prog::Seq(Prog::drop().into(), pick(2).into()), f),
            set(&[])
        );
        let test = Pred::test(g, 1);
        let uniform = Prog::uniform(vec![pick(1), pick(4)]);
        let branchy = Prog::ite(test.clone(), uniform.clone(), pick(2));
        assert_eq!(assigned_values(&branchy, f), set(&[1, 2, 4]));
        // A dropping branch adds nothing; a passing one loses the set.
        let partial = Prog::ite(test.clone(), uniform.clone(), Prog::drop());
        assert_eq!(assigned_values(&partial, f), set(&[1, 4]));
        let leaky = Prog::ite(test.clone(), uniform.clone(), Prog::assign(g, 0));
        assert_eq!(assigned_values(&leaky, f), None);
        // Filters are assumed to pass; loops and locals are not looked into.
        assert_eq!(
            assigned_values(&Prog::filter(test.clone()).seq(pick(5)), f),
            set(&[5])
        );
        assert_eq!(assigned_values(&Prog::while_(test, pick(1)), f), None);
        assert_eq!(assigned_values(&Prog::local(g, 1, pick(1)), f), None);
        // An assignment after an opaque part still fixes the value.
        assert_eq!(
            assigned_values(&Prog::local(g, 1, pick(1)).seq(pick(6)), f),
            set(&[6])
        );
    }

    #[test]
    fn hop_inputs_keep_only_the_topology_arms_the_route_can_take() {
        let m = mk(
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 10)),
        );
        let sp = ShortestPaths::towards(&m.topo, m.dst);
        let core = m.topo.find("core0").unwrap();
        let forward = m.switch_route(core, &sp);
        let ports = assigned_values(&forward, m.fields.pt).unwrap();
        assert_eq!(ports.len(), 1, "a core switch routes down one port");
        assert_ne!(
            m.topology_step_on(core, Some(&ports)),
            m.topology_step(core)
        );
        // The destination's route is `drop`: no arm survives.
        let at_dst = m.switch_route(m.dst, &sp);
        let none = assigned_values(&at_dst, m.fields.pt).unwrap();
        assert!(none.is_empty());
        assert_eq!(m.topology_step_on(m.dst, Some(&none)), Prog::drop());
    }
}

//! The engine: loaded models, the per-switch hop cache, and the
//! operations that change them (load, apply, unload, recover).
//!
//! This module owns every [`Fdd`] handle the engine keeps: each loaded
//! model's diagram, its per-switch hop map and its cached teleport
//! specification (`Engine::models`), and the hop cache (`Engine::hops`).
//! Other modules reach them only through methods here, so a manager
//! compaction that renumbers nodes has one module to remap.

use crate::journal::{self, JournalError, Record, RecoveryError};
use crate::stats::{percentiles, ApplyPhases, DeltaReport, EngineStats, LatencyRing, Rekey};
use crate::{Delta, EngineError, ModelId, Touched};
use mcnetkat_fdd::{Budget, CompileOptions, Fdd, Manager};
use mcnetkat_net::fused::{
    assemble_chain, assemble_tail, compile_hops, hop_inputs, FusedStats, HopInputs,
};
use mcnetkat_net::{ModelDescription, NetworkModel, Queries};
use mcnetkat_topo::{NodeId, ShortestPaths};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

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
    /// When set, at most this many queries run at once; excess queries
    /// are shed at admission with [`EngineError::Overloaded`] instead of
    /// queueing without bound. [`Engine::query_batch`] also caps its
    /// worker fan-out here (its own requests queue rather than shed).
    /// Unset means no gate (every caller thread runs).
    pub max_concurrent_queries: Option<usize>,
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
    pub(crate) queries: AtomicU64,
    pub(crate) latencies_ns: Mutex<LatencyRing>,
    // Durability: the write-ahead journal (None for an in-memory-only
    // engine) and how many times this state was rebuilt by recovery.
    journal: Option<journal::JournalWriter>,
    recoveries: u64,
    // Overload tolerance: the admission gate and its gauges.
    pub(crate) max_concurrent_queries: Option<usize>,
    pub(crate) active_queries: AtomicUsize,
    pub(crate) queries_shed: AtomicU64,
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
        Engine {
            mgr: Manager::new(),
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
            journal: None,
            recoveries: 0,
            max_concurrent_queries: config.max_concurrent_queries,
            active_queries: AtomicUsize::new(0),
            queries_shed: AtomicU64::new(0),
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
                engine.load_as(ModelId(*id), model).map_err(|e| {
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
                        .load_as(ModelId(*id), model)
                        .map_err(|e| fail(e.to_string()))?;
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
        self.load_as(id, model)?;
        Ok(id)
    }

    /// The one load path: compiles `model` through the per-switch cache,
    /// journals its record (a no-op while recovery replays without a
    /// writer), and installs it under `id`, which must be free.
    fn load_as(&mut self, id: ModelId, model: NetworkModel) -> Result<(), EngineError> {
        if self.models.contains_key(&id) {
            return Err(EngineError::InvalidDelta(format!(
                "model id {id} is already loaded"
            )));
        }
        let patch = self.compile_incremental(&model, &Touched::All, &SwitchHops::new())?;
        self.journal_append(&Record::Load {
            id: id.0,
            desc: ModelDescription::of(&model),
        })?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.models.insert(id, ModelEntry::new(model, patch));
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
        let entry = self.models.remove(&id).expect("presence checked above");
        let live: HashSet<&HopInputs> = self.models.values().flat_map(ModelEntry::inputs).collect();
        for inp in entry.inputs() {
            if !live.contains(inp) && self.hops.remove(inp).is_some() {
                self.hop_cache_evictions += 1;
            }
        }
        Ok(())
    }

    /// The current model behind a handle.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] if `id` is not loaded.
    pub fn model(&self, id: ModelId) -> Result<&NetworkModel, EngineError> {
        Ok(&self.entry(id)?.model)
    }

    /// The model's current compiled diagram (a handle into
    /// [`Engine::manager`]).
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownModel`] if `id` is not loaded.
    pub fn fdd(&self, id: ModelId) -> Result<Fdd, EngineError> {
        Ok(self.entry(id)?.fdd)
    }

    fn entry(&self, id: ModelId) -> Result<&ModelEntry, EngineError> {
        self.models.get(&id).ok_or(EngineError::UnknownModel(id))
    }

    /// The query view of `id`'s current model and diagram.
    pub(crate) fn queries_of(&self, id: ModelId) -> Result<Queries<'_>, EngineError> {
        let entry = self.entry(id)?;
        Ok(Queries::from_fdd(&self.mgr, &entry.model, entry.fdd))
    }

    /// `id`'s compiled teleport specification
    /// ([`NetworkModel::teleport`]): compiled under `budget` on first use
    /// and cached in the entry only once the compile succeeds, so a
    /// tripped budget never leaves a truncated diagram behind.
    pub(crate) fn teleport(&self, id: ModelId, budget: &Budget) -> Result<Fdd, EngineError> {
        let entry = self.entry(id)?;
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

    /// Whether `id`'s teleport specification is compiled and cached.
    #[cfg(test)]
    pub(crate) fn teleport_cached(&self, id: ModelId) -> bool {
        self.models[&id].teleport.get().is_some()
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
        let entry = self.entry(id)?;
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
        let entry = self.entry(id)?;
        let cold_mgr = Manager::new();
        let cold = entry.model.compile_with(&cold_mgr, &self.opts)?;
        let imported = self.mgr.import(&cold_mgr.export(cold));
        Ok(self.mgr.equiv(entry.fdd, imported))
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
            hop_cache_evictions: self.hop_cache_evictions,
        }
    }

    /// Drops every cached per-switch diagram not referenced by a loaded
    /// model's current inputs, returning how many were evicted: releases
    /// diagrams (and the manager nodes they pin) after a burst of one-off
    /// deltas. A server that bounds the cache calls it whenever
    /// [`EngineStats::hop_cache_entries`] grows past its limit.
    pub fn trim_hop_cache(&mut self) -> usize {
        let live: HashSet<&HopInputs> = self.models.values().flat_map(ModelEntry::inputs).collect();
        let before = self.hops.len();
        self.hops.retain(|inp, _| live.contains(inp));
        let evicted = before - self.hops.len();
        self.hop_cache_evictions += evicted as u64;
        evicted
    }
}

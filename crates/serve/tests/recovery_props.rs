//! Crash-recovery differential tests: an engine rebuilt from its
//! write-ahead journal (and optional snapshot) must be *the same engine*
//! — byte-identical model descriptions, `equiv` diagrams (recovery
//! re-verifies every model against a cold compile before returning), and
//! preserved delta accounting — no matter where the crash cut the
//! journal: at a record boundary or inside a record. A crash after a
//! record and before its swap replays the record.

use mcnetkat_net::{
    down_ports, Codec, FailureSpec, ModelDescription, NetworkModel, RoutingScheme, Srlg,
};
use mcnetkat_num::Ratio;
use mcnetkat_serve::journal::{self, JournalWriter, Record, RecoveryError};
use mcnetkat_serve::{Delta, Engine, EngineConfig, EngineError, Query, QueryRequest};
use mcnetkat_topo::ab_fattree;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const SCHEMES: [RoutingScheme; 3] = [
    RoutingScheme::Ecmp,
    RoutingScheme::F10_3,
    RoutingScheme::F10_3_5,
];

fn pr_pool(i: u8) -> Ratio {
    match i % 4 {
        0 => Ratio::zero(),
        1 => Ratio::new(1, 100),
        2 => Ratio::new(1, 10),
        _ => Ratio::new(1, 4),
    }
}

/// A fresh durability directory under the system temp dir.
fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "mcnetkat-recovery-{}-{tag}-{n}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir).ok();
}

fn base_model() -> NetworkModel {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 100)),
    )
}

/// The identity that matters across processes: the model's encoded
/// description (topology round-trips adjacency-exactly, so byte equality
/// is full structural equality).
fn desc_bytes(engine: &Engine, id: mcnetkat_serve::ModelId) -> Vec<u8> {
    ModelDescription::of(engine.model(id).expect("model loaded")).to_bytes()
}

/// Abstract deltas, concretized against the current model (a trimmed
/// copy of the incremental-props generator: enough variants to cover
/// patches, structural rebuilds, group churn, and the rejection path).
#[derive(Clone, Debug)]
enum Desc {
    Scheme(u8),
    SwitchScheme(usize, u8),
    UniformPr(u8),
    LinkPr(usize, u8),
    AddGroup(usize, u8),
    RemoveGroup(usize),
    HopCap(u8),
    Budget(u8),
    Dst(usize),
}

fn arb_desc() -> impl Strategy<Value = Desc> {
    prop_oneof![
        (0..3u8).prop_map(Desc::Scheme),
        (0..64usize, 0..3u8).prop_map(|(s, c)| Desc::SwitchScheme(s, c)),
        (0..4u8).prop_map(Desc::UniformPr),
        (0..8usize, 0..4u8).prop_map(|(p, r)| Desc::LinkPr(p, r)),
        (0..64usize, 1..4u8).prop_map(|(s, r)| Desc::AddGroup(s, r)),
        (0..4usize).prop_map(Desc::RemoveGroup),
        (0..3u8).prop_map(Desc::HopCap),
        (0..2u8).prop_map(Desc::Budget),
        (0..64usize).prop_map(Desc::Dst),
    ]
}

fn concretize(d: &Desc, model: &NetworkModel) -> Delta {
    let switches = model.topo.switches();
    let pick_switch = |i: usize| switches[i % switches.len()];
    let prone: Vec<u32> = {
        let mut ports: Vec<u32> = switches
            .iter()
            .flat_map(|&s| down_ports(&model.topo, s))
            .collect();
        ports.sort_unstable();
        ports.dedup();
        ports
    };
    let pick_group_name = |i: usize| -> String {
        if model.failure.groups.is_empty() || i >= model.failure.groups.len() {
            "absent".to_string()
        } else {
            model.failure.groups[i].name.clone()
        }
    };
    match d {
        Desc::Scheme(c) => Delta::SetScheme(SCHEMES[*c as usize % SCHEMES.len()]),
        Desc::SwitchScheme(s, c) => {
            Delta::SetSwitchScheme(pick_switch(*s), SCHEMES[*c as usize % SCHEMES.len()])
        }
        Desc::UniformPr(r) => Delta::SetUniformPr(pr_pool(*r)),
        Desc::LinkPr(p, r) => Delta::SetLinkPr(prone[p % prone.len()], pr_pool(*r)),
        Desc::AddGroup(s, r) => {
            let node = pick_switch(*s);
            let mut g = Srlg::down_links_of(&model.topo, node, pr_pool(*r));
            g.name = format!("grp_{}", model.topo.info(node).name);
            Delta::AddGroup(g)
        }
        Desc::RemoveGroup(g) => Delta::RemoveGroup(pick_group_name(*g)),
        Desc::HopCap(c) => Delta::SetHopCap([None, Some(8), Some(16)][*c as usize % 3]),
        Desc::Budget(b) => Delta::SetBudget([None, Some(1)][*b as usize % 2]),
        Desc::Dst(s) => Delta::SetDst(pick_switch(*s)),
    }
}

/// Applies `descs` on a journaled engine, recording the journal offset,
/// description bytes, and accounting after the load and after every
/// *successful* apply, and checking that each successful operation
/// journals one record and each rejected one none. Returns the
/// per-prefix history.
struct History {
    id: mcnetkat_serve::ModelId,
    /// `journal_bytes` after each durable prefix (index 0 = just the
    /// load).
    offsets: Vec<u64>,
    /// Encoded model description after each durable prefix.
    descs: Vec<Vec<u8>>,
    /// `(deltas_applied, switches_changed, full_rebuilds)` after each
    /// durable prefix.
    counters: Vec<(u64, u64, u64)>,
}

fn run_history(dir: &Path, descs: &[Desc]) -> Result<History, TestCaseError> {
    let mut engine = Engine::with_journal(EngineConfig::default(), dir)
        .map_err(|e| TestCaseError::Fail(format!("with_journal: {e}")))?;
    let id = engine
        .load(base_model())
        .map_err(|e| TestCaseError::Fail(format!("load: {e}")))?;
    let mut h = History {
        id,
        offsets: vec![engine.stats().journal_bytes],
        descs: vec![desc_bytes(&engine, id)],
        counters: vec![(0, 0, 0)],
    };
    prop_assert_eq!(engine.stats().journal_records, 1, "one record per load");
    for d in descs {
        let delta = concretize(d, engine.model(id).unwrap());
        let records_before = engine.stats().journal_records;
        match engine.apply(id, delta) {
            Ok(_) => {
                let s = engine.stats();
                prop_assert_eq!(s.journal_records, records_before + 1);
                h.offsets.push(s.journal_bytes);
                h.descs.push(desc_bytes(&engine, id));
                h.counters
                    .push((s.deltas_applied, s.switches_changed, s.full_rebuilds));
            }
            // Invalid deltas are rejected before the journal sees them.
            Err(EngineError::InvalidDelta(_)) => {
                prop_assert_eq!(engine.stats().journal_records, records_before);
            }
            Err(e) => return Err(TestCaseError::Fail(format!("apply: {e}"))),
        }
    }
    Ok(h)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Clean-shutdown differential: recovery from the full journal is
    /// the survivor — same description bytes, same accounting, and
    /// `recover` itself re-verified the diagram against a cold compile.
    #[test]
    fn recovered_engine_equals_survivor(descs in vec(arb_desc(), 1..5)) {
        let dir = tmp_dir("clean");
        let h = run_history(&dir, &descs)?;
        let (rec, report) = Engine::recover(EngineConfig::default(), &dir)
            .map_err(|e| TestCaseError::Fail(format!("recover: {e}")))?;
        prop_assert_eq!(&desc_bytes(&rec, h.id), h.descs.last().unwrap());
        let s = rec.stats();
        let &(applied, changed, rebuilds) = h.counters.last().unwrap();
        prop_assert_eq!(s.deltas_applied, applied);
        prop_assert_eq!(s.switches_changed, changed);
        prop_assert_eq!(s.full_rebuilds, rebuilds);
        prop_assert_eq!(s.recoveries, 1);
        prop_assert_eq!(report.records_replayed, applied + 1, "load + each delta");
        prop_assert_eq!(report.truncated_bytes, 0);
        // The recovered engine still verifies and still answers.
        prop_assert!(rec.verify_against_cold(h.id).unwrap());
        cleanup(&dir);
    }

    /// Kill-after-random-prefix differential: truncate the journal at a
    /// random byte — a clean record boundary or anywhere inside the next
    /// prefix's records (a torn write) — and recovery must equal the
    /// survivor of exactly the durable prefix, accounting included.
    #[test]
    fn recovery_from_random_kill_point(
        descs in vec(arb_desc(), 1..5),
        kill_seed in 0..1024usize,
        tear_seed in 0..1024u64,
    ) {
        let dir = tmp_dir("kill");
        let h = run_history(&dir, &descs)?;
        // Pick the prefix that survives, and a cut inside the records of
        // the next apply (or exactly at the boundary).
        let k = kill_seed % h.offsets.len();
        let cut = if k + 1 < h.offsets.len() {
            h.offsets[k] + tear_seed % (h.offsets[k + 1] - h.offsets[k])
        } else {
            h.offsets[k]
        };
        let journal = dir.join(mcnetkat_serve::journal::JOURNAL_FILE);
        let f = std::fs::OpenOptions::new().write(true).open(&journal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (rec, _) = Engine::recover(EngineConfig::default(), &dir)
            .map_err(|e| TestCaseError::Fail(format!("recover after cut: {e}")))?;
        prop_assert_eq!(&desc_bytes(&rec, h.id), &h.descs[k], "prefix {}", k);
        let s = rec.stats();
        prop_assert_eq!(s.deltas_applied, h.counters[k].0);
        prop_assert_eq!(s.switches_changed, h.counters[k].1);
        prop_assert_eq!(s.full_rebuilds, h.counters[k].2);
        prop_assert!(rec.verify_against_cold(h.id).unwrap());
        // The recovered engine keeps working: a fresh delta applies,
        // journals, and still matches a cold compile.
        let mut rec = rec;
        rec.apply(h.id, Delta::SetHopCap(Some(12))).unwrap();
        prop_assert!(rec.verify_against_cold(h.id).unwrap());
        cleanup(&dir);
    }
}

#[test]
fn snapshot_bounds_replay_and_preserves_accounting() {
    let dir = tmp_dir("snapshot");
    let snap_path = dir.join(mcnetkat_serve::journal::SNAPSHOT_FILE);
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    let core = engine.model(id).unwrap().topo.find("core0").unwrap();
    engine
        .apply(id, Delta::SetSwitchScheme(core, RoutingScheme::F10_3))
        .unwrap();
    engine
        .apply(id, Delta::SetUniformPr(Ratio::new(1, 10)))
        .unwrap();
    engine.snapshot(&snap_path).unwrap();
    engine.apply(id, Delta::SetHopCap(Some(10))).unwrap();
    let survivor = desc_bytes(&engine, id);
    let survivor_stats = engine.stats();
    drop(engine);

    let (rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    // Only the post-snapshot record replays; the two pre-snapshot deltas
    // come back through the checkpoint, accounting included.
    assert_eq!(report.snapshot_models, 1);
    assert_eq!(report.records_replayed, 1);
    assert_eq!(desc_bytes(&rec, id), survivor);
    let s = rec.stats();
    assert_eq!(s.deltas_applied, survivor_stats.deltas_applied);
    assert_eq!(s.switches_changed, survivor_stats.switches_changed);
    assert_eq!(s.full_rebuilds, survivor_stats.full_rebuilds);
    assert!(rec.verify_against_cold(id).unwrap());
    cleanup(&dir);
}

#[test]
fn interior_corruption_is_refused() {
    let dir = tmp_dir("corrupt");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    engine
        .apply(id, Delta::SetUniformPr(Ratio::new(1, 10)))
        .unwrap();
    engine.apply(id, Delta::SetHopCap(Some(8))).unwrap();
    drop(engine);

    let journal = dir.join(mcnetkat_serve::journal::JOURNAL_FILE);
    let mut bytes = std::fs::read(&journal).unwrap();
    // Flip a byte well inside the load record (valid records follow it):
    // this is bit rot, not a torn write, and recovery must say so.
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x40;
    std::fs::write(&journal, &bytes).unwrap();
    match Engine::recover(EngineConfig::default(), &dir) {
        Err(RecoveryError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {:?}", other.map(|(_, r)| r)),
    }
    cleanup(&dir);
}

#[test]
fn empty_dir_has_nothing_to_recover() {
    let dir = tmp_dir("empty");
    assert!(matches!(
        Engine::recover(EngineConfig::default(), &dir),
        Err(RecoveryError::NothingToRecover)
    ));
    cleanup(&dir);
}

#[test]
fn unload_autotrims_only_unshared_entries() {
    let mut engine = Engine::default();
    let a = engine.load(base_model()).unwrap();
    // Identical model: every hop diagram is shared with `a`.
    let b = engine.load(base_model()).unwrap();
    let entries = engine.stats().hop_cache_entries;
    engine.unload(b).unwrap();
    assert_eq!(
        engine.stats().hop_cache_evictions,
        0,
        "shared diagrams must stay warm"
    );
    assert_eq!(engine.stats().hop_cache_entries, entries);

    // A disjoint model (different failure pr ⇒ different inputs on every
    // prone switch): unloading it evicts its private entries.
    let mut lossy = base_model();
    lossy.failure.pr = Ratio::new(1, 4);
    let c = engine.load(lossy).unwrap();
    let with_lossy = engine.stats().hop_cache_entries;
    assert!(with_lossy > entries);
    engine.unload(c).unwrap();
    let s = engine.stats();
    assert_eq!(s.hop_cache_entries, entries);
    assert_eq!(s.hop_cache_evictions, (with_lossy - entries) as u64);
    assert!(engine.verify_against_cold(a).unwrap());
}

#[test]
fn zero_limit_sheds_every_query() {
    let config = EngineConfig {
        max_concurrent_queries: Some(0),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config);
    let id = engine.load(base_model()).unwrap();
    let res = engine.query(&Query::MinDelivery { model: id }.into());
    assert!(matches!(
        res,
        Err(EngineError::Overloaded {
            active: 0,
            limit: 0
        })
    ));
    let s = engine.stats();
    assert_eq!(s.queries_shed, 1);
    assert_eq!(s.queries, 1, "shed queries still count as queries");
}

#[test]
fn concurrent_batches_account_for_sheds_exactly() {
    let config = EngineConfig {
        max_concurrent_queries: Some(1),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config);
    let id = engine.load(base_model()).unwrap();
    let reqs: Vec<QueryRequest> =
        std::iter::repeat_with(|| QueryRequest::from(Query::MinDelivery { model: id }))
            .take(16)
            .collect();
    // Two batches race for one permit. Each batch runs one worker (the
    // fan-out cap), so sheds come only from cross-batch contention —
    // possibly zero; the accounting must be exact either way.
    let (r1, r2) = std::thread::scope(|scope| {
        let h1 = scope.spawn(|| engine.query_batch(&reqs));
        let h2 = scope.spawn(|| engine.query_batch(&reqs));
        (h1.join().unwrap(), h2.join().unwrap())
    });
    let shed = r1
        .iter()
        .chain(r2.iter())
        .filter(|r| matches!(r, Err(EngineError::Overloaded { .. })))
        .count() as u64;
    let answered = r1.iter().chain(r2.iter()).filter(|r| r.is_ok()).count() as u64;
    assert_eq!(answered + shed, 32, "every request either answers or sheds");
    let s = engine.stats();
    assert_eq!(s.queries_shed, shed);
    assert_eq!(s.queries, 32);
    // The gate is fully released: a sequential query admits fine.
    assert!(engine
        .query(&Query::MinDelivery { model: id }.into())
        .is_ok());
}

#[test]
fn expired_deadline_gets_a_degraded_retry() {
    let config = EngineConfig {
        degraded_grace: Some(Duration::from_secs(60)),
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(config);
    let id = engine.load(base_model()).unwrap();
    // A zero deadline is already expired at admission: without the
    // grace path this is a guaranteed DeadlineExceeded.
    let req = QueryRequest::from(Query::MinDelivery { model: id }).with_deadline(Duration::ZERO);
    let answer = engine.query(&req).expect("degraded retry salvages it");
    assert!(answer.prob().is_some());
    assert_eq!(engine.stats().degraded_answers, 1);

    // Without the grace configured, the same request is a plain error.
    let mut strict = Engine::default();
    let id = strict.load(base_model()).unwrap();
    let req = QueryRequest::from(Query::MinDelivery { model: id }).with_deadline(Duration::ZERO);
    assert!(strict.query(&req).is_err());
}

#[test]
fn journal_counts_one_record_per_operation() {
    let dir = tmp_dir("counts");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    let after_load = engine.stats();
    assert_eq!(
        after_load.journal_records, 1,
        "one record, no commit marker"
    );
    assert!(after_load.journal_bytes > 0);
    engine
        .apply(id, Delta::SetUniformPr(Ratio::new(1, 10)))
        .unwrap();
    // A rejected delta never reaches the journal.
    let _ = engine
        .apply(id, Delta::SetUniformPr(Ratio::new(3, 2)))
        .unwrap_err();
    engine.unload(id).unwrap();
    let s = engine.stats();
    assert_eq!(s.journal_records, 3);
    assert!(!s.journal_poisoned);
    cleanup(&dir);
}

/// A crash after an apply's record reached the disk and before the
/// in-memory swap: the record replays, so recovery equals the engine that
/// did swap.
#[test]
fn crash_after_the_record_replays_the_operation() {
    let dir = tmp_dir("after-record");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    engine.apply(id, Delta::SetHopCap(Some(10))).unwrap();
    drop(engine);

    // Write the next apply's record as the dying engine would have, just
    // before its swap.
    let delta = Delta::SetUniformPr(Ratio::new(1, 10));
    let path = dir.join(journal::JOURNAL_FILE);
    let scanned = journal::scan(&path).unwrap();
    let Some((_, Record::Load { id: raw_id, .. })) = scanned.records.first() else {
        panic!("the journal starts with the load");
    };
    let mut w =
        JournalWriter::open_at(&path, scanned.valid_len, scanned.records.len() as u64).unwrap();
    w.append(&Record::Apply {
        id: *raw_id,
        delta: delta.clone(),
    })
    .unwrap();
    drop(w);

    let mut swapped = Engine::default();
    let sid = swapped.load(base_model()).unwrap();
    swapped.apply(sid, Delta::SetHopCap(Some(10))).unwrap();
    swapped.apply(sid, delta).unwrap();

    let (rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    assert_eq!(report.records_replayed, 3);
    assert_eq!(report.truncated_bytes, 0);
    assert_eq!(desc_bytes(&rec, id), desc_bytes(&swapped, sid));
    let (r, s) = (rec.stats(), swapped.stats());
    assert_eq!(r.deltas_applied, s.deltas_applied);
    assert_eq!(r.switches_changed, s.switches_changed);
    assert_eq!(r.full_rebuilds, s.full_rebuilds);
    assert!(rec.manager().equiv(
        rec.fdd(id).unwrap(),
        rec.manager()
            .import(&swapped.manager().export(swapped.fdd(sid).unwrap()))
    ));
    assert!(rec.verify_against_cold(id).unwrap());
    cleanup(&dir);
}

//! Fault-storm and kill-and-recover tests for the serve engine, armed
//! through the shared failpoint registry (`mcnetkat_fdd::failpoints`).
//! The contract under every injected fault is the same: an operation is
//! *fully applied or fully restored* — the in-memory model, diagram, and
//! accounting either all move or none do — and a recovery from the
//! journal agrees with whatever the survivor reports.
//!
//! The registry is process-global, so every test here serializes on a
//! static mutex and clears the registry at entry (the same idiom as
//! `crates/net/tests/failpoints.rs`).

#![cfg(feature = "failpoints")]

use mcnetkat_fdd::failpoints::{self, FaultAction};
use mcnetkat_fdd::CompileError;
use mcnetkat_net::{Codec, FailureSpec, ModelDescription, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_serve::journal::JournalError;
use mcnetkat_serve::{Delta, Engine, EngineConfig, EngineError, ModelId, Query};
use mcnetkat_topo::ab_fattree;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes tests that arm global failpoints; a poisoned lock (an
/// earlier test's injected panic) is fine — the registry is re-cleared.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mcnetkat-chaos-{}-{tag}-{n}", std::process::id()));
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

fn desc_bytes(engine: &Engine, id: ModelId) -> Vec<u8> {
    ModelDescription::of(engine.model(id).expect("model loaded")).to_bytes()
}

/// One armed fault against one compile seam: the apply must fail with the
/// mapped error, restore the pre-fault model/diagram/accounting exactly,
/// and — once disarmed — the identical delta must succeed.
fn storm_one(site: &str, action: FaultAction, expect_compile: fn(&CompileError) -> bool) {
    failpoints::clear_all();
    let dir = tmp_dir("storm");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    let before = desc_bytes(&engine, id);
    let fdd_before = engine.fdd(id).unwrap();
    let stats_before = engine.stats();

    failpoints::configure(site, action, 1, 1);
    let delta = Delta::SetUniformPr(Ratio::new(1, 10));
    match engine.apply(id, delta.clone()) {
        Err(EngineError::Compile(e)) if expect_compile(&e) => {}
        other => panic!("{site}: expected injected compile error, got {other:?}"),
    }
    assert!(failpoints::fired(site) >= 1, "{site} never fired");

    // Fully restored: description, diagram handle, and accounting.
    assert_eq!(desc_bytes(&engine, id), before, "{site}: model mutated");
    assert_eq!(
        engine.fdd(id).unwrap(),
        fdd_before,
        "{site}: diagram swapped"
    );
    let s = engine.stats();
    assert_eq!(s.deltas_applied, stats_before.deltas_applied);
    assert_eq!(s.switches_changed, stats_before.switches_changed);
    assert_eq!(s.full_rebuilds, stats_before.full_rebuilds);
    assert!(
        !s.journal_poisoned,
        "{site}: clean compile fault poisoned journal"
    );
    // A failed compile writes nothing: the record follows the compile.
    assert_eq!(
        (s.journal_records, s.journal_bytes),
        (stats_before.journal_records, stats_before.journal_bytes),
        "{site}: the failed apply reached the journal"
    );
    assert!(engine.verify_against_cold(id).unwrap());

    // Disarmed, the same delta applies, and recovery replays it once.
    failpoints::clear_all();
    engine.apply(id, delta).unwrap();
    let survivor = desc_bytes(&engine, id);
    let survivor_stats = engine.stats();
    drop(engine);
    let (rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    assert_eq!(desc_bytes(&rec, id), survivor, "{site}: recovery disagrees");
    assert_eq!(rec.stats().deltas_applied, survivor_stats.deltas_applied);
    assert_eq!(report.records_replayed, 2, "{site}: the load and one apply");
    cleanup(&dir);
}

#[test]
fn compile_fault_storm_applies_fully_or_restores_fully() {
    let _guard = serial();
    for site in ["serve::apply::patch", "serve::apply::assemble"] {
        storm_one(site, FaultAction::Cancel, |e| {
            matches!(e, CompileError::Cancelled)
        });
        storm_one(site, FaultAction::Singular, |e| {
            matches!(e, CompileError::Solver(_))
        });
    }
}

#[test]
fn clean_journal_fault_rejects_before_any_mutation() {
    let _guard = serial();
    failpoints::clear_all();
    let dir = tmp_dir("clean-journal");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    let before = desc_bytes(&engine, id);
    let records_before = engine.stats().journal_records;

    failpoints::configure("serve::journal::append", FaultAction::Cancel, 1, 1);
    match engine.apply(id, Delta::SetUniformPr(Ratio::new(1, 10))) {
        Err(EngineError::Journal(JournalError::Cancelled)) => {}
        other => panic!("expected Journal(Cancelled), got {other:?}"),
    }
    failpoints::clear_all();
    // Nothing moved — not even journal bytes — and the engine is not
    // poisoned: the next apply goes through.
    assert_eq!(desc_bytes(&engine, id), before);
    let s = engine.stats();
    assert_eq!(s.journal_records, records_before);
    assert!(!s.journal_poisoned);
    engine.apply(id, Delta::SetHopCap(Some(10))).unwrap();
    assert!(engine.verify_against_cold(id).unwrap());
    cleanup(&dir);
}

#[test]
fn torn_record_poisons_writer_but_state_survives_and_recovers() {
    let _guard = serial();
    failpoints::clear_all();
    let dir = tmp_dir("torn-record");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    engine.apply(id, Delta::SetHopCap(Some(10))).unwrap();
    let before = desc_bytes(&engine, id);
    let stats_before = engine.stats();

    // Singular at the append site = the record write tears partway.
    failpoints::configure("serve::journal::append", FaultAction::Singular, 1, 1);
    match engine.apply(id, Delta::SetUniformPr(Ratio::new(1, 10))) {
        Err(EngineError::Journal(JournalError::Torn(_))) => {}
        other => panic!("expected Journal(Torn), got {other:?}"),
    }
    failpoints::clear_all();

    // In-memory state is untouched and still serves queries, but the
    // journal is poisoned: durable mutations now refuse instead of
    // writing after an untrusted tail.
    assert_eq!(desc_bytes(&engine, id), before);
    assert!(engine.stats().journal_poisoned);
    match engine.apply(id, Delta::SetHopCap(None)) {
        Err(EngineError::Journal(JournalError::Poisoned)) => {}
        other => panic!("expected Journal(Poisoned), got {other:?}"),
    }
    assert!(engine
        .query(&Query::MinDelivery { model: id }.into())
        .is_ok());
    assert!(engine.verify_against_cold(id).unwrap());

    // Recovery truncates the torn tail and rebuilds the pre-fault state;
    // the recovered engine journals again (fresh writer past the tear).
    drop(engine);
    let (mut rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    assert_eq!(desc_bytes(&rec, id), before);
    assert!(report.truncated_bytes > 0, "the torn prefix must be cut");
    let s = rec.stats();
    assert!(!s.journal_poisoned);
    assert_eq!(s.deltas_applied, stats_before.deltas_applied);
    assert_eq!(s.switches_changed, stats_before.switches_changed);
    rec.apply(id, Delta::SetUniformPr(Ratio::new(1, 10)))
        .unwrap();
    assert!(rec.verify_against_cold(id).unwrap());
    cleanup(&dir);
}

#[test]
fn injected_panic_is_contained_by_recovery() {
    let _guard = serial();
    failpoints::clear_all();
    let dir = tmp_dir("panic");
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    engine.apply(id, Delta::SetHopCap(Some(10))).unwrap();
    let before = desc_bytes(&engine, id);
    let stats_before = engine.stats();

    // A panic mid-patch is the crash the journal exists for: the process
    // dies before the apply's record is written. The survivor (recovery)
    // must report the pre-panic state.
    failpoints::configure(
        "serve::apply::patch",
        FaultAction::Panic("injected crash".into()),
        1,
        1,
    );
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = engine.apply(id, Delta::SetUniformPr(Ratio::new(1, 10)));
    }));
    assert!(panicked.is_err(), "the armed panic must fire");
    failpoints::clear_all();
    assert_eq!(
        engine.stats().journal_records,
        stats_before.journal_records,
        "the panicked apply reached the journal"
    );

    drop(engine); // the "dead process"
    let (rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    assert_eq!(desc_bytes(&rec, id), before);
    assert_eq!(report.records_replayed, 2, "the load and the first apply");
    let s = rec.stats();
    assert_eq!(s.deltas_applied, stats_before.deltas_applied);
    assert_eq!(s.switches_changed, stats_before.switches_changed);
    assert!(rec.verify_against_cold(id).unwrap());
    cleanup(&dir);
}

/// The CI smoke: a journaled engine takes deltas and a snapshot, dies to
/// a torn write mid-apply, and recovery rebuilds, re-verifies, and keeps
/// serving. Honors `MCNETKAT_CHAOS_DIR` so the CI job can upload the
/// journal as an artifact when this fails (the directory is left in
/// place); otherwise runs in a cleaned-up temp dir.
#[test]
fn kill_and_recover_smoke() {
    let _guard = serial();
    failpoints::clear_all();
    let (dir, ephemeral) = match std::env::var_os("MCNETKAT_CHAOS_DIR") {
        Some(d) => {
            let d = PathBuf::from(d);
            std::fs::create_dir_all(&d).expect("create chaos dir");
            (d, false)
        }
        None => (tmp_dir("smoke"), true),
    };

    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(base_model()).unwrap();
    let core = engine.model(id).unwrap().topo.find("core0").unwrap();
    engine
        .apply(id, Delta::SetSwitchScheme(core, RoutingScheme::F10_3))
        .unwrap();
    engine
        .snapshot(dir.join(mcnetkat_serve::journal::SNAPSHOT_FILE))
        .unwrap();
    engine
        .apply(id, Delta::SetUniformPr(Ratio::new(1, 10)))
        .unwrap();
    let survivor = desc_bytes(&engine, id);

    // The kill: the next record tears and the process "dies".
    failpoints::configure("serve::journal::append", FaultAction::Singular, 1, 1);
    assert!(engine.apply(id, Delta::SetHopCap(Some(8))).is_err());
    failpoints::clear_all();
    drop(engine);

    let (rec, report) = Engine::recover(EngineConfig::default(), &dir).unwrap();
    assert_eq!(desc_bytes(&rec, id), survivor);
    assert_eq!(report.snapshot_models, 1);
    assert_eq!(report.records_replayed, 1, "only the post-snapshot delta");
    assert!(report.truncated_bytes > 0);
    let answer = rec
        .query(&Query::MinDelivery { model: id }.into())
        .expect("recovered engine answers");
    assert!(answer.prob().is_some());
    assert!(rec.verify_against_cold(id).unwrap());
    if ephemeral {
        cleanup(&dir);
    }
}

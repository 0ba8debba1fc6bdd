//! Deterministic fault-injection tests (`--features failpoints`): armed
//! faults at the compiler's registered sites must surface as the matching
//! typed [`CompileError`] — never as a process abort, a hang, or a leaked
//! thread — and after clearing the faults the *same* manager must retry
//! to the exact paper probabilities.
//!
//! The failpoint registry is process-global, so every test here holds
//! [`SERIAL`] for its whole body and clears the registry before arming.

#![cfg(feature = "failpoints")]

use mcnetkat_fdd::failpoints::{self, FaultAction};
use mcnetkat_fdd::{Budget, CompileError, CompileOptions, LinalgError, Manager};
use mcnetkat_net::{
    compile_model_parallel, running_example, FailureSpec, NetworkModel, RoutingScheme,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::ab_fattree;
use proptest::prelude::*;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Serialises every test in this binary: the registry is process-global
/// and the test runner is multi-threaded. Panic-poisoned locks are fine —
/// the next test clears the registry anyway.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Eight workers: fattree(4)'s 20 switches split into seven chunks of at
/// most three hops, so a fault strikes while sibling workers are running.
const WORKERS: usize = 8;

fn model() -> NetworkModel {
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    )
}

/// The pristine delivery probability of [`model`] from `edge1_0`,
/// computed once on an uninjected manager.
fn reference_prob(m: &NetworkModel) -> &'static Ratio {
    static REF: OnceLock<Ratio> = OnceLock::new();
    REF.get_or_init(|| {
        let mgr = Manager::new();
        let fdd = compile_model_parallel(&mgr, m, WORKERS, &Default::default()).unwrap();
        delivery(&mgr, m, fdd)
    })
}

fn delivery(mgr: &Manager, m: &NetworkModel, fdd: mcnetkat_fdd::Fdd) -> Ratio {
    let src = m.topo.find("edge1_0").unwrap();
    let pk = mcnetkat_core::Packet::new().with(m.fields.sw, m.topo.sw_value(src));
    mgr.prob_delivery(fdd, &pk)
}

/// After a contained fault: the manager's tables are still sound, and an
/// uninjected retry of the same compile lands on the reference answer.
fn assert_recovers(mgr: &Manager, m: &NetworkModel) {
    failpoints::clear_all();
    #[cfg(feature = "audit")]
    mgr.audit().assert_clean();
    let fdd = compile_model_parallel(mgr, m, WORKERS, &Default::default()).unwrap();
    assert_eq!(&delivery(mgr, m, fdd), reference_prob(m));
    #[cfg(feature = "audit")]
    mgr.audit().assert_clean();
}

#[test]
fn worker_panic_is_contained_and_typed() {
    let _guard = serial();
    failpoints::clear_all();
    let m = model();
    let mgr = Manager::new();
    failpoints::configure(
        "net::fused::compile_hops",
        FaultAction::Panic("injected worker crash".into()),
        1,
        1,
    );
    match compile_model_parallel(&mgr, &m, WORKERS, &Default::default()) {
        Err(CompileError::WorkerPanicked { payload }) => {
            assert!(
                payload.contains("injected worker crash"),
                "panic payload should survive containment: {payload}"
            );
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    assert!(failpoints::fired("net::fused::compile_hops") >= 1);
    assert_recovers(&mgr, &m);
}

#[test]
fn singular_loop_solve_is_a_typed_error() {
    let _guard = serial();
    failpoints::clear_all();
    let m = model();
    let mgr = Manager::new();
    // The one loop solve reports a singular chain: there is nothing to
    // retry, so its error is the compile's.
    failpoints::configure("fdd::loops::solve", FaultAction::Singular, 1, 1);
    match compile_model_parallel(&mgr, &m, WORKERS, &Default::default()) {
        Err(CompileError::Solver(LinalgError::Singular(_))) => {}
        other => panic!("expected Solver(Singular), got {other:?}"),
    }
    assert_eq!(failpoints::fired("fdd::loops::solve"), 1);
    assert_recovers(&mgr, &m);
}

#[test]
fn injected_delays_trip_a_deadline_budget() {
    let _guard = serial();
    failpoints::clear_all();
    let m = model();
    let mgr = Manager::new();
    failpoints::configure(
        "net::fused::compile_hops",
        FaultAction::Delay(Duration::from_millis(30)),
        1,
        10_000,
    );
    let opts = CompileOptions {
        budget: Budget::default().with_deadline(Duration::from_millis(10)),
        ..CompileOptions::default()
    };
    match compile_model_parallel(&mgr, &m, WORKERS, &opts) {
        Err(CompileError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_recovers(&mgr, &m);
}

#[test]
fn injected_cancellation_surfaces_cancelled() {
    let _guard = serial();
    failpoints::clear_all();
    let m = model();
    let mgr = Manager::new();
    failpoints::configure("net::fused::compile_hops", FaultAction::Cancel, 2, 1);
    match compile_model_parallel(&mgr, &m, WORKERS, &Default::default()) {
        Err(CompileError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert_recovers(&mgr, &m);
}

/// One storm case: which site gets armed, with what action, and when.
#[derive(Clone, Debug)]
struct Schedule {
    site: &'static str,
    action: FaultAction,
    nth: u64,
    times: u64,
}

/// The site where a panic is caught by the containment layer. Panicking
/// at a sequential-path site would (correctly) abort the test process, so
/// the storm only arms `Panic` here.
const PANIC_SITE: &str = "net::fused::compile_hops";
/// All sites reachable from the parallel fattree(4) compile.
const ALL_SITES: [&str; 3] = [
    "fdd::intern",
    "fdd::loops::solve",
    "net::fused::compile_hops",
];

fn arb_schedule() -> impl Strategy<Value = Schedule> {
    (0..4u8, 0..8u8, 1..=6u64, 1..=3u64).prop_map(|(kind, site_sel, nth, times)| match kind {
        0 => Schedule {
            site: PANIC_SITE,
            action: FaultAction::Panic("storm panic".into()),
            nth,
            times,
        },
        1 => Schedule {
            site: ALL_SITES[site_sel as usize % ALL_SITES.len()],
            action: FaultAction::Singular,
            nth,
            times,
        },
        2 => Schedule {
            site: ALL_SITES[site_sel as usize % ALL_SITES.len()],
            action: FaultAction::Delay(Duration::from_millis(1)),
            nth,
            times,
        },
        _ => Schedule {
            site: ALL_SITES[site_sel as usize % ALL_SITES.len()],
            action: FaultAction::Cancel,
            nth,
            times,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The storm: for a random fault schedule, the parallel fattree(4)
    /// compile either succeeds with the exact reference probability or
    /// returns a typed error consistent with the injected action — and
    /// either way the manager retries clean afterwards. The test binary
    /// terminating at all is the no-leaked-threads/no-deadlock assertion.
    #[test]
    fn storm_random_schedules_against_fattree4(schedule in arb_schedule()) {
        let _guard = serial();
        failpoints::clear_all();
        let m = model();
        let mgr = Manager::new();
        failpoints::configure(schedule.site, schedule.action.clone(), schedule.nth, schedule.times);
        let result = compile_model_parallel(&mgr, &m, WORKERS, &Default::default());
        match result {
            Ok(fdd) => {
                // Fault never fired or was a pure delay — the answer must
                // still be exact.
                prop_assert_eq!(&delivery(&mgr, &m, fdd), reference_prob(&m));
            }
            Err(CompileError::WorkerPanicked { .. }) => {
                prop_assert!(matches!(schedule.action, FaultAction::Panic(_)));
            }
            Err(CompileError::Cancelled) => {
                prop_assert!(matches!(schedule.action, FaultAction::Cancel));
            }
            Err(CompileError::Solver(_)) => {
                prop_assert!(matches!(schedule.action, FaultAction::Singular));
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        assert_recovers(&mgr, &m);
    }

    /// Same storm against the paper's §2 running example through the
    /// sequential compiler (no panic actions — there is no containment
    /// boundary on this path, by design). The resilient scheme under f2
    /// must deliver with probability exactly 24/25 whenever the compile
    /// succeeds, and after clearing, always.
    #[test]
    fn storm_sequential_sec2_example(
        site_sel in 0..2u8,
        kind in 0..3u8,
        nth in 1..=4u64,
        times in 1..=3u64,
    ) {
        let _guard = serial();
        failpoints::clear_all();
        let sites = ["fdd::intern", "fdd::loops::solve"];
        let site = sites[site_sel as usize % sites.len()];
        let action = match kind {
            0 => FaultAction::Singular,
            1 => FaultAction::Delay(Duration::from_millis(1)),
            _ => FaultAction::Cancel,
        };
        failpoints::configure(site, action.clone(), nth, times);
        let ex = running_example();
        let mgr = Manager::new();
        let prog = ex.model(&ex.resilient, &ex.f2);
        match mgr.compile(&prog) {
            Ok(fdd) => {
                prop_assert_eq!(
                    mgr.prob_delivery(fdd, &ex.ingress_packet()),
                    Ratio::new(24, 25)
                );
            }
            Err(CompileError::Cancelled) => {
                prop_assert!(matches!(action, FaultAction::Cancel));
            }
            Err(CompileError::Solver(_)) => {
                prop_assert!(matches!(action, FaultAction::Singular));
            }
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
        failpoints::clear_all();
        #[cfg(feature = "audit")]
        mgr.audit().assert_clean();
        let fdd = mgr.compile(&prog).unwrap();
        prop_assert_eq!(
            mgr.prob_delivery(fdd, &ex.ingress_packet()),
            Ratio::new(24, 25)
        );
    }
}

//! Governed-abort tests: deadline, cross-thread cancellation, and
//! table-size ceilings must abort a compile with the matching typed
//! error, within a bounded grace period, leaving the manager audit-clean
//! and able to complete the same compile on retry.

use mcnetkat_fdd::{Budget, CancelToken, CompileError, CompileOptions, Manager};
use mcnetkat_net::{compile_model_parallel, FailureSpec, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::ab_fattree;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn model(k: usize) -> NetworkModel {
    let topo = ab_fattree(k);
    let dst = topo.find("edge0_0").unwrap();
    NetworkModel::new(
        topo,
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    )
}

fn delivery(mgr: &Manager, m: &NetworkModel, fdd: mcnetkat_fdd::Fdd) -> Ratio {
    let src = m.topo.find("edge1_0").unwrap();
    let pk = mcnetkat_core::Packet::new().with(m.fields.sw, m.topo.sw_value(src));
    mgr.prob_delivery(fdd, &pk)
}

#[cfg(feature = "audit")]
fn assert_audit_clean(mgr: &Manager) {
    mgr.audit().assert_clean();
}
#[cfg(not(feature = "audit"))]
fn assert_audit_clean(_mgr: &Manager) {}

/// A 1 ms deadline is far below any measured fattree(12) compile (tens
/// of milliseconds in release builds, longer in debug), so the deadline
/// must trip mid-compile in every build profile — and the per-switch
/// checkpoints plus the op-level governor must surface it. The grace
/// bound is deliberately generous for slow debug builds; the point is
/// "seconds, not minutes".
#[test]
fn deadline_expired_fattree12_aborts_within_bounded_grace() {
    let m = model(12);
    let mgr = Manager::new();
    let opts = CompileOptions {
        budget: Budget::default().with_deadline(Duration::from_millis(1)),
        ..CompileOptions::default()
    };
    let start = Instant::now();
    let err = m.compile_with(&mgr, &opts).unwrap_err();
    let elapsed = start.elapsed();
    assert!(
        matches!(err, CompileError::DeadlineExceeded),
        "expected DeadlineExceeded, got {err:?}"
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "governed abort took {elapsed:?} — checkpoints are not firing"
    );
    assert_audit_clean(&mgr);
    // The manager is still fully usable: a small model compiles fine.
    let small = model(4);
    let fdd = small.compile(&mgr).unwrap();
    assert!(delivery(&mgr, &small, fdd) > Ratio::zero());
}

/// A `CancelToken` fired from another thread mid-compile surfaces as
/// `Cancelled`, and the same manager then completes the same compile.
///
/// The canceller fires as soon as the compile has imported its first hop,
/// but on a loaded host it may be scheduled only after the compile has
/// returned. Such a run says nothing about cancellation, so it is retried
/// on a fresh manager, a bounded number of times. A run in which the
/// token fired before the compile returned must end `Cancelled`.
#[test]
fn cross_thread_cancellation_mid_compile() {
    const ATTEMPTS: usize = 8;
    let m = model(8);
    // Reference run: what is the right answer?
    let reference = Manager::new();
    let ref_fdd = m.compile(&reference).unwrap();
    let expected = delivery(&reference, &m, ref_fdd);

    // Deterministic warm-up: a pre-fired token cancels instantly.
    let mgr = Manager::new();
    let fired = CancelToken::new();
    fired.cancel();
    let opts = CompileOptions {
        budget: Budget::default().with_cancel(fired),
        ..CompileOptions::default()
    };
    assert!(matches!(
        m.compile_with(&mgr, &opts),
        Err(CompileError::Cancelled)
    ));
    assert_audit_clean(&mgr);

    for attempt in 1..=ATTEMPTS {
        let mgr = Manager::new();
        let (result, fired_early) = cancel_mid_compile(&m, &mgr);
        match result {
            Err(CompileError::Cancelled) => {}
            Ok(_) if !fired_early => {
                eprintln!(
                    "attempt {attempt}: the token fired after the compile returned; retrying"
                );
                continue;
            }
            other => panic!("the token fired mid-compile, expected Cancelled, got {other:?}"),
        }
        assert_audit_clean(&mgr);

        // Retry on the very same manager, uncancelled: exact same answer.
        let fdd = m.compile(&mgr).unwrap();
        assert_eq!(delivery(&mgr, &m, fdd), expected);
        assert_audit_clean(&mgr);
        return;
    }
    panic!("no conclusive run in {ATTEMPTS} attempts: the token never fired mid-compile");
}

/// Compiles `m` into `mgr` while another thread fires the compile's
/// cancel token once the first hop lands in `mgr`. Returns the compile's
/// result and whether the token fired before the compile returned.
fn cancel_mid_compile(
    m: &NetworkModel,
    mgr: &Manager,
) -> (Result<mcnetkat_fdd::Fdd, CompileError>, bool) {
    let token = CancelToken::new();
    let opts = CompileOptions {
        budget: Budget::default().with_cancel(token.clone()),
        ..CompileOptions::default()
    };
    let before = mgr.node_count();
    let finished = AtomicBool::new(false);
    let fired_early = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| {
            while mgr.node_count() == before && !finished.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            token.cancel();
            // `finished` is set only after the compile returns, so if it is
            // still clear the token fired while the compile ran.
            fired_early.store(!finished.load(Ordering::SeqCst), Ordering::SeqCst);
        });
        let result = m.compile_with(mgr, &opts);
        finished.store(true, Ordering::SeqCst);
        result
    });
    (result, fired_early.load(Ordering::SeqCst))
}

/// A live-node ceiling below the compile's real peak trips
/// `ResourceExhausted`; lifting it lets the same manager finish.
#[test]
fn live_node_ceiling_trips_resource_exhausted() {
    let m = model(4);
    let reference = Manager::new();
    let ref_fdd = m.compile(&reference).unwrap();
    let peak = reference.peak_live_nodes();
    let expected = delivery(&reference, &m, ref_fdd);
    assert!(peak > 2, "fattree(4) compile must build real diagrams");

    let mgr = Manager::new();
    let opts = CompileOptions {
        budget: Budget::default().with_max_live_nodes(peak / 2),
        ..CompileOptions::default()
    };
    match m.compile_with(&mgr, &opts) {
        Err(CompileError::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, "live nodes");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    assert_audit_clean(&mgr);
    let fdd = m.compile(&mgr).unwrap();
    assert_eq!(delivery(&mgr, &m, fdd), expected);
}

/// The same governance applies through the parallel backend: the caller's
/// token cancels all workers, and the typed error comes back intact.
#[test]
fn parallel_backend_honours_pre_fired_cancellation() {
    let m = model(4);
    let mgr = Manager::new();
    let token = CancelToken::new();
    token.cancel();
    let opts = CompileOptions {
        budget: Budget::default().with_cancel(token),
        ..CompileOptions::default()
    };
    assert!(matches!(
        compile_model_parallel(&mgr, &m, 4, &opts),
        Err(CompileError::Cancelled)
    ));
    assert_audit_clean(&mgr);
    let fdd = compile_model_parallel(&mgr, &m, 4, &Default::default()).unwrap();
    let reference = Manager::new();
    let ref_fdd = m.compile(&reference).unwrap();
    assert_eq!(delivery(&mgr, &m, fdd), delivery(&reference, &m, ref_fdd));
}

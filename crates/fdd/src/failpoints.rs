//! Deterministic fault injection for robustness tests.
//!
//! Only compiled under the `failpoints` feature (asserted off in release
//! benches, mirroring [`crate::AUDIT_ENABLED`]). The compiler registers
//! *named sites* at the seams where real-world failures strike — loop-state
//! interning, the structured solver, parallel hop workers — and a test
//! arms a site with a [`FaultAction`] that fires deterministically on the
//! Nth hit:
//!
//! ```text
//! site                     seam                              sensible actions
//! fdd::intern              loop-state interning              Panic, Delay, Cancel
//! fdd::loops::solve        each loop solve                   Singular, Panic, Delay, Cancel
//! net::parallel::worker    per-hop compile on a pool worker  Panic, Delay, Cancel
//! serve::journal::append   journal record append             Singular (= torn write), Cancel, Panic, Delay
//! serve::apply::patch      each re-keyed switch of a patch   Singular, Panic, Delay, Cancel
//! serve::apply::assemble   post-patch model assembly         Singular, Panic, Delay, Cancel
//! ```
//!
//! `fdd::loops::solve` is checked once per loop solve; a `Singular` there
//! fails the compile with the typed solver error, as a singular chain
//! would.
//!
//! (The `serve::*` sites are registered by `mcnetkat-serve`, which sits
//! above this crate; at `serve::journal::append`, `Singular` is
//! repurposed to simulate a *torn write* — a strict prefix of the record
//! reaches the file and the writer poisons itself — so recovery's
//! truncation rule can be exercised deterministically.)
//!
//! The registry is process-global, so tests that arm faults must
//! serialize (the harness uses a static mutex) and clear the registry
//! between cases with [`clear_all`].

use crate::{CompileError, LinalgError};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What an armed site does when it fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with this message — exercises panic containment.
    Panic(String),
    /// Report a singular linear system — exercises the typed solver
    /// error. Only meaningful at solver sites; elsewhere it surfaces as
    /// the site's generic injected failure.
    Singular,
    /// Sleep this long before continuing — exercises deadline budgets.
    Delay(Duration),
    /// Behave as though the compile's [`crate::CancelToken`] fired.
    Cancel,
}

/// What [`check`] tells its caller to do (after any [`FaultAction::Panic`]
/// or [`FaultAction::Delay`] has already been acted on in place).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Surface a singular-system solver error.
    Singular,
    /// Surface [`crate::CompileError::Cancelled`].
    Cancelled,
}

#[derive(Clone, Debug)]
struct Site {
    action: FaultAction,
    /// 1-based hit count on which the fault first fires.
    trigger_at: u64,
    /// How many consecutive hits fire, starting at `trigger_at`. Lets a
    /// test fail several hits of one site in a row.
    times: u64,
    hits: u64,
    fired: u64,
}

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Arms `site` to perform `action` on its `nth` hit (1-based) and the
/// `times - 1` hits after it. Re-arming a site resets its counters.
pub fn configure(site: &str, action: FaultAction, nth: u64, times: u64) {
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    reg.insert(
        site.to_string(),
        Site {
            action,
            trigger_at: nth.max(1),
            times: times.max(1),
            hits: 0,
            fired: 0,
        },
    );
}

/// Disarms every site and zeroes all counters. Call between test cases.
pub fn clear_all() {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .clear();
}

/// How many times `site` has been hit since it was configured (0 if the
/// site was never armed). Lets tests assert a seam was actually reached.
pub fn hits(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .get(site)
        .map_or(0, |s| s.hits)
}

/// How many times `site` has fired its action.
pub fn fired(site: &str) -> u64 {
    registry()
        .lock()
        .expect("failpoint registry poisoned")
        .get(site)
        .map_or(0, |s| s.fired)
}

/// The compiler-side checkpoint: records a hit on `site` and, when armed
/// and due, performs the fault. `Panic` panics and `Delay` sleeps right
/// here (with the registry lock released); `Singular` and `Cancel` are
/// returned for the caller to map onto its own error type.
pub fn check(site: &str) -> Option<InjectedFault> {
    let action = {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        let s = reg.get_mut(site)?;
        s.hits += 1;
        let due = s.hits >= s.trigger_at && s.hits < s.trigger_at + s.times;
        if !due {
            return None;
        }
        s.fired += 1;
        s.action.clone()
    };
    match action {
        FaultAction::Panic(msg) => panic!("injected fault at `{site}`: {msg}"),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        FaultAction::Singular => Some(InjectedFault::Singular),
        FaultAction::Cancel => Some(InjectedFault::Cancelled),
    }
}

/// [`check`] mapped onto the compile's error type: `Cancel` surfaces as
/// [`CompileError::Cancelled`], and `Singular` as a singular-system
/// solver error.
///
/// # Errors
///
/// The injected fault, mapped as above.
pub fn check_compile(site: &str) -> Result<(), CompileError> {
    match check(site) {
        None => Ok(()),
        Some(InjectedFault::Cancelled) => Err(CompileError::Cancelled),
        Some(InjectedFault::Singular) => Err(CompileError::Solver(LinalgError::Singular(0))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and other tests in this binary may
    // also use it, so each test here owns uniquely named sites and never
    // calls `clear_all` (it would disarm a concurrently running test's
    // site); `configure` already resets a site's counters.

    #[test]
    fn fires_on_nth_hit_for_times_hits() {
        configure("test::nth", FaultAction::Singular, 2, 2);
        assert_eq!(check("test::nth"), None);
        assert_eq!(check("test::nth"), Some(InjectedFault::Singular));
        assert_eq!(check("test::nth"), Some(InjectedFault::Singular));
        assert_eq!(check("test::nth"), None);
        assert_eq!(hits("test::nth"), 4);
        assert_eq!(fired("test::nth"), 2);
    }

    #[test]
    fn unarmed_sites_count_nothing() {
        assert_eq!(check("test::unarmed"), None);
        assert_eq!(hits("test::unarmed"), 0);
    }

    #[test]
    fn delay_fires_in_place_and_reports_no_fault() {
        configure(
            "test::delay",
            FaultAction::Delay(Duration::from_millis(1)),
            1,
            1,
        );
        let start = std::time::Instant::now();
        assert_eq!(check("test::delay"), None);
        assert!(start.elapsed() >= Duration::from_millis(1));
        assert_eq!(fired("test::delay"), 1);
    }
}

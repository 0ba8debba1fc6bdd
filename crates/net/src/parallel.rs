//! The parallelising backend of §6 ("Parallel speedup"): per-switch
//! *fused hops* are compiled on worker threads — each with a private FDD
//! manager, mirroring the paper's per-process workers — and imported into
//! the main manager.
//!
//! This is the cold compile of [`crate::NetworkModel::compile_with`] with
//! a worker pool under it: key every switch, compile the hops with
//! [`crate::fused::compile_hops`] on `workers` threads (chunks of
//! switches, one multi-root export per chunk, worker panics contained,
//! the first failure cancelling its siblings), import them in switch
//! order, then fold the `sw`-case chain ([`crate::fused::assemble_chain`])
//! and finish with [`crate::fused::assemble_model`] in the main manager.
//! The `while` solve goes through [`Manager::while_loop`], so repeated
//! loops across models sharing a manager hit the loop-solution cache.

use crate::fused::compile_model_fused;
use crate::NetworkModel;
use mcnetkat_fdd::{CompileError, CompileOptions, Fdd, Manager};

/// Compiles `model` using `workers` threads for the per-switch hops.
///
/// Returns the diagram in `mgr`. With `workers == 1` the hops compile
/// inline, exactly as [`NetworkModel::compile_with`] does (the baseline
/// for speedup measurements). `opts` governs every compile performed by
/// this function, on worker threads and in `mgr` alike.
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
    Ok(compile_model_fused(mgr, model, workers, opts)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureSpec, Queries, RoutingScheme};
    use mcnetkat_num::Ratio;
    use mcnetkat_topo::ab_fattree;

    fn model() -> NetworkModel {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        NetworkModel::new(
            topo,
            dst,
            RoutingScheme::F10_3,
            FailureSpec::independent(Ratio::new(1, 10)),
        )
    }

    #[test]
    fn parallel_matches_sequential() {
        let m = model();
        let mgr = Manager::new();
        let sequential = m.compile(&mgr).unwrap();
        // Includes worker counts that do not divide the switch count and
        // exceed the core count.
        for workers in [1, 2, 3, 4, 7] {
            let parallel = compile_model_parallel(&mgr, &m, workers, &Default::default()).unwrap();
            assert!(mgr.equiv(sequential, parallel), "workers = {workers}");
        }
    }

    #[test]
    fn parallel_matches_sequential_with_more_workers_than_switches() {
        let m = model();
        let switches = m.topo.switches().len();
        let mgr = Manager::new();
        let sequential = m.compile(&mgr).unwrap();
        let parallel = compile_model_parallel(&mgr, &m, switches + 5, &Default::default()).unwrap();
        assert!(mgr.equiv(sequential, parallel));
    }

    #[test]
    fn parallel_matches_sequential_with_bounded_failures() {
        // A non-trivial failure model: at most 2 concurrent failures with
        // the 5-hop F10 rerouting scheme.
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let m = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::F10_3_5,
            FailureSpec::bounded(Ratio::new(1, 10), 2),
        );
        let mgr = Manager::new();
        let sequential = m.compile(&mgr).unwrap();
        for workers in [3, 7] {
            let parallel = compile_model_parallel(&mgr, &m, workers, &Default::default()).unwrap();
            assert!(mgr.equiv(sequential, parallel), "workers = {workers}");
        }
    }

    #[test]
    fn parallel_queries_agree() {
        let m = model();
        let mgr = Manager::new();
        let fdd = compile_model_parallel(&mgr, &m, 4, &Default::default()).unwrap();
        let q = Queries::from_fdd(&mgr, &m, fdd);
        let seq_q = Queries::new(&mgr, &m).unwrap();
        let src = m.topo.find("edge1_0").unwrap();
        assert_eq!(q.delivery_prob(src), seq_q.delivery_prob(src));
    }

    #[test]
    fn parallel_respects_state_limit_like_sequential() {
        // Regression: workers used to compile with `CompileOptions::default()`
        // regardless of the caller's options. A tiny state limit must make
        // the parallel path fail with the same error as the sequential one.
        let m = model();
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
    fn parallel_stats_cover_every_switch() {
        let m = model();
        let mgr = Manager::new();
        let (fdd, stats) = compile_model_fused(&mgr, &m, 3, &Default::default()).unwrap();
        assert_eq!(stats.switches, m.topo.switches().len());
        assert!(stats.max_scratch_nodes > 0);
        assert!(mgr.equiv(fdd, m.compile(&mgr).unwrap()));
    }

    #[test]
    fn parallel_loop_solutions_hit_the_cache_on_recompile() {
        let m = model();
        let mgr = Manager::new();
        let first = compile_model_parallel(&mgr, &m, 2, &Default::default()).unwrap();
        let misses_after_first = mgr.while_cache_stats().misses;
        let second = compile_model_parallel(&mgr, &m, 3, &Default::default()).unwrap();
        assert!(mgr.equiv(first, second));
        let stats = mgr.while_cache_stats();
        assert!(stats.hits >= 1, "expected a cache hit, got {stats:?}");
        assert_eq!(stats.misses, misses_after_first, "no new loop solves");
    }
}

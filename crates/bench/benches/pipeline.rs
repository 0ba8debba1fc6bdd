//! Criterion microbenchmarks (E10): the compilation pipeline stage by
//! stage, the compiler's loop solve, and PRISM-approx's float iteration
//! beside it (DESIGN.md § "Loop solve").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcnetkat_fdd::{CompileOptions, Manager};
use mcnetkat_linalg::AbsorbingChain;
use mcnetkat_net::{chain_benchmark, FailureSpec, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_prism::{check_reachability, translate, McMode};
use mcnetkat_topo::fattree;

/// The diagram auditor walks every node and interning table after each
/// model compile — timings taken with it on are meaningless. The same
/// goes for the fault-injection registry: every armed-site check is a
/// global-mutex hit on the hot path. Every bench group asserts both are
/// off (feature unification can silently turn either on).
// Runtime (not const) on purpose: `cargo test --features audit` builds
// the bench harness without running it, and must keep compiling.
#[allow(clippy::assertions_on_constants)]
fn assert_audit_off() {
    assert!(
        !mcnetkat_fdd::AUDIT_ENABLED,
        "the `audit` feature is enabled in a benchmark build — timings \
         would include invariant audits; rebuild without it"
    );
    assert!(
        !mcnetkat_fdd::FAILPOINTS_ENABLED,
        "the `failpoints` feature is enabled in a benchmark build — \
         timings would include fault-injection checks; rebuild without it"
    );
}

fn bench_fattree_compile(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("fattree_compile");
    group.sample_size(10);
    // p = 8 was the body-compile frontier before the fused per-switch
    // pipeline (965 ms at f1000); p = 10 and 12 were out of reach
    // entirely. Tracking them keeps the regression gate pointed at the
    // numbers that matter for the paper's p = 16+ ambitions.
    for p in [4usize, 6, 8] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        for (label, failure) in [
            ("f0", FailureSpec::none()),
            ("f1000", FailureSpec::independent(Ratio::new(1, 1000))),
        ] {
            let model = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, failure);
            group.bench_with_input(BenchmarkId::new(label, p), &model, |b, model| {
                b.iter(|| {
                    let mgr = Manager::new();
                    model.compile(&mgr).unwrap()
                })
            });
        }
    }
    // Scales unlocked by the fused pipeline (failure-free so the loop
    // solve, not the failure draw, dominates).
    for p in [10usize, 12] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, FailureSpec::none());
        group.bench_with_input(BenchmarkId::new("f0", p), &model, |b, model| {
            b.iter(|| {
                let mgr = Manager::new();
                model.compile(&mgr).unwrap()
            })
        });
    }
    // The scale unlocked by the sparse SCC loop solve:
    // p = 16 *with* failures, whose loop chain (thousands of transient
    // states) the dense while-loop solve could not touch.
    {
        let topo = fattree(16);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::Ecmp,
            FailureSpec::independent(Ratio::new(1, 1000)),
        );
        group.bench_with_input(BenchmarkId::new("f1000", 16usize), &model, |b, model| {
            b.iter(|| {
                let mgr = Manager::new();
                model.compile(&mgr).unwrap()
            })
        });
    }
    group.finish();
}

/// Correlated shared-risk-group failures: one "line card" group per
/// non-edge switch (all its down links fail together, pr 1/1000).
/// Exercises the group-draw encoding, the per-hop group erasure, and the
/// final scratch-field projection (`Manager::forget`).
fn bench_fattree_srlg(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("fattree_srlg");
    group.sample_size(10);
    // p = 12 rides on the sparse SCC loop solve — with the dense solve it
    // was out of benchmarking range entirely.
    for p in [4usize, 6, 12] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        let pr = Ratio::new(1, 1000);
        let spec = FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(&topo, &pr));
        let model = NetworkModel::new(topo.clone(), dst, RoutingScheme::Ecmp, spec);
        group.bench_with_input(BenchmarkId::new("linecard1000", p), &model, |b, model| {
            b.iter(|| {
                let mgr = Manager::new();
                model.compile(&mgr).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_chain_engines(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("chain_engines");
    group.sample_size(10);
    let k = 4;
    let bench = chain_benchmark(k, Ratio::new(1, 1000));
    group.bench_function("native_fdd", |b| {
        b.iter(|| {
            let mgr = Manager::new();
            let fdd = mgr.compile(&bench.program).unwrap();
            mgr.prob_matching(fdd, &bench.input, &bench.accept)
        })
    });
    group.bench_function("prism_exact", |b| {
        b.iter(|| {
            let auto = translate(&bench.program).unwrap();
            check_reachability(&auto, &bench.input, &bench.accept, McMode::Exact).unwrap()
        })
    });
    group.bench_function("prism_approx", |b| {
        b.iter(|| {
            let auto = translate(&bench.program).unwrap();
            check_reachability(&auto, &bench.input, &bench.accept, McMode::Approx).unwrap()
        })
    });
    group.bench_function("baseline_exact_inference", |b| {
        b.iter(|| {
            mcnetkat_baseline::ExactInference::new(64).query(
                &bench.program,
                &bench.input,
                &bench.accept,
            )
        })
    });
    group.finish();
}

/// PRISM-approx's Gauss–Seidel reachability solve on one large SCC.
fn bench_solver_backends(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("solver_backends");
    // A leaky random-walk chain with 400 transient states: each state
    // moves forward/backward with probability 0.45 and absorbs with 0.1,
    // the shape (and conditioning) of real loop chains.
    let n = 400;
    let mut chain = AbsorbingChain::new(n + 2);
    chain.set_absorbing(n);
    chain.set_absorbing(n + 1);
    for s in 0..n {
        let fwd = if s + 1 >= n { n } else { s + 1 };
        chain.add(s, fwd, Ratio::new(9, 20));
        let back = if s == 0 { n + 1 } else { s - 1 };
        chain.add(s, back, Ratio::new(9, 20));
        chain.add(s, n, Ratio::new(1, 10));
    }
    // The exact sparse SCC solve is deliberately absent: this chain is a
    // single 400-state SCC — the one shape where exact elimination is
    // hopeless (seconds, not microseconds; the entries grow into huge
    // rationals). Its regime — many small SCCs, most of them
    // singletons — is what `loop_solving/sparse_scc` and the
    // `fattree_compile` benchmarks measure.
    group.bench_function("GaussSeidel", |b| {
        b.iter(|| chain.reach_prob_approx(&[n]).unwrap())
    });
    group.finish();
}

/// The compiler's loop solve (sparse SCC) on a 3-hop chain.
fn bench_loop_solving(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("loop_solving");
    group.sample_size(10);
    let bench = chain_benchmark(3, Ratio::new(1, 100));
    group.bench_function("sparse_scc", |b| {
        b.iter(|| {
            let mgr = Manager::new();
            mgr.compile_with(&bench.program, &CompileOptions::default())
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fattree_compile,
    bench_fattree_srlg,
    bench_chain_engines,
    bench_solver_backends,
    bench_loop_solving
);
criterion_main!(benches);

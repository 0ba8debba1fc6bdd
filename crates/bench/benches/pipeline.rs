//! Criterion microbenchmarks (E10): the compilation pipeline stage by
//! stage, the compiler's loop solve, PRISM-approx's float iteration
//! beside it (DESIGN.md § "Loop solve"), and the serve engine's journal
//! replay.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mcnetkat_fdd::{CompileOptions, Fdd, Manager};
use mcnetkat_linalg::AbsorbingChain;
use mcnetkat_net::fused::{assemble_chain, assemble_tail, compile_hops, hop_inputs};
use mcnetkat_net::{chain_benchmark, FailureSpec, FusedStats, NetworkModel, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_prism::{check_reachability, translate, McMode};
use mcnetkat_serve::{Delta, Engine, EngineConfig};
use mcnetkat_topo::{ab_fattree, fattree, ShortestPaths};
use std::collections::HashMap;

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
    // Figure 10 runs the chain far past k = 4: at k = 32 the `sw` case
    // spines are long enough that a `restrict` or `seq` quadratic in the
    // spine length shows.
    let long = chain_benchmark(32, Ratio::new(1, 1000));
    group.bench_function("native_fdd_k32", |b| {
        b.iter(|| {
            let mgr = Manager::new();
            let fdd = mgr.compile(&long.program).unwrap();
            mgr.prob_matching(fdd, &long.input, &long.accept)
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

/// The model's loop body, built the way a cold compile builds it: every
/// switch's fused hop, assembled into the `sw`-case chain.
fn fused_body(mgr: &Manager, model: &NetworkModel) -> Fdd {
    let sp = ShortestPaths::towards(&model.topo, model.dst);
    let switches = model.topo.switches();
    let inputs: Vec<_> = switches
        .iter()
        .map(|&s| hop_inputs(model, s, &sp))
        .collect();
    let opts = CompileOptions::default();
    let hops = compile_hops(mgr, &inputs, 1, &opts, &mut FusedStats::default()).unwrap();
    let by_switch: HashMap<_, _> = switches.iter().copied().zip(hops).collect();
    assemble_chain(mgr, model, |s| Ok(by_switch[&s])).unwrap()
}

/// The model tail alone ([`assemble_tail`]: ingress and guard predicates,
/// the do-while `ite`, port normalisation and the local wrappers) on fat
/// trees with 1280 and 2000 switches, where the `sw` case spines it merges
/// are longest. The loop body and the solved loop are compiled once,
/// outside the timed region; each sample imports them into a fresh
/// manager (untimed) and times the tail there.
fn bench_model_tail(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("model_tail");
    group.sample_size(10);
    let opts = CompileOptions::default();
    for p in [32usize, 40] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        let failure = FailureSpec::independent(Ratio::new(1, 1000));
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, failure);
        let mgr = Manager::new();
        let body = fused_body(&mgr, &model);
        let guard = mgr.compile_pred(&model.guard());
        let loop_fdd = mgr.while_loop(guard, body, &opts).unwrap();
        let parts = mgr.export_all(&[body, loop_fdd]);
        group.bench_with_input(BenchmarkId::new("ecmp_f1000", p), &parts, |b, parts| {
            b.iter_batched(
                || {
                    let mgr = Manager::new();
                    let roots = mgr.import_all(parts);
                    (mgr, roots)
                },
                |(mgr, roots)| {
                    let tail = assemble_tail(&mgr, &model, roots[0], roots[1], &opts).unwrap();
                    (mgr, tail)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// The per-switch hop compile alone: [`compile_hops`] with one worker into
/// a fresh manager, i.e. every switch's route compile and failure sum. The
/// [`hop_inputs`] are built once, outside the timed region, and each
/// sample's manager is made and dropped untimed. The F10₃,₅ row sums the
/// same arm diagrams over many failure subsets, which the `sum` memo
/// shares across calls.
fn bench_hop_compile(c: &mut Criterion) {
    assert_audit_off();
    let mut group = c.benchmark_group("hop_compile");
    group.sample_size(10);
    let opts = CompileOptions::default();
    for (label, p, topo, scheme) in [
        (
            "fattree_ecmp_f1000",
            16usize,
            fattree(16),
            RoutingScheme::Ecmp,
        ),
        (
            "ab_fattree_f10_3_5_f1000",
            8,
            ab_fattree(8),
            RoutingScheme::F10_3_5,
        ),
    ] {
        let dst = topo.find("edge0_0").unwrap();
        let failure = FailureSpec::independent(Ratio::new(1, 1000));
        let model = NetworkModel::new(topo, dst, scheme, failure);
        let sp = ShortestPaths::towards(&model.topo, model.dst);
        let inputs: Vec<_> = model
            .topo
            .switches()
            .iter()
            .map(|&s| hop_inputs(&model, s, &sp))
            .collect();
        group.bench_with_input(BenchmarkId::new(label, p), &inputs, |b, inputs| {
            b.iter_batched(
                Manager::new,
                |mgr| {
                    let mut stats = FusedStats::default();
                    let hops = compile_hops(&mgr, inputs, 1, &opts, &mut stats).unwrap();
                    (mgr, hops)
                },
                BatchSize::LargeInput,
            )
        });
    }
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

/// The compiler's loop solve (sparse SCC) on a 3-hop chain, and
/// `while_loop` alone on fat-tree loop bodies: exploration, chain build,
/// solve and leaf build. The body and guard are compiled once, outside the
/// timed region; each sample imports them into a fresh manager (untimed),
/// where the `while` cache cannot answer.
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
    let pr = Ratio::new(1, 1000);
    for (label, p, failure) in [
        (
            "fattree_ecmp_f1000",
            16usize,
            FailureSpec::independent(pr.clone()),
        ),
        (
            "fattree_ecmp_f1000",
            32,
            FailureSpec::independent(pr.clone()),
        ),
        ("fattree_ecmp_k1", 12, FailureSpec::bounded(pr.clone(), 1)),
    ] {
        let topo = fattree(p);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, failure);
        let mgr = Manager::new();
        let body = fused_body(&mgr, &model);
        let guard = mgr.compile_pred(&model.guard());
        let parts = mgr.export_all(&[guard, body]);
        group.bench_with_input(BenchmarkId::new(label, p), &parts, |b, parts| {
            b.iter_batched(
                || {
                    let mgr = Manager::new();
                    let roots = mgr.import_all(parts);
                    (mgr, roots)
                },
                |(mgr, roots)| {
                    let opts = CompileOptions::default();
                    let solved = mgr.while_loop(roots[0], roots[1], &opts).unwrap();
                    (mgr, solved)
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// [`Engine::recover`] on a 100-delta journal: fattree(8), ECMP with
/// independent 1/1000 failures, loaded once, then single-switch scheme
/// flaps and a link-probability flap, applied and reverted in turn. The
/// journal is written once, outside the timed region; each sample times
/// one recovery (replay plus the cold re-verification of the model) and
/// drops the engine untimed. This is the slope behind the snapshot
/// cadence advice in the README.
fn bench_serve_recovery(c: &mut Criterion) {
    assert_audit_off();
    const DELTAS: usize = 100;
    let mut group = c.benchmark_group("serve_recovery");
    group.sample_size(10);
    let topo = fattree(8);
    let dst = topo.find("edge0_0").unwrap();
    let failure = FailureSpec::independent(Ratio::new(1, 1000));
    let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, failure);
    let mut flaps: Vec<(Delta, Delta)> = ["core0", "core1", "agg0_0", "agg1_0"]
        .iter()
        .map(|name| {
            let s = model.topo.find(name).unwrap();
            (
                Delta::SetSwitchScheme(s, RoutingScheme::F10_3),
                Delta::ClearSwitchScheme(s),
            )
        })
        .collect();
    let port = model.prone_ports(model.topo.switches()[0])[0];
    flaps.push((
        Delta::SetLinkPr(port, Ratio::new(1, 10)),
        Delta::ClearLinkPr(port),
    ));
    let dir = std::env::temp_dir().join(format!("mcnetkat-bench-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut engine = Engine::with_journal(EngineConfig::default(), &dir).unwrap();
    let id = engine.load(model).unwrap();
    for step in 0..DELTAS {
        let (apply, revert) = &flaps[step % flaps.len()];
        let d = if (step / flaps.len()).is_multiple_of(2) {
            apply
        } else {
            revert
        };
        engine.apply(id, d.clone()).unwrap();
    }
    drop(engine);
    group.bench_with_input(
        BenchmarkId::new("replay_100", "fattree8"),
        &dir,
        |b, dir| {
            b.iter_batched(
                || (),
                |()| {
                    let (engine, report) = Engine::recover(EngineConfig::default(), dir).unwrap();
                    assert_eq!(report.records_replayed, DELTAS as u64 + 1);
                    engine
                },
                BatchSize::LargeInput,
            )
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_fattree_compile,
    bench_fattree_srlg,
    bench_chain_engines,
    bench_model_tail,
    bench_hop_compile,
    bench_solver_backends,
    bench_loop_solving,
    bench_serve_recovery
);
criterion_main!(benches);

//! `netlint` — runs the static linter over every model the repository
//! ships (the §2 running example, the fattree(4) scheme/failure matrix,
//! the SRLG line-card scenario, the chain-of-diamonds benchmark) and
//! reports `NL0xx` diagnostics.
//!
//! Exits nonzero when any error-severity finding is reported; pass
//! `--deny-warnings` to fail on warnings too. CI runs this as a blocking
//! job.

use mcnetkat_analysis::{lint_model, lint_program, LintConfig, LintReport};
use mcnetkat_net::{
    chain_benchmark, running_example, FailureSpec, NetworkModel, RoutingScheme, Srlg,
};
use mcnetkat_num::Ratio;
use mcnetkat_topo::ab_fattree;
use std::collections::BTreeSet;

fn main() {
    let deny_warnings = std::env::args().any(|a| a == "--deny-warnings");
    let mut report = LintReport::default();
    let mut targets = 0usize;
    let mut run = |name: &str, sub: LintReport| {
        targets += 1;
        if !sub.is_clean() {
            eprintln!("netlint: {name}:");
            eprint!("{sub}");
        }
        report.merge(sub);
    };

    // The §2 running example: both policies under all three failure
    // models, plus the teleport specification.
    let ex = running_example();
    let mut cfg = LintConfig {
        input_fields: [ex.fields.sw, ex.fields.pt].into_iter().collect(),
        scratch_fields: [ex.fields.up(2), ex.fields.up(3)].into_iter().collect(),
        ..LintConfig::default()
    };
    let sw_dom: BTreeSet<u32> = [1, 2, 3].into_iter().collect();
    cfg.field_domains.insert(ex.fields.sw, sw_dom.clone());
    cfg.assign_domains.insert(ex.fields.sw, sw_dom);
    for (policy, pname) in [(&ex.naive, "naive"), (&ex.resilient, "resilient")] {
        for (failure, fname) in [(&ex.f0, "f0"), (&ex.f1, "f1"), (&ex.f2, "f2")] {
            let name = format!("sec2-{pname}-{fname}");
            run(&name, lint_program(&name, &ex.model(policy, failure), &cfg));
        }
    }
    run(
        "sec2-teleport",
        lint_program("sec2-teleport", &ex.teleport(), &cfg),
    );

    // The fattree(4) scheme × failure matrix the figures sweep.
    let pr = Ratio::new(1, 1000);
    let schemes = [
        (RoutingScheme::Ecmp, "ecmp"),
        (RoutingScheme::F10_3, "f10_3"),
        (RoutingScheme::F10_3_5, "f10_3_5"),
    ];
    let failures = [
        (FailureSpec::none(), "none"),
        (FailureSpec::independent(pr.clone()), "independent"),
        (FailureSpec::bounded(pr.clone(), 1), "bounded"),
    ];
    for (scheme, sname) in schemes {
        for (failure, fname) in &failures {
            let topo = ab_fattree(4);
            let dst = topo.find("edge0_0").unwrap();
            let model = NetworkModel::new(topo, dst, scheme, failure.clone());
            let name = format!("fattree4-{sname}-{fname}");
            run(&name, lint_model(&name, &model));
        }
    }

    // A hop-capped model (the Figure 12 b/c path-stretch construction).
    {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let model = NetworkModel::new(
            topo,
            dst,
            RoutingScheme::F10_3,
            FailureSpec::independent(pr.clone()),
        )
        .with_hop_cap(8);
        run("fattree4-hopcap", lint_model("fattree4-hopcap", &model));
    }

    // The correlated SRLG scenario: one line-card group per switch.
    {
        let topo = ab_fattree(4);
        let dst = topo.find("edge0_0").unwrap();
        let cards = Srlg::linecards(&topo, &pr);
        let spec = FailureSpec::independent(pr.clone()).with_groups(cards);
        let model = NetworkModel::new(topo, dst, RoutingScheme::F10_3, spec);
        run("fattree4-srlg", lint_model("fattree4-srlg", &model));
    }

    // The chain-of-diamonds benchmark program (Figure 9/10).
    {
        let bench = chain_benchmark(4, Ratio::new(1, 1000));
        let mut cfg = LintConfig {
            input_fields: [bench.fields.sw, bench.fields.pt].into_iter().collect(),
            scratch_fields: bench.fields.ups().iter().copied().collect(),
            ..LintConfig::default()
        };
        let sw_dom: BTreeSet<u32> = bench
            .topo
            .switches()
            .iter()
            .map(|&s| bench.topo.sw_value(s))
            .collect();
        cfg.field_domains.insert(bench.fields.sw, sw_dom.clone());
        cfg.assign_domains.insert(bench.fields.sw, sw_dom);
        run("chain4", lint_program("chain4", &bench.program, &cfg));
    }

    let errors = report.errors().count();
    let warnings = report.warnings().count();
    println!("netlint: {targets} targets, {errors} errors, {warnings} warnings");
    if errors > 0 || (deny_warnings && warnings > 0) {
        std::process::exit(1);
    }
}

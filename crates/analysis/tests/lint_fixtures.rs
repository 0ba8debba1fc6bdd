//! One failing fixture per lint code (the code's contract: each `NL0xx`
//! is demonstrated by a minimal program or model that triggers it and
//! nothing else relevant), plus clean runs over the shipped §2 example
//! and fattree(4) models — the same targets `netlint` gates in CI.

use mcnetkat_analysis::{
    lint_model, lint_program, lint_switch_program, LintCode, LintConfig, LintReport, Severity,
};
use mcnetkat_core::{Field, Pred, Prog};
use mcnetkat_net::{down_ports, running_example, FailureSpec, NetworkModel, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, Level, Topology};
use std::collections::BTreeSet;

fn f(name: &str) -> Field {
    Field::named(name)
}

fn has(report: &LintReport, code: LintCode) -> bool {
    report.with_code(code).next().is_some()
}

#[test]
fn nl001_test_before_assignment() {
    // A nonzero test of a field nothing could have assigned.
    let prog = Prog::test(f("x"), 1).seq(Prog::assign(f("y"), 1));
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(has(&report, LintCode::TestBeforeAssign), "{report}");
    // Declaring the field an input silences it.
    let mut cfg = LintConfig::default();
    cfg.input_fields.insert(f("x"));
    let report = lint_program("t", &prog, &cfg);
    assert!(!has(&report, LintCode::TestBeforeAssign), "{report}");
    // A zero test is fine: unset fields read as zero.
    let zero = Prog::test(f("x"), 0);
    let report = lint_program("t", &zero, &LintConfig::default());
    assert!(report.is_clean(), "{report}");
}

#[test]
fn nl002_write_only_field() {
    let prog = Prog::assign(f("x"), 1).seq(Prog::test(f("y"), 0));
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(has(&report, LintCode::WriteOnlyField), "{report}");
    // Output, input, and scratch declarations all silence it.
    for role in ["output", "input", "scratch"] {
        let mut cfg = LintConfig::default();
        match role {
            "output" => cfg.output_fields.insert(f("x")),
            "input" => cfg.input_fields.insert(f("x")),
            _ => cfg.scratch_fields.insert(f("x")),
        };
        let report = lint_program("t", &prog, &cfg);
        assert!(
            !has(&report, LintCode::WriteOnlyField),
            "as {role}: {report}"
        );
    }
}

#[test]
fn nl003_scratch_escape() {
    let mut cfg = LintConfig::default();
    cfg.scratch_fields.insert(f("up"));
    cfg.scratch_dead_at_exit = true;
    // Escapes: the hop ends with the scratch field still set.
    let leak = Prog::assign(f("up"), 1);
    let report = lint_program("t", &leak, &cfg);
    assert!(has(&report, LintCode::ScratchEscape), "{report}");
    assert_eq!(LintCode::ScratchEscape.severity(), Severity::Error);
    // May-escape: set on one branch only.
    let maybe = Prog::ite(Pred::test(f("g"), 0), leak.clone(), Prog::skip());
    let report = lint_program("t", &maybe, &cfg);
    assert!(has(&report, LintCode::ScratchEscape), "{report}");
    // Erased before exit: clean.
    let erased = leak.seq(Prog::assign(f("up"), 0));
    let report = lint_program("t", &erased, &cfg);
    assert!(!has(&report, LintCode::ScratchEscape), "{report}");
}

#[test]
fn nl004_dead_test() {
    // Outside the declared domain: `sw = 99` with three switches.
    let mut cfg = LintConfig::default();
    cfg.input_fields.insert(f("sw"));
    cfg.field_domains
        .insert(f("sw"), [1u32, 2, 3].into_iter().collect());
    let prog = Prog::test(f("sw"), 99);
    let report = lint_program("t", &prog, &cfg);
    assert!(has(&report, LintCode::DeadTest), "{report}");
    // Constant contradiction: assigned 1, tested 2.
    let prog = Prog::assign(f("x"), 1).seq(Prog::test(f("x"), 2));
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(has(&report, LintCode::DeadTest), "{report}");
    // Consistent constant: clean.
    let prog = Prog::assign(f("x"), 1).seq(Prog::test(f("x"), 1));
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(!has(&report, LintCode::DeadTest), "{report}");
}

#[test]
fn nl005_assign_out_of_domain() {
    let mut cfg = LintConfig::default();
    cfg.assign_domains
        .insert(f("pt"), [1u32, 2].into_iter().collect());
    let report = lint_program("t", &Prog::assign(f("pt"), 9), &cfg);
    assert!(has(&report, LintCode::AssignOutOfDomain), "{report}");
    let report = lint_program("t", &Prog::assign(f("pt"), 2), &cfg);
    assert!(!has(&report, LintCode::AssignOutOfDomain), "{report}");
}

#[test]
fn nl005_switch_program_forwarding_to_absent_port() {
    // A hand-written forwarding program that sends packets to a port the
    // switch does not have — checked through the public per-switch hook
    // (`NetworkModel` construction would never produce such a scheme).
    let topo = ab_fattree(4);
    let s = topo.find("edge0_0").unwrap();
    let model = NetworkModel::new(topo, s, RoutingScheme::Ecmp, FailureSpec::none());
    let absent = 1 + model.topo.ports(s).iter().map(|pp| pp.port).max().unwrap();
    let bogus = Prog::assign(model.fields.pt, absent);
    let report = lint_switch_program(&model.topo, s, &model.fields, &bogus);
    assert!(has(&report, LintCode::AssignOutOfDomain), "{report}");
    // Every real scheme's per-switch program is in-domain.
    let wired = Prog::assign(model.fields.pt, model.topo.ports(s)[0].port);
    let report = lint_switch_program(&model.topo, s, &model.fields, &wired);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn nl006_unreachable_switch() {
    // Two linked edge switches plus an island aggregation switch no
    // ingress can reach.
    let mut topo = Topology::new();
    let a = topo.add_switch("edge_a", Level::Edge);
    let b = topo.add_switch("edge_b", Level::Edge);
    topo.add_switch("island", Level::Agg);
    topo.link(a, b);
    let model = NetworkModel::new(topo, b, RoutingScheme::Ecmp, FailureSpec::none());
    let report = lint_model("toy", &model);
    let finding = report
        .with_code(LintCode::UnreachableSwitch)
        .next()
        .unwrap_or_else(|| panic!("expected NL006, got: {report}"));
    assert!(finding.at.contains("island"), "{finding}");
}

#[test]
fn nl007_undrawn_link() {
    // A per-link override of zero: the port stays failure-prone (the
    // model draws and tests it) but the draw always comes up healthy.
    let topo = ab_fattree(4);
    let dst = topo.find("edge0_0").unwrap();
    let agg = topo.find("agg0_0").unwrap();
    let port = down_ports(&topo, agg)[0];
    let spec = FailureSpec::independent(Ratio::new(1, 100)).with_link_pr(port, Ratio::zero());
    let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, spec);
    let report = lint_model("toy", &model);
    assert!(has(&report, LintCode::UndrawnLink), "{report}");
    // A zero-probability group is flagged the same way.
    let topo = ab_fattree(4);
    let agg = topo.find("agg0_0").unwrap();
    let spec = FailureSpec::independent(Ratio::new(1, 100))
        .with_group(mcnetkat_net::Srlg::down_links_of(&topo, agg, Ratio::zero()));
    let model = NetworkModel::new(topo, dst, RoutingScheme::Ecmp, spec);
    let report = lint_model("toy", &model);
    let finding = report.with_code(LintCode::UndrawnLink).next().unwrap();
    assert!(finding.message.contains("linecard"), "{finding}");
}

#[test]
fn nl008_mass_loss() {
    let prog = Prog::choice2(Prog::drop(), Ratio::new(1, 2), Prog::skip());
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(has(&report, LintCode::MassLoss), "{report}");
    // A zero-probability drop branch carries no mass: clean.
    let prog = Prog::choice2(Prog::drop(), Ratio::zero(), Prog::skip());
    let report = lint_program("t", &prog, &LintConfig::default());
    assert!(!has(&report, LintCode::MassLoss), "{report}");
}

#[test]
fn nl009_divergent_loop() {
    // The body neither assigns the guard field nor drops: no absorption.
    let diverge = Prog::while_(Pred::test(f("g"), 0), Prog::assign(f("x"), 1));
    let mut cfg = LintConfig::default();
    cfg.input_fields.insert(f("g"));
    let report = lint_program("t", &diverge, &cfg);
    assert!(has(&report, LintCode::DivergentLoop), "{report}");
    assert_eq!(LintCode::DivergentLoop.severity(), Severity::Error);
    // Assigning the guard field makes termination possible.
    let ok = Prog::while_(Pred::test(f("g"), 0), Prog::assign(f("g"), 1));
    let report = lint_program("t", &ok, &cfg);
    assert!(!has(&report, LintCode::DivergentLoop), "{report}");
    // So does a possible drop (absorption into the dead state).
    let lossy_body = Prog::choice2(Prog::drop(), Ratio::new(1, 2), Prog::assign(f("x"), 1));
    let lossy = Prog::while_(Pred::test(f("g"), 0), lossy_body);
    let report = lint_program("t", &lossy, &cfg);
    assert!(!has(&report, LintCode::DivergentLoop), "{report}");
}

#[test]
fn lint_codes_are_stable() {
    let all = [
        (LintCode::TestBeforeAssign, "NL001"),
        (LintCode::WriteOnlyField, "NL002"),
        (LintCode::ScratchEscape, "NL003"),
        (LintCode::DeadTest, "NL004"),
        (LintCode::AssignOutOfDomain, "NL005"),
        (LintCode::UnreachableSwitch, "NL006"),
        (LintCode::UndrawnLink, "NL007"),
        (LintCode::MassLoss, "NL008"),
        (LintCode::DivergentLoop, "NL009"),
    ];
    for (code, s) in all {
        assert_eq!(code.code(), s);
    }
}

/// The §2 running example config, mirroring `netlint`.
fn sec2_config() -> (mcnetkat_net::RunningExample, LintConfig) {
    let ex = running_example();
    let mut cfg = LintConfig {
        input_fields: [ex.fields.sw, ex.fields.pt].into_iter().collect(),
        scratch_fields: [ex.fields.up(2), ex.fields.up(3)].into_iter().collect(),
        ..LintConfig::default()
    };
    let dom: BTreeSet<u32> = [1, 2, 3].into_iter().collect();
    cfg.field_domains.insert(ex.fields.sw, dom.clone());
    cfg.assign_domains.insert(ex.fields.sw, dom);
    (ex, cfg)
}

#[test]
fn sec2_example_lints_clean() {
    let (ex, cfg) = sec2_config();
    for policy in [&ex.naive, &ex.resilient] {
        for failure in [&ex.f0, &ex.f1, &ex.f2] {
            let report = lint_program("sec2", &ex.model(policy, failure), &cfg);
            assert!(report.is_clean(), "{report}");
        }
    }
    let report = lint_program("sec2", &ex.teleport(), &cfg);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn fattree4_models_lint_clean() {
    let pr = Ratio::new(1, 1000);
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        for failure in [
            FailureSpec::none(),
            FailureSpec::independent(pr.clone()),
            FailureSpec::bounded(pr.clone(), 1),
        ] {
            let topo = ab_fattree(4);
            let dst = topo.find("edge0_0").unwrap();
            let model = NetworkModel::new(topo, dst, scheme, failure);
            let report = lint_model("fattree4", &model);
            assert!(report.is_clean(), "{scheme:?}: {report}");
        }
    }
}

//! Symmetry lumping is invisible in the answers: compiling with the
//! quotiented loop solve (`lumping: true`, the default) must produce a
//! diagram `equiv` to — and refining, both ways — the unquotiented solve
//! on real network models, with exactly equal delivery probabilities.
//!
//! Fat-trees are the interesting case: their pods are isomorphic, so the
//! lumped chain is a fraction of the size of the raw one (the stats
//! assertions pin that the quotient actually engages rather than
//! trivially holding because nothing lumped).

use mcnetkat_fdd::{CompileOptions, Manager};
use mcnetkat_net::{running_example, FailureSpec, NetworkModel, Queries, RoutingScheme};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{fattree, Topology};

fn opts(lumping: bool) -> CompileOptions {
    CompileOptions {
        lumping,
        ..CompileOptions::default()
    }
}

/// Compiles `model` with and without lumping (same manager, exact solver
/// both times) and pins equivalence, refinement both ways, and exact
/// delivery-probability equality from every ingress.
fn assert_quotient_invisible(model: &NetworkModel) {
    let mgr = Manager::new();
    let lumped = Queries::with_options(&mgr, model, &opts(true)).unwrap();
    let stats = mgr.loop_solve_stats();
    assert!(
        stats.lumped_blocks < stats.transient_states,
        "lumping should engage on a symmetric fat-tree: {} blocks from {} states",
        stats.lumped_blocks,
        stats.transient_states,
    );
    let plain = Queries::with_options(&mgr, model, &opts(false)).unwrap();
    assert!(
        mgr.equiv(lumped.fdd(), plain.fdd()),
        "quotiented compile ≢ unquotiented"
    );
    assert!(
        lumped.refines(&plain) && plain.refines(&lumped),
        "refinement must hold both ways"
    );
    for src in model.ingresses() {
        assert_eq!(
            lumped.delivery_prob(src),
            plain.delivery_prob(src),
            "delivery from {src:?} must be bit-identical"
        );
    }
}

fn fattree_model(p: usize) -> (NetworkModel, Topology) {
    let topo = fattree(p);
    let dst = topo.find("edge0_0").unwrap();
    let m = NetworkModel::new(
        topo.clone(),
        dst,
        RoutingScheme::Ecmp,
        FailureSpec::independent(Ratio::new(1, 1000)),
    );
    (m, topo)
}

#[test]
fn fattree4_quotiented_equals_unquotiented() {
    let (m, _) = fattree_model(4);
    assert_quotient_invisible(&m);
}

#[test]
fn fattree6_quotiented_equals_unquotiented() {
    let (m, _) = fattree_model(6);
    assert_quotient_invisible(&m);
}

/// The §2 running example end to end: quotiented ≡ unquotiented, and both
/// still hit the paper's exact 24/25 delivery for the resilient scheme
/// under `f2` (a number a float solve can only approximate).
#[test]
fn sec2_example_quotient_invisible_and_exact() {
    let ex = running_example();
    let prog = ex.model(&ex.resilient, &ex.f2);
    let mgr = Manager::new();
    let lumped = mgr.compile_with(&prog, &opts(true)).unwrap();
    let plain = mgr.compile_with(&prog, &opts(false)).unwrap();
    assert!(mgr.equiv(lumped, plain));
    assert!(mgr.less_eq(lumped, plain) && mgr.less_eq(plain, lumped));
    let pk = ex.ingress_packet();
    assert_eq!(mgr.prob_delivery(lumped, &pk), Ratio::new(24, 25));
    assert_eq!(mgr.prob_delivery(plain, &pk), Ratio::new(24, 25));
}

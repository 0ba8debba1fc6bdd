//! The aggregate queries over every ingress — `min_delivery`,
//! `delivery_avg` and `hop_stats_avg`, one walk over the model's `sw`
//! case spine — against the per-ingress references they replace:
//! `prob_delivery` and `output_dist` on each ingress packet, evaluated
//! from the root, aggregated exactly.

use mcnetkat_fdd::Manager;
use mcnetkat_net::{FailureSpec, HopStats, NetworkModel, Queries, RoutingScheme, Srlg};
use mcnetkat_num::Ratio;
use mcnetkat_topo::{ab_fattree, Topology};

const HOP_CAP: u32 = 10;

fn specs(topo: &Topology) -> Vec<(&'static str, FailureSpec)> {
    let pr = Ratio::new(1, 8);
    vec![
        ("independent", FailureSpec::independent(pr.clone())),
        (
            "line-card SRLGs",
            FailureSpec::independent(Ratio::zero()).with_groups(Srlg::linecards(topo, &pr)),
        ),
        ("bounded k=1", FailureSpec::bounded(pr, 1)),
    ]
}

/// Hop statistics averaged over every ingress, from each ingress's output
/// distribution.
fn reference_hop_stats(mgr: &Manager, q: &Queries<'_>, m: &NetworkModel) -> HopStats {
    let mut by_hops = vec![Ratio::zero(); HOP_CAP as usize + 1];
    let sources = m.ingresses();
    for &src in &sources {
        for (out, r) in mgr.output_dist(q.fdd(), &q.ingress_packet(src)) {
            if let Some(pk) = out {
                by_hops[pk.get(m.fields.cnt).min(HOP_CAP) as usize] += &r;
            }
        }
    }
    let n = Ratio::from_integer(sources.len() as i64);
    let by_hops: Vec<Ratio> = by_hops.into_iter().map(|p| p / &n).collect();
    let mut cdf = Vec::new();
    let mut delivery = Ratio::zero();
    let mut weighted = Ratio::zero();
    for (h, p) in by_hops.iter().enumerate() {
        delivery += p;
        weighted += &(Ratio::from_integer(h as i64) * p);
        cdf.push((h as u32, delivery.clone()));
    }
    let expected_hops = if delivery.is_zero() {
        Ratio::zero()
    } else {
        weighted / &delivery
    };
    HopStats {
        cdf,
        delivery,
        expected_hops,
    }
}

fn check(k: usize) {
    let topo = ab_fattree(k);
    let dst = topo.find("edge0_0").unwrap();
    for scheme in [
        RoutingScheme::Ecmp,
        RoutingScheme::F10_3,
        RoutingScheme::F10_3_5,
    ] {
        for (name, spec) in specs(&topo) {
            let m = NetworkModel::new(topo.clone(), dst, scheme, spec).with_hop_cap(HOP_CAP);
            let mgr = Manager::new();
            let q = Queries::new(&mgr, &m).unwrap();
            let case = format!("fattree({k}), {}, {name}", scheme.name());
            let each: Vec<Ratio> = m
                .ingresses()
                .into_iter()
                .map(|s| mgr.prob_delivery(q.fdd(), &q.ingress_packet(s)))
                .collect();
            let min = each.iter().min().unwrap().clone();
            let avg = each.iter().sum::<Ratio>() / Ratio::from_integer(each.len() as i64);
            assert_eq!(q.min_delivery(), min, "{case}: min_delivery");
            assert_eq!(q.delivery_avg(), avg, "{case}: delivery_avg");
            let stats = q.hop_stats_avg();
            assert_eq!(
                stats,
                reference_hop_stats(&mgr, &q, &m),
                "{case}: hop_stats_avg"
            );
            assert_eq!(stats.delivery, avg, "{case}: hop_stats_avg delivery");
            let src = m.ingresses()[0];
            assert_eq!(q.hop_stats(src).delivery, each[0], "{case}: hop_stats");
        }
    }
}

#[test]
fn aggregates_equal_per_ingress_queries_on_fattree4() {
    check(4);
}

#[test]
fn aggregates_equal_per_ingress_queries_on_fattree6() {
    check(6);
}

//! Integration tests replaying every worked example of the paper.

use ppdc::migration::{mpareto, optimal_migration};
use ppdc::model::{chain_cost, comm_cost, migration_cost, total_cost, Placement, Sfc, Workload};
use ppdc::placement::{dp_placement, optimal_placement, top1_dp, top1_optimal, AttachAggregates};
use ppdc::stroll::{dp_stroll, optimal_stroll, StrollInstance};
use ppdc::topology::{builders::linear, DistanceMatrix, FatTree, Graph, MetricClosure, NodeId};

/// Example 1 (Fig. 3): the k = 2 fat tree is the 5-switch linear PPDC.
/// Initial placement costs 410; the rate swap raises it to 1004; migrating
/// (f1 → s5, f2 → s4) costs 6 and lands at 416 — a 58.6 % reduction.
#[test]
fn example1_full_story() {
    let (g, h1, h2) = linear(5).unwrap();
    let dm = DistanceMatrix::build(&g);
    let mut w = Workload::new();
    w.add_pair(h1, h1, 100);
    w.add_pair(h2, h2, 1);
    let sfc = Sfc::of_len(2).unwrap();

    let (p, c) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
    assert_eq!(c, 410);
    let agg = AttachAggregates::build(&g, &dm, &w);
    let (_, c_opt, exactness) = optimal_placement(
        &dm,
        &w,
        &sfc,
        &agg,
        ppdc::placement::optimal::DEFAULT_BUDGET,
    )
    .unwrap();
    assert!(exactness.is_exact());
    assert_eq!(c_opt, 410, "DP finds the optimum here");

    w.set_rates(&[1, 100]).unwrap();
    assert_eq!(comm_cost(&dm, &w, &p), 1004);

    let out = mpareto(
        &g,
        &dm,
        &w,
        &sfc,
        &p,
        1,
        &AttachAggregates::build(&g, &dm, &w),
    )
    .unwrap();
    assert_eq!(out.migration_cost, 6);
    assert_eq!(out.comm_cost, 410);
    assert_eq!(out.total_cost, 416);
    let reduction: f64 = (1004.0 - 416.0) / 1004.0;
    assert!((reduction - 0.586).abs() < 0.001, "58.6% reduction");

    // The exact TOM search agrees.
    let agg = AttachAggregates::build(&g, &dm, &w);
    let (opt, exactness) = optimal_migration(
        &dm,
        &sfc,
        &p,
        1,
        Some(&out.migration),
        ppdc::migration::optimal::DEFAULT_BUDGET,
        &agg,
    )
    .unwrap();
    assert!(exactness.is_exact());
    assert_eq!(opt.total_cost, 416);
}

/// Example 2 (Fig. 4): the DP on the metric closure finds the cost-6
/// 2-stroll (the walk s, D, t, C, t — s, D, C, t in the closure), not the
/// cost-7 path s, A, B, t.
#[test]
fn example2_dp_on_closure() {
    let mut g = Graph::new();
    let s = g.add_switch("s");
    let a = g.add_switch("A");
    let b = g.add_switch("B");
    let c = g.add_switch("C");
    let d = g.add_switch("D");
    let t = g.add_switch("t");
    g.add_edge(s, a, 2).unwrap();
    g.add_edge(a, b, 3).unwrap();
    g.add_edge(b, t, 2).unwrap();
    g.add_edge(s, d, 2).unwrap();
    g.add_edge(d, t, 2).unwrap();
    g.add_edge(t, c, 1).unwrap();
    let dm = DistanceMatrix::build(&g);
    let mc = MetricClosure::over(&dm, &[s, a, b, c, d, t]);
    let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
    let dp = dp_stroll(&inst).unwrap();
    assert_eq!(dp.cost, 6);
    assert_eq!(dp.distinct, vec![d, c]);
    let (opt, exactness) = optimal_stroll(&inst, ppdc::stroll::exact::DEFAULT_BUDGET);
    assert!(exactness.is_exact());
    assert_eq!(opt.cost, 6, "the DP solution is optimal (Theorem 3 case)");
}

/// Example 3 (Fig. 2): placing 7 VNFs between two hosts in different pods
/// of the k = 4 fat-tree yields an 8-edge path through 7 distinct switches
/// (the looping 8-edge walk only reaches 5 distinct switches and loses).
#[test]
fn example3_seven_stroll() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let h4 = ft.rack(1)[1];
    let h5 = ft.rack(2)[0];
    let dp = top1_dp(g, &dm, h4, h5, 1, 7).unwrap();
    assert_eq!(dp.comm_cost, 8);
    assert_eq!(dp.placement.len(), 7);
    let opt = top1_optimal(g, &dm, h4, h5, 1, 7, u64::MAX).unwrap();
    assert_eq!(opt.comm_cost, 8);
}

/// Theorem 1: TOP-1 is the n-stroll problem — the placement induced by the
/// optimal stroll has exactly the stroll's cost on the linear PPDC (where
/// optimal strolls are simple paths).
#[test]
fn theorem1_equivalence_on_linear() {
    let (g, h1, h2) = linear(6).unwrap();
    let dm = DistanceMatrix::build(&g);
    for n in 1..=6 {
        let sol = top1_optimal(&g, &dm, h1, h2, 3, n, u64::MAX).unwrap();
        assert_eq!(sol.comm_cost, sol.stroll_cost, "n={n}");
        // Check against a hand-built placement on the first n switches.
        let switches: Vec<NodeId> = g.switches().take(n).collect();
        let sfc = Sfc::of_len(n).unwrap();
        let manual = Placement::new(&g, &sfc, switches).unwrap();
        let manual_cost = ppdc::model::comm_cost_flow(&dm, h1, h2, 3, &manual);
        assert!(sol.comm_cost <= manual_cost);
    }
}

/// Theorem 4: TOM with μ = 0 is TOP — Eq. 8 degenerates to Eq. 1.
#[test]
fn theorem4_mu_zero() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let hosts: Vec<NodeId> = g.hosts().collect();
    let mut w = Workload::new();
    w.add_pair(hosts[0], hosts[3], 11);
    w.add_pair(hosts[8], hosts[14], 70);
    let sfc = Sfc::of_len(3).unwrap();
    let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    w.set_rates(&[70, 11]).unwrap();
    // Any migration m: C_t(p, m) with μ=0 equals C_a(m).
    let (m, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    assert_eq!(total_cost(&dm, &w, &p, &m, 0), comm_cost(&dm, &w, &m));
    assert_eq!(migration_cost(&dm, &p, &m, 0), 0);
}

/// The Fig. 2 narrative, scaled to the k = 4 tree: a policy-preserving
/// route through a 3-VNF SFC accumulates attach + chain hops exactly.
#[test]
fn fig2_style_route_accounting() {
    // Reconstruct a comparable situation on the k=4 tree: hosts in one
    // rack, SFC spread over edge/agg/agg switches; the route h → f1 → f2 →
    // f3 → h' accumulates attach + chain hops.
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let h = ft.rack(0)[0];
    let h2 = ft.rack(0)[1];
    let sfc = Sfc::of_len(3).unwrap();
    let edge0 = ft.edge_switches()[0];
    let agg0 = ft.agg_switches()[0];
    let agg1 = ft.agg_switches()[1];
    let p = Placement::new(g, &sfc, vec![edge0, agg0, agg1]).unwrap();
    let cost = ppdc::model::comm_cost_flow(&dm, h, h2, 1, &p);
    // h→edge0 (1) + edge0→agg0 (1) + agg0→agg1 (2) + agg1→h2 (2) = 6.
    assert_eq!(cost, 6);
    assert_eq!(chain_cost(&dm, &p), 3);
}

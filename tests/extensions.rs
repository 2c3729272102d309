//! Integration tests for the future-work extensions (replication and
//! traffic scaling) working against the rest of the stack.

use ppdc::model::{comm_cost, Sfc};
use ppdc::placement::{
    comm_cost_replicated, dp_placement, greedy_replication, optimal_placement,
    optimal_placement_scaled, AttachAggregates, ReplicatedPlacement, TrafficScaling,
};
use ppdc::topology::{DistanceMatrix, FatTree, NodeId};
use ppdc::traffic::standard_workload;

#[test]
fn replication_never_hurts_and_respects_one_vnf_per_switch() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (w, _) = standard_workload(&ft, 10, 0xEE, 0);
    let sfc = Sfc::of_len(3).unwrap();
    let (p, base) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    let (rp, trace) = greedy_replication(g, &dm, &w, &p, 5).unwrap();
    assert_eq!(trace[0], base);
    for pair in trace.windows(2) {
        assert!(pair[1] < pair[0], "greedy only keeps strict improvements");
    }
    assert!(*trace.last().unwrap() <= base);
    // No switch hosts two instances.
    let mut all: Vec<NodeId> = (0..rp.len())
        .flat_map(|j| rp.replicas(j).to_vec())
        .collect();
    let before = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), before, "instances on distinct switches");
    assert_eq!(comm_cost_replicated(&dm, &w, &rp), *trace.last().unwrap());
}

#[test]
fn replication_lower_bounds_any_single_placement() {
    // Per-flow cheapest-replica routing can only improve on routing every
    // flow through the base chain.
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (w, _) = standard_workload(&ft, 8, 0xEF, 1);
    let sfc = Sfc::of_len(2).unwrap();
    let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    let mut rp = ReplicatedPlacement::from_placement(&p);
    let unused: Vec<NodeId> = g.switches().filter(|s| !rp.occupies(*s)).take(2).collect();
    rp.add_replica(g, 0, unused[0]).unwrap();
    rp.add_replica(g, 1, unused[1]).unwrap();
    assert!(comm_cost_replicated(&dm, &w, &rp) <= comm_cost(&dm, &w, &p));
}

#[test]
fn scaled_placement_reduces_to_plain_top_at_identity() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (w, _) = standard_workload(&ft, 6, 0xF0, 0);
    let sfc = Sfc::of_len(3).unwrap();
    let id = TrafficScaling::identity(&sfc);
    let (_, scaled) = optimal_placement_scaled(g, &dm, &w, &sfc, &id, u64::MAX).unwrap();
    let agg = AttachAggregates::build(g, &dm, &w);
    let (_, plain, exactness) = optimal_placement(
        &dm,
        &w,
        &sfc,
        &agg,
        ppdc::placement::optimal::DEFAULT_BUDGET,
    )
    .unwrap();
    assert!(exactness.is_exact());
    assert_eq!(scaled, plain);
}

#[test]
fn filtering_monotonically_reduces_optimal_cost() {
    // Stronger filtering can never make the optimal scaled cost larger.
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (w, _) = standard_workload(&ft, 6, 0xF1, 0);
    let sfc = Sfc::of_len(3).unwrap();
    let mut last = u64::MAX;
    for permille in [1000u32, 800, 500, 200] {
        let sc = TrafficScaling::uniform(&sfc, permille);
        let (_, cost) = optimal_placement_scaled(g, &dm, &w, &sfc, &sc, u64::MAX).unwrap();
        assert!(cost <= last, "σ={permille}: {cost} > {last}");
        last = cost;
    }
}

#[test]
fn workload_rates_do_not_affect_replica_validity() {
    // Replication built for one rate vector stays structurally valid (and
    // evaluable) after the rates churn — the dynamic-experiment contract.
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (mut w, trace) = standard_workload(&ft, 10, 0xF2, 0);
    let sfc = Sfc::of_len(3).unwrap();
    w.set_rates(&trace.rates_at(0)).unwrap();
    let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    let (rp, _) = greedy_replication(g, &dm, &w, &p, 3).unwrap();
    for h in 1..=12 {
        w.set_rates(&trace.rates_at(h)).unwrap();
        let c = comm_cost_replicated(&dm, &w, &rp);
        assert!(c > 0 || w.total_rate() == 0);
    }
}

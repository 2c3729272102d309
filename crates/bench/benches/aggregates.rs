//! Attach-aggregate benchmarks: the epoch-scale hot path.
//!
//! Three comparisons, all on a k = 8 fat-tree (80 switches, 128 hosts):
//!
//! * switch-aggregated [`AttachAggregates::build`] vs the flow-by-flow
//!   oracle — the `O(|flows| + |V_h|·|V_s|)` vs `O(|flows|·|V_s|)` gap,
//! * one hour's host-mass fold ([`AttachAggregates::try_apply_mass_deltas`]
//!   of the hour's masses, as the flow store reports them) vs a full
//!   rebuild — what both epoch engines save on a quiet hour; each fold
//!   starts from a pristine clone of the hour-0 aggregates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_placement::AttachAggregates;
use ppdc_sim::{RateDelta, ShardedFlowStore};
use ppdc_topology::{DistanceMatrix, FatTree};
use ppdc_traffic::standard_workload;
use std::time::Duration;

fn bench_build_vs_flow_by_flow(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregates_build_k8");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let ft = FatTree::build(8).unwrap();
    let dm = DistanceMatrix::build(ft.graph());
    for flows in [1_000usize, 10_000] {
        let (w, _) = standard_workload(&ft, flows, 7, 0);
        group.bench_with_input(BenchmarkId::new("switch_aggregated", flows), &w, |b, w| {
            b.iter(|| AttachAggregates::build(ft.graph(), &dm, w))
        });
        group.bench_with_input(BenchmarkId::new("flow_by_flow", flows), &w, |b, w| {
            b.iter(|| AttachAggregates::build_flow_by_flow(ft.graph(), &dm, w))
        });
    }
    group.finish();
}

fn bench_epoch_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregates_epoch_update_k8_10k");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let ft = FatTree::build(8).unwrap();
    let dm = DistanceMatrix::build(ft.graph());
    let (mut w, trace) = standard_workload(&ft, 10_000, 7, 0);
    w.set_rates(&trace.rates_at(0)).unwrap();
    let agg0 = AttachAggregates::build(ft.graph(), &dm, &w);
    let deltas: Vec<RateDelta> = trace
        .try_rate_deltas(1)
        .unwrap()
        .into_iter()
        .map(|(flow, delta)| RateDelta { flow, delta })
        .collect();
    let hour1 = ShardedFlowStore::build(ft.graph(), &w)
        .unwrap()
        .ingest(&deltas)
        .unwrap();
    let mut w1 = w.clone();
    w1.set_rates(&trace.rates_at(1)).unwrap();
    group.bench_function("fold_mass_deltas", |b| {
        b.iter(|| {
            let mut agg = agg0.clone();
            agg.try_apply_mass_deltas(&dm, &hour1.masses, hour1.total_delta)
                .unwrap();
            agg
        })
    });
    group.bench_function("rebuild_from_scratch", |b| {
        b.iter(|| AttachAggregates::build(ft.graph(), &dm, &w1))
    });
    group.bench_function("rebuild_flow_by_flow", |b| {
        b.iter(|| AttachAggregates::build_flow_by_flow(ft.graph(), &dm, &w1))
    });
    group.finish();
}

criterion_group!(benches, bench_build_vs_flow_by_flow, bench_epoch_update);
criterion_main!(benches);

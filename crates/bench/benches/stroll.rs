//! TOP-1 solver benchmarks (the Fig. 7 algorithms' runtimes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_bench::fixture;
use ppdc_stroll::{
    dp_stroll, optimal_stroll, primal_dual_stroll, PrimalDualConfig, StrollInstance,
};
use ppdc_topology::{MetricClosure, NodeId};
use std::time::Duration;

fn closure_for(k: usize) -> (ppdc_topology::Graph, MetricClosure, NodeId, NodeId) {
    let (ft, dm, _) = fixture(k, 1);
    let g = ft.graph().clone();
    let hosts: Vec<NodeId> = g.hosts().collect();
    let (s, t) = (hosts[0], hosts[hosts.len() / 2]);
    let mut members = vec![s, t];
    members.extend(g.switches());
    let mc = MetricClosure::over(&dm, &members);
    (g, mc, s, t)
}

fn bench_dp_stroll(c: &mut Criterion) {
    let (_, mc, s, t) = closure_for(8);
    let mut group = c.benchmark_group("dp_stroll_k8");
    for n in [3usize, 7, 13] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let inst = StrollInstance::new(&mc, s, t, n).unwrap();
            b.iter(|| dp_stroll(&inst).unwrap())
        });
    }
    group.finish();
}

fn bench_optimal_stroll(c: &mut Criterion) {
    let (_, mc, s, t) = closure_for(8);
    let mut group = c.benchmark_group("optimal_stroll_k8");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for n in [3usize, 5, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let inst = StrollInstance::new(&mc, s, t, n).unwrap();
            b.iter(|| optimal_stroll(&inst, ppdc_stroll::exact::DEFAULT_BUDGET))
        });
    }
    group.finish();
}

fn bench_primal_dual(c: &mut Criterion) {
    let (g, mc, s, t) = closure_for(8);
    let mut group = c.benchmark_group("primal_dual_k8");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for n in [3usize, 7] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let inst = StrollInstance::new(&mc, s, t, n).unwrap();
            b.iter(|| primal_dual_stroll(&g, &inst, PrimalDualConfig::default()).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_stroll,
    bench_optimal_stroll,
    bench_primal_dual
);
criterion_main!(benches);

//! Attach-aggregate benchmarks: the epoch-scale hot path.
//!
//! Two comparisons on a k = 8 fat-tree (80 switches, 128 hosts):
//!
//! * switch-aggregated [`AttachAggregates::build`] vs the flow-by-flow
//!   oracle — the `O(|flows| + |V_h|·|V_s|)` vs `O(|flows|·|V_s|)` gap,
//! * one hour's host-mass fold ([`AttachAggregates::try_apply_mass_deltas`]
//!   of the hour's masses, as the flow store reports them) vs a full
//!   rebuild — what both epoch engines save on a quiet hour.
//!
//! And the fold at the benchmark's scale, `aggregates_fold_k16`: one dense
//! diurnal hour's masses on a k = 16 fat-tree (320 switches, 1,024 hosts
//! under 128 ToR anchors, the closed-form oracle), every anchor moved.
//!
//! A fold mutates the aggregates in place, so the fold cases alternate the
//! hour's masses with their exact negation: every two iterations return
//! the aggregates to hour 0, and no copy of them is inside the timer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_model::Workload;
use ppdc_placement::{AttachAggregates, HostMassDelta};
use ppdc_sim::{RateDelta, ShardedFlowStore};
use ppdc_topology::DistanceMatrix;
use ppdc_topology::{DistanceOracle, FatTree, FatTreeOracle, NodeId};
use ppdc_traffic::{rng_for_run, standard_workload, DiurnalModel, DynamicTrace};
use rand::Rng;
use std::time::Duration;

/// The exact negation of a mass list and its `Σλ` change.
fn negated(masses: &[HostMassDelta], total: i128) -> (Vec<HostMassDelta>, i128) {
    let neg = masses
        .iter()
        .map(|m| HostMassDelta {
            host: m.host,
            d_out: -m.d_out,
            d_in: -m.d_in,
        })
        .collect();
    (neg, -total)
}

/// Times one fold per iteration, alternating `masses` with their negation
/// so the aggregates return to `agg` every second iteration.
fn bench_fold<D: DistanceOracle + ?Sized>(
    b: &mut criterion::Bencher,
    dm: &D,
    agg: &AttachAggregates,
    masses: &[HostMassDelta],
    total: i128,
) {
    let (neg, neg_total) = negated(masses, total);
    let mut agg = agg.clone();
    let mut forward = true;
    b.iter(|| {
        let (m, t) = if forward {
            (masses, total)
        } else {
            (&neg[..], neg_total)
        };
        forward = !forward;
        agg.try_apply_mass_deltas(dm, m, t).unwrap();
    })
}

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
        bench_fold(b, &dm, &agg0, &hour1.masses, hour1.total_delta)
    });
    group.bench_function("rebuild_from_scratch", |b| {
        b.iter(|| AttachAggregates::build(ft.graph(), &dm, &w1))
    });
    group.bench_function("rebuild_flow_by_flow", |b| {
        b.iter(|| AttachAggregates::build_flow_by_flow(ft.graph(), &dm, &w1))
    });
    group.finish();
}

/// One dense diurnal hour on the k = 16 fabric: flows strided over every
/// host (the benchmark's `diurnal-fabric` layout, at a fifth of its flow
/// count: the fold's cost depends on the anchors, not the flows), the
/// store keyed at hour 0 and stepped to hour 1, where the envelope moves
/// every flow.
fn bench_fold_k16(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregates_fold_k16");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let ft = FatTree::build(16).unwrap();
    let g = ft.graph();
    let oracle = FatTreeOracle::new(&ft);
    let hosts: Vec<NodeId> = g.hosts().collect();
    let mut rng = rng_for_run(0xF01D, 16);
    let mut w = Workload::new();
    for i in 0..200_000 {
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, rng.gen_range(1..=1_249));
    }
    let trace = DynamicTrace::new(&w, DiurnalModel::default(), &mut rng);
    let mut store = ShardedFlowStore::from_trace(g, &w, &trace, 0).unwrap();
    let (masses, total) = store.host_masses();
    let agg0 = AttachAggregates::from_host_masses(g, &oracle, &masses, total);
    let hour1 = store.advance(&mut trace.cursor(0)).unwrap();
    let tors: std::collections::BTreeSet<NodeId> = hour1
        .masses
        .iter()
        .map(|m| g.top_of_rack(m.host).unwrap())
        .collect();
    assert_eq!(tors.len(), 128, "a dense hour moves every anchor");
    group.bench_function("full_fabric_dense_hour", |b| {
        bench_fold(b, &oracle, &agg0, &hour1.masses, hour1.total_delta)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_build_vs_flow_by_flow,
    bench_epoch_update,
    bench_fold_k16
);
criterion_main!(benches);

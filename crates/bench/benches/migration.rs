//! TOM solver benchmarks (the Fig. 11 algorithms' runtimes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_bench::fixture;
use ppdc_migration::{mcf_vm_migration, mpareto, optimal_migration, plan_vm_migration};
use ppdc_model::{Placement, Sfc};
use ppdc_placement::{dp_placement, AttachAggregates};
use std::time::Duration;

fn bench_mpareto(c: &mut Criterion) {
    let (ft, dm, mut w) = fixture(8, 100);
    let sfc = Sfc::of_len(5).unwrap();
    let (p, _) =
        dp_placement(&dm, &w, &sfc, &AttachAggregates::build(ft.graph(), &dm, &w)).unwrap();
    // Shift the traffic so the frontier walk does real work.
    let mut rates = w.rates().to_vec();
    rates.reverse();
    w.set_rates(&rates).unwrap();
    let mut group = c.benchmark_group("mpareto_k8_l100");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("mu_1e4", |b| {
        b.iter(|| {
            mpareto(
                ft.graph(),
                &dm,
                &w,
                &sfc,
                &p,
                10_000,
                &AttachAggregates::build(ft.graph(), &dm, &w),
            )
            .unwrap()
        })
    });
    group.finish();
}

/// Algorithm 6 on the same k = 4 fixture as `optimal_placement_k4`, after
/// the rates reverse: the exact search the `OptimalVnf` policy runs hourly.
fn bench_optimal_migration(c: &mut Criterion) {
    let (ft, dm, mut w) = fixture(4, 20);
    let mut group = c.benchmark_group("optimal_migration_k4");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let placements: Vec<(Sfc, Placement)> = [3usize, 5]
        .into_iter()
        .map(|n| {
            let sfc = Sfc::of_len(n).unwrap();
            let agg = AttachAggregates::build(ft.graph(), &dm, &w);
            let (p, _) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
            (sfc, p)
        })
        .collect();
    let mut rates = w.rates().to_vec();
    rates.reverse();
    w.set_rates(&rates).unwrap();
    for (sfc, p) in &placements {
        group.bench_with_input(BenchmarkId::from_parameter(sfc.len()), sfc, |b, sfc| {
            b.iter(|| {
                let agg = AttachAggregates::build(ft.graph(), &dm, &w);
                optimal_migration(
                    &dm,
                    sfc,
                    p,
                    100,
                    None,
                    ppdc_migration::optimal::DEFAULT_BUDGET,
                    &agg,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_vm_baselines(c: &mut Criterion) {
    let (ft, dm, mut w) = fixture(8, 100);
    let sfc = Sfc::of_len(5).unwrap();
    let (p, _) =
        dp_placement(&dm, &w, &sfc, &AttachAggregates::build(ft.graph(), &dm, &w)).unwrap();
    let mut rates = w.rates().to_vec();
    rates.reverse();
    w.set_rates(&rates).unwrap();
    let mut group = c.benchmark_group("vm_migration_k8_l100");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("plan", |b| {
        b.iter(|| plan_vm_migration(ft.graph(), &dm, &w, &p, 1_000, 8, 4))
    });
    group.bench_function("mcf", |b| {
        b.iter(|| mcf_vm_migration(ft.graph(), &dm, &w, &p, 1_000, 8, 16).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_mpareto,
    bench_optimal_migration,
    bench_vm_baselines
);
criterion_main!(benches);

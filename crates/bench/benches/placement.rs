//! TOP solver benchmarks (the Fig. 9/10 algorithms' runtimes).
//!
//! `PPDC_BENCH_ONLY=dp_placement` (comma-separated group names) restricts
//! the run to the named groups — the vendored criterion stand-in has no
//! CLI filter, and CI's bench smoke only needs the placement group.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_bench::{fixture, oracle_fixture};
use ppdc_model::Sfc;
use ppdc_placement::optimal::DEFAULT_BUDGET;
use ppdc_placement::{
    dp_placement, greedy_placement, optimal_placement, steering_placement, AttachAggregates,
};
use std::time::Duration;

fn enabled(group: &str) -> bool {
    match std::env::var("PPDC_BENCH_ONLY") {
        Ok(only) => only.split(',').any(|g| g.trim() == group),
        Err(_) => true,
    }
}

fn bench_dp_placement(c: &mut Criterion) {
    if !enabled("dp_placement") {
        return;
    }
    let mut group = c.benchmark_group("dp_placement");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for (k, l) in [(4usize, 20usize), (8, 100), (16, 100)] {
        let (ft, dm, w) = fixture(k, l);
        let sfc = Sfc::of_len(5).unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_l{l}")),
            &(),
            |b, _| {
                b.iter(|| {
                    dp_placement(&dm, &w, &sfc, &AttachAggregates::build(ft.graph(), &dm, &w))
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Algorithm 3 at k = 32 (1,280 switches / 8,192 hosts), driven entirely
/// by the closed-form oracle: the fixture never builds a dense matrix, so
/// this group exists at a scale the `dp_placement` group cannot reach.
/// One solve is seconds on a single core (the orbit-compressed sweep still
/// pays O(m²) DP fills for surviving egresses) — sample counts are kept
/// minimal.
fn bench_dp_placement_k32(c: &mut Criterion) {
    if !enabled("dp_placement_k32") {
        return;
    }
    let (ft, oracle, w) = oracle_fixture(32, 64);
    let sfc = Sfc::of_len(4).unwrap();
    let mut group = c.benchmark_group("dp_placement_k32");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(1));
    group.measurement_time(Duration::from_secs(1));
    group.bench_with_input(BenchmarkId::from_parameter("k32_l64"), &(), |b, _| {
        b.iter(|| {
            dp_placement(
                &oracle,
                &w,
                &sfc,
                &AttachAggregates::build(ft.graph(), &oracle, &w),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    if !enabled("baselines") {
        return;
    }
    let (ft, dm, w) = fixture(8, 100);
    let sfc = Sfc::of_len(5).unwrap();
    c.bench_function("steering_k8_l100", |b| {
        b.iter(|| steering_placement(ft.graph(), &dm, &w, &sfc).unwrap())
    });
    c.bench_function("greedy_k8_l100", |b| {
        b.iter(|| greedy_placement(ft.graph(), &dm, &w, &sfc).unwrap())
    });
}

fn bench_optimal(c: &mut Criterion) {
    if !enabled("optimal_placement_k4") {
        return;
    }
    let (ft, dm, w) = fixture(4, 20);
    let mut group = c.benchmark_group("optimal_placement_k4");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for n in [3usize, 5] {
        let sfc = Sfc::of_len(n).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &sfc, |b, sfc| {
            b.iter(|| {
                optimal_placement(
                    &dm,
                    &w,
                    sfc,
                    &AttachAggregates::build(ft.graph(), &dm, &w),
                    DEFAULT_BUDGET,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_extensions(c: &mut Criterion) {
    if !enabled("extensions_k4") {
        return;
    }
    use ppdc_placement::{greedy_replication, optimal_placement_scaled, TrafficScaling};
    let (ft, dm, w) = fixture(4, 20);
    let sfc = Sfc::of_len(3).unwrap();
    let mut group = c.benchmark_group("extensions_k4");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    let (p, _) =
        dp_placement(&dm, &w, &sfc, &AttachAggregates::build(ft.graph(), &dm, &w)).unwrap();
    group.bench_function("greedy_replication_4", |b| {
        b.iter(|| greedy_replication(ft.graph(), &dm, &w, &p, 4).unwrap())
    });
    let filter = TrafficScaling::uniform(&sfc, 500);
    group.bench_function("optimal_placement_scaled", |b| {
        b.iter(|| optimal_placement_scaled(ft.graph(), &dm, &w, &sfc, &filter, u64::MAX).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dp_placement,
    bench_dp_placement_k32,
    bench_baselines,
    bench_optimal,
    bench_extensions
);
criterion_main!(benches);

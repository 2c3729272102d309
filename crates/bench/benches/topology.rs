//! Substrate benchmarks: topology construction, shortest paths, and the
//! closed-form fat-tree distance oracle.
//!
//! `PPDC_BENCH_ONLY=distance_oracle` (comma-separated group names)
//! restricts the run to the named groups — the vendored criterion stand-in
//! has no CLI filter, and CI's bench smoke only needs the oracle group.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ppdc_topology::{DistanceMatrix, DistanceOracle, FatTree, FatTreeOracle, NodeId};
use std::time::Duration;

fn enabled(group: &str) -> bool {
    match std::env::var("PPDC_BENCH_ONLY") {
        Ok(only) => only.split(',').any(|g| g.trim() == group),
        Err(_) => true,
    }
}

fn bench_fat_tree_build(c: &mut Criterion) {
    if !enabled("fat_tree_build") {
        return;
    }
    let mut group = c.benchmark_group("fat_tree_build");
    for k in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| FatTree::build(k).unwrap())
        });
    }
    group.finish();
}

fn bench_all_pairs(c: &mut Criterion) {
    if !enabled("distance_matrix") {
        return;
    }
    let mut group = c.benchmark_group("distance_matrix");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for k in [4usize, 8, 16] {
        let g = FatTree::build(k).unwrap().into_graph();
        group.bench_with_input(BenchmarkId::from_parameter(k), &g, |b, g| {
            b.iter(|| DistanceMatrix::build(g))
        });
    }
    group.finish();
}

fn bench_apsp_parallel_vs_sequential(c: &mut Criterion) {
    if !enabled("apsp_par_vs_seq") {
        return;
    }
    let mut group = c.benchmark_group("apsp_par_vs_seq");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for k in [8usize, 16] {
        let g = FatTree::build(k).unwrap().into_graph();
        group.bench_with_input(BenchmarkId::new("parallel", k), &g, |b, g| {
            b.iter(|| DistanceMatrix::build(g))
        });
        group.bench_with_input(BenchmarkId::new("sequential", k), &g, |b, g| {
            b.iter(|| DistanceMatrix::build_sequential(g))
        });
    }
    group.finish();
}

/// The analytic oracle against the dense matrix it replaces: zero-cost
/// construction at any arity (`for_k`, no graph walk at all), plus a
/// 100k-query sweep answered from (layer, pod, index) coordinates. The
/// `dense_build/16` entry is the matrix the oracle supersedes on the
/// healthy path — at k = 32 the dense build would need ~1 GB and is not
/// benchable here, which is the point.
fn bench_distance_oracle(c: &mut Criterion) {
    if !enabled("distance_oracle") {
        return;
    }
    let mut group = c.benchmark_group("distance_oracle");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(200));
    group.measurement_time(Duration::from_secs(2));
    for k in [16usize, 32, 48] {
        group.bench_with_input(BenchmarkId::new("oracle_build", k), &k, |b, &k| {
            b.iter(|| FatTreeOracle::for_k(k).unwrap())
        });
    }
    for k in [16usize, 32, 48] {
        let oracle = FatTreeOracle::for_k(k).unwrap();
        let n = oracle.num_nodes() as u32;
        // A fixed 100k-pair strided sweep: deterministic, touches every
        // layer pair, and never allocates.
        group.bench_with_input(BenchmarkId::new("query_100k", k), &oracle, |b, o| {
            b.iter(|| {
                let mut acc = 0u64;
                let mut u = 0u32;
                let mut v = 1u32;
                for _ in 0..100_000u32 {
                    acc = acc.wrapping_add(o.cost(NodeId(u), NodeId(v)));
                    u = (u + 7) % n;
                    v = (v + 7919) % n;
                }
                black_box(acc)
            })
        });
    }
    {
        let g = FatTree::build(16).unwrap().into_graph();
        group.bench_with_input(BenchmarkId::new("dense_build", 16), &g, |b, g| {
            b.iter(|| DistanceMatrix::build(g))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fat_tree_build,
    bench_all_pairs,
    bench_apsp_parallel_vs_sequential,
    bench_distance_oracle
);
criterion_main!(benches);

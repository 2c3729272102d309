//! Full simulated-day benchmarks per migration policy (k = 8).

use criterion::{criterion_group, criterion_main, Criterion};
use ppdc_model::Sfc;
use ppdc_sim::{run_day, EngineConfig, FaultSchedule, MigrationPolicy, SimConfig};
use ppdc_topology::FatTree;
use ppdc_traffic::standard_workload;
use std::time::Duration;

fn bench_day(c: &mut Criterion) {
    let ft = FatTree::build(8).unwrap();
    let (w, trace) = standard_workload(&ft, 50, 0xDA7, 0);
    let schedule = FaultSchedule::new(vec![], trace.model().n_hours).unwrap();
    let ecfg = EngineConfig::default();
    let sfc = Sfc::of_len(5).unwrap();
    let mut group = c.benchmark_group("simulated_day_k8_l50");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for (name, policy) in [
        ("mpareto", MigrationPolicy::MPareto),
        (
            "plan",
            MigrationPolicy::Plan {
                slots: 8,
                passes: 4,
            },
        ),
        (
            "mcf",
            MigrationPolicy::Mcf {
                slots: 8,
                candidates: 16,
            },
        ),
        ("no_migration", MigrationPolicy::NoMigration),
    ] {
        let cfg = SimConfig {
            mu: 10_000,
            vm_mu: 10_000,
            policy,
        };
        group.bench_function(name, |b| {
            b.iter(|| run_day(ft.graph(), &w, &trace, &sfc, &cfg, &schedule, &ecfg).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_day);
criterion_main!(benches);

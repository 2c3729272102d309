//! Cross-crate integration: full PPDC lifetimes on generated workloads.

use ppdc::migration::{mcf_vm_migration, mpareto, plan_vm_migration};
use ppdc::model::{comm_cost, total_cost, Placement, Sfc, Workload};
use ppdc::placement::{dp_placement, greedy_placement, steering_placement, AttachAggregates};
use ppdc::sim::{
    run_day, summarize, EngineConfig, FaultSchedule, FaultSimResult, MigrationPolicy, SimConfig,
};
use ppdc::topology::{DistanceMatrix, FatTree, Graph};
use ppdc::traffic::{standard_workload, DynamicTrace};

/// One day on a healthy fabric (empty fault schedule), every hour solved
/// exactly: an Optimal hour that ran out of budget fails the test.
fn healthy_day(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
) -> FaultSimResult {
    let schedule = FaultSchedule::new(vec![], trace.model().n_hours).unwrap();
    let r = run_day(g, w, trace, sfc, cfg, &schedule, &EngineConfig::default())
        .unwrap()
        .result;
    assert!(r.degraded.iter().all(|d| !d.degraded_solver), "{cfg:?}");
    r
}

#[test]
fn full_day_invariants_all_policies() {
    let ft = FatTree::build(4).unwrap();
    let (w, trace) = standard_workload(&ft, 14, 31, 0);
    let sfc = Sfc::of_len(4).unwrap();
    for policy in [
        MigrationPolicy::MPareto,
        MigrationPolicy::OptimalVnf { budget: 50_000_000 },
        MigrationPolicy::Plan {
            slots: 8,
            passes: 4,
        },
        MigrationPolicy::Mcf {
            slots: 8,
            candidates: 8,
        },
        MigrationPolicy::NoMigration,
    ] {
        let cfg = SimConfig {
            mu: 50,
            vm_mu: 50,
            policy,
        };
        let r = healthy_day(ft.graph(), &w, &trace, &sfc, &cfg);
        assert_eq!(r.hours.len(), 12);
        assert_eq!(
            r.total_cost,
            r.hours.iter().map(|h| h.total_cost).sum::<u64>(),
            "{policy:?}"
        );
        assert_eq!(
            r.total_migrations,
            r.hours.iter().map(|h| h.num_migrations).sum::<usize>()
        );
    }
}

#[test]
fn policy_ordering_over_a_day() {
    // Optimal ≤ mPareto ≤ NoMigration in day totals (the Fig. 11(a) order).
    let ft = FatTree::build(4).unwrap();
    let mut totals = vec![];
    for run in 0..3u64 {
        let (w, trace) = standard_workload(&ft, 10, 77, run);
        let sfc = Sfc::of_len(3).unwrap();
        let day = |policy| {
            let cfg = SimConfig {
                mu: 20,
                vm_mu: 20,
                policy,
            };
            healthy_day(ft.graph(), &w, &trace, &sfc, &cfg).total_cost
        };
        let opt = day(MigrationPolicy::OptimalVnf {
            budget: 100_000_000,
        });
        let mp = day(MigrationPolicy::MPareto);
        let nm = day(MigrationPolicy::NoMigration);
        assert!(opt <= mp, "run {run}: optimal {opt} > mpareto {mp}");
        assert!(mp <= nm, "run {run}: mpareto {mp} > stay {nm}");
        totals.push(mp as f64);
    }
    let s = summarize(&totals).expect("at least one run");
    assert!(s.mean > 0.0);
}

#[test]
fn placements_from_all_algorithms_are_valid() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (w, _) = standard_workload(&ft, 12, 5, 0);
    for n in [1usize, 2, 3, 5] {
        let sfc = Sfc::of_len(n).unwrap();
        for (name, result) in [
            (
                "dp",
                dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)),
            ),
            ("steering", steering_placement(g, &dm, &w, &sfc)),
            ("greedy", greedy_placement(g, &dm, &w, &sfc)),
        ] {
            let (p, cost) = result.unwrap_or_else(|e| panic!("{name} n={n}: {e}"));
            // Re-validate through the strict constructor.
            Placement::new(g, &sfc, p.switches().to_vec())
                .unwrap_or_else(|e| panic!("{name} n={n}: invalid placement {e}"));
            assert_eq!(cost, comm_cost(&dm, &w, &p), "{name} n={n}");
        }
    }
}

#[test]
fn vm_baselines_preserve_vm_count_and_capacity() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (mut w, trace) = standard_workload(&ft, 10, 13, 0);
    w.set_rates(&trace.rates_at(6)).unwrap();
    let sfc = Sfc::of_len(3).unwrap();
    let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    let slots = 6;
    let plan = plan_vm_migration(g, &dm, &w, &p, 1, slots, 5);
    let mcf = mcf_vm_migration(g, &dm, &w, &p, 1, slots, 8).unwrap();
    for out in [&plan.workload, &mcf.workload] {
        assert_eq!(out.num_vms(), w.num_vms());
        out.validate(g).unwrap();
    }
    // Plan respects the slot cap strictly (it starts within it here).
    let caps = ppdc::model::HostCapacities::uniform(g, &plan.workload, slots);
    for h in g.hosts() {
        assert!(caps.used(h) <= slots);
    }
}

#[test]
fn migration_outcome_matches_eq8_accounting() {
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let (mut w, trace) = standard_workload(&ft, 8, 3, 1);
    let sfc = Sfc::of_len(3).unwrap();
    w.set_rates(&trace.rates_at(0)).unwrap();
    let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).unwrap();
    for h in [3u32, 6, 9] {
        w.set_rates(&trace.rates_at(h)).unwrap();
        for mu in [0u64, 10, 10_000] {
            let out = mpareto(
                g,
                &dm,
                &w,
                &sfc,
                &p,
                mu,
                &AttachAggregates::build(g, &dm, &w),
            )
            .unwrap();
            assert_eq!(
                out.total_cost,
                total_cost(&dm, &w, &p, &out.migration, mu),
                "hour {h} mu {mu}"
            );
        }
    }
}

#[test]
fn deterministic_end_to_end() {
    let ft = FatTree::build(4).unwrap();
    let run = |seed| {
        let (w, trace) = standard_workload(&ft, 9, seed, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        healthy_day(ft.graph(), &w, &trace, &sfc, &cfg).total_cost
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43), "different seeds diverge");
}

/// The two epoch engines agree on a fault-free day. `run_day` under
/// NoMigration keeps the hour-0 TOP placement all day; `run_stream_day`
/// with an unreachable drift threshold never prices the certificate nor
/// re-solves, so it serves the same incumbent. Both must then report the
/// same hour-0 cost and placement and the same `C_a` every hour, whether
/// the stream engine reads a dense matrix or the closed-form oracle.
#[test]
fn fault_free_day_engines_agree() {
    use ppdc::sim::{run_stream_day, StreamConfig};
    use ppdc::topology::{DistanceOracle, FatTreeOracle};
    let stream_cfg = StreamConfig {
        drift_threshold: u64::MAX,
        ..StreamConfig::default()
    };
    let cfg = SimConfig {
        mu: 100,
        vm_mu: 100,
        policy: MigrationPolicy::NoMigration,
    };
    for k in [4, 6] {
        let ft = FatTree::build(k).unwrap();
        let g = ft.graph();
        let dm = DistanceMatrix::build(g);
        let oracle = FatTreeOracle::new(&ft);
        let oracles: [&dyn DistanceOracle; 2] = [&dm, &oracle];
        for seed in 0..6 {
            let (w, trace) = standard_workload(&ft, 40, seed, 0);
            let n_hours = trace.model().n_hours;
            let schedule = FaultSchedule::new(vec![], n_hours).unwrap();
            for n in 1..=5 {
                let sfc = Sfc::of_len(n).unwrap();
                let ecfg = EngineConfig {
                    stop_after: Some(n_hours),
                    ..EngineConfig::default()
                };
                let day = run_day(g, &w, &trace, &sfc, &cfg, &schedule, &ecfg).unwrap();
                let placement = day
                    .checkpoint
                    .expect("stop_after keeps a checkpoint")
                    .placement;
                let hourly: Vec<u64> = day.result.hours.iter().map(|h| h.comm_cost).collect();
                assert_eq!(hourly.len(), n_hours as usize);
                for (o, dist) in oracles.iter().enumerate() {
                    let run = run_stream_day(g, *dist, &w, &trace, &sfc, &stream_cfg).unwrap();
                    assert!(run.completed);
                    let s = run.result;
                    let ctx = format!("k={k} seed={seed} n={n} oracle={o}");
                    assert_eq!(s.initial_cost, day.result.initial_cost, "{ctx}");
                    assert_eq!(s.placement, placement, "{ctx}");
                    assert_eq!(s.resolves, 0, "{ctx}");
                    let streamed: Vec<u64> = s.epochs.iter().map(|e| e.comm_cost).collect();
                    assert_eq!(streamed, hourly, "{ctx}");
                }
            }
        }
    }
}

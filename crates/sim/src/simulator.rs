//! The policy, parameters and per-hour record of the hourly TOP → TOM
//! loop ([`crate::run_day`]).
//!
//! The loop builds the attach-cost aggregates **once** at hour 0 and then
//! folds each quiet hour's moved flows into them as per-host masses
//! ([`ppdc_placement::AttachAggregates::try_apply_mass_deltas`]): the VNF
//! policies (mPareto, Optimal, NoMigration) never rebuild the per-flow
//! sums on a quiet hour. The VM-migration baselines (PLAN, MCF) rewrite
//! VM→host assignments instead of rates, which invalidates the aggregates
//! — they run flow-level after hour 0. Each Algorithm 3 solve refills its
//! metric closure from thread-local scratch, so no hour has to remember
//! to invalidate a cached closure after a fault event.

use ppdc_model::MigrationCoefficient;
use ppdc_topology::Cost;

/// Which adaptation mechanism runs each hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// mPareto VNF migration (Algorithm 5).
    MPareto,
    /// Exact VNF migration (Algorithm 6) seeded by mPareto, with a
    /// branch-and-bound budget.
    OptimalVnf {
        /// Branch-and-bound expansion budget per hour.
        budget: u64,
    },
    /// PLAN VM migration \[17\].
    Plan {
        /// Uniform per-host VM slots.
        slots: u32,
        /// Improvement passes per hour.
        passes: usize,
    },
    /// MCF VM migration \[24\].
    Mcf {
        /// Uniform per-host VM slots.
        slots: u32,
        /// Candidate hosts considered per VM.
        candidates: usize,
    },
    /// Keep everything where TOP put it.
    NoMigration,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// VNF migration coefficient `μ` (paper: 10⁴–10⁵).
    pub mu: MigrationCoefficient,
    /// VM migration coefficient for the PLAN/MCF baselines (VM and VNF
    /// images are both ~100 MB, so defaults equal to `mu`).
    pub vm_mu: MigrationCoefficient,
    /// The adaptation policy under test.
    pub policy: MigrationPolicy,
}

/// One simulated hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HourRecord {
    /// Hour index (1..=N; hour 0 is the initial TOP placement).
    pub hour: u32,
    /// Migration cost paid this hour (`C_b` or VM moves).
    pub migration_cost: Cost,
    /// Communication cost for the hour's rates.
    pub comm_cost: Cost,
    /// `migration_cost + comm_cost`.
    pub total_cost: Cost,
    /// VNFs or VMs moved this hour.
    pub num_migrations: usize,
}

#[cfg(test)]
mod tests {
    //! The healthy-fabric behaviour of [`crate::run_day`], policy by
    //! policy: an empty fault schedule must reduce the engine to the plain
    //! TOP → TOM loop.

    use super::*;
    use crate::fault::{run_day, EngineConfig, FaultSchedule, FaultSimResult, HourProvenance};
    use ppdc_migration::{mcf_vm_migration, mpareto, optimal_migration, plan_vm_migration};
    use ppdc_model::{comm_cost, Sfc, Workload};
    use ppdc_placement::AttachAggregates;
    use ppdc_topology::{DistanceMatrix, FatTree, Graph};
    use ppdc_traffic::{standard_workload, DynamicTrace};

    const POLICIES: [MigrationPolicy; 5] = [
        MigrationPolicy::MPareto,
        MigrationPolicy::OptimalVnf { budget: 50_000_000 },
        MigrationPolicy::Plan {
            slots: 4,
            passes: 5,
        },
        MigrationPolicy::Mcf {
            slots: 4,
            candidates: 8,
        },
        MigrationPolicy::NoMigration,
    ];

    fn cfg(policy: MigrationPolicy) -> SimConfig {
        SimConfig {
            mu: 100,
            vm_mu: 100,
            policy,
        }
    }

    /// One fault-free day through the engine, every hour solved exactly.
    fn day(
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

    fn run(policy: MigrationPolicy) -> FaultSimResult {
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 12, 99, 0);
        let sfc = Sfc::of_len(3).unwrap();
        day(ft.graph(), &w, &trace, &sfc, &cfg(policy))
    }

    /// The naive reference loop: every hour re-solves from scratch with
    /// flow-level costs and freshly built aggregates — no delta feed, no
    /// state carried between hours. Returns the hour-0 cost and the hourly
    /// records.
    fn naive_day(
        g: &Graph,
        w: &Workload,
        trace: &DynamicTrace,
        sfc: &Sfc,
        cfg: &SimConfig,
    ) -> (Cost, Vec<HourRecord>) {
        let dm = DistanceMatrix::build(g);
        let mut w = w.clone();
        w.set_rates(&trace.rates_at(0)).unwrap();
        let agg = AttachAggregates::build(g, &dm, &w);
        let (mut p, initial) = ppdc_placement::dp_placement(&dm, &w, sfc, &agg).unwrap();
        let mut hours = Vec::new();
        for hour in 1..=trace.model().n_hours {
            w.set_rates(&trace.rates_at(hour)).unwrap();
            let agg = AttachAggregates::build(g, &dm, &w);
            let (migration_cost, comm_cost, num_migrations) = match cfg.policy {
                MigrationPolicy::MPareto => {
                    let out = mpareto(g, &dm, &w, sfc, &p, cfg.mu, &agg).unwrap();
                    p = out.migration;
                    (out.migration_cost, out.comm_cost, out.num_migrations)
                }
                MigrationPolicy::OptimalVnf { budget } => {
                    let seed = mpareto(g, &dm, &w, sfc, &p, cfg.mu, &agg).unwrap();
                    let (out, exactness) = optimal_migration(
                        &dm,
                        sfc,
                        &p,
                        cfg.mu,
                        Some(&seed.migration),
                        budget,
                        &agg,
                    )
                    .unwrap();
                    assert!(exactness.is_exact(), "hour {hour}: budget exhausted");
                    p = out.migration;
                    (out.migration_cost, out.comm_cost, out.num_migrations)
                }
                MigrationPolicy::Plan { slots, passes } => {
                    let out = plan_vm_migration(g, &dm, &w, &p, cfg.vm_mu, slots, passes);
                    w = out.workload;
                    (out.migration_cost, out.comm_cost, out.num_migrations)
                }
                MigrationPolicy::Mcf { slots, candidates } => {
                    let out =
                        mcf_vm_migration(g, &dm, &w, &p, cfg.vm_mu, slots, candidates).unwrap();
                    w = out.workload;
                    (out.migration_cost, out.comm_cost, out.num_migrations)
                }
                MigrationPolicy::NoMigration => (0, comm_cost(&dm, &w, &p), 0),
            };
            hours.push(HourRecord {
                hour,
                migration_cost,
                comm_cost,
                total_cost: migration_cost + comm_cost,
                num_migrations,
            });
        }
        (initial, hours)
    }

    #[test]
    fn all_policies_complete_a_day() {
        for policy in POLICIES {
            let r = run(policy);
            assert_eq!(r.hours.len(), 12, "{policy:?}");
            assert_eq!(
                r.total_cost,
                r.hours.iter().map(|h| h.total_cost).sum::<Cost>()
            );
            assert_eq!(
                r.total_migrations,
                r.hours.iter().map(|h| h.num_migrations).sum::<usize>()
            );
            for rec in &r.hours {
                assert_eq!(rec.total_cost, rec.migration_cost + rec.comm_cost);
            }
        }
    }

    #[test]
    fn aggregates_are_built_exactly_once_per_day() {
        for policy in POLICIES {
            let r = run(policy);
            assert_eq!(r.aggregate_rebuilds, 1, "{policy:?}");
        }
    }

    #[test]
    fn incremental_aggregates_match_per_hour_rebuilds() {
        // The engine's delta-fed loop, run on an empty fault schedule, must
        // reproduce cost for cost the naive loop that re-solves each hour
        // from scratch — for every policy, and for chain lengths 1 and 2
        // too, whose solves never read the shared metric closure.
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 12, 99, 0);
        for n in 1..=5 {
            let sfc = Sfc::of_len(n).unwrap();
            for policy in POLICIES {
                let c = cfg(policy);
                let r = day(ft.graph(), &w, &trace, &sfc, &c);
                let (initial, hours) = naive_day(ft.graph(), &w, &trace, &sfc, &c);
                assert_eq!(r.initial_cost, initial, "n={n} {policy:?}");
                assert_eq!(r.hours, hours, "n={n} {policy:?}");
                assert_eq!(
                    r.total_cost,
                    hours.iter().map(|h| h.total_cost).sum::<Cost>()
                );
                assert_eq!(r.aggregate_rebuilds, 1);
                assert_eq!(r.blackout_hours, 0);
                assert_eq!(r.recovery_migrations, 0);
                assert!(r.degraded.iter().all(|d| d.stranded_flows == 0
                    && d.stranded_rate == 0
                    && d.reroute_cost == 0
                    && !d.blackout
                    && d.provenance == HourProvenance::Exact
                    && d.recovery_migrations == 0));
            }
        }
    }

    #[test]
    fn no_migration_never_migrates() {
        let r = run(MigrationPolicy::NoMigration);
        assert_eq!(r.total_migrations, 0);
        assert!(r.hours.iter().all(|h| h.migration_cost == 0));
    }

    #[test]
    fn mpareto_beats_or_matches_no_migration() {
        let a = run(MigrationPolicy::MPareto);
        let b = run(MigrationPolicy::NoMigration);
        // Hour by hour mPareto can pay migration, but it only moves when
        // C_t improves over staying — so the sum never loses.
        assert!(
            a.total_cost <= b.total_cost,
            "mPareto {} vs NoMigration {}",
            a.total_cost,
            b.total_cost
        );
    }

    #[test]
    fn optimal_vnf_beats_or_matches_mpareto() {
        let a = run(MigrationPolicy::OptimalVnf { budget: 50_000_000 });
        let b = run(MigrationPolicy::MPareto);
        assert!(a.total_cost <= b.total_cost);
    }

    #[test]
    fn deterministic() {
        let a = run(MigrationPolicy::MPareto);
        let b = run(MigrationPolicy::MPareto);
        assert_eq!(a, b);
    }
}

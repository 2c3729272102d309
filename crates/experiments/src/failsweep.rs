//! **Failure sweep** (robustness extension, not a paper figure) — day-total
//! cost and degradation vs the fabric failure rate.
//!
//! Each run simulates one diurnal day on a k = [`Scale::k_top`] fat-tree
//! under a seeded [`FaultSchedule`]: links fail with the swept per-hour
//! probability, switches at a fifth of it, and everything repairs after two
//! hours. The survivable epoch loop (`ppdc_sim::run_day`)
//! masks stranded flows, repairs displaced placements, and finishes every
//! day — the sweep shows how served cost, detour (reroute) penalty,
//! stranded traffic, and recovery migrations grow with the failure rate,
//! and that mPareto's advantage over NoMigration survives degradation.

use crate::{fmt_maybe, mean_maybe, Scale};
use ppdc_model::Sfc;
use ppdc_sim::{
    run_day, EngineConfig, FaultConfig, FaultSchedule, FaultSimResult, MigrationPolicy, SimConfig,
    SimError, Table,
};
use ppdc_topology::FatTree;
use ppdc_traffic::standard_workload;

/// The swept per-hour link failure probabilities.
const LINK_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
/// Hours until a failed element is repaired.
const REPAIR_AFTER: u32 = 2;

fn day(
    scale: &Scale,
    link_fail: f64,
    policy: MigrationPolicy,
    seed: u64,
    run: u64,
) -> Result<FaultSimResult, SimError> {
    let ft = FatTree::build(scale.k_top()).expect("valid arity");
    let pairs = if scale.quick { 16 } else { 128 };
    let (w, trace) = standard_workload(&ft, pairs, seed, run);
    let sfc = Sfc::of_len(3).expect("n >= 1");
    let fc = FaultConfig {
        link_fail_per_hour: link_fail,
        switch_fail_per_hour: link_fail / 5.0,
        repair_after: REPAIR_AFTER,
    };
    let schedule = FaultSchedule::generate(
        ft.graph(),
        trace.model().n_hours,
        &fc,
        seed.wrapping_add(run),
    );
    let cfg = SimConfig {
        mu: 10_000,
        vm_mu: 10_000,
        policy,
    };
    // Observe per-hour phases whenever the CLI enabled metrics
    // (`--metrics`); observation never changes costs or placements.
    let ecfg = EngineConfig {
        observe: ppdc_obs::global().is_enabled(),
        ..EngineConfig::default()
    };
    Ok(run_day(ft.graph(), &w, &trace, &sfc, &cfg, &schedule, &ecfg)?.result)
}

/// Day-total served cost plus degradation telemetry vs the link failure
/// rate, for mPareto and NoMigration.
pub fn failure_sweep(scale: &Scale) -> Table {
    let mut table = Table::new(
        format!(
            "Failure sweep — day-total cost vs per-hour link failure rate, k={}, n=3, mu=1e4",
            scale.k_top()
        ),
        &[
            "link p/h",
            "mPareto",
            "NoMigration",
            "red%",
            "reroute cost",
            "stranded rate",
            "recoveries",
            "blackout h",
        ],
    );
    for &rate in &LINK_RATES {
        let mut mp_costs = Vec::new();
        let mut nm_costs = Vec::new();
        let mut reroute = Vec::new();
        let mut stranded = Vec::new();
        let mut recoveries = Vec::new();
        let mut blackouts = Vec::new();
        for run in 0..scale.sim_runs() {
            match day(scale, rate, MigrationPolicy::MPareto, 12_000, run) {
                Ok(r) => {
                    mp_costs.push(Some(r.total_cost as f64));
                    reroute.push(Some(r.degraded.iter().map(|d| d.reroute_cost as f64).sum()));
                    stranded.push(Some(
                        r.degraded.iter().map(|d| d.stranded_rate as f64).sum(),
                    ));
                    recoveries.push(Some(r.recovery_migrations as f64));
                    blackouts.push(Some(r.blackout_hours as f64));
                }
                Err(_) => {
                    mp_costs.push(None);
                    reroute.push(None);
                    stranded.push(None);
                    recoveries.push(None);
                    blackouts.push(None);
                }
            }
            match day(scale, rate, MigrationPolicy::NoMigration, 12_000, run) {
                Ok(r) => nm_costs.push(Some(r.total_cost as f64)),
                Err(_) => nm_costs.push(None),
            }
        }
        let reduction = match (mean_maybe(&mp_costs), mean_maybe(&nm_costs)) {
            (Some(a), Some(b)) if b > 0.0 => format!("{:.1}", 100.0 * (b - a) / b),
            _ => "n/c".into(),
        };
        table.row(vec![
            format!("{rate:.2}"),
            fmt_maybe(&mp_costs),
            fmt_maybe(&nm_costs),
            reduction,
            fmt_maybe(&reroute),
            fmt_maybe(&stranded),
            fmt_maybe(&recoveries),
            fmt_maybe(&blackouts),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_faulty_day_simulates() {
        let scale = Scale { quick: true };
        let r = day(&scale, 0.05, MigrationPolicy::MPareto, 1, 0).unwrap();
        assert_eq!(r.hours.len() as u32, 12);
        let healthy = day(&scale, 0.0, MigrationPolicy::MPareto, 1, 0).unwrap();
        assert_eq!(healthy.aggregate_rebuilds, 1, "zero rate injects nothing");
    }
}

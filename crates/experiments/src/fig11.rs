//! **Fig. 11** — VNF migration under dynamic diurnal traffic (k = 16).
//!
//! Each run simulates one 12-hour day: TOP places the SFC at hour 0, the
//! policy under test adapts every hour as the rates evolve (Eq. 9 envelope
//! with the east/west cohort offset, plus hourly rate churn on hotspot
//! racks — see `ppdc_traffic::standard_workload`). Reported numbers are
//! day totals averaged over runs.
//!
//! * (a) total communication + migration cost for mPareto, Optimal, PLAN,
//!   MCF, NoMigration at μ = 10⁴ and 10⁵,
//! * (b) number of migrations for the same policies,
//! * (c) total cost vs the number of VM pairs `l` (log₂ x-axis),
//! * (d) total cost vs SFC length `n`, for the paper's 3 h cohort offset
//!   and the antiphase (6 h) ablation.
//!
//! Reproduction notes recorded in EXPERIMENTS.md: under the topology-aware
//! cost model, a VM migration moving a VM `x` hops closer to the chain
//! costs `vm_μ·x ≥ λ_max·x`, which is at least what it can save per epoch —
//! so PLAN/MCF rationally freeze at the paper's μ and their totals equal
//! NoMigration, while mPareto's VNF moves amortize over *all* flows and do
//! pay. The light-VM ablation (`vm_μ = μ/10`) un-freezes them.

use crate::{fmt_maybe, Scale};
use ppdc_model::Sfc;
use ppdc_sim::{
    run_day, EngineConfig, FaultSchedule, FaultSimResult, MigrationPolicy, SimConfig, Table,
};
use ppdc_topology::FatTree;
use ppdc_traffic::standard_workload;

/// Per-hour branch-and-bound budget for the Optimal VNF series.
const OPT_BUDGET: u64 = 20_000_000;
/// Host VM slots for the VM-migration baselines.
const SLOTS: u32 = 8;
/// Candidate hosts per VM in the MCF baseline.
const MCF_CANDIDATES: usize = 16;
/// PLAN improvement passes per hour.
const PLAN_PASSES: usize = 4;

/// One simulated day, or `None` when it is not computed: the engine
/// rejected the inputs, or an Optimal hour ran out of branch-and-bound
/// budget and served its best-so-far incumbent instead of the optimum.
#[allow(clippy::too_many_arguments)]
fn day(
    scale: &Scale,
    pairs: usize,
    n: usize,
    mu: u64,
    vm_mu: u64,
    offset: i64,
    policy: MigrationPolicy,
    seed: u64,
    run: u64,
) -> Option<FaultSimResult> {
    let ft = FatTree::build(scale.k_tom()).expect("valid arity");
    let (w, trace) = standard_workload(&ft, pairs, seed, run);
    let trace = trace.with_offset(offset);
    let sfc = Sfc::of_len(n).expect("n >= 1");
    let cfg = SimConfig { mu, vm_mu, policy };
    let schedule = FaultSchedule::new(vec![], trace.model().n_hours).expect("no events to reject");
    let r = run_day(
        ft.graph(),
        &w,
        &trace,
        &sfc,
        &cfg,
        &schedule,
        &EngineConfig::default(),
    )
    .ok()?
    .result;
    (!r.degraded.iter().any(|d| d.degraded_solver)).then_some(r)
}

#[allow(clippy::too_many_arguments)]
fn series(
    scale: &Scale,
    pairs: usize,
    n: usize,
    mu: u64,
    vm_mu: u64,
    offset: i64,
    policy: MigrationPolicy,
    seed: u64,
) -> (Vec<Option<f64>>, Vec<Option<f64>>) {
    let mut costs = Vec::new();
    let mut migs = Vec::new();
    for run in 0..scale.sim_runs() {
        match day(scale, pairs, n, mu, vm_mu, offset, policy, seed, run) {
            Some(r) => {
                costs.push(Some(r.total_cost as f64));
                migs.push(Some(r.total_migrations as f64));
            }
            None => {
                costs.push(None);
                migs.push(None);
            }
        }
    }
    (costs, migs)
}

fn pairs_default(scale: &Scale) -> usize {
    if scale.quick {
        16
    } else {
        512
    }
}

/// Fig. 11(a) day-total costs and (b) migration counts, per policy and μ.
pub fn fig11a_b(scale: &Scale) -> (Table, Table) {
    let pairs = pairs_default(scale);
    let n = 7; // the paper's Fig. 11 SFC length
    let mus: Vec<u64> = vec![10_000, 100_000];
    let mut cost_table = Table::new(
        format!(
            "Fig. 11(a) — day-total cost, k={}, l={pairs}, n={n}",
            scale.k_tom()
        ),
        &["policy", "mu=1e4", "mu=1e5"],
    );
    let mut mig_table = Table::new(
        format!(
            "Fig. 11(b) — day-total migrations, k={}, l={pairs}, n={n}",
            scale.k_tom()
        ),
        &["policy", "mu=1e4", "mu=1e5"],
    );
    let policies: Vec<(&str, MigrationPolicy, u64)> = vec![
        ("mPareto", MigrationPolicy::MPareto, 1),
        (
            "Optimal",
            MigrationPolicy::OptimalVnf { budget: OPT_BUDGET },
            1,
        ),
        (
            "PLAN",
            MigrationPolicy::Plan {
                slots: SLOTS,
                passes: PLAN_PASSES,
            },
            1,
        ),
        (
            "MCF",
            MigrationPolicy::Mcf {
                slots: SLOTS,
                candidates: MCF_CANDIDATES,
            },
            1,
        ),
        (
            "PLAN (light VMs, vm_mu=mu/10)",
            MigrationPolicy::Plan {
                slots: SLOTS,
                passes: PLAN_PASSES,
            },
            10,
        ),
        (
            "MCF (light VMs, vm_mu=mu/10)",
            MigrationPolicy::Mcf {
                slots: SLOTS,
                candidates: MCF_CANDIDATES,
            },
            10,
        ),
        ("NoMigration", MigrationPolicy::NoMigration, 1),
    ];
    for (name, policy, vm_div) in policies {
        let mut cost_cells = vec![name.to_string()];
        let mut mig_cells = vec![name.to_string()];
        for &mu in &mus {
            let (costs, migs) = series(scale, pairs, n, mu, mu / vm_div, 3, policy, 11_000);
            cost_cells.push(fmt_maybe(&costs));
            mig_cells.push(fmt_maybe(&migs));
        }
        cost_table.row(cost_cells);
        mig_table.row(mig_cells);
    }
    (cost_table, mig_table)
}

/// Fig. 11(c): day-total cost vs the number of VM pairs `l` (log₂ x-axis).
pub fn fig11c(scale: &Scale) -> Table {
    let n = 7;
    let ls: Vec<usize> = if scale.quick {
        vec![8, 16]
    } else {
        vec![64, 128, 256, 512]
    };
    let mut table = Table::new(
        format!(
            "Fig. 11(c) — day-total cost vs l, k={}, n={n}",
            scale.k_tom()
        ),
        &[
            "l",
            "mPareto mu=1e4",
            "mPareto mu=1e5",
            "NoMigration",
            "reduction % (mu=1e4)",
        ],
    );
    for &l in &ls {
        let (mp4, _) = series(
            scale,
            l,
            n,
            10_000,
            10_000,
            3,
            MigrationPolicy::MPareto,
            11_300,
        );
        let (mp5, _) = series(
            scale,
            l,
            n,
            100_000,
            100_000,
            3,
            MigrationPolicy::MPareto,
            11_300,
        );
        let (nomig, _) = series(
            scale,
            l,
            n,
            10_000,
            10_000,
            3,
            MigrationPolicy::NoMigration,
            11_300,
        );
        let reduction = match (crate::mean_maybe(&mp4), crate::mean_maybe(&nomig)) {
            (Some(a), Some(b)) if b > 0.0 => format!("{:.1}", 100.0 * (b - a) / b),
            _ => "n/c".into(),
        };
        table.row(vec![
            l.to_string(),
            fmt_maybe(&mp4),
            fmt_maybe(&mp5),
            fmt_maybe(&nomig),
            reduction,
        ]);
    }
    table
}

/// Fig. 11(d): day-total cost vs SFC length `n` — mPareto vs NoMigration,
/// under the paper's 3 h cohort offset and the antiphase (6 h) ablation.
pub fn fig11d(scale: &Scale) -> Table {
    let pairs = pairs_default(scale);
    let ns: Vec<usize> = if scale.quick {
        vec![3, 5]
    } else {
        vec![3, 5, 7, 9, 11, 13]
    };
    let mu = 10_000;
    let mut table = Table::new(
        format!(
            "Fig. 11(d) — day-total cost vs n, k={}, l={pairs}, mu=1e4",
            scale.k_tom()
        ),
        &[
            "n",
            "mPareto (3h)",
            "NoMigration (3h)",
            "red% (3h)",
            "mPareto (antiphase)",
            "NoMigration (antiphase)",
            "red% (antiphase)",
        ],
    );
    for &n in &ns {
        let mut cells = vec![n.to_string()];
        for offset in [3i64, 6] {
            let (mp, _) = series(
                scale,
                pairs,
                n,
                mu,
                mu,
                offset,
                MigrationPolicy::MPareto,
                11_400,
            );
            let (nm, _) = series(
                scale,
                pairs,
                n,
                mu,
                mu,
                offset,
                MigrationPolicy::NoMigration,
                11_400,
            );
            let reduction = match (crate::mean_maybe(&mp), crate::mean_maybe(&nm)) {
                (Some(a), Some(b)) if b > 0.0 => format!("{:.1}", 100.0 * (b - a) / b),
                _ => "n/c".into(),
            };
            cells.push(fmt_maybe(&mp));
            cells.push(fmt_maybe(&nm));
            cells.push(reduction);
        }
        table.row(cells);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_day_simulates() {
        let scale = Scale { quick: true };
        let r = day(
            &scale,
            10,
            3,
            10_000,
            10_000,
            3,
            MigrationPolicy::MPareto,
            1,
            0,
        )
        .unwrap();
        assert_eq!(r.hours.len(), 12);
    }
}

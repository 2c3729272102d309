//! **Optimal** — Algorithm 6: exact VNF migration.
//!
//! Minimizes `C_t(p, m)` over all ordered distinct switch sequences `m` on
//! the workspace's one branch-and-bound ([`ppdc_stroll::search`]). The
//! objective is Algorithm 4's chain ([`ChainTerms`]: `A_in`, `Σλ·c` per
//! hop, `A_out`) plus the position-dependent migration term
//! `μ·c(p(j), m(j))` on every slot. The bound stays admissible:
//!
//! `g + Σλ·(n−k−1)·δ_min + min_unused A_out ≤ C_t`
//!
//! It charges one hop fewer than Algorithm 4's bound, and nothing for the
//! slots' migrations still to come: the cheapest move of an unplaced slot
//! is staying put, which is free. The incumbent is seeded with the better
//! of "stay at `p`" and the caller-provided seed (typically mPareto's
//! answer), so the search starts with strong pruning.

use crate::frontier::FrontierPoint;
use crate::mpareto::MigrationOutcome;
use crate::MigrationError;
use ppdc_model::{migration_cost, MigrationCoefficient, ModelError, Placement, Sfc};
use ppdc_placement::{AttachAggregates, ChainTerms};
use ppdc_stroll::{branch_and_bound, Exactness, Incumbent, Objective};
use ppdc_topology::{sat_add, DistanceOracle, MetricClosure, NodeId};

/// Default expansion budget for the migration branch-and-bound.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// Algorithm 6 as an [`Objective`].
struct Alg6<'a> {
    chain: ChainTerms<'a>,
    /// Closure index of `p(j)` per slot.
    from: Vec<usize>,
    mu: u128,
    /// Every closure index in index order: the ingress order.
    all: Vec<usize>,
}

impl Objective for Alg6<'_> {
    fn size(&self) -> usize {
        self.all.len()
    }

    fn seq_len(&self) -> usize {
        self.from.len()
    }

    fn order(&self, last: Option<usize>) -> &[usize] {
        match last {
            None => &self.all,
            Some(u) => self.chain.nearest(u),
        }
    }

    fn step(&self, last: Option<usize>, depth: usize, x: usize) -> u128 {
        let moved = self.chain.closure().cost_ix(self.from[depth], x);
        self.mu * u128::from(moved) + self.chain.step(last, x)
    }

    fn close(&self, last: Option<usize>) -> u128 {
        self.chain.close(last)
    }

    fn bound(&self, used: &[bool], _last: Option<usize>, depth: usize) -> u128 {
        let hops = (self.seq_len() - depth).saturating_sub(1);
        let egress = u128::from(self.chain.min_egress(used, None));
        self.chain.hops_lb(hops).saturating_add(egress)
    }
}

/// Exact optimal migration (Algorithm 6) under an expansion budget
/// ([`DEFAULT_BUDGET`] suits the paper's sizes), seeded by `seed` (pass
/// mPareto's outcome for fast pruning) when provided.
///
/// The degraded-solver contract ([`Exactness`]): the incumbent is seeded
/// with the better of "stay at `p`" and the caller's `seed` before the
/// search, so when the budget dies the best incumbent so far comes back
/// flagged [`Exactness::Degraded`] — a 24-hour day with an `OptimalVnf`
/// policy always completes. Strict callers check the flag themselves.
/// Candidate switches are taken from `agg`
/// ([`AttachAggregates::switches`]), so restricted aggregates confine the
/// migration to the serving component of a degraded fabric; callers
/// without aggregates build them with [`AttachAggregates::build`].
///
/// # Errors
///
/// Input errors only: a placement whose length disagrees with the SFC, too
/// few candidate switches, or a current placement (partly) outside the
/// candidate set — the epoch loop must repair such a placement *before*
/// asking for a migration.
pub fn optimal_migration<D: DistanceOracle + ?Sized>(
    dm: &D,
    sfc: &Sfc,
    p: &Placement,
    mu: MigrationCoefficient,
    seed: Option<&Placement>,
    budget: u64,
    agg: &AttachAggregates,
) -> Result<(MigrationOutcome, Exactness), MigrationError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_OPTIMAL_MIGRATION);
    let n = sfc.len();
    if p.len() != n {
        return Err(MigrationError::Model(ModelError::WrongLength {
            expected: n,
            got: p.len(),
        }));
    }
    let switches: Vec<NodeId> = agg.switches().to_vec();
    if switches.len() < n {
        return Err(MigrationError::Model(ModelError::TooFewSwitches {
            switches: switches.len(),
            vnfs: n,
        }));
    }
    let closure = MetricClosure::over(dm, &switches);
    let from: Vec<usize> = p
        .switches()
        .iter()
        .map(|&s| {
            closure.index(s).ok_or(MigrationError::Infeasible(
                "current placement uses a switch outside the candidate set",
            ))
        })
        .collect::<Result<_, _>>()?;
    // Seed: the better of "stay at p" and the provided seed. A seed that
    // strays outside the candidate set (possible right after a failure
    // event) is simply ignored — never an error.
    let mut incumbent = Incumbent {
        seq: from.clone(),
        cost: u128::from(agg.comm_cost(dm, p)),
    };
    if let Some(sd) = seed {
        let seed_ixs: Option<Vec<usize>> =
            sd.switches().iter().map(|&s| closure.index(s)).collect();
        if let Some(ixs) = seed_ixs {
            if sd.len() == n && sd.is_injective() {
                let c =
                    u128::from(migration_cost(dm, p, sd, mu)) + u128::from(agg.comm_cost(dm, sd));
                if c < incumbent.cost {
                    incumbent = Incumbent { seq: ixs, cost: c };
                }
            }
        }
    }
    let objective = Alg6 {
        chain: ChainTerms::new(&closure, agg),
        from,
        mu: u128::from(mu),
        all: (0..closure.len()).collect(),
    };
    // Budget exhaustion keeps the stay/seed incumbent (or anything better
    // found before the deadline).
    let (best, exactness) = branch_and_bound(&objective, Some(incumbent), budget, true);
    let m = Placement::new_unchecked(best.seq.iter().map(|&i| closure.node(i)).collect());
    let mig = migration_cost(dm, p, &m, mu);
    let com = agg.comm_cost(dm, &m);
    let num_migrations = p
        .switches()
        .iter()
        .zip(m.switches())
        .filter(|(a, b)| a != b)
        .count();
    Ok((
        MigrationOutcome {
            migration_cost: mig,
            comm_cost: com,
            total_cost: sat_add(mig, com),
            num_migrations,
            migration: m,
            frontiers: Vec::<FrontierPoint>::new(),
        },
        exactness,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpareto::mpareto;
    use ppdc_model::Workload;
    use ppdc_model::{comm_cost, total_cost};
    use ppdc_placement::dp_placement;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::{DistanceMatrix, Graph};

    /// The budgeted search over full aggregates, run to proven optimality.
    fn exact_mig(
        g: &Graph,
        dm: &DistanceMatrix,
        w: &Workload,
        sfc: &Sfc,
        p: &Placement,
        mu: MigrationCoefficient,
        seed: Option<&Placement>,
    ) -> MigrationOutcome {
        let agg = AttachAggregates::build(g, dm, w);
        let (out, ex) = optimal_migration(dm, sfc, p, mu, seed, DEFAULT_BUDGET, &agg).unwrap();
        assert!(ex.is_exact(), "default budget exhausted");
        out
    }

    fn example1_swapped() -> (Graph, DistanceMatrix, Workload, Sfc, Placement) {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 1);
        w.add_pair(h2, h2, 100);
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        (g, dm, w, sfc, p)
    }

    #[test]
    fn example1_optimal_matches_mpareto() {
        let (g, dm, w, sfc, p) = example1_swapped();
        let opt = exact_mig(&g, &dm, &w, &sfc, &p, 1, None);
        let mp = mpareto(
            &g,
            &dm,
            &w,
            &sfc,
            &p,
            1,
            &AttachAggregates::build(&g, &dm, &w),
        )
        .unwrap();
        assert_eq!(opt.total_cost, 416);
        assert_eq!(opt.total_cost, mp.total_cost);
        assert_eq!(opt.total_cost, total_cost(&dm, &w, &p, &opt.migration, 1));
    }

    #[test]
    fn optimal_never_exceeds_mpareto_or_staying() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..5 {
            w.add_pair(hosts[3 * i], hosts[3 * i + 1], 10 + i as u64 * 37);
        }
        let sfc = Sfc::of_len(3).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        w.set_rates(&[500, 3, 2, 400, 1]).unwrap();
        for mu in [0u64, 2, 50, 10_000] {
            let mp = mpareto(
                &g,
                &dm,
                &w,
                &sfc,
                &p,
                mu,
                &AttachAggregates::build(&g, &dm, &w),
            )
            .unwrap();
            let opt = exact_mig(&g, &dm, &w, &sfc, &p, mu, Some(&mp.migration));
            assert!(opt.total_cost <= mp.total_cost, "mu={mu}");
            assert!(
                opt.total_cost <= comm_cost(&dm, &w, &p),
                "mu={mu} vs staying"
            );
        }
    }

    #[test]
    fn theorem4_mu_zero_equals_fresh_optimal_placement() {
        // TOM with μ = 0 is exactly TOP (Theorem 4): the optimal migration
        // equals the optimal placement for the new rates.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[2], 10);
        w.add_pair(hosts[7], hosts[12], 90);
        let sfc = Sfc::of_len(3).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        w.set_rates(&[90, 10]).unwrap();
        let opt_m = exact_mig(&g, &dm, &w, &sfc, &p, 0, None);
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (_, opt_p_cost, ex) = ppdc_placement::optimal_placement(
            &dm,
            &w,
            &sfc,
            &agg,
            ppdc_placement::optimal::DEFAULT_BUDGET,
        )
        .unwrap();
        assert!(ex.is_exact());
        assert_eq!(opt_m.total_cost, opt_p_cost);
    }

    #[test]
    fn huge_mu_stays_put() {
        let (g, dm, w, sfc, p) = example1_swapped();
        let opt = exact_mig(&g, &dm, &w, &sfc, &p, u32::MAX as u64, None);
        assert_eq!(opt.num_migrations, 0);
        assert_eq!(opt.total_cost, comm_cost(&dm, &w, &p));
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(5).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (_, ex) = optimal_migration(&dm, &sfc, &p, 1, None, 2, &agg).unwrap();
        assert!(matches!(ex, Exactness::Degraded { .. }));
    }

    #[test]
    fn deadline_returns_feasible_incumbent() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(5).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        // A starved budget still yields a feasible migration — never
        // worse than staying put.
        let (out, ex) = optimal_migration(&dm, &sfc, &p, 1, None, 2, &agg).unwrap();
        assert!(!ex.is_exact());
        assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, 1));
        assert!(out.total_cost <= comm_cost(&dm, &w, &p));
        // An ample deadline is exact, no worse than the starved run, and
        // matches a fresh-aggregate exact solve.
        let (out2, ex2) = optimal_migration(&dm, &sfc, &p, 1, None, DEFAULT_BUDGET, &agg).unwrap();
        assert!(ex2.is_exact());
        assert!(out2.total_cost <= out.total_cost);
        let strict = exact_mig(&g, &dm, &w, &sfc, &p, 1, None);
        assert_eq!(out2.total_cost, strict.total_cost);
    }

    #[test]
    fn candidates_spanning_a_partition_stay_put() {
        // Chain s1–s4 with h1 on s1 and h2 on s4, plus a host-less
        // 2-switch island; full aggregates make the island switches
        // candidates at the INFINITY sentinel. Staying at [s2, s3] costs
        // 100·2 + 100·1 + 100·2 = 500, and no move beats it.
        let (mut g, h1, h2) = linear(4).unwrap();
        let a = g.add_switch("island0");
        let b = g.add_switch("island1");
        g.link(a, b);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 100);
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[1], s[2]]).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        for mu in [1, 10] {
            let (out, ex) = optimal_migration(&dm, &sfc, &p, mu, None, 1_000_000, &agg).unwrap();
            assert_eq!(ex, Exactness::Exact, "mu={mu}");
            assert_eq!(out.total_cost, 500, "mu={mu}");
            assert_eq!(out.num_migrations, 0, "mu={mu}");
            let mp = mpareto(&g, &dm, &w, &sfc, &p, mu, &agg).unwrap();
            assert_eq!(out.total_cost, mp.total_cost, "mu={mu}");
        }
    }

    #[test]
    fn placement_outside_candidates_is_infeasible() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(2).unwrap();
        let all: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![all[0], all[1]]).unwrap();
        // Candidates exclude p's switches entirely.
        let subset: Vec<NodeId> = all[4..10].to_vec();
        let agg = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        assert!(matches!(
            optimal_migration(&dm, &sfc, &p, 1, None, DEFAULT_BUDGET, &agg),
            Err(MigrationError::Infeasible(_))
        ));
    }

    #[test]
    fn wrong_length_placement_rejected() {
        let (g, dm, w, _, p) = example1_swapped();
        let sfc3 = Sfc::of_len(3).unwrap();
        assert!(matches!(
            optimal_migration(
                &dm,
                &sfc3,
                &p,
                1,
                None,
                DEFAULT_BUDGET,
                &AttachAggregates::build(&g, &dm, &w)
            ),
            Err(MigrationError::Model(ModelError::WrongLength { .. }))
        ));
    }
}

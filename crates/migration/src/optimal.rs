//! **Optimal** — Algorithm 6: exact VNF migration.
//!
//! Minimizes `C_t(p, m)` over all ordered distinct switch sequences `m`.
//! The search reuses the branch-and-bound idea of the placement solver but
//! adds the position-dependent migration term `μ·c(p(j), m(j))` to every
//! slot. The bound stays admissible:
//!
//! `g + Σλ·(n−k)·δ_min + min_unused A_out + μ·Σ_{j>k} minmove(j) ≤ C_t`
//!
//! where `minmove(j) = min_x c(p(j), x)` over candidate switches — the
//! cheapest conceivable move for a VNF not yet placed (0 when staying put
//! is possible). The incumbent is seeded with the better of "stay at `p`"
//! and the caller-provided seed (typically mPareto's answer), so the search
//! starts with strong pruning.

use crate::frontier::FrontierPoint;
use crate::mpareto::MigrationOutcome;
use crate::MigrationError;
use ppdc_model::{migration_cost, MigrationCoefficient, ModelError, Placement, Sfc, Workload};
use ppdc_placement::AttachAggregates;
use ppdc_stroll::{Exactness, StrollError};
use ppdc_topology::{Cost, DistanceOracle, Graph, MetricClosure, NodeId, INFINITY};

/// Default expansion budget for the migration branch-and-bound.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

struct Search<'a> {
    agg: &'a AttachAggregates,
    closure: &'a MetricClosure,
    /// Closure index of `p(j)` per slot.
    from: Vec<usize>,
    n: usize,
    rate: u64,
    mu: MigrationCoefficient,
    min_edge: Cost,
    /// Suffix sums of the per-slot cheapest-move bound.
    minmove_suffix: Vec<Cost>,
    sorted_from: Vec<Vec<usize>>,
    used: Vec<bool>,
    seq: Vec<usize>,
    best_cost: Cost,
    best_seq: Vec<usize>,
    expansions: u64,
    budget: u64,
}

impl<'a> Search<'a> {
    fn dfs(&mut self, depth: usize, g: Cost) -> Result<(), StrollError> {
        self.expansions += 1;
        if self.expansions > self.budget {
            return Err(StrollError::BudgetExhausted {
                budget: self.budget,
            });
        }
        if depth == self.n {
            // Callers reject n == 0, so the sequence is non-empty at a
            // leaf; an empty one would mean a broken search invariant —
            // skip the leaf rather than panic.
            let Some(&last) = self.seq.last() else {
                return Ok(());
            };
            let total = g + self.agg.a_out(self.closure.node(last));
            if total < self.best_cost {
                self.best_cost = total;
                self.best_seq = self.seq.clone();
            }
            return Ok(());
        }
        // Admissible bound on the remaining slots.
        #[expect(
            clippy::as_conversions,
            reason = "usize → u64 is lossless on every supported target"
        )]
        let lb = g
            + self.rate * self.min_edge * (self.n - depth).saturating_sub(1) as Cost
            + self.minmove_suffix[depth]
            + self.min_unused_a_out();
        if lb >= self.best_cost {
            return Ok(());
        }
        // `seq` is empty exactly at depth 0 (the ingress choice).
        let (order, prev): (Vec<usize>, Option<usize>) = match self.seq.last() {
            None => ((0..self.closure.len()).collect(), None),
            Some(&last) => (self.sorted_from[last].clone(), Some(last)),
        };
        for x in order {
            if self.used[x] {
                continue;
            }
            let mut step = self.mu * self.closure.cost_ix(self.from[depth], x);
            match prev {
                None => step += self.agg.a_in(self.closure.node(x)),
                Some(last) => step += self.rate * self.closure.cost_ix(last, x),
            }
            self.used[x] = true;
            self.seq.push(x);
            self.dfs(depth + 1, g + step)?;
            self.seq.pop();
            self.used[x] = false;
        }
        Ok(())
    }

    fn min_unused_a_out(&self) -> Cost {
        (0..self.closure.len())
            .filter(|&x| !self.used[x])
            .map(|x| self.agg.a_out(self.closure.node(x)))
            .min()
            .unwrap_or(0)
    }
}

/// Exact optimal migration with the default budget, seeded by `seed` (pass
/// mPareto's outcome for fast pruning) when provided.
pub fn optimal_migration<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    p: &Placement,
    mu: MigrationCoefficient,
    seed: Option<&Placement>,
) -> Result<MigrationOutcome, MigrationError> {
    optimal_migration_with_budget(g, dm, w, sfc, p, mu, seed, DEFAULT_BUDGET)
}

/// Exact optimal migration with a caller-chosen branch-and-bound budget.
///
/// # Errors
///
/// [`MigrationError::Stroll`] with `BudgetExhausted` when the search could
/// not be completed within `budget` expansions.
#[allow(clippy::too_many_arguments)]
pub fn optimal_migration_with_budget<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    p: &Placement,
    mu: MigrationCoefficient,
    seed: Option<&Placement>,
    budget: u64,
) -> Result<MigrationOutcome, MigrationError> {
    let agg = AttachAggregates::build(g, dm, w);
    match optimal_migration_with_deadline(g, dm, sfc, p, mu, seed, budget, &agg)? {
        (out, Exactness::Exact) => Ok(out),
        (_, Exactness::Degraded { .. }) => {
            Err(MigrationError::Stroll(StrollError::BudgetExhausted {
                budget,
            }))
        }
    }
}

/// Optimal migration under a deadline: never fails on exhaustion.
///
/// The degraded-solver contract ([`Exactness`]): the incumbent is seeded
/// with the better of "stay at `p`" and the caller's `seed` before the
/// search, so when the budget dies the best incumbent so far comes back
/// flagged [`Exactness::Degraded`] — a 24-hour day with an `OptimalVnf`
/// policy always completes. Candidate switches are taken from `agg`
/// ([`AttachAggregates::switches`]), so restricted aggregates confine the
/// migration to the serving component of a degraded fabric.
///
/// # Errors
///
/// Input errors only: a placement whose length disagrees with the SFC, too
/// few candidate switches, or a current placement (partly) outside the
/// candidate set — the epoch loop must repair such a placement *before*
/// asking for a migration.
#[allow(clippy::too_many_arguments)]
pub fn optimal_migration_with_deadline<D: DistanceOracle + ?Sized>(
    _g: &Graph,
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
    let m_count = closure.len();
    let mut min_edge = INFINITY;
    for i in 0..m_count {
        for j in 0..m_count {
            if i != j {
                min_edge = min_edge.min(closure.cost_ix(i, j));
            }
        }
    }
    if m_count < 2 {
        min_edge = 0;
    }
    let from: Vec<usize> = p
        .switches()
        .iter()
        .map(|&s| {
            closure.index(s).ok_or(MigrationError::Infeasible(
                "current placement uses a switch outside the candidate set",
            ))
        })
        .collect::<Result<_, _>>()?;
    // minmove[j] = μ · min_x c(p(j), x); staying (x = p(j)) costs 0, so
    // this is 0 — unless the slot's own switch is somehow excluded. Kept
    // general and summed into suffix bounds.
    let minmove: Vec<Cost> = from
        .iter()
        .map(|&f| {
            (0..m_count)
                .map(|x| mu * closure.cost_ix(f, x))
                .min()
                .unwrap_or(0)
        })
        .collect();
    let mut minmove_suffix = vec![0; n + 1];
    for j in (0..n).rev() {
        minmove_suffix[j] = minmove_suffix[j + 1] + minmove[j];
    }
    let mut sorted_from = vec![Vec::new(); m_count];
    for (u, slot) in sorted_from.iter_mut().enumerate() {
        let mut list: Vec<usize> = (0..m_count).filter(|&x| x != u).collect();
        list.sort_by_key(|&x| (closure.cost_ix(u, x), x));
        // Staying options first is handled by including u itself up front.
        list.insert(0, u);
        *slot = list;
    }
    // Seed: the better of "stay at p" and the provided seed. A seed that
    // strays outside the candidate set (possible right after a failure
    // event) is simply ignored — never an error.
    let stay_cost = agg.comm_cost(dm, p);
    let mut best_cost = stay_cost;
    let mut best_seq: Vec<usize> = from.clone();
    if let Some(sd) = seed {
        let seed_ixs: Option<Vec<usize>> =
            sd.switches().iter().map(|&s| closure.index(s)).collect();
        if let Some(ixs) = seed_ixs {
            if sd.len() == n && sd.is_injective() {
                let c = migration_cost(dm, p, sd, mu) + agg.comm_cost(dm, sd);
                if c < best_cost {
                    best_cost = c;
                    best_seq = ixs;
                }
            }
        }
    }
    let mut search = Search {
        agg,
        closure: &closure,
        from,
        n,
        rate: agg.total_rate(),
        mu,
        min_edge,
        minmove_suffix,
        sorted_from,
        used: vec![false; m_count],
        seq: Vec::with_capacity(n),
        best_cost,
        best_seq,
        expansions: 0,
        budget,
    };
    let exactness = match search.dfs(0, 0) {
        Ok(()) => Exactness::Exact,
        // dfs only fails on budget exhaustion; the stay/seed incumbent (or
        // anything better found before the deadline) stands.
        Err(_) => Exactness::Degraded {
            explored: search.expansions,
        },
    };
    let m = Placement::new_unchecked(search.best_seq.iter().map(|&i| closure.node(i)).collect());
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
            total_cost: mig + com,
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
    use ppdc_model::{comm_cost, total_cost};
    use ppdc_placement::dp_placement;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::DistanceMatrix;

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
        let opt = optimal_migration(&g, &dm, &w, &sfc, &p, 1, None).unwrap();
        let mp = mpareto(&g, &dm, &w, &sfc, &p, 1).unwrap();
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
        let (p, _) = dp_placement(&g, &dm, &w, &sfc).unwrap();
        w.set_rates(&[500, 3, 2, 400, 1]).unwrap();
        for mu in [0u64, 2, 50, 10_000] {
            let mp = mpareto(&g, &dm, &w, &sfc, &p, mu).unwrap();
            let opt = optimal_migration(&g, &dm, &w, &sfc, &p, mu, Some(&mp.migration)).unwrap();
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
        let (p, _) = dp_placement(&g, &dm, &w, &sfc).unwrap();
        w.set_rates(&[90, 10]).unwrap();
        let opt_m = optimal_migration(&g, &dm, &w, &sfc, &p, 0, None).unwrap();
        let (_, opt_p_cost) = ppdc_placement::optimal_placement(&g, &dm, &w, &sfc).unwrap();
        assert_eq!(opt_m.total_cost, opt_p_cost);
    }

    #[test]
    fn huge_mu_stays_put() {
        let (g, dm, w, sfc, p) = example1_swapped();
        let opt = optimal_migration(&g, &dm, &w, &sfc, &p, u32::MAX as u64, None).unwrap();
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
        let (p, _) = dp_placement(&g, &dm, &w, &sfc).unwrap();
        assert!(matches!(
            optimal_migration_with_budget(&g, &dm, &w, &sfc, &p, 1, None, 2),
            Err(MigrationError::Stroll(StrollError::BudgetExhausted { .. }))
        ));
    }

    #[test]
    fn deadline_returns_feasible_incumbent() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(5).unwrap();
        let (p, _) = dp_placement(&g, &dm, &w, &sfc).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        // The budget that makes the strict variant fail still yields a
        // feasible migration — never worse than staying put.
        let (out, ex) =
            optimal_migration_with_deadline(&g, &dm, &sfc, &p, 1, None, 2, &agg).unwrap();
        assert!(!ex.is_exact());
        assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, 1));
        assert!(out.total_cost <= comm_cost(&dm, &w, &p));
        // An ample deadline is exact and matches the strict variant.
        let strict = optimal_migration(&g, &dm, &w, &sfc, &p, 1, None).unwrap();
        let (out2, ex2) =
            optimal_migration_with_deadline(&g, &dm, &sfc, &p, 1, None, DEFAULT_BUDGET, &agg)
                .unwrap();
        assert!(ex2.is_exact());
        assert_eq!(out2.total_cost, strict.total_cost);
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
            optimal_migration_with_deadline(&g, &dm, &sfc, &p, 1, None, DEFAULT_BUDGET, &agg),
            Err(MigrationError::Infeasible(_))
        ));
    }

    #[test]
    fn wrong_length_placement_rejected() {
        let (g, dm, w, _, p) = example1_swapped();
        let sfc3 = Sfc::of_len(3).unwrap();
        assert!(matches!(
            optimal_migration(&g, &dm, &w, &sfc3, &p, 1, None),
            Err(MigrationError::Model(ModelError::WrongLength { .. }))
        ));
    }
}

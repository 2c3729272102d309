//! **Optimal** — Algorithm 4: exact VNF placement.
//!
//! The paper's benchmark enumerates all `|V_s|·(|V_s|−1)…(|V_s|−n+1)`
//! ordered placements. We keep that literal enumeration
//! ([`exhaustive_placement`]) for small cross-checks and provide an exact
//! branch-and-bound ([`optimal_placement`]) that reaches the paper's
//! experiment sizes:
//!
//! * nodes are ordered best-first (`A_in` for the ingress, closure distance
//!   for interior hops),
//! * a partial chain `p₁ … p_k` is pruned when
//!   `A_in[p₁] + Σλ·chain + Σλ·(n−k)·δ_min + min_unused A_out ≥ best`,
//!   where `δ_min` is the cheapest switch-to-switch closure distance — an
//!   admissible bound, so optimality is preserved,
//! * the incumbent is seeded with a greedy chain so pruning bites from the
//!   first node.

use crate::aggregates::AttachAggregates;
use crate::PlacementError;
use ppdc_model::{Placement, Sfc, Workload};
use ppdc_stroll::{Exactness, StrollError};
use ppdc_topology::{Cost, DistanceMatrix, Graph, MetricClosure, NodeId, INFINITY};

/// Default expansion budget for the placement branch-and-bound.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

struct Search<'a> {
    agg: &'a AttachAggregates,
    closure: &'a MetricClosure,
    n: usize,
    rate: u64,
    min_edge: Cost,
    sorted_from: Vec<Vec<usize>>, // per closure node, others by distance
    first_order: Vec<usize>,      // closure nodes by A_in
    used: Vec<bool>,
    seq: Vec<usize>,
    best_cost: Cost,
    best_seq: Vec<usize>,
    expansions: u64,
    budget: u64,
    prune: bool,
}

impl<'a> Search<'a> {
    fn new(
        agg: &'a AttachAggregates,
        closure: &'a MetricClosure,
        n: usize,
        budget: u64,
        prune: bool,
    ) -> Self {
        let m = closure.len();
        let mut min_edge = INFINITY;
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    min_edge = min_edge.min(closure.cost_ix(i, j));
                }
            }
        }
        if m < 2 {
            min_edge = 0;
        }
        let mut sorted_from = vec![Vec::new(); m];
        for (u, slot) in sorted_from.iter_mut().enumerate() {
            let mut list: Vec<usize> = (0..m).filter(|&x| x != u).collect();
            list.sort_by_key(|&x| (closure.cost_ix(u, x), x));
            *slot = list;
        }
        let mut first_order: Vec<usize> = (0..m).collect();
        first_order.sort_by_key(|&x| (agg.a_in(closure.node(x)), x));
        Search {
            agg,
            closure,
            n,
            rate: agg.total_rate(),
            min_edge,
            sorted_from,
            first_order,
            used: vec![false; m],
            seq: Vec::with_capacity(n),
            best_cost: INFINITY,
            best_seq: Vec::new(),
            expansions: 0,
            budget,
            prune,
        }
    }

    fn seed_greedy(&mut self) {
        let mut used = vec![false; self.closure.len()];
        let mut seq = Vec::with_capacity(self.n);
        let first = self.first_order[0];
        used[first] = true;
        seq.push(first);
        let mut cost = self.agg.a_in(self.closure.node(first));
        let mut cur = first;
        for _ in 1..self.n {
            // The caller checks that the closure holds >= n candidates; if
            // that invariant ever breaks, leave the incumbent at INFINITY
            // and let the search run unseeded instead of panicking.
            let Some(next) = self.sorted_from[cur].iter().copied().find(|&x| !used[x]) else {
                return;
            };
            cost += self.rate * self.closure.cost_ix(cur, next);
            used[next] = true;
            seq.push(next);
            cur = next;
        }
        cost += self.agg.a_out(self.closure.node(cur));
        self.best_cost = cost;
        self.best_seq = seq;
    }

    fn min_unused_a_out(&self, last: usize) -> Cost {
        // The egress is either `last` (when depth == n, handled at leaves)
        // or one of the unused nodes.
        (0..self.closure.len())
            .filter(|&x| !self.used[x] || x == last)
            .map(|x| self.agg.a_out(self.closure.node(x)))
            .min()
            .unwrap_or(0)
    }

    fn dfs(&mut self, last: usize, depth: usize, g: Cost) -> Result<(), StrollError> {
        self.expansions += 1;
        if self.expansions > self.budget {
            return Err(StrollError::BudgetExhausted {
                budget: self.budget,
            });
        }
        if depth == self.n {
            let total = g + self.agg.a_out(self.closure.node(last));
            if total < self.best_cost {
                self.best_cost = total;
                self.best_seq = self.seq.clone();
            }
            return Ok(());
        }
        if self.prune {
            #[expect(
                clippy::as_conversions,
                reason = "usize → u64 is lossless on every supported target"
            )]
            let lb = g
                + self.rate * self.min_edge * (self.n - depth) as Cost
                + self.min_unused_a_out(last);
            if lb >= self.best_cost {
                return Ok(());
            }
        }
        let order = self.sorted_from[last].clone();
        for x in order {
            if self.used[x] {
                continue;
            }
            let step = self.rate * self.closure.cost_ix(last, x);
            self.used[x] = true;
            self.seq.push(x);
            self.dfs(x, depth + 1, g + step)?;
            self.seq.pop();
            self.used[x] = false;
        }
        Ok(())
    }

    /// Runs the search to completion or to its deadline. The greedy seed
    /// always installs an incumbent first, so a feasible placement comes
    /// back even when the budget dies on the first expansion.
    fn run_with_exactness(mut self) -> (Placement, Cost, Exactness) {
        self.seed_greedy();
        let mut exactness = Exactness::Exact;
        let first_order = self.first_order.clone();
        for x in first_order {
            if self.prune {
                // Even a free interior cannot beat the incumbent.
                #[expect(
                    clippy::as_conversions,
                    reason = "usize → u64 is lossless on every supported target"
                )]
                let lb = self.agg.a_in(self.closure.node(x))
                    + self.rate * self.min_edge * (self.n - 1) as Cost;
                if lb >= self.best_cost {
                    continue;
                }
            }
            self.used[x] = true;
            self.seq.push(x);
            let g = self.agg.a_in(self.closure.node(x));
            if self.dfs(x, 1, g).is_err() {
                // dfs only fails on budget exhaustion; keep the incumbent.
                exactness = Exactness::Degraded {
                    explored: self.expansions,
                };
                break;
            }
            self.seq.pop();
            self.used[x] = false;
        }
        let switches: Vec<NodeId> = self
            .best_seq
            .iter()
            .map(|&i| self.closure.node(i))
            .collect();
        let placement = Placement::new_unchecked(switches);
        // `strict-invariants` contract: every search exit (exact,
        // budget-degraded, exhaustive) funnels through here and must hand
        // back an injective placement.
        #[cfg(feature = "strict-invariants")]
        assert!(
            placement.is_injective(),
            "branch-and-bound returned a non-injective placement: {:?}",
            placement.switches()
        );
        (placement, self.best_cost, exactness)
    }

    fn run(self) -> Result<(Placement, Cost), StrollError> {
        let budget = self.budget;
        match self.run_with_exactness() {
            (p, c, Exactness::Exact) => Ok((p, c)),
            (_, _, Exactness::Degraded { .. }) => Err(StrollError::BudgetExhausted { budget }),
        }
    }
}

fn check_inputs(g: &Graph, w: &Workload, sfc: &Sfc) -> Result<Vec<NodeId>, PlacementError> {
    let switches: Vec<NodeId> = g.switches().collect();
    check_inputs_restricted(g, w, sfc, &switches)?;
    Ok(switches)
}

fn check_inputs_restricted(
    _g: &Graph,
    w: &Workload,
    sfc: &Sfc,
    candidates: &[NodeId],
) -> Result<(), PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    if candidates.len() < sfc.len() {
        return Err(PlacementError::Model(
            ppdc_model::ModelError::TooFewSwitches {
                switches: candidates.len(),
                vnfs: sfc.len(),
            },
        ));
    }
    Ok(())
}

/// Exact optimal placement with the default budget.
pub fn optimal_placement(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
) -> Result<(Placement, Cost), PlacementError> {
    optimal_placement_with_budget(g, dm, w, sfc, DEFAULT_BUDGET)
}

/// Exact optimal placement with a caller-chosen branch-and-bound budget.
///
/// # Errors
///
/// [`PlacementError::Stroll`] with
/// [`StrollError::BudgetExhausted`] when the search could not complete —
/// callers fall back to [`crate::dp_placement`] or report the point as
/// not computed, as the paper's exhaustive baseline must at scale.
pub fn optimal_placement_with_budget(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
    budget: u64,
) -> Result<(Placement, Cost), PlacementError> {
    let agg = AttachAggregates::build(g, dm, w);
    check_inputs_restricted(g, w, sfc, agg.switches())?;
    let closure = MetricClosure::over(dm, agg.switches());
    Ok(Search::new(&agg, &closure, sfc.len(), budget, true).run()?)
}

/// Optimal placement under a deadline: never fails on exhaustion.
///
/// The degraded-solver contract ([`Exactness`]): when the branch-and-bound
/// budget runs out, the best incumbent found so far is returned flagged
/// [`Exactness::Degraded`] instead of aborting with
/// [`StrollError::BudgetExhausted`]. The incumbent is seeded greedily before
/// the search, so a feasible placement always comes back.
///
/// # Errors
///
/// Only input errors ([`PlacementError::NoFlows`], too few candidate
/// switches) — never budget exhaustion.
pub fn optimal_placement_with_deadline(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
    budget: u64,
    agg: &AttachAggregates,
) -> Result<(Placement, Cost, Exactness), PlacementError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_OPTIMAL_PLACEMENT);
    check_inputs_restricted(g, w, sfc, agg.switches())?;
    let closure = MetricClosure::over(dm, agg.switches());
    Ok(Search::new(agg, &closure, sfc.len(), budget, true).run_with_exactness())
}

/// The literal `O(|V_s|ⁿ)` enumeration of Algorithm 4 (no pruning).
/// Only sensible on small instances; used to validate the branch-and-bound.
pub fn exhaustive_placement(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
) -> Result<(Placement, Cost), PlacementError> {
    let switches = check_inputs(g, w, sfc)?;
    let agg = AttachAggregates::build(g, dm, w);
    let closure = MetricClosure::over(dm, &switches);
    Ok(Search::new(&agg, &closure, sfc.len(), u64::MAX, false).run()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_placement;
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};

    #[test]
    fn bb_matches_exhaustive_on_linear() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        for n in 1..=4 {
            let sfc = Sfc::of_len(n).unwrap();
            let (pb, cb) = optimal_placement(&g, &dm, &w, &sfc).unwrap();
            let (pe, ce) = exhaustive_placement(&g, &dm, &w, &sfc).unwrap();
            assert_eq!(cb, ce, "n={n}");
            assert_eq!(cb, comm_cost(&dm, &w, &pb));
            assert_eq!(ce, comm_cost(&dm, &w, &pe));
        }
    }

    #[test]
    fn bb_matches_exhaustive_on_fat_tree() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 50);
        w.add_pair(hosts[4], hosts[12], 3);
        for n in 1..=3 {
            let sfc = Sfc::of_len(n).unwrap();
            let (_, cb) = optimal_placement(&g, &dm, &w, &sfc).unwrap();
            let (_, ce) = exhaustive_placement(&g, &dm, &w, &sfc).unwrap();
            assert_eq!(cb, ce, "n={n}");
        }
    }

    #[test]
    fn optimal_never_exceeds_dp() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..5 {
            w.add_pair(hosts[2 * i], hosts[2 * i + 1], (i as u64 + 1) * 10);
        }
        for n in 1..=5 {
            let sfc = Sfc::of_len(n).unwrap();
            let (_, copt) = optimal_placement(&g, &dm, &w, &sfc).unwrap();
            let (_, cdp) = dp_placement(&g, &dm, &w, &sfc).unwrap();
            assert!(copt <= cdp, "n={n}: optimal {copt} > dp {cdp}");
        }
    }

    #[test]
    fn example1_optimal_is_410() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        let sfc = Sfc::of_len(2).unwrap();
        let (_, cost) = optimal_placement(&g, &dm, &w, &sfc).unwrap();
        assert_eq!(cost, 410);
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(6).unwrap();
        assert!(matches!(
            optimal_placement_with_budget(&g, &dm, &w, &sfc, 3),
            Err(PlacementError::Stroll(StrollError::BudgetExhausted { .. }))
        ));
    }

    #[test]
    fn deadline_returns_feasible_incumbent() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        let sfc = Sfc::of_len(6).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        // The budget that makes the strict variant fail still produces a
        // valid, cost-consistent placement here.
        let (p, cost, ex) = optimal_placement_with_deadline(&g, &dm, &w, &sfc, 3, &agg).unwrap();
        assert!(!ex.is_exact());
        assert_eq!(p.len(), 6);
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        let (_, copt) = optimal_placement(&g, &dm, &w, &sfc).unwrap();
        assert!(cost >= copt);
        // An ample deadline is exact and optimal.
        let (_, c2, ex2) =
            optimal_placement_with_deadline(&g, &dm, &w, &sfc, DEFAULT_BUDGET, &agg).unwrap();
        assert!(ex2.is_exact());
        assert_eq!(c2, copt);
    }

    #[test]
    fn restricted_aggregates_confine_the_candidates() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[15], 5);
        w.add_pair(hosts[3], hosts[9], 11);
        let sfc = Sfc::of_len(2).unwrap();
        let all: Vec<NodeId> = g.switches().collect();
        let subset: Vec<NodeId> = all[..6].to_vec();
        let agg = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let (p, cost, ex) =
            optimal_placement_with_deadline(&g, &dm, &w, &sfc, DEFAULT_BUDGET, &agg).unwrap();
        assert!(ex.is_exact());
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        for &s in p.switches() {
            assert!(subset.contains(&s), "placement escaped the candidate set");
        }
        // Asking for more VNFs than candidates is a typed error.
        let sfc_big = Sfc::of_len(7).unwrap();
        assert!(matches!(
            optimal_placement_with_deadline(&g, &dm, &w, &sfc_big, DEFAULT_BUDGET, &agg),
            Err(PlacementError::Model(
                ppdc_model::ModelError::TooFewSwitches {
                    switches: 6,
                    vnfs: 7
                }
            ))
        ));
    }
}

//! TOP-1 — the single-flow placement problem of Fig. 7, solved through the
//! n-stroll reduction of Theorem 1.
//!
//! Each entry point builds the induced closure
//! `G' = {s(v₁), s(v'₁)} ∪ V_s`, runs one of the three stroll solvers, and
//! converts the stroll into a placement (VNFs on the first `n` distinct
//! switches). The reported `comm_cost` is the exact Eq. 1 cost of that
//! placement — by the triangle inequality it is never more than the stroll
//! cost, and the two coincide when the stroll is a simple waypoint path.

use crate::PlacementError;
use ppdc_model::{comm_cost_flow, ModelError, Placement};
use ppdc_stroll::{
    dp_stroll, optimal_stroll, primal_dual_stroll, PrimalDualConfig, StrollError, StrollInstance,
    StrollSolution,
};
use ppdc_topology::{Cost, DistanceMatrix, Graph, MetricClosure, NodeId};

/// Result of a TOP-1 solve.
#[derive(Debug, Clone)]
pub struct Top1Solution {
    /// The VNF placement induced by the stroll.
    pub placement: Placement,
    /// Exact Eq. 1 communication cost of the placement for this flow.
    pub comm_cost: Cost,
    /// The raw stroll cost found by the solver (≥ `comm_cost`).
    pub stroll_cost: Cost,
}

fn build_closure(g: &Graph, src: NodeId, dst: NodeId, dm: &DistanceMatrix) -> MetricClosure {
    let mut members: Vec<NodeId> = vec![src];
    if dst != src {
        members.push(dst);
    }
    members.extend(g.switches());
    MetricClosure::over(dm, &members)
}

fn to_solution(
    dm: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    rate: u64,
    n: usize,
    sol: StrollSolution,
) -> Result<Top1Solution, PlacementError> {
    if sol.distinct.len() < n {
        return Err(PlacementError::Model(ModelError::TooFewSwitches {
            switches: sol.distinct.len(),
            vnfs: n,
        }));
    }
    let placement = Placement::new_unchecked(sol.first_n(n).to_vec());
    let comm = comm_cost_flow(dm, src, dst, rate, &placement);
    Ok(Top1Solution {
        placement,
        comm_cost: comm,
        stroll_cost: rate * sol.cost,
    })
}

/// TOP-1 via **DP-Stroll** (Algorithm 2).
pub fn top1_dp(
    g: &Graph,
    dm: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    rate: u64,
    n: usize,
) -> Result<Top1Solution, PlacementError> {
    let closure = build_closure(g, src, dst, dm);
    let inst = StrollInstance::new(&closure, src, dst, n)?;
    let sol = dp_stroll(&inst)?;
    to_solution(dm, src, dst, rate, n, sol)
}

/// TOP-1 via the exact branch-and-bound (**Optimal**). Strict: a search
/// the budget cut short is [`StrollError::BudgetExhausted`], never an
/// unproven placement.
pub fn top1_optimal(
    g: &Graph,
    dm: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    rate: u64,
    n: usize,
    budget: u64,
) -> Result<Top1Solution, PlacementError> {
    let closure = build_closure(g, src, dst, dm);
    let inst = StrollInstance::new(&closure, src, dst, n)?;
    let (sol, exactness) = optimal_stroll(&inst, budget);
    if !exactness.is_exact() {
        return Err(StrollError::BudgetExhausted { budget }.into());
    }
    to_solution(dm, src, dst, rate, n, sol)
}

/// TOP-1 via the Goemans–Williamson **PrimalDual** (Algorithm 1).
pub fn top1_primal_dual(
    g: &Graph,
    dm: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    rate: u64,
    n: usize,
) -> Result<Top1Solution, PlacementError> {
    let closure = build_closure(g, src, dst, dm);
    let inst = StrollInstance::new(&closure, src, dst, n)?;
    let sol = primal_dual_stroll(g, &inst, PrimalDualConfig::default())?;
    to_solution(dm, src, dst, rate, n, sol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::{fat_tree, linear};

    #[test]
    fn theorem1_dp_equals_placement_cost_on_line() {
        // On the linear PPDC the optimal stroll is a simple path, so the
        // stroll cost equals the induced placement cost exactly.
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        for n in 1..=5 {
            let sol = top1_dp(&g, &dm, h1, h2, 10, n).unwrap();
            assert_eq!(sol.comm_cost, sol.stroll_cost, "n={n}");
            assert_eq!(sol.comm_cost, 60, "line distance is 6 hops × rate 10");
            assert_eq!(sol.placement.len(), n);
        }
    }

    #[test]
    fn dp_between_optimal_and_twice_optimal() {
        // Fig. 7's claim: DP-Stroll sits between Optimal and the 2+ε
        // PrimalDual guarantee.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        for n in 1..=6 {
            let opt = top1_optimal(&g, &dm, hosts[0], hosts[9], 1, n, u64::MAX).unwrap();
            let dp = top1_dp(&g, &dm, hosts[0], hosts[9], 1, n).unwrap();
            assert!(opt.comm_cost <= dp.comm_cost, "n={n}");
            assert!(
                dp.comm_cost <= 2 * opt.comm_cost,
                "n={n}: dp {} vs 2×opt {}",
                dp.comm_cost,
                2 * opt.comm_cost
            );
        }
    }

    #[test]
    fn primal_dual_valid_and_bounded() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        for n in 1..=5 {
            let opt = top1_optimal(&g, &dm, hosts[2], hosts[12], 1, n, u64::MAX).unwrap();
            let pd = top1_primal_dual(&g, &dm, hosts[2], hosts[12], 1, n).unwrap();
            assert!(pd.comm_cost >= opt.comm_cost);
            assert!(
                pd.comm_cost <= 2 * opt.comm_cost + 2,
                "n={n}: pd {} opt {}",
                pd.comm_cost,
                opt.comm_cost
            );
        }
    }

    #[test]
    fn same_host_pair_is_a_tour() {
        let (g, h1, _) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let sol = top1_dp(&g, &dm, h1, h1, 100, 2).unwrap();
        // Out to s1, s2 and back: (1 + 1) out, 2 back = 4 hops × 100.
        assert_eq!(sol.comm_cost, 400);
    }

    #[test]
    fn rate_scales_cost_linearly() {
        let (g, h1, h2) = linear(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let a = top1_dp(&g, &dm, h1, h2, 1, 2).unwrap();
        let b = top1_dp(&g, &dm, h1, h2, 17, 2).unwrap();
        assert_eq!(b.comm_cost, 17 * a.comm_cost);
    }
}

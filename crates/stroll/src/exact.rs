//! **Optimal** n-stroll via exact branch-and-bound (the paper's Algorithm 4
//! benchmark, specialized to one flow).
//!
//! In a metric closure an optimal n-stroll can always be taken as a simple
//! waypoint path `s → x₁ → … → x_n → t` with distinct `x_i`: shortcutting a
//! walk to the first-visit subsequence never increases cost under the
//! triangle inequality. The search is therefore the workspace's one
//! branch-and-bound ([`crate::search`]) over ordered distinct waypoint
//! sequences: each step costs `c(last, x)` (from `s` first), the sequence
//! closes with `c(x_n, t)`, and children are tried nearest first, so the
//! first child whose step reaches the incumbent ends its sibling loop. The
//! admissible bound on completing a prefix is
//!
//! * every not-yet-chosen waypoint must be *entered* once, so the remaining
//!   cost is at least the sum of the `r` smallest "cheapest entering edge"
//!   values among unused candidates,
//! * plus the cheapest exit edge from any unused candidate to `t`.
//!
//! The plain exhaustive variant (no pruning) is kept for cross-validation
//! on small instances — it is literally the paper's `O(|V|ⁿ)` Algorithm 4.

use crate::instance::{StrollInstance, StrollSolution};
use crate::search::{branch_and_bound, Objective};
use crate::{Exactness, StrollError};
use ppdc_topology::INFINITY;

/// Default branch-and-bound expansion budget: ample for every experiment
/// size in the paper while still bounding worst-case runtime.
pub const DEFAULT_BUDGET: u64 = 50_000_000;

/// The n-stroll as an [`Objective`]: waypoints are closure indices other
/// than the terminals.
struct Stroll<'a, 'b> {
    inst: &'a StrollInstance<'b>,
    nearest: Vec<Vec<usize>>,
    /// `(cheapest edge entering x from anywhere, x)` per candidate,
    /// cheapest first.
    by_min_in: Vec<(u128, usize)>,
    terminals: [usize; 2],
}

impl<'a, 'b> Stroll<'a, 'b> {
    fn new(inst: &'a StrollInstance<'b>) -> Self {
        let mc = inst.closure();
        let mut by_min_in: Vec<(u128, usize)> = inst
            .candidates()
            .map(|x| {
                let min_in = (0..mc.len())
                    .filter(|&y| y != x)
                    .map(|y| mc.cost_ix(y, x))
                    .min()
                    .unwrap_or(INFINITY);
                (u128::from(min_in), x)
            })
            .collect();
        by_min_in.sort_unstable();
        Stroll {
            inst,
            nearest: mc.nearest_first(),
            by_min_in,
            terminals: [inst.s_ix(), inst.t_ix()],
        }
    }

    fn c(&self, from: Option<usize>, to: usize) -> u128 {
        let from = from.unwrap_or(self.inst.s_ix());
        u128::from(self.inst.closure().cost_ix(from, to))
    }
}

impl Objective for Stroll<'_, '_> {
    const SORTED_STEPS: bool = true;

    fn size(&self) -> usize {
        self.inst.closure().len()
    }

    fn seq_len(&self) -> usize {
        self.inst.n()
    }

    fn reserved(&self) -> &[usize] {
        &self.terminals
    }

    fn order(&self, last: Option<usize>) -> &[usize] {
        &self.nearest[last.unwrap_or(self.inst.s_ix())]
    }

    fn step(&self, last: Option<usize>, _depth: usize, x: usize) -> u128 {
        self.c(last, x)
    }

    fn close(&self, last: Option<usize>) -> u128 {
        self.c(last, self.inst.t_ix())
    }

    fn bound(&self, used: &[bool], _last: Option<usize>, depth: usize) -> u128 {
        // The r smallest entering-edge costs among unused candidates …
        let enter: u128 = self
            .by_min_in
            .iter()
            .filter(|&&(_, x)| !used[x])
            .take(self.inst.n() - depth)
            .map(|&(c, _)| c)
            .sum();
        // … plus the cheapest exit from any unused candidate to t.
        let exit = (0..used.len())
            .filter(|&x| !used[x])
            .map(|x| self.close(Some(x)))
            .min()
            .unwrap_or(0);
        enter + exit
    }
}

/// Runs the search (pruned or not). Always produces a feasible solution:
/// the incumbent is seeded greedily before the first expansion, so even a
/// budget of 0 returns a valid stroll (flagged [`Exactness::Degraded`]).
fn search(inst: &StrollInstance<'_>, budget: u64, prune: bool) -> (StrollSolution, Exactness) {
    let (s, t) = (inst.s_ix(), inst.t_ix());
    if inst.n() == 0 {
        let walk = if inst.is_tour() { vec![s] } else { vec![s, t] };
        return (inst.solution_from_walk(walk), Exactness::Exact);
    }
    let (best, exactness) = branch_and_bound(&Stroll::new(inst), None, budget, prune);
    let mut walk = Vec::with_capacity(inst.n() + 2);
    walk.push(s);
    walk.extend(best.seq);
    walk.push(t);
    (inst.solution_from_walk(walk), exactness)
}

/// Exact optimal n-stroll under an expansion budget ([`DEFAULT_BUDGET`]
/// suits every experiment size in the paper).
///
/// Never fails: when the budget runs out, the best-so-far incumbent comes
/// back flagged [`Exactness::Degraded`] — the degraded-solver contract (see
/// [`Exactness`]). Callers that must not report an unproven bound check
/// the flag and treat a degraded result as not computed.
pub fn optimal_stroll(inst: &StrollInstance<'_>, budget: u64) -> (StrollSolution, Exactness) {
    search(inst, budget, true)
}

/// Plain exhaustive enumeration of all ordered waypoint sequences —
/// `O(|V|ⁿ)`, the paper's Algorithm 4 specialised to one flow. Only for
/// small instances and cross-validation. Unbudgeted, so it always
/// completes.
pub fn exhaustive_stroll(inst: &StrollInstance<'_>) -> Result<StrollSolution, StrollError> {
    Ok(search(inst, u64::MAX, false).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_stroll;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::{DistanceMatrix, Graph, MetricClosure, NodeId};

    /// The budgeted search run to proven optimality.
    fn exact_opt(inst: &StrollInstance<'_>) -> StrollSolution {
        let (sol, ex) = optimal_stroll(inst, DEFAULT_BUDGET);
        assert!(ex.is_exact(), "default budget exhausted");
        sol
    }

    fn closure_with_hosts(g: &Graph, extra: &[NodeId]) -> MetricClosure {
        let dm = DistanceMatrix::build(g);
        let mut members: Vec<NodeId> = extra.to_vec();
        members.extend(g.switches());
        MetricClosure::over(&dm, &members)
    }

    #[test]
    fn matches_exhaustive_on_linear() {
        let (g, h1, h2) = linear(5).unwrap();
        let mc = closure_with_hosts(&g, &[h1, h2]);
        for n in 0..=5 {
            let inst = StrollInstance::new(&mc, h1, h2, n).unwrap();
            let bb = exact_opt(&inst);
            let ex = exhaustive_stroll(&inst).unwrap();
            assert_eq!(bb.cost, ex.cost, "n={n}");
            bb.validate(&inst).unwrap();
            ex.validate(&inst).unwrap();
        }
    }

    #[test]
    fn optimal_leq_dp_everywhere() {
        let g = fat_tree(4).unwrap();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mc = closure_with_hosts(&g, &[hosts[0], hosts[9]]);
        for n in 1..=6 {
            let inst = StrollInstance::new(&mc, hosts[0], hosts[9], n).unwrap();
            let opt = exact_opt(&inst);
            let dp = dp_stroll(&inst).unwrap();
            assert!(
                opt.cost <= dp.cost,
                "n={n}: opt {} vs dp {}",
                opt.cost,
                dp.cost
            );
            opt.validate(&inst).unwrap();
        }
    }

    #[test]
    fn fig2_example3_seven_stroll_is_eight_edge_path() {
        // Paper Example 3: in the k=4 fat-tree, placing 7 VNFs between two
        // hosts in neighboring racks yields an 8-edge path through 7
        // distinct switches (cost 8 in hops), not the looping 8-edge walk.
        let ft = ppdc_topology::FatTree::build(4).unwrap();
        let g = ft.graph();
        // Hosts in racks 1 and 2 (different pods in paper's figure; any two
        // hosts 4 hops apart work the same way).
        let h4 = ft.rack(1)[1];
        let h5 = ft.rack(2)[0];
        let mc = closure_with_hosts(g, &[h4, h5]);
        let inst = StrollInstance::new(&mc, h4, h5, 7).unwrap();
        let opt = exact_opt(&inst);
        opt.validate(&inst).unwrap();
        assert_eq!(opt.cost, 8, "8 hops to span 7 distinct switches");
        assert_eq!(opt.distinct.len(), 7);
        let dp = dp_stroll(&inst).unwrap();
        assert_eq!(dp.cost, 8, "DP avoids the loop and matches");
    }

    #[test]
    fn tour_optimal() {
        let (g, h1, _) = linear(4).unwrap();
        let mc = closure_with_hosts(&g, &[h1]);
        let inst = StrollInstance::new(&mc, h1, h1, 3).unwrap();
        let opt = exact_opt(&inst);
        let ex = exhaustive_stroll(&inst).unwrap();
        assert_eq!(opt.cost, ex.cost);
        // Out to s3 and back: 2 * 3 = 6.
        assert_eq!(opt.cost, 6);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = fat_tree(4).unwrap();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mc = closure_with_hosts(&g, &[hosts[0], hosts[9]]);
        let inst = StrollInstance::new(&mc, hosts[0], hosts[9], 8).unwrap();
        let (_, ex) = optimal_stroll(&inst, 10);
        assert_eq!(ex, Exactness::Degraded { explored: 11 });
    }

    #[test]
    fn deadline_returns_feasible_incumbent() {
        let g = fat_tree(4).unwrap();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mc = closure_with_hosts(&g, &[hosts[0], hosts[9]]);
        let inst = StrollInstance::new(&mc, hosts[0], hosts[9], 8).unwrap();
        // A starved budget…
        let (sol, ex) = optimal_stroll(&inst, 10);
        assert_eq!(ex, Exactness::Degraded { explored: 11 });
        assert!(!ex.is_exact());
        // …still yields a valid stroll, no worse than the greedy seed and
        // no better than the true optimum.
        sol.validate(&inst).unwrap();
        let opt = exact_opt(&inst);
        assert!(sol.cost >= opt.cost);
        // An ample deadline is exact and optimal.
        let (sol2, ex2) = optimal_stroll(&inst, DEFAULT_BUDGET);
        assert_eq!(ex2, Exactness::Exact);
        assert_eq!(sol2.cost, opt.cost);
    }

    #[test]
    fn weighted_graph_optimal() {
        let mut g = Graph::new();
        let s = g.add_switch("s");
        let a = g.add_switch("a");
        let b = g.add_switch("b");
        let c = g.add_switch("c");
        let t = g.add_switch("t");
        g.add_edge(s, a, 1).unwrap();
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, t, 1).unwrap();
        g.add_edge(s, c, 10).unwrap();
        g.add_edge(c, t, 10).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mc = MetricClosure::over(&dm, &[s, a, b, c, t]);
        let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
        let opt = exact_opt(&inst);
        assert_eq!(opt.cost, 3, "rides a, b — never the dear c");
        assert_eq!(opt.distinct, vec![a, b]);
    }
}

//! **Optimal** n-stroll via exact branch-and-bound (the paper's Algorithm 4
//! benchmark, specialized to one flow).
//!
//! In a metric closure an optimal n-stroll can always be taken as a simple
//! waypoint path `s → x₁ → … → x_n → t` with distinct `x_i`: shortcutting a
//! walk to the first-visit subsequence never increases cost under the
//! triangle inequality. The search therefore enumerates ordered distinct
//! waypoint sequences, pruned by an admissible lower bound:
//!
//! * every not-yet-chosen waypoint must be *entered* once, so the remaining
//!   cost is at least the sum of the `r` smallest "cheapest entering edge"
//!   values among unused candidates,
//! * plus the cheapest exit edge from any unused candidate to `t`.
//!
//! The plain exhaustive variant (no pruning) is kept for cross-validation
//! on small instances — it is literally the paper's `O(|V|ⁿ)` Algorithm 4.

use crate::instance::{StrollInstance, StrollSolution};
use crate::{Exactness, StrollError};
use ppdc_topology::{Cost, INFINITY};

/// Default branch-and-bound expansion budget: ample for every experiment
/// size in the paper while still bounding worst-case runtime.
pub const DEFAULT_BUDGET: u64 = 50_000_000;

struct Search<'a, 'b> {
    inst: &'a StrollInstance<'b>,
    /// Candidates sorted once; per-node candidate lists sorted by distance.
    sorted_from: Vec<Vec<usize>>,
    min_in: Vec<Cost>,
    used: Vec<bool>,
    seq: Vec<usize>,
    best_cost: Cost,
    best_seq: Vec<usize>,
    expansions: u64,
    budget: u64,
    prune: bool,
}

impl<'a, 'b> Search<'a, 'b> {
    fn new(inst: &'a StrollInstance<'b>, budget: u64, prune: bool) -> Self {
        let m = inst.closure().len();
        let candidates: Vec<usize> = inst.candidates().collect();
        // sorted_from[u] = candidate list ordered by c(u, x).
        let mut sorted_from = vec![Vec::new(); m];
        for (u, slot) in sorted_from.iter_mut().enumerate() {
            let mut list = candidates.clone();
            list.sort_by_key(|&x| (inst.closure().cost_ix(u, x), x));
            *slot = list;
        }
        // min_in[x] = cheapest edge entering candidate x from anywhere.
        let mut min_in = vec![INFINITY; m];
        for &x in &candidates {
            let mut best = INFINITY;
            for y in 0..m {
                if y != x {
                    best = best.min(inst.closure().cost_ix(y, x));
                }
            }
            min_in[x] = best;
        }
        Search {
            inst,
            sorted_from,
            min_in,
            used: vec![false; m],
            seq: Vec::with_capacity(inst.n()),
            best_cost: INFINITY,
            best_seq: Vec::new(),
            expansions: 0,
            budget,
            prune,
        }
    }

    /// Greedy nearest-neighbor tour to seed the incumbent.
    fn seed_greedy(&mut self) {
        let n = self.inst.n();
        let mut used = vec![false; self.inst.closure().len()];
        let mut seq = Vec::with_capacity(n);
        let mut cur = self.inst.s_ix();
        let mut cost: Cost = 0;
        for _ in 0..n {
            // Instance validation guarantees n candidates; should that
            // invariant ever break, leave the incumbent at INFINITY and let
            // the branch-and-bound run unseeded instead of panicking.
            let Some(next) = self.sorted_from[cur].iter().copied().find(|&x| !used[x]) else {
                return;
            };
            cost += self.inst.closure().cost_ix(cur, next);
            used[next] = true;
            seq.push(next);
            cur = next;
        }
        cost += self.inst.closure().cost_ix(cur, self.inst.t_ix());
        self.best_cost = cost;
        self.best_seq = seq;
    }

    /// Admissible lower bound on completing a partial sequence.
    fn lower_bound(&self, remaining: usize) -> Cost {
        if remaining == 0 {
            return 0;
        }
        // r smallest entering-edge costs among unused candidates …
        let mut smallest: Vec<Cost> = self
            .inst
            .candidates()
            .filter(|&x| !self.used[x])
            .map(|x| self.min_in[x])
            .collect();
        smallest.sort_unstable();
        let enter: Cost = smallest[..remaining].iter().sum();
        // … plus the cheapest exit from any unused candidate to t.
        let exit = self
            .inst
            .candidates()
            .filter(|&x| !self.used[x])
            .map(|x| self.inst.closure().cost_ix(x, self.inst.t_ix()))
            .min()
            .unwrap_or(0);
        enter + exit
    }

    fn dfs(&mut self, last: usize, depth: usize, g: Cost) -> Result<(), StrollError> {
        self.expansions += 1;
        if self.expansions > self.budget {
            return Err(StrollError::BudgetExhausted {
                budget: self.budget,
            });
        }
        let n = self.inst.n();
        if depth == n {
            let total = g + self.inst.closure().cost_ix(last, self.inst.t_ix());
            if total < self.best_cost {
                self.best_cost = total;
                self.best_seq = self.seq.clone();
            }
            return Ok(());
        }
        if self.prune && g + self.lower_bound(n - depth) >= self.best_cost {
            return Ok(());
        }
        let order = self.sorted_from[last].clone();
        for x in order {
            if self.used[x] {
                continue;
            }
            let step = self.inst.closure().cost_ix(last, x);
            if self.prune && g + step >= self.best_cost {
                // Candidates are distance-sorted: all later ones are dearer.
                break;
            }
            self.used[x] = true;
            self.seq.push(x);
            self.dfs(x, depth + 1, g + step)?;
            self.seq.pop();
            self.used[x] = false;
        }
        Ok(())
    }

    /// Runs the search to completion or to its deadline. Always produces a
    /// feasible solution: the incumbent is seeded greedily before the first
    /// expansion, so even a budget of 0 returns a valid stroll (flagged
    /// [`Exactness::Degraded`]).
    fn run(mut self) -> (StrollSolution, Exactness) {
        if self.inst.n() == 0 {
            let walk = if self.inst.is_tour() {
                vec![self.inst.s_ix()]
            } else {
                vec![self.inst.s_ix(), self.inst.t_ix()]
            };
            return (self.inst.solution_from_walk(walk), Exactness::Exact);
        }
        self.seed_greedy();
        let exactness = match self.dfs(self.inst.s_ix(), 0, 0) {
            Ok(()) => Exactness::Exact,
            // dfs only fails on budget exhaustion; the incumbent stands.
            Err(_) => Exactness::Degraded {
                explored: self.expansions,
            },
        };
        let mut walk = Vec::with_capacity(self.inst.n() + 2);
        walk.push(self.inst.s_ix());
        walk.extend(self.best_seq.iter().copied());
        walk.push(self.inst.t_ix());
        (self.inst.solution_from_walk(walk), exactness)
    }
}

/// Exact optimal n-stroll under an expansion budget ([`DEFAULT_BUDGET`]
/// suits every experiment size in the paper).
///
/// Never fails: when the budget runs out, the best-so-far incumbent comes
/// back flagged [`Exactness::Degraded`] — the degraded-solver contract (see
/// [`Exactness`]). Callers that must not report an unproven bound check
/// the flag and treat a degraded result as not computed.
pub fn optimal_stroll(inst: &StrollInstance<'_>, budget: u64) -> (StrollSolution, Exactness) {
    Search::new(inst, budget, true).run()
}

/// Plain exhaustive enumeration of all ordered waypoint sequences —
/// `O(|V|ⁿ)`, the paper's Algorithm 4 specialised to one flow. Only for
/// small instances and cross-validation. Unbudgeted, so it always
/// completes.
pub fn exhaustive_stroll(inst: &StrollInstance<'_>) -> Result<StrollSolution, StrollError> {
    Ok(Search::new(inst, u64::MAX, false).run().0)
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

//! **Optimal** — Algorithm 4: exact VNF placement.
//!
//! The paper's benchmark enumerates all `|V_s|·(|V_s|−1)…(|V_s|−n+1)`
//! ordered placements. Both solvers here run the workspace's one
//! branch-and-bound ([`ppdc_stroll::search`]) over that enumeration: the
//! literal enumeration ([`exhaustive_placement`]) for small cross-checks,
//! and the pruned search ([`optimal_placement`]) that reaches the paper's
//! experiment sizes. The objective:
//!
//! * the first step costs `A_in[p₁]`, each later hop `Σλ·c(p_k, p_{k+1})`,
//!   and the chain closes with `A_out[p_n]` (Eq. 1 via the attach
//!   aggregates);
//! * the ingress is tried in `A_in` order, interior hops nearest first;
//! * a partial chain `p₁ … p_k` is pruned when
//!   `A_in[p₁] + Σλ·chain + Σλ·(n−k)·δ_min + min_unused A_out ≥ best`,
//!   where `δ_min` is the cheapest switch-to-switch closure distance — an
//!   admissible bound, so optimality is preserved;
//! * the incumbent is seeded with the greedy nearest-neighbour chain so
//!   pruning bites from the first node.
//!
//! [`ChainTerms`] holds these terms so Algorithm 6 (TOM at μ = 0 is TOP,
//! Theorem 4) prices the same chain.

use crate::aggregates::AttachAggregates;
use crate::dp::{check_inputs, reachable};
use crate::PlacementError;
use ppdc_model::{Placement, Sfc, Workload};
use ppdc_stroll::{branch_and_bound, Exactness, Objective};
use ppdc_topology::{Cost, DistanceOracle, MetricClosure, INFINITY};

/// Default expansion budget for the placement branch-and-bound.
pub const DEFAULT_BUDGET: u64 = 200_000_000;

/// Algorithm 4's cost terms over a candidate closure, in the `u128` costs
/// of [`ppdc_stroll::search`]: the ingress `A_in`, the chain hop `Σλ·c`,
/// the egress `A_out`, and the pieces of the admissible bound.
pub struct ChainTerms<'a> {
    closure: &'a MetricClosure,
    nearest: Vec<Vec<usize>>,
    a_in: Vec<Cost>,
    a_out: Vec<Cost>,
    rate: u128,
    /// `Σλ · δ_min`: the cheapest conceivable chain hop.
    hop_lb: u128,
}

impl<'a> ChainTerms<'a> {
    /// The terms of the chain over `closure`'s members, priced by `agg`.
    pub fn new(closure: &'a MetricClosure, agg: &AttachAggregates) -> Self {
        let rate = u128::from(agg.total_rate());
        ChainTerms {
            closure,
            nearest: closure.nearest_first(),
            a_in: closure.nodes().iter().map(|&s| agg.a_in(s)).collect(),
            a_out: closure.nodes().iter().map(|&s| agg.a_out(s)).collect(),
            rate,
            hop_lb: rate * u128::from(closure.min_pair_cost()),
        }
    }

    /// The closure the indices refer to.
    pub fn closure(&self) -> &'a MetricClosure {
        self.closure
    }

    /// The other closure indices, nearest to `u` first.
    pub fn nearest(&self, u: usize) -> &[usize] {
        &self.nearest[u]
    }

    /// `A_in` and `A_out` of closure index `x`, as the aggregates hold them.
    pub fn attach(&self, x: usize) -> (Cost, Cost) {
        (self.a_in[x], self.a_out[x])
    }

    /// Cost of placing `x` after `last`: `A_in[x]` for the ingress,
    /// `Σλ·c(last, x)` for a later hop.
    pub fn step(&self, last: Option<usize>, x: usize) -> u128 {
        match last {
            None => u128::from(self.a_in[x]),
            Some(u) => self.rate * u128::from(self.closure.cost_ix(u, x)),
        }
    }

    /// `A_out` of the egress `last` (0 for an empty chain).
    pub fn close(&self, last: Option<usize>) -> u128 {
        last.map_or(0, |x| u128::from(self.a_out[x]))
    }

    /// `Σλ·δ_min` per hop: a lower bound on `hops` more chain hops.
    pub fn hops_lb(&self, hops: usize) -> u128 {
        self.hop_lb
            .saturating_mul(u128::try_from(hops).unwrap_or(u128::MAX))
    }

    /// The cheapest `A_out` among the unused indices and `also`.
    pub fn min_egress(&self, used: &[bool], also: Option<usize>) -> Cost {
        (0..used.len())
            .filter(|&x| !used[x] || Some(x) == also)
            .map(|x| self.a_out[x])
            .min()
            .unwrap_or(0)
    }
}

/// Algorithm 4 as an [`Objective`].
struct Alg4<'a> {
    chain: ChainTerms<'a>,
    /// Closure indices by `(A_in, index)`: the ingress order.
    by_a_in: Vec<usize>,
    n: usize,
}

impl Objective for Alg4<'_> {
    fn size(&self) -> usize {
        self.chain.closure().len()
    }

    fn seq_len(&self) -> usize {
        self.n
    }

    fn order(&self, last: Option<usize>) -> &[usize] {
        match last {
            None => &self.by_a_in,
            Some(u) => self.chain.nearest(u),
        }
    }

    fn step(&self, last: Option<usize>, _depth: usize, x: usize) -> u128 {
        self.chain.step(last, x)
    }

    fn close(&self, last: Option<usize>) -> u128 {
        self.chain.close(last)
    }

    fn bound(&self, used: &[bool], last: Option<usize>, depth: usize) -> u128 {
        // The ingress is not a hop: a chain of n has n − 1 of them.
        let egress = u128::from(self.chain.min_egress(used, last));
        self.chain
            .hops_lb(self.n - depth.max(1))
            .saturating_add(egress)
    }
}

/// Runs Algorithm 4 over `agg`'s candidates (pruned or literal). The
/// greedy seed always installs an incumbent first, so a feasible placement
/// comes back even when the budget dies on the first expansion.
fn search<D: DistanceOracle + ?Sized>(
    dm: &D,
    agg: &AttachAggregates,
    n: usize,
    budget: u64,
    prune: bool,
) -> Result<(Placement, Cost, Exactness), PlacementError> {
    let closure = MetricClosure::over(dm, agg.switches());
    let chain = ChainTerms::new(&closure, agg);
    let mut by_a_in: Vec<usize> = (0..closure.len()).collect();
    by_a_in.sort_by_key(|&x| (chain.attach(x).0, x));
    let (best, exactness) = branch_and_bound(&Alg4 { chain, by_a_in, n }, None, budget, prune);
    let placement = Placement::new_unchecked(best.seq.iter().map(|&i| closure.node(i)).collect());
    // `strict-invariants` contract: every search exit (exact,
    // budget-degraded, exhaustive) funnels through here and must hand
    // back an injective placement.
    #[cfg(feature = "strict-invariants")]
    assert!(
        placement.is_injective(),
        "branch-and-bound returned a non-injective placement: {:?}",
        placement.switches()
    );
    let cost = Cost::try_from(best.cost).map_or(INFINITY, |c| c.min(INFINITY));
    let (placement, cost) = reachable(Some((placement, cost)))?;
    Ok((placement, cost, exactness))
}

/// Exact optimal placement (Algorithm 4) over `agg`'s candidate switches
/// under an expansion budget ([`DEFAULT_BUDGET`] suits the paper's sizes).
/// `agg` must describe `w` on `dm`; callers without aggregates build them
/// with [`AttachAggregates::build`].
///
/// The degraded-solver contract ([`Exactness`]): when the branch-and-bound
/// budget runs out, the best incumbent found so far is returned flagged
/// [`Exactness::Degraded`]. The incumbent is seeded greedily before the
/// search, so a feasible placement always comes back. Strict callers (the
/// paper's exhaustive baseline, which must report "not computed" at
/// scale) check the flag themselves.
///
/// # Errors
///
/// Input errors ([`PlacementError::NoFlows`], too few candidate switches)
/// and [`ppdc_stroll::StrollError::Unreachable`] when the best placement
/// found crosses a partition (its cost saturates at [`INFINITY`]).
pub fn optimal_placement<D: DistanceOracle + ?Sized>(
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
    budget: u64,
) -> Result<(Placement, Cost, Exactness), PlacementError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_OPTIMAL_PLACEMENT);
    check_inputs(w, sfc, agg)?;
    search(dm, agg, sfc.len(), budget, true)
}

/// The literal `O(|V_s|ⁿ)` enumeration of Algorithm 4 (no pruning, no
/// budget) over `agg`'s candidate switches. Only sensible on small
/// instances; used to validate the branch-and-bound.
///
/// # Errors
///
/// As [`optimal_placement`].
pub fn exhaustive_placement<D: DistanceOracle + ?Sized>(
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
) -> Result<(Placement, Cost), PlacementError> {
    check_inputs(w, sfc, agg)?;
    let (p, cost, _) = search(dm, agg, sfc.len(), u64::MAX, false)?;
    Ok((p, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_placement;
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::{DistanceMatrix, Graph, NodeId};

    /// The budgeted search over full aggregates, run to proven optimality.
    fn exact_opt(g: &Graph, dm: &DistanceMatrix, w: &Workload, sfc: &Sfc) -> (Placement, Cost) {
        let agg = AttachAggregates::build(g, dm, w);
        let (p, cost, ex) = optimal_placement(dm, w, sfc, &agg, DEFAULT_BUDGET).unwrap();
        assert!(ex.is_exact(), "default budget exhausted");
        (p, cost)
    }

    #[test]
    fn bb_matches_exhaustive_on_linear() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        for n in 1..=4 {
            let sfc = Sfc::of_len(n).unwrap();
            let (pb, cb) = exact_opt(&g, &dm, &w, &sfc);
            let (pe, ce) =
                exhaustive_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
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
            let (_, cb) = exact_opt(&g, &dm, &w, &sfc);
            let (_, ce) =
                exhaustive_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
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
            let (_, copt) = exact_opt(&g, &dm, &w, &sfc);
            let (_, cdp) =
                dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
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
        let (_, cost) = exact_opt(&g, &dm, &w, &sfc);
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
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (_, _, ex) = optimal_placement(&dm, &w, &sfc, &agg, 3).unwrap();
        assert!(matches!(ex, Exactness::Degraded { .. }));
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
        // A starved budget still produces a valid, cost-consistent
        // placement here.
        let (p, cost, ex) = optimal_placement(&dm, &w, &sfc, &agg, 3).unwrap();
        assert!(!ex.is_exact());
        assert_eq!(p.len(), 6);
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        let (_, copt) = exact_opt(&g, &dm, &w, &sfc);
        assert!(cost >= copt);
        // An ample deadline is exact and optimal.
        let (_, c2, ex2) = optimal_placement(&dm, &w, &sfc, &agg, DEFAULT_BUDGET).unwrap();
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
        let (p, cost, ex) = optimal_placement(&dm, &w, &sfc, &agg, DEFAULT_BUDGET).unwrap();
        assert!(ex.is_exact());
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        for &s in p.switches() {
            assert!(subset.contains(&s), "placement escaped the candidate set");
        }
        // Asking for more VNFs than candidates is a typed error.
        let sfc_big = Sfc::of_len(7).unwrap();
        assert!(matches!(
            optimal_placement(&dm, &w, &sfc_big, &agg, DEFAULT_BUDGET),
            Err(PlacementError::Model(
                ppdc_model::ModelError::TooFewSwitches {
                    switches: 6,
                    vnfs: 7
                }
            ))
        ));
    }
}

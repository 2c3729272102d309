//! Metric closures over node subsets.
//!
//! Algorithm 2 of the paper runs its stroll DP on the *complete* graph `G''`
//! whose vertices are `{s(v₁), s(v'₁)} ∪ V_s` and whose edge costs are
//! shortest-path costs in the PPDC. [`MetricClosure`] materializes that
//! complete graph as a dense matrix with a compact local index space, which
//! is what makes the DP cache-friendly.

use crate::graph::{Cost, NodeId, INFINITY};
use crate::oracle::DistanceOracle;

/// A dense complete graph over a subset of the original nodes, with
/// shortest-path costs as edge weights.
///
/// Every fill also derives three facts of the cost surface, once, in
/// `O(m²)`: the cheapest distinct-pair cost ([`MetricClosure::min_pair_cost`]),
/// whether the costs are shortest-path costs
/// ([`MetricClosure::is_shortest_path`]), and a parity colouring when one
/// exists ([`MetricClosure::parity_colouring`]). The stroll DP bounds its
/// rows with them.
#[derive(Debug, Clone)]
pub struct MetricClosure {
    nodes: Vec<NodeId>,
    index_of: Vec<u32>,
    cost: Vec<Cost>,
    /// `δ_min` over distinct members; [`INFINITY`] below two members.
    min_pair: Cost,
    /// Set when `cost` holds a distance oracle's shortest-path costs, so
    /// the triangle inequality holds; cleared by [`MetricClosure::map_costs`].
    shortest_path: bool,
    /// `col(x) = c(x₀, x) mod 2` when every pair is finite and
    /// `c(x, y) ≡ col(x) ⊕ col(y)`; empty otherwise.
    parity: Vec<u8>,
}

const NOT_MEMBER: u32 = u32::MAX;

impl Default for MetricClosure {
    /// The empty closure: no members, so `δ_min` is [`INFINITY`].
    fn default() -> Self {
        MetricClosure {
            nodes: Vec::new(),
            index_of: Vec::new(),
            cost: Vec::new(),
            min_pair: INFINITY,
            shortest_path: false,
            parity: Vec::new(),
        }
    }
}

impl MetricClosure {
    /// Builds the closure over `nodes` (must be distinct) using the
    /// distance oracle `dm` (a dense matrix or an analytic oracle — the
    /// closure is the only V²-free step between a fat-tree oracle and the
    /// stroll DP).
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or ids outside `dm`.
    pub fn over<D: DistanceOracle + ?Sized>(dm: &D, nodes: &[NodeId]) -> Self {
        let mut mc = MetricClosure::default();
        mc.rebuild_over(dm, nodes);
        mc
    }

    /// Refills the closure in place for a (possibly different) member set
    /// and matrix, reusing all three allocations. Clearing the reverse
    /// index touches only the *previous* members — `O(m_old)` instead of
    /// `O(|V|)` — so a solver calling this once per epoch never pays the
    /// node-universe-sized scratch that [`MetricClosure::over`] allocates.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or ids outside `dm`.
    pub fn rebuild_over<D: DistanceOracle + ?Sized>(&mut self, dm: &D, nodes: &[NodeId]) {
        for &n in &self.nodes {
            if let Some(e) = self.index_of.get_mut(n.index()) {
                *e = NOT_MEMBER;
            }
        }
        if self.index_of.len() != dm.num_nodes() {
            self.index_of.clear();
            self.index_of.resize(dm.num_nodes(), NOT_MEMBER);
        }
        self.nodes.clear();
        self.nodes.extend_from_slice(nodes);
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(
                self.index_of[n.index()],
                NOT_MEMBER,
                "duplicate node in closure"
            );
            self.index_of[n.index()] = crate::mint_u32(i, "closure size exceeds the u32 id space");
        }
        let m = nodes.len();
        self.cost.clear();
        self.cost.resize(m * m, 0);
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate() {
                self.cost[i * m + j] = dm.cost(u, v);
            }
        }
        // One batched count for the whole fill — no per-query atomics.
        ppdc_obs::global().add(
            ppdc_obs::names::ORACLE_QUERIES,
            u64::try_from(m * m).unwrap_or(u64::MAX),
        );
        // A distance oracle answers shortest-path costs (its contract).
        self.shortest_path = true;
        self.derive_facts();
        #[cfg(feature = "strict-invariants")]
        self.check_facts();
    }

    /// Recomputes the cached cost-surface facts after `cost` changed:
    /// `δ_min` and the parity colouring, in one pass over the pairs.
    fn derive_facts(&mut self) {
        let m = self.len();
        self.parity.clear();
        self.parity
            .extend((0..m).map(|x| u8::from(self.cost[x] & 1 == 1)));
        let mut best = INFINITY;
        let mut parity_ok = true;
        for i in 0..m {
            let row = self.row(i);
            for (j, &c) in row.iter().enumerate() {
                if i != j {
                    best = best.min(c);
                }
                let expect = Cost::from(self.parity[i] ^ self.parity[j]);
                parity_ok &= c < INFINITY && c & 1 == expect;
            }
        }
        self.min_pair = best;
        if !parity_ok {
            self.parity.clear();
        }
    }

    /// `strict-invariants` contract: the facts the stroll DP's row bound
    /// trusts hold for every small closure — the triangle inequality
    /// behind the shortest-path flag, and the parity colouring when kept.
    #[cfg(feature = "strict-invariants")]
    fn check_facts(&self) {
        let m = self.len();
        if m > 64 {
            return;
        }
        assert!(
            self.is_metric(),
            "closure built from a distance oracle violates the triangle inequality"
        );
        if let Some(col) = self.parity_colouring() {
            for i in 0..m {
                for j in 0..m {
                    assert_eq!(
                        self.cost_ix(i, j) % 2,
                        Cost::from(col[i] ^ col[j]),
                        "closure keeps a parity colouring its costs break"
                    );
                }
            }
        }
    }

    /// Number of closure nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the closure is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cost between closure indices `i` and `j`.
    #[inline]
    pub fn cost_ix(&self, i: usize, j: usize) -> Cost {
        self.cost[i * self.nodes.len() + j]
    }

    /// Row `i` of the cost matrix: `cost_ix(i, j)` for every `j`.
    #[inline]
    pub fn row(&self, i: usize) -> &[Cost] {
        let m = self.nodes.len();
        &self.cost[i * m..(i + 1) * m]
    }

    /// Cost between original node ids `u` and `v` (both must be members).
    pub fn cost(&self, u: NodeId, v: NodeId) -> Cost {
        match (self.index(u), self.index(v)) {
            (Some(i), Some(j)) => self.cost_ix(i, j),
            #[expect(
                clippy::panic,
                reason = "documented precondition: members only; index() is the fallible twin"
            )]
            _ => panic!("cost({u:?}, {v:?}): node not in closure"),
        }
    }

    /// The original node behind closure index `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// All member nodes in closure-index order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The closure index of original node `n`, if a member.
    #[inline]
    pub fn index(&self, n: NodeId) -> Option<usize> {
        match self.index_of.get(n.index()) {
            #[expect(
                clippy::as_conversions,
                reason = "u32 → usize is lossless on every supported target"
            )]
            Some(&i) if i != NOT_MEMBER => Some(i as usize),
            _ => None,
        }
    }

    /// `δ_min`: the cheapest cost between two distinct members — a lower
    /// bound on every hop between distinct closure nodes. [`INFINITY`]
    /// when the closure has fewer than two members. Computed once per
    /// fill.
    #[inline]
    pub fn min_pair_cost(&self) -> Cost {
        self.min_pair
    }

    /// True when the costs are a distance oracle's shortest-path costs,
    /// so `c(a, c) ≤ c(a, b) + c(b, c)` for every triple. Set by
    /// [`MetricClosure::over`] / [`MetricClosure::rebuild_over`]; a
    /// [`MetricClosure::map_costs`] copy is never trusted to keep it.
    #[inline]
    pub fn is_shortest_path(&self) -> bool {
        self.shortest_path
    }

    /// The parity colouring `col(x) = c(x₀, x) mod 2` (one `0`/`1` per
    /// member), kept only when every pair is finite and
    /// `c(x, y) ≡ col(x) ⊕ col(y) (mod 2)` for all members — then every
    /// walk from `u` to `v` costs `col(u) ⊕ col(v)` modulo 2, since its
    /// edge parities telescope. Every unweighted bipartite fabric (fat
    /// trees, leaf–spine) has one; `None` otherwise.
    #[inline]
    pub fn parity_colouring(&self) -> Option<&[u8]> {
        (!self.parity.is_empty()).then_some(self.parity.as_slice())
    }

    /// For every member `u`, the other members nearest first: entry `u`
    /// lists each `x ≠ u` ordered by `(cost_ix(u, x), x)`.
    pub fn nearest_first(&self) -> Vec<Vec<usize>> {
        let m = self.len();
        (0..m)
            .map(|u| {
                let mut list: Vec<usize> = (0..m).filter(|&x| x != u).collect();
                list.sort_by_key(|&x| (self.cost_ix(u, x), x));
                list
            })
            .collect()
    }

    /// Returns a copy of the closure with every pairwise cost rewritten by
    /// `f(i, j, cost)` (closure-local indices). Used by solvers that need
    /// tie-breaking perturbations of the cost surface. The copy is not
    /// trusted to be a shortest-path surface; `δ_min` and the parity
    /// colouring are recomputed from the new costs.
    pub fn map_costs(&self, mut f: impl FnMut(usize, usize, Cost) -> Cost) -> MetricClosure {
        let m = self.len();
        let mut out = self.clone();
        for i in 0..m {
            for j in 0..m {
                out.cost[i * m + j] = f(i, j, self.cost[i * m + j]);
            }
        }
        out.shortest_path = false;
        out.derive_facts();
        out
    }

    /// Verifies the triangle inequality over all member triples.
    /// Shortest-path costs always satisfy it; exposed for tests/debugging.
    pub fn is_metric(&self) -> bool {
        let m = self.len();
        for a in 0..m {
            for b in 0..m {
                for c in 0..m {
                    if self.cost_ix(a, c) > self.cost_ix(a, b).saturating_add(self.cost_ix(b, c)) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree, linear};
    use crate::graph::Graph;
    use crate::shortest::DistanceMatrix;

    #[test]
    fn closure_over_linear_switches() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members: Vec<NodeId> = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        assert_eq!(mc.len(), 7);
        assert_eq!(mc.cost(h1, h2), 6);
        assert_eq!(mc.cost(h1, NodeId(0)), 1);
        assert_eq!(mc.cost(NodeId(0), NodeId(4)), 4);
        assert!(mc.is_metric());
    }

    #[test]
    fn index_round_trips() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let members: Vec<NodeId> = g.switches().collect();
        let mc = MetricClosure::over(&dm, &members);
        for (i, &n) in members.iter().enumerate() {
            assert_eq!(mc.index(n), Some(i));
            assert_eq!(mc.node(i), n);
        }
        // A host is not a member.
        let host = g.hosts().next().unwrap();
        assert_eq!(mc.index(host), None);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn rejects_duplicates() {
        let (g, h1, _) = linear(2).unwrap();
        let dm = DistanceMatrix::build(&g);
        MetricClosure::over(&dm, &[h1, h1]);
    }

    #[test]
    fn rebuild_over_matches_fresh_build() {
        // One closure object cycled through different member sets (and a
        // different-size universe) must equal a fresh `over` each time.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let (lin, h1, h2) = linear(4).unwrap();
        let lin_dm = DistanceMatrix::build(&lin);
        let mut lin_members = vec![h1, h2];
        lin_members.extend(lin.switches());
        let mut mc = MetricClosure::over(&dm, &switches);
        for members in [&switches[..8], &switches[..], &lin_members[..]] {
            let (d, mems): (&DistanceMatrix, &[NodeId]) = if members.len() == lin_members.len() {
                (&lin_dm, members)
            } else {
                (&dm, members)
            };
            mc.rebuild_over(d, mems);
            let fresh = MetricClosure::over(d, mems);
            assert_eq!(mc.nodes(), fresh.nodes());
            for i in 0..mems.len() {
                assert_eq!(mc.index(mems[i]), Some(i));
                for j in 0..mems.len() {
                    assert_eq!(mc.cost_ix(i, j), fresh.cost_ix(i, j));
                }
            }
        }
        // Old members that left the set are no longer indexed.
        assert_eq!(mc.index(switches[10]), None);
    }

    #[test]
    fn fills_cache_the_cost_surface_facts() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let members: Vec<NodeId> = g.nodes().collect();
        let mc = MetricClosure::over(&dm, &members);
        assert!(mc.is_shortest_path());
        assert_eq!(mc.min_pair_cost(), 1);
        // Hosts and aggregation switches on one side, edge and core
        // switches on the other: the bipartite fat-tree has a colouring.
        let col = mc.parity_colouring().expect("fat-trees are bipartite");
        for i in 0..mc.len() {
            for j in 0..mc.len() {
                assert_eq!(mc.cost_ix(i, j) % 2, Cost::from(col[i] ^ col[j]));
            }
        }
        assert_eq!(MetricClosure::default().min_pair_cost(), INFINITY);
        assert!(!MetricClosure::default().is_shortest_path());
    }

    #[test]
    fn map_costs_rederives_the_facts() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let mc = MetricClosure::over(&dm, &switches);
        // Doubling keeps every cost even: a colouring survives (all one
        // colour), δ_min doubles, and the copy is no longer trusted as a
        // shortest-path surface.
        let doubled = mc.map_costs(|_, _, c| 2 * c);
        assert!(!doubled.is_shortest_path());
        assert_eq!(doubled.min_pair_cost(), 2);
        assert!(doubled.parity_colouring().unwrap().iter().all(|&c| c == 0));
        // One odd pair among even ones breaks every colouring.
        let odd = mc.map_costs(|i, j, c| if (i, j) == (0, 1) { 2 * c + 1 } else { 2 * c });
        assert!(odd.parity_colouring().is_none());
        assert_eq!(odd.min_pair_cost(), 2);
        // A severed pair (the `INFINITY` sentinel) disables parity even
        // though the sentinel's own parity would fit.
        let severed = mc.map_costs(|i, j, c| {
            if (i, j) == (0, 1) || (i, j) == (1, 0) {
                INFINITY
            } else {
                c
            }
        });
        assert!(severed.parity_colouring().is_none());
        assert_eq!(severed.min_pair_cost(), 1);
    }

    #[test]
    fn unreachable_pairs_disable_parity() {
        // Two separate links: every cross pair sits at `INFINITY`.
        let mut g = Graph::new();
        let a = g.add_switch("a");
        let b = g.add_switch("b");
        let c = g.add_switch("c");
        let d = g.add_switch("d");
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mc = MetricClosure::over(&dm, &[a, b, c, d]);
        assert!(mc.is_shortest_path());
        assert!(mc.parity_colouring().is_none());
        assert_eq!(mc.min_pair_cost(), 1);
        // Each component alone is a single link: colourable.
        assert!(MetricClosure::over(&dm, &[a, b])
            .parity_colouring()
            .is_some());
    }

    #[test]
    fn metric_check_detects_violation() {
        // Hand-build a non-metric closure by bypassing `over`.
        let mut g = Graph::new();
        let a = g.add_switch("a");
        let b = g.add_switch("b");
        let c = g.add_switch("c");
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 1).unwrap();
        g.add_edge(a, c, 10).unwrap(); // direct edge dearer than detour
        let dm = DistanceMatrix::build(&g);
        // Shortest paths repair the violation, so the closure is metric.
        let mc = MetricClosure::over(&dm, &[a, b, c]);
        assert!(mc.is_metric());
        assert_eq!(mc.cost(a, c), 2);
    }
}

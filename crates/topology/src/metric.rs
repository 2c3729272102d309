//! Metric closures over node subsets.
//!
//! Algorithm 2 of the paper runs its stroll DP on the *complete* graph `G''`
//! whose vertices are `{s(v₁), s(v'₁)} ∪ V_s` and whose edge costs are
//! shortest-path costs in the PPDC. [`MetricClosure`] materializes that
//! complete graph as a dense matrix with a compact local index space, which
//! is what makes the DP cache-friendly.

use crate::graph::{Cost, NodeId};
use crate::oracle::DistanceOracle;

/// A dense complete graph over a subset of the original nodes, with
/// shortest-path costs as edge weights.
#[derive(Debug, Clone, Default)]
pub struct MetricClosure {
    nodes: Vec<NodeId>,
    index_of: Vec<u32>,
    cost: Vec<Cost>,
}

const NOT_MEMBER: u32 = u32::MAX;

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

    /// Cost between original node ids `u` and `v` (both must be members).
    pub fn cost(&self, u: NodeId, v: NodeId) -> Cost {
        match (self.index(u), self.index(v)) {
            (Some(i), Some(j)) => self.cost_ix(i, j),
            _ => panic!("cost({u:?}, {v:?}): node not in closure"), // analyzer:allow(no-panic) -- documented precondition: members only; index() is the fallible twin
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

    /// Returns a copy of the closure with every pairwise cost rewritten by
    /// `f(i, j, cost)` (closure-local indices). Used by solvers that need
    /// tie-breaking perturbations of the cost surface.
    pub fn map_costs(&self, mut f: impl FnMut(usize, usize, Cost) -> Cost) -> MetricClosure {
        let m = self.len();
        let mut out = self.clone();
        for i in 0..m {
            for j in 0..m {
                out.cost[i * m + j] = f(i, j, self.cost[i * m + j]);
            }
        }
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

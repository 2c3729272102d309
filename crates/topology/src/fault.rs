//! Fault overlays: failed links/switches/hosts and the degraded graph view.
//!
//! Real PPDCs lose links and ToR switches mid-day; the TOM epoch loop must
//! keep running on whatever fabric is left. The design here keeps the fault
//! state *outside* the graph: a [`FaultSet`] is a cheap overlay of failed
//! element ids, and [`Graph::degraded_view`] materializes the surviving
//! fabric on demand. Crucially the view keeps **every node of the original
//! graph, with the same ids** — a failed switch becomes an isolated node
//! rather than disappearing — so all `NodeId`-indexed state (workloads,
//! distance matrices via [`crate::DistanceMatrix::rebuild_dirty`],
//! aggregate arrays) stays valid across failure and repair events. Only
//! *edge* ids differ between the original and a view; downstream code
//! consumes the view through distances, never through edge ids.
//!
//! [`Partition`] reports the connected components of a (degraded) graph so
//! the epoch loop can pick a serving component and detect stranded flows.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::TopologyError;

/// A set of failed nodes and edges, overlaid on a specific [`Graph`].
///
/// Node and edge ids refer to the *original* graph the set was created for.
/// Fail/repair operations are idempotent and report whether they changed
/// anything, which lets schedules skip no-op events deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSet {
    node_failed: Vec<bool>,
    edge_failed: Vec<bool>,
}

impl FaultSet {
    /// An all-healthy fault set sized for `g`.
    pub fn new(g: &Graph) -> Self {
        FaultSet {
            node_failed: vec![false; g.num_nodes()],
            edge_failed: vec![false; g.num_edges()],
        }
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.index() < self.node_failed.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(n))
        }
    }

    fn check_edge(&self, e: EdgeId) -> Result<(), TopologyError> {
        if e.index() < self.edge_failed.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownEdge(e))
        }
    }

    /// Marks node `n` (switch or host) failed. Returns `true` if the node
    /// was previously healthy.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] if `n` is out of range.
    pub fn fail_node(&mut self, n: NodeId) -> Result<bool, TopologyError> {
        self.check_node(n)?;
        let changed = !self.node_failed[n.index()];
        self.node_failed[n.index()] = true;
        Ok(changed)
    }

    /// Clears node `n`'s failure. Returns `true` if the node was failed.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownNode`] if `n` is out of range.
    pub fn repair_node(&mut self, n: NodeId) -> Result<bool, TopologyError> {
        self.check_node(n)?;
        let changed = self.node_failed[n.index()];
        self.node_failed[n.index()] = false;
        Ok(changed)
    }

    /// Marks edge `e` failed. Returns `true` if the edge was previously
    /// healthy.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownEdge`] if `e` is out of range.
    pub fn fail_edge(&mut self, e: EdgeId) -> Result<bool, TopologyError> {
        self.check_edge(e)?;
        let changed = !self.edge_failed[e.index()];
        self.edge_failed[e.index()] = true;
        Ok(changed)
    }

    /// Clears edge `e`'s failure. Returns `true` if the edge was failed.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownEdge`] if `e` is out of range.
    pub fn repair_edge(&mut self, e: EdgeId) -> Result<bool, TopologyError> {
        self.check_edge(e)?;
        let changed = self.edge_failed[e.index()];
        self.edge_failed[e.index()] = false;
        Ok(changed)
    }

    /// True if node `n` is currently failed (out-of-range ids are healthy).
    #[inline]
    pub fn node_failed(&self, n: NodeId) -> bool {
        self.node_failed.get(n.index()).copied().unwrap_or(false)
    }

    /// True if edge `e` is currently failed (out-of-range ids are healthy).
    #[inline]
    pub fn edge_failed(&self, e: EdgeId) -> bool {
        self.edge_failed.get(e.index()).copied().unwrap_or(false)
    }

    /// Number of currently failed nodes.
    pub fn num_failed_nodes(&self) -> usize {
        self.node_failed.iter().filter(|&&b| b).count()
    }

    /// Number of currently failed edges.
    pub fn num_failed_edges(&self) -> usize {
        self.edge_failed.iter().filter(|&&b| b).count()
    }

    /// True if nothing is failed.
    pub fn is_healthy(&self) -> bool {
        self.num_failed_nodes() == 0 && self.num_failed_edges() == 0
    }

    /// Currently failed node ids, in id order.
    pub fn failed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_failed
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| NodeId::from_index(i))
    }

    /// Currently failed edge ids, in id order.
    pub fn failed_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edge_failed
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(i, _)| EdgeId::from_index(i))
    }
}

impl Graph {
    /// The surviving fabric under `faults`: a graph with the **same nodes
    /// and node ids** as `self`, containing exactly the edges that are not
    /// failed and whose both endpoints are alive.
    ///
    /// Keeping failed nodes in place (isolated) preserves every
    /// `NodeId`-indexed structure across fail/repair events; in particular
    /// [`crate::DistanceMatrix::rebuild_dirty`] can reuse its allocation.
    /// Edge ids of the view are renumbered and do **not** correspond to
    /// `self`'s edge ids — consume the view through distances, not edges.
    ///
    /// With an all-healthy fault set the view reproduces `self`'s edges in
    /// the same order, so rebuilt distance matrices are bit-identical to the
    /// originals (the fail→repair round-trip guarantee).
    pub fn degraded_view(&self, faults: &FaultSet) -> Graph {
        let mut view = Graph::new();
        for n in self.nodes() {
            match self.kind(n) {
                crate::graph::NodeKind::Host => view.add_host(self.label(n)),
                crate::graph::NodeKind::Switch => view.add_switch(self.label(n)),
            };
        }
        for (i, (u, v, w)) in self.edges().enumerate() {
            if faults.edge_failed(EdgeId::from_index(i))
                || faults.node_failed(u)
                || faults.node_failed(v)
            {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "subset of a validated graph: endpoints exist and duplicates were rejected at source"
            )]
            view.add_edge(u, v, w)
                .expect("edges of a valid graph stay valid in its degraded view");
        }
        view
    }
}

/// Connected components of a graph, computed deterministically: components
/// are numbered in order of their lowest node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    component: Vec<u32>,
    sizes: Vec<usize>,
}

impl Partition {
    /// Computes the components of `g` by BFS in node-id order.
    pub fn of(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut component = vec![u32::MAX; n];
        let mut sizes = Vec::new();
        let mut queue = std::collections::VecDeque::new();
        for start in g.nodes() {
            if component[start.index()] != u32::MAX {
                continue;
            }
            let ci = sizes.len();
            let c = crate::mint_u32(ci, "component count exceeds the u32 id space");
            sizes.push(0);
            component[start.index()] = c;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                sizes[ci] += 1;
                for &(v, _) in g.neighbors(u) {
                    if component[v.index()] == u32::MAX {
                        component[v.index()] = c;
                        queue.push_back(v);
                    }
                }
            }
        }
        Partition { component, sizes }
    }

    /// The component id of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the partitioned graph.
    #[inline]
    pub fn component(&self, n: NodeId) -> u32 {
        self.component[n.index()]
    }

    /// Number of connected components.
    pub fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Number of nodes in component `c`.
    #[expect(
        clippy::as_conversions,
        reason = "u32 → usize is lossless on every supported target"
    )]
    pub fn size(&self, c: u32) -> usize {
        self.sizes[c as usize]
    }

    /// True if `a` and `b` are in the same component.
    #[inline]
    pub fn same_component(&self, a: NodeId, b: NodeId) -> bool {
        self.component(a) == self.component(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::fat_tree;
    use crate::shortest::DistanceMatrix;
    use crate::INFINITY;

    #[test]
    fn fail_and_repair_are_idempotent_and_reported() {
        let g = fat_tree(4).unwrap();
        let mut f = FaultSet::new(&g);
        assert!(f.is_healthy());
        assert!(f.fail_edge(EdgeId(0)).unwrap());
        assert!(!f.fail_edge(EdgeId(0)).unwrap());
        assert_eq!(f.num_failed_edges(), 1);
        assert!(f.repair_edge(EdgeId(0)).unwrap());
        assert!(!f.repair_edge(EdgeId(0)).unwrap());
        assert!(f.is_healthy());

        let s = g.switches().next().unwrap();
        assert!(f.fail_node(s).unwrap());
        assert!(!f.fail_node(s).unwrap());
        assert_eq!(f.failed_nodes().collect::<Vec<_>>(), vec![s]);
        assert!(f.repair_node(s).unwrap());
        assert!(f.is_healthy());
    }

    #[test]
    fn out_of_range_ids_are_typed_errors() {
        let g = fat_tree(4).unwrap();
        let mut f = FaultSet::new(&g);
        let n = NodeId(9999);
        let e = EdgeId(9999);
        assert_eq!(f.fail_node(n), Err(TopologyError::UnknownNode(n)));
        assert_eq!(f.repair_node(n), Err(TopologyError::UnknownNode(n)));
        assert_eq!(f.fail_edge(e), Err(TopologyError::UnknownEdge(e)));
        assert_eq!(f.repair_edge(e), Err(TopologyError::UnknownEdge(e)));
        // Queries on out-of-range ids report healthy instead of panicking.
        assert!(!f.node_failed(n));
        assert!(!f.edge_failed(e));
    }

    #[test]
    fn degraded_view_keeps_all_nodes_and_drops_failed_edges() {
        let g = fat_tree(4).unwrap();
        let mut f = FaultSet::new(&g);
        f.fail_edge(EdgeId(0)).unwrap();
        let view = g.degraded_view(&f);
        assert_eq!(view.num_nodes(), g.num_nodes());
        assert_eq!(view.num_edges(), g.num_edges() - 1);
        for n in g.nodes() {
            assert_eq!(view.kind(n), g.kind(n));
            assert_eq!(view.label(n), g.label(n));
        }
    }

    #[test]
    fn failed_switch_is_isolated_in_the_view() {
        let g = fat_tree(4).unwrap();
        let s = g.switches().next().unwrap();
        let mut f = FaultSet::new(&g);
        f.fail_node(s).unwrap();
        let view = g.degraded_view(&f);
        assert_eq!(view.num_nodes(), g.num_nodes());
        assert_eq!(view.degree(s), 0);
        assert_eq!(view.num_edges(), g.num_edges() - g.degree(s));
    }

    #[test]
    fn healthy_view_round_trips_to_identical_distances() {
        let g = fat_tree(4).unwrap();
        let dm0 = DistanceMatrix::build(&g);
        let e = EdgeId(3);
        let s = g.switches().nth(2).unwrap();
        // The toggled edges with their healthy weights, listed the way
        // the hourly engine lists them for a failed link and switch.
        let mut changed = vec![g.edge(e)];
        changed.extend(g.neighbors(s).iter().map(|&(v, w)| (s, v, w)));
        let mut f = FaultSet::new(&g);
        f.fail_edge(e).unwrap();
        f.fail_node(s).unwrap();

        let mut dm = dm0.clone();
        dm.rebuild_dirty(&g.degraded_view(&f), &changed);
        assert!(!dm.all_connected());

        f.repair_edge(e).unwrap();
        f.repair_node(s).unwrap();
        dm.rebuild_dirty(&g.degraded_view(&f), &changed);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(dm.cost(u, v), dm0.cost(u, v));
                assert_eq!(dm.path(u, v), dm0.path(u, v));
            }
        }
        assert_eq!(dm.diameter(), dm0.diameter());
    }

    #[test]
    fn partition_splits_on_cut_and_uses_infinity_sentinel() {
        // linear: h1 - s0 - s1 - s2 - h2; cutting s1 splits it in two.
        let (g, h1, h2) = crate::builders::linear(3).unwrap();
        let p = Partition::of(&g);
        assert_eq!(p.num_components(), 1);
        assert!(p.same_component(h1, h2));

        let s1 = g.switches().nth(1).unwrap();
        let mut f = FaultSet::new(&g);
        f.fail_node(s1).unwrap();
        let view = g.degraded_view(&f);
        let p = Partition::of(&view);
        assert_eq!(p.num_components(), 3); // two halves + the failed switch
        assert!(!p.same_component(h1, h2));
        assert_eq!(p.size(p.component(s1)), 1);

        let dm = DistanceMatrix::build(&view);
        assert_eq!(dm.cost(h1, h2), INFINITY);
        assert_eq!(dm.hops(h1, h2), None);
        assert_eq!(dm.path(h1, h2), None);
    }

    #[test]
    fn partition_numbers_components_deterministically() {
        let g = fat_tree(4).unwrap();
        let mut f = FaultSet::new(&g);
        let s = g.switches().next().unwrap();
        f.fail_node(s).unwrap();
        let view = g.degraded_view(&f);
        let a = Partition::of(&view);
        let b = Partition::of(&view);
        assert_eq!(a, b);
        // Component 0 contains node 0 by construction.
        assert_eq!(a.component(NodeId(0)), 0);
    }
}

//! Canonical data-center topologies.
//!
//! The paper evaluates on k-ary fat-trees (k = 8 with 128 hosts, k = 16 with
//! 1024 hosts) and illustrates with the k = 2 fat-tree, which degenerates to
//! the linear PPDC of its Fig. 1. All builders produce unit-weight links;
//! weighted (delay) variants are obtained with
//! [`Graph::map_edge_weights`](crate::Graph::map_edge_weights).

use crate::graph::{Graph, NodeId};
use crate::TopologyError;

/// A k-ary fat-tree (Al-Fares et al., SIGCOMM'08) with structural indices.
///
/// For even `k ≥ 2`:
/// * `(k/2)²` core switches,
/// * `k` pods, each with `k/2` aggregation and `k/2` edge switches,
/// * `k/2` hosts per edge switch — `k³/4` hosts and `5k²/4` switches total.
///
/// A *rack* is the set of hosts under one edge switch; rack indices are used
/// by the workload generator to realize the paper's "80 % of VM pairs stay
/// within the rack" locality.
#[derive(Debug, Clone)]
pub struct FatTree {
    k: usize,
    graph: Graph,
    hosts: Vec<NodeId>,
    edge_switches: Vec<NodeId>,
    agg_switches: Vec<NodeId>,
    core_switches: Vec<NodeId>,
}

impl FatTree {
    /// Builds the k-ary fat-tree.
    ///
    /// # Errors
    ///
    /// `k` must be even and at least 2.
    pub fn build(k: usize) -> Result<Self, TopologyError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(TopologyError::InvalidArity(k));
        }
        let half = k / 2;
        let mut graph = Graph::new();
        let core_switches: Vec<NodeId> = (0..half * half)
            .map(|i| graph.add_switch(format!("core{i}")))
            .collect();
        let mut agg_switches = Vec::with_capacity(k * half);
        let mut edge_switches = Vec::with_capacity(k * half);
        let mut hosts = Vec::with_capacity(k * half * half);
        for pod in 0..k {
            let aggs: Vec<NodeId> = (0..half)
                .map(|a| graph.add_switch(format!("agg{pod}_{a}")))
                .collect();
            let edges: Vec<NodeId> = (0..half)
                .map(|e| graph.add_switch(format!("edge{pod}_{e}")))
                .collect();
            // Aggregation switch `a` of every pod uplinks to core group `a`.
            for (a, &agg) in aggs.iter().enumerate() {
                for c in 0..half {
                    graph.link(agg, core_switches[a * half + c]);
                }
            }
            // Full bipartite mesh between a pod's edge and agg layers.
            for &edge in &edges {
                for &agg in &aggs {
                    graph.link(edge, agg);
                }
            }
            // k/2 hosts per edge switch.
            for (e, &edge) in edges.iter().enumerate() {
                for h in 0..half {
                    let host = graph.add_host(format!("h{pod}_{e}_{h}"));
                    graph.link(host, edge);
                    hosts.push(host);
                }
            }
            agg_switches.extend(aggs);
            edge_switches.extend(edges);
        }
        Ok(FatTree {
            k,
            graph,
            hosts,
            edge_switches,
            agg_switches,
            core_switches,
        })
    }

    /// The arity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Mutable access to the underlying graph (e.g. to set link delays).
    pub fn graph_mut(&mut self) -> &mut Graph {
        &mut self.graph
    }

    /// Consumes the builder, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    /// All hosts, grouped rack-by-rack (rack `r` occupies the contiguous
    /// slice `[r·k/2, (r+1)·k/2)`).
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Edge (top-of-rack) switches.
    pub fn edge_switches(&self) -> &[NodeId] {
        &self.edge_switches
    }

    /// Aggregation switches.
    pub fn agg_switches(&self) -> &[NodeId] {
        &self.agg_switches
    }

    /// Core switches.
    pub fn core_switches(&self) -> &[NodeId] {
        &self.core_switches
    }

    /// Number of racks (= number of edge switches, `k²/2`).
    pub fn num_racks(&self) -> usize {
        self.edge_switches.len()
    }

    /// Hosts in rack `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r ≥ num_racks()`.
    pub fn rack(&self, r: usize) -> &[NodeId] {
        let half = self.k / 2;
        &self.hosts[r * half..(r + 1) * half]
    }

    /// The rack index of `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is not one of this fat-tree's hosts.
    #[expect(
        clippy::expect_used,
        reason = "documented precondition: callers pass hosts drawn from this fat-tree's own host list"
    )]
    pub fn rack_of(&self, host: NodeId) -> usize {
        let pos = self
            .hosts
            .iter()
            .position(|&h| h == host)
            .expect("host not in fat-tree");
        pos / (self.k / 2)
    }
}

/// Builds a k-ary fat-tree and returns just the graph.
///
/// See [`FatTree::build`] for the structure and error conditions.
pub fn fat_tree(k: usize) -> Result<Graph, TopologyError> {
    Ok(FatTree::build(k)?.into_graph())
}

/// Builds the linear PPDC of the paper's Fig. 1: `num_switches` switches in
/// a path, with one host attached to each end switch.
///
/// Returns `(graph, h1, h2)` with `h1` under the first switch and `h2` under
/// the last. With `num_switches = 5` this is exactly the running example
/// (which is also the k = 2 fat-tree, Fig. 3).
///
/// # Errors
///
/// `num_switches` must be at least 1.
pub fn linear(num_switches: usize) -> Result<(Graph, NodeId, NodeId), TopologyError> {
    if num_switches == 0 {
        return Err(TopologyError::InvalidParameter("num_switches must be >= 1"));
    }
    let mut g = Graph::new();
    let switches: Vec<NodeId> = (0..num_switches)
        .map(|i| g.add_switch(format!("s{}", i + 1)))
        .collect();
    for w in switches.windows(2) {
        g.link(w[0], w[1]);
    }
    let h1 = g.add_host("h1");
    g.link(h1, switches[0]);
    let h2 = g.add_host("h2");
    g.link(h2, switches[num_switches - 1]);
    Ok((g, h1, h2))
}

/// Builds a two-tier leaf–spine fabric: every leaf connects to every spine,
/// `hosts_per_leaf` hosts under each leaf.
///
/// # Errors
///
/// All three parameters must be at least 1.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
) -> Result<Graph, TopologyError> {
    if leaves == 0 || spines == 0 || hosts_per_leaf == 0 {
        return Err(TopologyError::InvalidParameter(
            "leaf-spine parameters must be >= 1",
        ));
    }
    let mut g = Graph::new();
    let spine_ids: Vec<NodeId> = (0..spines)
        .map(|i| g.add_switch(format!("spine{i}")))
        .collect();
    for l in 0..leaves {
        let leaf = g.add_switch(format!("leaf{l}"));
        for &s in &spine_ids {
            g.link(leaf, s);
        }
        for h in 0..hosts_per_leaf {
            let host = g.add_host(format!("h{l}_{h}"));
            g.link(host, leaf);
        }
    }
    Ok(g)
}

/// Builds a star: one hub switch, `arms` arm switches, and `hosts_per_arm`
/// hosts under each arm switch.
///
/// # Errors
///
/// `arms` must be at least 1.
pub fn star(arms: usize, hosts_per_arm: usize) -> Result<Graph, TopologyError> {
    if arms == 0 {
        return Err(TopologyError::InvalidParameter("arms must be >= 1"));
    }
    let mut g = Graph::new();
    let hub = g.add_switch("hub");
    for a in 0..arms {
        let arm = g.add_switch(format!("arm{a}"));
        g.link(hub, arm);
        for h in 0..hosts_per_arm {
            let host = g.add_host(format!("h{a}_{h}"));
            g.link(host, arm);
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    #[test]
    fn fat_tree_counts_match_formulas() {
        for k in [2usize, 4, 6, 8] {
            let ft = FatTree::build(k).unwrap();
            let g = ft.graph();
            assert_eq!(g.num_hosts(), k * k * k / 4, "hosts for k={k}");
            assert_eq!(g.num_switches(), 5 * k * k / 4, "switches for k={k}");
            assert_eq!(ft.core_switches().len(), k * k / 4);
            assert_eq!(ft.agg_switches().len(), k * k / 2);
            assert_eq!(ft.edge_switches().len(), k * k / 2);
            assert!(g.is_connected(), "connected for k={k}");
        }
    }

    #[test]
    fn fat_tree_edge_count() {
        // Host links k³/4, edge-agg k·(k/2)², agg-core k·(k/2)·(k/2).
        for k in [2usize, 4, 8] {
            let g = fat_tree(k).unwrap();
            let expected = k * k * k / 4 + k * (k / 2) * (k / 2) * 2;
            assert_eq!(g.num_edges(), expected, "edges for k={k}");
        }
    }

    #[test]
    fn fat_tree_rejects_bad_arity() {
        assert!(matches!(
            FatTree::build(0),
            Err(TopologyError::InvalidArity(0))
        ));
        assert!(matches!(
            FatTree::build(3),
            Err(TopologyError::InvalidArity(3))
        ));
    }

    #[test]
    fn fat_tree_degrees() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        for &c in ft.core_switches() {
            assert_eq!(g.degree(c), 4, "core degree = k");
        }
        for &a in ft.agg_switches() {
            assert_eq!(g.degree(a), 4, "agg degree = k");
        }
        for &e in ft.edge_switches() {
            assert_eq!(g.degree(e), 4, "edge degree = k");
        }
        for h in g.hosts() {
            assert_eq!(g.degree(h), 1, "hosts are single-homed");
        }
    }

    #[test]
    fn fat_tree_racks() {
        let ft = FatTree::build(4).unwrap();
        assert_eq!(ft.num_racks(), 8);
        for r in 0..ft.num_racks() {
            let rack = ft.rack(r);
            assert_eq!(rack.len(), 2);
            for &h in rack {
                assert_eq!(ft.rack_of(h), r);
                // All hosts of a rack share a top-of-rack switch.
                assert_eq!(ft.graph().top_of_rack(h), ft.graph().top_of_rack(rack[0]));
            }
        }
    }

    #[test]
    fn k2_fat_tree_is_the_linear_ppdc() {
        // The paper's Fig. 3 observes the k=2 fat tree is Fig. 1's 5-switch
        // linear PPDC with one host on each end.
        let ft = FatTree::build(2).unwrap();
        assert_eq!(ft.graph().num_hosts(), 2);
        assert_eq!(ft.graph().num_switches(), 5);
    }

    #[test]
    fn linear_structure() {
        let (g, h1, h2) = linear(5).unwrap();
        assert_eq!(g.num_switches(), 5);
        assert_eq!(g.num_hosts(), 2);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.kind(h1), NodeKind::Host);
        assert_eq!(g.kind(h2), NodeKind::Host);
        assert!(g.is_connected());
        assert!(linear(0).is_err());
    }

    #[test]
    fn leaf_spine_structure() {
        let g = leaf_spine(4, 2, 8).unwrap();
        assert_eq!(g.num_switches(), 6);
        assert_eq!(g.num_hosts(), 32);
        assert_eq!(g.num_edges(), 4 * 2 + 32);
        assert!(g.is_connected());
        assert!(leaf_spine(0, 2, 2).is_err());
    }

    #[test]
    fn star_structure() {
        let g = star(3, 2).unwrap();
        assert_eq!(g.num_switches(), 4);
        assert_eq!(g.num_hosts(), 6);
        assert!(g.is_connected());
        assert!(star(0, 1).is_err());
    }
}

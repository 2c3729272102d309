//! The core undirected weighted graph over hosts and switches.

use crate::TopologyError;
use serde::{Deserialize, Serialize};

/// Exact integer edge/path cost.
///
/// Unweighted PPDCs use 1 per hop; weighted PPDCs store link delays in
/// integer micro-units (e.g. 1.5 ms ⇒ 1500). All cost arithmetic in the
/// workspace is exact, which keeps optimality comparisons in tests sharp.
pub type Cost = u64;

/// Sentinel for "unreachable". Large enough that no realistic experiment sum
/// approaches it, small enough that `INFINITY + any realistic cost` cannot
/// overflow `u64` when added carelessly once.
pub const INFINITY: Cost = u64::MAX / 4;

/// Saturating cost addition with [`INFINITY`] as a fixed point: if either
/// operand is at (or beyond) the sentinel the result is *exactly*
/// [`INFINITY`], never a wrapped or drifting sum. For finite operands the
/// result is bit-identical to `a + b` (clamped at the sentinel), so
/// routing exact arithmetic through this helper changes nothing.
///
/// This is the only sanctioned way to add possibly-unreachable costs —
/// the `raw-cost-arith` analyzer rule rejects raw `+` on the sentinel
/// everywhere outside this module and `model/src/cost.rs`.
#[inline]
pub fn sat_add(a: Cost, b: Cost) -> Cost {
    if a >= INFINITY || b >= INFINITY {
        INFINITY
    } else {
        // Finite operands are each < u64::MAX / 4, so the raw sum cannot
        // overflow; the clamp pins accumulated sums at the sentinel.
        (a + b).min(INFINITY)
    }
}

/// Saturating cost multiplication with the same sentinel discipline as
/// [`sat_add`]: `0 · anything = 0` (a zero-rate flow costs nothing even
/// across a partition), any other product involving [`INFINITY`] — or
/// overflowing `u64` — is exactly [`INFINITY`].
#[inline]
pub fn sat_mul(a: Cost, b: Cost) -> Cost {
    if a == 0 || b == 0 {
        0
    } else if a >= INFINITY || b >= INFINITY {
        INFINITY
    } else {
        a.checked_mul(b).map_or(INFINITY, |p| p.min(INFINITY))
    }
}

/// Index of a node in a [`Graph`]. Hosts and switches share one id space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Mints the `u32` id for container slot `n` — the one sanctioned bridge
/// from container sizes back into the typed id space ([`NodeId`],
/// [`EdgeId`], and the model crate's `VmId`/`FlowId` all funnel through
/// here).
///
/// # Panics
///
/// Panics with `what` if `n` needs more than 32 bits. Every id is backed
/// by at least a few bytes of container storage, so exhausting the 2^32
/// id space means the process was about to OOM anyway — a capacity
/// invariant, not a recoverable error.
#[expect(
    clippy::expect_used,
    reason = "id-space capacity invariant: 2^32 ids exhaust memory long before minting fails"
)]
#[inline]
pub fn mint_u32(n: usize, what: &str) -> u32 {
    u32::try_from(n).expect(what)
}

impl NodeId {
    /// The raw index, usable to address per-node arrays.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "u32 → usize is lossless on every supported target"
    )]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Converts a per-node array index back into an id, checking the
    /// `u32` id space. This is the sanctioned inverse of [`NodeId::index`]
    /// — use it instead of a bare `as u32` cast.
    #[inline]
    pub fn from_index(i: usize) -> NodeId {
        NodeId(mint_u32(i, "node index exceeds the u32 id space"))
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// Index of an edge in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The raw index, usable to address per-edge arrays.
    #[inline]
    #[expect(
        clippy::as_conversions,
        reason = "u32 → usize is lossless on every supported target"
    )]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Converts a per-edge array index back into an id, checking the
    /// `u32` id space (the sanctioned inverse of [`EdgeId::index`]).
    #[inline]
    pub fn from_index(i: usize) -> EdgeId {
        EdgeId(mint_u32(i, "edge index exceeds the u32 id space"))
    }
}

/// Whether a node is an end host or a switch.
///
/// In the paper's model (Section III), VMs live on hosts, while each switch
/// has an attached server able to run one VNF of the SFC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeKind {
    /// A server that hosts VMs (`V_h` in the paper).
    Host,
    /// A switch with an attached NFV server (`V_s` in the paper).
    Switch,
}

/// An undirected weighted graph `G(V = V_h ∪ V_s, E)`.
///
/// Nodes are typed ([`NodeKind`]); edges connect a switch to a switch or a
/// switch to a host (host–host links are rejected, mirroring the paper's
/// PPDC definition). Parallel edges are rejected; self loops are rejected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    kinds: Vec<NodeKind>,
    labels: Vec<String>,
    adj: Vec<Vec<(NodeId, Cost)>>,
    edges: Vec<(NodeId, NodeId, Cost)>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host node and returns its id. `label` is for diagnostics only.
    pub fn add_host(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, label.into())
    }

    /// Adds a switch node and returns its id. `label` is for diagnostics only.
    pub fn add_switch(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, label.into())
    }

    fn add_node(&mut self, kind: NodeKind, label: String) -> NodeId {
        let id = NodeId(mint_u32(self.kinds.len(), "graph too large"));
        self.kinds.push(kind);
        self.labels.push(label);
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge of weight `w` and returns its id.
    ///
    /// # Errors
    ///
    /// Rejects self loops, unknown endpoints, host–host links, and duplicate
    /// edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Cost) -> Result<EdgeId, TopologyError> {
        if u == v {
            return Err(TopologyError::InvalidEdge(u, v));
        }
        self.check_node(u)?;
        self.check_node(v)?;
        if self.kind(u) == NodeKind::Host && self.kind(v) == NodeKind::Host {
            return Err(TopologyError::InvalidEdge(u, v));
        }
        if self.adj[u.index()].iter().any(|&(n, _)| n == v) {
            return Err(TopologyError::InvalidEdge(u, v));
        }
        let id = EdgeId(mint_u32(self.edges.len(), "graph too large"));
        self.edges.push((u, v, w));
        self.adj[u.index()].push((v, w));
        self.adj[v.index()].push((u, w));
        Ok(id)
    }

    /// Adds a unit-weight edge (a hop), panicking on structural errors.
    ///
    /// This is a convenience for builders and tests where the structure is
    /// known valid by construction.
    #[expect(
        clippy::expect_used,
        reason = "builder convenience: callers construct distinct in-range endpoints; fallible twin is add_edge"
    )]
    pub fn link(&mut self, u: NodeId, v: NodeId) -> EdgeId {
        self.add_edge(u, v, 1).expect("invalid link")
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.index() < self.kinds.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(n))
        }
    }

    /// Number of nodes (hosts + switches).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The kind of node `n`.
    #[inline]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// The diagnostic label of node `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> &str {
        &self.labels[n.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len()).map(NodeId::from_index)
    }

    /// Iterates over all host ids (`V_h`).
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.kind(n) == NodeKind::Host)
    }

    /// Iterates over all switch ids (`V_s`).
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.kind(n) == NodeKind::Switch)
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts().count()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches().count()
    }

    /// Neighbors of `n` with edge weights.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, Cost)] {
        &self.adj[n.index()]
    }

    /// Degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// Iterates over edges as `(u, v, w)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Cost)> + '_ {
        self.edges.iter().copied()
    }

    /// Endpoints and weight of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, Cost) {
        self.edges[e.index()]
    }

    /// Overwrites the weight of edge `e` (both adjacency directions).
    pub fn set_edge_weight(&mut self, e: EdgeId, w: Cost) {
        let (u, v, _) = self.edges[e.index()];
        self.edges[e.index()].2 = w;
        for slot in self.adj[u.index()].iter_mut() {
            if slot.0 == v {
                slot.1 = w;
            }
        }
        for slot in self.adj[v.index()].iter_mut() {
            if slot.0 == u {
                slot.1 = w;
            }
        }
    }

    /// Applies `f` to every edge weight (e.g. to randomize link delays).
    pub fn map_edge_weights(&mut self, mut f: impl FnMut(NodeId, NodeId, Cost) -> Cost) {
        for e in 0..self.edges.len() {
            let (u, v, w) = self.edges[e];
            let nw = f(u, v, w);
            if nw != w {
                self.set_edge_weight(EdgeId::from_index(e), nw);
            }
        }
    }

    /// True if every node is reachable from node 0 (or the graph is empty).
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for &(m, _) in self.neighbors(n) {
                if !seen[m.index()] {
                    seen[m.index()] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.num_nodes()
    }

    /// The switch a host hangs off (its unique switch neighbor), if any.
    ///
    /// Data-center hosts are single-homed in all builders in this crate; for
    /// multi-homed hosts the lowest-id switch neighbor is returned.
    pub fn top_of_rack(&self, host: NodeId) -> Option<NodeId> {
        debug_assert_eq!(self.kind(host), NodeKind::Host);
        self.adj[host.index()]
            .iter()
            .map(|&(n, _)| n)
            .filter(|&n| self.kind(n) == NodeKind::Switch)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let h = g.add_host("h1");
        let s1 = g.add_switch("s1");
        let s2 = g.add_switch("s2");
        g.add_edge(h, s1, 1).unwrap();
        g.add_edge(s1, s2, 3).unwrap();
        (g, h, s1, s2)
    }

    #[test]
    fn node_and_edge_counts() {
        let (g, ..) = tiny();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_hosts(), 1);
        assert_eq!(g.num_switches(), 2);
    }

    #[test]
    fn kinds_and_labels() {
        let (g, h, s1, _) = tiny();
        assert_eq!(g.kind(h), NodeKind::Host);
        assert_eq!(g.kind(s1), NodeKind::Switch);
        assert_eq!(g.label(h), "h1");
        assert_eq!(g.label(s1), "s1");
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (g, _, s1, s2) = tiny();
        assert!(g.neighbors(s1).contains(&(s2, 3)));
        assert!(g.neighbors(s2).contains(&(s1, 3)));
    }

    #[test]
    fn rejects_self_loop() {
        let (mut g, _, s1, _) = tiny();
        assert_eq!(
            g.add_edge(s1, s1, 1),
            Err(TopologyError::InvalidEdge(s1, s1))
        );
    }

    #[test]
    fn rejects_host_host_edge() {
        let mut g = Graph::new();
        let h1 = g.add_host("h1");
        let h2 = g.add_host("h2");
        assert!(g.add_edge(h1, h2, 1).is_err());
    }

    #[test]
    fn rejects_duplicate_edge() {
        let (mut g, _, s1, s2) = tiny();
        assert!(g.add_edge(s1, s2, 9).is_err());
        assert!(g.add_edge(s2, s1, 9).is_err());
    }

    #[test]
    fn rejects_unknown_node() {
        let (mut g, _, s1, _) = tiny();
        let bogus = NodeId(99);
        assert_eq!(
            g.add_edge(s1, bogus, 1),
            Err(TopologyError::UnknownNode(bogus))
        );
    }

    #[test]
    fn set_edge_weight_updates_both_directions() {
        let (mut g, _, s1, s2) = tiny();
        let e = EdgeId(1);
        assert_eq!(g.edge(e), (s1, s2, 3));
        g.set_edge_weight(e, 7);
        assert!(g.neighbors(s1).contains(&(s2, 7)));
        assert!(g.neighbors(s2).contains(&(s1, 7)));
        assert_eq!(g.edge(e).2, 7);
    }

    #[test]
    fn map_edge_weights_applies_everywhere() {
        let (mut g, ..) = tiny();
        g.map_edge_weights(|_, _, w| w * 10);
        let ws: Vec<Cost> = g.edges().map(|(_, _, w)| w).collect();
        assert_eq!(ws, vec![10, 30]);
    }

    #[test]
    fn connectivity() {
        let (mut g, ..) = tiny();
        assert!(g.is_connected());
        g.add_switch("lonely");
        assert!(!g.is_connected());
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn top_of_rack_finds_unique_switch() {
        let (g, h, s1, _) = tiny();
        assert_eq!(g.top_of_rack(h), Some(s1));
    }

    #[test]
    fn sat_add_matches_raw_addition_for_finite_values() {
        assert_eq!(sat_add(0, 0), 0);
        assert_eq!(sat_add(3, 4), 7);
        assert_eq!(sat_add(1_000_000, 2_000_000), 3_000_000);
    }

    #[test]
    fn sat_add_pins_the_sentinel() {
        assert_eq!(sat_add(INFINITY, 0), INFINITY);
        assert_eq!(sat_add(0, INFINITY), INFINITY);
        assert_eq!(sat_add(INFINITY, INFINITY), INFINITY);
        // Values beyond the sentinel (from legacy raw sums) are pinned too.
        assert_eq!(sat_add(INFINITY + 1, 1), INFINITY);
        // Large finite sums clamp instead of drifting past the sentinel.
        assert_eq!(sat_add(INFINITY - 1, INFINITY - 1), INFINITY);
    }

    #[test]
    fn sat_mul_matches_raw_multiplication_for_finite_values() {
        assert_eq!(sat_mul(3, 4), 12);
        assert_eq!(sat_mul(1_000_000, 1_000_000), 1_000_000_000_000);
    }

    #[test]
    fn sat_mul_zero_annihilates_even_infinity() {
        // A zero-rate flow costs nothing even across a network partition.
        assert_eq!(sat_mul(0, INFINITY), 0);
        assert_eq!(sat_mul(INFINITY, 0), 0);
    }

    #[test]
    fn sat_mul_pins_the_sentinel_and_overflow() {
        assert_eq!(sat_mul(1, INFINITY), INFINITY);
        assert_eq!(sat_mul(INFINITY, 2), INFINITY);
        // u64 overflow saturates instead of wrapping or panicking.
        assert_eq!(sat_mul(u64::MAX / 8, 16), INFINITY);
    }

    #[test]
    fn id_round_trips_through_index() {
        assert_eq!(NodeId::from_index(NodeId(17).index()), NodeId(17));
        assert_eq!(EdgeId::from_index(EdgeId(3).index()), EdgeId(3));
    }
}

//! Distance oracles: a common query interface over shortest-path costs.
//!
//! Every placement/migration algorithm consumes distances through the
//! [`DistanceOracle`] trait. Two implementations exist:
//!
//! * [`DistanceMatrix`] — the dense all-pairs matrix, O(V·E) to build and
//!   O(V²) memory. It works for arbitrary graphs (including degraded
//!   fault views) and doubles as the bit-identity test oracle.
//! * [`FatTreeOracle`] — a closed-form oracle for healthy k-ary fat-trees
//!   (Al-Fares et al., SIGCOMM'08). Zero build cost, O(1) per query, O(1)
//!   memory: distances follow from (layer, pod, index) coordinates alone.
//!   At k = 48 the dense matrix would need ~11.6 GB; the analytic oracle
//!   needs five `usize` fields.
//!
//! The fat-tree oracle reproduces the matrix **bit for bit** — costs,
//! diameter, connectivity, and reconstructed paths including the
//! lowest-predecessor-id tie-break of [`sssp_into`](crate::shortest) —
//! so the two are interchangeable anywhere in the solver stack
//! (proptested in `tests/proptests.rs`, unit-tested below).
//!
//! # Fat-tree coordinates
//!
//! `FatTree::build(k)` (with `half = k/2`) creates nodes in a fixed order,
//! which gives every node a closed-form id:
//!
//! ```text
//! core(g, c)        = g·half + c                          g, c ∈ [0, half)
//! agg(p, a)         = half² + p·B + a                     p ∈ [0, k), a ∈ [0, half)
//! edge(p, e)        = half² + p·B + half + e              e ∈ [0, half)
//! host(p, e, h)     = half² + p·B + 2·half + e·half + h   h ∈ [0, half)
//! where B = 2·half + half²   (nodes per pod)
//! ```
//!
//! Aggregation switch `a` of every pod uplinks to core *group* `a` — the
//! `half` cores `[a·half, (a+1)·half)` — and each pod's edge/agg layers
//! form a complete bipartite graph. The closed-form distance table derived
//! from this wiring is proved in DESIGN.md §8.

use crate::builders::FatTree;
use crate::graph::{Cost, NodeId};
use crate::shortest::DistanceMatrix;
use crate::TopologyError;

/// A shortest-path distance query interface.
///
/// Implementors answer the same questions as [`DistanceMatrix`] and must
/// agree with it exactly on the graphs they model — including the
/// deterministic lowest-predecessor-id path tie-break — so solvers can be
/// generic over the oracle without changing a single output bit.
pub trait DistanceOracle: Sync {
    /// Number of nodes in the underlying graph.
    fn num_nodes(&self) -> usize;

    /// `c(u, v)`: the shortest-path cost between `u` and `v`
    /// ([`INFINITY`](crate::graph::INFINITY) if unreachable).
    fn cost(&self, u: NodeId, v: NodeId) -> Cost;

    /// The largest finite pairwise cost (0 for graphs with < 2 nodes).
    fn diameter(&self) -> Cost;

    /// True if all pairs are connected.
    fn all_connected(&self) -> bool;

    /// The shortest path from `u` to `v`, endpoints included (`[u]` when
    /// `u == v`). Returns `None` if unreachable. Must match
    /// [`DistanceMatrix::path`]'s lowest-predecessor-id tie-break.
    fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>>;

    /// The number of edges on the shortest `u`–`v` path.
    fn hops(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.path(u, v).map(|p| p.len().saturating_sub(1))
    }
}

impl DistanceOracle for DistanceMatrix {
    fn num_nodes(&self) -> usize {
        DistanceMatrix::num_nodes(self)
    }

    #[inline]
    fn cost(&self, u: NodeId, v: NodeId) -> Cost {
        DistanceMatrix::cost(self, u, v)
    }

    fn diameter(&self) -> Cost {
        DistanceMatrix::diameter(self)
    }

    fn all_connected(&self) -> bool {
        DistanceMatrix::all_connected(self)
    }

    fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        DistanceMatrix::path(self, u, v)
    }

    fn hops(&self, u: NodeId, v: NodeId) -> Option<usize> {
        DistanceMatrix::hops(self, u, v)
    }
}

/// The (layer, pod, index) coordinate of a fat-tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FatTreeCoord {
    /// Core switch `member` of core group `group` (uplinked by the
    /// aggregation switch with index `group` in every pod).
    Core {
        /// Core group, equal to the agg index it serves.
        group: usize,
        /// Position within the group.
        member: usize,
    },
    /// Aggregation switch `index` of pod `pod`.
    Agg {
        /// Pod number.
        pod: usize,
        /// Position within the pod's aggregation layer.
        index: usize,
    },
    /// Edge (ToR) switch `index` of pod `pod`.
    Edge {
        /// Pod number.
        pod: usize,
        /// Position within the pod's edge layer.
        index: usize,
    },
    /// Host `slot` under edge switch `edge` of pod `pod`.
    Host {
        /// Pod number.
        pod: usize,
        /// Edge switch the host hangs off.
        edge: usize,
        /// Position within the rack.
        slot: usize,
    },
}

impl FatTreeCoord {
    /// Layer rank used to canonicalize symmetric distance lookups.
    fn rank(&self) -> u8 {
        match self {
            FatTreeCoord::Core { .. } => 0,
            FatTreeCoord::Agg { .. } => 1,
            FatTreeCoord::Edge { .. } => 2,
            FatTreeCoord::Host { .. } => 3,
        }
    }
}

/// Closed-form distance oracle for a healthy unit-weight k-ary fat-tree.
///
/// Build with [`FatTreeOracle::for_k`] (no graph needed) or
/// [`FatTreeOracle::new`] (checks the layout against a built
/// [`FatTree`] in debug builds). Queries are pure coordinate arithmetic.
///
/// The oracle models the **healthy** fabric only: fault hours must fall
/// back to a dense [`DistanceMatrix`] over the degraded view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeOracle {
    k: usize,
    half: usize,
    ncore: usize,
    pod_block: usize,
    n: usize,
}

impl FatTreeOracle {
    /// Builds the oracle for arity `k` (must be even and ≥ 2) without
    /// constructing the graph. Zero allocation, O(1) time.
    pub fn for_k(k: usize) -> Result<Self, TopologyError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(TopologyError::InvalidArity(k));
        }
        Ok(FatTreeOracle::layout(k))
    }

    /// Builds the oracle for an existing [`FatTree`]. Debug builds verify
    /// the coordinate layout against the tree's own node lists.
    pub fn new(ft: &FatTree) -> Self {
        // `FatTree::build` already rejected an odd or too-small arity.
        let oracle = FatTreeOracle::layout(ft.k());
        debug_assert_eq!(oracle.n, ft.graph().num_nodes());
        debug_assert!(ft
            .core_switches()
            .iter()
            .enumerate()
            .all(|(i, &c)| c.index() == i));
        debug_assert!((0..ft.num_racks())
            .all(|r| ft.rack(r).first()
                == Some(&oracle.host_id(r / oracle.half, r % oracle.half, 0))));
        oracle
    }

    /// The id layout for a validated arity `k` (even, ≥ 2).
    fn layout(k: usize) -> Self {
        let half = k / 2;
        let ncore = half * half;
        let pod_block = 2 * half + half * half;
        FatTreeOracle {
            k,
            half,
            ncore,
            pod_block,
            n: ncore + k * pod_block,
        }
    }

    /// The fat-tree arity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total host count (`k³/4`).
    pub fn num_hosts(&self) -> usize {
        self.k * self.half * self.half
    }

    /// Total switch count (`5k²/4`).
    pub fn num_switches(&self) -> usize {
        self.ncore + self.k * 2 * self.half
    }

    /// Decodes a node id into its (layer, pod, index) coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for this fabric.
    pub fn coord(&self, n: NodeId) -> FatTreeCoord {
        let id = n.index();
        assert!(id < self.n, "node id {id} out of range for k={}", self.k);
        if id < self.ncore {
            return FatTreeCoord::Core {
                group: id / self.half,
                member: id % self.half,
            };
        }
        let off = id - self.ncore;
        let pod = off / self.pod_block;
        let r = off % self.pod_block;
        if r < self.half {
            FatTreeCoord::Agg { pod, index: r }
        } else if r < 2 * self.half {
            FatTreeCoord::Edge {
                pod,
                index: r - self.half,
            }
        } else {
            let rh = r - 2 * self.half;
            FatTreeCoord::Host {
                pod,
                edge: rh / self.half,
                slot: rh % self.half,
            }
        }
    }

    /// Encodes a coordinate back into its node id (inverse of
    /// [`FatTreeOracle::coord`]; coordinates are not range-checked beyond
    /// debug builds).
    pub fn node_id(&self, c: FatTreeCoord) -> NodeId {
        let id = match c {
            FatTreeCoord::Core { group, member } => {
                debug_assert!(group < self.half && member < self.half);
                group * self.half + member
            }
            FatTreeCoord::Agg { pod, index } => {
                debug_assert!(pod < self.k && index < self.half);
                self.ncore + pod * self.pod_block + index
            }
            FatTreeCoord::Edge { pod, index } => {
                debug_assert!(pod < self.k && index < self.half);
                self.ncore + pod * self.pod_block + self.half + index
            }
            FatTreeCoord::Host { pod, edge, slot } => {
                debug_assert!(pod < self.k && edge < self.half && slot < self.half);
                self.ncore + pod * self.pod_block + 2 * self.half + edge * self.half + slot
            }
        };
        NodeId::from_index(id)
    }

    fn core_id(&self, group: usize, member: usize) -> NodeId {
        self.node_id(FatTreeCoord::Core { group, member })
    }

    fn agg_id(&self, pod: usize, index: usize) -> NodeId {
        self.node_id(FatTreeCoord::Agg { pod, index })
    }

    fn edge_id(&self, pod: usize, index: usize) -> NodeId {
        self.node_id(FatTreeCoord::Edge { pod, index })
    }

    fn host_id(&self, pod: usize, edge: usize, slot: usize) -> NodeId {
        self.node_id(FatTreeCoord::Host { pod, edge, slot })
    }

    /// The closed-form hop distance between two coordinates (DESIGN.md §8):
    /// every case is "up to the lowest common layer, back down", and the
    /// wiring fixes how high "up" must go.
    fn coord_cost(a: FatTreeCoord, b: FatTreeCoord) -> Cost {
        use FatTreeCoord::{Agg, Core, Edge, Host};
        let (lo, hi) = if a.rank() <= b.rank() { (a, b) } else { (b, a) };
        match (lo, hi) {
            (Core { group: g1, .. }, Core { group: g2, .. }) => {
                // Same group: both uplinked by agg g of any pod. Different
                // groups: down to an edge switch and back up.
                if g1 == g2 {
                    2
                } else {
                    4
                }
            }
            (Core { group, .. }, Agg { index, .. }) => {
                // Direct uplink iff the agg serves this core's group.
                if group == index {
                    1
                } else {
                    3
                }
            }
            (Core { .. }, Edge { .. }) => 2,
            (Core { .. }, Host { .. }) => 3,
            (Agg { pod: p1, index: a1 }, Agg { pod: p2, index: a2 }) => {
                // Same pod: via any shared edge switch. Cross-pod same
                // index: via the shared core group. Otherwise one extra
                // down-up inside either pod.
                if p1 == p2 || a1 == a2 {
                    2
                } else {
                    4
                }
            }
            (Agg { pod: p1, .. }, Edge { pod: p2, .. }) => {
                if p1 == p2 {
                    1
                } else {
                    3
                }
            }
            (Agg { pod: p1, .. }, Host { pod: p2, .. }) => {
                if p1 == p2 {
                    2
                } else {
                    4
                }
            }
            (Edge { pod: p1, index: e1 }, Edge { pod: p2, index: e2 }) => {
                if p1 != p2 {
                    4
                } else if e1 == e2 {
                    0
                } else {
                    2
                }
            }
            (
                Edge { pod: p1, index: e1 },
                Host {
                    pod: p2, edge: e2, ..
                },
            ) => {
                if p1 != p2 {
                    5
                } else if e1 == e2 {
                    1
                } else {
                    3
                }
            }
            (
                Host {
                    pod: p1, edge: e1, ..
                },
                Host {
                    pod: p2, edge: e2, ..
                },
            ) => {
                if p1 != p2 {
                    6
                } else if e1 == e2 {
                    2
                } else {
                    4
                }
            }
            // `(lo, hi)` is layer-ordered, so the remaining permutations
            // cannot occur.
            #[expect(
                clippy::unreachable,
                reason = "exhaustiveness witness: canonicalize() orders the pair by layer just above"
            )]
            _ => unreachable!("coordinate pair not canonicalized"),
        }
    }

    /// The lowest-id neighbor `y` of `x` with `cost(src, y) = cost(src, x)
    /// − 1` — exactly the parent [`sssp_into`](crate::shortest) records in
    /// the BFS tree rooted at `src`, because BFS scans *every* node at
    /// depth d and keeps the smallest-id predecessor of each depth-(d+1)
    /// node. Neighbor layers are tried in ascending-id order (cores < aggs
    /// < edges < hosts within any relevant span).
    #[expect(
        clippy::expect_used,
        reason = "BFS-parent existence: every non-source node of a connected fat tree has a depth-(d-1) neighbor"
    )]
    fn min_parent(&self, src: NodeId, x: NodeId) -> NodeId {
        let want = DistanceOracle::cost(self, src, x) - 1;
        let at = |y: &NodeId| DistanceOracle::cost(self, src, *y) == want;
        let parent = match self.coord(x) {
            FatTreeCoord::Host { pod, edge, .. } => {
                // A host's only neighbor is its ToR.
                Some(self.edge_id(pod, edge))
            }
            FatTreeCoord::Edge { pod, index } => {
                // Pod aggs (smaller ids) before the rack's hosts.
                (0..self.half)
                    .map(|a| self.agg_id(pod, a))
                    .find(at)
                    .or_else(|| (0..self.half).map(|s| self.host_id(pod, index, s)).find(at))
            }
            FatTreeCoord::Agg { pod, index } => {
                // Core group `index` (smaller ids) before the pod's edges.
                (0..self.half)
                    .map(|c| self.core_id(index, c))
                    .find(at)
                    .or_else(|| (0..self.half).map(|e| self.edge_id(pod, e)).find(at))
            }
            FatTreeCoord::Core { group, .. } => {
                // Agg `group` of every pod, in ascending pod (= id) order.
                (0..self.k).map(|p| self.agg_id(p, group)).find(at)
            }
        };
        parent.expect("switch has no neighbor one hop closer to the source")
    }

    /// Automorphism orbits of the fabric's nodes: core switches within a
    /// core group, aggregation switches within a pod, edge switches within
    /// a pod, and hosts within a rack. Members of one orbit are mapped to
    /// each other by graph automorphisms, so their rows of the distance
    /// matrix agree as multisets.
    ///
    /// Orbits are returned in a deterministic order (core groups, then per
    /// pod: aggs, edges, racks) with members in ascending id order. Note
    /// the B&B solver computes its own *workload-aware* refinement of
    /// these classes — see `interchange_classes` in `ppdc-placement`.
    pub fn orbits(&self) -> Vec<Vec<NodeId>> {
        let mut out = Vec::with_capacity(self.half + self.k * (2 + self.half));
        for g in 0..self.half {
            out.push((0..self.half).map(|c| self.core_id(g, c)).collect());
        }
        for p in 0..self.k {
            out.push((0..self.half).map(|a| self.agg_id(p, a)).collect());
            out.push((0..self.half).map(|e| self.edge_id(p, e)).collect());
            for e in 0..self.half {
                out.push((0..self.half).map(|h| self.host_id(p, e, h)).collect());
            }
        }
        out
    }
}

impl DistanceOracle for FatTreeOracle {
    fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn cost(&self, u: NodeId, v: NodeId) -> Cost {
        if u == v {
            return 0;
        }
        FatTreeOracle::coord_cost(self.coord(u), self.coord(v))
    }

    fn diameter(&self) -> Cost {
        // Cross-pod host pairs exist for every valid k (k ≥ 2 pods).
        6
    }

    fn all_connected(&self) -> bool {
        true
    }

    fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        let mut out = vec![v];
        let mut cur = v;
        while cur != u {
            cur = self.min_parent(u, cur);
            out.push(cur);
        }
        out.reverse();
        Some(out)
    }

    fn hops(&self, u: NodeId, v: NodeId) -> Option<usize> {
        // Unit weights: hop count equals the cost.
        usize::try_from(DistanceOracle::cost(self, u, v)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::INFINITY;

    fn assert_oracle_matches_matrix(k: usize) {
        let ft = FatTree::build(k).unwrap();
        let dm = DistanceMatrix::build(ft.graph());
        let oracle = FatTreeOracle::new(&ft);
        assert_eq!(oracle.num_nodes(), dm.num_nodes());
        assert_eq!(DistanceOracle::diameter(&oracle), dm.diameter());
        assert_eq!(DistanceOracle::all_connected(&oracle), dm.all_connected());
        let n = dm.num_nodes();
        for u in 0..n {
            for v in 0..n {
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                assert_eq!(
                    DistanceOracle::cost(&oracle, u, v),
                    dm.cost(u, v),
                    "cost mismatch at k={k} u={} v={}",
                    u.index(),
                    v.index()
                );
            }
        }
        // Paths (including the min-id tie-break) on a strided sample.
        for u in (0..n).step_by(3) {
            for v in (0..n).step_by(5) {
                let (u, v) = (NodeId::from_index(u), NodeId::from_index(v));
                assert_eq!(
                    DistanceOracle::path(&oracle, u, v),
                    dm.path(u, v),
                    "path mismatch at k={k} u={} v={}",
                    u.index(),
                    v.index()
                );
                assert_eq!(DistanceOracle::hops(&oracle, u, v), dm.hops(u, v));
            }
        }
    }

    #[test]
    fn oracle_matches_matrix_k2() {
        assert_oracle_matches_matrix(2);
    }

    #[test]
    fn oracle_matches_matrix_k4() {
        assert_oracle_matches_matrix(4);
    }

    #[test]
    fn oracle_matches_matrix_k6() {
        assert_oracle_matches_matrix(6);
    }

    #[test]
    fn coord_round_trips() {
        for k in [2, 4, 8] {
            let oracle = FatTreeOracle::for_k(k).unwrap();
            for id in 0..oracle.num_nodes() {
                let n = NodeId::from_index(id);
                assert_eq!(oracle.node_id(oracle.coord(n)), n, "k={k} id={id}");
            }
        }
    }

    #[test]
    fn coords_agree_with_builder_lists() {
        let ft = FatTree::build(6).unwrap();
        let oracle = FatTreeOracle::new(&ft);
        for &c in ft.core_switches() {
            assert!(matches!(oracle.coord(c), FatTreeCoord::Core { .. }));
        }
        for &a in ft.agg_switches() {
            assert!(matches!(oracle.coord(a), FatTreeCoord::Agg { .. }));
        }
        for &e in ft.edge_switches() {
            assert!(matches!(oracle.coord(e), FatTreeCoord::Edge { .. }));
        }
        for (r, &h) in ft.hosts().iter().enumerate().step_by(7) {
            let _ = r;
            assert!(matches!(oracle.coord(h), FatTreeCoord::Host { .. }));
        }
        // Rack r is (pod = r / half, edge = r % half).
        for r in 0..ft.num_racks() {
            for (slot, &h) in ft.rack(r).iter().enumerate() {
                assert_eq!(
                    oracle.coord(h),
                    FatTreeCoord::Host {
                        pod: r / 3,
                        edge: r % 3,
                        slot
                    }
                );
            }
        }
    }

    #[test]
    fn invalid_arity_rejected() {
        assert_eq!(FatTreeOracle::for_k(3), Err(TopologyError::InvalidArity(3)));
        assert_eq!(FatTreeOracle::for_k(0), Err(TopologyError::InvalidArity(0)));
    }

    #[test]
    fn sizes_match_formulas() {
        let oracle = FatTreeOracle::for_k(32).unwrap();
        assert_eq!(oracle.num_hosts(), 8192);
        assert_eq!(oracle.num_switches(), 1280);
        assert_eq!(oracle.num_nodes(), 9472);
        assert!(
            DistanceOracle::cost(&oracle, NodeId::from_index(0), NodeId::from_index(9471))
                < INFINITY
        );
    }

    #[test]
    fn orbit_members_share_distance_multisets() {
        // Orbit members are automorphic images of each other, so the
        // multiset of distances from any member to the whole fabric is an
        // orbit invariant.
        let oracle = FatTreeOracle::for_k(4).unwrap();
        let n = oracle.num_nodes();
        let profile = |u: NodeId| {
            let mut d: Vec<Cost> = (0..n)
                .map(|v| DistanceOracle::cost(&oracle, u, NodeId::from_index(v)))
                .collect();
            d.sort_unstable();
            d
        };
        let orbits = oracle.orbits();
        // Every node appears in exactly one orbit.
        let mut seen = vec![false; n];
        for orbit in &orbits {
            let rep = profile(orbit[0]);
            for &m in orbit {
                assert!(!seen[m.index()]);
                seen[m.index()] = true;
                assert_eq!(profile(m), rep);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn dense_matrix_implements_the_trait() {
        fn generic_diameter<D: DistanceOracle + ?Sized>(d: &D) -> Cost {
            d.diameter()
        }
        let ft = FatTree::build(4).unwrap();
        let dm = DistanceMatrix::build(ft.graph());
        let oracle = FatTreeOracle::new(&ft);
        assert_eq!(generic_diameter(&dm), generic_diameter(&oracle));
    }
}

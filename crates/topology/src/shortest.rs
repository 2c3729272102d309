//! Shortest-path machinery: single-source searches and all-pairs matrices.
//!
//! The paper's cost `c(u, v)` (Table I) is the shortest-path cost between
//! nodes; every placement/migration algorithm consumes a precomputed
//! [`DistanceMatrix`]. Tie-breaking is deterministic (lowest predecessor id
//! wins), so shortest *paths* — which the migration frontiers of Algorithm 5
//! walk switch-by-switch — are reproducible across runs.
//!
//! [`DistanceMatrix::build`] runs its per-source searches in parallel with
//! rayon: rows of the matrix are independent, and the tie-break rule makes
//! every row deterministic regardless of scheduling, so the parallel build
//! is bit-identical to [`DistanceMatrix::build_sequential`]. Unit-weight
//! graphs (every PPDC builder in this repo) are detected once up front and
//! use BFS instead of Dijkstra for every source.

use crate::graph::{sat_add, Cost, Graph, NodeId, INFINITY};
use crate::TopologyError;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const NO_PARENT: u32 = u32::MAX;

/// Default memory budget for dense all-pairs matrices when
/// `PPDC_APSP_BUDGET_BYTES` is unset: 8 GiB, enough for k = 32 fat-trees
/// (~1.1 GB) but a typed refusal for k = 48 (~11.6 GB).
pub const DEFAULT_APSP_BUDGET_BYTES: u64 = 8 << 30;

/// The effective dense-matrix budget: `PPDC_APSP_BUDGET_BYTES` if set to a
/// parseable byte count, [`DEFAULT_APSP_BUDGET_BYTES`] otherwise.
fn env_budget_bytes() -> u64 {
    std::env::var("PPDC_APSP_BUDGET_BYTES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_APSP_BUDGET_BYTES)
}

/// Bytes a dense matrix over `n` nodes allocates: n² distances (8 bytes)
/// plus n² parents (4 bytes).
fn dense_bytes(n: usize) -> u64 {
    #[expect(
        clippy::as_conversions,
        reason = "usize → u64 is lossless on every supported target"
    )]
    let n = n as u64;
    n.saturating_mul(n).saturating_mul(12)
}

/// Fills `dist`/`parent` (one full row of `g.num_nodes()` entries each)
/// with the shortest-path tree from `source`. Rows are fully overwritten,
/// so they can be reused across rebuilds without clearing.
fn sssp_into(g: &Graph, source: NodeId, unit_weight: bool, dist: &mut [Cost], parent: &mut [u32]) {
    dist.fill(INFINITY);
    parent.fill(NO_PARENT);
    dist[source.index()] = 0;
    if unit_weight {
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.index()];
            for &(v, _) in g.neighbors(u) {
                if dist[v.index()] == INFINITY {
                    dist[v.index()] = d + 1;
                    parent[v.index()] = u.0;
                    queue.push_back(v);
                } else if dist[v.index()] == d + 1 && u.0 < parent[v.index()] {
                    parent[v.index()] = u.0;
                }
            }
        }
    } else {
        let mut heap: BinaryHeap<Reverse<(Cost, u32)>> = BinaryHeap::new();
        heap.push(Reverse((0, source.0)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[NodeId(u).index()] {
                continue;
            }
            for &(v, w) in g.neighbors(NodeId(u)) {
                let nd = d + w;
                let better = nd < dist[v.index()]
                    // Deterministic tie-break: lowest predecessor id.
                    || (nd == dist[v.index()] && u < parent[v.index()]);
                if better {
                    if nd < dist[v.index()] {
                        heap.push(Reverse((nd, v.0)));
                    }
                    dist[v.index()] = nd;
                    parent[v.index()] = u;
                }
            }
        }
    }
}

/// True when every edge of `g` has weight 1, making BFS exact.
fn is_unit_weight(g: &Graph) -> bool {
    g.edges().all(|(_, _, w)| w == 1)
}

/// Single-source shortest-path tree.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    source: NodeId,
    dist: Vec<Cost>,
    parent: Vec<u32>,
}

impl ShortestPaths {
    /// Runs Dijkstra from `source`. Falls back to BFS internally when every
    /// edge has weight 1 (unweighted PPDCs) — same results, less work.
    pub fn dijkstra(g: &Graph, source: NodeId) -> Self {
        Self::run(g, source, is_unit_weight(g))
    }

    /// Breadth-first search from `source`; correct for unit-weight graphs.
    pub fn bfs(g: &Graph, source: NodeId) -> Self {
        Self::run(g, source, true)
    }

    fn run(g: &Graph, source: NodeId, unit_weight: bool) -> Self {
        let n = g.num_nodes();
        let mut dist = vec![INFINITY; n];
        let mut parent = vec![NO_PARENT; n];
        sssp_into(g, source, unit_weight, &mut dist, &mut parent);
        ShortestPaths {
            source,
            dist,
            parent,
        }
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest-path cost from the source to `v` ([`INFINITY`] if
    /// unreachable).
    #[inline]
    pub fn cost(&self, v: NodeId) -> Cost {
        self.dist[v.index()]
    }

    /// The shortest path from the source to `v`, endpoints included.
    /// Returns `None` if `v` is unreachable.
    pub fn path(&self, v: NodeId) -> Option<Vec<NodeId>> {
        if self.dist[v.index()] == INFINITY {
            return None;
        }
        let mut out = vec![v];
        let mut cur = v;
        while cur != self.source {
            let p = self.parent[cur.index()];
            debug_assert_ne!(p, NO_PARENT);
            cur = NodeId(p);
            out.push(cur);
        }
        out.reverse();
        Some(out)
    }
}

/// All-pairs shortest-path costs with path reconstruction.
///
/// Built with one BFS/Dijkstra per node, rows computed in parallel:
/// `O(V·E)` for the unit-weight PPDCs, `O(V·E log V)` in general. The
/// diameter and connectivity are computed once at build time and served
/// from cache.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    dist: Vec<Cost>,
    parent: Vec<u32>,
    diameter: Cost,
    connected: bool,
}

impl DistanceMatrix {
    /// Computes all-pairs shortest paths for `g`, one source per rayon
    /// task. Bit-identical to [`DistanceMatrix::build_sequential`].
    ///
    /// # Panics
    ///
    /// Panics with the [`TopologyError::TooLarge`] message when the dense
    /// arrays would blow the `PPDC_APSP_BUDGET_BYTES` memory budget — a
    /// typed refusal instead of an OOM abort. Callers that can degrade
    /// gracefully (or pick an analytic oracle) use
    /// [`DistanceMatrix::try_build`] and branch on the error.
    pub fn build(g: &Graph) -> Self {
        match Self::try_build(g) {
            Ok(dm) => dm,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade; budget-aware callers use try_build"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// [`DistanceMatrix::build`] guarded by the configurable memory budget
    /// (`PPDC_APSP_BUDGET_BYTES`, default [`DEFAULT_APSP_BUDGET_BYTES`]):
    /// returns [`TopologyError::TooLarge`] *before* allocating the
    /// V²-sized arrays when they would not fit.
    pub fn try_build(g: &Graph) -> Result<Self, TopologyError> {
        Self::try_build_with_budget(g, env_budget_bytes())
    }

    /// [`DistanceMatrix::try_build`] with an explicit byte budget.
    fn try_build_with_budget(g: &Graph, budget: u64) -> Result<Self, TopologyError> {
        let n = g.num_nodes();
        let bytes = dense_bytes(n);
        if bytes > budget {
            return Err(TopologyError::TooLarge {
                nodes: n,
                bytes,
                budget,
            });
        }
        let _span = ppdc_obs::global().span(ppdc_obs::names::APSP_BUILD);
        let mut dm = DistanceMatrix {
            n,
            dist: vec![INFINITY; n * n],
            parent: vec![NO_PARENT; n * n],
            diameter: 0,
            connected: true,
        };
        dm.fill_parallel(g);
        Ok(dm)
    }

    /// The single-threaded build — the baseline [`DistanceMatrix::build`]
    /// is benchmarked against, and the fallback rayon reduces to on one
    /// thread.
    pub fn build_sequential(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut dm = DistanceMatrix {
            n,
            dist: vec![INFINITY; n * n],
            parent: vec![NO_PARENT; n * n],
            diameter: 0,
            connected: true,
        };
        let unit = is_unit_weight(g);
        for (u, (drow, prow)) in dm
            .dist
            .chunks_mut(n.max(1))
            .zip(dm.parent.chunks_mut(n.max(1)))
            .enumerate()
        {
            sssp_into(g, NodeId::from_index(u), unit, drow, prow);
        }
        dm.refresh_summary();
        dm
    }

    /// Recomputes the matrix for `g`, re-running the per-source search only
    /// for rows whose shortest-path structure can differ — the dirty rows.
    /// Returns how many rows were re-run.
    ///
    /// `changed` lists the edges toggled between the graph this matrix
    /// currently describes and `g` (failed or repaired, with the healthy
    /// weight `w`; listing extra untoggled edges is harmless, it can only
    /// mark more rows dirty). A reweighted edge is listed with its weight
    /// in `g`: the tests below then cover it as a removal of the old
    /// weight and an insertion of the new. On the **old** row of source
    /// `u`, edge `(a, b, w)` dirties the row iff
    ///
    /// - `u`'s parent tree routes through the edge (`parent_u(b) = a` or
    ///   `parent_u(a) = b`) — the only way a *removal* can change the row:
    ///   if the tree avoids the edge, the tree itself is a certificate
    ///   that every node keeps its distance, and tie-broken parents depend
    ///   only on distances and the (otherwise unchanged) adjacency; or
    /// - the edge is present in `g` and strictly improves an endpoint
    ///   (`d_u(a) + w < d_u(b)` or symmetric) — by the triangle
    ///   inequality an *insertion* changes some distance iff it changes
    ///   one at an endpoint of the new edge; or
    /// - the edge is present in `g` and ties an endpoint with a smaller
    ///   predecessor id (`d_u(a) + w = d_u(b)` with `a < parent_u(b)`, or
    ///   symmetric) — the insertion leaves distances alone but wins the
    ///   deterministic lowest-id parent tie-break at that endpoint.
    ///
    /// Clean rows keep their exact bits, making the result bit-identical
    /// to a from-scratch [`DistanceMatrix::build`] of `g` — debug builds
    /// assert this. See DESIGN.md for the full argument.
    ///
    /// # Panics
    ///
    /// `g` must have the same number of nodes the matrix was built with.
    pub fn rebuild_dirty(&mut self, g: &Graph, changed: &[(NodeId, NodeId, Cost)]) -> usize {
        let _span = ppdc_obs::global().span(ppdc_obs::names::APSP_REBUILD);
        assert_eq!(
            g.num_nodes(),
            self.n,
            "rebuild_dirty needs an equal-size graph"
        );
        let n = self.n;
        if n == 0 {
            return 0;
        }
        // Presence in the *new* graph decides which tests apply: absent
        // edges are removals (tree test only), present ones are insertions
        // (improvement and parent-tie tests; the tree test also fires for
        // them, which only matters if a caller over-lists untoggled edges).
        let present: Vec<bool> = changed
            .iter()
            .map(|&(a, b, _)| g.neighbors(a).iter().any(|&(v, _)| v == b))
            .collect();
        let mut dirty = vec![false; n];
        let mut num_dirty = 0usize;
        for (u, (drow, prow)) in self.dist.chunks(n).zip(self.parent.chunks(n)).enumerate() {
            let hit = changed
                .iter()
                .zip(&present)
                .any(|(&(a, b, w), &is_present)| {
                    let (ai, bi) = (a.index(), b.index());
                    if prow[bi] == a.0 || prow[ai] == b.0 {
                        return true;
                    }
                    if !is_present {
                        return false;
                    }
                    let (da, db) = (drow[ai], drow[bi]);
                    (da < INFINITY
                        && (sat_add(da, w) < db || (sat_add(da, w) == db && a.0 < prow[bi])))
                        || (db < INFINITY
                            && (sat_add(db, w) < da || (sat_add(db, w) == da && b.0 < prow[ai])))
                });
            if hit {
                dirty[u] = true;
                num_dirty += 1;
            }
        }
        if num_dirty > 0 {
            let unit = is_unit_weight(g);
            type Row<'a> = (usize, (&'a mut [Cost], &'a mut [u32]));
            let rows: Vec<Row<'_>> = self
                .dist
                .chunks_mut(n)
                .zip(self.parent.chunks_mut(n))
                .enumerate()
                .filter(|(u, _)| dirty[*u])
                .collect();
            rows.into_par_iter().for_each(|(u, (drow, prow))| {
                sssp_into(g, NodeId::from_index(u), unit, drow, prow);
            });
            self.refresh_summary();
        }
        ppdc_obs::global().add(
            ppdc_obs::names::APSP_ROWS_DIRTY,
            u64::try_from(num_dirty).unwrap_or(u64::MAX),
        );
        #[cfg(debug_assertions)]
        debug_assert!(
            self.same_as(&DistanceMatrix::build(g)),
            "rebuild_dirty diverged from a full rebuild"
        );
        num_dirty
    }

    /// Exact equality of distances, parents, and the cached summary — the
    /// oracle for [`DistanceMatrix::rebuild_dirty`]'s bit-identity
    /// guarantee.
    pub fn same_as(&self, other: &DistanceMatrix) -> bool {
        self.n == other.n
            && self.dist == other.dist
            && self.parent == other.parent
            && self.diameter == other.diameter
            && self.connected == other.connected
    }

    fn fill_parallel(&mut self, g: &Graph) {
        let n = self.n;
        if n == 0 {
            self.diameter = 0;
            self.connected = true;
            return;
        }
        let unit = is_unit_weight(g);
        type Row<'a> = (usize, (&'a mut [Cost], &'a mut [u32]));
        let rows: Vec<Row<'_>> = self
            .dist
            .chunks_mut(n)
            .zip(self.parent.chunks_mut(n))
            .enumerate()
            .collect();
        rows.into_par_iter().for_each(|(u, (drow, prow))| {
            sssp_into(g, NodeId::from_index(u), unit, drow, prow);
        });
        self.refresh_summary();
    }

    fn refresh_summary(&mut self) {
        let mut diameter = 0;
        let mut connected = true;
        for &d in &self.dist {
            if d == INFINITY {
                connected = false;
            } else if d > diameter {
                diameter = d;
            }
        }
        self.diameter = diameter;
        self.connected = connected;
        #[cfg(feature = "strict-invariants")]
        self.assert_metric_invariants();
    }

    /// `strict-invariants` contract: every (re)built matrix must be a
    /// metric — zero on the diagonal, symmetric (the fabric is
    /// undirected), and triangle-inequality-consistent under saturating
    /// addition. Exhaustive below 65 nodes; strided sampling keeps the
    /// check near-cubic-in-32 on big fabrics so contract builds stay
    /// usable in CI.
    #[cfg(feature = "strict-invariants")]
    fn assert_metric_invariants(&self) {
        use crate::graph::sat_add;
        let n = self.n;
        let stride = (n / 32).max(1);
        for u in (0..n).step_by(stride) {
            assert_eq!(self.dist[u * n + u], 0, "d({u},{u}) must be 0");
            for v in (0..n).step_by(stride) {
                let duv = self.dist[u * n + v];
                assert_eq!(
                    duv,
                    self.dist[v * n + u],
                    "asymmetric distance between nodes {u} and {v}"
                );
                for k in (0..n).step_by(stride) {
                    let via = sat_add(self.dist[u * n + k], self.dist[k * n + v]);
                    assert!(
                        duv <= via,
                        "triangle inequality violated: d({u},{v}) = {duv} > {via} via node {k}"
                    );
                }
            }
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// `c(u, v)`: the shortest-path cost between `u` and `v`.
    #[inline]
    pub fn cost(&self, u: NodeId, v: NodeId) -> Cost {
        self.dist[u.index() * self.n + v.index()]
    }

    /// The shortest path from `u` to `v`, endpoints included (`[u]` when
    /// `u == v`). Returns `None` if unreachable.
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if self.cost(u, v) == INFINITY {
            return None;
        }
        let row = u.index() * self.n;
        let mut out = vec![v];
        let mut cur = v;
        while cur != u {
            let p = self.parent[row + cur.index()];
            debug_assert_ne!(p, NO_PARENT);
            cur = NodeId(p);
            out.push(cur);
        }
        out.reverse();
        Some(out)
    }

    /// The number of edges on the shortest `u`–`v` path. Walks the parent
    /// chain directly — no path materialization.
    pub fn hops(&self, u: NodeId, v: NodeId) -> Option<usize> {
        if self.cost(u, v) == INFINITY {
            return None;
        }
        let row = u.index() * self.n;
        let mut hops = 0;
        let mut cur = v;
        while cur != u {
            let p = self.parent[row + cur.index()];
            debug_assert_ne!(p, NO_PARENT);
            cur = NodeId(p);
            hops += 1;
        }
        Some(hops)
    }

    /// The graph diameter: the largest finite pairwise cost, cached at
    /// build time. Returns 0 for graphs with fewer than two nodes.
    pub fn diameter(&self) -> Cost {
        self.diameter
    }

    /// True if all pairs are connected (cached at build time).
    pub fn all_connected(&self) -> bool {
        self.connected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree, linear};
    use crate::graph::Graph;

    #[test]
    fn linear_distances() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        assert_eq!(dm.cost(h1, h2), 6);
        assert_eq!(dm.cost(h1, h1), 0);
        // First switch is node 0.
        assert_eq!(dm.cost(h1, NodeId(0)), 1);
        assert_eq!(dm.cost(h1, NodeId(4)), 5);
    }

    #[test]
    fn path_reconstruction_linear() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let p = dm.path(h1, h2).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], h1);
        assert_eq!(*p.last().unwrap(), h2);
        // Interior is the switch chain s1, s2, s3 = nodes 0, 1, 2.
        assert_eq!(&p[1..4], &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(dm.path(h1, h1).unwrap(), vec![h1]);
        assert_eq!(dm.hops(h1, h2), Some(4));
        assert_eq!(dm.hops(h1, h1), Some(0));
    }

    #[test]
    fn weighted_dijkstra_prefers_cheaper_longer_route() {
        // s0 -5- s1 ; s0 -1- s2 -1- s1 : cheaper via s2.
        let mut g = Graph::new();
        let s0 = g.add_switch("s0");
        let s1 = g.add_switch("s1");
        let s2 = g.add_switch("s2");
        g.add_edge(s0, s1, 5).unwrap();
        g.add_edge(s0, s2, 1).unwrap();
        g.add_edge(s2, s1, 1).unwrap();
        let dm = DistanceMatrix::build(&g);
        assert_eq!(dm.cost(s0, s1), 2);
        assert_eq!(dm.path(s0, s1).unwrap(), vec![s0, s2, s1]);
        assert_eq!(dm.hops(s0, s1), Some(2));
    }

    #[test]
    fn fat_tree_hop_distances() {
        // Classic fat-tree hop counts between hosts: 0 (same), 2 (same
        // rack via ToR)... host-host: same rack 2, same pod 4, cross pod 6.
        let ft = crate::builders::FatTree::build(4).unwrap();
        let g = ft.graph();
        let dm = DistanceMatrix::build(g);
        let r0 = ft.rack(0);
        let r1 = ft.rack(1); // same pod, different rack
        let r4 = ft.rack(4); // different pod
        assert_eq!(dm.cost(r0[0], r0[1]), 2);
        assert_eq!(dm.cost(r0[0], r1[0]), 4);
        assert_eq!(dm.cost(r0[0], r4[0]), 6);
    }

    #[test]
    fn diameter_of_fat_tree() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        assert_eq!(dm.diameter(), 6);
        assert!(dm.all_connected());
    }

    #[test]
    fn unreachable_reported() {
        let mut g = Graph::new();
        let a = g.add_switch("a");
        let b = g.add_switch("b");
        let dm = DistanceMatrix::build(&g);
        assert_eq!(dm.cost(a, b), INFINITY);
        assert!(dm.path(a, b).is_none());
        assert!(dm.hops(a, b).is_none());
        assert!(!dm.all_connected());
        // Diameter ignores unreachable pairs.
        assert_eq!(dm.diameter(), 0);
    }

    #[test]
    fn empty_graph_builds() {
        let g = Graph::new();
        let dm = DistanceMatrix::build(&g);
        assert_eq!(dm.num_nodes(), 0);
        assert_eq!(dm.diameter(), 0);
        assert!(dm.all_connected());
    }

    #[test]
    fn bfs_matches_dijkstra_on_unit_weights() {
        let g = fat_tree(4).unwrap();
        let src = NodeId(3);
        let bfs = ShortestPaths::bfs(&g, src);
        // Force the Dijkstra code path by rebuilding with weight-2 links.
        let mut g2 = g.clone();
        g2.map_edge_weights(|_, _, w| w * 2);
        let dj = ShortestPaths::dijkstra(&g2, src);
        for v in g.nodes() {
            assert_eq!(2 * bfs.cost(v), dj.cost(v), "node {}", v.index());
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // Unit-weight (BFS rows) and weighted (Dijkstra rows) fabrics:
        // the parallel build must be bit-identical, paths included.
        let unit = fat_tree(4).unwrap();
        let mut weighted = unit.clone();
        weighted.map_edge_weights(|u, v, w| w + (u.0 + v.0) as Cost % 3);
        for g in [unit, weighted] {
            let par = DistanceMatrix::build(&g);
            let seq = DistanceMatrix::build_sequential(&g);
            assert_eq!(par.dist, seq.dist);
            assert_eq!(par.parent, seq.parent);
            assert_eq!(par.diameter(), seq.diameter());
            assert_eq!(par.all_connected(), seq.all_connected());
        }
    }

    #[test]
    fn rebuild_dirty_tracks_weight_changes() {
        let g = fat_tree(4).unwrap();
        let mut dm = DistanceMatrix::build(&g);
        let before = dm.clone();
        let mut g2 = g.clone();
        g2.map_edge_weights(|_, _, w| w * 3);
        // A reweighted edge is listed with its weight in the new graph.
        let tripled: Vec<_> = g2.edges().collect();
        dm.rebuild_dirty(&g2, &tripled);
        assert_eq!(dm.diameter(), 3 * before.diameter());
        assert_eq!(dm.dist, DistanceMatrix::build(&g2).dist);
        // Rebuilding with the original graph restores the original matrix.
        let healthy: Vec<_> = g.edges().collect();
        dm.rebuild_dirty(&g, &healthy);
        assert_eq!(dm.dist, before.dist);
        assert_eq!(dm.parent, before.parent);
    }

    #[test]
    fn rebuild_dirty_matches_full_rebuild_on_fault_cycle() {
        use crate::fault::FaultSet;
        use crate::graph::EdgeId;
        let g = fat_tree(4).unwrap();
        let mut dm = DistanceMatrix::build(&g);
        let mut faults = FaultSet::new(&g);
        let e0 = EdgeId(5);
        let (a, b, w) = g.edge(e0);
        let s = g.switches().nth(2).unwrap();
        let switch_edges: Vec<_> = g.neighbors(s).iter().map(|&(v, wv)| (s, v, wv)).collect();
        // Fail one link: only rows whose DAG used it are re-run.
        faults.fail_edge(e0).unwrap();
        let view = g.degraded_view(&faults);
        let rows = dm.rebuild_dirty(&view, &[(a, b, w)]);
        assert!(rows > 0 && rows < dm.num_nodes(), "rows={rows}");
        assert!(dm.same_as(&DistanceMatrix::build(&view)));
        // Fail a whole switch on top (all its incident edges change).
        faults.fail_node(s).unwrap();
        let view = g.degraded_view(&faults);
        dm.rebuild_dirty(&view, &switch_edges);
        assert!(dm.same_as(&DistanceMatrix::build(&view)));
        // Repair everything: back to the healthy matrix bit for bit.
        faults.repair_edge(e0).unwrap();
        faults.repair_node(s).unwrap();
        let view = g.degraded_view(&faults);
        let mut changed = vec![(a, b, w)];
        changed.extend(switch_edges.iter().copied());
        dm.rebuild_dirty(&view, &changed);
        assert!(dm.same_as(&DistanceMatrix::build(&g)));
    }

    #[test]
    fn rebuild_dirty_with_no_changes_touches_no_rows() {
        let g = fat_tree(4).unwrap();
        let mut dm = DistanceMatrix::build(&g);
        assert_eq!(dm.rebuild_dirty(&g, &[]), 0);
        assert!(dm.same_as(&DistanceMatrix::build(&g)));
    }

    #[test]
    fn budget_guard_refuses_oversized_builds() {
        let g = fat_tree(4).unwrap(); // 16 hosts + 20 switches = 36 nodes
        let err = DistanceMatrix::try_build_with_budget(&g, 1).unwrap_err();
        assert_eq!(
            err,
            crate::TopologyError::TooLarge {
                nodes: 36,
                bytes: 36 * 36 * 12,
                budget: 1,
            }
        );
        // The message names the override knob.
        assert!(err.to_string().contains("PPDC_APSP_BUDGET_BYTES"));
        // A sufficient budget builds the same matrix as `build`.
        let dm = DistanceMatrix::try_build_with_budget(&g, u64::MAX).unwrap();
        assert!(dm.same_as(&DistanceMatrix::build(&g)));
        assert!(DistanceMatrix::try_build(&g).is_ok());
    }

    #[test]
    fn single_source_paths() {
        let (g, h1, h2) = linear(4).unwrap();
        let sp = ShortestPaths::dijkstra(&g, h1);
        assert_eq!(sp.source(), h1);
        assert_eq!(sp.cost(h2), 5);
        let path = sp.path(h2).unwrap();
        assert_eq!(path.first(), Some(&h1));
        assert_eq!(path.last(), Some(&h2));
        assert_eq!(path.len(), 6);
        assert_eq!(sp.path(h1).unwrap(), vec![h1]);
        // Unreachable node in a two-component graph.
        let mut g2 = Graph::new();
        let a = g2.add_switch("a");
        let b = g2.add_switch("b");
        let sp2 = ShortestPaths::dijkstra(&g2, a);
        assert!(sp2.path(b).is_none());
    }

    #[test]
    fn deterministic_paths() {
        let g = fat_tree(8).unwrap();
        let dm1 = DistanceMatrix::build(&g);
        let dm2 = DistanceMatrix::build(&g);
        for u in [NodeId(0), NodeId(17), NodeId(99)] {
            for v in [NodeId(3), NodeId(42), NodeId(140)] {
                assert_eq!(dm1.path(u, v), dm2.path(u, v));
            }
        }
    }

    #[test]
    fn hops_agree_with_path_length() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let nodes: Vec<NodeId> = g.nodes().collect();
        for &u in nodes.iter().step_by(3) {
            for &v in nodes.iter().step_by(5) {
                assert_eq!(dm.hops(u, v), dm.path(u, v).map(|p| p.len() - 1));
            }
        }
    }

    #[test]
    fn triangle_inequality_holds() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let nodes: Vec<NodeId> = g.nodes().collect();
        for &a in nodes.iter().step_by(3) {
            for &b in nodes.iter().step_by(4) {
                for &c in nodes.iter().step_by(5) {
                    assert!(dm.cost(a, c) <= dm.cost(a, b) + dm.cost(b, c));
                }
            }
        }
    }
}

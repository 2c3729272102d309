//! A minimum-cost flow solver.
//!
//! Flores et al. \[24\] ("PAM & PAL", INFOCOM'20) cast policy-aware VM
//! migration as a minimum-cost flow problem; the paper uses it as the
//! **MCF** baseline for TOM. This crate provides the substrate: a
//! successive-shortest-paths solver with Johnson potentials (Bellman–Ford
//! initialization for graphs with negative arc costs, Dijkstra afterwards).
//!
//! The solver is generic over any integer-capacity, integer-cost network
//! and is exact: each augmentation rides a true shortest path in the
//! residual network, so the resulting flow of each value is cost-minimal.
//!
//! ```
//! use ppdc_mcf::McfNetwork;
//!
//! let mut net = McfNetwork::new(4);
//! let s = 0; let t = 3;
//! net.add_edge(s, 1, 2, 1);
//! net.add_edge(s, 2, 1, 2);
//! net.add_edge(1, t, 1, 1);
//! net.add_edge(1, 2, 1, 1);
//! net.add_edge(2, t, 2, 1);
//! let (flow, cost) = net.min_cost_flow(s, t, i64::MAX).unwrap();
//! assert_eq!((flow, cost), (3, 8));
//! ```

// Solver and engine code never panics: failures surface as typed errors
// (DESIGN.md §6b). A documented panicking facade carries a reasoned
// `#[expect]`, and test modules opt back in.
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::todo, clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable, clippy::unimplemented))]
#![cfg_attr(test, allow(clippy::todo, clippy::unwrap_used, clippy::expect_used))]
// Library code reports through return values and telemetry, never
// stdout/stderr, and never drops a value without naming it. Binaries,
// tests, benches and examples print by design and are out of scope.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::let_underscore_untyped, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(test, allow(clippy::let_underscore_untyped, clippy::unused_result_ok))]
// Cost/NodeId arithmetic converts with `From`/`try_from`; each bare `as`
// that is lossless by construction carries an `#[expect]` with its reason.
#![deny(clippy::as_conversions)]
#![cfg_attr(test, allow(clippy::as_conversions))]

/// Handle to an edge added to a [`McfNetwork`], usable to read back the
/// flow assigned to it after solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef(usize);

/// Errors produced by the solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McfError {
    /// A node index was out of range.
    UnknownNode(usize),
    /// A negative-cost cycle is reachable from the source: min-cost flow
    /// with free negative cycles is unbounded below.
    NegativeCycle,
    /// Capacity must be non-negative.
    NegativeCapacity,
}

impl std::fmt::Display for McfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McfError::UnknownNode(v) => write!(f, "unknown node {v}"),
            McfError::NegativeCycle => write!(f, "negative-cost cycle in network"),
            McfError::NegativeCapacity => write!(f, "edge capacity must be >= 0"),
        }
    }
}

impl std::error::Error for McfError {}

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// A directed flow network with integer capacities and costs.
#[derive(Debug, Clone)]
pub struct McfNetwork {
    n: usize,
    arcs: Vec<Arc>,       // arc 2i is forward, 2i+1 its residual twin
    adj: Vec<Vec<usize>>, // node -> arc indices
}

impl McfNetwork {
    /// Creates a network with `n` nodes (indices `0..n`).
    pub fn new(n: usize) -> Self {
        McfNetwork {
            n,
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `from → to` with capacity `cap ≥ 0` and
    /// per-unit cost `cost` (may be negative).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range nodes or negative capacity; these are
    /// programming errors in the caller's network construction.
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> EdgeRef {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert!(cap >= 0, "capacity must be non-negative");
        let id = self.arcs.len();
        self.arcs.push(Arc { to, cap, cost });
        self.arcs.push(Arc {
            to: from,
            cap: 0,
            cost: -cost,
        });
        self.adj[from].push(id);
        self.adj[to].push(id + 1);
        EdgeRef(id)
    }

    /// Flow currently assigned to `edge` (the residual twin's capacity).
    pub fn flow_on(&self, edge: EdgeRef) -> i64 {
        self.arcs[edge.0 + 1].cap
    }

    /// Sends up to `limit` units of flow from `s` to `t` at minimum cost.
    /// Returns `(flow, total_cost)`. The network retains the flow, so
    /// [`McfNetwork::flow_on`] can be queried afterwards.
    ///
    /// # Errors
    ///
    /// [`McfError::NegativeCycle`] if Bellman–Ford detects a reachable
    /// negative cycle (the problem would be unbounded).
    pub fn min_cost_flow(
        &mut self,
        s: usize,
        t: usize,
        limit: i64,
    ) -> Result<(i64, i64), McfError> {
        if s >= self.n || t >= self.n {
            return Err(McfError::UnknownNode(s.max(t)));
        }
        // Johnson potentials, initialized by Bellman–Ford over arcs with
        // residual capacity (handles negative costs).
        let mut potential = self.bellman_ford(s)?;
        let mut flow = 0i64;
        let mut cost = 0i64;
        let mut path: Vec<usize> = Vec::new();
        while flow < limit {
            let Some((dist, pre)) = self.dijkstra(s, t, &potential) else {
                break;
            };
            // Update potentials (unreached nodes keep their old value).
            for v in 0..self.n {
                if let Some(d) = dist[v] {
                    potential[v] += d;
                }
            }
            // Walk the augmenting path back from t. Dijkstra only returns
            // a tree that reaches t, so every node on the walk has a
            // predecessor; a broken tree reads as "no more augmenting
            // paths" rather than a panic.
            path.clear();
            let mut v = t;
            while v != s {
                let Some(arc) = pre[v] else {
                    return Ok((flow, cost));
                };
                path.push(arc);
                v = self.arcs[arc ^ 1].to;
            }
            // Bottleneck, then apply.
            let mut push = limit - flow;
            for &arc in &path {
                push = push.min(self.arcs[arc].cap);
            }
            for &arc in &path {
                self.arcs[arc].cap -= push;
                self.arcs[arc ^ 1].cap += push;
                cost += push * self.arcs[arc].cost;
            }
            flow += push;
        }
        Ok((flow, cost))
    }

    /// Bellman–Ford distances from `s` over residual arcs; detects
    /// reachable negative cycles.
    fn bellman_ford(&self, s: usize) -> Result<Vec<i64>, McfError> {
        const UNREACHED: i64 = i64::MAX / 4;
        let mut dist = vec![UNREACHED; self.n];
        dist[s] = 0;
        for round in 0..self.n {
            let mut changed = false;
            for u in 0..self.n {
                if dist[u] >= UNREACHED {
                    continue;
                }
                for &a in &self.adj[u] {
                    let arc = &self.arcs[a];
                    if arc.cap > 0 && dist[u] + arc.cost < dist[arc.to] {
                        dist[arc.to] = dist[u] + arc.cost;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            if round + 1 == self.n {
                return Err(McfError::NegativeCycle);
            }
        }
        for d in dist.iter_mut() {
            if *d >= UNREACHED {
                *d = 0; // unreachable nodes: neutral potential
            }
        }
        Ok(dist)
    }

    /// Dijkstra over reduced costs. Returns per-node distance (None if
    /// unreached) and predecessor arc, or `None` when `t` is unreachable.
    #[allow(clippy::type_complexity)]
    fn dijkstra(
        &self,
        s: usize,
        t: usize,
        potential: &[i64],
    ) -> Option<(Vec<Option<i64>>, Vec<Option<usize>>)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist: Vec<Option<i64>> = vec![None; self.n];
        let mut pre: Vec<Option<usize>> = vec![None; self.n];
        let mut heap = BinaryHeap::new();
        dist[s] = Some(0);
        heap.push(Reverse((0i64, s)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if dist[u] != Some(d) {
                continue;
            }
            for &a in &self.adj[u] {
                let arc = &self.arcs[a];
                if arc.cap <= 0 {
                    continue;
                }
                let rc = arc.cost + potential[u] - potential[arc.to];
                debug_assert!(rc >= 0, "reduced cost must be non-negative");
                let nd = d + rc;
                if dist[arc.to].is_none_or(|old| nd < old) {
                    dist[arc.to] = Some(nd);
                    pre[arc.to] = Some(a);
                    heap.push(Reverse((nd, arc.to)));
                }
            }
        }
        if dist[t].is_some() {
            Some((dist, pre))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = McfNetwork::new(2);
        let e = net.add_edge(0, 1, 5, 3);
        let (flow, cost) = net.min_cost_flow(0, 1, i64::MAX).unwrap();
        assert_eq!((flow, cost), (5, 15));
        assert_eq!(net.flow_on(e), 5);
    }

    #[test]
    fn respects_flow_limit() {
        let mut net = McfNetwork::new(2);
        net.add_edge(0, 1, 5, 3);
        let (flow, cost) = net.min_cost_flow(0, 1, 2).unwrap();
        assert_eq!((flow, cost), (2, 6));
    }

    #[test]
    fn chooses_cheap_path_first() {
        // Two parallel routes: cost 1 (cap 1) and cost 10 (cap 1).
        let mut net = McfNetwork::new(4);
        net.add_edge(0, 1, 1, 1);
        net.add_edge(1, 3, 1, 0);
        net.add_edge(0, 2, 1, 10);
        net.add_edge(2, 3, 1, 0);
        let (flow, cost) = net.min_cost_flow(0, 3, 1).unwrap();
        assert_eq!((flow, cost), (1, 1));
        let (flow2, cost2) = net.min_cost_flow(0, 3, 1).unwrap();
        assert_eq!((flow2, cost2), (1, 10), "second unit takes the dear route");
    }

    #[test]
    fn classic_diamond() {
        let mut net = McfNetwork::new(4);
        net.add_edge(0, 1, 2, 1);
        net.add_edge(0, 2, 1, 2);
        net.add_edge(1, 3, 1, 1);
        net.add_edge(1, 2, 1, 1);
        net.add_edge(2, 3, 2, 1);
        let (flow, cost) = net.min_cost_flow(0, 3, i64::MAX).unwrap();
        assert_eq!(flow, 3);
        assert_eq!(cost, 8);
    }

    #[test]
    fn negative_costs_handled() {
        let mut net = McfNetwork::new(3);
        net.add_edge(0, 1, 1, -5);
        net.add_edge(1, 2, 1, 2);
        net.add_edge(0, 2, 1, 0);
        let (flow, cost) = net.min_cost_flow(0, 2, i64::MAX).unwrap();
        assert_eq!(flow, 2);
        assert_eq!(cost, -3);
    }

    #[test]
    fn negative_cycle_detected() {
        let mut net = McfNetwork::new(3);
        net.add_edge(0, 1, 1, -2);
        net.add_edge(1, 0, 1, -2);
        net.add_edge(1, 2, 1, 1);
        assert_eq!(net.min_cost_flow(0, 2, 1), Err(McfError::NegativeCycle));
    }

    #[test]
    fn disconnected_target() {
        let mut net = McfNetwork::new(3);
        net.add_edge(0, 1, 1, 1);
        let (flow, cost) = net.min_cost_flow(0, 2, i64::MAX).unwrap();
        assert_eq!((flow, cost), (0, 0));
    }

    #[test]
    fn assignment_matches_brute_force() {
        // 3 workers × 3 jobs assignment via MCF equals brute-force search.
        let costs = [[4i64, 2, 8], [4, 3, 7], [3, 1, 6]];
        let mut net = McfNetwork::new(8); // s=0, workers 1-3, jobs 4-6, t=7
        for (w, row) in costs.iter().enumerate() {
            net.add_edge(0, 1 + w, 1, 0);
            for (j, &c) in row.iter().enumerate() {
                net.add_edge(1 + w, 4 + j, 1, c);
            }
        }
        for j in 0..3 {
            net.add_edge(4 + j, 7, 1, 0);
        }
        let (flow, cost) = net.min_cost_flow(0, 7, i64::MAX).unwrap();
        assert_eq!(flow, 3);
        // Brute force over all permutations.
        let mut best = i64::MAX;
        let perms = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        for p in perms {
            best = best.min((0..3).map(|w| costs[w][p[w]]).sum());
        }
        assert_eq!(cost, best);
    }

    #[test]
    fn flow_conservation() {
        // Random-ish fixed network; verify conservation at internal nodes.
        let mut net = McfNetwork::new(6);
        let edges = [
            (0usize, 1usize, 4i64, 2i64),
            (0, 2, 3, 5),
            (1, 3, 2, 1),
            (1, 4, 3, 4),
            (2, 3, 2, 2),
            (2, 4, 2, 1),
            (3, 5, 5, 1),
            (4, 5, 4, 2),
        ];
        let refs: Vec<EdgeRef> = edges
            .iter()
            .map(|&(f, t, c, w)| net.add_edge(f, t, c, w))
            .collect();
        let (flow, _) = net.min_cost_flow(0, 5, i64::MAX).unwrap();
        assert!(flow > 0);
        let mut balance = [0i64; 6];
        for (&(f, t, _, _), &r) in edges.iter().zip(&refs) {
            let fl = net.flow_on(r);
            balance[f] -= fl;
            balance[t] += fl;
        }
        assert_eq!(balance[0], -flow);
        assert_eq!(balance[5], flow);
        for (v, &b) in balance.iter().enumerate().take(5).skip(1) {
            assert_eq!(b, 0, "conservation at node {v}");
        }
    }

    #[test]
    fn unknown_node_rejected() {
        let mut net = McfNetwork::new(2);
        assert_eq!(net.min_cost_flow(0, 9, 1), Err(McfError::UnknownNode(9)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// MCF on a random 3×3 assignment equals brute force.
        #[test]
        fn random_assignment_matches_brute_force(
            costs in proptest::array::uniform3(proptest::array::uniform3(0i64..100))
        ) {
            let mut net = McfNetwork::new(8);
            for (w, row) in costs.iter().enumerate() {
                net.add_edge(0, 1 + w, 1, 0);
                for (j, &c) in row.iter().enumerate() {
                    net.add_edge(1 + w, 4 + j, 1, c);
                }
            }
            for j in 0..3 {
                net.add_edge(4 + j, 7, 1, 0);
            }
            let (flow, cost) = net.min_cost_flow(0, 7, i64::MAX).unwrap();
            prop_assert_eq!(flow, 3);
            let perms = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
            let best = perms
                .iter()
                .map(|p| (0..3).map(|w| costs[w][p[w]]).sum::<i64>())
                .min()
                .unwrap();
            prop_assert_eq!(cost, best);
        }

        /// Flow never exceeds the requested limit and cost is the sum of
        /// per-arc flows times costs.
        #[test]
        fn flow_respects_limit_and_cost_accounting(
            caps in proptest::collection::vec(1i64..5, 4),
            limit in 0i64..10,
        ) {
            // Chain 0 → 1 → 2 with two parallel middle arcs.
            let mut net = McfNetwork::new(3);
            let e0 = net.add_edge(0, 1, caps[0], 2);
            let e1 = net.add_edge(0, 1, caps[1], 5);
            let e2 = net.add_edge(1, 2, caps[2], 1);
            let e3 = net.add_edge(1, 2, caps[3], 3);
            let (flow, cost) = net.min_cost_flow(0, 2, limit).unwrap();
            prop_assert!(flow <= limit);
            prop_assert!(flow <= (caps[0] + caps[1]).min(caps[2] + caps[3]));
            let recount = net.flow_on(e0) * 2
                + net.flow_on(e1) * 5
                + net.flow_on(e2)
                + net.flow_on(e3) * 3;
            prop_assert_eq!(cost, recount);
            prop_assert_eq!(net.flow_on(e0) + net.flow_on(e1), flow);
        }
    }
}

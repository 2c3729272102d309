//! **PrimalDual** — a practical rendering of Algorithm 1 (the `2 + ε`
//! approximation of Chaudhuri et al. \[10\]).
//!
//! The paper's Algorithm 1 grows a primal-dual (moat) structure, prunes it
//! to a tree spanning at least `n` switches between the two hosts, and
//! traverses the tree edges at most twice to extract the stroll. We
//! implement the classic Goemans–Williamson prize-collecting Steiner tree
//! machinery that underlies it:
//!
//! 1. every candidate switch carries a uniform prize `π` (the Lagrangean
//!    multiplier of the `≥ n` coverage constraint); the two terminals carry
//!    infinite prizes,
//! 2. moats grow around active clusters; an edge merges two clusters when
//!    the moats on its two sides fill its length; a cluster deactivates
//!    when its accumulated dual reaches its total prize,
//! 3. growth stops when the terminals share a cluster; the tight-edge tree
//!    is pruned greedily while it still spans `n` switches,
//! 4. an outer **binary search on `π`** finds the smallest prize whose tree
//!    spans `≥ n` switches (larger prizes keep clusters active longer and
//!    capture more switches),
//! 5. the tree is doubled and shortcut into an `s → x₁ → … → x_n → t`
//!    stroll in the metric closure (visiting tree switches in DFS
//!    first-visit order), whose cost is at most twice the tree cost.
//!
//! This gives the *empirical* PrimalDual curve. For Fig. 7 the paper plots
//! the algorithm's `2 + ε` *guarantee* (twice the optimal); the experiment
//! harness reports both.

use crate::instance::{StrollInstance, StrollSolution};
use crate::StrollError;
use ppdc_topology::{Graph, NodeId};

/// Tuning for the primal-dual solver.
#[derive(Debug, Clone, Copy)]
pub struct PrimalDualConfig {
    /// Binary-search iterations on the uniform prize π.
    pub search_iterations: usize,
}

impl Default for PrimalDualConfig {
    fn default() -> Self {
        PrimalDualConfig {
            search_iterations: 24,
        }
    }
}

/// Union-find over closure-local indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
            r
        } else {
            x
        }
    }
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[rb] = ra;
        ra
    }
}

/// One Goemans–Williamson growth for a fixed prize. Returns the pruned tree
/// as local edge list plus the number of candidate switches it spans.
struct Growth<'a> {
    nodes: &'a [NodeId],
    edges: &'a [(usize, usize, f64)],
    s: usize,
    t: usize,
    prize: f64,
}

/// A local (endpoint-index, endpoint-index, weight) edge.
type Edge = (usize, usize, f64);

/// Local edge list of a pruned tree plus its switch span and total cost.
type PrunedTree = (Vec<Edge>, usize, f64);

impl Growth<'_> {
    fn run(&self, n_required: usize) -> Option<PrunedTree> {
        let m = self.nodes.len();
        let mut dsu = Dsu::new(m);
        let mut moat = vec![0.0f64; m];
        // Per-root cluster state: (dual y_C, total prize, active).
        let mut dual = vec![0.0f64; m];
        let mut active = vec![true; m];
        let mut prize_of: Vec<f64> = (0..m)
            .map(|v| {
                if v == self.s || v == self.t {
                    f64::INFINITY
                } else {
                    self.prize
                }
            })
            .collect();
        let mut tight: Vec<(usize, usize, f64)> = Vec::new();
        let is_tour = self.s == self.t;
        // Event loop: at most m merges + m deactivations.
        for _ in 0..4 * m + 8 {
            if is_tour {
                // n-tour: grow until the terminal's cluster spans enough
                // candidate switches.
                let root = dsu.find(self.s);
                let span = (0..m)
                    .filter(|&v| v != self.s && dsu.find(v) == root)
                    .count();
                if span >= n_required {
                    break;
                }
            } else if dsu.find(self.s) == dsu.find(self.t) {
                break;
            }
            // Find the next event.
            let mut best_dt = f64::INFINITY;
            enum Ev {
                Edge(usize),
                Cluster(usize),
                None,
            }
            let mut ev = Ev::None;
            for (i, &(u, v, w)) in self.edges.iter().enumerate() {
                let (cu, cv) = (dsu.find(u), dsu.find(v));
                if cu == cv {
                    continue;
                }
                let speed = f64::from(u8::from(active[cu]) + u8::from(active[cv]));
                if speed == 0.0 {
                    continue;
                }
                let slack = (w - moat[u] - moat[v]).max(0.0);
                let dt = slack / speed;
                if dt < best_dt {
                    best_dt = dt;
                    ev = Ev::Edge(i);
                }
            }
            let mut roots: Vec<usize> = (0..m).map(|v| dsu.find(v)).collect();
            roots.sort_unstable();
            roots.dedup();
            for &c in &roots {
                if active[c] && prize_of[c].is_finite() {
                    let dt = (prize_of[c] - dual[c]).max(0.0);
                    if dt < best_dt {
                        best_dt = dt;
                        ev = Ev::Cluster(c);
                    }
                }
            }
            if best_dt.is_infinite() {
                // Nothing can grow and s, t are separated: disconnected.
                return None;
            }
            // Advance time: moats of nodes in active clusters grow.
            for v in 0..m {
                if active[dsu.find(v)] {
                    moat[v] += best_dt;
                }
            }
            for &c in &roots {
                if active[c] {
                    dual[c] += best_dt;
                }
            }
            match ev {
                Ev::Edge(i) => {
                    let (u, v, w) = self.edges[i];
                    let (cu, cv) = (dsu.find(u), dsu.find(v));
                    tight.push((u, v, w));
                    let (y, p, a) = (dual[cu] + dual[cv], prize_of[cu] + prize_of[cv], true);
                    let r = dsu.union(cu, cv);
                    dual[r] = y;
                    prize_of[r] = p;
                    active[r] = a && y < p;
                }
                Ev::Cluster(c) => {
                    active[c] = false;
                }
                Ev::None => break,
            }
        }
        if dsu.find(self.s) != dsu.find(self.t) {
            return None;
        }
        self.prune(&tight, n_required)
    }

    /// Keeps the s–t component of the tight edges, spans it with a BFS
    /// tree, then greedily strips the dearest removable leaves while the
    /// switch count stays at `n_required`.
    fn prune(&self, tight: &[(usize, usize, f64)], n_required: usize) -> Option<PrunedTree> {
        let m = self.nodes.len();
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        for &(u, v, w) in tight {
            adj[u].push((v, w));
            adj[v].push((u, w));
        }
        // BFS tree from s.
        let mut parent = vec![usize::MAX; m];
        let mut parent_w = vec![0.0f64; m];
        let mut seen = vec![false; m];
        let mut queue = std::collections::VecDeque::new();
        seen[self.s] = true;
        queue.push_back(self.s);
        while let Some(u) = queue.pop_front() {
            for &(v, w) in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    parent_w[v] = w;
                    queue.push_back(v);
                }
            }
        }
        if !seen[self.t] {
            return None;
        }
        // Tree membership and child counts.
        let mut in_tree = seen.clone();
        let mut child_count = vec![0usize; m];
        for v in 0..m {
            if in_tree[v] && parent[v] != usize::MAX {
                child_count[parent[v]] += 1;
            }
        }
        let switch_count = |in_tree: &[bool]| {
            (0..m)
                .filter(|&v| in_tree[v] && v != self.s && v != self.t)
                .count()
        };
        let mut count = switch_count(&in_tree);
        if count < n_required {
            return None;
        }
        // Greedy leaf stripping.
        loop {
            if count == n_required {
                break;
            }
            let leaf = (0..m)
                .filter(|&v| in_tree[v] && v != self.s && v != self.t && child_count[v] == 0)
                .max_by(|&a, &b| parent_w[a].total_cmp(&parent_w[b]).then(a.cmp(&b)));
            let Some(leaf) = leaf else { break };
            in_tree[leaf] = false;
            if parent[leaf] != usize::MAX {
                child_count[parent[leaf]] -= 1;
            }
            count -= 1;
        }
        let mut edges = Vec::new();
        let mut total = 0.0f64;
        for v in 0..m {
            if in_tree[v] && parent[v] != usize::MAX && in_tree[parent[v]] {
                edges.push((parent[v], v, parent_w[v]));
                total += parent_w[v];
            }
        }
        Some((edges, count, total))
    }
}

/// Runs the primal-dual n-stroll approximation.
///
/// `graph` must be the PPDC the instance's closure was built from: the
/// moats grow on the subgraph induced by the closure members (the two
/// hosts plus all switches), exactly the graph `G'` of Theorem 1.
///
/// # Errors
///
/// [`StrollError::Unreachable`] if no prize connects the terminals over
/// `n` switches (disconnected induced graph).
pub fn primal_dual_stroll(
    graph: &Graph,
    inst: &StrollInstance<'_>,
    cfg: PrimalDualConfig,
) -> Result<StrollSolution, StrollError> {
    let closure = inst.closure();
    let members = closure.nodes();
    // Induced subgraph over closure members, with closure-local indices.
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    for (u, v, w) in graph.edges() {
        if let (Some(lu), Some(lv)) = (closure.index(u), closure.index(v)) {
            #[expect(
                clippy::as_conversions,
                reason = "link weights ≪ 2⁵³ are exactly representable in f64"
            )]
            edges.push((lu, lv, w as f64));
        }
    }
    let n = inst.n();
    if n == 0 {
        let walk = if inst.is_tour() {
            vec![inst.s_ix()]
        } else {
            vec![inst.s_ix(), inst.t_ix()]
        };
        return Ok(inst.solution_from_walk(walk));
    }
    let growth = |prize: f64| {
        Growth {
            nodes: members,
            edges: &edges,
            s: inst.s_ix(),
            t: inst.t_ix(),
            prize,
        }
        .run(n)
    };
    // Binary search the uniform prize: larger prizes keep moats growing
    // longer and capture more switches.
    let total_weight: f64 = edges.iter().map(|e| e.2).sum();
    let mut lo = 0.0f64;
    let mut hi = total_weight.max(1.0) * 2.0;
    let mut best: Option<(Vec<Edge>, f64)> = None;
    for _ in 0..cfg.search_iterations {
        let mid = 0.5 * (lo + hi);
        match growth(mid) {
            Some((tree, count, cost)) if count >= n => {
                if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                    best = Some((tree.clone(), cost));
                }
                hi = mid;
            }
            _ => lo = mid,
        }
    }
    // The upper end of the range always spans enough switches on a
    // connected graph; retry once at `hi * 2` if the search never hit.
    let (tree, _) = match best {
        Some(b) => b,
        None => match growth(hi * 2.0) {
            Some((tree, count, cost)) if count >= n => (tree, cost),
            _ => return Err(StrollError::Unreachable),
        },
    };
    // DFS first-visit order from s over the tree = the doubled-and-shortcut
    // stroll's switch sequence.
    let m = members.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); m];
    for &(u, v, _) in &tree {
        adj[u].push(v);
        adj[v].push(u);
    }
    for l in adj.iter_mut() {
        l.sort_unstable();
    }
    let mut order = Vec::new();
    let mut seen = vec![false; m];
    let mut stack = vec![inst.s_ix()];
    seen[inst.s_ix()] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in adj[u].iter().rev() {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    let waypoints: Vec<usize> = order
        .into_iter()
        .filter(|&v| v != inst.s_ix() && v != inst.t_ix())
        .take(n)
        .collect();
    if waypoints.len() < n {
        return Err(StrollError::Unreachable);
    }
    let mut walk = Vec::with_capacity(n + 2);
    walk.push(inst.s_ix());
    walk.extend(waypoints);
    walk.push(inst.t_ix());
    Ok(inst.solution_from_walk(walk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{optimal_stroll, DEFAULT_BUDGET};
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::{DistanceMatrix, MetricClosure, NodeId};

    fn closure_with_hosts(g: &Graph, extra: &[NodeId]) -> MetricClosure {
        let dm = DistanceMatrix::build(g);
        let mut members: Vec<NodeId> = extra.to_vec();
        members.extend(g.switches());
        MetricClosure::over(&dm, &members)
    }

    #[test]
    fn valid_solution_on_linear() {
        let (g, h1, h2) = linear(5).unwrap();
        let mc = closure_with_hosts(&g, &[h1, h2]);
        for n in 1..=5 {
            let inst = StrollInstance::new(&mc, h1, h2, n).unwrap();
            let sol = primal_dual_stroll(&g, &inst, PrimalDualConfig::default()).unwrap();
            sol.validate(&inst).unwrap();
            assert!(sol.distinct.len() >= n);
        }
    }

    #[test]
    fn within_factor_two_of_optimal_on_fat_tree() {
        let g = fat_tree(4).unwrap();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mc = closure_with_hosts(&g, &[hosts[0], hosts[9]]);
        for n in 1..=6 {
            let inst = StrollInstance::new(&mc, hosts[0], hosts[9], n).unwrap();
            let pd = primal_dual_stroll(&g, &inst, PrimalDualConfig::default()).unwrap();
            let (opt, ex) = optimal_stroll(&inst, DEFAULT_BUDGET);
            assert!(ex.is_exact());
            pd.validate(&inst).unwrap();
            assert!(
                pd.cost <= 2 * opt.cost + 1,
                "n={n}: primal-dual {} vs optimal {}",
                pd.cost,
                opt.cost
            );
        }
    }

    #[test]
    fn tour_instance() {
        let (g, h1, _) = linear(4).unwrap();
        let mc = closure_with_hosts(&g, &[h1]);
        let inst = StrollInstance::new(&mc, h1, h1, 2).unwrap();
        let sol = primal_dual_stroll(&g, &inst, PrimalDualConfig::default()).unwrap();
        sol.validate(&inst).unwrap();
    }

    #[test]
    fn zero_stroll_shortcut() {
        let (g, h1, h2) = linear(3).unwrap();
        let mc = closure_with_hosts(&g, &[h1, h2]);
        let inst = StrollInstance::new(&mc, h1, h2, 0).unwrap();
        let sol = primal_dual_stroll(&g, &inst, PrimalDualConfig::default()).unwrap();
        assert_eq!(sol.cost, 4);
    }
}

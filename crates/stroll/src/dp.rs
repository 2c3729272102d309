//! **DP-Stroll** — Algorithm 2 of the paper.
//!
//! Finding a shortest s–t stroll visiting `n` distinct nodes is NP-hard, but
//! finding one with a fixed number of *edges* is polynomial. The DP runs on
//! the metric closure `G''` (complete graph of shortest-path costs), where
//! an `(n+1)`-edge stroll always exists, computing
//!
//! `cost(u, e)` — the minimum cost of a `u → t` stroll with exactly `e`
//! edges, under the no-immediate-backtrack rule (line 6 of Algorithm 2:
//! the predecessor `u` may not equal the successor's next hop, which rules
//! out `a → b → a` oscillations).
//!
//! The edge count starts at `n + 1` and grows until the reconstructed
//! stroll visits `n` distinct intermediates.
//!
//! The tables are keyed by the *target* only, so one table answers stroll
//! queries for **every source** — the TOP placement algorithm (Algorithm 3)
//! exploits this to amortize its `O(|V_s|²)` ingress/egress enumeration.
//!
//! # The level kernel
//!
//! Growing one level is a min-plus product of the closure with the
//! previous level's costs. [`DpTables`] computes it row by row against an
//! admissible row bound — `max(c(u, t), e·δ_min)`, rounded to the walk
//! parity when the closure has a parity colouring — and stops a row's
//! branch-free chunked scan as soon as the running minimum reaches it.
//! The tables are bit-identical to a full strict-`<` argmin scan, which
//! the tests keep as the reference (DESIGN.md §5b, *Stroll-DP level
//! kernel*).
//!
//! [`DpBatchSolver::interior_into`] reads the first `n` distinct
//! intermediates straight off the successor tables, which is all
//! Algorithm 3 installs, without building a walk or a solution.

use crate::instance::{StrollInstance, StrollSolution};
use crate::StrollError;
use ppdc_topology::{sat_mul, Cost, MetricClosure, NodeId, INFINITY};

const NO_SUCC: usize = usize::MAX;

/// Per-target DP tables for Algorithm 2, grown lazily one edge-count level
/// at a time.
///
/// Both tables live in single flat arenas indexed `(e - 1) * m + u` — one
/// allocation each, reused level after level and (via [`DpTables::reset`])
/// egress after egress, so the inner DP loop walks contiguous memory and
/// the placement sweep stops paying a pair of `Vec` allocations per level
/// per egress.
#[derive(Debug, Clone, Default)]
pub struct DpTables {
    m: usize,
    t: usize,
    /// Number of edge-count levels currently materialized.
    levels: usize,
    /// `cost[(e-1)*m + u]` = min cost of a `u → t` stroll with exactly `e`
    /// edges.
    cost: Vec<Cost>,
    /// `succ[(e-1)*m + u]` = the next node after `u` on that stroll.
    succ: Vec<usize>,
    /// Per-level scratch of [`DpTables::extend`]: the previous level's
    /// costs with the target and unreachable suffixes masked to
    /// `Cost::MAX`.
    base: Vec<Cost>,
    /// Per-level scratch of [`DpTables::extend`]: the previous level's
    /// inverse successor lists, `back[back_at[u]..back_at[u + 1]]` being
    /// every `v` with `succ(v) = u`.
    back: Vec<usize>,
    back_at: Vec<usize>,
}

/// Width of the kernel's branch-free row chunks.
const LANES: usize = 16;

impl DpTables {
    /// Initializes tables for target closure-index `t` (level `e = 1`).
    pub fn new(closure: &MetricClosure, t: usize) -> Self {
        let mut tables = DpTables::default();
        tables.reset(closure, t);
        tables
    }

    /// Re-targets the tables at closure-index `t`, truncating back to
    /// level `e = 1` while keeping both arena allocations. This is what
    /// lets one scratch `DpTables` serve every egress of Algorithm 3.
    pub fn reset(&mut self, closure: &MetricClosure, t: usize) {
        let m = closure.len();
        self.m = m;
        self.t = t;
        self.levels = 1;
        self.cost.clear();
        self.cost.resize(m, INFINITY);
        self.succ.clear();
        self.succ.resize(m, NO_SUCC);
        for u in 0..m {
            if u != t {
                self.cost[u] = closure.cost_ix(u, t);
                self.succ[u] = t;
            }
        }
    }

    /// The target closure index.
    pub fn target(&self) -> usize {
        self.t
    }

    /// Highest edge count `e` computed so far.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Grows the tables until level `e` exists.
    pub fn grow_to(&mut self, closure: &MetricClosure, e: usize) {
        while self.levels < e {
            self.extend(closure);
        }
    }

    /// Adds one more edge-count level. `new`/`reset` seed level 1, so the
    /// tables are never empty here.
    ///
    /// Row `u` of level `e` is `min_v c(u, v) + cost(v, e−1)` over the
    /// successors `v ≠ u`, `v ≠ t` with `succ(v, e−1) ≠ u` (no immediate
    /// backtrack), ties to the lowest `v`. The excluded successors are
    /// masked to `Cost::MAX` in a per-level copy of the previous costs —
    /// the target and unreachable suffixes once per level, `u` and its
    /// backtracks (found through per-level inverse successor lists) only
    /// while row `u` is scanned — so the scan itself is a branch-free
    /// saturating `c(u, v) + base[v]` minimum over chunks of [`LANES`].
    /// It stops at the first chunk whose running minimum reaches the
    /// admissible row bound `LB(u) = max(c(u, t), e·δ_min)`, rounded up to
    /// the walk parity `col(u) ⊕ col(t)` when the closure has a parity
    /// colouring (the `c(u, t)` term only on shortest-path closures). No
    /// later successor can then be strictly cheaper, so the first index
    /// holding the minimum — searched from the chunk where it first
    /// appeared — is the full scan's argmin. DESIGN.md §5b (*Stroll-DP
    /// level kernel*) proves both steps.
    fn extend(&mut self, closure: &MetricClosure) {
        let m = self.m;
        let t = self.t;
        let filled = self.levels * m;
        let e = u64::try_from(self.levels + 1).unwrap_or(u64::MAX);
        self.cost.resize(filled + m, INFINITY);
        self.succ.resize(filled + m, NO_SUCC);
        let (prev_c, cur_c) = self.cost.split_at_mut(filled);
        let prev_c = &prev_c[filled - m..];
        let (prev_s, cur_s) = self.succ.split_at_mut(filled);
        let prev_s = &prev_s[filled - m..];
        // The target mid-walk and unreachable suffixes never qualify.
        let unmasked = |v: usize| {
            let c = prev_c[v];
            if v == t || c >= INFINITY {
                Cost::MAX
            } else {
                c
            }
        };
        let base = &mut self.base;
        base.clear();
        base.extend((0..m).map(unmasked));
        // Inverse successor lists: row `u` must skip every `v` whose
        // suffix hops straight back to `u` (counting sort by `succ`).
        let (back, back_at) = (&mut self.back, &mut self.back_at);
        back_at.clear();
        back_at.resize(m + 1, 0);
        for &p in prev_s.iter().filter(|&&p| p < m) {
            back_at[p] += 1;
        }
        for u in 1..=m {
            back_at[u] += back_at[u - 1];
        }
        back.clear();
        back.resize(back_at[m], 0);
        for (v, &p) in prev_s.iter().enumerate().rev().filter(|&(_, &p)| p < m) {
            back_at[p] -= 1;
            back[back_at[p]] = v;
        }
        let hop_lb = sat_mul(e, closure.min_pair_cost());
        let triangle = closure.is_shortest_path();
        let parity = closure.parity_colouring();
        for u in 0..m {
            let row = closure.row(u);
            let mut lb = if triangle { hop_lb.max(row[t]) } else { hop_lb };
            if let Some(col) = parity {
                if lb < INFINITY && lb & 1 != Cost::from(col[u] ^ col[t]) {
                    lb += 1;
                }
            }
            let backtracks = &back[back_at[u]..back_at[u + 1]];
            base[u] = Cost::MAX;
            for &v in backtracks {
                base[v] = Cost::MAX;
            }
            let mut best = Cost::MAX;
            let mut best_chunk = 0;
            let chunks = row.chunks(LANES).zip(base.chunks(LANES));
            for (start, (r, b)) in (0..).step_by(LANES).zip(chunks) {
                let mut chunk_min = Cost::MAX;
                for (&c, &bv) in r.iter().zip(b) {
                    chunk_min = chunk_min.min(c.saturating_add(bv));
                }
                if chunk_min < best {
                    best = chunk_min;
                    best_chunk = start;
                }
                if best <= lb {
                    break;
                }
            }
            let first = (best < INFINITY)
                .then(|| (best_chunk..m).find(|&v| row[v].saturating_add(base[v]) == best))
                .flatten();
            (cur_c[u], cur_s[u]) = match first {
                Some(v) => (best, v),
                None => (INFINITY, NO_SUCC),
            };
            base[u] = unmasked(u);
            for &v in backtracks {
                base[v] = unmasked(v);
            }
        }
        self.levels += 1;
    }

    /// The reference level extension the kernel is proptested against: a
    /// full strict-`<` argmin scan of every row.
    #[cfg(test)]
    fn extend_reference(&mut self, closure: &MetricClosure) {
        let m = self.m;
        let filled = self.levels * m;
        self.cost.resize(filled + m, INFINITY);
        self.succ.resize(filled + m, NO_SUCC);
        let (prev_c, cur_c) = self.cost.split_at_mut(filled);
        let prev_c = &prev_c[filled - m..];
        let (prev_s, cur_s) = self.succ.split_at_mut(filled);
        let prev_s = &prev_s[filled - m..];
        for u in 0..m {
            let mut best = INFINITY;
            let mut best_v = NO_SUCC;
            for v in 0..m {
                // v is the next node: not u itself, not the target
                // mid-walk, and not an immediate backtrack (the stroll from
                // v must not hop straight back to u).
                if v == u || v == self.t || prev_s[v] == u {
                    continue;
                }
                if prev_c[v] >= INFINITY {
                    continue;
                }
                let cand = closure.cost_ix(u, v) + prev_c[v];
                if cand < best {
                    best = cand;
                    best_v = v;
                }
            }
            cur_c[u] = best;
            cur_s[u] = best_v;
        }
        self.levels += 1;
    }

    /// Cost of the best `e`-edge stroll from `u` to the target
    /// ([`INFINITY`] if none exists). Level `e` must have been grown.
    pub fn cost(&self, u: usize, e: usize) -> Cost {
        self.cost[(e - 1) * self.m + u]
    }

    /// Reconstructs the `e`-edge stroll from `s` as closure indices
    /// (including both endpoints). Returns `None` if no stroll exists.
    pub fn reconstruct(&self, s: usize, e: usize) -> Option<Vec<usize>> {
        if self.cost(s, e) >= INFINITY {
            return None;
        }
        let mut walk = Vec::with_capacity(e + 1);
        walk.push(s);
        let mut cur = s;
        for level in (1..=e).rev() {
            let nxt = self.succ[(level - 1) * self.m + cur];
            debug_assert_ne!(nxt, NO_SUCC);
            cur = nxt;
            walk.push(cur);
        }
        debug_assert_eq!(cur, self.t);
        Some(walk)
    }

    /// Appends to `out` the first `n` distinct intermediates (original
    /// ids, first-visit order, neither `s` nor the target) of the `e`-edge
    /// stroll from `s`, walking the successor chain in place. Returns
    /// `false` — with `out` possibly grown — when no stroll exists or it
    /// visits fewer than `n`.
    fn first_distinct_into(
        &self,
        closure: &MetricClosure,
        s: usize,
        e: usize,
        n: usize,
        out: &mut Vec<NodeId>,
    ) -> bool {
        if self.cost(s, e) >= INFINITY {
            return false;
        }
        let start = out.len();
        let mut cur = s;
        for level in (1..=e).rev() {
            cur = self.succ[(level - 1) * self.m + cur];
            if cur == s || cur == self.t {
                continue;
            }
            let node = closure.node(cur);
            if !out[start..].contains(&node) {
                out.push(node);
                if out.len() - start == n {
                    return true;
                }
            }
        }
        false
    }

    /// Checks the sufficient optimality condition of Theorem 3 for the
    /// stroll reconstructed from `s` with `e` edges: every suffix stroll of
    /// the solution must be the cheapest stroll of its edge count *over all
    /// starting nodes*.
    pub fn theorem3_holds(&self, s: usize, e: usize) -> bool {
        let Some(walk) = self.reconstruct(s, e) else {
            return false;
        };
        for (i, &node) in walk.iter().enumerate().skip(1) {
            let suffix_edges = e - i;
            if suffix_edges == 0 {
                break;
            }
            let suffix_cost = self.cost(node, suffix_edges);
            let global_min = (0..self.m)
                .map(|u| self.cost(u, suffix_edges))
                .min()
                .unwrap_or(INFINITY);
            if suffix_cost != global_min {
                return false;
            }
        }
        true
    }
}

/// Hard cap on edge-count growth, as a function of `n`. On a connected
/// metric closure the DP converges within a handful of extra levels (each
/// loop edge costs at least the cheapest closure edge while new nodes are
/// at most a diameter away); the cap turns a hypothetical pathology into a
/// typed error instead of an unbounded loop.
fn max_edges(n: usize) -> usize {
    2 * n + 16
}

/// Tie-breaking attempts before giving up (attempt 0 is unperturbed).
const MAX_ATTEMPTS: u64 = 8;

/// Cost scale for tie-breaking perturbations: real cost differences are
/// ≥ 1, so scaling by 2²⁰ and adding hashes < 2¹² per edge (≤ ~50 edges
/// per stroll) can never reorder strolls of different true cost.
const PERTURB_SCALE: Cost = 1 << 20;
const PERTURB_MASK: Cost = 0xFFF;

/// A deterministic per-(attempt, edge) hash for tie-breaking.
fn perturb_hash(attempt: u64, i: usize, j: usize) -> Cost {
    let (a, b) = if i < j { (i, j) } else { (j, i) };
    #[expect(
        clippy::as_conversions,
        reason = "usize → u64 is lossless on every supported target"
    )]
    let hi = (a as u64) << 32;
    #[expect(
        clippy::as_conversions,
        reason = "usize → u64 is lossless on every supported target"
    )]
    let lo = b as u64;
    let mut x = attempt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(hi)
        .wrapping_add(lo);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x & PERTURB_MASK
}

/// A scaled copy of the closure whose ties are broken by per-edge hashes.
///
/// On unweighted fabrics the minimum-cost fixed-edge-count strolls are
/// massively degenerate and a fixed tie-break can cycle through the same
/// few switches forever; the perturbation selects one stroll per attempt
/// pseudo-randomly *among the true minimum-cost strolls*, so a handful of
/// attempts finds one spanning `n` distinct switches whenever one exists.
pub fn perturbed_closure(closure: &MetricClosure, attempt: u64) -> MetricClosure {
    closure.map_costs(|i, j, c| {
        if c >= INFINITY || i == j {
            c
        } else {
            c * PERTURB_SCALE + perturb_hash(attempt, i, j)
        }
    })
}

/// Solves one n-stroll instance with Algorithm 2, retrying with
/// tie-breaking perturbations when the reconstructed strolls keep looping
/// (one [`DpBatchSolver`] call).
///
/// # Errors
///
/// Propagates instance errors and reports
/// [`StrollError::NoConvergence`] if the edge cap is hit on every attempt.
pub fn dp_stroll(inst: &StrollInstance<'_>) -> Result<StrollSolution, StrollError> {
    let mut solver = DpBatchSolver::new();
    solver.reset(inst.closure(), inst.t_ix());
    solver.solve(inst.closure(), inst.s_ix(), inst.n())
}

/// Single-attempt solve where the DP grows over `grow_closure` (possibly a
/// perturbed copy) while the solution is priced on the instance's original
/// closure.
fn dp_stroll_on_closure(
    inst: &StrollInstance<'_>,
    grow_closure: &MetricClosure,
    tables: &mut DpTables,
) -> Result<StrollSolution, StrollError> {
    assert_eq!(tables.target(), inst.t_ix(), "tables target mismatch");
    let n = inst.n();
    if n == 0 {
        // Degenerate interior chain: ride straight from s to t.
        let walk = if inst.is_tour() {
            vec![inst.s_ix()]
        } else {
            vec![inst.s_ix(), inst.t_ix()]
        };
        return Ok(inst.solution_from_walk(walk));
    }
    let cap = max_edges(n);
    let mut e = n + 1;
    loop {
        if e > cap {
            return Err(StrollError::NoConvergence { max_edges: cap });
        }
        tables.grow_to(grow_closure, e);
        if let Some(walk) = tables.reconstruct(inst.s_ix(), e) {
            let distinct = inst.distinct_of_walk(&walk);
            if distinct.len() >= n {
                return Ok(inst.solution_from_parts(walk, &distinct));
            }
        }
        e += 1;
    }
}

/// Reusable scratch state for solving many stroll instances that share one
/// target: the unperturbed [`DpTables`] plus the lazily-built perturbed
/// retries. [`DpBatchSolver::reset`] re-targets everything without giving
/// the arena allocations back, so Algorithm 3 can sweep hundreds of
/// egresses through one solver with zero steady-state allocation — and its
/// branch-and-bound can solve sources *one at a time*, skipping the ones
/// its incumbent already rules out.
#[derive(Debug, Clone, Default)]
pub struct DpBatchSolver {
    tables: DpTables,
    /// `(perturbed closure, its tables)` for attempts `1..MAX_ATTEMPTS`,
    /// built on first need and only valid for the current `reset` target.
    retries: Vec<(MetricClosure, DpTables)>,
}

impl DpBatchSolver {
    /// A solver with no target; call [`DpBatchSolver::reset`] before
    /// [`DpBatchSolver::solve`].
    pub fn new() -> Self {
        DpBatchSolver::default()
    }

    /// Re-targets the solver at closure-index `t` of `closure`, keeping
    /// allocations. Drops any perturbed retries (they are keyed to the old
    /// target and closure).
    pub fn reset(&mut self, closure: &MetricClosure, t: usize) {
        self.tables.reset(closure, t);
        self.retries.clear();
    }

    /// Solves the n-stroll from source closure-index `s` to the target set
    /// by the last [`DpBatchSolver::reset`], sharing tables with every
    /// other source of that target (attempt 0 unperturbed, perturbed
    /// retries lazily).
    ///
    /// # Errors
    ///
    /// Same conditions as [`dp_stroll`].
    pub fn solve(
        &mut self,
        closure: &MetricClosure,
        s: usize,
        n: usize,
    ) -> Result<StrollSolution, StrollError> {
        let t = self.tables.target();
        let inst = StrollInstance::new_unvalidated(closure, closure.node(s), closure.node(t), n)?;
        match dp_stroll_on_closure(&inst, closure, &mut self.tables) {
            Err(StrollError::NoConvergence { .. }) => self.solve_perturbed(&inst),
            other => other,
        }
    }

    /// The tie-breaking retries for an instance whose unperturbed attempt
    /// hit the edge cap: attempts `1..MAX_ATTEMPTS` in order, each on its
    /// lazily built perturbed closure and tables.
    fn solve_perturbed(
        &mut self,
        inst: &StrollInstance<'_>,
    ) -> Result<StrollSolution, StrollError> {
        let mut last = StrollError::NoConvergence {
            max_edges: max_edges(inst.n()),
        };
        for attempt in 1..MAX_ATTEMPTS {
            #[expect(
                clippy::as_conversions,
                reason = "attempt < MAX_ATTEMPTS = 8, fits usize"
            )]
            let idx = (attempt - 1) as usize;
            if self.retries.len() <= idx {
                let pc = perturbed_closure(inst.closure(), attempt);
                let tb = DpTables::new(&pc, inst.t_ix());
                self.retries.push((pc, tb));
            }
            let (pc, tb) = &mut self.retries[idx];
            match dp_stroll_on_closure(inst, pc, tb) {
                Ok(sol) => return Ok(sol),
                Err(e @ StrollError::NoConvergence { .. }) => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// Appends to `out` exactly `solve(closure, s, n)?.first_n(n)` — the
    /// chain interior Algorithm 3 installs — without building the walk or
    /// the solution: the unperturbed tables' successor chain is walked in
    /// place, level by level from `n + 1` edges, as `solve` reconstructs
    /// it. Only a source whose unperturbed strolls never reach `n`
    /// distinct intermediates goes on to `solve`'s perturbed retries. A
    /// steady-state call allocates nothing.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DpBatchSolver::solve`]; `out` is unchanged on
    /// error.
    pub fn interior_into(
        &mut self,
        closure: &MetricClosure,
        s: usize,
        n: usize,
        out: &mut Vec<NodeId>,
    ) -> Result<(), StrollError> {
        let t = self.tables.target();
        // The checks `solve` makes before growing anything.
        let inst = StrollInstance::new_unvalidated(closure, closure.node(s), closure.node(t), n)?;
        if n == 0 {
            return Ok(());
        }
        let start = out.len();
        for e in n + 1..=max_edges(n) {
            self.tables.grow_to(closure, e);
            if self.tables.first_distinct_into(closure, s, e, n, out) {
                return Ok(());
            }
            out.truncate(start);
        }
        let sol = self.solve_perturbed(&inst)?;
        out.extend_from_slice(sol.first_n(n));
        Ok(())
    }
}

/// Solves the n-stroll problem from **every source in `sources`** to the one
/// target `t`, sharing one DP table per tie-breaking attempt. This is the
/// exhaustive-sweep workhorse of Algorithm 3 (its branch-and-bound drives a
/// [`DpBatchSolver`] directly to interleave solving with pruning).
///
/// Returns one solution per source, in order.
pub fn dp_stroll_all_sources(
    closure: &MetricClosure,
    sources: &[usize],
    t: usize,
    n: usize,
) -> Vec<Result<StrollSolution, StrollError>> {
    let mut solver = DpBatchSolver::new();
    solver.reset(closure, t);
    sources
        .iter()
        .map(|&s| solver.solve(closure, s, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::linear;
    use ppdc_topology::{DistanceMatrix, Graph, MetricClosure, NodeId};

    /// The paper's Fig. 4(a): nodes s, A, B, C, D, t. Weights chosen so the
    /// optimal 2-stroll is the *walk* s, D, t, C, t of cost 6 while the
    /// *path* s, A, B, t costs 7 — exactly the paper's Example 2 numbers.
    /// On the metric closure (Fig. 4(b)) the DP finds the 3-edge stroll
    /// s, D, C, t of the same cost 6 (D–C rides through t).
    fn fig4() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let s = g.add_switch("s");
        let a = g.add_switch("A");
        let b = g.add_switch("B");
        let c = g.add_switch("C");
        let d = g.add_switch("D");
        let t = g.add_switch("t");
        g.add_edge(s, a, 2).unwrap();
        g.add_edge(a, b, 3).unwrap();
        g.add_edge(b, t, 2).unwrap();
        g.add_edge(s, d, 2).unwrap();
        g.add_edge(d, t, 2).unwrap();
        g.add_edge(t, c, 1).unwrap();
        (g, vec![s, a, b, c, d, t])
    }

    fn closure_of(g: &Graph) -> MetricClosure {
        let dm = DistanceMatrix::build(g);
        let members: Vec<NodeId> = g.nodes().collect();
        MetricClosure::over(&dm, &members)
    }

    #[test]
    fn fig4_example2_dp_finds_cost_6_walk() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let (s, t) = (nodes[0], nodes[5]);
        let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.cost, 6, "closure stroll s, D, C, t");
        assert_eq!(sol.distinct, vec![nodes[4], nodes[3]], "visits D then C");
    }

    #[test]
    fn one_stroll_visits_cheapest_detour() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 1).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        // s → D → t costs 4 (D is on the shortest s–t path).
        assert_eq!(sol.cost, 4);
        assert_eq!(sol.distinct, vec![nodes[4]]);
    }

    #[test]
    fn zero_stroll_is_direct_edge() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 0).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        assert_eq!(sol.cost, 4); // closure distance s–t
        assert_eq!(sol.walk.len(), 2);
        assert!(sol.distinct.is_empty());
    }

    #[test]
    fn tour_returns_to_start() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[0], 2).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.walk.first(), sol.walk.last());
        assert!(sol.distinct.len() >= 2);
    }

    #[test]
    fn zero_tour_is_trivial() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[0], 0).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        assert_eq!(sol.cost, 0);
        assert_eq!(sol.walk, vec![nodes[0]]);
    }

    #[test]
    fn no_immediate_backtrack_in_walks() {
        let (g, h1, h2) = linear(6).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        for n in 1..=5 {
            let inst = StrollInstance::new(&mc, h1, h2, n).unwrap();
            let sol = dp_stroll(&inst).unwrap();
            sol.validate(&inst).unwrap();
            for w in sol.walk.windows(3) {
                assert!(
                    w[0] != w[2],
                    "immediate backtrack {:?} in walk for n={n}",
                    w
                );
            }
        }
    }

    #[test]
    fn linear_full_span_stroll() {
        // On the 5-switch line h1 … h2, visiting all 5 switches from h1 to
        // h2 is just the 6-edge end-to-end path of cost 6.
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        let inst = StrollInstance::new(&mc, h1, h2, 5).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        sol.validate(&inst).unwrap();
        assert_eq!(sol.cost, 6);
        assert_eq!(sol.distinct.len(), 5);
    }

    #[test]
    fn all_sources_matches_individual_solves() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let t_ix = mc.index(nodes[5]).unwrap();
        let sources: Vec<usize> = (0..mc.len()).filter(|&i| i != t_ix).collect();
        let batch = dp_stroll_all_sources(&mc, &sources, t_ix, 2);
        for (&s_ix, result) in sources.iter().zip(&batch) {
            let inst = StrollInstance::new(&mc, mc.node(s_ix), nodes[5], 2).unwrap();
            let solo = dp_stroll(&inst).unwrap();
            assert_eq!(result.as_ref().unwrap().cost, solo.cost);
        }
    }

    #[test]
    fn theorem3_condition_on_fig4() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let inst = StrollInstance::new(&mc, nodes[0], nodes[5], 2).unwrap();
        let sol = dp_stroll(&inst).unwrap();
        let e = sol.walk.len() - 1;
        let mut tables = DpTables::new(&mc, inst.t_ix());
        tables.grow_to(&mc, e);
        // The paper notes the fig-4 solution satisfies Theorem 3.
        assert!(tables.theorem3_holds(inst.s_ix(), e));
    }

    #[test]
    fn ablation_closure_vs_raw_graph_matches_example2() {
        // The paper's Example 2 ablation: run the DP on the *raw* graph
        // (non-adjacent pairs = ∞) instead of the metric closure. On
        // Fig. 4 it must then settle for the path s, A, B, t of cost 7,
        // while the closure finds the cost-6 walk — the reason Algorithm 2
        // takes G'' as input.
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        // Raw-edge cost surface: keep direct edges, sever the rest.
        let mut direct = vec![vec![ppdc_topology::INFINITY; 6]; 6];
        for (u, v, w) in g.edges() {
            let (i, j) = (mc.index(u).unwrap(), mc.index(v).unwrap());
            direct[i][j] = w;
            direct[j][i] = w;
        }
        let raw = mc.map_costs(|i, j, c| if i == j { c } else { direct[i][j] });
        let (s, t) = (nodes[0], nodes[5]);
        let inst_raw = StrollInstance::new_unvalidated(&raw, s, t, 2).unwrap();
        let sol_raw = dp_stroll(&inst_raw).unwrap();
        assert_eq!(sol_raw.cost, 7, "raw graph: the s, A, B, t path");
        let inst = StrollInstance::new(&mc, s, t, 2).unwrap();
        assert_eq!(
            dp_stroll(&inst).unwrap().cost,
            6,
            "closure: the cheaper walk"
        );
    }

    #[test]
    fn large_n_on_unweighted_fat_tree_converges() {
        // Regression: on unweighted closures the min-cost strolls are
        // heavily tied and an unperturbed tie-break can loop forever; the
        // perturbation retries must find n distinct switches for every n
        // up to the paper's maximum (13) on the Fig. 7 fabric.
        let g = ppdc_topology::builders::fat_tree(8).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut members = vec![hosts[0], hosts[77]];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        for n in [9usize, 11, 13] {
            let inst = StrollInstance::new(&mc, hosts[0], hosts[77], n).unwrap();
            let sol = dp_stroll(&inst).unwrap();
            sol.validate(&inst).unwrap();
            assert!(sol.distinct.len() >= n, "n={n}");
        }
    }

    #[test]
    fn perturbation_preserves_true_costs() {
        // Perturbed closures must never reorder strolls of different true
        // cost: scaled-down perturbed costs round back to the originals.
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        let pc = perturbed_closure(&mc, 3);
        for i in 0..mc.len() {
            for j in 0..mc.len() {
                if i != j {
                    assert_eq!(pc.cost_ix(i, j) >> 20, mc.cost_ix(i, j));
                }
            }
        }
        let _ = nodes;
    }

    #[test]
    fn perturbation_hash_is_symmetric_and_bounded() {
        for a in 0..4u64 {
            for i in 0..10usize {
                for j in 0..10usize {
                    let h = perturb_hash(a, i, j);
                    assert_eq!(h, perturb_hash(a, j, i));
                    assert!(h <= PERTURB_MASK);
                }
            }
        }
    }

    /// xorshift64 draws for the generated cost surfaces.
    struct Draws(u64);

    impl Draws {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Adds `n` switches to `g`, joined by a random spanning tree plus a
    /// few chords, weights in `1..=9`.
    fn random_component(g: &mut Graph, n: usize, d: &mut Draws) {
        let sw: Vec<NodeId> = (0..n).map(|i| g.add_switch(format!("s{i}"))).collect();
        for i in 1..n {
            let parent = d.below(i);
            g.add_edge(sw[i], sw[parent], 1 + d.next() % 9).unwrap();
        }
        for _ in 0..d.below(n) {
            let (a, b) = (d.below(n), d.below(n));
            if a != b {
                let _ = g.add_edge(sw[a], sw[b], 1 + d.next() % 9);
            }
        }
    }

    /// The closure over every node of `g`, or over its switches only.
    fn closure_over(g: &Graph, with_hosts: bool) -> MetricClosure {
        let dm = DistanceMatrix::build(g);
        let members: Vec<NodeId> = if with_hosts {
            g.nodes().collect()
        } else {
            g.switches().collect()
        };
        MetricClosure::over(&dm, &members)
    }

    /// Cost surfaces for the kernel ≡ reference properties, by `kind`:
    /// 0 a random weighted connected graph; 1 a disconnected one
    /// (`INFINITY` pairs); 2 a fat-tree k ∈ {4, 6, 8} and 3 a leaf–spine
    /// (both parity-consistent); 4 a fat-tree with random link weights
    /// (parity-inconsistent); 5 a perturbed copy of kind 0 or 2.
    fn arb_closure(kind: u8, seed: u64) -> MetricClosure {
        let mut d = Draws(seed | 1);
        let with_hosts = d.next() & 1 == 1;
        match kind {
            0 => {
                let mut g = Graph::new();
                random_component(&mut g, 3 + d.below(18), &mut d);
                closure_over(&g, false)
            }
            1 => {
                let mut g = Graph::new();
                random_component(&mut g, 2 + d.below(10), &mut d);
                random_component(&mut g, 1 + d.below(8), &mut d);
                closure_over(&g, false)
            }
            2 => {
                let g = ppdc_topology::builders::fat_tree(4 + 2 * d.below(3)).unwrap();
                closure_over(&g, with_hosts)
            }
            3 => {
                let g = ppdc_topology::builders::leaf_spine(
                    2 + d.below(5),
                    1 + d.below(4),
                    1 + d.below(2),
                )
                .unwrap();
                closure_over(&g, with_hosts)
            }
            4 => {
                let mut g = ppdc_topology::builders::fat_tree(4 + 2 * d.below(2)).unwrap();
                g.map_edge_weights(|_, _, _| 1 + d.next() % 9);
                closure_over(&g, with_hosts)
            }
            _ => {
                let inner = if d.next() & 1 == 0 { 0 } else { 2 };
                perturbed_closure(&arb_closure(inner, d.next()), 1 + d.next() % 7)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::env_or(64))]

        #[test]
        fn dp_tables_equal_the_reference_scan(
            kind in 0u8..6,
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..6,
            t_pick in proptest::prelude::any::<u64>(),
        ) {
            let mc = arb_closure(kind, seed);
            if matches!(kind, 2 | 3) {
                proptest::prop_assert!(mc.parity_colouring().is_some());
            }
            let t = (t_pick % mc.len() as u64) as usize;
            let mut kernel = DpTables::new(&mc, t);
            let mut reference = DpTables::new(&mc, t);
            for e in 2..=max_edges(n) {
                kernel.grow_to(&mc, e);
                reference.extend_reference(&mc);
                proptest::prop_assert_eq!(&kernel.cost, &reference.cost, "cost at level {}", e);
                proptest::prop_assert_eq!(&kernel.succ, &reference.succ, "succ at level {}", e);
            }
        }

        #[test]
        fn interior_into_equals_solve_first_n(
            kind in 0u8..6,
            seed in proptest::prelude::any::<u64>(),
            n in 0usize..8,
            t_pick in proptest::prelude::any::<u64>(),
        ) {
            let mc = arb_closure(kind, seed);
            let t = (t_pick % mc.len() as u64) as usize;
            let (mut fast, mut full) = (DpBatchSolver::new(), DpBatchSolver::new());
            fast.reset(&mc, t);
            full.reset(&mc, t);
            let prefix = NodeId(u32::MAX);
            for s in 0..mc.len() {
                let mut out = vec![prefix];
                let got = fast.interior_into(&mc, s, n, &mut out);
                match (got, full.solve(&mc, s, n)) {
                    (Ok(()), Ok(sol)) => {
                        proptest::prop_assert_eq!(&out[1..], sol.first_n(n), "source {}", s);
                    }
                    (Err(a), Err(b)) => {
                        proptest::prop_assert_eq!(a, b);
                        proptest::prop_assert_eq!(out.len(), 1, "out grew on error");
                    }
                    (a, b) => proptest::prop_assert!(false, "source {}: {:?} vs {:?}", s, a, b),
                }
                proptest::prop_assert_eq!(out[0], prefix);
            }
        }
    }

    #[test]
    fn interior_into_matches_solve_through_perturbed_retries() {
        // The unweighted k=8 fabric where the unperturbed tie-break loops
        // for large n: at least one source must need a perturbed retry, and
        // `interior_into` must still agree with `solve` on every source.
        let g = ppdc_topology::builders::fat_tree(8).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut members = vec![hosts[0], hosts[77]];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        let t = mc.index(hosts[77]).unwrap();
        let mut forced = 0;
        for n in [11usize, 13] {
            let (mut fast, mut full) = (DpBatchSolver::new(), DpBatchSolver::new());
            fast.reset(&mc, t);
            full.reset(&mc, t);
            for s in (0..mc.len()).filter(|&s| s != t) {
                let inst = StrollInstance::new(&mc, mc.node(s), mc.node(t), n).unwrap();
                let mut tables = DpTables::new(&mc, t);
                if dp_stroll_on_closure(&inst, &mc, &mut tables).is_err() {
                    forced += 1;
                }
                let mut out = Vec::new();
                fast.interior_into(&mc, s, n, &mut out).unwrap();
                assert_eq!(
                    out,
                    full.solve(&mc, s, n).unwrap().first_n(n),
                    "n={n} s={s}"
                );
            }
        }
        assert!(forced > 0, "no source needed a perturbed retry");
        // Too few candidates is reported before anything is grown.
        let mut solver = DpBatchSolver::new();
        solver.reset(&mc, t);
        let mut out = Vec::new();
        assert_eq!(
            solver.interior_into(&mc, 0, mc.len(), &mut out),
            Err(StrollError::TooFewNodes {
                available: mc.len() - 2,
                needed: mc.len()
            })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn too_few_nodes_is_reported() {
        let (g, nodes) = fig4();
        let mc = closure_of(&g);
        assert!(matches!(
            StrollInstance::new(&mc, nodes[0], nodes[5], 5),
            Err(StrollError::TooFewNodes {
                available: 4,
                needed: 5
            })
        ));
    }
}

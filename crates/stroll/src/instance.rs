//! Problem instances and solutions for the n-stroll problem.

use crate::StrollError;
use ppdc_topology::{Cost, MetricClosure, NodeId, INFINITY};

/// An n-stroll instance over a metric closure.
///
/// The closure's nodes are the candidate walk nodes; `s` and `t` are member
/// nodes (possibly equal — the n-tour case); `n` is the required number of
/// distinct intermediate nodes (≠ `s`, ≠ `t`).
#[derive(Debug, Clone)]
pub struct StrollInstance<'a> {
    closure: &'a MetricClosure,
    s: usize,
    t: usize,
    n: usize,
}

impl<'a> StrollInstance<'a> {
    /// Builds an instance. `s` and `t` are original node ids that must be
    /// members of `closure`.
    ///
    /// # Errors
    ///
    /// Fails if a terminal is not in the closure, if fewer than `n`
    /// candidate intermediates exist, or if the closure contains
    /// unreachable pairs.
    pub fn new(
        closure: &'a MetricClosure,
        s: NodeId,
        t: NodeId,
        n: usize,
    ) -> Result<Self, StrollError> {
        let inst = Self::new_unvalidated(closure, s, t, n)?;
        // Connectivity scan is O(m²); batch callers that reuse one closure
        // for many instances use `new_unvalidated` and scan once.
        let m = closure.len();
        for i in 0..m {
            for j in 0..m {
                if i != j && closure.cost_ix(i, j) >= INFINITY {
                    return Err(StrollError::Unreachable);
                }
            }
        }
        Ok(inst)
    }

    /// Like [`StrollInstance::new`] but skips the `O(m²)` connectivity
    /// scan of the closure. For callers that solve many instances over one
    /// already-checked closure (e.g. Algorithm 3's ingress/egress sweep).
    ///
    /// # Errors
    ///
    /// Still validates terminal membership and the candidate count.
    pub fn new_unvalidated(
        closure: &'a MetricClosure,
        s: NodeId,
        t: NodeId,
        n: usize,
    ) -> Result<Self, StrollError> {
        let s_ix = closure.index(s).ok_or(StrollError::TerminalNotInClosure)?;
        let t_ix = closure.index(t).ok_or(StrollError::TerminalNotInClosure)?;
        let mut available = closure.len();
        available -= 1; // s
        if t_ix != s_ix {
            available -= 1; // t
        }
        if available < n {
            return Err(StrollError::TooFewNodes {
                available,
                needed: n,
            });
        }
        Ok(StrollInstance {
            closure,
            s: s_ix,
            t: t_ix,
            n,
        })
    }

    /// The underlying metric closure.
    pub fn closure(&self) -> &MetricClosure {
        self.closure
    }

    /// Closure index of `s`.
    pub fn s_ix(&self) -> usize {
        self.s
    }

    /// Closure index of `t`.
    pub fn t_ix(&self) -> usize {
        self.t
    }

    /// The source terminal as an original node id.
    pub fn s(&self) -> NodeId {
        self.closure.node(self.s)
    }

    /// The target terminal as an original node id.
    pub fn t(&self) -> NodeId {
        self.closure.node(self.t)
    }

    /// Required number of distinct intermediates.
    pub fn n(&self) -> usize {
        self.n
    }

    /// True when `s = t` (the n-tour special case).
    pub fn is_tour(&self) -> bool {
        self.s == self.t
    }

    /// Candidate intermediate closure indices (everything but `s`, `t`).
    pub fn candidates(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.closure.len()).filter(move |&i| i != self.s && i != self.t)
    }

    /// Cost of the walk given as closure indices.
    pub fn walk_cost_ix(&self, walk: &[usize]) -> Cost {
        walk.windows(2)
            .map(|w| self.closure.cost_ix(w[0], w[1]))
            .sum()
    }

    /// The distinct intermediates of a walk, in first-visit order. Walks
    /// are short (a chain's few VNFs plus a handful of repeat hops), so a
    /// linear scan of the output replaces a closure-sized visited mask.
    pub fn distinct_of_walk(&self, walk: &[usize]) -> Vec<usize> {
        let mut out = Vec::new();
        for &v in walk {
            if v != self.s && v != self.t && !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Wraps a walk (closure indices) into a validated solution.
    pub fn solution_from_walk(&self, walk: Vec<usize>) -> StrollSolution {
        let distinct = self.distinct_of_walk(&walk);
        self.solution_from_parts(walk, &distinct)
    }

    /// [`StrollInstance::solution_from_walk`] for a caller that already
    /// holds the walk's [`StrollInstance::distinct_of_walk`].
    pub(crate) fn solution_from_parts(
        &self,
        walk: Vec<usize>,
        distinct: &[usize],
    ) -> StrollSolution {
        let cost = self.walk_cost_ix(&walk);
        StrollSolution {
            walk: walk.iter().map(|&i| self.closure.node(i)).collect(),
            distinct: distinct.iter().map(|&i| self.closure.node(i)).collect(),
            cost,
        }
    }
}

/// A solved stroll: the walk, its cost, and the distinct intermediates in
/// first-visit order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrollSolution {
    /// The walk as original node ids, starting at `s` and ending at `t`.
    /// Consecutive nodes are connected by shortest paths in the PPDC.
    pub walk: Vec<NodeId>,
    /// Distinct intermediate nodes in first-visit order (≥ `n` of them).
    pub distinct: Vec<NodeId>,
    /// Total closure cost of the walk.
    pub cost: Cost,
}

impl StrollSolution {
    /// Checks every invariant of the solution against its instance:
    /// endpoints, cost, and the distinct-intermediate count.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self, inst: &StrollInstance<'_>) -> Result<(), String> {
        if self.walk.first() != Some(&inst.s()) {
            return Err("walk does not start at s".into());
        }
        if self.walk.last() != Some(&inst.t()) {
            return Err("walk does not end at t".into());
        }
        let ixs: Option<Vec<usize>> = self.walk.iter().map(|&v| inst.closure().index(v)).collect();
        let ixs = ixs.ok_or("walk leaves the closure")?;
        let cost = inst.walk_cost_ix(&ixs);
        if cost != self.cost {
            return Err(format!(
                "declared cost {} != recomputed {}",
                self.cost, cost
            ));
        }
        let distinct = inst.distinct_of_walk(&ixs);
        let got: Vec<NodeId> = distinct.iter().map(|&i| inst.closure().node(i)).collect();
        if got != self.distinct {
            return Err("distinct list mismatch".into());
        }
        if self.distinct.len() < inst.n() {
            return Err(format!(
                "only {} distinct intermediates, need {}",
                self.distinct.len(),
                inst.n()
            ));
        }
        Ok(())
    }

    /// The first `n` distinct intermediates — the switches to install
    /// `f₁ … f_n` on (Algorithm 2, line 23).
    pub fn first_n(&self, n: usize) -> &[NodeId] {
        &self.distinct[..n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::builders::linear;
    use ppdc_topology::{DistanceMatrix, Graph, MetricClosure};

    fn closure_linear(k: usize) -> (Graph, MetricClosure, NodeId, NodeId) {
        let (g, h1, h2) = linear(k).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut members = vec![h1, h2];
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        (g, mc, h1, h2)
    }

    #[test]
    fn instance_construction() {
        let (_, mc, h1, h2) = closure_linear(5);
        let inst = StrollInstance::new(&mc, h1, h2, 3).unwrap();
        assert_eq!(inst.n(), 3);
        assert!(!inst.is_tour());
        assert_eq!(inst.candidates().count(), 5);
        let tour = StrollInstance::new(&mc, h1, h1, 3).unwrap();
        assert!(tour.is_tour());
        assert_eq!(tour.candidates().count(), 6);
    }

    #[test]
    fn rejects_too_many_vnfs() {
        let (_, mc, h1, h2) = closure_linear(3);
        assert!(matches!(
            StrollInstance::new(&mc, h1, h2, 4),
            Err(StrollError::TooFewNodes {
                available: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn rejects_foreign_terminal() {
        let (g, mc, h1, _) = closure_linear(3);
        let stranger = NodeId(g.num_nodes() as u32 - 1);
        // h2 IS in the closure; craft a node not in it: none exist here, so
        // use an id beyond the closure membership — a switch-only closure.
        let dm = DistanceMatrix::build(&g);
        let switch_only: Vec<NodeId> = g.switches().collect();
        let mc2 = MetricClosure::over(&dm, &switch_only);
        assert!(matches!(
            StrollInstance::new(&mc2, h1, switch_only[0], 1),
            Err(StrollError::TerminalNotInClosure)
        ));
        let _ = (mc, stranger);
    }

    #[test]
    fn walk_accounting() {
        let (g, mc, h1, h2) = closure_linear(5);
        let inst = StrollInstance::new(&mc, h1, h2, 2).unwrap();
        let s_ix = inst.s_ix();
        let t_ix = inst.t_ix();
        let s1 = inst.closure().index(g.switches().next().unwrap()).unwrap();
        // h1 → s1 → h1 → s1 → ... not allowed to be interesting; use
        // h1 → s1 → t: cost 1 + 5.
        let walk = vec![s_ix, s1, t_ix];
        assert_eq!(inst.walk_cost_ix(&walk), 6);
        assert_eq!(inst.distinct_of_walk(&walk), vec![s1]);
        let sol = inst.solution_from_walk(walk);
        assert_eq!(sol.cost, 6);
        assert_eq!(sol.distinct.len(), 1);
        // Fails validation: needs 2 distinct intermediates.
        assert!(sol.validate(&inst).is_err());
    }

    #[test]
    fn validate_accepts_good_solution() {
        let (g, mc, h1, h2) = closure_linear(5);
        let inst = StrollInstance::new(&mc, h1, h2, 2).unwrap();
        let switches: Vec<usize> = g
            .switches()
            .map(|s| inst.closure().index(s).unwrap())
            .collect();
        let walk = vec![inst.s_ix(), switches[0], switches[1], inst.t_ix()];
        let sol = inst.solution_from_walk(walk);
        sol.validate(&inst).unwrap();
        assert_eq!(sol.first_n(2).len(), 2);
    }

    #[test]
    fn validate_catches_wrong_cost() {
        let (_, mc, h1, h2) = closure_linear(5);
        let inst = StrollInstance::new(&mc, h1, h2, 1).unwrap();
        let any = inst.candidates().next().unwrap();
        let mut sol = inst.solution_from_walk(vec![inst.s_ix(), any, inst.t_ix()]);
        sol.cost += 1;
        assert!(sol.validate(&inst).unwrap_err().contains("declared cost"));
    }
}

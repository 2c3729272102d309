//! **Traffic-scaling VNFs** — the paper's future-work item 4, implemented.
//!
//! Real VNFs change the volume of the traffic they forward: a firewall
//! filters malicious flows (σ < 1), a WAN optimizer compresses (σ < 1), a
//! decryption gateway can expand (σ > 1). With per-VNF scale factors
//! `σ₁ … σ_n`, a flow of rate λ enters the chain at λ, leaves `f_j` at
//! `λ·σ₁…σ_j`, and Eq. 1 generalizes to *per-segment* rates:
//!
//! `C(p) = λ·c(s, p₁) + Σ_j λ·Π_{k≤j}σ_k · c(p_j, p_{j+1})
//!        + λ·Π_all σ · c(p_n, t)`
//!
//! Filtering front-loads the traffic, so the optimal chain hugs the
//! *sources* harder the stronger the filtering — the effect the
//! [`optimal_placement_scaled`] solver and its tests demonstrate.
//!
//! Factors are exact permille integers to keep the whole cost algebra in
//! integer arithmetic: all segment rates are computed as
//! `λ·σ₁…σ_j / 1000^j` with u128 intermediates.

use crate::aggregates::AttachAggregates;
use crate::PlacementError;
use ppdc_model::{ModelError, Placement, Sfc, Workload};
use ppdc_stroll::StrollError;
use ppdc_topology::{Cost, DistanceMatrix, Graph, MetricClosure, NodeId, INFINITY};

/// Per-VNF traffic scale factors in permille (1000 = pass-through).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficScaling {
    permille: Vec<u32>,
}

impl TrafficScaling {
    /// Builds scaling for an SFC; one permille factor per VNF.
    ///
    /// # Errors
    ///
    /// The factor list must match the SFC length.
    pub fn new(sfc: &Sfc, permille: Vec<u32>) -> Result<Self, ModelError> {
        if permille.len() != sfc.len() {
            return Err(ModelError::WrongLength {
                expected: sfc.len(),
                got: permille.len(),
            });
        }
        Ok(TrafficScaling { permille })
    }

    /// Pass-through scaling (σ = 1 everywhere) — degenerates to Eq. 1.
    pub fn identity(sfc: &Sfc) -> Self {
        TrafficScaling {
            permille: vec![1000; sfc.len()],
        }
    }

    /// Uniform scaling: every VNF forwards `permille`/1000 of its input.
    pub fn uniform(sfc: &Sfc, permille: u32) -> Self {
        TrafficScaling {
            permille: vec![permille; sfc.len()],
        }
    }

    /// The factor of VNF `j`, in permille.
    pub fn factor(&self, j: usize) -> u32 {
        self.permille[j]
    }

    /// Number of VNFs covered.
    pub fn len(&self) -> usize {
        self.permille.len()
    }

    /// True when no VNFs are covered.
    pub fn is_empty(&self) -> bool {
        self.permille.is_empty()
    }
}

/// The rate multipliers per chain position for a unit input rate, scaled
/// by 2¹⁶ for integer precision: entry `j` is the relative rate *after*
/// `f_{j+1}` (entry `n` past the egress). Entry `−1` (the ingress leg) is
/// always `1 << 16`.
pub fn scaled_segment_rates(scaling: &TrafficScaling) -> Vec<u64> {
    const ONE: u128 = 1 << 16;
    let mut out = Vec::with_capacity(scaling.len() + 1);
    let mut acc: u128 = ONE;
    for j in 0..scaling.len() {
        acc = acc * u128::from(scaling.factor(j)) / 1000;
        // Pathological expansion chains could exceed u64; saturate rather
        // than truncate.
        out.push(u64::try_from(acc).unwrap_or(u64::MAX));
    }
    out
}

/// Exact scaled communication cost of a placement (the generalized Eq. 1).
pub fn comm_cost_scaled(
    dm: &DistanceMatrix,
    w: &Workload,
    p: &Placement,
    scaling: &TrafficScaling,
) -> Cost {
    assert_eq!(p.len(), scaling.len(), "one factor per VNF");
    let seg = scaled_segment_rates(scaling);
    let mut total: u128 = 0;
    for (_, src, dst, rate) in w.iter() {
        let rate = u128::from(rate);
        let mut cost: u128 = (rate * u128::from(dm.cost(src, p.ingress()))) << 16;
        for (j, &s) in seg.iter().enumerate().take(p.len() - 1) {
            cost += rate * u128::from(s) * u128::from(dm.cost(p.switch(j), p.switch(j + 1)));
        }
        cost += rate * u128::from(seg[p.len() - 1]) * u128::from(dm.cost(p.egress(), dst));
        total += cost;
    }
    Cost::try_from(total >> 16).unwrap_or(INFINITY)
}

/// Exact branch-and-bound placement under traffic scaling.
///
/// The chain term is no longer a single multiplier, so Algorithm 3's
/// shared-stroll trick does not apply; instead the Algorithm-4 search is
/// generalized with per-depth segment rates (the bound stays admissible:
/// remaining segments are charged the *smallest* remaining segment rate
/// times the cheapest closure edge).
///
/// # Errors
///
/// Standard placement errors plus budget exhaustion.
pub fn optimal_placement_scaled(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
    scaling: &TrafficScaling,
    budget: u64,
) -> Result<(Placement, Cost), PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let switches: Vec<NodeId> = g.switches().collect();
    let n = sfc.len();
    if switches.len() < n {
        return Err(PlacementError::Model(ModelError::TooFewSwitches {
            switches: switches.len(),
            vnfs: n,
        }));
    }
    let closure = MetricClosure::over(dm, &switches);
    let agg = AttachAggregates::build(g, dm, w);
    let total_rate = agg.total_rate();
    let seg = scaled_segment_rates(scaling);
    // Fixed-point («16) per-segment aggregate rates.
    let seg_rate: Vec<u128> = seg
        .iter()
        .map(|&s| u128::from(total_rate) * u128::from(s))
        .collect();
    let m = closure.len();
    let mut min_edge = INFINITY;
    for i in 0..m {
        for j in 0..m {
            if i != j {
                min_edge = min_edge.min(closure.cost_ix(i, j));
            }
        }
    }
    if m < 2 {
        min_edge = 0;
    }
    let mut sorted_from: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (u, slot) in sorted_from.iter_mut().enumerate() {
        let mut list: Vec<usize> = (0..m).filter(|&x| x != u).collect();
        list.sort_by_key(|&x| (closure.cost_ix(u, x), x));
        *slot = list;
    }
    // Suffix bound: cheapest possible remaining chain = min segment rate
    // from position j onward times the min edge, per remaining hop.
    let mut min_seg_suffix: Vec<u128> = vec![u128::MAX; n + 1];
    min_seg_suffix[n] = 0;
    for j in (0..n).rev() {
        min_seg_suffix[j] = min_seg_suffix[j + 1].min(seg_rate[j]);
    }

    struct S<'a> {
        agg: &'a AttachAggregates,
        closure: &'a MetricClosure,
        seg_rate: &'a [u128],
        egress_seg: u128,
        min_edge: Cost,
        min_seg_suffix: &'a [u128],
        sorted_from: &'a [Vec<usize>],
        n: usize,
        used: Vec<bool>,
        seq: Vec<usize>,
        best: u128,
        best_seq: Vec<usize>,
        expansions: u64,
        budget: u64,
    }
    impl S<'_> {
        fn a_out_scaled(&self, x: usize) -> u128 {
            // A_out is rate-weighted by the *input* rate; rescale by the
            // egress segment factor (uniform across flows).
            u128::from(self.agg.a_out(self.closure.node(x))) * self.egress_seg
                / u128::from(self.agg.total_rate()).max(1)
        }
        fn dfs(&mut self, depth: usize, cost: u128) -> Result<(), StrollError> {
            self.expansions += 1;
            if self.expansions > self.budget {
                return Err(StrollError::BudgetExhausted {
                    budget: self.budget,
                });
            }
            if depth == self.n {
                // Callers reject n == 0, so the sequence is non-empty at a
                // leaf; an empty one would mean a broken search invariant —
                // skip the leaf rather than panic.
                let Some(&last) = self.seq.last() else {
                    return Ok(());
                };
                let total = cost + self.a_out_scaled(last);
                if total < self.best {
                    self.best = total;
                    self.best_seq = self.seq.clone();
                }
                return Ok(());
            }
            // Admissible bound on remaining chain hops.
            #[expect(
                clippy::as_conversions,
                reason = "usize → u128 is lossless on every supported target"
            )]
            let lb = cost
                + self.min_seg_suffix[depth]
                    * u128::from(self.min_edge)
                    * (self.n - depth).saturating_sub(1) as u128;
            if lb >= self.best {
                return Ok(());
            }
            // `seq` is empty exactly at depth 0 (the ingress choice).
            let (order, prev): (Vec<usize>, Option<usize>) = match self.seq.last() {
                None => ((0..self.closure.len()).collect(), None),
                Some(&last) => (self.sorted_from[last].clone(), Some(last)),
            };
            for x in order {
                if self.used[x] {
                    continue;
                }
                let step = match prev {
                    None => u128::from(self.agg.a_in(self.closure.node(x))) << 16,
                    Some(last) => {
                        self.seg_rate[depth - 1] * u128::from(self.closure.cost_ix(last, x))
                    }
                };
                self.used[x] = true;
                self.seq.push(x);
                self.dfs(depth + 1, cost + step)?;
                self.seq.pop();
                self.used[x] = false;
            }
            Ok(())
        }
    }
    let mut s = S {
        agg: &agg,
        closure: &closure,
        seg_rate: &seg_rate,
        egress_seg: u128::from(seg[n - 1]) * u128::from(total_rate),
        min_edge,
        min_seg_suffix: &min_seg_suffix,
        sorted_from: &sorted_from,
        n,
        used: vec![false; m],
        seq: Vec::with_capacity(n),
        best: u128::MAX,
        best_seq: Vec::new(),
        expansions: 0,
        budget,
    };
    s.dfs(0, 0)?;
    let p = Placement::new_unchecked(s.best_seq.iter().map(|&i| closure.node(i)).collect());
    let cost = comm_cost_scaled(dm, w, &p, scaling);
    Ok((p, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::DEFAULT_BUDGET;
    use crate::{optimal_placement, AttachAggregates};
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};

    #[test]
    fn identity_scaling_matches_eq1() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 37);
        w.add_pair(h2, h1, 11);
        let sfc = Sfc::of_len(3).unwrap();
        let id = TrafficScaling::identity(&sfc);
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[1], s[2], s[3]]).unwrap();
        assert_eq!(comm_cost_scaled(&dm, &w, &p, &id), comm_cost(&dm, &w, &p));
        // And the scaled optimizer agrees with the plain one.
        let (_, c1) = optimal_placement_scaled(&g, &dm, &w, &sfc, &id, u64::MAX).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (_, c2, ex) = optimal_placement(&dm, &w, &sfc, &agg, DEFAULT_BUDGET).unwrap();
        assert!(ex.is_exact());
        assert_eq!(c1, c2);
    }

    #[test]
    fn half_rate_halves_downstream_segments() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 100);
        let sfc = Sfc::of_len(2).unwrap();
        let half = TrafficScaling::uniform(&sfc, 500);
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        // Legs: 1 hop at 100, chain 1 hop at 50, egress 4 hops at 25.
        assert_eq!(comm_cost_scaled(&dm, &w, &p, &half), 100 + 50 + 100);
    }

    #[test]
    fn strong_filtering_pulls_chain_toward_sources() {
        // A single heavy one-way flow across the fabric. With pass-through
        // VNFs the chain sits anywhere on the route; with 90 % filtering
        // the optimum hugs the source rack so the bulky unfiltered leg is
        // as short as possible.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let (src, dst) = (hosts[0], hosts[15]);
        let mut w = Workload::new();
        w.add_pair(src, dst, 1000);
        let sfc = Sfc::of_len(3).unwrap();
        let filter = TrafficScaling::uniform(&sfc, 100); // keep 10 % per VNF
        let (p, cost) = optimal_placement_scaled(&g, &dm, &w, &sfc, &filter, u64::MAX).unwrap();
        // Ingress adjacent to the source host.
        assert_eq!(dm.cost(src, p.ingress()), 1, "ingress at the source ToR");
        // And the scaled cost is far below the pass-through optimum.
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (_, plain, ex) = optimal_placement(&dm, &w, &sfc, &agg, DEFAULT_BUDGET).unwrap();
        assert!(ex.is_exact());
        assert!(cost < plain / 2, "filtering saves: {cost} vs {plain}");
    }

    #[test]
    fn expansion_scaling_pushes_chain_toward_destinations() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let (src, dst) = (hosts[0], hosts[15]);
        let mut w = Workload::new();
        w.add_pair(src, dst, 1000);
        let sfc = Sfc::of_len(3).unwrap();
        let expand = TrafficScaling::uniform(&sfc, 3000); // 3× per VNF
        let (p, _) = optimal_placement_scaled(&g, &dm, &w, &sfc, &expand, u64::MAX).unwrap();
        assert_eq!(dm.cost(p.egress(), dst), 1, "egress at the destination ToR");
    }

    #[test]
    fn segment_rates_are_exact_products() {
        let sfc = Sfc::of_len(3).unwrap();
        let sc = TrafficScaling::new(&sfc, vec![500, 2000, 1000]).unwrap();
        let seg = scaled_segment_rates(&sc);
        let one = 1u64 << 16;
        assert_eq!(seg, vec![one / 2, one, one]);
        assert!(TrafficScaling::new(&sfc, vec![1000]).is_err());
    }
}

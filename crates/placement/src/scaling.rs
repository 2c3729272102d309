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
//!
//! [`optimal_placement_scaled`] is Algorithm 4's objective on the shared
//! branch-and-bound ([`ppdc_stroll::search`]) with per-segment rates in
//! «16 fixed point. Its bound charges each remaining hop its own segment
//! rate times `δ_min`, plus the cheapest unused egress at the last
//! segment's rate. A leg that carries traffic across a partition costs the
//! sentinel whatever the filtering, so a chain that cannot fit in the
//! hosts' component is [`StrollError::Unreachable`], as for
//! Algorithms 3 and 4.

use crate::aggregates::AttachAggregates;
use crate::dp::{check_inputs, reachable};
use crate::optimal::ChainTerms;
use crate::PlacementError;
use ppdc_model::{ModelError, Placement, Sfc, Workload};
use ppdc_stroll::{branch_and_bound, Objective, StrollError};
use ppdc_topology::{Cost, DistanceMatrix, Graph, MetricClosure, INFINITY};

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

/// One leg in «16 fixed point: `rate · c`, where a leg that crosses a
/// partition (`c` at the [`INFINITY`] sentinel) costs the sentinel
/// `INFINITY << 16` however strongly its traffic was filtered — unless no
/// traffic rides it at all. Like `sat_mul`, but the sentinel stays a
/// sentinel under fractional rates.
fn leg(rate: u128, c: Cost) -> u128 {
    let sentinel = u128::from(INFINITY) << 16;
    if rate == 0 {
        0
    } else if c >= INFINITY {
        sentinel
    } else {
        rate.checked_mul(u128::from(c))
            .map_or(sentinel, |v| v.min(sentinel))
    }
}

/// Exact scaled communication cost of a placement (the generalized Eq. 1).
/// Saturates at [`INFINITY`], like Eq. 1's `comm_cost`, when a leg that
/// carries traffic crosses a partition.
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
        total = total.saturating_add(leg(rate << 16, dm.cost(src, p.ingress())));
        for (j, &s) in seg.iter().enumerate().take(p.len() - 1) {
            let hop = dm.cost(p.switch(j), p.switch(j + 1));
            total = total.saturating_add(leg(rate * u128::from(s), hop));
        }
        let out = dm.cost(p.egress(), dst);
        total = total.saturating_add(leg(rate * u128::from(seg[p.len() - 1]), out));
    }
    Cost::try_from(total >> 16).map_or(INFINITY, |c| c.min(INFINITY))
}

/// The scaled placement as an [`Objective`], in «16 fixed point: the
/// ingress step costs `A_in`, the hop after VNF `j` costs its segment's
/// aggregate rate times the closure distance, and the egress `A_out`
/// scaled by the last segment factor.
struct Scaled<'a> {
    chain: ChainTerms<'a>,
    /// Aggregate rate of the hop after VNF `j`.
    seg_rate: Vec<u128>,
    /// Factor on `A_out` for the egress leg.
    egress: u128,
    /// `hops_lb[j]`: the cheapest conceivable hops `j..n−1`, each charged
    /// its own segment rate times `δ_min`.
    hops_lb: Vec<u128>,
    /// Every closure index in index order: the ingress order.
    all: Vec<usize>,
}

impl Objective for Scaled<'_> {
    fn size(&self) -> usize {
        self.all.len()
    }

    fn seq_len(&self) -> usize {
        self.hops_lb.len()
    }

    fn order(&self, last: Option<usize>) -> &[usize] {
        match last {
            None => &self.all,
            Some(u) => self.chain.nearest(u),
        }
    }

    fn step(&self, last: Option<usize>, depth: usize, x: usize) -> u128 {
        match last {
            None => leg(1 << 16, self.chain.attach(x).0),
            Some(u) => leg(self.seg_rate[depth - 1], self.chain.closure().cost_ix(u, x)),
        }
    }

    fn close(&self, last: Option<usize>) -> u128 {
        last.map_or(0, |x| leg(self.egress, self.chain.attach(x).1))
    }

    fn bound(&self, used: &[bool], _last: Option<usize>, depth: usize) -> u128 {
        let egress = leg(self.egress, self.chain.min_egress(used, None));
        self.hops_lb[depth.max(1) - 1].saturating_add(egress)
    }
}

/// Exact branch-and-bound placement under traffic scaling.
///
/// The chain term is no longer a single multiplier, so Algorithm 3's
/// shared-stroll trick does not apply; instead Algorithm 4's search runs
/// with per-segment rates (see the module docs for its bound).
///
/// # Errors
///
/// Standard placement errors, budget exhaustion, and
/// [`StrollError::Unreachable`] when every placement crosses a partition
/// (its cost saturates at [`INFINITY`]).
pub fn optimal_placement_scaled(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
    scaling: &TrafficScaling,
    budget: u64,
) -> Result<(Placement, Cost), PlacementError> {
    let agg = AttachAggregates::build(g, dm, w);
    check_inputs(w, sfc, &agg)?;
    let n = sfc.len();
    let closure = MetricClosure::over(dm, agg.switches());
    let chain = ChainTerms::new(&closure, &agg);
    let seg = scaled_segment_rates(scaling);
    let total_rate = u128::from(agg.total_rate());
    let seg_rate: Vec<u128> = seg.iter().map(|&s| total_rate * u128::from(s)).collect();
    let delta = closure.min_pair_cost();
    let mut hops_lb = vec![0u128; n];
    for j in (0..n - 1).rev() {
        hops_lb[j] = hops_lb[j + 1].saturating_add(leg(seg_rate[j], delta));
    }
    let objective = Scaled {
        chain,
        seg_rate,
        egress: u128::from(seg[n - 1]),
        hops_lb,
        all: (0..closure.len()).collect(),
    };
    let (best, exactness) = branch_and_bound(&objective, None, budget, true);
    if !exactness.is_exact() {
        return Err(StrollError::BudgetExhausted { budget }.into());
    }
    let p = Placement::new_unchecked(best.seq.iter().map(|&i| closure.node(i)).collect());
    let cost = comm_cost_scaled(dm, w, &p, scaling);
    reachable(Some((p, cost)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimal::DEFAULT_BUDGET;
    use crate::{optimal_placement, AttachAggregates};
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::NodeId;

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
    fn chain_longer_than_the_hosts_component_is_unreachable() {
        // Chain s1–s4 with h1 on s1 and h2 on s4, plus a host-less
        // 2-switch island: five VNFs cannot fit in the hosts' component,
        // so every placement crosses the partition.
        let (mut g, h1, h2) = linear(4).unwrap();
        let a = g.add_switch("island0");
        let b = g.add_switch("island1");
        g.link(a, b);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 100);
        let sfc = Sfc::of_len(5).unwrap();
        let unreachable = Err(PlacementError::Stroll(StrollError::Unreachable));
        for sc in [
            TrafficScaling::identity(&sfc),
            TrafficScaling::uniform(&sfc, 500),
        ] {
            let scaled = optimal_placement_scaled(&g, &dm, &w, &sfc, &sc, u64::MAX);
            assert_eq!(scaled.map(|_| ()), unreachable, "{sc:?}");
        }
        let agg = AttachAggregates::build(&g, &dm, &w);
        let dp = crate::dp_placement(&dm, &w, &sfc, &agg);
        assert_eq!(dp.map(|_| ()), unreachable);
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

//! The two state-of-the-art placement baselines the paper compares against.
//!
//! * **Steering** (Zhang et al., ICNP'13 \[55\]): services are placed one by
//!   one in dependency order; each is dropped at the switch minimizing the
//!   traffic it immediately sees. With a single SFC the dependency degree
//!   of every consecutive pair is the same total traffic, so the placement
//!   order is the chain order and each VNF is placed *myopically* next to
//!   its already-placed predecessor.
//! * **Greedy** (Liu et al., TSC'17 \[34\]): middleboxes are sorted by
//!   importance (identical here — one policy) and placed by minimum *cost
//!   score*: the increment in total end-to-end delay plus the weighted
//!   average delay from the candidate switch to the (expected locations of
//!   the) still-unplaced middleboxes. We render the lookahead term as
//!   `(unplaced count) · Σλ · mean distance from the candidate to all
//!   switches`, the natural single-SFC reading of their score.
//!
//! Both are O(n·|V_s|·l) and, as the paper's Figs. 9–10 show, pay 2–3× the
//! DP's traffic cost because neither optimizes the chain as a whole.

use crate::aggregates::AttachAggregates;
use crate::PlacementError;
use ppdc_model::{ModelError, Placement, Sfc, Workload};
use ppdc_topology::{sat_add, sat_mul, Cost, DistanceMatrix, Graph, NodeId};

fn check(g: &Graph, w: &Workload, sfc: &Sfc) -> Result<Vec<NodeId>, PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let switches: Vec<NodeId> = g.switches().collect();
    if switches.len() < sfc.len() {
        return Err(PlacementError::Model(ModelError::TooFewSwitches {
            switches: switches.len(),
            vnfs: sfc.len(),
        }));
    }
    Ok(switches)
}

/// **Steering** \[55\]: chain-order, myopic per-VNF placement.
pub fn steering_placement(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
) -> Result<(Placement, Cost), PlacementError> {
    let switches = check(g, w, sfc)?;
    let agg = AttachAggregates::build(g, dm, w);
    let n = sfc.len();
    let rate = agg.total_rate();
    let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
    let mut used = vec![false; g.num_nodes()];
    for j in 0..n {
        let mut best: Option<(Cost, NodeId)> = None;
        for &x in &switches {
            if used[x.index()] {
                continue;
            }
            // Immediate traffic seen by f_{j+1} at x: from the sources (if
            // ingress) or the predecessor VNF, plus to the sinks if egress.
            let mut score = if j == 0 {
                agg.a_in(x)
            } else {
                sat_mul(rate, dm.cost(chosen[j - 1], x))
            };
            if j + 1 == n {
                score = sat_add(score, agg.a_out(x));
            }
            if best.is_none_or(|(c, b)| score < c || (score == c && x < b)) {
                best = Some((score, x));
            }
        }
        // `check` guarantees switches.len() >= n, so a candidate always
        // exists; surface the typed error instead of panicking if that
        // invariant ever breaks.
        let Some((_, x)) = best else {
            return Err(PlacementError::Model(ModelError::TooFewSwitches {
                switches: switches.len(),
                vnfs: n,
            }));
        };
        used[x.index()] = true;
        chosen.push(x);
    }
    let p = Placement::new_unchecked(chosen);
    let cost = agg.comm_cost(dm, &p);
    Ok((p, cost))
}

/// **Greedy** (Liu et al. \[34\]): cost-score placement with an
/// unplaced-middlebox lookahead term.
pub fn greedy_placement(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
) -> Result<(Placement, Cost), PlacementError> {
    let switches = check(g, w, sfc)?;
    let agg = AttachAggregates::build(g, dm, w);
    let n = sfc.len();
    let rate = agg.total_rate();
    // Summed switch-to-switch distance from each switch; divided by the
    // switch count only after multiplying into the score, so the expected
    // distance to an unplaced middlebox keeps its fractional part.
    let mut sum_dist = vec![0u64; g.num_nodes()];
    for &x in &switches {
        let total: Cost = switches.iter().map(|&y| dm.cost(x, y)).fold(0, sat_add);
        sum_dist[x.index()] = total;
    }
    let mut chosen: Vec<NodeId> = Vec::with_capacity(n);
    let mut used = vec![false; g.num_nodes()];
    for j in 0..n {
        #[expect(
            clippy::as_conversions,
            reason = "usize → u64 is lossless on every supported target"
        )]
        let unplaced = (n - 1 - j) as u64;
        let mut best: Option<(Cost, NodeId)> = None;
        for &x in &switches {
            if used[x.index()] {
                continue;
            }
            let increment = if j == 0 {
                agg.a_in(x)
            } else {
                sat_mul(rate, dm.cost(chosen[j - 1], x))
            };
            let egress_term = if j + 1 == n { agg.a_out(x) } else { 0 };
            #[expect(
                clippy::as_conversions,
                reason = "usize → u64 is lossless on every supported target"
            )]
            let lookahead =
                sat_mul(sat_mul(unplaced, rate), sum_dist[x.index()]) / switches.len() as u64;
            let score = sat_add(sat_add(increment, egress_term), lookahead);
            if best.is_none_or(|(c, b)| score < c || (score == c && x < b)) {
                best = Some((score, x));
            }
        }
        // Same invariant as the steering loop above.
        let Some((_, x)) = best else {
            return Err(PlacementError::Model(ModelError::TooFewSwitches {
                switches: switches.len(),
                vnfs: n,
            }));
        };
        used[x.index()] = true;
        chosen.push(x);
    }
    let p = Placement::new_unchecked(chosen);
    let cost = agg.comm_cost(dm, &p);
    Ok((p, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::dp_placement;
    use crate::optimal::{optimal_placement, DEFAULT_BUDGET};
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};

    fn fat_tree_workload() -> (Graph, DistanceMatrix, Workload) {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 90);
        w.add_pair(hosts[2], hosts[3], 50);
        w.add_pair(hosts[5], hosts[14], 5);
        w.add_pair(hosts[8], hosts[9], 40);
        (g, dm, w)
    }

    #[test]
    fn baselines_produce_valid_placements() {
        let (g, dm, w) = fat_tree_workload();
        for n in 1..=5 {
            let sfc = Sfc::of_len(n).unwrap();
            for f in [steering_placement, greedy_placement] {
                let (p, cost) = f(&g, &dm, &w, &sfc).unwrap();
                assert_eq!(p.len(), n);
                assert_eq!(cost, comm_cost(&dm, &w, &p), "cost is exact Eq.1");
                // Validated construction: all distinct switches.
                Placement::new(&g, &sfc, p.switches().to_vec()).unwrap();
            }
        }
    }

    #[test]
    fn baselines_never_beat_optimal() {
        let (g, dm, w) = fat_tree_workload();
        for n in 1..=4 {
            let sfc = Sfc::of_len(n).unwrap();
            let agg = AttachAggregates::build(&g, &dm, &w);
            let (_, copt, ex) = optimal_placement(&dm, &w, &sfc, &agg, DEFAULT_BUDGET).unwrap();
            assert!(ex.is_exact());
            let (_, cst) = steering_placement(&g, &dm, &w, &sfc).unwrap();
            let (_, cgr) = greedy_placement(&g, &dm, &w, &sfc).unwrap();
            assert!(copt <= cst, "n={n}");
            assert!(copt <= cgr, "n={n}");
        }
    }

    #[test]
    fn dp_beats_baselines_on_skewed_traffic() {
        // The myopic baselines chase the heavy sources hop by hop; DP
        // plans the whole chain. On rate-skewed fat-tree traffic DP must
        // be at least as good, and typically strictly better.
        let (g, dm, w) = fat_tree_workload();
        let sfc = Sfc::of_len(4).unwrap();
        let (_, cdp) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        let (_, cst) = steering_placement(&g, &dm, &w, &sfc).unwrap();
        let (_, cgr) = greedy_placement(&g, &dm, &w, &sfc).unwrap();
        assert!(cdp <= cst);
        assert!(cdp <= cgr);
    }

    #[test]
    fn single_vnf_baselines_match_median() {
        // With n = 1 all strategies reduce to the same weighted-median
        // choice, so costs coincide.
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 3);
        let sfc = Sfc::of_len(1).unwrap();
        let (_, cdp) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        let (_, cst) = steering_placement(&g, &dm, &w, &sfc).unwrap();
        assert_eq!(cdp, cst);
    }

    #[test]
    fn error_paths() {
        let (g, h1, h2) = linear(2).unwrap();
        let dm = DistanceMatrix::build(&g);
        let sfc = Sfc::of_len(2).unwrap();
        assert!(matches!(
            steering_placement(&g, &dm, &Workload::new(), &sfc),
            Err(PlacementError::NoFlows)
        ));
        let mut w = Workload::new();
        w.add_pair(h1, h2, 1);
        let long = Sfc::of_len(3).unwrap();
        assert!(greedy_placement(&g, &dm, &w, &long).is_err());
    }
}

//! **VNF replication** — the paper's future-work item 3, implemented.
//!
//! Instead of migrating a VNF, the operator can *replicate* it: several
//! instances of `f_j` run on different switches and every flow routes
//! through whichever replica chain is cheapest **for that flow** (policy
//! order is still enforced — the flow visits one instance of each VNF, in
//! chain order). Replication trades extra instances for traffic, where
//! migration trades movement bytes for traffic; the experiment harness
//! compares the two under dynamic load.
//!
//! * [`ReplicatedPlacement`] — one non-empty replica set per VNF.
//! * [`flow_cost_replicated`] — exact per-flow optimal routing through the
//!   replica sets (a tiny chain DP, `O(n·r²)` per flow).
//! * [`greedy_replication`] — submodular-style greedy: repeatedly add the
//!   single replica with the largest total-traffic reduction.

use crate::PlacementError;
use ppdc_model::{ModelError, Placement, Workload};
use ppdc_topology::{Cost, DistanceMatrix, Graph, NodeId, NodeKind, INFINITY};

/// A placement where every VNF may have several replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedPlacement {
    replicas: Vec<Vec<NodeId>>,
}

impl ReplicatedPlacement {
    /// Starts from a plain placement: one replica per VNF.
    pub fn from_placement(p: &Placement) -> Self {
        ReplicatedPlacement {
            replicas: p.switches().iter().map(|&s| vec![s]).collect(),
        }
    }

    /// Number of VNFs in the chain.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// True when the chain is empty (never for constructed values).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica switches of VNF `j`.
    pub fn replicas(&self, j: usize) -> &[NodeId] {
        &self.replicas[j]
    }

    /// Total number of VNF instances across the chain.
    pub fn num_instances(&self) -> usize {
        self.replicas.iter().map(Vec::len).sum()
    }

    /// Adds a replica of VNF `j` on `switch`.
    ///
    /// # Errors
    ///
    /// The switch must be a switch of `g` and must not already host *any*
    /// instance of the chain — the model's one-VNF-per-switch assumption
    /// (paper footnote 3) applies to replicas too. (Without it, greedy
    /// replication would co-locate consecutive VNFs for zero-hop chain
    /// segments, which the per-switch NFV server cannot provide.)
    pub fn add_replica(&mut self, g: &Graph, j: usize, switch: NodeId) -> Result<(), ModelError> {
        if switch.index() >= g.num_nodes() || g.kind(switch) != NodeKind::Switch {
            return Err(ModelError::NotASwitch(switch));
        }
        if self.replicas.iter().any(|set| set.contains(&switch)) {
            return Err(ModelError::DuplicateSwitch(switch));
        }
        self.replicas[j].push(switch);
        Ok(())
    }

    /// True when `switch` hosts an instance of any VNF.
    pub fn occupies(&self, switch: NodeId) -> bool {
        self.replicas.iter().any(|set| set.contains(&switch))
    }
}

/// The cheapest policy-preserving route of one flow through the replica
/// sets: `λ · min over replica choices of (attach + chain)`.
pub fn flow_cost_replicated(
    dm: &DistanceMatrix,
    src: NodeId,
    dst: NodeId,
    rate: u64,
    rp: &ReplicatedPlacement,
) -> Cost {
    // Chain DP over replica choices.
    let mut cur: Vec<(NodeId, Cost)> = rp
        .replicas(0)
        .iter()
        .map(|&a| (a, dm.cost(src, a)))
        .collect();
    for j in 1..rp.len() {
        let next: Vec<(NodeId, Cost)> = rp
            .replicas(j)
            .iter()
            .map(|&a| {
                let best = cur
                    .iter()
                    .map(|&(b, c)| c + dm.cost(b, a))
                    .min()
                    .unwrap_or(INFINITY);
                (a, best)
            })
            .collect();
        cur = next;
    }
    let best = cur
        .iter()
        .map(|&(a, c)| c + dm.cost(a, dst))
        .min()
        .unwrap_or(INFINITY);
    rate * best
}

/// Total communication cost with per-flow optimal replica routing.
pub fn comm_cost_replicated(dm: &DistanceMatrix, w: &Workload, rp: &ReplicatedPlacement) -> Cost {
    w.iter()
        .map(|(_, src, dst, rate)| flow_cost_replicated(dm, src, dst, rate, rp))
        .sum()
}

/// Greedy replication: starting from `base`, repeatedly add the single
/// `(VNF, switch)` replica with the largest reduction in total traffic,
/// until `extra_replicas` have been added or no replica helps.
///
/// Returns the replicated placement and the cost after each addition
/// (index 0 = the unreplicated cost), so callers can plot marginal gains.
///
/// # Errors
///
/// Fails on an empty workload.
pub fn greedy_replication(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &Workload,
    base: &Placement,
    extra_replicas: usize,
) -> Result<(ReplicatedPlacement, Vec<Cost>), PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let mut rp = ReplicatedPlacement::from_placement(base);
    let mut current = comm_cost_replicated(dm, w, &rp);
    let mut trace = vec![current];
    let switches: Vec<NodeId> = g.switches().collect();
    for _ in 0..extra_replicas {
        let mut best: Option<(Cost, usize, NodeId, ReplicatedPlacement)> = None;
        for j in 0..rp.len() {
            for &x in &switches {
                if rp.occupies(x) {
                    continue;
                }
                let mut cand = rp.clone();
                if cand.add_replica(g, j, x).is_err() {
                    // `occupies` pre-filters; any residual structural
                    // rejection just means x is not a viable replica site.
                    continue;
                }
                let cost = comm_cost_replicated(dm, w, &cand);
                if cost < current
                    && best
                        .as_ref()
                        .is_none_or(|&(c, bj, bx, _)| cost < c || (cost == c && (j, x) < (bj, bx)))
                {
                    best = Some((cost, j, x, cand));
                }
            }
        }
        match best {
            Some((cost, _, _, cand)) => {
                rp = cand;
                current = cost;
                trace.push(cost);
            }
            None => break, // no replica reduces traffic further
        }
    }
    Ok((rp, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::{comm_cost, Sfc};
    use ppdc_topology::builders::{fat_tree, linear};

    fn two_cluster_workload() -> (Graph, DistanceMatrix, Workload, Placement) {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 100);
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        (g, dm, w, p)
    }

    #[test]
    fn single_replica_equals_plain_cost() {
        let (_, dm, w, p) = two_cluster_workload();
        let rp = ReplicatedPlacement::from_placement(&p);
        assert_eq!(comm_cost_replicated(&dm, &w, &rp), comm_cost(&dm, &w, &p));
        assert_eq!(rp.num_instances(), 2);
    }

    #[test]
    fn replication_helps_symmetric_demand() {
        // Both ends of the line have heavy local pairs; replicating the
        // chain toward the far end removes the long detour for (v2, v2').
        // Greedy is myopic: its first replica lands mid-line (f1@s3,
        // 1400 → 1200), the second gives f2@s4 (→ 1000), and only the
        // third (f1@s5) reaches the fully local routing at 100·4 per pair.
        let (g, dm, w, p) = two_cluster_workload();
        let (rp, trace) = greedy_replication(&g, &dm, &w, &p, 3).unwrap();
        assert_eq!(trace, vec![1400, 1200, 1000, 800]);
        assert_eq!(rp.num_instances(), 5);
    }

    #[test]
    fn flow_routes_through_nearest_replica() {
        let (g, dm, w, p) = two_cluster_workload();
        let mut rp = ReplicatedPlacement::from_placement(&p);
        let s: Vec<NodeId> = g.switches().collect();
        rp.add_replica(&g, 0, s[4]).unwrap();
        rp.add_replica(&g, 1, s[3]).unwrap();
        // Flow 2 (on h2) now uses the s5/s4 replicas: 1+1+2 = 4 hops.
        let (_, src, dst, rate) = w.iter().nth(1).unwrap();
        assert_eq!(flow_cost_replicated(&dm, src, dst, rate, &rp), 400);
        // Flow 1 keeps its original short route.
        let (_, src, dst, rate) = w.iter().next().unwrap();
        assert_eq!(flow_cost_replicated(&dm, src, dst, rate, &rp), 400);
    }

    #[test]
    fn add_replica_validates() {
        let (g, _, _, p) = two_cluster_workload();
        let mut rp = ReplicatedPlacement::from_placement(&p);
        let host = g.hosts().next().unwrap();
        assert!(matches!(
            rp.add_replica(&g, 0, host),
            Err(ModelError::NotASwitch(_))
        ));
        let existing = p.switch(0);
        assert!(matches!(
            rp.add_replica(&g, 0, existing),
            Err(ModelError::DuplicateSwitch(_))
        ));
    }

    #[test]
    fn greedy_stops_when_no_replica_helps() {
        // A single tiny flow: its route is already optimal, replicas only
        // ever tie (greedy requires strict improvement).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[0], 10);
        let sfc = Sfc::of_len(2).unwrap();
        let agg = crate::AttachAggregates::build(&g, &dm, &w);
        let (p, _) = crate::dp_placement(&dm, &w, &sfc, &agg).unwrap();
        let (rp, trace) = greedy_replication(&g, &dm, &w, &p, 5).unwrap();
        assert_eq!(rp.num_instances(), 2, "no replica strictly helps");
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn rejects_empty_workload() {
        let (g, dm, _, p) = two_cluster_workload();
        assert!(matches!(
            greedy_replication(&g, &dm, &Workload::new(), &p, 3),
            Err(PlacementError::NoFlows)
        ));
    }
}

//! TOM baselines: **NoMigration** and the two state-of-the-art *VM*
//! migration schemes the paper compares against (Section VI).
//!
//! * **PLAN** (Cui et al., TPDS'17 \[17\]): policy-aware utility-greedy VM
//!   migration. VMs are visited in decreasing traffic order; a VM moves to
//!   the free-slot host maximizing
//!   `utility = (comm-cost reduction) − (VM migration cost)`, and passes
//!   repeat until no positive-utility move remains.
//! * **MCF** (Flores et al., INFOCOM'20 \[24\]): VM reassignment as a
//!   minimum-cost flow — every VM is a unit of flow, candidate hosts have
//!   slot capacities, and arc costs are post-move attachment plus
//!   migration cost. Solved exactly on [`ppdc_mcf`]. For large fabrics the
//!   candidate hosts per VM are pruned to the `k` nearest its relevant
//!   chain end (plus its current host), which is where every useful move
//!   lands.
//!
//! Both migrate *VMs* while the VNF placement `p` stays fixed — the
//! paper's Fig. 11 shows why moving a few VNFs beats moving many VMs: one
//! VNF move helps every flow through it, a VM move helps only that VM's
//! flow.

use crate::MigrationError;
use ppdc_mcf::McfNetwork;
use ppdc_model::{comm_cost, HostCapacities, MigrationCoefficient, Placement, VmId, Workload};
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId, INFINITY};

/// `mass · cost` with the unreachable sentinel handled: a zero mass never
/// observes an [`INFINITY`] distance, a positive mass pins the product at
/// exactly `INFINITY` (mirrors `AttachAggregates`' saturation rules).
#[inline]
fn attach_term(mass: u64, cost: Cost) -> Cost {
    if mass == 0 {
        0
    } else if cost >= INFINITY {
        INFINITY
    } else {
        mass * cost
    }
}

/// Result of a VM-migration baseline run.
#[derive(Debug, Clone)]
pub struct VmMigrationOutcome {
    /// The workload with updated VM → host assignments.
    pub workload: Workload,
    /// Total VM migration cost (`vm_mu`-weighted path costs).
    pub migration_cost: Cost,
    /// `C_a(p)` under the updated assignments.
    pub comm_cost: Cost,
    /// Migration + communication.
    pub total_cost: Cost,
    /// Number of VM moves performed.
    pub num_migrations: usize,
}

/// **NoMigration**: the cost of simply riding out the new rates on the old
/// placement.
pub fn no_migration<D: DistanceOracle + ?Sized>(dm: &D, w: &Workload, p: &Placement) -> Cost {
    comm_cost(dm, w, p)
}

/// Per-VM rate sums: how much traffic a VM sources (toward the ingress)
/// and sinks (from the egress). Makes attachment-cost queries O(1), which
/// is what keeps PLAN/MCF tractable at k = 16 scale.
struct VmRates {
    src: Vec<u64>,
    dst: Vec<u64>,
}

impl VmRates {
    fn build(w: &Workload) -> Self {
        let mut src = vec![0u64; w.num_vms()];
        let mut dst = vec![0u64; w.num_vms()];
        for (f, _, _, rate) in w.iter() {
            let fl = w.flow(f);
            src[fl.src.index()] += rate;
            dst[fl.dst.index()] += rate;
        }
        VmRates { src, dst }
    }

    /// Rate-weighted attachment cost of VM `v` at host `h` (the only part
    /// of `C_a` its position influences). Saturates at [`INFINITY`] when a
    /// positive-rate VM cannot reach the chain end from `h` — degraded
    /// fabrics must never wrap a `rate × INFINITY` product around `u64`.
    fn attach_cost<D: DistanceOracle + ?Sized>(
        &self,
        dm: &D,
        p: &Placement,
        v: VmId,
        h: NodeId,
    ) -> Cost {
        attach_term(self.src[v.index()], dm.cost(h, p.ingress()))
            .saturating_add(attach_term(self.dst[v.index()], dm.cost(p.egress(), h)))
            .min(INFINITY)
    }

    /// Total traffic rate a VM participates in (PLAN's visiting order).
    fn total(&self, v: VmId) -> u64 {
        self.src[v.index()] + self.dst[v.index()]
    }
}

/// **PLAN** \[17\]: utility-greedy VM migration under host slot capacities.
///
/// `slots` is the uniform per-host VM capacity; `vm_mu` the VM migration
/// coefficient (VM and VNF images are both ~100 MB, so the paper's μ is
/// the natural default). `max_passes` bounds the improvement loop.
pub fn plan_vm_migration<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    p: &Placement,
    vm_mu: MigrationCoefficient,
    slots: u32,
    max_passes: usize,
) -> VmMigrationOutcome {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_PLAN);
    let mut w = w.clone();
    let rates = VmRates::build(&w);
    let mut caps = HostCapacities::uniform(g, &w, slots);
    let hosts: Vec<NodeId> = g.hosts().collect();
    let mut order: Vec<VmId> = w.vm_ids().collect();
    order.sort_by_key(|&v| std::cmp::Reverse((rates.total(v), std::cmp::Reverse(v))));
    let mut migration_cost: Cost = 0;
    let mut num_migrations = 0;
    for _ in 0..max_passes.max(1) {
        let mut moved = false;
        for &v in &order {
            if rates.total(v) == 0 {
                // Zero-rate VMs (including flows masked out on a degraded
                // fabric) have zero utility everywhere — never move them.
                continue;
            }
            let cur = w.host_of(v);
            let cur_attach = rates.attach_cost(dm, p, v, cur);
            let mut best: Option<(Cost, NodeId)> = None;
            for &h in &hosts {
                if h == cur || caps.free(h) == 0 {
                    continue;
                }
                let hop = dm.cost(cur, h);
                if hop >= INFINITY {
                    // `h` sits in another component of a partitioned
                    // fabric — no migration path exists.
                    continue;
                }
                let total = rates
                    .attach_cost(dm, p, v, h)
                    .saturating_add(vm_mu * hop)
                    .min(INFINITY);
                if best.is_none_or(|(c, bh)| total < c || (total == c && h < bh)) {
                    best = Some((total, h));
                }
            }
            if let Some((total, h)) = best {
                // Positive utility ⇔ new attach + migration < old attach.
                // `free(h) > 0` was checked when h was scored, so the
                // transfer succeeds; treat a failure as "slot taken" and
                // leave the VM where it is.
                if total < cur_attach && caps.transfer(cur, h).is_ok() {
                    w.set_host(v, h);
                    migration_cost += vm_mu * dm.cost(cur, h);
                    num_migrations += 1;
                    moved = true;
                }
            }
        }
        if !moved {
            break;
        }
    }
    let comm = comm_cost(dm, &w, p);
    VmMigrationOutcome {
        workload: w,
        migration_cost,
        comm_cost: comm,
        total_cost: migration_cost + comm,
        num_migrations,
    }
}

/// **MCF** \[24\]: global VM reassignment as a minimum-cost flow.
///
/// Every VM must land on exactly one host; hosts have `slots` capacity
/// (floored at their current occupancy so that staying put is always
/// feasible). Candidate hosts per VM are its current host plus the
/// `candidates` nearest hosts to the chain end it attaches to.
///
/// # Errors
///
/// [`MigrationError::Infeasible`] when the flow solver cannot place every
/// VM (cannot happen with the occupancy floor; kept as a typed guard).
pub fn mcf_vm_migration<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    p: &Placement,
    vm_mu: MigrationCoefficient,
    slots: u32,
    candidates: usize,
) -> Result<VmMigrationOutcome, MigrationError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_MCF);
    let mut w = w.clone();
    let rates = VmRates::build(&w);
    let hosts: Vec<NodeId> = g.hosts().collect();
    let vms: Vec<VmId> = w.vm_ids().collect();
    // Hosts sorted by distance to the ingress and to the egress.
    let mut by_ingress = hosts.clone();
    by_ingress.sort_by_key(|&h| (dm.cost(h, p.ingress()), h));
    let mut by_egress = hosts.clone();
    by_egress.sort_by_key(|&h| (dm.cost(p.egress(), h), h));

    // Network: 0 = source, 1..=V the VMs, then one node per host, sink last.
    let nv = vms.len();
    let nh = hosts.len();
    let source = 0;
    let vm_base = 1;
    let host_base = 1 + nv;
    let sink = host_base + nh;
    let mut net = McfNetwork::new(sink + 1);
    let host_pos: std::collections::BTreeMap<NodeId, usize> =
        hosts.iter().enumerate().map(|(i, &h)| (h, i)).collect();
    let mut edge_refs: Vec<(VmId, NodeId, ppdc_mcf::EdgeRef)> = Vec::new();
    for (vi, &v) in vms.iter().enumerate() {
        net.add_edge(source, vm_base + vi, 1, 0);
        let cur = w.host_of(v);
        // Candidate set: current host + nearest to the relevant chain end.
        let is_src = rates.src[v.index()] > 0 || rates.dst[v.index()] == 0;
        let ranked = if is_src { &by_ingress } else { &by_egress };
        let mut cand: Vec<NodeId> = ranked.iter().copied().take(candidates).collect();
        if !cand.contains(&cur) {
            cand.push(cur);
        }
        for h in cand {
            let hop = dm.cost(cur, h);
            // No migration path to `h` (partitioned fabric) disqualifies it
            // even at μ = 0; the current host always stays an arc so every
            // VM can stand still (its hop cost there is 0, so that arc is
            // INFINITY only for a stranded positive-rate VM the caller
            // chose not to mask out).
            if h != cur && hop >= INFINITY {
                continue;
            }
            let cost = rates
                .attach_cost(dm, p, v, h)
                .saturating_add(attach_term(vm_mu, hop))
                .min(INFINITY);
            if cost >= INFINITY && h != cur {
                continue;
            }
            let r = net.add_edge(
                vm_base + vi,
                host_base + host_pos[&h],
                1,
                // cost <= INFINITY = u64::MAX / 4 < i64::MAX, so the
                // conversion never actually hits the fallback.
                i64::try_from(cost).unwrap_or(i64::MAX),
            );
            edge_refs.push((v, h, r));
        }
    }
    // A host that already holds more VMs than `slots` keeps its occupancy
    // as capacity: VMs that stay put must always be placeable.
    let mut occupancy = vec![0i64; nh];
    for &v in &vms {
        occupancy[host_pos[&w.host_of(v)]] += 1;
    }
    for (hi, &occ) in occupancy.iter().enumerate() {
        net.add_edge(host_base + hi, sink, i64::from(slots).max(occ), 0);
    }
    let nv_flow = i64::try_from(nv)
        .map_err(|_| MigrationError::Infeasible("too many VMs for the flow network"))?;
    let (flow, _) = net
        .min_cost_flow(source, sink, nv_flow)
        .map_err(|_| MigrationError::Infeasible("flow solver failed"))?;
    if flow != nv_flow {
        return Err(MigrationError::Infeasible("could not place every VM"));
    }
    let mut migration_cost: Cost = 0;
    let mut num_migrations = 0;
    for (v, h, r) in edge_refs {
        if net.flow_on(r) > 0 {
            let cur = w.host_of(v);
            if h != cur {
                migration_cost += vm_mu * dm.cost(cur, h);
                num_migrations += 1;
                w.set_host(v, h);
            }
        }
    }
    let comm = comm_cost(dm, &w, p);
    Ok(VmMigrationOutcome {
        workload: w,
        migration_cost,
        comm_cost: comm,
        total_cost: migration_cost + comm,
        num_migrations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::Sfc;
    use ppdc_placement::dp_placement;
    use ppdc_topology::builders::fat_tree;
    use ppdc_topology::DistanceMatrix;

    fn setup() -> (Graph, DistanceMatrix, Workload, Placement) {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 100);
        w.add_pair(hosts[12], hosts[15], 90);
        w.add_pair(hosts[4], hosts[9], 2);
        let sfc = Sfc::of_len(2).unwrap();
        let (p, _) = dp_placement(
            &dm,
            &w,
            &sfc,
            &ppdc_placement::AttachAggregates::build(&g, &dm, &w),
        )
        .unwrap();
        (g, dm, w, p)
    }

    #[test]
    fn no_migration_is_plain_comm_cost() {
        let (_, dm, w, p) = setup();
        assert_eq!(no_migration(&dm, &w, &p), comm_cost(&dm, &w, &p));
    }

    #[test]
    fn plan_only_moves_when_it_pays() {
        let (g, dm, mut w, p) = setup();
        // Make the far pair dominant so its VMs want to come nearer to p.
        w.set_rates(&[1, 500, 1]).unwrap();
        let before = comm_cost(&dm, &w, &p);
        let out = plan_vm_migration(&g, &dm, &w, &p, 1, 4, 10);
        assert!(out.total_cost <= before, "PLAN never worsens the total");
        assert_eq!(out.total_cost, out.migration_cost + out.comm_cost);
        if out.num_migrations > 0 {
            assert!(out.comm_cost < before);
        }
        out.workload.validate(&g).unwrap();
    }

    #[test]
    fn plan_with_huge_vm_mu_freezes() {
        let (g, dm, w, p) = setup();
        let out = plan_vm_migration(&g, &dm, &w, &p, 1_000_000_000, 4, 10);
        assert_eq!(out.num_migrations, 0);
        assert_eq!(out.comm_cost, comm_cost(&dm, &w, &p));
    }

    #[test]
    fn mcf_is_at_least_as_good_as_plan() {
        let (g, dm, mut w, p) = setup();
        w.set_rates(&[1, 500, 300]).unwrap();
        let plan = plan_vm_migration(&g, &dm, &w, &p, 1, 4, 10);
        let mcf = mcf_vm_migration(&g, &dm, &w, &p, 1, 4, 16).unwrap();
        // MCF solves the reassignment globally; PLAN is greedy.
        assert!(mcf.total_cost <= plan.total_cost);
        mcf.workload.validate(&g).unwrap();
    }

    #[test]
    fn mcf_respects_capacity() {
        let (g, dm, mut w, p) = setup();
        w.set_rates(&[1, 500, 300]).unwrap();
        let slots = 2;
        let out = mcf_vm_migration(&g, &dm, &w, &p, 0, slots, 16).unwrap();
        let caps = HostCapacities::uniform(&g, &out.workload, slots);
        for h in g.hosts() {
            assert!(caps.used(h) <= slots, "host {} over capacity", h.index());
        }
    }

    #[test]
    fn mcf_zero_slots_freezes_all_vms() {
        let (g, dm, w, p) = setup();
        // Zero free capacity anywhere: every VM keeps its current host
        // (whose capacity is floored at its occupancy).
        let out = mcf_vm_migration(&g, &dm, &w, &p, 1, 0, 8).unwrap();
        assert_eq!(out.num_migrations, 0);
        assert_eq!(out.comm_cost, comm_cost(&dm, &w, &p));
    }

    #[test]
    fn vm_attach_cost_covers_src_and_dst_roles() {
        let (g, dm, w, p) = setup();
        let rates = VmRates::build(&w);
        let f0 = w.flow(ppdc_model::FlowId(0));
        let src_host = w.host_of(f0.src);
        let c = rates.attach_cost(&dm, &p, f0.src, src_host);
        assert_eq!(c, 100 * dm.cost(src_host, p.ingress()));
        let dst_host = w.host_of(f0.dst);
        let c2 = rates.attach_cost(&dm, &p, f0.dst, dst_host);
        assert_eq!(c2, 100 * dm.cost(p.egress(), dst_host));
        assert_eq!(rates.total(f0.src), 100);
        let _ = g;
    }
}

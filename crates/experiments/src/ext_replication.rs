//! **Extension experiment** — VNF replication vs VNF migration (the
//! paper's future-work question: *"to which extent VNF replication could
//! be beneficial in terms of dynamic traffic mitigation when compared to
//! VNF migration"*).
//!
//! One simulated day on the hotspot workload. Three strategies:
//!
//! * **mPareto** — migrate VNFs hourly (Algorithm 5),
//! * **Replicate-R** — place the chain at hour 0, add `R` extra replicas
//!   greedily for the hour-0 rates, then *never touch anything*: flows
//!   route through their cheapest replicas as rates shift,
//! * **NoMigration** — the plain static chain.
//!
//! Replica deployment cost is not charged (the paper argues VNF software
//! deployment is far cheaper than network traffic — Section II's note on
//! Tomassilli et al.); the comparison is traffic-only, which *favors*
//! replication. Migration still wins when the traffic's center of mass
//! moves (replicas only help where they already are), while replication
//! wins when demand oscillates between a few fixed hotspots.

use crate::{fat_tree_with_distances, fmt_summary, summarize_runs, Scale};
use ppdc_model::Sfc;
use ppdc_placement::{comm_cost_replicated, dp_placement, greedy_replication};
use ppdc_sim::{run_day, EngineConfig, FaultSchedule, MigrationPolicy, SimConfig, Table};
use ppdc_traffic::standard_workload;

/// Day-total traffic for the static replicated strategy.
fn replicated_day(
    g: &ppdc_topology::Graph,
    dm: &ppdc_topology::DistanceMatrix,
    w: &ppdc_model::Workload,
    trace: &ppdc_traffic::DynamicTrace,
    sfc: &Sfc,
    extra_replicas: usize,
) -> u64 {
    let mut w = w.clone();
    w.set_rates(&trace.rates_at(0)).expect("trace covers flows");
    let (p, _) = dp_placement(g, dm, &w, sfc).expect("TOP solves");
    let (rp, _) = greedy_replication(g, dm, &w, &p, extra_replicas).expect("greedy solves");
    let mut total = 0;
    for h in 1..=trace.model().n_hours {
        w.set_rates(&trace.rates_at(h)).expect("trace covers flows");
        total += comm_cost_replicated(dm, &w, &rp);
    }
    total
}

/// Day-total traffic with `chains` extra whole-chain replicas.
///
/// Single-replica greedy stalls on hop-metric fat-trees: one replica of a
/// middle VNF cannot shorten a route that must still visit the rest of the
/// chain at its old location. The unit that pays is a **whole chain**
/// replicated inside another pod, so this strategy adds canonical in-pod
/// chains (edge/agg alternating, every hop 1) to the pods where they
/// reduce hour-0 traffic the most.
fn chain_replicated_day(
    ft: &ppdc_topology::FatTree,
    dm: &ppdc_topology::DistanceMatrix,
    w: &ppdc_model::Workload,
    trace: &ppdc_traffic::DynamicTrace,
    sfc: &Sfc,
    chains: usize,
) -> u64 {
    use ppdc_placement::{comm_cost_replicated as ccr, ReplicatedPlacement};
    let g = ft.graph();
    let n = sfc.len();
    let mut w = w.clone();
    w.set_rates(&trace.rates_at(0)).expect("trace covers flows");
    let (p, _) = dp_placement(g, dm, &w, sfc).expect("TOP solves");
    let mut rp = ReplicatedPlacement::from_placement(&p);
    // Canonical in-pod chain for pod q: edge(q,0), agg(q,0), edge(q,1), …
    let half = ft.k() / 2;
    // A pod holds k switches (k/2 edge + k/2 agg); longer chains spill
    // into the next pod's racks (wrapping at the fabric edge).
    let pod_chain = |q: usize| -> Vec<ppdc_topology::NodeId> {
        (0..n)
            .map(|i| {
                let slot = (q * half + i / 2) % ft.edge_switches().len();
                if i % 2 == 0 {
                    ft.edge_switches()[slot]
                } else {
                    ft.agg_switches()[slot]
                }
            })
            .collect()
    };
    for _ in 0..chains {
        let current = ccr(dm, &w, &rp);
        let mut best: Option<(u64, usize)> = None;
        for q in 0..ft.k() {
            let chain = pod_chain(q);
            if chain.iter().any(|&s| rp.occupies(s)) {
                continue;
            }
            let mut cand = rp.clone();
            for (j, &s) in chain.iter().enumerate() {
                cand.add_replica(g, j, s).expect("collision-checked");
            }
            let cost = ccr(dm, &w, &cand);
            if cost < current && best.is_none_or(|(c, _)| cost < c) {
                best = Some((cost, q));
            }
        }
        match best {
            Some((_, q)) => {
                for (j, &s) in pod_chain(q).iter().enumerate() {
                    rp.add_replica(g, j, s).expect("collision-checked");
                }
            }
            None => break,
        }
    }
    let mut total = 0;
    for h in 1..=trace.model().n_hours {
        w.set_rates(&trace.rates_at(h)).expect("trace covers flows");
        total += ccr(dm, &w, &rp);
    }
    total
}

/// Regenerates the replication-vs-migration extension table.
pub fn ext_replication(scale: &Scale) -> Table {
    let k = if scale.quick { 4 } else { 8 };
    let (ft, dm) = fat_tree_with_distances(k);
    let g = ft.graph();
    let pairs = if scale.quick { 10 } else { 40 };
    let n = 5;
    let mu = 1_000;
    let sfc = Sfc::of_len(n).expect("n >= 1");
    let replica_counts: &[usize] = if scale.quick { &[0, 2] } else { &[0, 2, 4, 8] };
    let runs = scale.sim_runs();

    let chain_counts: &[usize] = if scale.quick { &[1] } else { &[1, 2, 3] };
    let mut mpareto = Vec::new();
    let mut nomig = Vec::new();
    let mut replicated: Vec<Vec<f64>> = vec![Vec::new(); replica_counts.len()];
    let mut chain_replicated: Vec<Vec<f64>> = vec![Vec::new(); chain_counts.len()];
    for run in 0..runs {
        let (w, trace) = standard_workload(&ft, pairs, 0xE87, run);
        let schedule =
            FaultSchedule::new(vec![], trace.model().n_hours).expect("no events to reject");
        for (policy, out) in [
            (MigrationPolicy::MPareto, &mut mpareto),
            (MigrationPolicy::NoMigration, &mut nomig),
        ] {
            let cfg = SimConfig {
                mu,
                vm_mu: mu,
                policy,
            };
            let r = run_day(
                g,
                &w,
                &trace,
                &sfc,
                &cfg,
                &schedule,
                &EngineConfig::default(),
            )
            .expect("day simulates")
            .result;
            out.push(r.total_cost as f64);
        }
        for (slot, &r) in replica_counts.iter().enumerate() {
            replicated[slot].push(replicated_day(g, &dm, &w, &trace, &sfc, r) as f64);
        }
        for (slot, &c) in chain_counts.iter().enumerate() {
            chain_replicated[slot].push(chain_replicated_day(&ft, &dm, &w, &trace, &sfc, c) as f64);
        }
    }
    let mut table = Table::new(
        format!("Extension — replication vs migration (k={k}, l={pairs}, n={n}, mu={mu})",),
        &["strategy", "day-total traffic", "vs NoMigration %"],
    );
    let base = summarize_runs(&nomig).mean;
    let pct = |mean: f64| format!("{:+.1}", 100.0 * (mean - base) / base);
    table.row(vec![
        "NoMigration".into(),
        fmt_summary(&summarize_runs(&nomig)),
        "+0.0".into(),
    ]);
    table.row(vec![
        "mPareto migration".into(),
        fmt_summary(&summarize_runs(&mpareto)),
        pct(summarize_runs(&mpareto).mean),
    ]);
    for (slot, &r) in replica_counts.iter().enumerate() {
        let s = summarize_runs(&replicated[slot]);
        table.row(vec![
            format!("static + {r} single replicas (greedy)"),
            fmt_summary(&s),
            pct(s.mean),
        ]);
    }
    for (slot, &c) in chain_counts.iter().enumerate() {
        let s = summarize_runs(&chain_replicated[slot]);
        table.row(vec![
            format!("static + {c} whole-chain replicas"),
            fmt_summary(&s),
            pct(s.mean),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_extension_runs() {
        let t = ext_replication(&Scale { quick: true });
        assert_eq!(t.len(), 5); // NoMigration, mPareto, 2 single + 1 chain
        let csv = t.to_csv();
        assert!(csv.contains("whole-chain"));
    }
}

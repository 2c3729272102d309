//! **Fig. 6(b)** — the Pareto front swept by parallel migration frontiers.
//!
//! Setting (paper): k = 16 fat-tree, n = 6 VNFs, μ = 200. After a drastic
//! rate change, Algorithm 5 walks the VNFs from `p` toward the recomputed
//! `p'` and records `(C_b(p, m), C_a(m))` at every parallel frontier. The
//! figure shows `C_a` falling as `C_b` rises — a Pareto front — and the
//! table ends with the convexity verdict of Theorem 5.

use crate::{fat_tree_with_distances, Scale};
use ppdc_migration::{is_convex, mpareto, pareto_front};
use ppdc_model::Sfc;
use ppdc_placement::{dp_placement, AttachAggregates};
use ppdc_sim::Table;
use ppdc_traffic::{standard_workload, DynamicTrace};

/// Regenerates Fig. 6(b): one frontier sweep on a representative instance.
pub fn fig6b(scale: &Scale) -> Table {
    let (ft, dm) = fat_tree_with_distances(scale.k_tom());
    let g = ft.graph();
    let n = 6.min(g.num_switches());
    let mu = 200;
    let pairs = if scale.quick { 30 } else { 200 };
    let (mut w, _trace): (_, DynamicTrace) = standard_workload(&ft, pairs, 66, 0);
    let sfc = Sfc::of_len(n).expect("n >= 1");
    let (p, _) =
        dp_placement(&dm, &w, &sfc, &AttachAggregates::build(g, &dm, &w)).expect("initial TOP");
    // Drastic rate change: reverse the rate vector so heavy flows move.
    let mut rates = w.rates().to_vec();
    rates.reverse();
    w.set_rates(&rates).expect("same length");
    let agg = AttachAggregates::build(g, &dm, &w);
    let out = mpareto(g, &dm, &w, &sfc, &p, mu, &agg).expect("mpareto");
    let mut table = Table::new(
        format!(
            "Fig. 6(b) — parallel-frontier Pareto front (k={}, n={n}, mu={mu})",
            scale.k_tom()
        ),
        &["frontier", "C_b(p,m)", "C_a(m)", "C_t", "chosen"],
    );
    for (i, f) in out.frontiers.iter().enumerate() {
        let chosen = f.placement.switches() == out.migration.switches();
        table.row(vec![
            i.to_string(),
            f.migration_cost.to_string(),
            f.comm_cost.to_string(),
            f.total_cost().to_string(),
            if chosen {
                "<-- mPareto".into()
            } else {
                String::new()
            },
        ]);
    }
    let front = pareto_front(&out.frontiers);
    table.row(vec![
        "pareto front".into(),
        format!("{} points", front.len()),
        String::new(),
        String::new(),
        if is_convex(&front) {
            "convex (Thm 5 ⇒ optimal)".into()
        } else {
            "non-convex".into()
        },
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig6b_sweeps_a_front() {
        let t = fig6b(&Scale { quick: true });
        assert!(t.len() >= 2, "frontier rows + verdict row");
        let csv = t.to_csv();
        assert!(csv.contains("pareto front"));
    }
}

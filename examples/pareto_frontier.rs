//! The migration Pareto front, in the style of the paper's Fig. 6(b).
//!
//! After a drastic traffic shift, mPareto walks every VNF along its
//! shortest migration path toward the recomputed ideal placement and
//! evaluates each parallel frontier: migration cost C_b rises, resting
//! communication cost C_a falls. The non-dominated points form a Pareto
//! front; when the front is convex, Theorem 5 says picking its minimum-sum
//! point is optimal among frontier schemes.
//!
//! ```text
//! cargo run --release --example pareto_frontier
//! ```

use ppdc::migration::{is_convex, mpareto, pareto_front};
use ppdc::model::{Sfc, Workload};
use ppdc::placement::{dp_placement, AttachAggregates};
use ppdc::topology::{DistanceMatrix, FatTree};

fn main() {
    let ft = FatTree::build(8).expect("k = 8 fat-tree");
    let dm = DistanceMatrix::build(ft.graph());
    // Two tenant clusters at opposite corners of the fabric: cluster A
    // (racks 0-1) starts hot, cluster B (racks 30-31) starts cold.
    let mut w = Workload::new();
    for r in [0usize, 1] {
        for &h in ft.rack(r) {
            w.add_pair(h, h, 9_000);
        }
    }
    for r in [30usize, 31] {
        for &h in ft.rack(r) {
            w.add_pair(h, h, 100);
        }
    }
    let sfc = Sfc::of_len(6).expect("n = 6, as in Fig. 6(b)");
    let mu = 200; // the figure's migration coefficient

    let agg = AttachAggregates::build(ft.graph(), &dm, &w);
    let (p, c0) = dp_placement(&dm, &w, &sfc, &agg).expect("TOP solves");
    println!("initial placement {p} with cost {c0}");

    // The clusters swap activity: A's meetings end, B's begin.
    let mut rates = w.rates().to_vec();
    rates.reverse();
    w.set_rates(&rates).expect("same flow count");

    let agg = AttachAggregates::build(ft.graph(), &dm, &w);
    let out = mpareto(ft.graph(), &dm, &w, &sfc, &p, mu, &agg).expect("TOM solves");
    println!("\n  frontier |      C_b |      C_a |      C_t");
    println!("  ---------+----------+----------+---------");
    for (i, f) in out.frontiers.iter().enumerate() {
        println!(
            "  {:>8} | {:>8} | {:>8} | {:>8}{}",
            i,
            f.migration_cost,
            f.comm_cost,
            f.total_cost(),
            if f.placement.switches() == out.migration.switches() {
                "  <- mPareto"
            } else {
                ""
            }
        );
    }
    let front = pareto_front(&out.frontiers);
    println!(
        "\nPareto front: {} non-dominated points, convex: {}",
        front.len(),
        is_convex(&front)
    );
    println!(
        "mPareto migrates {} VNFs for a total cost of {}",
        out.num_migrations, out.total_cost
    );
}

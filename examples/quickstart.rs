//! Quickstart: the paper's running example, end to end.
//!
//! Builds the 5-switch linear PPDC of Fig. 1 (equivalently the k = 2
//! fat-tree of Fig. 3), places a firewall → cache-proxy SFC optimally,
//! watches the traffic swap between the two VM pairs, and lets mPareto
//! migrate the VNFs back to optimal.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ppdc::migration::mpareto;
use ppdc::model::{comm_cost, Sfc, Workload};
use ppdc::placement::{dp_placement, AttachAggregates};
use ppdc::topology::{builders::linear, DistanceMatrix};

fn main() {
    // The PPDC of Fig. 1: five switches in a line, one host at each end.
    let (g, h1, h2) = linear(5).expect("5 switches is a valid linear PPDC");
    let dm = DistanceMatrix::build(&g);
    println!(
        "PPDC: {} switches, {} hosts, diameter {} hops",
        g.num_switches(),
        g.num_hosts(),
        dm.diameter()
    );

    // Two communicating VM pairs: (v1, v1') on h1, (v2, v2') on h2.
    let mut w = Workload::new();
    w.add_pair(h1, h1, 100);
    w.add_pair(h2, h2, 1);
    let sfc = Sfc::named(["firewall", "cache-proxy"]).expect("two VNFs");

    // TOP: traffic-optimal initial placement (Algorithm 3).
    let agg = AttachAggregates::build(&g, &dm, &w);
    let (p, initial) = dp_placement(&dm, &w, &sfc, &agg).expect("TOP solves");
    println!("\nTOP places the SFC at {p} — total communication cost {initial}");
    assert_eq!(initial, 410);

    // Dynamic traffic: the rates swap, the placement goes stale.
    w.set_rates(&[1, 100]).expect("two flows");
    let stale = comm_cost(&dm, &w, &p);
    println!("rates swap ⟨100,1⟩ → ⟨1,100⟩: the old placement now costs {stale}");
    assert_eq!(stale, 1004);

    // TOM: mPareto (Algorithm 5) walks the VNFs along migration frontiers.
    let agg = AttachAggregates::build(&g, &dm, &w);
    let out = mpareto(&g, &dm, &w, &sfc, &p, 1, &agg).expect("TOM solves");
    println!(
        "\nmPareto migrates {} VNFs to {} — migration cost {}, new comm cost {}",
        out.num_migrations, out.migration, out.migration_cost, out.comm_cost
    );
    let reduction = 100.0 * (stale - out.total_cost) as f64 / stale as f64;
    println!(
        "total {} vs staying {stale}: {reduction:.1}% reduction (paper: 58.6%)",
        out.total_cost
    );
    assert_eq!(out.total_cost, 416);

    // The frontier sweep behind the decision (Fig. 6(b) in miniature).
    println!("\nparallel migration frontiers (C_b, C_a):");
    for (i, f) in out.frontiers.iter().enumerate() {
        println!(
            "  frontier {i}: C_b={:<4} C_a={:<5} C_t={}{}",
            f.migration_cost,
            f.comm_cost,
            f.total_cost(),
            if f.placement.switches() == out.migration.switches() {
                "  <- chosen"
            } else {
                ""
            }
        );
    }
}

//! Side-by-side TOP solver comparison on one workload.
//!
//! Runs all four placement algorithms of the paper's Table II — Optimal
//! (Algorithm 4), DP (Algorithm 3), Greedy (Liu et al.), Steering — on the
//! same k = 4 fat-tree workload and prints their placements, costs, and
//! runtimes. The miniature version of Figs. 9/10.
//!
//! ```text
//! cargo run --release --example placement_comparison
//! ```

use ppdc::model::{Placement, Sfc};
use ppdc::placement::{
    dp_placement, greedy_placement, optimal_placement, steering_placement, AttachAggregates,
    PlacementError,
};
use ppdc::sim::Table;
use ppdc::stroll::StrollError;
use ppdc::topology::{Cost, DistanceMatrix, FatTree, Graph};
use ppdc::traffic::{generate_pairs, rng_for_run, PairPlacement, DEFAULT_MIX};
use std::time::Instant;

type Solver = fn(
    &Graph,
    &DistanceMatrix,
    &ppdc::model::Workload,
    &Sfc,
) -> Result<(Placement, Cost), PlacementError>;

/// Algorithm 4 at its default budget, strict: a budget-degraded incumbent
/// is not an optimum.
fn optimal(
    g: &Graph,
    dm: &DistanceMatrix,
    w: &ppdc::model::Workload,
    sfc: &Sfc,
) -> Result<(Placement, Cost), PlacementError> {
    let budget = ppdc::placement::optimal::DEFAULT_BUDGET;
    let agg = AttachAggregates::build(g, dm, w);
    match optimal_placement(dm, w, sfc, &agg, budget)? {
        (p, cost, exactness) if exactness.is_exact() => Ok((p, cost)),
        _ => Err(StrollError::BudgetExhausted { budget }.into()),
    }
}

fn main() {
    let ft = FatTree::build(4).expect("k = 4 fat-tree");
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let mut rng = rng_for_run(0xCAFE, 0);
    let w = generate_pairs(&ft, &PairPlacement::default(), &DEFAULT_MIX, 12, &mut rng);
    println!(
        "workload: {} VM pairs on a k=4 fat-tree, total rate {}",
        w.num_flows(),
        w.total_rate()
    );

    let solvers: [(&str, Solver); 4] = [
        ("Optimal (Algo 4)", optimal),
        ("DP (Algo 3)", |g, dm, w, sfc| {
            dp_placement(dm, w, sfc, &AttachAggregates::build(g, dm, w))
        }),
        ("Greedy (Liu)", greedy_placement),
        ("Steering", steering_placement),
    ];
    for n in [3usize, 5] {
        let sfc = Sfc::of_len(n).expect("valid SFC");
        let mut table = Table::new(
            format!("SFC of n = {n} VNFs"),
            &["algorithm", "placement", "C_a", "vs optimal", "runtime"],
        );
        let mut optimal_cost = None;
        for (name, solver) in solvers {
            let t = Instant::now();
            let (p, cost) = solver(g, &dm, &w, &sfc).expect("placement solves");
            let dt = t.elapsed();
            let opt = *optimal_cost.get_or_insert(cost);
            table.row(vec![
                name.to_string(),
                p.to_string(),
                cost.to_string(),
                format!("{:.3}x", cost as f64 / opt as f64),
                format!("{:.2?}", dt),
            ]);
        }
        println!("\n{}", table.to_markdown());
    }
}

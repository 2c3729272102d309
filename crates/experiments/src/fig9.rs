//! **Figs. 9 and 10** — multi-flow TOP placement comparison.
//!
//! Series: Optimal (Algorithm 4 via branch-and-bound), DP (Algorithm 3),
//! Greedy (Liu et al. \[34\]), Steering \[55\].
//!
//! * Fig. 9(a): unweighted k = 8 fat-tree, vary the number of VM pairs `l`.
//! * Fig. 9(b): unweighted, vary the SFC length `n`.
//! * Fig. 10: weighted (uniform link delays, mean 1.5 ms ± 0.5 ms), vary
//!   `n`.
//!
//! Expected shape (paper): DP within 6–12 % of Optimal; Greedy and
//! Steering 2–3× dearer (DP is 56–64 % cheaper).

use crate::{
    fat_tree_with_distances, fmt_maybe, fmt_summary, mean_maybe, randomize_delays, summarize_runs,
    Scale,
};
use ppdc_model::{Sfc, Workload};
use ppdc_placement::{
    dp_placement, greedy_placement, optimal_placement, steering_placement, AttachAggregates,
};
use ppdc_sim::Table;
use ppdc_topology::DistanceMatrix;
use ppdc_traffic::{generate_pairs, rng_for_run, PairPlacement, DEFAULT_MIX};

/// Per-point branch-and-bound budget for the Optimal series.
const OPT_BUDGET: u64 = 60_000_000;

struct Point {
    optimal: Vec<Option<f64>>,
    dp: Vec<f64>,
    greedy: Vec<f64>,
    steering: Vec<f64>,
}

fn run_point(scale: &Scale, weighted: bool, l: usize, n: usize, seed: u64) -> Point {
    let runs = scale.runs();
    let mut point = Point {
        optimal: Vec::new(),
        dp: Vec::new(),
        greedy: Vec::new(),
        steering: Vec::new(),
    };
    for run in 0..runs {
        let mut rng = rng_for_run(seed, run);
        let (mut ft, mut dm) = fat_tree_with_distances(scale.k_top());
        if weighted {
            randomize_delays(ft.graph_mut(), &mut rng);
            dm = DistanceMatrix::build(ft.graph());
        }
        let g = ft.graph();
        let w: Workload = generate_pairs(&ft, &PairPlacement::default(), &DEFAULT_MIX, l, &mut rng);
        let sfc = Sfc::of_len(n).expect("n >= 1");
        let agg = AttachAggregates::build(g, &dm, &w);
        let (_, dp_cost) = dp_placement(&dm, &w, &sfc, &agg).expect("dp solves");
        point.dp.push(dp_cost as f64);
        let (_, gr) = greedy_placement(g, &dm, &w, &sfc).expect("greedy solves");
        point.greedy.push(gr as f64);
        let (_, st) = steering_placement(g, &dm, &w, &sfc).expect("steering solves");
        point.steering.push(st as f64);
        // A budget-degraded incumbent is not an optimum: report it as
        // not computed (`n/c`).
        point.optimal.push(
            optimal_placement(&dm, &w, &sfc, &agg, OPT_BUDGET)
                .ok()
                .filter(|(_, _, exactness)| exactness.is_exact())
                .map(|(_, c, _)| c as f64),
        );
    }
    point
}

fn push_row(table: &mut Table, x: String, point: &Point) {
    let dp = summarize_runs(&point.dp);
    let ratio = mean_maybe(&point.optimal)
        .map(|m| format!("{:.3}", dp.mean / m))
        .unwrap_or_else(|| "n/c".into());
    table.row(vec![
        x,
        fmt_maybe(&point.optimal),
        fmt_summary(&dp),
        fmt_summary(&summarize_runs(&point.greedy)),
        fmt_summary(&summarize_runs(&point.steering)),
        ratio,
    ]);
}

const HEADERS: [&str; 6] = ["x", "Optimal", "DP", "Greedy", "Steering", "DP/Opt"];

/// Fig. 9(a): vary the number of VM pairs `l` (unweighted).
pub fn fig9a(scale: &Scale) -> Table {
    let (ls, n) = if scale.quick {
        (vec![5usize, 10, 20], 3usize)
    } else {
        (vec![25usize, 50, 100, 200, 400], 5usize)
    };
    let mut table = Table::new(
        format!(
            "Fig. 9(a) — TOP, k={}, unweighted, n={}: total comm cost vs l",
            scale.k_top(),
            n
        ),
        &HEADERS,
    );
    for &l in &ls {
        let point = run_point(scale, false, l, n, 9_100 + l as u64);
        push_row(&mut table, l.to_string(), &point);
    }
    table
}

/// Fig. 9(b): vary the SFC length `n` (unweighted).
pub fn fig9b(scale: &Scale) -> Table {
    let (ns, l) = if scale.quick {
        (vec![3usize, 4, 5], 10usize)
    } else {
        (vec![3usize, 5, 7, 9, 11, 13], 100usize)
    };
    let mut table = Table::new(
        format!(
            "Fig. 9(b) — TOP, k={}, unweighted, l={}: total comm cost vs n",
            scale.k_top(),
            l
        ),
        &HEADERS,
    );
    for &n in &ns {
        let point = run_point(scale, false, l, n, 9_200 + n as u64);
        push_row(&mut table, n.to_string(), &point);
    }
    table
}

/// Fig. 10: vary `n` on the weighted (delay) PPDC.
pub fn fig10(scale: &Scale) -> Table {
    let (ns, l) = if scale.quick {
        (vec![3usize, 4, 5], 10usize)
    } else {
        (vec![3usize, 5, 7, 9, 11, 13], 100usize)
    };
    let mut table = Table::new(
        format!(
            "Fig. 10 — TOP, k={}, weighted (delay U[1.0ms, 2.0ms]), l={}: total delay cost vs n",
            scale.k_top(),
            l
        ),
        &HEADERS,
    );
    for &n in &ns {
        let point = run_point(scale, true, l, n, 10_000 + n as u64);
        push_row(&mut table, n.to_string(), &point);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig9a_has_all_rows_and_ordering() {
        let t = fig9a(&Scale { quick: true });
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn quick_fig10_runs_weighted() {
        let t = fig10(&Scale { quick: true });
        assert_eq!(t.len(), 3);
    }
}

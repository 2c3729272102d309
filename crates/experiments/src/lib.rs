//! Experiment harness: one function per figure of the paper.
//!
//! Every figure of the evaluation section has a regeneration function here
//! returning a [`Table`](ppdc_sim::Table) with the same series the paper plots. Absolute
//! numbers differ from the paper's testbed, but the comparisons the paper
//! draws (who wins, by what factor, where the curves sit) are the output.
//!
//! Two scales:
//!
//! * **full** — the paper's fabric sizes (k = 8 fat-tree for TOP, k = 16
//!   for TOM) with multi-run averaging; minutes of wall-clock on one core.
//! * **quick** (`--quick`) — reduced sizes for smoke-testing the harness;
//!   seconds of wall-clock.
//!
//! Each data point reports mean ± 95 % CI over the configured runs, as in
//! the paper. Budget-capped exact searches that do not finish report "n/c".

// Library code reports through return values and telemetry, never
// stdout/stderr, and never drops a value without naming it. Binaries,
// tests, benches and examples print by design and are out of scope.
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::let_underscore_untyped, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)
)]
#![cfg_attr(test, allow(clippy::let_underscore_untyped, clippy::unused_result_ok))]

pub mod bench;
pub mod chaos;
pub mod cli;
pub mod ext_replication;
pub mod failsweep;
pub mod fig11;
pub mod fig6b;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod metrics;

pub use bench::{
    append_bench_trajectory, calibrate, group_speedups, parse_bench_samples, BenchEnvironment,
    BenchSample, GroupSpeedup,
};
pub use chaos::{chaos_suite, ChaosSummary};
pub use cli::{parse_u64, read_file, write_file, CliError};
pub use ext_replication::ext_replication;
pub use failsweep::failure_sweep;
pub use fig11::{fig11a_b, fig11c, fig11d};
pub use fig6b::fig6b;
pub use fig7::fig7;
pub use fig8::fig8;
pub use fig9::{fig10, fig9a, fig9b};
pub use metrics::validate_metrics_json;

use ppdc_sim::{summarize, Summary};
use ppdc_topology::{Cost, FatTree, Graph};
use rand::Rng;

/// Experiment scale switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Reduced sizes for smoke tests.
    pub quick: bool,
}

impl Scale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> Self {
        Scale {
            quick: std::env::args().any(|a| a == "--quick"),
        }
    }

    /// Fat-tree arity for the TOP experiments (paper: 8).
    pub fn k_top(&self) -> usize {
        if self.quick {
            4
        } else {
            8
        }
    }

    /// Fat-tree arity for the TOM experiments (paper: 16).
    pub fn k_tom(&self) -> usize {
        if self.quick {
            8
        } else {
            16
        }
    }

    /// Runs per data point (paper: 20).
    pub fn runs(&self) -> u64 {
        if self.quick {
            3
        } else {
            20
        }
    }

    /// Runs per data point for the day-long TOM simulations, which cost a
    /// dp-placement per simulated hour.
    pub fn sim_runs(&self) -> u64 {
        if self.quick {
            2
        } else {
            3
        }
    }
}

/// Formats a [`Summary`] as `mean ± ci`.
pub fn fmt_summary(s: &Summary) -> String {
    if s.ci95 > 0.0 {
        format!("{:.0} ± {:.0}", s.mean, s.ci95)
    } else {
        format!("{:.0}", s.mean)
    }
}

/// [`summarize`] for run sets the experiment driver guarantees non-empty
/// (every data point aggregates at least one run).
pub fn summarize_runs(samples: &[f64]) -> Summary {
    summarize(samples).expect("each data point aggregates at least one run")
}

/// Summarizes per-run values that may be missing (budget-capped searches):
/// returns `n/c` when any run failed to complete.
pub fn fmt_maybe(samples: &[Option<f64>]) -> String {
    if samples.iter().any(Option::is_none) || samples.is_empty() {
        "n/c".to_string()
    } else {
        let vals: Vec<f64> = samples.iter().map(|s| s.unwrap()).collect();
        fmt_summary(&summarize_runs(&vals))
    }
}

/// Mean of complete samples (None if any missing).
pub fn mean_maybe(samples: &[Option<f64>]) -> Option<f64> {
    if samples.iter().any(Option::is_none) || samples.is_empty() {
        None
    } else {
        Some(samples.iter().map(|s| s.unwrap()).sum::<f64>() / samples.len() as f64)
    }
}

/// Applies the paper's Fig. 10 weighted-PPDC setting: link delays drawn
/// uniformly from `[1000, 2000]` micro-units (mean 1.5 ms ± 0.5 ms, the
/// parameterization of Greedy \[34\]).
pub fn randomize_delays(g: &mut Graph, rng: &mut impl Rng) {
    g.map_edge_weights(|_, _, _| rng.gen_range(1000..=2000) as Cost);
}

/// Builds a fat-tree and its distance matrix.
pub fn fat_tree_with_distances(k: usize) -> (FatTree, ppdc_topology::DistanceMatrix) {
    let ft = FatTree::build(k).expect("valid arity");
    let dm = ppdc_topology::DistanceMatrix::build(ft.graph());
    (ft, dm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parameters() {
        let q = Scale { quick: true };
        let f = Scale { quick: false };
        assert_eq!(q.k_top(), 4);
        assert_eq!(f.k_top(), 8);
        assert_eq!(f.k_tom(), 16);
        assert_eq!(f.runs(), 20);
    }

    #[test]
    fn maybe_formatting() {
        assert_eq!(fmt_maybe(&[Some(1.0), None]), "n/c");
        assert_eq!(fmt_maybe(&[]), "n/c");
        assert_eq!(fmt_maybe(&[Some(2.0), Some(2.0)]), "2");
        assert_eq!(mean_maybe(&[Some(1.0), Some(3.0)]), Some(2.0));
        assert_eq!(mean_maybe(&[Some(1.0), None]), None);
    }

    #[test]
    fn delay_randomization_stays_in_band() {
        let (mut ft, _) = fat_tree_with_distances(4);
        let mut rng = ppdc_traffic::rng_for_run(1, 0);
        randomize_delays(ft.graph_mut(), &mut rng);
        for (_, _, w) in ft.graph().edges() {
            assert!((1000..=2000).contains(&w));
        }
    }
}

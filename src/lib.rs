//! # ppdc — traffic-optimal VNF placement and migration
//!
//! A Rust implementation of the algorithmic framework of *"Traffic-Optimal
//! Virtual Network Function Placement and Migration in Dynamic Cloud Data
//! Centers"* (Tran, Sun, Tang, Pan — IPDPS 2022): place a service function
//! chain's VNFs in a policy-preserving data center to minimize total
//! network traffic (**TOP**), then migrate them adaptively as the traffic
//! shifts (**TOM**).
//!
//! This crate re-exports the whole workspace:
//!
//! * [`topology`] — fat-trees and friends, shortest paths, metric closures,
//! * [`model`] — VMs, flows, SFCs, placements, the Eq. 1 / Eq. 8 cost model,
//! * [`stroll`] — the n-stroll problem: DP (Algorithm 2), exact
//!   branch-and-bound, Goemans–Williamson primal-dual (Algorithm 1),
//! * [`mcf`] — a minimum-cost-flow solver (substrate for the MCF baseline),
//! * [`placement`] — TOP solvers (Algorithms 3 and 4) and the
//!   Steering/Greedy baselines,
//! * [`migration`] — TOM solvers (Algorithms 5 and 6: mPareto and exact)
//!   and the PLAN/MCF VM-migration baselines,
//! * [`traffic`] — production-style workload and diurnal dynamic-rate
//!   generation,
//! * [`sim`] — the hourly TOP → TOM lifetime simulator and statistics.
//!
//! ## Quickstart
//!
//! The paper's running example (Fig. 1 / Fig. 3): two VM pairs on a
//! 5-switch linear PPDC, a 2-VNF SFC, a traffic swap, and a migration that
//! recovers 58.6 % of the cost:
//!
//! ```
//! use ppdc::model::{comm_cost, Sfc, Workload};
//! use ppdc::migration::mpareto;
//! use ppdc::placement::{dp_placement, AttachAggregates};
//! use ppdc::topology::{builders::linear, DistanceMatrix};
//!
//! let (g, h1, h2) = linear(5).unwrap();
//! let dm = DistanceMatrix::build(&g);
//! let mut w = Workload::new();
//! w.add_pair(h1, h1, 100); // (v1, v1') on h1
//! w.add_pair(h2, h2, 1);   // (v2, v2') on h2
//! let sfc = Sfc::named(["firewall", "cache-proxy"]).unwrap();
//!
//! // TOP: the initial traffic-optimal placement costs 410.
//! let agg = AttachAggregates::build(&g, &dm, &w);
//! let (p, cost) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
//! assert_eq!(cost, 410);
//!
//! // The rates swap — the old placement now costs 1004.
//! w.set_rates(&[1, 100]).unwrap();
//! assert_eq!(comm_cost(&dm, &w, &p), 1004);
//!
//! // TOM: mPareto migrates both VNFs (cost 6) and lands at 416 total.
//! let agg = AttachAggregates::build(&g, &dm, &w);
//! let out = mpareto(&g, &dm, &w, &sfc, &p, 1, &agg).unwrap();
//! assert_eq!(out.total_cost, 416);
//! assert_eq!(out.num_migrations, 2);
//! ```

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

pub use ppdc_mcf as mcf;
pub use ppdc_migration as migration;
pub use ppdc_model as model;
pub use ppdc_placement as placement;
pub use ppdc_sim as sim;
pub use ppdc_stroll as stroll;
pub use ppdc_topology as topology;
pub use ppdc_traffic as traffic;

//! **TOM — traffic-optimal VNF migration** (Section V of the paper).
//!
//! After the rate vector `λ` changes, the initial placement `p` is no
//! longer traffic-optimal. TOM picks a migration `m : F → V_s` minimizing
//! the Eq. 8 total `C_t(p, m) = C_b(p, m) + C_a(m)`, trading migration
//! traffic against communication traffic.
//!
//! Solvers and baselines (paper's Table II):
//!
//! * [`mpareto`] — **mPareto** (Algorithm 5): recompute the ideal placement
//!   `p'` with Algorithm 3, walk every VNF along its shortest migration
//!   path toward `p'`, and pick the cheapest *parallel migration frontier*
//!   (Definition 2). The frontier points sweep a Pareto front between
//!   `C_b` and `C_a` ([`frontier`] exposes it, plus the convexity test of
//!   Theorem 5).
//! * [`optimal_migration`] — **Optimal** (Algorithm 6): exact
//!   branch-and-bound over all migrations, with the mPareto result as the
//!   incumbent.
//! * [`baselines`] — **NoMigration**, and the two state-of-the-art *VM*
//!   migration schemes the paper compares against: **PLAN** \[17\]
//!   (utility-greedy VM moves under host slot capacities) and **MCF** \[24\]
//!   (global VM reassignment as a minimum-cost flow on [`ppdc_mcf`]).

// Solver and engine code never panics: failures surface as typed errors
// (DESIGN.md §6b). A documented panicking facade carries a reasoned
// `#[expect]`, and test modules opt back in.
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
#![deny(clippy::todo, clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::panic, clippy::unreachable, clippy::unimplemented))]
#![cfg_attr(test, allow(clippy::todo, clippy::unwrap_used, clippy::expect_used))]
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
// Cost/NodeId arithmetic converts with `From`/`try_from`; each bare `as`
// that is lossless by construction carries an `#[expect]` with its reason.
#![deny(clippy::as_conversions)]
#![cfg_attr(test, allow(clippy::as_conversions))]

pub mod baselines;
pub mod frontier;
pub mod mpareto;
pub mod optimal;

pub use baselines::{mcf_vm_migration, no_migration, plan_vm_migration, VmMigrationOutcome};
pub use frontier::{is_convex, migration_paths, parallel_frontiers, pareto_front, FrontierPoint};
pub use mpareto::{mpareto, MigrationOutcome};
pub use optimal::optimal_migration;

use ppdc_model::ModelError;
use ppdc_placement::PlacementError;

/// Errors produced by migration solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MigrationError {
    /// Invalid model input.
    Model(ModelError),
    /// The placement step inside the solver failed.
    Placement(PlacementError),
    /// The MCF baseline's flow network was infeasible.
    Infeasible(&'static str),
    /// A migration endpoint pair sits in different components of a
    /// partitioned fabric (no path between them exists).
    Unreachable {
        /// The VNF's current switch.
        from: ppdc_topology::NodeId,
        /// The unreachable target switch.
        to: ppdc_topology::NodeId,
    },
    /// A caller-supplied migration path holds no switches at all, so no
    /// frontier row can place the VNF (paths from
    /// [`frontier::migration_paths`] always hold at least the source).
    EmptyMigrationPath {
        /// Index of the VNF whose path was empty.
        vnf: usize,
    },
}

impl From<ModelError> for MigrationError {
    fn from(e: ModelError) -> Self {
        MigrationError::Model(e)
    }
}

impl From<PlacementError> for MigrationError {
    fn from(e: PlacementError) -> Self {
        MigrationError::Placement(e)
    }
}

impl std::fmt::Display for MigrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrationError::Model(e) => write!(f, "model error: {e}"),
            MigrationError::Placement(e) => write!(f, "placement error: {e}"),
            MigrationError::Infeasible(what) => write!(f, "infeasible: {what}"),
            MigrationError::Unreachable { from, to } => write!(
                f,
                "no path from switch {} to switch {} (fabric partitioned)",
                from.index(),
                to.index()
            ),
            MigrationError::EmptyMigrationPath { vnf } => {
                write!(f, "migration path for VNF {vnf} holds no switches")
            }
        }
    }
}

impl std::error::Error for MigrationError {}

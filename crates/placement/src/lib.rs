//! **TOP — traffic-optimal VNF placement** (Section IV of the paper).
//!
//! Given a PPDC, a workload of VM flows with rates `λ`, and an SFC of `n`
//! VNFs, find the placement `p : F → V_s` minimizing the total
//! communication cost `C_a(p)` of Eq. 1.
//!
//! Solvers (paper's Table II):
//!
//! * [`dp_placement`] — **DP** (Algorithm 3): enumerate ingress/egress
//!   switch pairs, solve an `(n−2)`-stroll between them with the shared-
//!   target DP of Algorithm 2, pick the cheapest assembly. Parallelized
//!   over egress switches with rayon.
//! * [`dp_placement_warm`] — the same sweep warm-started for streaming
//!   epochs: a persistent [`BoundCache`] of bound terms and egress order
//!   plus incumbent seeding, bit-identical to the cold solve ([`warm`]).
//! * [`optimal_placement`] — **Optimal** (Algorithm 4): exact
//!   branch-and-bound over ordered distinct switch sequences (see
//!   [`optimal`] for the bound); [`exhaustive_placement`] is the paper's
//!   literal `O(|V_s|ⁿ)` enumeration for small cross-checks.
//! * [`steering_placement`] — **Steering** \[55\]: one-by-one greedy
//!   placement in dependency order.
//! * [`greedy_placement`] — **Greedy** (Liu et al. \[34\]): cost-score
//!   placement with an unplaced-MB lookahead term.
//! * [`top1`] — the TOP-1 single-flow entry points used by Fig. 7, wiring
//!   the n-stroll solvers of [`ppdc_stroll`] to placements.
//!
//! Two of the paper's future-work directions are implemented as
//! extensions: [`replication`] (multiple instances per VNF with per-flow
//! nearest-replica routing) and [`scaling`] (VNFs that shrink or grow the
//! traffic they forward, e.g. filtering firewalls).
//!
//! All solvers return the placement *and* its exact `C_a` (recomputed via
//! the attach-cost aggregates of [`AttachAggregates`], so reported costs
//! are always consistent with [`ppdc_model::comm_cost`]).

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

pub mod aggregates;
pub mod baselines;
pub mod dp;
pub mod optimal;
pub mod replication;
pub mod scaling;
pub mod top1;
pub mod warm;

pub use aggregates::{AggregateError, AttachAggregates, HostMassDelta};
pub use baselines::{greedy_placement, steering_placement};
pub use dp::{dp_placement, dp_placement_exhaustive, placement_cost_lower_bound};
pub use optimal::{exhaustive_placement, optimal_placement, ChainTerms};
pub use replication::{
    comm_cost_replicated, flow_cost_replicated, greedy_replication, ReplicatedPlacement,
};
pub use scaling::{
    comm_cost_scaled, optimal_placement_scaled, scaled_segment_rates, TrafficScaling,
};
pub use top1::{top1_dp, top1_optimal, top1_primal_dual, Top1Solution};
pub use warm::{dp_placement_warm, BoundCache};

use ppdc_model::ModelError;
use ppdc_stroll::StrollError;

/// Errors produced by placement solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// Invalid model input (bad SFC, too few switches, …).
    Model(ModelError),
    /// The underlying stroll solver failed.
    Stroll(StrollError),
    /// The workload has no flows — TOP is vacuous without traffic.
    NoFlows,
}

impl From<ModelError> for PlacementError {
    fn from(e: ModelError) -> Self {
        PlacementError::Model(e)
    }
}

impl From<StrollError> for PlacementError {
    fn from(e: StrollError) -> Self {
        PlacementError::Stroll(e)
    }
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Model(e) => write!(f, "model error: {e}"),
            PlacementError::Stroll(e) => write!(f, "stroll error: {e}"),
            PlacementError::NoFlows => write!(f, "workload has no flows"),
        }
    }
}

impl std::error::Error for PlacementError {}

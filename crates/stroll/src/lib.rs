//! The **n-stroll problem** and its solvers (Section IV of the paper).
//!
//! Given a weighted graph, two terminals `s` and `t`, and an integer `n`,
//! the n-stroll problem asks for a minimum-length `s`–`t` *walk* that visits
//! at least `n` distinct nodes other than `s` and `t`. When `s = t` it is
//! the n-tour problem. Theorem 1 of the paper shows the single-flow VNF
//! placement problem (TOP-1) is exactly n-stroll on the subgraph induced by
//! the two hosts and all switches, so this crate is the algorithmic core of
//! the whole framework.
//!
//! Three solvers are provided, matching the paper's Table II:
//!
//! * [`dp::dp_stroll`] — **DP-Stroll** (Algorithm 2): an exact DP over the
//!   *metric closure* for strolls of a fixed edge count, with the edge count
//!   grown until `n` distinct nodes appear. A fast heuristic for n-stroll
//!   that is optimal under the condition of Theorem 3 and lands within a few
//!   percent of optimal empirically (Fig. 7).
//! * [`exact::optimal_stroll`] — **Optimal**: exact branch-and-bound over
//!   waypoint sequences in the metric closure (in a metric, some optimal
//!   stroll is a simple waypoint path, so searching ordered subsets is
//!   complete). Exponential worst case; used as the benchmark baseline.
//! * [`primal_dual::primal_dual_stroll`] — **PrimalDual** (Algorithm 1): a
//!   Goemans–Williamson moat-growing prize-collecting Steiner tree with a
//!   binary search on the uniform node prize, doubled and shortcut into a
//!   stroll; the `2 + ε` approximation of Chaudhuri et al. \[10\].
//!
//! All solvers consume a [`StrollInstance`] built on a
//! [`ppdc_topology::MetricClosure`] and produce a [`StrollSolution`] whose
//! invariants are machine-checkable with
//! [`StrollSolution::validate`].

// The solver crates carry the workspace no-panic discipline at the
// compiler level too: ppdc-analyzer rule R1 catches unwrap/expect
// lexically, clippy enforces it semantically.
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
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

pub mod dp;
pub mod exact;
pub mod instance;
pub mod primal_dual;

pub use dp::{dp_stroll, dp_stroll_all_sources, DpBatchSolver, DpTables};
pub use exact::{exhaustive_stroll, optimal_stroll};
pub use instance::{StrollInstance, StrollSolution};
pub use primal_dual::{primal_dual_stroll, PrimalDualConfig};

/// Whether a branch-and-bound result is provably optimal or a best-so-far
/// incumbent cut short by its expansion deadline.
///
/// This is the *degraded-solver contract* shared by every NP-hard search in
/// the workspace (exact n-stroll, optimal placement, optimal migration):
/// each search has one budgeted entry point that always returns a
/// **feasible** solution — on budget exhaustion the incumbent found so
/// far, flagged [`Exactness::Degraded`], instead of an error. A 24-hour
/// simulated day therefore always completes, merely with a weaker
/// guarantee on the hours where the deadline bit. Strict callers that must
/// report "not computed" rather than an unproven bound check the flag
/// themselves (e.g. mapping a degraded result to
/// [`StrollError::BudgetExhausted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// The search ran to completion; the result is provably optimal.
    Exact,
    /// The expansion budget ran out after `explored` expansions; the result
    /// is the best incumbent found, feasible but not provably optimal.
    Degraded {
        /// Expansions performed before the deadline hit.
        explored: u64,
    },
}

impl Exactness {
    /// True for [`Exactness::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, Exactness::Exact)
    }
}

/// Errors produced by stroll solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrollError {
    /// Fewer than `n` candidate intermediate nodes exist.
    TooFewNodes { available: usize, needed: usize },
    /// `s` or `t` is not a member of the closure.
    TerminalNotInClosure,
    /// Some required node is unreachable (infinite closure cost).
    Unreachable,
    /// The DP edge-count growth exceeded its safety cap without finding `n`
    /// distinct nodes (cannot happen on connected metric closures with the
    /// default cap; reported rather than looping).
    NoConvergence { max_edges: usize },
    /// The branch-and-bound node budget was exhausted before the search
    /// completed; the result would not be provably optimal.
    BudgetExhausted { budget: u64 },
}

impl std::fmt::Display for StrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrollError::TooFewNodes { available, needed } => {
                write!(
                    f,
                    "need {needed} distinct intermediate nodes, only {available} exist"
                )
            }
            StrollError::TerminalNotInClosure => write!(f, "terminal not in metric closure"),
            StrollError::Unreachable => write!(f, "graph is disconnected: some node unreachable"),
            StrollError::NoConvergence { max_edges } => {
                write!(
                    f,
                    "DP did not reach n distinct nodes within {max_edges} edges"
                )
            }
            StrollError::BudgetExhausted { budget } => {
                write!(f, "branch-and-bound budget of {budget} nodes exhausted")
            }
        }
    }
}

impl std::error::Error for StrollError {}

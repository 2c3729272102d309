//! The PPDC system model of the paper (Section III).
//!
//! Types here mirror the paper's notation (Table I):
//!
//! | Paper | Here |
//! |---|---|
//! | `G(V = V_h ∪ V_s, E)` | [`ppdc_topology::Graph`] |
//! | `F = {f₁ … f_n}` (SFC) | [`Sfc`] |
//! | `P = {(v_i, v'_i)}`, `λ_i` | [`Workload`] ([`Flow`], rates) |
//! | `s(v)` (VM's host) | [`Workload::host_of`] |
//! | `p(j)` / `m(j)` | [`Placement`] |
//! | `C_a(p)` (Eq. 1) | [`cost::comm_cost`] |
//! | `C_b(p, m)` | [`cost::migration_cost`] |
//! | `C_t(p, m)` (Eq. 8) | [`cost::total_cost`] |
//! | `μ` (migration coefficient) | [`MigrationCoefficient`] |
//!
//! The cost model is *topology-aware*: both VM communication and VNF
//! migration are charged along shortest paths in the fabric, which is what
//! lets TOP and TOM live in one problem space.

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

pub mod cost;
pub mod sfc;
pub mod vm;

pub use cost::{
    attach_cost, chain_cost, chain_cost_switches, comm_cost, comm_cost_flow, migration_cost,
    total_cost, MigrationCoefficient,
};
pub use sfc::{Placement, Sfc};
pub use vm::{Flow, FlowId, HostCapacities, VmId, Workload};

use ppdc_topology::NodeId;

/// Errors produced by model construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A placement slot refers to a non-switch node.
    NotASwitch(NodeId),
    /// A placement uses the same switch for two VNFs (the paper assumes
    /// different VNFs of an SFC sit on different switches).
    DuplicateSwitch(NodeId),
    /// Placement length differs from the SFC length.
    WrongLength { expected: usize, got: usize },
    /// An SFC must contain at least one VNF.
    EmptySfc,
    /// There are fewer switches than VNFs to place.
    TooFewSwitches { switches: usize, vnfs: usize },
    /// A VM id was out of range.
    UnknownVm(VmId),
    /// A flow id was out of range.
    UnknownFlow(FlowId),
    /// A VM was assigned to a non-host node.
    NotAHost(NodeId),
    /// A host has no free VM slot.
    HostFull(NodeId),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NotASwitch(n) => write!(f, "node {} is not a switch", n.index()),
            ModelError::DuplicateSwitch(n) => {
                write!(f, "switch {} hosts two VNFs of the same SFC", n.index())
            }
            ModelError::WrongLength { expected, got } => {
                write!(
                    f,
                    "placement length {got} does not match SFC length {expected}"
                )
            }
            ModelError::EmptySfc => write!(f, "an SFC must contain at least one VNF"),
            ModelError::TooFewSwitches { switches, vnfs } => {
                write!(f, "cannot place {vnfs} VNFs on {switches} switches")
            }
            ModelError::UnknownVm(v) => write!(f, "unknown VM id {}", v.0),
            ModelError::UnknownFlow(fl) => write!(f, "unknown flow id {}", fl.0),
            ModelError::NotAHost(n) => write!(f, "node {} is not a host", n.index()),
            ModelError::HostFull(n) => write!(f, "host {} has no free VM slot", n.index()),
        }
    }
}

impl std::error::Error for ModelError {}

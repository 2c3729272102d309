//! Network-topology substrate for policy-preserving data centers (PPDCs).
//!
//! This crate provides everything the placement/migration layers need to
//! reason about a data-center fabric:
//!
//! * [`Graph`] — an undirected, weighted graph over typed nodes
//!   (hosts and switches), stored as adjacency lists with `u32` node ids.
//! * [`builders`] — canonical data-center topologies: k-ary fat-trees
//!   (Al-Fares et al., SIGCOMM'08), linear chains (Fig. 1 of the paper),
//!   leaf–spine fabrics, and stars.
//! * [`shortest`] — single-source Dijkstra/BFS, all-pairs distance matrices
//!   with path reconstruction, connectivity and diameter queries.
//! * [`oracle`] — the [`DistanceOracle`] trait over distance queries, with
//!   the dense matrix and a zero-build O(1) closed-form fat-tree oracle
//!   ([`FatTreeOracle`]) as interchangeable, bit-identical implementations.
//! * [`metric`] — metric closures over node subsets, the input of the
//!   n-stroll dynamic program (Algorithm 2 of the paper).
//!
//! Costs are exact unsigned integers ([`Cost`]): a hop in an unweighted PPDC
//! costs 1, a weighted link carries its delay in integer micro-units. Exact
//! arithmetic keeps every algorithm deterministic and makes optimality
//! assertions in tests meaningful.
//!
//! For fault tolerance, [`fault`] overlays failed links/switches/hosts on a
//! graph ([`FaultSet`]), materializes the surviving fabric
//! ([`Graph::degraded_view`]) with stable node ids, and reports connectivity
//! components ([`Partition`]).

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

pub mod builders;
pub mod fault;
pub mod graph;
pub mod metric;
pub mod oracle;
pub mod shortest;

pub use builders::{fat_tree, leaf_spine, linear, star, FatTree};
pub use fault::{FaultSet, Partition};
pub use graph::{mint_u32, sat_add, sat_mul, Cost, EdgeId, Graph, NodeId, NodeKind, INFINITY};
pub use metric::MetricClosure;
pub use oracle::{DistanceOracle, FatTreeCoord, FatTreeOracle};
pub use shortest::{DistanceMatrix, ShortestPaths};

/// Errors produced by topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The requested fat-tree arity is invalid (must be even and ≥ 2).
    InvalidArity(usize),
    /// A node id was out of range for the graph it was used with.
    UnknownNode(NodeId),
    /// An edge id was out of range for the graph it was used with.
    UnknownEdge(EdgeId),
    /// An edge endpoint pair was invalid (e.g. a self loop).
    InvalidEdge(NodeId, NodeId),
    /// The graph is disconnected where a connected one is required.
    Disconnected,
    /// A builder parameter was out of range.
    InvalidParameter(&'static str),
    /// A dense structure over `nodes` nodes would need `bytes` bytes,
    /// exceeding the configured memory budget.
    TooLarge {
        /// Node count of the offending graph.
        nodes: usize,
        /// Bytes the dense structure would allocate.
        bytes: u64,
        /// The budget that was exceeded.
        budget: u64,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::InvalidArity(k) => {
                write!(f, "invalid fat-tree arity k={k}: k must be even and >= 2")
            }
            TopologyError::UnknownNode(n) => write!(f, "unknown node id {}", n.index()),
            TopologyError::UnknownEdge(e) => write!(f, "unknown edge id {}", e.index()),
            TopologyError::InvalidEdge(u, v) => {
                write!(f, "invalid edge ({}, {})", u.index(), v.index())
            }
            TopologyError::Disconnected => write!(f, "graph is disconnected"),
            TopologyError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            TopologyError::TooLarge {
                nodes,
                bytes,
                budget,
            } => write!(
                f,
                "dense distance matrix over {nodes} nodes needs {bytes} bytes, over the \
                 {budget}-byte budget (raise PPDC_APSP_BUDGET_BYTES or use an analytic oracle)"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

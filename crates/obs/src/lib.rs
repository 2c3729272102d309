//! `ppdc-obs` — offline, zero-dependency structured observability.
//!
//! The ROADMAP's north star ("as fast as the hardware allows") is
//! unfalsifiable without instrument-grade data on where epoch time goes.
//! This crate is the measurement layer every perf PR is judged against:
//!
//! * **Span timers** — [`Registry::span`] returns a guard that records a
//!   monotonic ([`std::time::Instant`]) duration into a named
//!   [`SpanStat`] (count / total / min / max) when dropped.
//! * **Counters** — [`Registry::add`] accumulates named `u64` totals.
//! * **Fixed-bucket histograms** — [`Registry::record_hist`] tallies
//!   values into [`DURATION_BUCKET_BOUNDS_NS`]-bounded buckets (1 µs …
//!   1 s, plus an overflow bucket).
//! * **Sinks** — library crates never print (`clippy::print_stdout` &
//!   co. are denied in each `lib.rs`): per-event output goes through the
//!   [`Sink`] abstraction instead. [`MemorySink`] backs tests;
//!   [`JsonLinesSink`] streams JSON-lines to any `io::Write` for runs.
//! * **Snapshots** — [`Registry::snapshot`] freezes the aggregates into a
//!   [`Snapshot`] whose [`Snapshot::to_json`] output is the machine-
//!   readable per-phase summary the experiments CLI exports with
//!   `--metrics <path>` (and the structured source for BENCH_*.json
//!   numbers). [`json`] carries the matching hand-rolled parser so schema
//!   checks stay dependency-free too.
//!
//! ## The global registry
//!
//! Hot-path instrumentation sits inside library crates (`ppdc-topology`'s
//! APSP rebuild, `ppdc-placement`'s aggregates, every solver) whose
//! signatures must not grow a registry parameter. Those sites record into
//! [`global()`], which starts **disabled**: a disabled registry reduces
//! every call to one relaxed atomic load, and — crucially — recording
//! never feeds back into any computation, so enabling metrics cannot
//! change costs or placements. Binaries opt in with
//! [`global()`]`.enable()`; tests that need isolation construct their own
//! [`Registry`].
//!
//! Timing values are inherently nondeterministic; everything else in a
//! seeded run stays bit-reproducible because this crate only ever
//! *observes*.

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

pub mod json;
mod registry;
mod sink;

pub use registry::{
    global, Histogram, Registry, Snapshot, SpanGuard, SpanStat, Stopwatch,
    DURATION_BUCKET_BOUNDS_NS, SCHEMA_VERSION,
};
pub use sink::{Event, JsonLinesSink, MemorySink, Sink};

/// Canonical metric names for the epoch hot path.
///
/// Centralizing the strings keeps producers (instrumented crates) and
/// consumers (the experiments CLI's `--check-metrics`, schema tests, BENCH
/// tooling) agreeing on one vocabulary, and lets the simulator pre-declare
/// every key so a run's summary has a stable schema even when a phase
/// never fires (e.g. a day without placement repair).
pub mod names {
    /// Declares each metric name once, as a documented `pub const`, inside
    /// the list of its kind; each list holds its names in declaration order.
    macro_rules! metric_names {
        ($($(#[$list_doc:meta])* $list:ident {
            $($(#[$doc:meta])* $name:ident = $value:literal;)*
        })*) => {
            $(
                $($(#[$doc])* pub const $name: &str = $value;)*
                $(#[$list_doc])* pub const $list: &[&str] = &[$($name),*];
            )*
        };
    }

    metric_names! {
        /// Every span name the epoch loop pre-declares.
        SPANS {
            /// Full APSP build (`DistanceMatrix::build`).
            APSP_BUILD = "apsp.build";
            /// In-place dirty-row APSP recompute (`DistanceMatrix::rebuild_dirty`);
            /// the name predates that method and is kept so metrics files stay
            /// comparable.
            APSP_REBUILD = "apsp.rebuild_into";
            /// Full attach-aggregate build (`AttachAggregates::build`).
            AGG_BUILD = "agg.build";
            /// Candidate-restricted aggregate build (degraded fabrics).
            AGG_BUILD_RESTRICTED = "agg.build_restricted";
            /// Incremental host-mass fold (`AttachAggregates::try_apply_mass_deltas`);
            /// the name predates that method and is kept so metrics files stay
            /// comparable.
            AGG_APPLY_DELTAS = "agg.apply_rate_deltas";
            /// Algorithm 3 (DP placement).
            SOLVER_DP = "solver.dp_placement";
            /// Algorithm 4 (exact placement branch-and-bound).
            SOLVER_OPTIMAL_PLACEMENT = "solver.optimal_placement";
            /// Algorithm 5 (mPareto frontier migration).
            SOLVER_MPARETO = "solver.mpareto";
            /// Algorithm 6 (exact migration branch-and-bound).
            SOLVER_OPTIMAL_MIGRATION = "solver.optimal_migration";
            /// PLAN VM-migration baseline.
            SOLVER_PLAN = "solver.plan_vm";
            /// MCF VM-migration baseline.
            SOLVER_MCF = "solver.mcf_vm";
            /// Degraded-view + distance-matrix + aggregate rebuild on event hours.
            SIM_DEGRADED_REBUILD = "sim.degraded_rebuild";
            /// Placement repair (recovery re-place after losing a switch).
            SIM_REPAIR = "sim.placement_repair";
            /// One streaming delta-batch ingest: net, validate and commit in the
            /// flow store, then the aggregate fold.
            STREAM_INGEST = "stream.ingest";
            /// One warm-started Algorithm 3 solve (`dp_placement_warm`): bound
            /// cache refresh (unless the epoch's certificate already ran it),
            /// incumbent seeding, and the seeded sweep.
            SOLVER_WARM = "solver.warm";
        }
        /// Every counter name the epoch loop pre-declares.
        COUNTERS {
            /// Simulated hours driven to completion.
            SIM_HOURS = "sim.hours";
            /// Hours that applied at least one fail/repair event.
            SIM_EVENT_HOURS = "sim.event_hours";
            /// Hours skipped as blackouts.
            SIM_BLACKOUT_HOURS = "sim.blackout_hours";
            /// VNFs moved or re-instantiated by placement repair.
            SIM_RECOVERY_MIGRATIONS = "sim.recovery_migrations";
            /// Flow-hours masked out because an endpoint was stranded.
            SIM_STRANDED_FLOW_HOURS = "sim.stranded_flow_hours";
            /// Egress candidates pruned by Algorithm 3's admissible-bound test.
            SOLVER_DP_EGRESS_PRUNED = "solver.dp.egress_pruned";
            /// Source rows the dirty-row APSP rebuild actually re-ran.
            APSP_ROWS_DIRTY = "apsp.rows_dirty";
            /// Point distance queries answered by a `DistanceOracle` (batched:
            /// closure fills and aggregate builds add their whole query count).
            ORACLE_QUERIES = "oracle.queries";
            /// Candidate rows/egresses skipped because an interchangeability class
            /// they share a bound with was pruned as a whole.
            SOLVER_DP_ORBIT_PRUNED = "solver.dp.orbit_pruned";
            /// Transient solver failures absorbed by the supervisor's retry gate.
            SUPERVISOR_RETRIES = "supervisor.retries";
            /// Hours served by a degraded rung of the ladder (deadline-degraded
            /// incumbent or last-known-good repricing) instead of an exact solve.
            SUPERVISOR_DEGRADED_HOURS = "supervisor.degraded_hours";
            /// Checkpoint journal writes: a whole journal (atomic tmp + fsync +
            /// rename) or one synced appended line.
            CKPT_WRITES = "ckpt.writes";
            /// Nanoseconds spent serializing + durably writing checkpoints.
            CKPT_WRITE_NANOS = "ckpt.write_nanos";
            /// Days resumed from a persisted checkpoint instead of hour zero.
            CKPT_RESTORES = "ckpt.restores";
            /// Checkpoint loads whose journal ended in a torn (unterminated) tail,
            /// which the reader dropped to recover the snapshot before it.
            CKPT_TORN_RECOVERIES = "ckpt.torn_recoveries";
            /// Accumulated absolute rate drift `Σ|Δλ|` ingested by the streaming
            /// engine (the drift tracker's raw material).
            STREAM_DRIFT = "stream.drift";
            /// Rate-delta records ingested by the streaming engine.
            STREAM_DELTAS = "stream.deltas";
            /// Epochs where the drift tracker re-ran the placement solver.
            STREAM_RESOLVES = "stream.resolves";
            /// Epochs served by the stale incumbent: drift stayed under the
            /// threshold, or the admissible-bound staleness certificate cleared
            /// it. Pairs with [`STREAM_DRIFT`].
            STREAM_RESOLVES_SKIPPED = "stream.resolves_skipped";
            /// Slot class histograms a grouped stream flow store built, one at
            /// its first scale-moved step: each marks a day whose dense steps
            /// sum per-slot class counts instead of scattering every flow.
            STREAM_SLOT_HISTOGRAM_BUILDS = "sim.stream.slot_histogram_builds";
            /// Warm solves that installed a priced feasible incumbent as the
            /// sweep's initial upper bound.
            SOLVER_WARM_SEEDED = "solver.warm.seeded";
            /// Bound-cache rows recomputed by a refresh because their attach
            /// aggregates moved (full rebuilds count every row).
            SOLVER_WARM_ROWS_DIRTY = "solver.warm.rows_dirty";
            /// Bound-cache rows reused verbatim by a refresh (the certificate's
            /// or a warm solve's).
            SOLVER_WARM_ROWS_REUSED = "solver.warm.rows_reused";
            /// Egresses dropped before the sweep because their cached bound
            /// already exceeded the seeded incumbent.
            SOLVER_WARM_EGRESS_SKIPPED = "solver.warm.egress_skipped";
        }
        /// Every histogram name the epoch loop pre-declares.
        HISTS {
            /// Per-hour wall time spent in the policy/repair solve.
            SIM_HOUR_SOLVER_NS = "sim.hour_solver_ns";
        }
    }
}

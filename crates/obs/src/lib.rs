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
    /// Full APSP build (`DistanceMatrix::build`).
    pub const APSP_BUILD: &str = "apsp.build";
    /// In-place APSP recompute (`DistanceMatrix::rebuild_into`).
    pub const APSP_REBUILD: &str = "apsp.rebuild_into";
    /// Full attach-aggregate build (`AttachAggregates::build`).
    pub const AGG_BUILD: &str = "agg.build";
    /// Candidate-restricted aggregate build (degraded fabrics).
    pub const AGG_BUILD_RESTRICTED: &str = "agg.build_restricted";
    /// Incremental delta fold (`AttachAggregates::apply_rate_deltas`).
    pub const AGG_APPLY_DELTAS: &str = "agg.apply_rate_deltas";
    /// How many individual rate deltas the incremental folds consumed.
    pub const AGG_DELTAS_APPLIED: &str = "agg.rate_deltas_applied";
    /// Algorithm 3 (DP placement).
    pub const SOLVER_DP: &str = "solver.dp_placement";
    /// Algorithm 4 (exact placement branch-and-bound).
    pub const SOLVER_OPTIMAL_PLACEMENT: &str = "solver.optimal_placement";
    /// Algorithm 5 (mPareto frontier migration).
    pub const SOLVER_MPARETO: &str = "solver.mpareto";
    /// Algorithm 6 (exact migration branch-and-bound).
    pub const SOLVER_OPTIMAL_MIGRATION: &str = "solver.optimal_migration";
    /// PLAN VM-migration baseline.
    pub const SOLVER_PLAN: &str = "solver.plan_vm";
    /// MCF VM-migration baseline.
    pub const SOLVER_MCF: &str = "solver.mcf_vm";
    /// Degraded-view + distance-matrix + aggregate rebuild on event hours.
    pub const SIM_DEGRADED_REBUILD: &str = "sim.degraded_rebuild";
    /// Placement repair (recovery re-place after losing a switch).
    pub const SIM_REPAIR: &str = "sim.placement_repair";
    /// Simulated hours driven to completion.
    pub const SIM_HOURS: &str = "sim.hours";
    /// Hours that applied at least one fail/repair event.
    pub const SIM_EVENT_HOURS: &str = "sim.event_hours";
    /// Hours skipped as blackouts.
    pub const SIM_BLACKOUT_HOURS: &str = "sim.blackout_hours";
    /// VNFs moved or re-instantiated by placement repair.
    pub const SIM_RECOVERY_MIGRATIONS: &str = "sim.recovery_migrations";
    /// Flow-hours masked out because an endpoint was stranded.
    pub const SIM_STRANDED_FLOW_HOURS: &str = "sim.stranded_flow_hours";
    /// Per-hour wall time spent in the policy/repair solve.
    pub const SIM_HOUR_SOLVER_NS: &str = "sim.hour_solver_ns";
    /// Egress candidates pruned by Algorithm 3's admissible-bound test.
    pub const SOLVER_DP_EGRESS_PRUNED: &str = "solver.dp.egress_pruned";
    /// Source rows the dirty-row APSP rebuild actually re-ran.
    pub const APSP_ROWS_DIRTY: &str = "apsp.rows_dirty";
    /// Point distance queries answered by a `DistanceOracle` (batched:
    /// closure fills and aggregate builds add their whole query count).
    pub const ORACLE_QUERIES: &str = "oracle.queries";
    /// Candidate rows/egresses skipped because an interchangeability class
    /// they share a bound with was pruned as a whole.
    pub const SOLVER_DP_ORBIT_PRUNED: &str = "solver.dp.orbit_pruned";
    /// Transient solver failures absorbed by the supervisor's retry gate.
    pub const SUPERVISOR_RETRIES: &str = "supervisor.retries";
    /// Hours served by a degraded rung of the ladder (deadline-degraded
    /// incumbent or last-known-good repricing) instead of an exact solve.
    pub const SUPERVISOR_DEGRADED_HOURS: &str = "supervisor.degraded_hours";
    /// Checkpoint snapshots written (atomic tmp + fsync + rename).
    pub const CKPT_WRITES: &str = "ckpt.writes";
    /// Nanoseconds spent serializing + durably writing checkpoints.
    pub const CKPT_WRITE_NANOS: &str = "ckpt.write_nanos";
    /// Days resumed from a persisted checkpoint instead of hour zero.
    pub const CKPT_RESTORES: &str = "ckpt.restores";
    /// Loads that fell back to the previous good snapshot because the
    /// primary slot was torn or unparseable.
    pub const CKPT_TORN_RECOVERIES: &str = "ckpt.torn_recoveries";
    /// Hours whose healthy-baseline reroute telemetry was skipped because
    /// the APSP byte budget refused the full healthy matrix.
    pub const SIM_REROUTE_SKIPPED: &str = "sim.reroute_skipped_hours";
    /// One streaming delta-batch ingest: net, validate and commit in the
    /// flow store, then the aggregate fold.
    pub const STREAM_INGEST: &str = "stream.ingest";
    /// Accumulated absolute rate drift `Σ|Δλ|` ingested by the streaming
    /// engine (the drift tracker's raw material).
    pub const STREAM_DRIFT: &str = "stream.drift";
    /// Rate-delta records ingested by the streaming engine.
    pub const STREAM_DELTAS: &str = "stream.deltas";
    /// Epochs where the drift tracker re-ran the placement solver.
    pub const STREAM_RESOLVES: &str = "stream.resolves";
    /// Epochs served by the stale incumbent: drift stayed under the
    /// threshold, or the admissible-bound staleness certificate cleared
    /// it. Pairs with [`STREAM_DRIFT`].
    pub const STREAM_RESOLVES_SKIPPED: &str = "stream.resolves_skipped";
    /// One warm-started Algorithm 3 solve (`dp_placement_warm`): bound
    /// cache refresh (unless the epoch's certificate already ran it),
    /// incumbent seeding, and the seeded sweep.
    pub const SOLVER_WARM: &str = "solver.warm";
    /// Warm solves that installed a priced feasible incumbent as the
    /// sweep's initial upper bound.
    pub const SOLVER_WARM_SEEDED: &str = "solver.warm.seeded";
    /// Bound-cache rows recomputed by a refresh because their attach
    /// aggregates moved (full rebuilds count every row).
    pub const SOLVER_WARM_ROWS_DIRTY: &str = "solver.warm.rows_dirty";
    /// Bound-cache rows reused verbatim by a refresh (the certificate's
    /// or a warm solve's).
    pub const SOLVER_WARM_ROWS_REUSED: &str = "solver.warm.rows_reused";
    /// Egresses dropped before the sweep because their cached bound
    /// already exceeded the seeded incumbent.
    pub const SOLVER_WARM_EGRESS_SKIPPED: &str = "solver.warm.egress_skipped";

    /// Every span name the epoch loop pre-declares.
    pub const SPANS: &[&str] = &[
        APSP_BUILD,
        APSP_REBUILD,
        AGG_BUILD,
        AGG_BUILD_RESTRICTED,
        AGG_APPLY_DELTAS,
        SOLVER_DP,
        SOLVER_OPTIMAL_PLACEMENT,
        SOLVER_MPARETO,
        SOLVER_OPTIMAL_MIGRATION,
        SOLVER_PLAN,
        SOLVER_MCF,
        SIM_DEGRADED_REBUILD,
        SIM_REPAIR,
        STREAM_INGEST,
        SOLVER_WARM,
    ];
    /// Every counter name the epoch loop pre-declares.
    pub const COUNTERS: &[&str] = &[
        AGG_DELTAS_APPLIED,
        SIM_HOURS,
        SIM_EVENT_HOURS,
        SIM_BLACKOUT_HOURS,
        SIM_RECOVERY_MIGRATIONS,
        SIM_STRANDED_FLOW_HOURS,
        SOLVER_DP_EGRESS_PRUNED,
        APSP_ROWS_DIRTY,
        ORACLE_QUERIES,
        SOLVER_DP_ORBIT_PRUNED,
        SUPERVISOR_RETRIES,
        SUPERVISOR_DEGRADED_HOURS,
        CKPT_WRITES,
        CKPT_WRITE_NANOS,
        CKPT_RESTORES,
        CKPT_TORN_RECOVERIES,
        SIM_REROUTE_SKIPPED,
        STREAM_DRIFT,
        STREAM_DELTAS,
        STREAM_RESOLVES,
        STREAM_RESOLVES_SKIPPED,
        SOLVER_WARM_SEEDED,
        SOLVER_WARM_ROWS_DIRTY,
        SOLVER_WARM_ROWS_REUSED,
        SOLVER_WARM_EGRESS_SKIPPED,
    ];
    /// Every histogram name the epoch loop pre-declares.
    pub const HISTS: &[&str] = &[SIM_HOUR_SOLVER_NS];
}

//! PPDC lifetime simulation (the paper's Fig. 11 experiments).
//!
//! The framework's salient feature is lifetime optimization: **TOP** builds
//! the initial traffic-optimal placement once, then **TOM** runs every hour
//! as the diurnal rate vector shifts. [`run_day`] is that hourly loop for a
//! chosen [`MigrationPolicy`] — mPareto, exact VNF migration, the PLAN/MCF
//! VM-migration baselines, or NoMigration — and records per-hour costs and
//! migration counts ([`HourRecord`]). A fault-free day is a run with an
//! empty [`FaultSchedule`] and `EngineConfig::default()`.
//!
//! [`stats`] provides the 20-run mean / 95 % confidence-interval summaries
//! every plotted data point uses; [`report`] renders aligned tables and CSV
//! for the experiment binaries.
//!
//! [`fault`] hardens the loop against infrastructure failures: given
//! scheduled link/switch failures ([`FaultSchedule`]), [`run_day`]
//! re-elects a serving component, masks stranded flows, and repairs
//! displaced placements — recording per-hour degradation telemetry instead
//! of aborting the day.
//!
//! [`checkpoint`], [`supervisor`], and [`chaos`] harden it against
//! *operator-side* failures: [`run_day`] persists crash-safe
//! `ppdc-ckpt/v3` snapshots every hour and [`resume_day`] finishes an
//! interrupted day bit-identically; a supervised degradation ladder
//! (exact → deadline-degraded → last-known-good) keeps every hour served
//! through solver starvation; and the seeded chaos harness
//! ([`run_chaos_trial`]) turns correlated pod outages, link flaps, torn
//! checkpoints, and resource pressure into asserted invariants.
//!
//! [`stream`] scales the epoch loop to millions of flows:
//! [`run_stream_day`] advances a flat flow-id-order store
//! ([`ShardedFlowStore`]) straight from the trace, hour by hour, with
//! exact per-host mass sums that are order-free, folds them into the
//! live attach aggregates (leaf hosts collapsed onto their ToR), and
//! re-runs the solver only when accumulated drift crosses a threshold —
//! using the admissible placement bound to certify when the stale
//! incumbent is
//! provably close enough to serve. [`resume_stream_day`] restores a
//! `ppdc-stream-ckpt/v3` snapshot — the rates re-derived from the trace,
//! not stored — and finishes the day bit-identically.

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

pub mod chaos;
pub mod checkpoint;
pub mod fault;
pub mod report;
pub mod simulator;
pub mod stats;
pub mod stream;
pub mod supervisor;

pub use chaos::{run_chaos_trial, ChaosConfig, ChaosError, ChaosTrialConfig, ChaosTrialReport};
pub use checkpoint::{Checkpoint, CheckpointStore, CkptError, CkptSlot, CKPT_SCHEMA};
pub use fault::{
    resume_day, run_day, DayRun, DegradedHourRecord, EngineConfig, FaultConfig, FaultEvent,
    FaultKind, FaultSchedule, FaultSimResult, HourProvenance, PhaseNanos, ScheduleError, SimError,
};
pub use report::Table;
pub use simulator::{HourRecord, MigrationPolicy, SimConfig};
pub use stats::{summarize, Summary};
pub use stream::{
    resume_stream_day, run_stream_day, stream_fingerprint, DriftTracker, EpochAction, EpochRecord,
    IngestReport, RateDelta, ShardedFlowStore, StreamCheckpoint, StreamConfig, StreamError,
    StreamResult, StreamRun, STREAM_CKPT_SCHEMA,
};
pub use supervisor::{SolverStarvation, SupervisorConfig};

//! Streaming million-flow epoch engine (ROADMAP item 1).
//!
//! The batch simulator re-prices a full in-memory rate vector every hour.
//! This module is the step from "reproduce Fig. 7" to "serve millions of
//! users": a long-running engine that moves only the flows whose rates
//! changed and re-runs the placement solver only when the traffic has
//! drifted far enough to matter.
//!
//! Three pieces:
//!
//! - [`ShardedFlowStore`] — flow endpoints and rates in flat
//!   flow-id-order arrays. The engine's epochs arrive as trace hours
//!   through [`ShardedFlowStore::advance`], which steps a
//!   [`TraceCursor`] one hour and overwrites each flow the step reports
//!   as possibly moved with its absolute rate at the new hour — the
//!   listed flows when no cohort scale moved, else every flow, in one
//!   branch-free pass over the hour's base row.
//!   [`ShardedFlowStore::ingest`] is the entry point for
//!   external delta batches: it nets per flow, validates every netted
//!   rate and only then commits. Both paths share one commit routine and
//!   reduce the applied flows to per-host [`HostMassDelta`]s that land on
//!   [`AttachAggregates::try_apply_mass_deltas`] with a single switch
//!   sweep. Every reported sum is order-free — exact `i128` masses and a
//!   saturating sum of non-negative drift terms — so the report is a pure
//!   function of the rate change and equals what a from-scratch rebuild
//!   would differ by. (The name predates the flat layout; it stays until
//!   the benchmark reads engine records instead of calling the store.)
//! - [`DriftTracker`] — accumulates the ingested absolute rate drift
//!   `Σ|Δλ|` and gates the solver: below
//!   [`StreamConfig::drift_threshold`] the epoch is served by the stale
//!   incumbent outright. At or above it, the PR 5 admissible bound
//!   ([`BoundCache::lower_bound`], equal to
//!   [`placement_cost_lower_bound`](ppdc_placement::placement_cost_lower_bound))
//!   prices a **staleness certificate**
//!   `gap = C_a(incumbent) − LB ≥ C_a(incumbent) − C_a(optimal)`: when the
//!   gap is within [`StreamConfig::max_certified_gap`] the incumbent is
//!   provably close enough and the re-solve is skipped too. The
//!   `stream.drift` / `stream.resolves_skipped` counter pair exports how
//!   much churn the engine absorbed without solving.
//! - [`run_stream_day`] / [`resume_stream_day`] — the crash-safe epoch
//!   loop, mirroring the hourly engine: `ppdc-stream-ckpt/v4` snapshots
//!   through the same atomic two-slot [`CheckpointStore`], an input
//!   fingerprint refusing foreign snapshots, and **bit-identical resume**
//!   (no rates are stored: restore re-derives them as
//!   `trace.rates_at(epoch)`, which the fingerprint pins and
//!   [`ShardedFlowStore::advance`] leaves in the live store, then rebuilds
//!   the flow store and aggregates and starts a cursor at `epoch`; the
//!   delta/rebuild equivalence makes the reconstruction exact).
//!
//! Each epoch reports its merged mass deltas to a persistent
//! [`BoundCache`]. An epoch that prices the certificate refreshes the
//! cache once — an `O(m)` diff of every bound row against the snapshot,
//! then the reclassification and egress order when a row or `Σλ` moved —
//! and reads the bound off the order's head. Epochs that do re-solve go
//! through [`dp_placement_warm`] on that already-refreshed cache, and the
//! incumbent placement — priced under the new aggregates — seeds the
//! sweep's upper bound. The warm solve is
//! bit-identical to the cold one (DESIGN.md §10), so nothing downstream
//! can tell; it is just 1–2 orders of magnitude faster on localized
//! churn. The cache is derived state and is **never** checkpointed: a
//! resumed day starts cold and rebuilds it on its first re-solve.

use ppdc_model::{FlowId, ModelError, Placement, Sfc, Workload};
use ppdc_obs::names as obs_names;
use ppdc_placement::{
    dp_placement_warm, AggregateError, AttachAggregates, BoundCache, HostMassDelta, PlacementError,
};
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId};
use ppdc_traffic::{DynamicTrace, HourStep, RateRule, TraceCursor};

use crate::checkpoint::{
    arr_field, as_obj, field, hash_instance, hash_trace, node_ids, push_list, row_u64, str_field,
    to_u32, u64_field, CheckpointStore, CkptError, Fnv,
};

/// Version tag of streaming-engine snapshots; restore rejects anything
/// else (including `ppdc-ckpt/v4` day snapshots, `/v3` stream snapshots,
/// whose fingerprint hashed one dense trace row per hour, and `/v2` ones,
/// which carried the rates).
pub const STREAM_CKPT_SCHEMA: &str = "ppdc-stream-ckpt/v4";

/// One streamed rate change: `new λ − old λ` for one flow. Zero deltas
/// are dropped at ingestion; a batch may carry several deltas for the
/// same flow (they net before anything is applied).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateDelta {
    /// The flow whose rate changed.
    pub flow: FlowId,
    /// The signed rate change.
    pub delta: i64,
}

/// Errors of the streaming engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A delta batch disagreed with the stored rates (aggregate fold
    /// rejected it) — see [`AggregateError`].
    Aggregate(AggregateError),
    /// The drift-triggered re-solve failed.
    Placement(PlacementError),
    /// Invalid model input (rate vector shape, …).
    Model(ModelError),
    /// Checkpoint persistence or restore failed.
    Checkpoint(CkptError),
    /// A delta referenced a flow the store was not built with.
    UnknownFlow {
        /// The foreign flow id.
        flow: FlowId,
    },
    /// The netted batch would drive one flow's rate negative or above
    /// `u64` range. The store is left untouched.
    RateOutOfRange {
        /// The offending flow.
        flow: FlowId,
    },
    /// The trace and workload disagree on the number of flows.
    ShapeMismatch {
        /// Flows in the workload/store.
        flows: usize,
        /// Flows in the trace.
        trace_flows: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Aggregate(e) => write!(f, "stream aggregate fold: {e}"),
            StreamError::Placement(e) => write!(f, "stream re-solve: {e}"),
            StreamError::Model(e) => write!(f, "stream model input: {e}"),
            StreamError::Checkpoint(e) => write!(f, "stream checkpoint: {e}"),
            StreamError::UnknownFlow { flow } => {
                write!(f, "rate delta references unknown flow {}", flow.0)
            }
            StreamError::RateOutOfRange { flow } => write!(
                f,
                "netted deltas drive flow {} out of the u64 rate range",
                flow.0
            ),
            StreamError::ShapeMismatch { flows, trace_flows } => write!(
                f,
                "trace has {trace_flows} flows but the workload has {flows}"
            ),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<AggregateError> for StreamError {
    fn from(e: AggregateError) -> Self {
        StreamError::Aggregate(e)
    }
}

impl From<PlacementError> for StreamError {
    fn from(e: PlacementError) -> Self {
        StreamError::Placement(e)
    }
}

impl From<ModelError> for StreamError {
    fn from(e: ModelError) -> Self {
        StreamError::Model(e)
    }
}

impl From<CkptError> for StreamError {
    fn from(e: CkptError) -> Self {
        StreamError::Checkpoint(e)
    }
}

/// What one store step — a trace hour or a delta batch — changed, ready
/// for [`AttachAggregates::try_apply_mass_deltas`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Net per-host mass changes, in host order: one entry per endpoint
    /// host of an applied flow (its net may still be zero).
    pub masses: Vec<HostMassDelta>,
    /// Net change of `Σλ`.
    pub total_delta: i128,
    /// Absolute netted drift `Σ|Δλ|` over the applied flows (saturating).
    pub drift: u64,
    /// Flows whose stored rate actually changed.
    pub applied: u64,
    /// Input records scanned. For [`ShardedFlowStore::ingest`], the
    /// batch's delta records, zeros and in-batch cancellations included;
    /// for [`ShardedFlowStore::advance`], the flows the cursor step
    /// covered, unchanged rates included: the listed flows of a list-only
    /// step, every flow of a dense one. The two paths agree on every other
    /// field, not on this one.
    pub records: u64,
}

/// The streaming engine's flow store: flow endpoints and rates in flat
/// flow-id-order arrays, plus the scratch one delta batch nets in.
///
/// A trace hour ([`ShardedFlowStore::advance`]) is one pass that commits
/// each absolute rate its step yields. A delta batch ([`ShardedFlowStore::ingest`])
/// is one pass over its records to net them, one to validate and one to
/// commit — no routing, no fan-out. Every quantity a commit reports is an
/// order-free sum (exact `i128` masses, a saturating sum of non-negative
/// drift terms), so the report depends only on which rates changed and by
/// how much, never on the order they arrive in or on the machine.
#[derive(Debug, Clone)]
pub struct ShardedFlowStore {
    /// Source host per flow.
    src: Vec<NodeId>,
    /// Destination host per flow.
    dst: Vec<NodeId>,
    /// Current rate per flow.
    rates: Vec<u64>,
    /// Batch scratch: netted pending delta per flow, all zero between
    /// batches.
    pending: Vec<i128>,
    /// Batch scratch: per-node `(d_out, d_in)` mass accumulators and the
    /// nodes touched this batch, all cleared between batches.
    mass: Vec<(i128, i128)>,
    mass_seen: Vec<bool>,
    mass_hosts: Vec<NodeId>,
}

impl ShardedFlowStore {
    /// Builds the store from a workload's current flows and rates on `g`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Model`] when a flow endpoint is not a node of `g`.
    pub fn build(g: &Graph, w: &Workload) -> Result<Self, StreamError> {
        let n = w.num_flows();
        let (mut src, mut dst) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (_, s, d, _) in w.iter() {
            if let Some(&bad) = [s, d].iter().find(|h| h.index() >= g.num_nodes()) {
                return Err(ModelError::NotAHost(bad).into());
            }
            src.push(s);
            dst.push(d);
        }
        Ok(ShardedFlowStore {
            src,
            dst,
            rates: w.rates().to_vec(),
            pending: vec![0; n],
            mass: vec![(0, 0); g.num_nodes()],
            mass_seen: vec![false; g.num_nodes()],
            mass_hosts: Vec::new(),
        })
    }

    /// Number of flows stored.
    pub fn num_flows(&self) -> usize {
        self.rates.len()
    }

    /// The current rate of one flow.
    pub fn rate(&self, f: FlowId) -> Option<u64> {
        self.rates.get(f.index()).copied()
    }

    /// The current per-flow rates, flow id order.
    pub fn rates(&self) -> &[u64] {
        &self.rates
    }

    /// Copies the current per-flow rates (flow id order) into `out`. The
    /// engine reads [`ShardedFlowStore::rates`] directly; only the
    /// layer-by-layer benchmark replay and tests call this.
    pub fn export_rates(&self, out: &mut Vec<u64>) {
        out.clear();
        out.extend_from_slice(&self.rates);
    }

    /// Overwrites every stored rate from a flow-id-ordered vector (the
    /// start epoch's rates, at set-up or resume).
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the vector length differs from
    /// the flow count.
    pub fn set_rates(&mut self, rates: &[u64]) -> Result<(), StreamError> {
        if rates.len() != self.rates.len() {
            return Err(StreamError::ShapeMismatch {
                flows: self.rates.len(),
                trace_flows: rates.len(),
            });
        }
        self.rates.copy_from_slice(rates);
        Ok(())
    }

    /// Ingests one delta batch: net each flow's records, validate every
    /// netted rate, then commit them and reduce the applied flows to
    /// per-host masses. On error nothing is applied.
    ///
    /// Zero deltas are dropped at the door and a flow's deltas net within
    /// the batch, so only real rate movement is applied; the report's mass
    /// list is bit-exactly what a from-scratch [`AttachAggregates::build`]
    /// at the new rates would differ by.
    ///
    /// # Errors
    ///
    /// [`StreamError::UnknownFlow`] for the first record (batch order)
    /// outside the store, else [`StreamError::RateOutOfRange`] for the
    /// lowest flow id whose netted rate leaves `u64`.
    pub fn ingest(&mut self, deltas: &[RateDelta]) -> Result<IngestReport, StreamError> {
        let mut report = IngestReport {
            records: deltas.len() as u64,
            ..IngestReport::default()
        };
        let moving = || deltas.iter().filter(|d| d.delta != 0);
        // Net. A flow's first record stages the batch's whole net delta;
        // the scratch is zero again after commit or rollback.
        for (i, d) in moving().enumerate() {
            let Some(p) = self.pending.get_mut(d.flow.index()) else {
                for d in moving().take(i) {
                    self.pending[d.flow.index()] = 0;
                }
                return Err(StreamError::UnknownFlow { flow: d.flow });
            };
            *p += i128::from(d.delta);
        }
        // Validate, mutating nothing.
        let bad = moving()
            .map(|d| d.flow)
            .filter(|f| {
                u64::try_from(i128::from(self.rates[f.index()]) + self.pending[f.index()]).is_err()
            })
            .min();
        if let Some(flow) = bad {
            for d in moving() {
                self.pending[d.flow.index()] = 0;
            }
            return Err(StreamError::RateOutOfRange { flow });
        }
        // Commit. Repeated records find their flow's scratch already taken.
        for d in moving() {
            let f = d.flow.index();
            let net = std::mem::take(&mut self.pending[f]);
            // Validated above, so the sum fits. A zero net (unchanged, or
            // the batch's deltas for this flow cancelled exactly) commits
            // nothing and counts as no drift.
            let new = u64::try_from(i128::from(self.rates[f]) + net).unwrap_or_default();
            self.commit(f, new, &mut report);
        }
        self.drain_masses(&mut report);
        Ok(report)
    }

    /// Advances the store one trace hour: `cursor` steps from hour
    /// `h − 1` to `h` ([`TraceCursor::step`]). A list-only step compares
    /// each listed flow's new rate with its stored one and commits it
    /// when it moved, exactly as [`ShardedFlowStore::ingest`] commits a
    /// netted batch; a dense step re-derives every flow in one
    /// straight-line pass (`commit_row`) that books the same sums.
    ///
    /// Precondition: the store holds `trace.rates_at(cursor.hour())`. It
    /// then holds the next hour's rates, and the report equals the one
    /// `ingest` returns for that hour's `try_rate_deltas` in every field
    /// but `records` (DESIGN.md §9). No delta vector is built and no
    /// netting scratch is touched; a repeat hour walks nothing.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the trace's flow count differs
    /// from the store's, checked before the cursor moves or anything is
    /// written; an absolute `u64` rate cannot leave range, so on error
    /// nothing is applied.
    pub fn advance(&mut self, cursor: &mut TraceCursor<'_>) -> Result<IngestReport, StreamError> {
        let trace_flows = cursor.trace().num_flows();
        if trace_flows != self.rates.len() {
            return Err(StreamError::ShapeMismatch {
                flows: self.rates.len(),
                trace_flows,
            });
        }
        let mut report = IngestReport::default();
        match cursor.step() {
            HourStep::Dense { row, rule } => self.commit_row(row, rule, &mut report),
            step @ HourStep::Listed { .. } => {
                for (flow, rate) in step {
                    report.records += 1;
                    self.commit(flow.index(), rate, &mut report);
                }
                self.drain_masses(&mut report);
            }
        }
        Ok(report)
    }

    /// Re-derives every flow's rate from `row` (the base rates of a dense
    /// step's new hour) and books what moved, as [`ShardedFlowStore::commit`]
    /// would flow by flow, in one straight-line pass: a zero net is written
    /// and summed like any other (it adds nothing), and an endpoint's
    /// touched flag is or-ed with `net != 0`, so no branch depends on the
    /// data. `Σλ` and the drift accumulate exactly (`i128`, `u128`), and
    /// the drift is clamped to `u64` once at the end, which equals the
    /// saturating sum because every term is non-negative. The touched
    /// hosts drain in one node sweep, already in host order.
    fn commit_row(&mut self, row: &[u64], rule: RateRule<'_>, report: &mut IngestReport) {
        let (mut total, mut drift, mut applied) = (0i128, 0u128, 0u64);
        let (mass, touched) = (&mut self.mass, &mut self.mass_seen);
        let bases = row.iter().zip(rule.east());
        let ends = self.src.iter().zip(&self.dst);
        for ((r, (&b, &e)), (s, t)) in self.rates.iter_mut().zip(bases).zip(ends) {
            let new = rule.rate(b, e);
            let net = i128::from(new) - i128::from(*r);
            *r = new;
            total += net;
            drift += net.unsigned_abs();
            let moved = net != 0;
            applied += u64::from(moved);
            mass[s.index()].0 += net;
            mass[t.index()].1 += net;
            touched[s.index()] |= moved;
            touched[t.index()] |= moved;
        }
        report.records = row.len() as u64;
        report.total_delta = total;
        report.drift = u64::try_from(drift).unwrap_or(u64::MAX);
        report.applied = applied;
        report.masses = touched
            .iter_mut()
            .zip(mass.iter_mut())
            .enumerate()
            .filter(|(_, (seen, _))| **seen)
            .map(|(i, (seen, m))| {
                *seen = false;
                let (d_out, d_in) = std::mem::take(m);
                HostMassDelta {
                    host: NodeId::from_index(i),
                    d_out,
                    d_in,
                }
            })
            .collect();
    }

    /// Sets flow `f`'s rate to `new` and books the move: `Σλ`, the
    /// saturating drift, the applied count and the endpoints' staged
    /// masses. An unchanged rate books nothing.
    fn commit(&mut self, f: usize, new: u64, report: &mut IngestReport) {
        let net = i128::from(new) - i128::from(self.rates[f]);
        if net == 0 {
            return;
        }
        self.rates[f] = new;
        report.total_delta += net;
        report.drift = report
            .drift
            .saturating_add(u64::try_from(net.unsigned_abs()).unwrap_or(u64::MAX));
        report.applied += 1;
        let (s, t) = (self.src[f], self.dst[f]);
        self.mass[s.index()].0 += net;
        self.mass[t.index()].1 += net;
        for h in [s, t] {
            if !std::mem::replace(&mut self.mass_seen[h.index()], true) {
                self.mass_hosts.push(h);
            }
        }
    }

    /// Moves the staged masses into the report, host-sorted, leaving the
    /// mass scratch clear for the next step.
    fn drain_masses(&mut self, report: &mut IngestReport) {
        self.mass_hosts.sort_unstable();
        report.masses = self
            .mass_hosts
            .drain(..)
            .map(|host| {
                self.mass_seen[host.index()] = false;
                let (d_out, d_in) = std::mem::take(&mut self.mass[host.index()]);
                HostMassDelta { host, d_out, d_in }
            })
            .collect();
    }
}

/// Accumulates ingested drift and decides when the incumbent placement
/// must be re-examined. See the module docs for the two-stage rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftTracker {
    threshold: u64,
    accum: u64,
}

impl DriftTracker {
    /// A tracker that triggers an examination once the accumulated drift
    /// reaches `threshold` (0 = examine every epoch).
    pub fn new(threshold: u64) -> Self {
        DriftTracker {
            threshold,
            accum: 0,
        }
    }

    /// Folds one batch's absolute drift in.
    pub fn ingest(&mut self, drift: u64) {
        self.accum = self.accum.saturating_add(drift);
    }

    /// True when the accumulated drift warrants pricing the staleness
    /// certificate.
    pub fn should_check(&self) -> bool {
        self.accum >= self.threshold
    }

    /// Drift accumulated since the last [`DriftTracker::reset`].
    pub fn accum(&self) -> u64 {
        self.accum
    }

    /// Clears the accumulator (after a re-solve or a certified skip).
    pub fn reset(&mut self) {
        self.accum = 0;
    }
}

/// How one streaming epoch was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochAction {
    /// Accumulated drift stayed under the threshold; the incumbent served
    /// without even pricing the certificate.
    SkippedLowDrift,
    /// The admissible bound certified the incumbent within the allowed
    /// gap; no solve ran and the drift accumulator reset.
    SkippedCertified {
        /// `C_a(incumbent) − LB`, an upper bound on the true staleness.
        gap: Cost,
    },
    /// The solver re-ran.
    Resolved {
        /// True when the fresh solve strictly beat the stale incumbent.
        improved: bool,
    },
}

/// Telemetry of one streaming epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochRecord {
    /// The epoch (trace hour) this record describes.
    pub epoch: u32,
    /// Flows whose rate actually changed this epoch.
    pub deltas: u64,
    /// Absolute netted drift `Σ|Δλ|` ingested this epoch.
    pub drift: u64,
    /// How the epoch was served.
    pub action: EpochAction,
    /// `C_a` of the (possibly refreshed) incumbent at the new rates.
    pub comm_cost: Cost,
}

/// Knobs of the streaming epoch engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConfig {
    /// Accumulated `Σ|Δλ|` below which epochs are served without pricing
    /// the staleness certificate. 0 = price it every epoch.
    pub drift_threshold: u64,
    /// The largest certified staleness gap the incumbent may serve with.
    /// 0 = re-solve unless the bound proves the incumbent optimal.
    pub max_certified_gap: Cost,
    /// Pre-declare the obs schema (stable snapshot shape).
    pub observe: bool,
    /// Where to persist snapshots; `None` disables checkpointing.
    pub store: Option<CheckpointStore>,
    /// Persist every `n` completed epochs (floored at 1; the stop epoch
    /// and the final epoch are always persisted when a store is set).
    pub checkpoint_every: u32,
    /// Halt after completing this epoch (crash simulation). The returned
    /// [`StreamRun`] then carries `completed = false` and a resume
    /// checkpoint.
    pub stop_after: Option<u32>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            drift_threshold: 0,
            max_certified_gap: 0,
            observe: false,
            store: None,
            checkpoint_every: 1,
            stop_after: None,
        }
    }
}

/// Outcome of one full (or interrupted) streaming day.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamResult {
    /// The hour-0 TOP cost.
    pub initial_cost: Cost,
    /// The incumbent placement's switches after the last completed epoch.
    pub placement: Vec<NodeId>,
    /// Per-epoch telemetry, epochs `1..=last`.
    pub epochs: Vec<EpochRecord>,
    /// Σ of the epochs' `comm_cost` plus the initial cost (saturating).
    pub total_cost: Cost,
    /// Epochs where the solver re-ran.
    pub resolves: u64,
    /// Epochs served by the stale incumbent (either skip flavor).
    pub resolves_skipped: u64,
    /// Total absolute drift ingested.
    pub drift_total: u64,
    /// Total flows-changed count ingested.
    pub deltas_total: u64,
}

/// Outcome of one engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRun {
    /// The day so far — full when `completed`, else the prefix up to the
    /// stop epoch.
    pub result: StreamResult,
    /// True when every epoch of the trace was served.
    pub completed: bool,
    /// The resume snapshot at the stop epoch; present exactly when
    /// [`StreamConfig::stop_after`] halted the run early.
    pub checkpoint: Option<StreamCheckpoint>,
}

/// A frozen mid-day streaming-engine state (`ppdc-stream-ckpt/v4`).
///
/// Only what the inputs cannot regenerate is stored: the epoch, incumbent
/// placement, drift accumulator and accumulated telemetry. Restore
/// re-derives the rates as `trace.rates_at(epoch)` and rebuilds the flow
/// store and aggregates from them — bit-identically, by the delta/rebuild
/// equivalence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCheckpoint {
    /// FNV-1a hash of every input (see [`stream_fingerprint`]).
    pub fingerprint: u64,
    /// The last *completed* epoch; resume continues at `epoch + 1`.
    pub epoch: u32,
    /// The hour-0 TOP cost.
    pub initial_cost: Cost,
    /// The incumbent placement's switches, in SFC order.
    pub placement: Vec<NodeId>,
    /// Not persisted and not read: restore re-derives the rates from the
    /// trace. The engine always leaves it empty; the field stays only
    /// because the benchmark replay builds this struct by literal.
    pub rates: Vec<u64>,
    /// The drift accumulator since the last reset.
    pub drift_accum: u64,
    /// Per-epoch records accumulated so far (epochs `1..=epoch`).
    pub epochs: Vec<EpochRecord>,
    /// Running cost total (initial + served epochs).
    pub total_cost: Cost,
    /// Re-solves so far.
    pub resolves: u64,
    /// Skipped epochs so far.
    pub resolves_skipped: u64,
    /// Total drift ingested so far.
    pub drift_total: u64,
    /// Total flows-changed count so far.
    pub deltas_total: u64,
}

fn action_row(a: EpochAction) -> (u64, u64) {
    match a {
        EpochAction::SkippedLowDrift => (0, 0),
        EpochAction::SkippedCertified { gap } => (1, gap),
        EpochAction::Resolved { improved: false } => (2, 0),
        EpochAction::Resolved { improved: true } => (3, 0),
    }
}

fn action_from_row(code: u64, gap: u64) -> Result<EpochAction, CkptError> {
    match code {
        0 => Ok(EpochAction::SkippedLowDrift),
        1 => Ok(EpochAction::SkippedCertified { gap }),
        2 => Ok(EpochAction::Resolved { improved: false }),
        3 => Ok(EpochAction::Resolved { improved: true }),
        _ => Err(CkptError::Corrupt(format!("unknown action code {code}"))),
    }
}

impl StreamCheckpoint {
    /// Serializes to the deterministic `ppdc-stream-ckpt/v4` JSON
    /// document. Equal checkpoints produce byte-identical output; `rates`
    /// is not written.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(512 + self.placement.len() * 11 + self.epochs.len() * 6 * 21);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{STREAM_CKPT_SCHEMA}\",\n"));
        out.push_str(&format!("  \"fingerprint\": {},\n", self.fingerprint));
        out.push_str(&format!("  \"epoch\": {},\n", self.epoch));
        out.push_str(&format!("  \"initial_cost\": {},\n", self.initial_cost));
        out.push_str(&format!("  \"drift_accum\": {},\n", self.drift_accum));
        push_list(
            &mut out,
            "placement",
            self.placement.iter().map(|n| u64::from(n.0)),
        );
        out.push_str(&format!(
            "  \"totals\": {{\"total_cost\": {}, \"resolves\": {}, \
             \"resolves_skipped\": {}, \"drift_total\": {}, \"deltas_total\": {}}},\n",
            self.total_cost,
            self.resolves,
            self.resolves_skipped,
            self.drift_total,
            self.deltas_total
        ));
        // Epoch records as compact rows:
        // [epoch, deltas, drift, action_code, gap, comm_cost].
        out.push_str("  \"epochs\": [");
        for (i, e) in self.epochs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (code, gap) = action_row(e.action);
            out.push_str(&format!(
                "[{},{},{},{},{},{}]",
                e.epoch, e.deltas, e.drift, code, gap, e.comm_cost
            ));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses a `ppdc-stream-ckpt/v4` document; `rates` comes back empty.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] on torn/invalid JSON, [`CkptError::Schema`]
    /// on a foreign document, [`CkptError::Corrupt`] on malformed fields.
    pub fn from_json(src: &str) -> Result<Self, CkptError> {
        let v = ppdc_obs::json::parse(src).map_err(|e| CkptError::Parse(e.to_string()))?;
        let top = as_obj(&v, "document")?;
        match str_field(top, "schema") {
            Ok(s) if s == STREAM_CKPT_SCHEMA => {}
            Ok(s) => return Err(CkptError::Schema(s.to_string())),
            Err(_) => return Err(CkptError::Schema("<missing>".to_string())),
        }
        let totals = as_obj(field(top, "totals")?, "totals")?;
        let epochs = arr_field(top, "epochs")?
            .iter()
            .map(|row| {
                let r = row_u64(row, 6, "epochs")?;
                Ok(EpochRecord {
                    epoch: to_u32(r[0], "epoch")?,
                    deltas: r[1],
                    drift: r[2],
                    action: action_from_row(r[3], r[4])?,
                    comm_cost: r[5],
                })
            })
            .collect::<Result<Vec<_>, CkptError>>()?;
        Ok(StreamCheckpoint {
            fingerprint: u64_field(top, "fingerprint")?,
            epoch: to_u32(u64_field(top, "epoch")?, "epoch")?,
            initial_cost: u64_field(top, "initial_cost")?,
            drift_accum: u64_field(top, "drift_accum")?,
            placement: node_ids(top, "placement")?,
            rates: Vec::new(),
            epochs,
            total_cost: u64_field(totals, "total_cost")?,
            resolves: u64_field(totals, "resolves")?,
            resolves_skipped: u64_field(totals, "resolves_skipped")?,
            drift_total: u64_field(totals, "drift_total")?,
            deltas_total: u64_field(totals, "deltas_total")?,
        })
    }

    /// Semantic validation against the inputs of the run being resumed.
    ///
    /// # Errors
    ///
    /// [`CkptError::InputMismatch`] or [`CkptError::Corrupt`].
    pub fn validate_against(
        &self,
        g: &Graph,
        sfc: &Sfc,
        n_hours: u32,
        expected_fingerprint: u64,
    ) -> Result<(), CkptError> {
        if self.fingerprint != expected_fingerprint {
            return Err(CkptError::InputMismatch {
                stored: self.fingerprint,
                expected: expected_fingerprint,
            });
        }
        if self.epoch == 0 || self.epoch > n_hours {
            return Err(CkptError::Corrupt(format!(
                "epoch {} outside 1..={n_hours}",
                self.epoch
            )));
        }
        let shape = [
            ("placement", self.placement.len(), sfc.len()),
            ("epochs", self.epochs.len(), self.epoch as usize),
        ];
        for (name, got, want) in shape {
            if got != want {
                return Err(CkptError::Corrupt(format!(
                    "{name} has {got} entries, expected {want}"
                )));
            }
        }
        if let Some(bad) = self.placement.iter().find(|id| id.index() >= g.num_nodes()) {
            return Err(CkptError::Corrupt(format!(
                "placement references node {} outside the graph",
                bad.0
            )));
        }
        Ok(())
    }
}

/// FNV-1a over every input that shapes a streaming day: graph, workload
/// endpoints, SFC length, drift/gap knobs, and the trace's defining inputs
/// (base rows, cohorts, model, offset — which pin every hour's rates).
/// Matching fingerprints imply bit-identical trajectories.
pub fn stream_fingerprint(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
) -> u64 {
    let mut h = Fnv::new();
    hash_instance(&mut h, g, w, sfc);
    h.u64(cfg.drift_threshold);
    h.u64(cfg.max_certified_gap);
    hash_trace(&mut h, trace);
    h.finish()
}

/// Runs one streaming day: TOP at hour 0, then every epoch advances the
/// flow store to the trace's next hour ([`ShardedFlowStore::advance`] of
/// one [`TraceCursor`] held for the day),
/// folds the moved masses into the live aggregates, and serves the epoch
/// by the drift rule (see the module docs). Two calls with the same
/// inputs produce bit-identical results.
///
/// # Errors
///
/// [`StreamError`] on genuinely broken inputs or failed checkpoint I/O.
pub fn run_stream_day<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
) -> Result<StreamRun, StreamError> {
    run_stream_day_impl(g, dm, w, trace, sfc, cfg, None)
}

/// Resumes a streaming day from a [`StreamCheckpoint`] and finishes it
/// **bit-identically** to the uninterrupted run: the flow store and
/// aggregates are rebuilt from `trace.rates_at(ck.epoch)`, which the
/// fingerprint pins and which the uninterrupted run's store holds after
/// [`ShardedFlowStore::advance`], and the trace cursor starts at
/// `ck.epoch`; the delta/rebuild equivalence makes the reconstruction
/// exact.
///
/// # Errors
///
/// [`StreamError::Checkpoint`] when the snapshot is corrupt or from
/// different inputs; otherwise as [`run_stream_day`].
pub fn resume_stream_day<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
    ckpt: &StreamCheckpoint,
) -> Result<StreamRun, StreamError> {
    run_stream_day_impl(g, dm, w, trace, sfc, cfg, Some(ckpt))
}

#[allow(clippy::too_many_arguments)]
fn run_stream_day_impl<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &StreamConfig,
    resume: Option<&StreamCheckpoint>,
) -> Result<StreamRun, StreamError> {
    let obs = ppdc_obs::global();
    if cfg.observe {
        obs.declare(obs_names::SPANS, obs_names::COUNTERS, obs_names::HISTS);
    }
    if trace.num_flows() != w.num_flows() {
        return Err(StreamError::ShapeMismatch {
            flows: w.num_flows(),
            trace_flows: trace.num_flows(),
        });
    }
    let n_hours = trace.model().n_hours;
    let wants_snapshots = cfg.store.is_some() || cfg.stop_after.is_some();
    let fp = if wants_snapshots || resume.is_some() {
        stream_fingerprint(g, w, trace, sfc, cfg)
    } else {
        0
    };
    // The store and aggregates start at the start epoch's rates. Only the
    // aggregate build needs them on a workload, so it reads a copy of `w`
    // that is dropped before the store is built from `w` itself: the
    // store then reuses the copy's memory, and no copy lives into the day.
    let start_state = |epoch: u32| -> Result<(ShardedFlowStore, AttachAggregates), StreamError> {
        let rates = trace.rates_at(epoch);
        let agg = {
            let mut w_start = w.clone();
            w_start.set_rates(&rates)?;
            AttachAggregates::build(g, dm, &w_start)
        };
        let mut store = ShardedFlowStore::build(g, w)?;
        store.set_rates(&rates)?;
        Ok((store, agg))
    };
    let mut tracker = DriftTracker::new(cfg.drift_threshold);
    // The warm-solver bound cache lives for the day and is *never*
    // persisted: a resumed day starts from an empty cache and rebuilds it
    // on its first certificate, so `ppdc-stream-ckpt/v4` stays primary-
    // state-only and kill/resume stays bit-identical (the bound equals the
    // O(m²) scan and warm ≡ cold, so the rebuilt cache is
    // indistinguishable from the lost one).
    let mut cache = BoundCache::new();
    let (start_epoch, mut store, mut agg, mut placement, mut st) = match resume {
        None => {
            let (store, agg) = start_state(0)?;
            let (p, c) = dp_placement_warm(g, dm, w, sfc, &agg, &mut cache, None)?;
            let st = StreamResult {
                initial_cost: c,
                placement: p.switches().to_vec(),
                epochs: Vec::new(),
                total_cost: c,
                resolves: 0,
                resolves_skipped: 0,
                drift_total: 0,
                deltas_total: 0,
            };
            (1, store, agg, p, st)
        }
        Some(ck) => {
            ck.validate_against(g, sfc, n_hours, fp)?;
            obs.add(obs_names::CKPT_RESTORES, 1);
            let (store, agg) = start_state(ck.epoch)?;
            let placement = Placement::new_unchecked(ck.placement.clone());
            tracker.accum = ck.drift_accum;
            let st = StreamResult {
                initial_cost: ck.initial_cost,
                placement: ck.placement.clone(),
                epochs: ck.epochs.clone(),
                total_cost: ck.total_cost,
                resolves: ck.resolves,
                resolves_skipped: ck.resolves_skipped,
                drift_total: ck.drift_total,
                deltas_total: ck.deltas_total,
            };
            (ck.epoch + 1, store, agg, placement, st)
        }
    };
    let every = cfg.checkpoint_every.max(1);
    let mut cursor = trace.cursor(start_epoch - 1);
    for epoch in start_epoch..=n_hours {
        let report = {
            let _span = obs.span(obs_names::STREAM_INGEST);
            let report = store.advance(&mut cursor)?;
            agg.try_apply_mass_deltas(dm, &report.masses, report.total_delta)?;
            cache.note_mass_deltas(&report.masses);
            report
        };
        obs.add(obs_names::STREAM_DELTAS, report.applied);
        obs.add(obs_names::STREAM_DRIFT, report.drift);
        tracker.ingest(report.drift);
        st.drift_total = st.drift_total.saturating_add(report.drift);
        st.deltas_total = st.deltas_total.saturating_add(report.applied);
        let inc_cost = agg.comm_cost(dm, &placement);
        let (action, comm) = if !tracker.should_check() {
            st.resolves_skipped += 1;
            obs.add(obs_names::STREAM_RESOLVES_SKIPPED, 1);
            (EpochAction::SkippedLowDrift, inc_cost)
        } else {
            let lb = cache.lower_bound(dm, &agg, sfc.len());
            let gap = inc_cost.saturating_sub(lb);
            if gap <= cfg.max_certified_gap {
                st.resolves_skipped += 1;
                obs.add(obs_names::STREAM_RESOLVES_SKIPPED, 1);
                tracker.reset();
                (EpochAction::SkippedCertified { gap }, inc_cost)
            } else {
                // `w` stands in for the live rates: the warm solve reads
                // only its flow count, and the cache was refreshed above.
                let (p, c) = dp_placement_warm(g, dm, w, sfc, &agg, &mut cache, Some(&placement))?;
                st.resolves += 1;
                obs.add(obs_names::STREAM_RESOLVES, 1);
                tracker.reset();
                let improved = c < inc_cost;
                placement = p;
                (EpochAction::Resolved { improved }, c)
            }
        };
        st.total_cost = st.total_cost.saturating_add(comm);
        st.epochs.push(EpochRecord {
            epoch,
            deltas: report.applied,
            drift: report.drift,
            action,
            comm_cost: comm,
        });
        st.placement = placement.switches().to_vec();
        let stop_here = cfg.stop_after == Some(epoch);
        let last = epoch == n_hours;
        if wants_snapshots && (stop_here || last || epoch % every == 0) {
            let ck = StreamCheckpoint {
                fingerprint: fp,
                epoch,
                initial_cost: st.initial_cost,
                placement: st.placement.clone(),
                rates: Vec::new(),
                drift_accum: tracker.accum(),
                epochs: st.epochs.clone(),
                total_cost: st.total_cost,
                resolves: st.resolves,
                resolves_skipped: st.resolves_skipped,
                drift_total: st.drift_total,
                deltas_total: st.deltas_total,
            };
            if let Some(cs) = &cfg.store {
                cs.write_raw(&ck.to_json())?;
            }
            if stop_here && !last {
                return Ok(StreamRun {
                    result: st,
                    completed: false,
                    checkpoint: Some(ck),
                });
            }
        }
    }
    Ok(StreamRun {
        result: st,
        completed: true,
        checkpoint: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::{DistanceMatrix, FatTree};
    use ppdc_traffic::{standard_workload, DiurnalModel};

    fn fixture(pairs: usize, seed: u64) -> (Graph, DistanceMatrix, Workload, DynamicTrace) {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph().clone();
        let dm = DistanceMatrix::build(&g);
        let (w, trace) = standard_workload(&ft, pairs, seed, 0);
        (g, dm, w, trace)
    }

    #[test]
    fn sharded_ingest_is_bit_identical_to_rebuild() {
        let (g, dm, mut w, trace) = fixture(40, 11);
        w.set_rates(&trace.rates_at(0)).unwrap();
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        for h in 1..=trace.model().n_hours {
            let batch: Vec<RateDelta> = trace
                .rate_deltas(h)
                .into_iter()
                .map(|(flow, delta)| RateDelta { flow, delta })
                .collect();
            let r = store.ingest(&batch).unwrap();
            agg.try_apply_mass_deltas(&dm, &r.masses, r.total_delta)
                .unwrap();
            w.set_rates(&trace.rates_at(h)).unwrap();
            let rebuilt = AttachAggregates::build(&g, &dm, &w);
            assert!(agg.same_as(&rebuilt), "hour {h} diverged");
            let mut exported = Vec::new();
            store.export_rates(&mut exported);
            assert_eq!(exported, trace.rates_at(h), "hour {h} rates diverged");
        }
    }

    /// The store's contract, one flow at a time: zero records are
    /// ignored, the first unknown flow in batch order is rejected, records
    /// net per flow, the lowest flow id whose net rate leaves `u64` is
    /// rejected, and otherwise every nonzero net applies and adds to its
    /// endpoints' masses. A rejected batch changes nothing.
    fn reference_ingest(
        rates: &mut [u64],
        ends: &[(NodeId, NodeId)],
        batch: &[RateDelta],
    ) -> Result<IngestReport, StreamError> {
        use std::collections::BTreeMap;
        let moving = || batch.iter().filter(|d| d.delta != 0);
        if let Some(d) = moving().find(|d| d.flow.index() >= rates.len()) {
            return Err(StreamError::UnknownFlow { flow: d.flow });
        }
        let mut net: BTreeMap<FlowId, i128> = BTreeMap::new();
        for d in moving() {
            *net.entry(d.flow).or_default() += i128::from(d.delta);
        }
        for (&f, &d) in &net {
            if u64::try_from(i128::from(rates[f.index()]) + d).is_err() {
                return Err(StreamError::RateOutOfRange { flow: f });
            }
        }
        let mut report = IngestReport {
            records: batch.len() as u64,
            ..IngestReport::default()
        };
        let mut masses: BTreeMap<NodeId, (i128, i128)> = BTreeMap::new();
        for (f, d) in net.into_iter().filter(|&(_, d)| d != 0) {
            let r = &mut rates[f.index()];
            *r = u64::try_from(i128::from(*r) + d).unwrap();
            report.total_delta += d;
            report.drift = report
                .drift
                .saturating_add(u64::try_from(d.unsigned_abs()).unwrap());
            report.applied += 1;
            let (src, dst) = ends[f.index()];
            masses.entry(src).or_default().0 += d;
            masses.entry(dst).or_default().1 += d;
        }
        report.masses = masses
            .into_iter()
            .map(|(host, (d_out, d_in))| HostMassDelta { host, d_out, d_in })
            .collect();
        Ok(report)
    }

    /// A hand-built fabric mixing leaf hosts with a host wired to two
    /// switches, whose switch ids do not follow host order, with flows
    /// listed out of host order.
    fn two_homed_fixture() -> (Graph, Workload) {
        let mut g = Graph::new();
        let h: Vec<NodeId> = (0..6).map(|i| g.add_host(format!("h{i}"))).collect();
        let s: Vec<NodeId> = (0..4).map(|i| g.add_switch(format!("s{i}"))).collect();
        for (i, j) in [(0, 3), (0, 1), (1, 2), (2, 0), (3, 3), (4, 1), (5, 0)] {
            g.add_edge(h[i], s[j], 1).unwrap();
        }
        for j in 1..4 {
            g.add_edge(s[j - 1], s[j], 2).unwrap();
        }
        let mut w = Workload::new();
        for (k, (a, b)) in [
            (4, 2),
            (0, 5),
            (3, 1),
            (2, 0),
            (0, 4),
            (5, 3),
            (1, 1),
            (4, 0),
        ]
        .into_iter()
        .enumerate()
        {
            w.add_pair(h[a], h[b], 100 + 17 * k as u64);
        }
        (g, w)
    }

    #[test]
    fn ingest_matches_the_per_flow_reference_model() {
        let (g, _, mut w, trace) = fixture(60, 7);
        w.set_rates(&trace.rates_at(0)).unwrap();
        let (g2, w2) = two_homed_fixture();
        for (g, mut w) in [(&g, w), (&g2, w2)] {
            // Headroom, so only the planted records drive a rate negative.
            let lifted: Vec<u64> = w.rates().iter().map(|r| r + 1_000).collect();
            w.set_rates(&lifted).unwrap();
            let mut store = ShardedFlowStore::build(g, &w).unwrap();
            let mut rates = w.rates().to_vec();
            let ends: Vec<(NodeId, NodeId)> = w.iter().map(|(_, s, d, _)| (s, d)).collect();
            let n = w.num_flows() as u32;
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (mut rejected, mut accepted) = (0, 0);
            for step in 0..200 {
                // Records in random flow order, with repeats, zeros and
                // exact in-batch cancellations.
                let mut batch: Vec<RateDelta> = (0..next() % 24)
                    .map(|_| RateDelta {
                        flow: FlowId(next() as u32 % n),
                        delta: (next() % 61) as i64 - 30,
                    })
                    .collect();
                if let Some(&d) = batch.first() {
                    batch.push(RateDelta {
                        flow: d.flow,
                        delta: -d.delta,
                    });
                }
                match step % 5 {
                    // Two flows driven below zero, the higher id first.
                    1 => {
                        let (lo, hi) = (next() as u32 % (n / 2), n / 2 + next() as u32 % (n / 2));
                        for f in [hi, lo] {
                            let r = rates[f as usize] as i64;
                            batch.insert(
                                next() as usize % (batch.len() + 1),
                                RateDelta {
                                    flow: FlowId(f),
                                    delta: -r - 10_000,
                                },
                            );
                        }
                    }
                    // Unknown flows after a moving record; a zero record
                    // for a foreign flow is ignored like any zero.
                    2 => {
                        batch.push(RateDelta {
                            flow: FlowId(n + 5),
                            delta: 0,
                        });
                        batch.push(RateDelta {
                            flow: FlowId(n + 1),
                            delta: 3,
                        });
                        batch.push(RateDelta {
                            flow: FlowId(u32::MAX),
                            delta: -2,
                        });
                    }
                    _ => {}
                }
                let before = rates.clone();
                let want = reference_ingest(&mut rates, &ends, &batch);
                assert_eq!(store.ingest(&batch), want, "step {step}");
                assert_eq!(store.rates(), &rates[..], "step {step}");
                match want {
                    Ok(_) => accepted += 1,
                    Err(e) => {
                        assert_eq!(rates, before, "reference rejected but mutated");
                        match step % 5 {
                            1 => assert!(matches!(e, StreamError::RateOutOfRange { .. })),
                            2 => assert_eq!(
                                e,
                                StreamError::UnknownFlow {
                                    flow: FlowId(n + 1)
                                }
                            ),
                            _ => unreachable!("step {step}: {e}"),
                        }
                        rejected += 1;
                    }
                }
            }
            assert_eq!((rejected, accepted), (80, 120));
        }
    }

    #[test]
    fn in_batch_cancellation_and_zero_deltas_are_dropped() {
        let (g, dm, w, _) = fixture(20, 3);
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let f = FlowId(0);
        let r = store
            .ingest(&[
                RateDelta { flow: f, delta: 0 },
                RateDelta { flow: f, delta: 7 },
                RateDelta { flow: f, delta: -7 },
            ])
            .unwrap();
        assert_eq!(r.applied, 0);
        assert_eq!(r.drift, 0);
        assert_eq!(r.total_delta, 0);
        assert!(r.masses.is_empty());
        assert_eq!(r.records, 3);
        // Nothing changed, so the fold is a no-op on the aggregates.
        let mut agg2 = agg.clone();
        agg2.try_apply_mass_deltas(&dm, &r.masses, r.total_delta)
            .unwrap();
        assert!(agg2.same_as(&agg));
    }

    #[test]
    fn invalid_batches_leave_the_store_untouched() {
        let (g, _, w, _) = fixture(10, 5);
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let before: Vec<u64> = {
            let mut v = Vec::new();
            store.export_rates(&mut v);
            v
        };
        let f = FlowId(0);
        let rate = store.rate(f).unwrap();
        let err = store
            .ingest(&[RateDelta {
                flow: f,
                delta: -(rate as i64) - 1,
            }])
            .expect_err("negative net rate must be rejected");
        assert!(matches!(err, StreamError::RateOutOfRange { .. }));
        let err = store
            .ingest(&[RateDelta {
                flow: FlowId(u32::MAX),
                delta: 1,
            }])
            .expect_err("foreign flow must be rejected");
        assert!(matches!(err, StreamError::UnknownFlow { .. }));
        let mut after = Vec::new();
        store.export_rates(&mut after);
        assert_eq!(before, after);
        // And the store still ingests cleanly afterwards.
        let r = store.ingest(&[RateDelta { flow: f, delta: 5 }]).unwrap();
        assert_eq!(r.applied, 1);
        assert_eq!(store.rate(f).unwrap(), rate + 5);
    }

    /// `advance` checks the trace's shape before it writes anything or
    /// moves the cursor: a foreign-sized trace is refused with the
    /// store's rates untouched, and the store still advances afterwards.
    /// (A cursor only ever steps forward, so it cannot ask for hour 0.)
    #[test]
    fn advance_refuses_bad_steps_without_writing() {
        let (g, _, mut w, trace) = fixture(20, 3);
        let (_, _, _, short) = fixture(10, 3);
        assert!(short.num_flows() < trace.num_flows());
        w.set_rates(&trace.rates_at(0)).unwrap();
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let before = store.rates().to_vec();
        // The short trace's hour-1 rates differ from the store's, so a
        // commit before the shape check would show in the rates.
        assert_ne!(short.rates_at(1), before[..short.num_flows()]);
        let mut foreign = short.cursor(0);
        assert_eq!(
            store.advance(&mut foreign),
            Err(StreamError::ShapeMismatch {
                flows: trace.num_flows(),
                trace_flows: short.num_flows(),
            })
        );
        assert_eq!(store.rates(), &before[..]);
        assert_eq!(foreign.hour(), 0);
        store.advance(&mut trace.cursor(0)).unwrap();
        assert_eq!(store.rates(), &trace.rates_at(1)[..]);
    }

    /// Hour 9 → 10 of the default envelope moves the west scale only (the
    /// east cohort rests at its floor from hour 9 on). The dense step
    /// re-derives every flow, yet reports what `ingest` reports for the
    /// hour's deltas, a host whose flows' nets cancel included, and
    /// counts every flow as a record.
    #[test]
    fn a_one_cohort_dense_hour_reports_what_ingest_reports() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let n = hosts.len();
        // Both flows leave host 0. West flow 0 falls 1800 → 1400 with the
        // west scale (0.6 → 0.4667); east flow 1's base rises 1000 → 3000
        // at the resting floor, 200 → 600. Host 0's out-mass nets to zero.
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 0);
        w.add_pair(hosts[0], hosts[2], 0);
        let mut row0 = vec![3000, 1000];
        let mut east = vec![false, true];
        // 62 small flows away from host 0: their bases sit inside the
        // rate memo (which covers bases up to the flow count), the two
        // flows above lie outside it.
        for i in 0..62 {
            w.add_pair(
                hosts[1 + i * 5 % (n - 1)],
                hosts[1 + (i * 3 + 1) % (n - 1)],
                0,
            );
            row0.push(i as i64);
            east.push(i % 2 == 0);
        }
        let mut row10 = row0.clone();
        row10[1] = 3000;
        let rows: Vec<Vec<i64>> = (0..=12)
            .map(|h| if h < 10 { row0.clone() } else { row10.clone() })
            .collect();
        let trace = DynamicTrace::from_rows(&w, DiurnalModel::default(), east, &rows).unwrap();
        assert!(matches!(trace.cursor(9).step(), HourStep::Dense { .. }));
        w.set_rates(&trace.rates_at(9)).unwrap();
        let mut fed = ShardedFlowStore::build(g, &w).unwrap();
        let mut batched = fed.clone();
        let a = fed.advance(&mut trace.cursor(9)).unwrap();
        let deltas: Vec<RateDelta> = trace
            .try_rate_deltas(10)
            .unwrap()
            .into_iter()
            .map(|(flow, delta)| RateDelta { flow, delta })
            .collect();
        let b = batched.ingest(&deltas).unwrap();
        assert_eq!(a.masses, b.masses);
        assert_eq!(
            (a.total_delta, a.drift, a.applied),
            (b.total_delta, b.drift, b.applied)
        );
        assert_eq!(a.records, 64);
        assert!(
            a.applied < a.records,
            "the resting east flows keep their rates"
        );
        assert!(
            a.masses
                .iter()
                .any(|m| m.host == hosts[0] && m.d_out == 0 && m.d_in == 0),
            "host 0's nets cancel, and it is still reported"
        );
        assert_eq!(fed.rates(), &trace.rates_at(10)[..]);
    }

    #[test]
    fn certified_epochs_serve_the_exact_optimum() {
        // With threshold 0 and gap 0 every epoch is either re-solved or
        // certified optimal, so each epoch's served cost must equal an
        // independent from-scratch solve at that hour's rates.
        let (g, dm, w, trace) = fixture(30, 17);
        let sfc = Sfc::of_len(3).unwrap();
        let run = run_stream_day(&g, &dm, &w, &trace, &sfc, &StreamConfig::default()).unwrap();
        assert!(run.completed);
        assert_eq!(run.result.epochs.len(), trace.model().n_hours as usize);
        let mut w_ref = w.clone();
        for rec in &run.result.epochs {
            w_ref.set_rates(&trace.rates_at(rec.epoch)).unwrap();
            let (_, opt) = ppdc_placement::dp_placement(
                &dm,
                &w_ref,
                &sfc,
                &ppdc_placement::AttachAggregates::build(&g, &dm, &w_ref),
            )
            .unwrap();
            assert_eq!(rec.comm_cost, opt, "epoch {} served off-optimum", rec.epoch);
        }
        assert_eq!(
            run.result.resolves + run.result.resolves_skipped,
            trace.model().n_hours as u64
        );
    }

    #[test]
    fn high_threshold_never_resolves() {
        let (g, dm, w, trace) = fixture(30, 17);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: u64::MAX,
            ..StreamConfig::default()
        };
        let run = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        assert_eq!(run.result.resolves, 0);
        assert_eq!(run.result.resolves_skipped, trace.model().n_hours as u64);
        assert!(run
            .result
            .epochs
            .iter()
            .all(|e| e.action == EpochAction::SkippedLowDrift));
    }

    #[test]
    fn kill_and_resume_is_bit_identical() {
        let (g, dm, w, trace) = fixture(30, 23);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: 500,
            max_certified_gap: 10,
            ..StreamConfig::default()
        };
        let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        for kill in [1, 5, trace.model().n_hours - 1] {
            let stopped = run_stream_day(
                &g,
                &dm,
                &w,
                &trace,
                &sfc,
                &StreamConfig {
                    stop_after: Some(kill),
                    ..cfg.clone()
                },
            )
            .unwrap();
            assert!(!stopped.completed);
            let ck = stopped.checkpoint.expect("stopped run carries a snapshot");
            // Disk round trip preserves everything.
            let back = StreamCheckpoint::from_json(&ck.to_json()).unwrap();
            assert_eq!(ck, back);
            let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg, &back).unwrap();
            assert!(resumed.completed);
            assert_eq!(resumed.result, full.result, "kill at {kill} diverged");
        }
    }

    #[test]
    fn certified_gaps_equal_the_scanned_bound() {
        // A drift threshold and a gap allowance that make this day take
        // every action: low-drift skips, certified skips and re-solves.
        let (g, dm, w, trace) = fixture(30, 17);
        let sfc = Sfc::of_len(4).unwrap();
        let cfg = StreamConfig {
            drift_threshold: 20_000,
            max_certified_gap: 10_000,
            ..StreamConfig::default()
        };
        let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let epochs = &full.result.epochs;
        let certified = |e: &EpochRecord| matches!(e.action, EpochAction::SkippedCertified { .. });
        assert!(epochs
            .iter()
            .any(|e| matches!(e.action, EpochAction::SkippedCertified { gap } if gap > 0)));
        assert!(epochs
            .iter()
            .any(|e| e.action == EpochAction::SkippedLowDrift));
        assert!(epochs
            .iter()
            .any(|e| matches!(e.action, EpochAction::Resolved { .. })));
        // The engine reads the bound off its warm cache; every certified
        // gap must equal the O(m²) scan over aggregates rebuilt from the
        // epoch's rates.
        let mut w_ref = w.clone();
        for rec in epochs {
            if let EpochAction::SkippedCertified { gap } = rec.action {
                w_ref.set_rates(&trace.rates_at(rec.epoch)).unwrap();
                let agg = AttachAggregates::build(&g, &dm, &w_ref);
                let lb = ppdc_placement::placement_cost_lower_bound(&dm, &agg, sfc.len());
                assert_eq!(gap, rec.comm_cost - lb, "epoch {}", rec.epoch);
            }
        }
        // Kill before each certified epoch: the resumed day's fresh cache
        // prices a certificate before it ever solves.
        let kills: Vec<u32> = epochs
            .windows(2)
            .filter(|pair| certified(&pair[1]))
            .map(|pair| pair[0].epoch)
            .collect();
        assert!(kills.iter().any(|&k| certified(&epochs[k as usize - 1])));
        for kill in kills {
            let stopped = run_stream_day(
                &g,
                &dm,
                &w,
                &trace,
                &sfc,
                &StreamConfig {
                    stop_after: Some(kill),
                    ..cfg.clone()
                },
            )
            .unwrap();
            let ck = stopped.checkpoint.expect("stopped run carries a snapshot");
            let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg, &ck).unwrap();
            assert!(resumed.completed);
            assert_eq!(resumed.result, full.result, "kill at {kill} diverged");
        }
    }

    #[test]
    fn checkpoint_rejects_foreign_inputs() {
        let (g, dm, w, trace) = fixture(20, 29);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            stop_after: Some(2),
            ..StreamConfig::default()
        };
        let stopped = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let ck = stopped.checkpoint.unwrap();
        // A different workload (other seed) must be refused.
        let (g2, dm2, w2, trace2) = fixture(20, 31);
        let err = resume_stream_day(&g2, &dm2, &w2, &trace2, &sfc, &StreamConfig::default(), &ck)
            .expect_err("foreign inputs must be refused");
        assert!(matches!(
            err,
            StreamError::Checkpoint(CkptError::InputMismatch { .. })
        ));
    }

    #[test]
    fn pre_v2_documents_are_refused_by_schema() {
        let (g, dm, w, trace) = fixture(20, 29);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            stop_after: Some(2),
            ..StreamConfig::default()
        };
        let ck = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg)
            .unwrap()
            .checkpoint
            .unwrap();
        let doc = ck
            .to_json()
            .replace(STREAM_CKPT_SCHEMA, "ppdc-stream-ckpt/v1");
        assert_eq!(
            StreamCheckpoint::from_json(&doc),
            Err(CkptError::Schema("ppdc-stream-ckpt/v1".to_string()))
        );
    }

    /// A `/v3` document has the `/v4` layout, but its fingerprint hashed
    /// the trace as one dense row per hour; it is refused by its schema
    /// tag rather than failing later as a foreign input.
    #[test]
    fn v3_documents_are_refused_by_schema() {
        let (g, dm, w, trace) = fixture(20, 29);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            stop_after: Some(2),
            ..StreamConfig::default()
        };
        let ck = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg)
            .unwrap()
            .checkpoint
            .unwrap();
        let doc = ck
            .to_json()
            .replace(STREAM_CKPT_SCHEMA, "ppdc-stream-ckpt/v3");
        assert_eq!(
            StreamCheckpoint::from_json(&doc),
            Err(CkptError::Schema("ppdc-stream-ckpt/v3".to_string()))
        );
    }

    /// A `/v2` document, as the engine wrote it when snapshots carried
    /// the rate vector, is refused by its schema tag rather than resumed.
    #[test]
    fn v2_documents_with_rates_are_refused_by_schema() {
        let v2 = r#"{
  "schema": "ppdc-stream-ckpt/v2",
  "fingerprint": 8334592082975981288,
  "epoch": 2,
  "initial_cost": 6038,
  "drift_accum": 0,
  "placement": [0,12,15],
  "rates": [203,4081],
  "totals": {"total_cost": 49992, "resolves": 2, "resolves_skipped": 0, "drift_total": 4587, "deltas_total": 4},
  "epochs": [[1,2,1626,3,0,17438],[2,2,2961,2,0,26516]]
}
"#;
        assert_eq!(
            StreamCheckpoint::from_json(v2),
            Err(CkptError::Schema("ppdc-stream-ckpt/v2".to_string()))
        );
    }

    /// The same day halted at the same epoch writes a document of about
    /// the same length at 40 and at 4,000 flows: integers may widen with
    /// the larger costs, but a per-flow array would add at least two
    /// bytes per flow.
    #[test]
    fn checkpoint_size_does_not_grow_with_the_flow_count() {
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            stop_after: Some(6),
            ..StreamConfig::default()
        };
        let doc = |pairs: usize| {
            let (g, dm, w, trace) = fixture(pairs, 43);
            assert_eq!(w.num_flows(), pairs);
            let ck = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg)
                .unwrap()
                .checkpoint
                .unwrap();
            assert!(ck.rates.is_empty(), "the engine leaves `rates` empty");
            ck.to_json()
        };
        let (small, big) = (doc(40), doc(4_000));
        assert!(
            big.len() < small.len() + 1_000,
            "{} bytes at 40 flows, {} at 4,000",
            small.len(),
            big.len()
        );
    }

    /// Both engines' fingerprints hash the trace by its defining inputs:
    /// equal inputs agree, and changing any one of them — a single base
    /// rate at one hour, one cohort flag, `tau_min`, the offset,
    /// `n_hours`, or one flow endpoint — changes both fingerprints.
    #[test]
    fn fingerprints_pin_every_trace_input() {
        use crate::checkpoint::fingerprint;
        use crate::{FaultSchedule, MigrationPolicy, SimConfig};
        use ppdc_traffic::DiurnalModel;

        #[derive(Clone)]
        struct Inputs {
            moved_endpoint: bool,
            rows: Vec<Vec<i64>>,
            east: Vec<bool>,
            model: DiurnalModel,
            offset: i64,
        }
        const FLOWS: usize = 12;
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let sfc = Sfc::of_len(3).unwrap();
        // The fault schedule's length is hashed separately; it stays fixed
        // so only the trace's own `n_hours` varies.
        let schedule = FaultSchedule::new(Vec::new(), 6).unwrap();
        let sim = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        let fingerprints = |x: &Inputs| {
            let mut w = Workload::new();
            for i in 0..FLOWS {
                let dst = (5 * i + 3 + usize::from(x.moved_endpoint && i == 4)) % hosts.len();
                w.add_pair(hosts[i % hosts.len()], hosts[dst], 1);
            }
            let trace = DynamicTrace::from_rows(&w, x.model, x.east.clone(), &x.rows)
                .unwrap()
                .with_offset(x.offset);
            (
                fingerprint(g, &w, &trace, &sfc, &sim, &schedule),
                stream_fingerprint(g, &w, &trace, &sfc, &StreamConfig::default()),
            )
        };
        let base = Inputs {
            moved_endpoint: false,
            rows: (0..=6)
                .map(|h| {
                    (0..FLOWS)
                        .map(|i| ((37 * i + 11 * h) % 500) as i64)
                        .collect()
                })
                .collect(),
            east: (0..FLOWS).map(|i| i % 2 == 0).collect(),
            model: DiurnalModel {
                n_hours: 6,
                tau_min: 0.3,
            },
            offset: 3,
        };
        let (hourly, stream) = fingerprints(&base);
        assert_eq!(fingerprints(&base.clone()), (hourly, stream));
        assert_ne!(hourly, stream);

        let mut variants: Vec<(&str, Inputs)> = Vec::new();
        let mut x = base.clone();
        x.rows[4][7] += 1;
        variants.push(("one base rate at one hour", x));
        let mut x = base.clone();
        x.east[5] = !x.east[5];
        variants.push(("one cohort flag", x));
        let mut x = base.clone();
        x.model.tau_min = 0.31;
        variants.push(("tau_min", x));
        let mut x = base.clone();
        x.offset = 4;
        variants.push(("offset", x));
        let mut x = base.clone();
        x.model.n_hours = 7;
        x.rows.push(x.rows[6].clone());
        variants.push(("n_hours", x));
        let mut x = base.clone();
        x.moved_endpoint = true;
        variants.push(("one flow endpoint", x));
        for (what, x) in &variants {
            let (h, st) = fingerprints(x);
            assert_ne!(h, hourly, "hourly fingerprint ignores {what}");
            assert_ne!(st, stream, "stream fingerprint ignores {what}");
        }
    }

    #[test]
    fn store_round_trip_through_disk_slots() {
        let (g, dm, w, trace) = fixture(20, 41);
        let sfc = Sfc::of_len(3).unwrap();
        let dir = std::env::temp_dir().join(format!("ppdc-stream-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cs = CheckpointStore::new(dir.join("stream.ckpt"));
        let cfg = StreamConfig {
            store: Some(cs.clone()),
            stop_after: Some(3),
            ..StreamConfig::default()
        };
        let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &StreamConfig::default()).unwrap();
        let _stopped = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let (loaded, _slot) = cs.load_with(StreamCheckpoint::from_json).unwrap();
        assert_eq!(loaded.epoch, 3);
        let cfg_resume = StreamConfig {
            store: Some(cs),
            ..StreamConfig::default()
        };
        let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg_resume, &loaded).unwrap();
        assert_eq!(resumed.result, full.result);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

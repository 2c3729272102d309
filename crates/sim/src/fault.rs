//! Fault injection and the survivable epoch loop.
//!
//! Production fabrics lose links and switches mid-day; the paper's epoch
//! loop assumes a healthy graph. This module closes that gap:
//!
//! * [`FaultSchedule`] — a deterministic, seeded day-long schedule of
//!   fail/repair events (memoryless per-hour failures, fixed repair lag),
//!   interleaved with the trace's hourly rate deltas.
//! * [`run_day`] / [`resume_day`] — the hourly TOP → TOM epoch loop,
//!   hardened to run **every** hour of the day no matter what fails. With
//!   an empty schedule it is the plain loop: TOP at hour 0, the policy
//!   every hour after, aggregates folded by rate deltas. On event hours it
//!   rebuilds the degraded view
//!   ([`ppdc_topology::Graph::degraded_view`]) and its distance matrix in
//!   place, elects the *serving component*, masks out stranded flows,
//!   rebuilds candidate-restricted attach aggregates, and repairs the VNF
//!   placement when a failure knocked one of its switches out. Quiet hours
//!   keep the incremental delta feed.
//! * [`DegradedHourRecord`] — per-hour degradation telemetry (stranded
//!   flows and rate, reroute cost over the healthy fabric, recovery
//!   migrations, blackout and degraded-solver flags).
//!
//! ## Serving component and stranded flows
//!
//! When failures partition the fabric, the loop serves the component with
//! the most alive switches (ties: most alive hosts, then lowest component
//! id). Flows with an endpoint host outside that component are *stranded*:
//! their rates are masked to zero so no cost term can observe an
//! [`INFINITY`] distance, and they re-enter the workload automatically at
//! the repair event that reconnects them. An hour whose serving component
//! has fewer switches than the SFC has VNFs is a *blackout*: nothing can
//! be placed, the hour records zero served cost, and the loop moves on.
//!
//! ## Placement repair
//!
//! A failure that removes one of the placement's switches triggers
//! *recovery* before any policy runs: Algorithm 3 re-places the chain
//! inside the serving component, paying `μ·d(old, new)` per surviving VNF
//! and `μ·diameter` (degraded, i.e. largest finite pairwise distance) per
//! VNF whose old switch is gone — re-instantiating from the image store is
//! priced like the longest possible copy. Recovery hours skip the policy.
//!
//! ## Reroute penalty
//!
//! On an unhealthy hour, [`DegradedHourRecord::reroute_cost`] is the
//! served comm cost on the degraded fabric minus the same placement's
//! comm cost on the healthy one. The healthy side is priced from one
//! single-source row per placement switch, never from a second V²
//! matrix: Eq. 1 reads only distances from the placement's switches, so
//! a faulty day holds one dense matrix, the degraded view's.

use std::collections::BTreeSet;

use ppdc_migration::{
    mcf_vm_migration, mpareto, optimal_migration, plan_vm_migration, MigrationError,
};
use ppdc_model::{comm_cost, FlowId, ModelError, Placement, Sfc, VmId, Workload};
use ppdc_obs::{names as obs_names, Stopwatch};
use ppdc_placement::{dp_placement, AggregateError, AttachAggregates, PlacementError};
use ppdc_topology::{
    sat_add, sat_mul, Cost, DistanceMatrix, EdgeId, FaultSet, Graph, NodeId, NodeKind, Partition,
    ShortestPaths, TopologyError, INFINITY,
};
use ppdc_traffic::{rng_for_run, DynamicTrace, TraceError};
use rand::Rng;

use crate::checkpoint::{fingerprint, Checkpoint, CheckpointStore, CkptError};
use crate::simulator::{HourRecord, MigrationPolicy, SimConfig};
use crate::supervisor::{transient_gate, GateOutcome, SupervisorConfig};

/// Failure-process parameters for [`FaultSchedule::generate`].
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Per-hour probability that a healthy link fails.
    pub link_fail_per_hour: f64,
    /// Per-hour probability that a healthy switch fails.
    pub switch_fail_per_hour: f64,
    /// Hours until a failed element comes back (floored at 1).
    pub repair_after: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            link_fail_per_hour: 0.02,
            switch_fail_per_hour: 0.005,
            repair_after: 2,
        }
    }
}

/// One fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A switch goes dark (all incident links with it).
    FailSwitch(NodeId),
    /// A failed switch comes back.
    RepairSwitch(NodeId),
    /// A single link goes dark.
    FailLink(EdgeId),
    /// A failed link comes back.
    RepairLink(EdgeId),
}

impl FaultKind {
    /// True for the two failure (not repair) transitions.
    pub fn is_failure(self) -> bool {
        matches!(self, FaultKind::FailSwitch(_) | FaultKind::FailLink(_))
    }
}

/// A fault transition pinned to the hour it takes effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The hour (1-based, like the epoch loop's) the transition applies.
    pub hour: u32,
    /// What fails or recovers.
    pub kind: FaultKind,
}

/// A deterministic day-long schedule of fail/repair events.
///
/// Events are kept sorted by hour with repairs ahead of failures within an
/// hour, so an element repaired at `h` can immediately fail again at `h`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
    n_hours: u32,
}

/// A hand-crafted event list that no real fault process could emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// An event's hour is 0 or beyond the day.
    HourOutOfRange {
        /// The offending event.
        event: FaultEvent,
        /// The day length the schedule was built for.
        n_hours: u32,
    },
    /// The element is already down when this failure lands.
    FailWhileFailed {
        /// The offending event.
        event: FaultEvent,
    },
    /// The element is already up when this repair lands.
    RepairWhileHealthy {
        /// The offending event.
        event: FaultEvent,
    },
    /// The schedule was built for a different day length than the trace
    /// it is run against.
    HorizonMismatch {
        /// The day length the schedule was built for.
        schedule: u32,
        /// The trace's day length.
        trace: u32,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::HourOutOfRange { event, n_hours } => write!(
                f,
                "event {event:?} is outside the day (hours 1..={n_hours})"
            ),
            ScheduleError::FailWhileFailed { event } => {
                write!(f, "event {event:?} fails an element that is already down")
            }
            ScheduleError::RepairWhileHealthy { event } => {
                write!(f, "event {event:?} repairs an element that is already up")
            }
            ScheduleError::HorizonMismatch { schedule, trace } => write!(
                f,
                "schedule covers {schedule} hours but the trace covers {trace}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

impl FaultSchedule {
    /// Wraps hand-crafted events (tests, replayed traces). Sorts them into
    /// canonical order and rejects sequences no fault process could emit.
    ///
    /// # Errors
    ///
    /// [`ScheduleError`] when an event falls outside hours `1..=n_hours`,
    /// fails an element that is already down, or repairs one that is
    /// already up (checked in canonical order, so a repair and a re-fail
    /// of the same element within one hour is legal).
    pub fn new(mut events: Vec<FaultEvent>, n_hours: u32) -> Result<Self, ScheduleError> {
        events.sort_by_key(|e| (e.hour, e.kind.is_failure()));
        Self::validate(&events, n_hours)?;
        Ok(FaultSchedule { events, n_hours })
    }

    /// Wraps events that are valid by construction ([`Self::generate`],
    /// the chaos scheduler). Sorts into canonical order; validity is only
    /// debug-asserted.
    pub(crate) fn from_sorted(mut events: Vec<FaultEvent>, n_hours: u32) -> Self {
        events.sort_by_key(|e| (e.hour, e.kind.is_failure()));
        debug_assert!(Self::validate(&events, n_hours).is_ok());
        FaultSchedule { events, n_hours }
    }

    /// Sweeps canonically-ordered events with fail/repair consistency
    /// tracking.
    fn validate(events: &[FaultEvent], n_hours: u32) -> Result<(), ScheduleError> {
        let mut down_nodes: BTreeSet<u32> = BTreeSet::new();
        let mut down_edges: BTreeSet<u32> = BTreeSet::new();
        for &event in events {
            if event.hour == 0 || event.hour > n_hours {
                return Err(ScheduleError::HourOutOfRange { event, n_hours });
            }
            let fresh = match event.kind {
                FaultKind::FailSwitch(n) => down_nodes.insert(n.0),
                FaultKind::RepairSwitch(n) => down_nodes.remove(&n.0),
                FaultKind::FailLink(l) => down_edges.insert(l.0),
                FaultKind::RepairLink(l) => down_edges.remove(&l.0),
            };
            if !fresh {
                return Err(if event.kind.is_failure() {
                    ScheduleError::FailWhileFailed { event }
                } else {
                    ScheduleError::RepairWhileHealthy { event }
                });
            }
        }
        Ok(())
    }

    /// Samples a schedule: each hour, every healthy switch fails with
    /// probability `switch_fail_per_hour` and every healthy link with
    /// `link_fail_per_hour`; a failed element repairs `repair_after` hours
    /// later (repairs past the end of the day are dropped). Fully
    /// deterministic in `(g, n_hours, cfg, seed)` — switches are swept
    /// before links, both in id order, with one ChaCha8 stream.
    pub fn generate(g: &Graph, n_hours: u32, cfg: &FaultConfig, seed: u64) -> Self {
        // 0xFA17 keeps this stream disjoint from the workload generator's
        // run indices for the same seed.
        let mut rng = rng_for_run(seed, 0xFA17);
        let repair_after = cfg.repair_after.max(1);
        // Hour at which the element is back up (0 = never failed).
        let mut up_node = vec![0u32; g.num_nodes()];
        let mut up_edge = vec![0u32; g.num_edges()];
        let mut events = Vec::new();
        let switches: Vec<NodeId> = g.switches().collect();
        for h in 1..=n_hours {
            for &s in &switches {
                if up_node[s.index()] > h {
                    continue; // still down
                }
                if rng.gen_bool(cfg.switch_fail_per_hour) {
                    let up = h.saturating_add(repair_after);
                    up_node[s.index()] = up;
                    events.push(FaultEvent {
                        hour: h,
                        kind: FaultKind::FailSwitch(s),
                    });
                    if up <= n_hours {
                        events.push(FaultEvent {
                            hour: up,
                            kind: FaultKind::RepairSwitch(s),
                        });
                    }
                }
            }
            for (i, up_slot) in up_edge.iter_mut().enumerate() {
                if *up_slot > h {
                    continue;
                }
                if rng.gen_bool(cfg.link_fail_per_hour) {
                    let e = EdgeId(i as u32);
                    let up = h.saturating_add(repair_after);
                    *up_slot = up;
                    events.push(FaultEvent {
                        hour: h,
                        kind: FaultKind::FailLink(e),
                    });
                    if up <= n_hours {
                        events.push(FaultEvent {
                            hour: up,
                            kind: FaultKind::RepairLink(e),
                        });
                    }
                }
            }
        }
        Self::from_sorted(events, n_hours)
    }

    /// The day length the schedule was generated for.
    pub fn n_hours(&self) -> u32 {
        self.n_hours
    }

    /// All events in canonical order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events taking effect at hour `h` (repairs first).
    pub fn events_at(&self, h: u32) -> impl Iterator<Item = &FaultEvent> + '_ {
        self.events.iter().filter(move |e| e.hour == h)
    }

    /// How many *failure* (not repair) events the schedule injects.
    pub fn num_fail_events(&self) -> usize {
        self.events.iter().filter(|e| e.kind.is_failure()).count()
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Errors produced by the hourly engine ([`run_day`] / [`resume_day`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A migration policy failed.
    Migration(MigrationError),
    /// A placement (re-)solve failed.
    Placement(PlacementError),
    /// Invalid model input (rate vector shape, …).
    Model(ModelError),
    /// A fault event referenced an element outside the graph.
    Topology(TopologyError),
    /// Checkpoint persistence or restore failed (I/O, torn file, or a
    /// snapshot that does not belong to these inputs).
    Checkpoint(CkptError),
    /// A hand-crafted fault schedule was internally inconsistent, or its
    /// day length differs from the trace's.
    Schedule(ScheduleError),
    /// The dynamic trace rejected an hour index or rate-row shape.
    Trace(TraceError),
    /// An hour's rate deltas disagreed with the aggregates they were
    /// folded into.
    Aggregate(AggregateError),
}

impl From<MigrationError> for SimError {
    fn from(e: MigrationError) -> Self {
        SimError::Migration(e)
    }
}

impl From<PlacementError> for SimError {
    fn from(e: PlacementError) -> Self {
        SimError::Placement(e)
    }
}

impl From<ModelError> for SimError {
    fn from(e: ModelError) -> Self {
        SimError::Model(e)
    }
}

impl From<TopologyError> for SimError {
    fn from(e: TopologyError) -> Self {
        SimError::Topology(e)
    }
}

impl From<CkptError> for SimError {
    fn from(e: CkptError) -> Self {
        SimError::Checkpoint(e)
    }
}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> Self {
        SimError::Schedule(e)
    }
}

impl From<TraceError> for SimError {
    fn from(e: TraceError) -> Self {
        SimError::Trace(e)
    }
}

impl From<AggregateError> for SimError {
    fn from(e: AggregateError) -> Self {
        SimError::Aggregate(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Migration(e) => write!(f, "migration error: {e}"),
            SimError::Placement(e) => write!(f, "placement error: {e}"),
            SimError::Model(e) => write!(f, "model error: {e}"),
            SimError::Topology(e) => write!(f, "topology error: {e}"),
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SimError::Schedule(e) => write!(f, "schedule error: {e}"),
            SimError::Trace(e) => write!(f, "trace error: {e}"),
            SimError::Aggregate(e) => write!(f, "aggregate error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Wall-clock nanoseconds each epoch phase spent during one hour.
///
/// Only observed runs ([`EngineConfig::observe`]) fill these in; the
/// values are timing — inherently nondeterministic — which is why they
/// live behind an `Option` on [`DegradedHourRecord`] instead of inline
/// fields: unobserved runs stay bit-comparable with `==`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseNanos {
    /// In-place APSP rebuild of the degraded view (event hours only).
    pub apsp_ns: u64,
    /// Attach-aggregate work: restricted rebuild on event hours, the
    /// incremental delta fold on quiet hours.
    pub aggregates_ns: u64,
    /// The hour's migration-policy solve (0 on repair and blackout hours).
    pub solver_ns: u64,
    /// Placement repair after a failure displaced the chain (0 otherwise).
    pub repair_ns: u64,
}

/// Which rung of the supervisor's degradation ladder produced an hour's
/// serving placement (see [`crate::supervisor`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HourProvenance {
    /// The policy's solve ran to completion.
    Exact,
    /// A budgeted solver exhausted its deadline and returned its
    /// best-so-far incumbent (`Exactness::Degraded`).
    DegradedDeadline,
    /// The solve could not run (transient starvation outlasted the retry
    /// budget); the previous placement was kept and repriced.
    LastKnownGood,
    /// Nothing was solved: the hour was a blackout.
    Blackout,
}

/// Per-hour degradation telemetry (one record per simulated hour; all
/// fields are zero/false on a fully healthy hour).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedHourRecord {
    /// Hour index (1..=N), aligned with [`HourRecord::hour`].
    pub hour: u32,
    /// Switches down during this hour.
    pub failed_switches: usize,
    /// Links down during this hour (switch failures not included).
    pub failed_links: usize,
    /// Flows masked out because an endpoint left the serving component.
    pub stranded_flows: usize,
    /// Total traffic rate those flows would have carried this hour.
    pub stranded_rate: u64,
    /// Extra communication cost the served flows pay over what the same
    /// placement would cost on the healthy fabric (detour penalty).
    pub reroute_cost: Cost,
    /// VNFs moved (or re-instantiated) by placement repair this hour.
    pub recovery_migrations: usize,
    /// The serving component could not even hold the SFC (or no flow was
    /// left to serve) — the hour was skipped.
    pub blackout: bool,
    /// The hour's solve fell below rung 1 of the degradation ladder
    /// (budget-exhausted incumbent or last-known-good fallback).
    pub degraded_solver: bool,
    /// Which ladder rung served the hour.
    pub provenance: HourProvenance,
    /// Transient solve failures the supervisor retried through this hour
    /// (nonzero only under injected starvation).
    pub solver_retries: u32,
    /// Per-phase wall time, present only on observed runs
    /// ([`EngineConfig::observe`]).
    pub phase: Option<PhaseNanos>,
}

/// A full simulated day (fault-free when the schedule is empty).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSimResult {
    /// The TOP placement cost at hour 0 (always on the healthy fabric).
    pub initial_cost: Cost,
    /// Hour-by-hour cost records (hours 1..=N).
    pub hours: Vec<HourRecord>,
    /// Hour-by-hour degradation records, aligned with `hours`.
    pub degraded: Vec<DegradedHourRecord>,
    /// Sum of all hourly totals (served cost only; stranded rate is in
    /// [`DegradedHourRecord::stranded_rate`]).
    pub total_cost: Cost,
    /// Policy migrations plus recovery migrations across the day.
    pub total_migrations: usize,
    /// Aggregate builds: 1 for hour 0 plus one per event hour.
    pub aggregate_rebuilds: usize,
    /// Hours skipped entirely (serving component smaller than the SFC, or
    /// every flow stranded).
    pub blackout_hours: usize,
    /// Total VNFs moved by placement repair (subset of
    /// `total_migrations`).
    pub recovery_migrations: usize,
}

/// The serving component's switch candidates and the flow mask it implies.
struct ServingView {
    /// Alive switches of the serving component, in node-id order.
    candidates: Vec<NodeId>,
    /// `cand_mask[n]` ⇔ node `n` is a serving candidate switch.
    cand_mask: Vec<bool>,
    /// `stranded[f]` ⇔ flow `f` has an endpoint outside the component.
    stranded: Vec<bool>,
}

impl ServingView {
    /// Elects the serving component of `g_view` (most alive switches, then
    /// most alive hosts, then lowest component id) and derives the
    /// candidate and stranded masks.
    fn elect(g_view: &Graph, faults: &FaultSet, w: &Workload) -> Self {
        let part = Partition::of(g_view);
        let nc = part.num_components();
        let mut alive_switches = vec![0usize; nc];
        let mut alive_hosts = vec![0usize; nc];
        for n in g_view.nodes() {
            if faults.node_failed(n) {
                continue;
            }
            let c = part.component(n) as usize;
            match g_view.kind(n) {
                NodeKind::Switch => alive_switches[c] += 1,
                NodeKind::Host => alive_hosts[c] += 1,
            }
        }
        let serving = (0..nc)
            .max_by_key(|&c| (alive_switches[c], alive_hosts[c], std::cmp::Reverse(c)))
            .unwrap_or(0) as u32;
        let mut cand_mask = vec![false; g_view.num_nodes()];
        let mut candidates = Vec::new();
        let mut host_ok = vec![false; g_view.num_nodes()];
        for n in g_view.nodes() {
            if faults.node_failed(n) || part.component(n) != serving {
                continue;
            }
            match g_view.kind(n) {
                NodeKind::Switch => {
                    cand_mask[n.index()] = true;
                    candidates.push(n);
                }
                NodeKind::Host => host_ok[n.index()] = true,
            }
        }
        let stranded = w
            .flow_ids()
            .map(|f| {
                let (src, dst) = w.endpoints(f);
                !(host_ok[src.index()] && host_ok[dst.index()])
            })
            .collect();
        ServingView {
            candidates,
            cand_mask,
            stranded,
        }
    }

    /// Rebuilds a view from checkpointed parts. The candidate list and
    /// stranded mask are stored rather than re-elected: stranding was
    /// computed against VM endpoints of the election hour, which VM
    /// migration may since have moved.
    fn from_parts(num_nodes: usize, candidates: Vec<NodeId>, stranded: Vec<bool>) -> Self {
        let mut cand_mask = vec![false; num_nodes];
        for c in &candidates {
            cand_mask[c.index()] = true;
        }
        ServingView {
            candidates,
            cand_mask,
            stranded,
        }
    }
}

/// Sets the hour's trace `rates` on `w` with stranded flows masked to
/// zero; returns the total rate masked out.
fn set_masked_rates(w: &mut Workload, rates: &[u64], stranded: &[bool]) -> Result<u64, ModelError> {
    w.set_rates(rates)?;
    let mut masked = 0u64;
    for (i, &r) in rates.iter().enumerate() {
        if stranded.get(i).copied().unwrap_or(false) {
            masked += r;
            w.set_rate(FlowId::from_index(i), 0);
        }
    }
    Ok(masked)
}

/// Eq. 1's communication cost of `p` on the healthy fabric `g`, priced
/// from one single-source row per placement switch instead of a V²
/// matrix. The fabric is undirected, so `c(h, p(1))` is row `p(1)` at `h`;
/// the arithmetic runs in [`comm_cost`]'s order, so the result is
/// bit-identical to `comm_cost(&DistanceMatrix::build(g), w, p)`.
fn healthy_comm_cost(g: &Graph, w: &Workload, p: &Placement) -> Cost {
    let rows: Vec<ShortestPaths> = p
        .switches()
        .iter()
        .map(|&s| ShortestPaths::dijkstra(g, s))
        .collect();
    let (Some(ingress), Some(egress)) = (rows.first(), rows.last()) else {
        return 0;
    };
    let chain = rows
        .iter()
        .zip(p.switches().iter().skip(1))
        .map(|(row, &next)| row.cost(next))
        .fold(0, sat_add);
    let mut total = sat_mul(w.total_rate(), chain);
    for (_, src, dst, rate) in w.iter() {
        total = sat_add(
            total,
            sat_mul(rate, sat_add(ingress.cost(src), egress.cost(dst))),
        );
    }
    total
}

/// Knobs of the crash-safe epoch engine ([`run_day`] / [`resume_day`]).
/// `EngineConfig::default()` runs the plain day: no observation, no
/// persistence, no early stop, default supervisor.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Fill [`DegradedHourRecord::phase`] with per-phase wall time (APSP
    /// rebuild / aggregates / solver / repair), and pre-declare and feed the
    /// [`ppdc_obs::global`] registry's epoch metrics (spans, counters, the
    /// per-hour solver histogram) so an enabled registry exports a
    /// stable-schema summary afterwards. Observation never feeds back:
    /// every non-`phase` field is bit-identical to the unobserved run.
    pub observe: bool,
    /// Retry policy and injected starvation for the hourly solve.
    pub supervisor: SupervisorConfig,
    /// Where to persist snapshots; `None` disables checkpointing.
    pub store: Option<CheckpointStore>,
    /// Persist every `n` completed hours (floored at 1; the stop hour and
    /// the final hour are always persisted when a store is set).
    pub checkpoint_every: u32,
    /// Halt after completing this hour (crash simulation). The returned
    /// [`DayRun`] then carries `completed = false` (unless the day ended
    /// anyway) and a resume checkpoint.
    pub stop_after: Option<u32>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            observe: false,
            supervisor: SupervisorConfig::default(),
            store: None,
            checkpoint_every: 1,
            stop_after: None,
        }
    }
}

/// Outcome of one (possibly interrupted) engine run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DayRun {
    /// The day so far — the full [`FaultSimResult`] when `completed`,
    /// otherwise the prefix up to the stop hour.
    pub result: FaultSimResult,
    /// True when every hour of the trace was simulated.
    pub completed: bool,
    /// The resume snapshot at the last completed hour; present exactly
    /// when [`EngineConfig::stop_after`] halted the run at or before the
    /// final hour. Feed it to [`resume_day`] (optionally after a disk
    /// round-trip through [`CheckpointStore`]).
    pub checkpoint: Option<Checkpoint>,
}

/// Runs one day: TOP at hour 0 on the healthy fabric, then every hour
/// applies the schedule's fail/repair events, re-elects the serving
/// component, masks stranded flows, repairs the placement if a failure
/// displaced it, and only then runs the policy. With an empty schedule
/// this is the plain TOP → TOM loop. Every policy finishes the day —
/// partitions, blackouts, and solver budget exhaustion degrade the result
/// (see [`DegradedHourRecord`]) instead of aborting it.
///
/// `ecfg` adds engine control on top: phase observation, checkpoint
/// persistence, supervised solves, early stop.
/// Two calls with the same inputs produce bit-identical results.
///
/// # Errors
///
/// [`SimError`] on genuinely broken inputs (trace/workload shape
/// mismatches, a schedule whose day length differs from the trace's,
/// events referencing foreign elements, infeasible MCF) or failed
/// checkpoint I/O — never because of an injected fault or starvation.
#[allow(clippy::too_many_arguments)]
pub fn run_day(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    ecfg: &EngineConfig,
) -> Result<DayRun, SimError> {
    run_day_impl(g, w, trace, sfc, cfg, schedule, ecfg, None)
}

/// Resumes a day from a [`Checkpoint`] taken by [`run_day`] (directly or
/// loaded back through a [`CheckpointStore`]) and finishes it. The
/// completed run is **bit-identical** to the uninterrupted one: the rates
/// are re-derived from the trace (`rates_at(hour)` masked by the
/// snapshot's stranded set), derived state (APSP, metric closure, attach
/// aggregates) is rebuilt from the snapshot, and the delta/rebuild
/// equivalence guarantees make the rebuilds exact.
///
/// # Errors
///
/// [`SimError::Checkpoint`] when the snapshot is corrupt or was taken
/// from different inputs (fingerprint mismatch); otherwise as
/// [`run_day`].
#[allow(clippy::too_many_arguments)]
pub fn resume_day(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    ecfg: &EngineConfig,
    ckpt: &Checkpoint,
) -> Result<DayRun, SimError> {
    run_day_impl(g, w, trace, sfc, cfg, schedule, ecfg, Some(ckpt))
}

#[allow(clippy::too_many_arguments)]
fn run_day_impl(
    g: &Graph,
    w: &Workload,
    trace: &DynamicTrace,
    sfc: &Sfc,
    cfg: &SimConfig,
    schedule: &FaultSchedule,
    ecfg: &EngineConfig,
    resume: Option<&Checkpoint>,
) -> Result<DayRun, SimError> {
    let n_hours = trace.model().n_hours;
    if schedule.n_hours() != n_hours {
        return Err(ScheduleError::HorizonMismatch {
            schedule: schedule.n_hours(),
            trace: n_hours,
        }
        .into());
    }
    let obs = ppdc_obs::global();
    if ecfg.observe {
        obs.declare(obs_names::SPANS, obs_names::COUNTERS, obs_names::HISTS);
    }
    // Stopwatches run when the caller wants per-hour phases OR the global
    // registry wants aggregate spans; either way the readings only ever
    // flow *out* of the simulation.
    let measuring = ecfg.observe || obs.is_enabled();
    // The input fingerprint only matters when snapshots are taken or
    // consumed; a plain run never pays for it.
    let wants_snapshots = ecfg.store.is_some() || ecfg.stop_after.is_some();
    let fp = if wants_snapshots || resume.is_some() {
        fingerprint(g, w, trace, sfc, cfg, schedule)
    } else {
        0
    };
    let mut faults = FaultSet::new(g);
    let mut w_cur = w.clone();

    // The trace's unmasked rates at the last completed hour, stepped
    // hour by hour by a cursor over the trace.
    let mut rates;
    let mut g_view;
    let mut dm_cur;
    let mut agg;
    let mut sv;
    let mut p;
    let initial_cost;
    let mut hours;
    let mut degraded;
    let mut total_cost: Cost;
    let mut total_migrations;
    let mut aggregate_rebuilds;
    let mut blackout_hours;
    let mut recovery_total;
    let start_hour;

    if let Some(ck) = resume {
        ck.validate_against(g, w, sfc, n_hours, fp)?;
        obs.add(obs_names::CKPT_RESTORES, 1);
        // Reconstruct the mutable loop state from the snapshot; derived
        // structures (APSP, aggregates, closure) are rebuilt, which is
        // exact: `rebuild_dirty` chains are proptested bit-identical to
        // full builds, and `build` ≡ `build_restricted`(all) + delta
        // feeds (PR 1/PR 5).
        for &n in &ck.failed_nodes {
            faults.fail_node(n)?;
        }
        for &e in &ck.failed_edges {
            faults.fail_edge(e)?;
        }
        g_view = g.degraded_view(&faults);
        dm_cur = DistanceMatrix::build(&g_view);
        for (i, &host) in ck.hosts.iter().enumerate() {
            w_cur.set_host(VmId::from_index(i), host);
        }
        // Every hour ends with exactly these masked rates (each branch of
        // the loop calls `set_masked_rates`, and VM moves keep rates).
        rates = trace.rates_at(ck.hour);
        set_masked_rates(&mut w_cur, &rates, &ck.stranded)?;
        sv = ServingView::from_parts(g.num_nodes(), ck.candidates.clone(), ck.stranded.clone());
        agg = AttachAggregates::build_restricted(&g_view, &dm_cur, &w_cur, &sv.candidates);
        p = Placement::new_unchecked(ck.placement.clone());
        initial_cost = ck.initial_cost;
        hours = ck.hours.clone();
        degraded = ck.degraded.clone();
        total_cost = ck.total_cost;
        total_migrations = ck.total_migrations;
        aggregate_rebuilds = ck.aggregate_rebuilds;
        blackout_hours = ck.blackout_hours;
        recovery_total = ck.recovery_migrations;
        start_hour = ck.hour + 1;
    } else {
        // The healthy degraded view re-adds every edge in original order,
        // so `dm_cur` starts bit-identical to the healthy matrix (and node
        // ids match `g` forever — views never renumber).
        g_view = g.degraded_view(&faults);
        dm_cur = DistanceMatrix::build(&g_view);
        rates = trace.rates_at(0);
        w_cur.set_rates(&rates)?;
        agg = AttachAggregates::build(&g_view, &dm_cur, &w_cur);
        aggregate_rebuilds = 1usize;
        let (p0, c0) = dp_placement(&dm_cur, &w_cur, sfc, &agg)?;
        p = p0;
        initial_cost = c0;
        sv = ServingView::elect(&g_view, &faults, &w_cur);
        hours = Vec::with_capacity(n_hours as usize);
        degraded = Vec::with_capacity(n_hours as usize);
        total_cost = 0;
        total_migrations = 0usize;
        blackout_hours = 0usize;
        recovery_total = 0usize;
        start_hour = 1;
    }

    let maintains_agg = matches!(
        cfg.policy,
        MigrationPolicy::MPareto
            | MigrationPolicy::OptimalVnf { .. }
            | MigrationPolicy::NoMigration
    );
    let every = ecfg.checkpoint_every.max(1);
    let mut final_ckpt: Option<Checkpoint> = None;
    let mut halted_at: Option<u32> = None;

    let mut cursor = trace.cursor(start_hour - 1);
    for h in start_hour..=n_hours {
        let deltas = cursor.step_deltas(&mut rates)?;
        let events: Vec<FaultEvent> = schedule.events_at(h).copied().collect();
        let event_hour = !events.is_empty();
        let mut apsp_ns = 0u64;
        let mut aggregates_ns = 0u64;
        let stranded_rate;
        if event_hour {
            let rebuild_sw = Stopwatch::start_if(measuring);
            // Every edge an event can have toggled, with its healthy
            // weight from the original graph; over-listing (a repair of a
            // link whose endpoint switch is still down, say) is harmless —
            // `rebuild_dirty` consults the new view for presence and at
            // worst re-runs a clean row.
            let mut changed: Vec<(NodeId, NodeId, Cost)> = Vec::new();
            for e in &events {
                match e.kind {
                    FaultKind::FailSwitch(s) => {
                        faults.fail_node(s)?;
                        changed.extend(g.neighbors(s).iter().map(|&(v, wv)| (s, v, wv)));
                    }
                    FaultKind::RepairSwitch(s) => {
                        faults.repair_node(s)?;
                        changed.extend(g.neighbors(s).iter().map(|&(v, wv)| (s, v, wv)));
                    }
                    FaultKind::FailLink(l) => {
                        faults.fail_edge(l)?;
                        changed.push(g.edge(l));
                    }
                    FaultKind::RepairLink(l) => {
                        faults.repair_edge(l)?;
                        changed.push(g.edge(l));
                    }
                }
            }
            g_view = g.degraded_view(&faults);
            let apsp_sw = Stopwatch::start_if(measuring);
            dm_cur.rebuild_dirty(&g_view, &changed);
            apsp_ns = apsp_sw.elapsed_ns();
            sv = ServingView::elect(&g_view, &faults, &w_cur);
            stranded_rate = set_masked_rates(&mut w_cur, &rates, &sv.stranded)?;
            // The stranded set changed: delta feeds would mix masked and
            // unmasked rates, so rebuild from the serving candidates.
            let agg_sw = Stopwatch::start_if(measuring);
            agg = AttachAggregates::build_restricted(&g_view, &dm_cur, &w_cur, &sv.candidates);
            aggregates_ns = agg_sw.elapsed_ns();
            aggregate_rebuilds += 1;
            obs.record_span_ns(obs_names::SIM_DEGRADED_REBUILD, rebuild_sw.elapsed_ns());
            obs.add(obs_names::SIM_EVENT_HOURS, 1);
        } else if maintains_agg {
            // Quiet hour: the stranded set is unchanged, so the masked
            // rates evolve exactly by the trace's deltas on active flows.
            let deltas: Vec<(FlowId, i64)> = deltas
                .into_iter()
                .filter(|(f, _)| !sv.stranded[f.index()])
                .collect();
            stranded_rate = set_masked_rates(&mut w_cur, &rates, &sv.stranded)?;
            let agg_sw = Stopwatch::start_if(measuring);
            agg.apply_rate_deltas(&dm_cur, &w_cur, &deltas)?;
            aggregates_ns = agg_sw.elapsed_ns();
        } else {
            stranded_rate = set_masked_rates(&mut w_cur, &rates, &sv.stranded)?;
        }
        obs.add(obs_names::SIM_HOURS, 1);

        let stranded_flows = sv.stranded.iter().filter(|&&s| s).count();
        obs.add(obs_names::SIM_STRANDED_FLOW_HOURS, stranded_flows as u64);
        let any_traffic = w_cur.rates().iter().any(|&r| r > 0);
        let blackout = sv.candidates.len() < sfc.len();
        let (rec, drec) = if blackout || !any_traffic {
            // Nothing can be (or needs to be) served this hour.
            blackout_hours += 1;
            obs.add(obs_names::SIM_BLACKOUT_HOURS, 1);
            (
                HourRecord {
                    hour: h,
                    migration_cost: 0,
                    comm_cost: 0,
                    total_cost: 0,
                    num_migrations: 0,
                },
                DegradedHourRecord {
                    hour: h,
                    failed_switches: faults.num_failed_nodes(),
                    failed_links: faults.num_failed_edges(),
                    stranded_flows,
                    stranded_rate,
                    reroute_cost: 0,
                    recovery_migrations: 0,
                    blackout: true,
                    degraded_solver: false,
                    provenance: HourProvenance::Blackout,
                    solver_retries: 0,
                    phase: ecfg.observe.then_some(PhaseNanos {
                        apsp_ns,
                        aggregates_ns,
                        solver_ns: 0,
                        repair_ns: 0,
                    }),
                },
            )
        } else {
            let needs_repair = p.switches().iter().any(|s| !sv.cand_mask[s.index()]);
            // The transient-failure gate (supervisor rung 2→3 walk). Recovery
            // hours bypass it: a displaced chain must be re-placed before
            // anything else can be served, starvation or not.
            let gate = if needs_repair {
                GateOutcome {
                    retries: 0,
                    exhausted: false,
                }
            } else {
                transient_gate(&ecfg.supervisor, h)
            };
            if gate.retries > 0 {
                obs.add(obs_names::SUPERVISOR_RETRIES, u64::from(gate.retries));
            }
            let recovery_migrations;
            let mut degraded_solver = false;
            let mut provenance = HourProvenance::Exact;
            let solve_sw = Stopwatch::start_if(measuring);
            let rec = if needs_repair {
                // Recovery: re-place inside the serving component before any
                // policy gets to run; the hour's migration budget is spent on
                // getting the chain back up.
                let (p_new, comm) = dp_placement(&dm_cur, &w_cur, sfc, &agg)?;
                let reinstantiate = dm_cur.diameter();
                let mut migration_cost: Cost = 0;
                let mut moved = 0usize;
                for (&old, &new) in p.switches().iter().zip(p_new.switches()) {
                    if old == new {
                        continue;
                    }
                    moved += 1;
                    let d = dm_cur.cost(old, new);
                    let hop = if d >= INFINITY { reinstantiate } else { d };
                    migration_cost = migration_cost.saturating_add(cfg.mu.saturating_mul(hop));
                }
                p = p_new;
                recovery_migrations = moved;
                recovery_total += moved;
                HourRecord {
                    hour: h,
                    migration_cost,
                    comm_cost: comm,
                    total_cost: migration_cost.saturating_add(comm),
                    num_migrations: moved,
                }
            } else if gate.exhausted {
                // Rung 3: the solve could not run at all. Keep the incumbent
                // placement and reprice it at this hour's (masked) rates —
                // valid for every policy, including the VM movers, whose
                // workload simply stays put for the hour.
                recovery_migrations = 0;
                degraded_solver = true;
                provenance = HourProvenance::LastKnownGood;
                let comm = comm_cost(&dm_cur, &w_cur, &p);
                HourRecord {
                    hour: h,
                    migration_cost: 0,
                    comm_cost: comm,
                    total_cost: comm,
                    num_migrations: 0,
                }
            } else {
                recovery_migrations = 0;
                match cfg.policy {
                    MigrationPolicy::MPareto => {
                        let out = mpareto(&g_view, &dm_cur, &w_cur, sfc, &p, cfg.mu, &agg)?;
                        p = out.migration.clone();
                        HourRecord {
                            hour: h,
                            migration_cost: out.migration_cost,
                            comm_cost: out.comm_cost,
                            total_cost: out.total_cost,
                            num_migrations: out.num_migrations,
                        }
                    }
                    MigrationPolicy::OptimalVnf { budget } => {
                        let seed = mpareto(&g_view, &dm_cur, &w_cur, sfc, &p, cfg.mu, &agg)?;
                        let (out, exactness) = optimal_migration(
                            &dm_cur,
                            sfc,
                            &p,
                            cfg.mu,
                            Some(&seed.migration),
                            budget,
                            &agg,
                        )?;
                        degraded_solver = !exactness.is_exact();
                        if degraded_solver {
                            provenance = HourProvenance::DegradedDeadline;
                        }
                        p = out.migration.clone();
                        HourRecord {
                            hour: h,
                            migration_cost: out.migration_cost,
                            comm_cost: out.comm_cost,
                            total_cost: out.total_cost,
                            num_migrations: out.num_migrations,
                        }
                    }
                    MigrationPolicy::Plan { slots, passes } => {
                        let out = plan_vm_migration(
                            &g_view, &dm_cur, &w_cur, &p, cfg.vm_mu, slots, passes,
                        );
                        w_cur = out.workload.clone();
                        HourRecord {
                            hour: h,
                            migration_cost: out.migration_cost,
                            comm_cost: out.comm_cost,
                            total_cost: out.total_cost,
                            num_migrations: out.num_migrations,
                        }
                    }
                    MigrationPolicy::Mcf { slots, candidates } => {
                        let out = mcf_vm_migration(
                            &g_view, &dm_cur, &w_cur, &p, cfg.vm_mu, slots, candidates,
                        )?;
                        w_cur = out.workload.clone();
                        HourRecord {
                            hour: h,
                            migration_cost: out.migration_cost,
                            comm_cost: out.comm_cost,
                            total_cost: out.total_cost,
                            num_migrations: out.num_migrations,
                        }
                    }
                    MigrationPolicy::NoMigration => {
                        let c = agg.comm_cost(&dm_cur, &p);
                        HourRecord {
                            hour: h,
                            migration_cost: 0,
                            comm_cost: c,
                            total_cost: c,
                            num_migrations: 0,
                        }
                    }
                }
            };

            let solve_ns = solve_sw.elapsed_ns();
            let (solver_ns, repair_ns) = if needs_repair {
                obs.record_span_ns(obs_names::SIM_REPAIR, solve_ns);
                obs.add(
                    obs_names::SIM_RECOVERY_MIGRATIONS,
                    recovery_migrations as u64,
                );
                (0, solve_ns)
            } else {
                obs.record_hist(obs_names::SIM_HOUR_SOLVER_NS, solve_ns);
                (solve_ns, 0)
            };

            if degraded_solver {
                obs.add(obs_names::SUPERVISOR_DEGRADED_HOURS, 1);
            }

            // Detour penalty: what the served flows pay on the degraded fabric
            // over the same placement on the healthy one.

            let reroute_cost = if faults.is_healthy() {
                0
            } else {
                rec.total_cost
                    .saturating_sub(rec.migration_cost)
                    .saturating_sub(healthy_comm_cost(g, &w_cur, &p))
            };
            (
                rec,
                DegradedHourRecord {
                    hour: h,
                    failed_switches: faults.num_failed_nodes(),
                    failed_links: faults.num_failed_edges(),
                    stranded_flows,
                    stranded_rate,
                    reroute_cost,
                    recovery_migrations,
                    blackout: false,
                    degraded_solver,
                    provenance,
                    solver_retries: gate.retries,
                    phase: ecfg.observe.then_some(PhaseNanos {
                        apsp_ns,
                        aggregates_ns,
                        solver_ns,
                        repair_ns,
                    }),
                },
            )
        };
        total_cost = total_cost.saturating_add(rec.total_cost);
        total_migrations += rec.num_migrations;
        hours.push(rec);
        degraded.push(drec);

        let state = SnapState {
            p: &p,
            w_cur: &w_cur,
            faults: &faults,
            sv: &sv,
            hours: &hours,
            degraded: &degraded,
            initial_cost,
            total_cost,
            total_migrations,
            aggregate_rebuilds,
            blackout_hours,
            recovery_migrations: recovery_total,
        };
        if let Some(ck) = hour_tail(ecfg, every, n_hours, fp, h, &state)? {
            final_ckpt = Some(ck);
            halted_at = Some(h);
            break;
        }
    }
    let completed = match halted_at {
        Some(h) => h >= n_hours,
        None => true,
    };
    Ok(DayRun {
        result: FaultSimResult {
            initial_cost,
            hours,
            degraded,
            total_cost,
            total_migrations,
            aggregate_rebuilds,
            blackout_hours,
            recovery_migrations: recovery_total,
        },
        completed,
        checkpoint: final_ckpt,
    })
}

/// Everything a mid-day snapshot freezes, borrowed from the loop state.
struct SnapState<'a> {
    p: &'a Placement,
    w_cur: &'a Workload,
    faults: &'a FaultSet,
    sv: &'a ServingView,
    hours: &'a [HourRecord],
    degraded: &'a [DegradedHourRecord],
    initial_cost: Cost,
    total_cost: Cost,
    total_migrations: usize,
    aggregate_rebuilds: usize,
    blackout_hours: usize,
    recovery_migrations: usize,
}

/// Freezes the loop state after hour `hour`. Phase timings are stripped:
/// they are wall-clock noise, and restored records must stay
/// bit-comparable to unobserved runs.
fn snapshot(fp: u64, hour: u32, s: &SnapState<'_>) -> Checkpoint {
    Checkpoint {
        fingerprint: fp,
        hour,
        initial_cost: s.initial_cost,
        placement: s.p.switches().to_vec(),
        hosts: s.w_cur.vm_ids().map(|v| s.w_cur.host_of(v)).collect(),
        failed_nodes: s.faults.failed_nodes().collect(),
        failed_edges: s.faults.failed_edges().collect(),
        candidates: s.sv.candidates.clone(),
        stranded: s.sv.stranded.clone(),
        hours: s.hours.to_vec(),
        degraded: s
            .degraded
            .iter()
            .map(|d| DegradedHourRecord { phase: None, ..*d })
            .collect(),
        total_cost: s.total_cost,
        total_migrations: s.total_migrations,
        aggregate_rebuilds: s.aggregate_rebuilds,
        blackout_hours: s.blackout_hours,
        recovery_migrations: s.recovery_migrations,
    }
}

/// End-of-hour persistence and crash-stop logic: writes a snapshot when
/// one is due (every `every` hours, at the final hour, and at the stop
/// hour) and returns `Some(checkpoint)` exactly when
/// [`EngineConfig::stop_after`] says to halt here.
fn hour_tail(
    ecfg: &EngineConfig,
    every: u32,
    n_hours: u32,
    fp: u64,
    h: u32,
    state: &SnapState<'_>,
) -> Result<Option<Checkpoint>, SimError> {
    let stop = ecfg.stop_after.is_some_and(|cut| h >= cut);
    let due = ecfg.store.is_some() && (h.is_multiple_of(every) || h == n_hours || stop);
    if !due && !stop {
        return Ok(None);
    }
    let ck = snapshot(fp, h, state);
    if due {
        if let Some(store) = &ecfg.store {
            store.write(&ck)?;
        }
    }
    Ok(if stop { Some(ck) } else { None })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::FatTree;
    use ppdc_traffic::{DiurnalModel, DynamicTrace, DEFAULT_MIX, STANDARD_CHURN};

    /// A 24-hour trace over the standard workload (standard_workload
    /// hard-codes the 12-hour default model).
    fn day24(num_pairs: usize, seed: u64) -> (FatTree, Workload, DynamicTrace) {
        let ft = FatTree::build(4).unwrap();
        let (w, _) = ppdc_traffic::standard_workload(&ft, num_pairs, seed, 0);
        let mut rng = rng_for_run(seed, 1);
        let half = ft.num_racks() / 2;
        let east: Vec<bool> = w
            .flow_ids()
            .map(|f| {
                let (src, _) = w.endpoints(f);
                ft.rack_of(src) < half
            })
            .collect();
        let model = DiurnalModel {
            n_hours: 24,
            ..DiurnalModel::default()
        };
        let trace =
            DynamicTrace::with_cohorts(&w, model, &DEFAULT_MIX, STANDARD_CHURN, east, &mut rng);
        (ft, w, trace)
    }

    fn cfg(policy: MigrationPolicy) -> SimConfig {
        SimConfig {
            mu: 100,
            vm_mu: 100,
            policy,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_repairs_lag_failures() {
        let ft = FatTree::build(4).unwrap();
        let c = FaultConfig {
            link_fail_per_hour: 0.05,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let a = FaultSchedule::generate(ft.graph(), 24, &c, 7);
        let b = FaultSchedule::generate(ft.graph(), 24, &c, 7);
        assert_eq!(a, b);
        assert!(a.num_fail_events() >= 3, "48 edges × 24 h at 5 % must fail");
        let other = FaultSchedule::generate(ft.graph(), 24, &c, 8);
        assert_ne!(a, other, "different seeds give different schedules");
        // Every repair is exactly repair_after hours after a matching
        // failure of the same element.
        for e in a.events() {
            if let FaultKind::RepairLink(l) = e.kind {
                assert!(
                    a.events()
                        .iter()
                        .any(|f| f.kind == FaultKind::FailLink(l)
                            && f.hour + c.repair_after == e.hour)
                );
            }
        }
        // Within an hour repairs sort ahead of failures.
        for pair in a.events().windows(2) {
            if pair[0].hour == pair[1].hour {
                assert!(pair[0].kind.is_failure() <= pair[1].kind.is_failure());
            }
        }
    }

    #[test]
    fn every_policy_survives_a_faulty_day() {
        let (ft, w, trace) = day24(40, 11);
        let fc = FaultConfig {
            link_fail_per_hour: 0.04,
            switch_fail_per_hour: 0.01,
            repair_after: 3,
        };
        let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 11);
        assert!(
            schedule.num_fail_events() >= 3,
            "acceptance: at least 3 injected failures, got {}",
            schedule.num_fail_events()
        );
        let sfc = Sfc::of_len(3).unwrap();
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::OptimalVnf { budget: 200_000 },
            MigrationPolicy::Plan {
                slots: 4,
                passes: 5,
            },
            MigrationPolicy::Mcf {
                slots: 4,
                candidates: 8,
            },
            MigrationPolicy::NoMigration,
        ] {
            let r = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &cfg(policy),
                &schedule,
                &EngineConfig::default(),
            )
            .unwrap_or_else(|e| panic!("{policy:?} died: {e}"))
            .result;
            assert_eq!(r.hours.len(), 24, "{policy:?}");
            assert_eq!(r.degraded.len(), 24, "{policy:?}");
            assert!(
                r.aggregate_rebuilds > 1,
                "{policy:?} must rebuild on event hours"
            );
            for (rec, d) in r.hours.iter().zip(&r.degraded) {
                assert_eq!(rec.hour, d.hour);
                assert_eq!(rec.total_cost, rec.migration_cost + rec.comm_cost);
            }
        }
    }

    #[test]
    fn same_seed_runs_are_bit_identical() {
        let (ft, w, trace) = day24(30, 5);
        let fc = FaultConfig {
            link_fail_per_hour: 0.06,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 5);
        assert!(schedule.num_fail_events() >= 3);
        let sfc = Sfc::of_len(3).unwrap();
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::Plan {
                slots: 4,
                passes: 3,
            },
            MigrationPolicy::NoMigration,
        ] {
            let a = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &cfg(policy),
                &schedule,
                &EngineConfig::default(),
            )
            .unwrap()
            .result;
            let b = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &cfg(policy),
                &schedule,
                &EngineConfig::default(),
            )
            .unwrap()
            .result;
            assert_eq!(a, b, "{policy:?} must be bit-identical across runs");
        }
    }

    #[test]
    fn observing_changes_timings_only_never_costs() {
        // Acceptance: a metrics-enabled run is bit-identical to a plain
        // one in every decision-bearing field; only the `phase` timing
        // option differs (None vs Some).
        let (ft, w, trace) = day24(30, 5);
        let fc = FaultConfig {
            link_fail_per_hour: 0.06,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 5);
        let sfc = Sfc::of_len(3).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let plain = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        let observed = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig {
                observe: true,
                ..Default::default()
            },
        )
        .unwrap()
        .result;
        assert_eq!(plain.initial_cost, observed.initial_cost);
        assert_eq!(plain.total_cost, observed.total_cost);
        assert_eq!(plain.hours, observed.hours);
        assert_eq!(plain.total_migrations, observed.total_migrations);
        assert_eq!(plain.aggregate_rebuilds, observed.aggregate_rebuilds);
        assert_eq!(plain.blackout_hours, observed.blackout_hours);
        assert_eq!(plain.recovery_migrations, observed.recovery_migrations);
        assert_eq!(plain.degraded.len(), observed.degraded.len());
        for (a, b) in plain.degraded.iter().zip(&observed.degraded) {
            assert_eq!(a.phase, None, "plain runs carry no timing");
            assert!(b.phase.is_some(), "observed runs time every hour");
            assert_eq!(*a, DegradedHourRecord { phase: None, ..*b });
        }
    }

    #[test]
    fn no_faults_reduces_to_the_seed_loop() {
        // An empty schedule must cost exactly what the plain TOP → mPareto
        // loop costs when it re-solves every hour from a fresh APSP.
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 50, 3, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let schedule = FaultSchedule::new(Vec::new(), trace.model().n_hours).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let r = run_day(g, &w, &trace, &sfc, &c, &schedule, &EngineConfig::default())
            .unwrap()
            .result;

        let dm = DistanceMatrix::build(g);
        let mut wl = w.clone();
        wl.set_rates(&trace.rates_at(0)).unwrap();
        let (mut p, initial) = ppdc_placement::dp_placement(
            &dm,
            &wl,
            &sfc,
            &ppdc_placement::AttachAggregates::build(g, &dm, &wl),
        )
        .unwrap();
        let mut hours = Vec::new();
        for hour in 1..=trace.model().n_hours {
            wl.set_rates(&trace.rates_at(hour)).unwrap();
            let out = ppdc_migration::mpareto(
                g,
                &dm,
                &wl,
                &sfc,
                &p,
                c.mu,
                &ppdc_placement::AttachAggregates::build(g, &dm, &wl),
            )
            .unwrap();
            p = out.migration;
            hours.push(HourRecord {
                hour,
                migration_cost: out.migration_cost,
                comm_cost: out.comm_cost,
                total_cost: out.migration_cost + out.comm_cost,
                num_migrations: out.num_migrations,
            });
        }

        assert_eq!(r.initial_cost, initial);
        assert_eq!(r.hours, hours);
        assert_eq!(
            r.total_cost,
            hours.iter().map(|h| h.total_cost).sum::<Cost>()
        );
        assert_eq!(r.aggregate_rebuilds, 1);
        assert_eq!(r.blackout_hours, 0);
        assert!(r.degraded.iter().all(|d| d.stranded_flows == 0
            && d.reroute_cost == 0
            && !d.blackout
            && d.recovery_migrations == 0));
    }

    #[test]
    fn tor_failure_strands_its_rack_and_recovers_on_repair() {
        // Fail one top-of-rack switch for two hours: its rack's flows are
        // stranded, the rest keep flowing, and repair restores everyone.
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 40, 9, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let host0: NodeId = g.hosts().next().unwrap();
        let tor = g.top_of_rack(host0).unwrap();
        let schedule = FaultSchedule::new(
            vec![
                FaultEvent {
                    hour: 3,
                    kind: FaultKind::FailSwitch(tor),
                },
                FaultEvent {
                    hour: 5,
                    kind: FaultKind::RepairSwitch(tor),
                },
            ],
            trace.model().n_hours,
        )
        .unwrap();
        let r = run_day(
            g,
            &w,
            &trace,
            &sfc,
            &cfg(MigrationPolicy::MPareto),
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        // Hours 3 and 4 run degraded; hour 5 is healthy again.
        let d3 = &r.degraded[2];
        assert_eq!(d3.failed_switches, 1);
        let d5 = &r.degraded[4];
        assert_eq!(d5.failed_switches, 0);
        assert_eq!(d5.stranded_flows, 0);
        // A k=4 fat tree keeps all hosts of other racks connected: flows
        // not touching the dead ToR's rack keep flowing.
        let rack_flows = w
            .flow_ids()
            .filter(|&f| {
                let (s, d) = w.endpoints(f);
                g.top_of_rack(s) == Some(tor) || g.top_of_rack(d) == Some(tor)
            })
            .count();
        assert_eq!(d3.stranded_flows, rack_flows);
        assert!(r.aggregate_rebuilds >= 3, "hour 0 + two event hours");
    }

    /// The hourly snapshot stores no rates: a day killed while a ToR is
    /// down resumes with `rates_at(hour)` masked by the stored stranded
    /// set, and finishes bit-identically through the outage's quiet hours
    /// and the repair.
    #[test]
    fn resume_inside_an_outage_remasks_stranded_rates() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 40, 9, 0);
        let sfc = Sfc::of_len(3).unwrap();
        // The ToR under flow 0's source host, so the outage strands flows.
        let tor = g.top_of_rack(w.endpoints(FlowId(0)).0).unwrap();
        let schedule = FaultSchedule::new(
            vec![
                FaultEvent {
                    hour: 3,
                    kind: FaultKind::FailSwitch(tor),
                },
                FaultEvent {
                    hour: 8,
                    kind: FaultKind::RepairSwitch(tor),
                },
            ],
            trace.model().n_hours,
        )
        .unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let run = |ecfg: &EngineConfig| run_day(g, &w, &trace, &sfc, &c, &schedule, ecfg).unwrap();
        let full = run(&EngineConfig::default());
        let ck = run(&EngineConfig {
            stop_after: Some(4),
            ..EngineConfig::default()
        })
        .checkpoint
        .unwrap();
        assert!(ck.stranded.contains(&true), "the kill lands mid-outage");
        let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
        let resumed = resume_day(
            g,
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
            &ck,
        )
        .unwrap();
        assert_eq!(resumed.result, full.result);
    }

    #[test]
    fn event_hour_aggregates_match_the_flow_by_flow_oracle() {
        // Rebuilt restricted aggregates on a degraded view must equal the
        // flow-by-flow oracle over the same candidates (acceptance item).
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 40, 13, 0);
        let mut faults = FaultSet::new(g);
        let tor = g.top_of_rack(g.hosts().next().unwrap()).unwrap();
        faults.fail_node(tor).unwrap();
        faults.fail_edge(EdgeId(0)).unwrap();
        let g_view = g.degraded_view(&faults);
        let dm = DistanceMatrix::build(&g_view);
        let mut w_cur = w.clone();
        let sv = ServingView::elect(&g_view, &faults, &w_cur);
        set_masked_rates(&mut w_cur, &trace.rates_at(2), &sv.stranded).unwrap();
        let fast = AttachAggregates::build_restricted(&g_view, &dm, &w_cur, &sv.candidates);
        let oracle =
            AttachAggregates::build_restricted_flow_by_flow(&g_view, &dm, &w_cur, &sv.candidates);
        assert!(fast.same_as(&oracle));
    }

    #[test]
    fn losing_a_placement_switch_triggers_recovery_not_a_crash() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 40, 21, 0);
        let sfc = Sfc::of_len(3).unwrap();
        // Find the initial placement, then fail its first switch at hour 2.
        let dm = DistanceMatrix::build(g);
        let mut w0 = w.clone();
        w0.set_rates(&trace.rates_at(0)).unwrap();
        let (p0, _) = ppdc_placement::dp_placement(
            &dm,
            &w0,
            &sfc,
            &ppdc_placement::AttachAggregates::build(g, &dm, &w0),
        )
        .unwrap();
        let victim = p0.switch(0);
        let schedule = FaultSchedule::new(
            vec![FaultEvent {
                hour: 2,
                kind: FaultKind::FailSwitch(victim),
            }],
            trace.model().n_hours,
        )
        .unwrap();
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::NoMigration,
            MigrationPolicy::Plan {
                slots: 4,
                passes: 3,
            },
        ] {
            let r = run_day(
                g,
                &w,
                &trace,
                &sfc,
                &cfg(policy),
                &schedule,
                &EngineConfig::default(),
            )
            .unwrap()
            .result;
            let d2 = &r.degraded[1];
            assert!(
                d2.recovery_migrations > 0,
                "{policy:?}: hour 2 must repair the placement"
            );
            assert!(
                r.hours[1].migration_cost > 0,
                "{policy:?}: recovery is paid"
            );
            assert_eq!(r.recovery_migrations, d2.recovery_migrations);
        }
    }

    #[test]
    fn budget_exhaustion_degrades_instead_of_failing() {
        let (ft, w, trace) = day24(40, 17);
        let sfc = Sfc::of_len(3).unwrap();
        let schedule = FaultSchedule::new(Vec::new(), 24).unwrap();
        // Budget 1 exhausts instantly every hour; the day must still
        // complete, flagged degraded, with costs no better than mPareto's
        // incumbent would allow and no worse than staying put.
        let r = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &cfg(MigrationPolicy::OptimalVnf { budget: 1 }),
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        assert_eq!(r.hours.len(), 24);
        assert!(r.degraded.iter().any(|d| d.degraded_solver));
        let stay = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &cfg(MigrationPolicy::NoMigration),
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        assert!(r.total_cost <= stay.total_cost);
    }

    #[test]
    fn total_fabric_loss_is_a_blackout_not_a_panic() {
        // Fail every switch: no serving component can hold the SFC.
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 20, 2, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let events: Vec<FaultEvent> = g
            .switches()
            .map(|s| FaultEvent {
                hour: 4,
                kind: FaultKind::FailSwitch(s),
            })
            .collect();
        let schedule = FaultSchedule::new(events, trace.model().n_hours).unwrap();
        let r = run_day(
            g,
            &w,
            &trace,
            &sfc,
            &cfg(MigrationPolicy::MPareto),
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        assert!(r.blackout_hours > 0);
        let d4 = &r.degraded[3];
        assert!(d4.blackout);
        // With every switch dead the serving "component" is one lone host:
        // only flows whose both VMs sit on that host escape stranding.
        let colocated = w
            .flow_ids()
            .filter(|&f| {
                let (s, d) = w.endpoints(f);
                s == d
            })
            .count();
        assert!(d4.stranded_flows >= w.num_flows() - colocated);
        assert_eq!(r.hours[3].total_cost, 0);
    }

    #[test]
    fn schedule_validation_rejects_inconsistent_sequences() {
        let ft = FatTree::build(4).unwrap();
        let s = ft.graph().switches().next().unwrap();
        let fail = |hour| FaultEvent {
            hour,
            kind: FaultKind::FailSwitch(s),
        };
        let repair = |hour| FaultEvent {
            hour,
            kind: FaultKind::RepairSwitch(s),
        };
        // Double failure without an intervening repair.
        let err = FaultSchedule::new(vec![fail(2), fail(5)], 24).unwrap_err();
        assert!(matches!(err, ScheduleError::FailWhileFailed { .. }));
        // Repairing an element that never failed.
        let err = FaultSchedule::new(vec![repair(3)], 24).unwrap_err();
        assert!(matches!(err, ScheduleError::RepairWhileHealthy { .. }));
        // Hour 0 belongs to TOP; hours past the day are unreachable.
        let err = FaultSchedule::new(vec![fail(0)], 24).unwrap_err();
        assert!(matches!(err, ScheduleError::HourOutOfRange { .. }));
        let err = FaultSchedule::new(vec![fail(25)], 24).unwrap_err();
        assert!(matches!(err, ScheduleError::HourOutOfRange { .. }));
        // Legal: fail → repair → re-fail, even within one hour (repairs
        // sort ahead of failures).
        assert!(FaultSchedule::new(vec![fail(2), repair(4), fail(4)], 24).is_ok());
        // Errors render through Display for the CLI.
        let msg = FaultSchedule::new(vec![repair(3)], 24)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("already up"), "unhelpful message: {msg}");
    }

    #[test]
    fn schedule_and_trace_must_cover_the_same_day() {
        // A 24-hour schedule against a 12-hour trace would leave its late
        // events unfired while still fingerprinting them; a 6-hour one
        // would run half the day fault-free. Both are refused up front,
        // by resume as well as by a fresh run.
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 20, 4, 0);
        assert_eq!(trace.model().n_hours, 12);
        let sfc = Sfc::of_len(3).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let s = ft.graph().switches().next().unwrap();
        let late = FaultSchedule::new(
            vec![FaultEvent {
                hour: 20,
                kind: FaultKind::FailSwitch(s),
            }],
            24,
        )
        .unwrap();
        let short = FaultSchedule::new(vec![], 6).unwrap();
        for (schedule, hours) in [(&late, 24), (&short, 6)] {
            let err = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &c,
                schedule,
                &EngineConfig::default(),
            )
            .unwrap_err();
            assert_eq!(
                err,
                SimError::Schedule(ScheduleError::HorizonMismatch {
                    schedule: hours,
                    trace: 12,
                })
            );
            assert!(err.to_string().contains("trace covers 12"), "{err}");
        }
        let matching = FaultSchedule::new(vec![], 12).unwrap();
        let halted = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &matching,
            &EngineConfig {
                stop_after: Some(3),
                ..Default::default()
            },
        )
        .unwrap();
        let ck = halted.checkpoint.unwrap();
        let err = resume_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &late,
            &EngineConfig::default(),
            &ck,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Schedule(ScheduleError::HorizonMismatch { .. })
        ));
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_day() {
        let (ft, w, trace) = day24(30, 5);
        let fc = FaultConfig {
            link_fail_per_hour: 0.06,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 5);
        assert!(schedule.num_fail_events() >= 3);
        let sfc = Sfc::of_len(3).unwrap();
        for policy in [
            MigrationPolicy::MPareto,
            MigrationPolicy::OptimalVnf { budget: 200_000 },
            MigrationPolicy::Plan {
                slots: 4,
                passes: 3,
            },
            MigrationPolicy::NoMigration,
        ] {
            let c = cfg(policy);
            let full = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &c,
                &schedule,
                &EngineConfig::default(),
            )
            .unwrap();
            assert!(full.completed);
            assert!(full.checkpoint.is_none(), "nothing asked the run to stop");
            for kill in [1u32, 7, 12, 24] {
                let halted = run_day(
                    ft.graph(),
                    &w,
                    &trace,
                    &sfc,
                    &c,
                    &schedule,
                    &EngineConfig {
                        stop_after: Some(kill),
                        ..EngineConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(halted.completed, kill >= 24, "{policy:?} kill {kill}");
                let ck = halted.checkpoint.expect("stopped runs carry a checkpoint");
                assert_eq!(ck.hour, kill);
                // Survive a serialization round-trip, like a real crash.
                let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
                let resumed = resume_day(
                    ft.graph(),
                    &w,
                    &trace,
                    &sfc,
                    &c,
                    &schedule,
                    &EngineConfig::default(),
                    &ck,
                )
                .unwrap();
                assert!(resumed.completed);
                assert_eq!(
                    resumed.result, full.result,
                    "{policy:?} killed at hour {kill} must resume bit-identically"
                );
            }
        }
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let (ft, w, trace) = day24(20, 3);
        let schedule = FaultSchedule::new(Vec::new(), 24).unwrap();
        let sfc = Sfc::of_len(3).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let halted = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig {
                stop_after: Some(6),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let ck = halted.checkpoint.unwrap();
        // A different μ fingerprints differently: the snapshot is refused
        // instead of silently resuming the wrong run.
        let other = SimConfig { mu: 999, ..c };
        let err = resume_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &other,
            &schedule,
            &EngineConfig::default(),
            &ck,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Checkpoint(CkptError::InputMismatch { .. })
        ));
    }

    #[test]
    fn full_blackout_day_is_well_formed_with_and_without_resume() {
        // Every switch dead from hour 4 through 7, all back at hour 8: the
        // day must stay well-formed (no underflow, blackout accounting
        // exact) and resuming from a mid-blackout kill must not diverge.
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, trace) = ppdc_traffic::standard_workload(&ft, 20, 2, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let n_hours = trace.model().n_hours;
        let mut events: Vec<FaultEvent> = g
            .switches()
            .map(|s| FaultEvent {
                hour: 4,
                kind: FaultKind::FailSwitch(s),
            })
            .collect();
        events.extend(g.switches().map(|s| FaultEvent {
            hour: 8,
            kind: FaultKind::RepairSwitch(s),
        }));
        let schedule = FaultSchedule::new(events, n_hours).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let full = run_day(g, &w, &trace, &sfc, &c, &schedule, &EngineConfig::default()).unwrap();
        assert!(full.completed);
        let r = &full.result;
        assert_eq!(r.hours.len(), n_hours as usize);
        assert_eq!(r.degraded.len(), n_hours as usize);
        assert!(r.blackout_hours >= 4);
        for h in 4..8 {
            let d = &r.degraded[h - 1];
            assert!(d.blackout, "hour {h} has no serving component");
            assert_eq!(d.provenance, HourProvenance::Blackout);
            assert_eq!(r.hours[h - 1].total_cost, 0);
        }
        for (rec, d) in r.hours.iter().zip(&r.degraded) {
            assert_eq!(rec.hour, d.hour);
            assert!(rec.total_cost < INFINITY);
            assert_eq!(
                rec.total_cost,
                rec.migration_cost.saturating_add(rec.comm_cost)
            );
        }
        // Hour 8 repairs the displaced chain before serving resumes.
        assert!(r.degraded[7].recovery_migrations > 0 || !r.degraded[7].blackout);
        // Kill mid-blackout (hour 5) and resume: bit-identical.
        let halted = run_day(
            g,
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig {
                stop_after: Some(5),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let ck = halted.checkpoint.unwrap();
        let resumed = resume_day(
            g,
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
            &ck,
        )
        .unwrap();
        assert_eq!(resumed.result, full.result);
    }

    #[test]
    fn starvation_walks_the_ladder_deterministically() {
        use crate::supervisor::SolverStarvation;
        let (ft, w, trace) = day24(30, 7);
        let schedule = FaultSchedule::new(Vec::new(), 24).unwrap();
        let sfc = Sfc::of_len(3).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        // Hour 3 burns one attempt (inside the retry budget), hour 5 burns
        // ten (hopeless): rung 1 with retries vs rung 3 fallback.
        let starved = EngineConfig {
            supervisor: SupervisorConfig {
                max_retries: 2,
                starvation: Some(SolverStarvation::new(vec![(3, 1), (5, 10)])),
            },
            ..EngineConfig::default()
        };
        let r = run_day(ft.graph(), &w, &trace, &sfc, &c, &schedule, &starved)
            .unwrap()
            .result;
        let d3 = &r.degraded[2];
        assert_eq!(d3.solver_retries, 1);
        assert_eq!(
            d3.provenance,
            HourProvenance::Exact,
            "short burns retry through"
        );
        assert!(!d3.degraded_solver);
        let d5 = &r.degraded[4];
        assert_eq!(d5.solver_retries, 3, "max_retries + 1 failed attempts");
        assert_eq!(d5.provenance, HourProvenance::LastKnownGood);
        assert!(d5.degraded_solver);
        assert_eq!(
            r.hours[4].migration_cost, 0,
            "last-known-good never migrates"
        );
        assert_eq!(r.hours[4].num_migrations, 0);
        // The baseline run solves every hour exactly; the prefix before
        // the first starved hour is identical.
        let base = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        assert!(base.degraded.iter().all(|d| d.solver_retries == 0));
        assert_eq!(base.hours[..2], r.hours[..2]);
        // Starved runs are still bit-identically reproducible.
        let again = run_day(ft.graph(), &w, &trace, &sfc, &c, &schedule, &starved)
            .unwrap()
            .result;
        assert_eq!(r, again);
    }

    /// The row-priced healthy baseline is Eq. 1 on the dense matrix, bit
    /// for bit: on unit weights, on random per-link delays, and on a
    /// fabric where a flow's host is cut off from the placement.
    #[test]
    fn healthy_comm_cost_equals_the_dense_matrix_price() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let (w, _) = ppdc_traffic::standard_workload(&ft, 30, 5, 0);
        let (src, _) = w.endpoints(FlowId::from_index(0));
        assert!(w.rate(FlowId::from_index(0)) > 0);
        let tor = g.top_of_rack(src).unwrap();
        let alive: Vec<NodeId> = g.switches().filter(|&s| s != tor).collect();
        let placements: Vec<Placement> = [[0, 7, 13], [18, 2, 11], [4, 5, 6], [9, 3, 16]]
            .iter()
            .map(|ix| Placement::new_unchecked(ix.iter().map(|&i| alive[i]).collect()))
            .collect();
        let priced = |g: &Graph| -> Vec<Cost> {
            let dm = DistanceMatrix::build(g);
            placements
                .iter()
                .map(|p| {
                    let cost = healthy_comm_cost(g, &w, p);
                    assert_eq!(cost, comm_cost(&dm, &w, p));
                    cost
                })
                .collect()
        };
        assert!(priced(g).iter().all(|&c| 0 < c && c < INFINITY));
        // The 1000–2000 per-link delays of the fig. 9 experiments.
        let mut rng = rng_for_run(3, 0);
        let mut delayed = g.clone();
        delayed.map_edge_weights(|_, _, _| rng.gen_range(1000..=2000));
        assert!(priced(&delayed).iter().all(|&c| 0 < c && c < INFINITY));
        // Flow 0's ToR is down, so its source host reaches no switch.
        let mut faults = FaultSet::new(g);
        faults.fail_node(tor).unwrap();
        let cut = g.degraded_view(&faults);
        assert!(priced(&cut).iter().all(|&c| c == INFINITY));
    }

    /// Besides the per-VM `hosts` and the per-flow `stranded` mask, which
    /// are primary state, nothing in the hourly document scales with the
    /// flow count: the same faulty day halted at the same hour writes
    /// about the same remainder at 40 and at 4,000 flows. Integers may
    /// widen with the larger costs; a per-flow array would add at least
    /// two bytes per flow.
    #[test]
    fn checkpoint_size_does_not_grow_with_the_flow_count() {
        let fc = FaultConfig {
            link_fail_per_hour: 0.05,
            switch_fail_per_hour: 0.01,
            repair_after: 2,
        };
        let sfc = Sfc::of_len(3).unwrap();
        let doc = |pairs: usize| {
            let (ft, w, trace) = day24(pairs, 13);
            assert_eq!(w.num_flows(), pairs);
            let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 13);
            let mut ck = run_day(
                ft.graph(),
                &w,
                &trace,
                &sfc,
                &cfg(MigrationPolicy::MPareto),
                &schedule,
                &EngineConfig {
                    stop_after: Some(6),
                    ..EngineConfig::default()
                },
            )
            .unwrap()
            .checkpoint
            .unwrap();
            assert_eq!(ck.stranded.len(), pairs);
            ck.hosts.clear();
            ck.stranded.clear();
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

    #[test]
    fn run_day_persists_resumable_snapshots() {
        let (ft, w, trace) = day24(20, 13);
        let fc = FaultConfig {
            link_fail_per_hour: 0.05,
            switch_fail_per_hour: 0.01,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), 24, &fc, 13);
        let sfc = Sfc::of_len(3).unwrap();
        let c = cfg(MigrationPolicy::MPareto);
        let dir = std::env::temp_dir().join(format!("ppdc-fault-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("day.ckpt"));
        let halted = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig {
                store: Some(store.clone()),
                stop_after: Some(6),
                ..EngineConfig::default()
            },
        )
        .unwrap();
        assert!(!halted.completed);
        let in_memory = halted.checkpoint.unwrap();
        let (on_disk, slot) = store.load().unwrap();
        assert_eq!(slot, crate::checkpoint::CkptSlot::Primary);
        assert_eq!(on_disk, in_memory, "disk and in-memory snapshots agree");
        assert!(
            store.prev_path().exists(),
            "hourly writes rotate the previous snapshot"
        );
        // Resume from the disk copy and finish the day.
        let resumed = resume_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
            &on_disk,
        )
        .unwrap();
        let full = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &c,
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.result, full.result);
        std::fs::remove_dir_all(&dir).ok();
    }
}

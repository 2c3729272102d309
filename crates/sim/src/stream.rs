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
//! - [`ShardedFlowStore`] — flow endpoints in flat flow-id-order arrays,
//!   and each flow's **rate class** `2·id + east` under the day's trace:
//!   under Eq. 9 a rate is `round(base · scale(cohort, hour))`, so all
//!   flows of one class share one rate at every hour, and the store keeps
//!   one rate and one flow count per class instead of a rate per flow.
//!   The engine's epochs arrive as trace hours through
//!   [`ShardedFlowStore::advance`], which steps a [`TraceCursor`] one hour
//!   and never reads or writes a per-flow rate: a scale-moved hour prices
//!   a per-class `Δ` table, sums the report's totals over the class
//!   histogram and scatters `Δ[class]` into the host masses in one pass
//!   (the hour's changed-base flows each get a transition class of their
//!   own, `O(changes)`), and a list-only hour re-keys and prices just the
//!   listed flows. A store grouped by the aggregates' anchor map
//!   ([`ShardedFlowStore::group_by_anchor`], as the engine groups its
//!   store) books a scale-moved hour per *slot* of hosts sharing an
//!   anchor and link weight instead: each slot's masses are the dot of
//!   its per-class flow counts with `Δ`, `O(slots × classes + changes)`,
//!   when that is at most the flow count.
//!   [`ShardedFlowStore::ingest`] is the entry point for external delta
//!   batches: it turns the store flat (one rate per flow), nets per flow,
//!   validates every netted rate and only then commits; the next
//!   `advance` keys the store again. Both paths reduce the applied flows
//!   to per-host [`HostMassDelta`]s that land on
//!   [`AttachAggregates::try_apply_mass_deltas`] with a single switch
//!   sweep. Every reported sum is order-free — exact masses (`i64` when
//!   the step proves `flows × max class rate < 2^63`, else `i128`) and a
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
//!   loop, mirroring the hourly engine: snapshots go to an append-only
//!   `ppdc-stream-ckpt/v5` journal through the same [`CheckpointStore`]
//!   and journal codec (a run's first snapshot rewrites the journal
//!   atomically, each later one appends a synced line, and load discards
//!   a torn last line; see [`StreamCheckpoint`] and
//!   [`crate::checkpoint`]), an input fingerprint refuses foreign
//!   snapshots, and resume is **bit-identical**
//!   (no rates are stored: restore keys a fresh flow store at `epoch`
//!   from the trace, which the fingerprint pins and whose
//!   `trace.rates_at(epoch)` [`ShardedFlowStore::advance`] leaves in the
//!   live store, builds the aggregates from that store's host masses and
//!   starts a cursor at `epoch`; the delta/rebuild equivalence makes the
//!   reconstruction exact). A fresh day starts the same way at hour 0.
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

use std::borrow::Cow;

use ppdc_model::{FlowId, ModelError, Placement, Sfc, Workload};
use ppdc_obs::names as obs_names;
use ppdc_placement::{
    dp_placement_warm, AggregateError, AttachAggregates, BoundCache, HostMassDelta, PlacementError,
};
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId};
use ppdc_traffic::{rate_class, DynamicTrace, HourStep, TraceCursor};

use crate::checkpoint::{
    hash_instance, hash_trace, ids, push_header, push_key, push_row, push_rows, push_u64,
    read_journal, to_u32, u64_field, CheckpointStore, CkptError, Fnv,
};

/// Version tag of the streaming engine's journal; restore rejects
/// anything else (including `ppdc-ckpt/v6` hourly journals, `/v4` stream
/// snapshots, one whole document per write with a one-lane fingerprint,
/// `/v3` ones, whose fingerprint hashed one dense trace row per hour, and
/// `/v2` ones, which carried the rates).
pub const STREAM_CKPT_SCHEMA: &str = "ppdc-stream-ckpt/v5";

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
    /// host of an applied flow (its net may still be zero). A grouped
    /// store's dense step ([`ShardedFlowStore::group_by_anchor`]) reports
    /// one entry per *slot* instead, at the slot's lowest host, holding
    /// the summed nets of all its hosts: a slot's hosts share one anchor
    /// and link weight, so the fold moves the aggregates the same way.
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

/// The streaming engine's flow store: flow endpoints in flat flow-id-order
/// arrays, and the rates in one of two forms.
///
/// * **Keyed** (the trace-fed form). Each flow holds its rate class
///   `2·id + east` ([`rate_class`]) under one trace at one hour, and each
///   class holds its rate and flow count. A trace hour
///   ([`ShardedFlowStore::advance`]) prices its moves per class and never
///   reads or writes a per-flow rate.
/// * **Flat**: one rate per flow, which a delta batch
///   ([`ShardedFlowStore::ingest`]) needs, since its rates follow no
///   trace. `build`, `ingest` and `set_rates` leave the store flat; the
///   next `advance` keys it again from its cursor's trace and hour.
///
/// A delta batch is one pass over its records to net them, one to
/// validate and one to commit — no routing, no fan-out. Every quantity a
/// step reports is an order-free sum (exact masses, a saturating sum of
/// non-negative drift terms), so the report depends only on which rates
/// changed and by how much, never on the order they arrive in, on the
/// form the store is in, or on the machine.
///
/// A store handed the aggregates' anchor map
/// ([`ShardedFlowStore::group_by_anchor`]) is *grouped*: its flows'
/// endpoint hosts fall into slots of equal anchor and link weight, and a
/// keyed grouped store books a scale-moved hour per slot from a per-slot
/// class histogram, reporting one [`HostMassDelta`] per touched slot
/// rather than per host. Every other step reports per host.
#[derive(Debug)]
pub struct ShardedFlowStore {
    /// Source host per flow.
    src: Vec<NodeId>,
    /// Destination host per flow.
    dst: Vec<NodeId>,
    /// Per-flow rates of a flat store; empty while keyed.
    rates: Vec<u64>,
    /// The rate classes of a keyed store.
    classes: Option<Classes>,
    /// Batch scratch: netted pending delta per flow, all zero between
    /// batches (allocated by the first batch).
    pending: Vec<i128>,
    /// Step scratch: the moved flows' per-host masses.
    masses: HostMasses,
    /// Step scratch: per-node `i64` masses of a dense step whose width
    /// proof holds, all zero between steps.
    narrow: Vec<(i64, i64)>,
    /// The aggregates' anchor map, one entry per node
    /// ([`AttachAggregates::anchors`]); empty while ungrouped.
    anchors: Vec<(NodeId, Cost)>,
    /// The slots `anchors` groups the flows' endpoints into, resolved at
    /// the first histogram build.
    slots: Option<Slots>,
}

/// A keyed store's rates: every flow's rate class under one trace at one
/// hour, and every class's rate and flow count there.
#[derive(Debug)]
struct Classes {
    /// [`DynamicTrace::identity`] of the trace the classes come from.
    trace: u64,
    /// The hour whose rates the classes hold.
    hour: u32,
    /// `class[f]`: flow `f`'s rate class.
    class: Vec<u32>,
    /// `rate[c]`: class `c`'s rate at `hour`.
    rate: Vec<u64>,
    /// `count[c]`: flows in class `c`.
    count: Vec<u32>,
    /// A grouped store's slot histogram, built at its first scale-moved
    /// step: two tables, the flows per class and source slot, then per
    /// class and destination slot, each one column of `slots` counts per
    /// class ([`Slots::cell`]). Derived from `class`, so it goes wherever
    /// the classes go.
    hist: Option<Vec<u32>>,
}

/// `clone_from` reuses every buffer of the target, so resetting a store
/// to a saved copy costs copying its arrays, not allocating them again.
impl Clone for ShardedFlowStore {
    fn clone(&self) -> Self {
        ShardedFlowStore {
            src: self.src.clone(),
            dst: self.dst.clone(),
            rates: self.rates.clone(),
            classes: self.classes.clone(),
            pending: self.pending.clone(),
            masses: self.masses.clone(),
            narrow: self.narrow.clone(),
            anchors: self.anchors.clone(),
            slots: self.slots.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.src.clone_from(&source.src);
        self.dst.clone_from(&source.dst);
        self.rates.clone_from(&source.rates);
        self.classes.clone_from(&source.classes);
        self.pending.clone_from(&source.pending);
        self.masses.clone_from(&source.masses);
        self.narrow.clone_from(&source.narrow);
        self.anchors.clone_from(&source.anchors);
        self.slots.clone_from(&source.slots);
    }
}

impl Clone for Classes {
    fn clone(&self) -> Self {
        Classes {
            trace: self.trace,
            hour: self.hour,
            class: self.class.clone(),
            rate: self.rate.clone(),
            count: self.count.clone(),
            hist: self.hist.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        (self.trace, self.hour) = (source.trace, source.hour);
        self.class.clone_from(&source.class);
        self.rate.clone_from(&source.rate);
        self.count.clone_from(&source.count);
        self.hist.clone_from(&source.hist);
    }
}

impl Classes {
    /// Keys every flow of `trace` at hour `h`: `O(flows + classes)`.
    fn key(trace: &DynamicTrace, h: u32) -> Self {
        let rate = trace.class_rates_at(h);
        let mut count = vec![0u32; rate.len()];
        let class = trace
            .base_ids_at(h)
            .iter()
            .zip(trace.cohorts())
            .map(|(&id, &east)| {
                let c = rate_class(id, east);
                count[c as usize] += 1;
                c
            })
            .collect();
        Classes {
            trace: trace.identity(),
            hour: h,
            class,
            rate,
            count,
            hist: None,
        }
    }

    /// The per-flow rates these classes stand for.
    fn rates(&self) -> impl Iterator<Item = u64> + '_ {
        self.class.iter().map(|&c| self.rate[c as usize])
    }

    /// Moves flow `f` from its class to base id `id`'s class in the same
    /// cohort and returns both classes, old first.
    #[inline]
    fn rekey(&mut self, f: usize, id: u32) -> (usize, usize) {
        let old = self.class[f];
        let new = rate_class(id, old & 1 == 1);
        self.class[f] = new;
        self.count[old as usize] -= 1;
        self.count[new as usize] += 1;
        (old as usize, new as usize)
    }

    /// Moves one flow between slots `ends` (source, destination) from
    /// class `old` to class `new` in the histogram, if there is one.
    #[inline]
    fn rehist(&mut self, slots: &Slots, ends: (usize, usize), old: usize, new: usize) {
        let classes = self.rate.len();
        if let Some(hist) = &mut self.hist {
            for cell in slots.cells(classes, ends, old) {
                hist[cell] -= 1;
            }
            for cell in slots.cells(classes, ends, new) {
                hist[cell] += 1;
            }
        }
    }
}

/// A grouped store's *slots*: the flows' endpoint nodes grouped by their
/// entry `(t, w(h, t))` in the aggregates' anchor map
/// ([`AttachAggregates::anchors`]). The fold books a host's mass delta at
/// its anchor, plus `delta · w(h, t)` into a constant, so a delta summed
/// over a slot's hosts and booked at any one of them moves the aggregates
/// exactly as the per-host deltas do.
#[derive(Debug, Clone)]
struct Slots {
    /// `of[n]`: node `n`'s slot (`u32::MAX`, never read, for a node no
    /// flow touches).
    of: Vec<u32>,
    /// `host[s]`: slot `s`'s lowest node, where its report entry lands;
    /// increasing, so a slot-order report is in host order.
    host: Vec<NodeId>,
}

impl Slots {
    /// Groups the endpoints of the flows `(src, dst)` by `anchors`, one
    /// entry per node (the caller checked the length): `O(flows + nodes)`.
    fn resolve(anchors: &[(NodeId, Cost)], src: &[NodeId], dst: &[NodeId]) -> Self {
        let mut used = vec![false; anchors.len()];
        for (s, t) in src.iter().zip(dst) {
            used[s.index()] = true;
            used[t.index()] = true;
        }
        let mut ids = std::collections::BTreeMap::new();
        let mut host = Vec::new();
        let of = anchors
            .iter()
            .zip(used)
            .enumerate()
            .map(|(n, (key, used))| {
                if !used {
                    return u32::MAX;
                }
                *ids.entry(*key).or_insert_with(|| {
                    host.push(NodeId::from_index(n));
                    (host.len() - 1) as u32
                })
            })
            .collect();
        Slots { of, host }
    }

    /// The slots of a flow's endpoints `(s, t)`.
    #[inline]
    fn of(&self, s: NodeId, t: NodeId) -> (usize, usize) {
        (self.of[s.index()] as usize, self.of[t.index()] as usize)
    }

    /// The histogram cell of `(side, class c, slot s)` over `classes`
    /// classes: side 0 (sources) is one table and side 1 (destinations)
    /// the next, each a column of one count per slot for every class.
    #[inline]
    fn cell(&self, classes: usize, side: usize, c: usize, s: usize) -> usize {
        (side * classes + c) * self.host.len() + s
    }

    /// The two cells a flow between slots `(s, t)` of class `c` counts in.
    #[inline]
    fn cells(&self, classes: usize, (s, t): (usize, usize), c: usize) -> [usize; 2] {
        [self.cell(classes, 0, c, s), self.cell(classes, 1, c, t)]
    }
}

/// Builds `k`'s slot histogram when the store is grouped and
/// `slots × classes ≤ flows`, so that the histogram's `2 · slots ·
/// classes` counts take no more memory than the store's two endpoint
/// columns. Resolves the slots on first use. Returns them when `k` has a
/// histogram afterwards.
fn slot_histogram<'s>(
    k: &mut Classes,
    slots: &'s mut Option<Slots>,
    anchors: &[(NodeId, Cost)],
    (src, dst): (&[NodeId], &[NodeId]),
) -> Option<&'s Slots> {
    if anchors.is_empty() || src.is_empty() {
        return None;
    }
    let slots = &*slots.get_or_insert_with(|| Slots::resolve(anchors, src, dst));
    if k.hist.is_some() {
        return Some(slots);
    }
    let classes = k.rate.len();
    if slots.host.len() as u128 * classes as u128 > src.len() as u128 {
        return None;
    }
    // One pass per side: each side's table alone fits a core's L2 cache
    // at the benchmark's shape, both together do not.
    let mut hist = vec![0u32; 2 * slots.host.len() * classes];
    for (side, ends) in [src, dst].into_iter().enumerate() {
        for (&c, &n) in k.class.iter().zip(ends) {
            hist[slots.cell(classes, side, c as usize, slots.of[n.index()] as usize)] += 1;
        }
    }
    k.hist = Some(hist);
    ppdc_obs::global().add(obs_names::STREAM_SLOT_HISTOGRAM_BUILDS, 1);
    Some(slots)
}

/// One host-mass word: `i64` when a step's width proof holds, else
/// `i128`. Adds wrap, because the proof (or the `i128` width) rules out
/// overflow, so no add needs a check.
trait Mass: Copy + Default + PartialEq + std::ops::BitOr<Output = Self> {
    /// `net`, which the caller's width proof says fits.
    fn of(net: i128) -> Self;
    /// The wrapping sum.
    fn plus(self, other: Self) -> Self;
    /// The wrapping product with a flow count.
    fn times(self, n: u32) -> Self;
    /// The value as an `i128`.
    fn wide(self) -> i128;
}

impl Mass for i64 {
    #[inline]
    fn of(net: i128) -> Self {
        net as i64
    }
    #[inline]
    fn plus(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline]
    fn times(self, n: u32) -> Self {
        self.wrapping_mul(i64::from(n))
    }
    #[inline]
    fn wide(self) -> i128 {
        i128::from(self)
    }
}

impl Mass for i128 {
    #[inline]
    fn of(net: i128) -> Self {
        net
    }
    #[inline]
    fn plus(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
    #[inline]
    fn times(self, n: u32) -> Self {
        self.wrapping_mul(i128::from(n))
    }
    #[inline]
    fn wide(self) -> i128 {
        self
    }
}

/// True when per-host `i64` masses cannot overflow: every partial sum of
/// a host's flow terms is at most `flows · max_rate` in magnitude, so
/// `flows · max_rate < 2^63` suffices.
fn narrow_fits(flows: usize, max_rate: u64) -> bool {
    (flows as u128) * u128::from(max_rate) < 1u128 << 63
}

/// The one scatter kernel: adds `delta[class[f]]` to flow `f`'s source
/// out-mass and destination in-mass, and flags both endpoints touched
/// when the term is nonzero. No branch depends on the data.
fn scatter<M: Mass>(
    class: &[u32],
    src: &[NodeId],
    dst: &[NodeId],
    delta: &[M],
    mass: &mut [(M, M)],
    touched: &mut [bool],
) {
    for ((&c, s), t) in class.iter().zip(src).zip(dst) {
        let d = delta[c as usize];
        let moved = d != M::default();
        let (s, t) = (s.index(), t.index());
        mass[s].0 = mass[s].0.plus(d);
        mass[t].1 = mass[t].1.plus(d);
        touched[s] |= moved;
        touched[t] |= moved;
    }
}

/// Drains every touched node in one node-order sweep (host order without
/// a sort), leaving the scratch clear.
fn drain_touched<M: Mass>(mass: &mut [(M, M)], touched: &mut [bool]) -> Vec<HostMassDelta> {
    touched
        .iter_mut()
        .zip(mass.iter_mut())
        .enumerate()
        .filter(|(_, (seen, _))| **seen)
        .map(|(i, (seen, m))| {
            *seen = false;
            let (d_out, d_in) = std::mem::take(m);
            HostMassDelta {
                host: NodeId::from_index(i),
                d_out: d_out.wide(),
                d_in: d_in.wide(),
            }
        })
        .collect()
}

/// Books one flow's rate change `net` into `report` and `masses`, as
/// every sparse commit does: `Σλ`, the saturating drift, the applied
/// count and the endpoints' masses. A zero net books nothing.
#[inline]
fn book(report: &mut IngestReport, masses: &mut HostMasses, src: NodeId, dst: NodeId, net: i128) {
    if net == 0 {
        return;
    }
    report.total_delta += net;
    report.drift = report
        .drift
        .saturating_add(u64::try_from(net.unsigned_abs()).unwrap_or(u64::MAX));
    report.applied += 1;
    masses.add(src, dst, net);
}

/// The per-host rate-mass accumulator of an epoch: the `(ΔR_out, ΔR_in)`
/// the epoch's moved flows add at their endpoint hosts, drained as the
/// host-sorted [`HostMassDelta`] list
/// [`AttachAggregates::try_apply_mass_deltas`] folds. All zero between
/// epochs. It is the one place sparse moves become host masses: the flow
/// store books through it, and so do the hourly engine's quiet hours.
#[derive(Debug, Clone)]
pub(crate) struct HostMasses {
    /// Staged `(d_out, d_in)` per node.
    mass: Vec<(i128, i128)>,
    /// `seen[n]`: node `n` is an endpoint of a flow booked this epoch.
    seen: Vec<bool>,
    /// The nodes [`HostMasses::add`] staged, in first-touch order.
    hosts: Vec<NodeId>,
}

impl HostMasses {
    /// An empty accumulator over `num_nodes` nodes.
    pub(crate) fn new(num_nodes: usize) -> Self {
        HostMasses {
            mass: vec![(0, 0); num_nodes],
            seen: vec![false; num_nodes],
            hosts: Vec::new(),
        }
    }

    /// Books one flow's rate change `net` at its endpoints: `src`'s
    /// outgoing mass and `dst`'s incoming mass.
    #[inline]
    pub(crate) fn add(&mut self, src: NodeId, dst: NodeId, net: i128) {
        self.mass[src.index()].0 += net;
        self.mass[dst.index()].1 += net;
        for h in [src, dst] {
            if !std::mem::replace(&mut self.seen[h.index()], true) {
                self.hosts.push(h);
            }
        }
    }

    /// Drains what [`HostMasses::add`] booked, host-sorted, leaving the
    /// scratch clear for the next epoch.
    pub(crate) fn drain(&mut self) -> Vec<HostMassDelta> {
        self.hosts.sort_unstable();
        self.hosts
            .drain(..)
            .map(|host| {
                self.seen[host.index()] = false;
                let (d_out, d_in) = std::mem::take(&mut self.mass[host.index()]);
                HostMassDelta { host, d_out, d_in }
            })
            .collect()
    }
}

impl ShardedFlowStore {
    /// Builds a flat store from a workload's current flows and rates on
    /// `g`.
    ///
    /// # Errors
    ///
    /// [`StreamError::Model`] when a flow endpoint is not a node of `g`.
    pub fn build(g: &Graph, w: &Workload) -> Result<Self, StreamError> {
        let mut store = Self::endpoints(g, w)?;
        store.rates = w.rates().to_vec();
        Ok(store)
    }

    /// Builds a keyed store over `w`'s flow endpoints holding
    /// `trace.rates_at(hour)`, without deriving a per-flow rate: each
    /// flow gets its rate class at `hour` (`O(flows + classes)`). This is
    /// the engine's set-up and resume.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the trace's flow count differs
    /// from the workload's, [`StreamError::Model`] when a flow endpoint
    /// is not a node of `g`.
    pub fn from_trace(
        g: &Graph,
        w: &Workload,
        trace: &DynamicTrace,
        hour: u32,
    ) -> Result<Self, StreamError> {
        if trace.num_flows() != w.num_flows() {
            return Err(StreamError::ShapeMismatch {
                flows: w.num_flows(),
                trace_flows: trace.num_flows(),
            });
        }
        let mut store = Self::endpoints(g, w)?;
        store.classes = Some(Classes::key(trace, hour));
        Ok(store)
    }

    /// A store of `w`'s flow endpoints on `g` holding no rates yet.
    fn endpoints(g: &Graph, w: &Workload) -> Result<Self, StreamError> {
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
            rates: Vec::new(),
            classes: None,
            pending: Vec::new(),
            masses: HostMasses::new(g.num_nodes()),
            narrow: Vec::new(),
            anchors: Vec::new(),
            slots: None,
        })
    }

    /// Groups the store's flows by slot: `anchors` is
    /// [`AttachAggregates::anchors`] of aggregates over the store's graph,
    /// and a slot is the set of endpoint hosts with one entry `(t, w(h, t))`
    /// there. From then on a keyed store books each scale-moved step per
    /// slot, from a histogram of every slot's flows per rate class
    /// (sources and destinations apart), and reports one
    /// [`HostMassDelta`] per touched slot, at its lowest host, which
    /// [`AttachAggregates::try_apply_mass_deltas`] folds to the same
    /// aggregates as the per-host entries.
    ///
    /// The histogram is derived state: the first scale-moved step builds
    /// it (`O(flows)`), listed steps keep it current, and it is dropped
    /// with the classes (by `ingest`, `set_rates`, or a re-key to another
    /// trace or hour). It is used only when `slots × classes ≤ flows`;
    /// otherwise, and for a map whose length is not the graph's node
    /// count, dense steps scatter per host as in an ungrouped store.
    pub fn group_by_anchor(&mut self, anchors: &[(NodeId, Cost)]) {
        self.anchors.clear();
        if anchors.len() == self.masses.mass.len() {
            self.anchors.extend_from_slice(anchors);
        }
        self.slots = None;
        if let Some(k) = &mut self.classes {
            k.hist = None;
        }
    }

    /// Builds the slot histogram now rather than at the next scale-moved
    /// step (see [`ShardedFlowStore::group_by_anchor`]). True when the
    /// store has one afterwards: it is keyed, grouped and within the size
    /// rule.
    pub fn build_slot_histogram(&mut self) -> bool {
        match &mut self.classes {
            Some(k) => {
                let ends = (&self.src[..], &self.dst[..]);
                slot_histogram(k, &mut self.slots, &self.anchors, ends).is_some()
            }
            None => false,
        }
    }

    /// Number of flows stored.
    pub fn num_flows(&self) -> usize {
        self.src.len()
    }

    /// The current rate of one flow.
    pub fn rate(&self, f: FlowId) -> Option<u64> {
        match &self.classes {
            Some(k) => k.class.get(f.index()).map(|&c| k.rate[c as usize]),
            None => self.rates.get(f.index()).copied(),
        }
    }

    /// The current per-flow rates, flow id order: borrowed from a flat
    /// store, derived from a keyed one's classes.
    pub fn rates(&self) -> Cow<'_, [u64]> {
        match &self.classes {
            Some(k) => Cow::Owned(k.rates().collect()),
            None => Cow::Borrowed(&self.rates),
        }
    }

    /// Copies the current per-flow rates (flow id order) into `out`. Only
    /// the layer-by-layer benchmark replay and tests call this.
    pub fn export_rates(&self, out: &mut Vec<u64>) {
        out.clear();
        match &self.classes {
            Some(k) => out.extend(k.rates()),
            None => out.extend_from_slice(&self.rates),
        }
    }

    /// Overwrites every stored rate from a flow-id-ordered vector, leaving
    /// the store flat.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the vector length differs from
    /// the flow count.
    pub fn set_rates(&mut self, rates: &[u64]) -> Result<(), StreamError> {
        if rates.len() != self.num_flows() {
            return Err(StreamError::ShapeMismatch {
                flows: self.num_flows(),
                trace_flows: rates.len(),
            });
        }
        self.classes = None;
        self.rates.clear();
        self.rates.extend_from_slice(rates);
        Ok(())
    }

    /// The per-node rate masses of the stored flows: `(R_out[n], R_in[n])`,
    /// the summed rates of the flows leaving and entering node `n`, and
    /// `Σλ` (saturated at `u64::MAX`): what
    /// [`AttachAggregates::from_host_masses`] builds the aggregates from.
    /// A keyed store sums through the scatter kernel, with its class
    /// rates as the terms.
    pub fn host_masses(&self) -> (Vec<(u128, u128)>, u64) {
        let n = self.masses.mass.len();
        let mut mass = vec![(0u128, 0u128); n];
        match &self.classes {
            Some(k) if narrow_fits(self.num_flows(), k.rate.iter().copied().max().unwrap_or(0)) => {
                let terms: Vec<i64> = k.rate.iter().map(|&r| i64::of(i128::from(r))).collect();
                let (mut narrow, mut touched) = (vec![(0i64, 0i64); n], vec![false; n]);
                scatter(
                    &k.class,
                    &self.src,
                    &self.dst,
                    &terms,
                    &mut narrow,
                    &mut touched,
                );
                for (m, (o, i)) in mass.iter_mut().zip(narrow) {
                    *m = (o.unsigned_abs().into(), i.unsigned_abs().into());
                }
            }
            _ => {
                let rates = self.rates();
                for ((&r, s), t) in rates.iter().zip(&self.src).zip(&self.dst) {
                    mass[s.index()].0 += u128::from(r);
                    mass[t.index()].1 += u128::from(r);
                }
            }
        }
        let total = mass.iter().map(|m| m.0).sum::<u128>();
        (mass, u64::try_from(total).unwrap_or(u64::MAX))
    }

    /// Ingests one delta batch: net each flow's records, validate every
    /// netted rate, then commit them and reduce the applied flows to
    /// per-host masses. On error nothing is applied. A keyed store turns
    /// flat first.
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
        if let Some(k) = self.classes.take() {
            self.rates = k.rates().collect();
        }
        if self.pending.len() != self.num_flows() {
            self.pending = vec![0; self.num_flows()];
        }
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
        // Validated above, so each new rate fits. A zero net (unchanged, or
        // the batch's deltas for this flow cancelled exactly) commits
        // nothing and counts as no drift.
        for d in moving() {
            let f = d.flow.index();
            let net = std::mem::take(&mut self.pending[f]);
            self.rates[f] = u64::try_from(i128::from(self.rates[f]) + net).unwrap_or_default();
            book(&mut report, &mut self.masses, self.src[f], self.dst[f], net);
        }
        report.masses = self.masses.drain();
        Ok(report)
    }

    /// Advances the store one trace hour: `cursor` steps from hour
    /// `h − 1` to `h` ([`TraceCursor::step`]).
    ///
    /// A store not keyed to `cursor.trace()` at `cursor.hour()` (flat, or
    /// keyed to another trace or hour) is keyed there first. Then no step
    /// touches a per-flow rate:
    ///
    /// * a listed step moves each listed flow to its new class and books
    ///   `rate[new] − rate[old]` from the class table (the scales did not
    ///   move, so the table holds for hour `h` too);
    /// * a dense step prices `Δ[c] = rate_h[c] − rate_{h−1}[c]` once per
    ///   class, sums `Σλ`, drift and the applied count over the class
    ///   histogram, and scatters `Δ[class[f]]` into the host masses in one
    ///   pass. Each of the hour's changed-base flows gets a transition
    ///   class of its own for that pass, priced at its own net, and is
    ///   summed on its own: `O(changes)`. A grouped store within the size
    ///   rule ([`ShardedFlowStore::group_by_anchor`]) skips the pass: it
    ///   books the changed flows one by one at their slots and dots each
    ///   slot's class counts with `Δ`, building those counts at its first
    ///   dense step.
    ///
    /// Precondition: the store holds `trace.rates_at(cursor.hour())`. It
    /// then holds the next hour's rates, and the report equals the one
    /// `ingest` returns for that hour's `try_rate_deltas` in every field
    /// but `records` (DESIGN.md §9) — for a grouped store's dense step,
    /// once that report's masses are summed per slot. A repeat hour walks
    /// nothing.
    ///
    /// # Errors
    ///
    /// [`StreamError::ShapeMismatch`] when the trace's flow count differs
    /// from the store's, checked before the cursor moves or anything is
    /// written; an absolute `u64` rate cannot leave range, so on error
    /// nothing is applied.
    pub fn advance(&mut self, cursor: &mut TraceCursor<'_>) -> Result<IngestReport, StreamError> {
        let trace = cursor.trace();
        if trace.num_flows() != self.num_flows() {
            return Err(StreamError::ShapeMismatch {
                flows: self.num_flows(),
                trace_flows: trace.num_flows(),
            });
        }
        let at = cursor.hour();
        let classes = match &mut self.classes {
            Some(k) if k.trace == trace.identity() && k.hour == at => k,
            slot => {
                self.rates = Vec::new();
                slot.insert(Classes::key(trace, at))
            }
        };
        let ends = (&self.src[..], &self.dst[..]);
        let report = match cursor.step() {
            HourStep::Dense {
                flows, ids, rule, ..
            } => {
                let new = rule.class_rates();
                let max = classes.rate.iter().chain(new).copied().max().unwrap_or(0);
                let narrow = narrow_fits(self.src.len(), max);
                let nodes = self.masses.mass.len();
                let changes = (flows, ids);
                let grouped = slot_histogram(classes, &mut self.slots, &self.anchors, ends);
                match (grouped, classes.hist.take()) {
                    (Some(slots), Some(mut hist)) => {
                        let report = if narrow {
                            dense_step_slots::<i64>(classes, &mut hist, slots, ends, changes, new)
                        } else {
                            dense_step_slots::<i128>(classes, &mut hist, slots, ends, changes, new)
                        };
                        classes.hist = Some(hist);
                        report
                    }
                    _ if narrow => {
                        if self.narrow.len() != nodes {
                            self.narrow = vec![(0, 0); nodes];
                        }
                        let scratch = (&mut self.narrow[..], &mut self.masses.seen[..]);
                        dense_step(classes, ends, changes, new, scratch)
                    }
                    _ => {
                        let m = &mut self.masses;
                        let scratch = (&mut m.mass[..], &mut m.seen[..]);
                        dense_step(classes, ends, changes, new, scratch)
                    }
                }
            }
            HourStep::Listed { flows, ids, .. } => {
                let mut report = IngestReport {
                    records: flows.len() as u64,
                    ..IngestReport::default()
                };
                let slots = self.slots.as_ref().filter(|_| classes.hist.is_some());
                for (&f, &id) in flows.iter().zip(ids) {
                    let f = f as usize;
                    let (old, new) = classes.rekey(f, id);
                    if let Some(slots) = slots {
                        classes.rehist(slots, slots.of(self.src[f], self.dst[f]), old, new);
                    }
                    let net = i128::from(classes.rate[new]) - i128::from(classes.rate[old]);
                    book(&mut report, &mut self.masses, self.src[f], self.dst[f], net);
                }
                report.masses = self.masses.drain();
                report
            }
        };
        classes.hour = cursor.hour();
        Ok(report)
    }
}

/// The order-free sums of a dense step's report over its flows' nets:
/// `Σλ`'s change, the drift `Σ|net|` (exact; clamped to `u64` once, at
/// the end) and the applied count.
#[derive(Default)]
struct Totals {
    total: i128,
    drift: u128,
    applied: u64,
}

impl Totals {
    /// Books one changed flow's own net.
    #[inline]
    fn flow(&mut self, net: i128) {
        self.total += net;
        self.drift += net.unsigned_abs();
        self.applied += u64::from(net != 0);
    }

    /// Prices every class once, `terms[c] = Δ[c] = new[c] − rate[c]`, and
    /// sums the classes' unchanged flows over the histogram, exactly:
    /// count·|Δ| < 2^96, and so is the sum over at most 2^32 flows.
    fn classes<M: Mass>(&mut self, k: &Classes, new: &[u64], terms: &mut [M]) {
        for (((&old, &new), &n), term) in k.rate.iter().zip(new).zip(&k.count).zip(terms) {
            let d = i128::from(new) - i128::from(old);
            self.total += i128::from(n) * d;
            self.drift += u128::from(n) * d.unsigned_abs();
            self.applied += u64::from(n) * u64::from(d != 0);
            *term = M::of(d);
        }
    }

    /// The step's report, over `records` flows.
    fn report(self, masses: Vec<HostMassDelta>, records: usize) -> IngestReport {
        IngestReport {
            masses,
            total_delta: self.total,
            drift: u64::try_from(self.drift).unwrap_or(u64::MAX),
            applied: self.applied,
            records: records as u64,
        }
    }
}

/// One dense step over a keyed store's classes: `new[c]` is class `c`'s
/// rate at the new hour, `changes` the hour's `(flows, ids)` change list,
/// and `scratch` the per-node masses (of width `M`, which the caller has
/// proven wide enough) and touched flags, all zero on entry and on exit.
///
/// Each changed flow gets a class of its own for the pass, a *transition
/// class* past the table whose term is its true net
/// `rate_h[new class] − rate_{h−1}[old class]`, so the one scatter pass
/// books every flow exactly once with its own net; the changed flows
/// then take their new classes. The transition classes follow the
/// change list's flow order, so the pass reads their terms in order.
fn dense_step<M: Mass>(
    k: &mut Classes,
    (src, dst): (&[NodeId], &[NodeId]),
    (flows, ids): (&[u32], &[u32]),
    new: &[u64],
    (mass, touched): (&mut [(M, M)], &mut [bool]),
) -> IngestReport {
    let first = k.rate.len();
    let mut totals = Totals::default();
    let mut terms = vec![M::default(); first + flows.len()];
    let (table, transitions) = terms.split_at_mut(first);
    // The changed flows leave their classes' counts and are summed one by
    // one; `to` keeps their new classes for after the pass.
    let mut to = Vec::with_capacity(flows.len());
    for ((t, (&f, &id)), term) in (first..).zip(flows.iter().zip(ids)).zip(transitions) {
        let old = std::mem::replace(&mut k.class[f as usize], t as u32);
        k.count[old as usize] -= 1;
        let c = rate_class(id, old & 1 == 1);
        let net = i128::from(new[c as usize]) - i128::from(k.rate[old as usize]);
        totals.flow(net);
        *term = M::of(net);
        to.push(c);
    }
    totals.classes(k, new, table);
    scatter(&k.class, src, dst, &terms, mass, touched);
    for (&f, c) in flows.iter().zip(to) {
        k.class[f as usize] = c;
        k.count[c as usize] += 1;
    }
    k.rate.copy_from_slice(new);
    totals.report(drain_touched(mass, touched), k.class.len())
}

/// Adds one histogram column times its class's term to per-slot sums,
/// `acc[s] += col[s]·d`, and or-s each product into `any[s]`, which is
/// then nonzero exactly when the slot counts a flow with a nonzero term
/// (the caller's width proof bounds every `count·|Δ|`, so a product is
/// zero only when a factor is).
#[inline]
fn add_column<M: Mass>(acc: &mut [M], any: &mut [M], col: &[u32], d: M) {
    for ((a, y), &n) in acc.iter_mut().zip(any.iter_mut()).zip(col) {
        let t = d.times(n);
        *a = a.plus(t);
        *y = *y | t;
    }
}

/// [`dense_step`] for a grouped store whose slot histogram `hist` exists
/// (taken out of `k` for the step): the same report, with one mass entry
/// per touched slot instead of per host.
///
/// The changed flows are booked one by one at their endpoints' slots
/// with their own nets, and leave their old classes' counts (`count` and
/// `hist`); then each slot's `ΔR_out` gains `Σ_c out[c][s]·Δ[c]` and its
/// `ΔR_in` `Σ_c in[c][s]·Δ[c]`, column by column — the sums of
/// `Δ[class[f]]` over the slot's unchanged flows, which [`scatter`]
/// would add flow by flow — and the changed flows join their new
/// classes. A column whose `Δ` is zero adds nothing and is skipped. A
/// slot is touched when one of its flows has a nonzero term, as a host
/// is in [`drain_touched`]. The width proof the caller checked for `M`
/// covers every partial sum, as it does for the scatter.
fn dense_step_slots<M: Mass>(
    k: &mut Classes,
    hist: &mut [u32],
    slots: &Slots,
    (src, dst): (&[NodeId], &[NodeId]),
    (flows, ids): (&[u32], &[u32]),
    new: &[u64],
) -> IngestReport {
    let (n, classes) = (slots.host.len(), k.rate.len());
    let mut totals = Totals::default();
    // Per side and slot, as the histogram's tables: sources, then
    // destinations.
    let mut acc = vec![M::default(); 2 * n];
    let mut any = vec![M::default(); 2 * n];
    for (&f, &id) in flows.iter().zip(ids) {
        let f = f as usize;
        let old = k.class[f] as usize;
        let c = rate_class(id, old & 1 == 1);
        let net = i128::from(new[c as usize]) - i128::from(k.rate[old]);
        totals.flow(net);
        let net = M::of(net);
        let (s, t) = slots.of(src[f], dst[f]);
        for r in [s, n + t] {
            acc[r] = acc[r].plus(net);
            any[r] = any[r] | net;
        }
        for cell in slots.cells(classes, (s, t), old) {
            hist[cell] -= 1;
        }
        k.class[f] = c;
        k.count[old] -= 1;
    }
    let mut terms = vec![M::default(); classes];
    totals.classes(k, new, &mut terms);
    for ((table, acc), any) in hist
        .chunks_exact(n * classes)
        .zip(acc.chunks_exact_mut(n))
        .zip(any.chunks_exact_mut(n))
    {
        for (col, &d) in table.chunks_exact(n).zip(&terms) {
            if d != M::default() {
                add_column(acc, any, col, d);
            }
        }
    }
    for &f in flows {
        let f = f as usize;
        let c = k.class[f] as usize;
        k.count[c] += 1;
        for cell in slots.cells(classes, slots.of(src[f], dst[f]), c) {
            hist[cell] += 1;
        }
    }
    k.rate.copy_from_slice(new);
    let (out, inn) = acc.split_at(n);
    let (any_out, any_in) = any.split_at(n);
    let masses = slots
        .host
        .iter()
        .zip(out.iter().zip(inn))
        .zip(any_out.iter().zip(any_in))
        .filter(|(_, (&a, &b))| a | b != M::default())
        .map(|((&host, (d_out, d_in)), _)| HostMassDelta {
            host,
            d_out: d_out.wide(),
            d_in: d_in.wide(),
        })
        .collect();
    totals.report(masses, k.class.len())
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

/// A frozen mid-day streaming-engine state (`ppdc-stream-ckpt/v5`).
///
/// Only what the inputs cannot regenerate is stored: the epoch records,
/// incumbent placement and drift accumulator; the totals and `epoch` are
/// functions of the records. Restore keys the flow store at
/// `trace.rates_at(epoch)` straight from the trace and builds the
/// aggregates from its host masses — bit-identically, by the
/// delta/rebuild equivalence.
///
/// On disk it is a journal (see [`crate::checkpoint`]) whose lines are
/// `{"epochs":[[epoch, deltas, drift, action, gap, comm_cost], …],
/// "drift_accum","placement"}`, holding the epoch records since the line
/// before.
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
    /// Serializes to a deterministic `ppdc-stream-ckpt/v5` journal: the
    /// header and one line holding every epoch record. Equal checkpoints
    /// produce byte-identical output; `rates` and the totals are not
    /// written.
    pub fn to_json(&self) -> String {
        let mut out =
            String::with_capacity(128 + self.placement.len() * 11 + self.epochs.len() * 64);
        push_header(
            &mut out,
            STREAM_CKPT_SCHEMA,
            self.fingerprint,
            self.initial_cost,
        );
        push_journal_line(&mut out, &self.epochs, self.drift_accum, &self.placement);
        out
    }

    /// The line that brings a journal holding this day's first `since`
    /// epoch records up to this snapshot, as the engine appends it: the
    /// records after `since`, the drift accumulator and the placement.
    pub fn journal_line(&self, since: usize) -> String {
        let mut out = String::with_capacity(64 + self.placement.len() * 11);
        let new = self.epochs.get(since..).unwrap_or_default();
        push_journal_line(&mut out, new, self.drift_accum, &self.placement);
        out
    }

    /// Parses a `ppdc-stream-ckpt/v5` journal (see
    /// [`crate::checkpoint`]): the epoch records of every line
    /// concatenate, and the last line's drift accumulator and placement
    /// are the snapshot's. `rates` comes back empty, and the totals are
    /// re-derived from the records as the engine accumulates them.
    ///
    /// # Errors
    ///
    /// [`CkptError::Parse`] when no complete header and snapshot line
    /// survive, [`CkptError::Schema`] on a foreign header or a whole
    /// document of another schema, [`CkptError::Corrupt`] on a terminated
    /// line that does not parse, malformed fields, or epoch records that do
    /// not continue `1, 2, …`.
    pub fn from_json(src: &str) -> Result<Self, CkptError> {
        let journal = read_journal(src, STREAM_CKPT_SCHEMA)?;
        let epochs = journal.records("epochs", 6, |r| {
            Ok(EpochRecord {
                epoch: to_u32(r[0], "epoch")?,
                deltas: r[1],
                drift: r[2],
                action: action_from_row(r[3], r[4])?,
                comm_cost: r[5],
            })
        })?;
        let last = &journal.last;
        let initial_cost = journal.initial_cost;
        let sum = |f: fn(&EpochRecord) -> u64| epochs.iter().map(f).fold(0, u64::saturating_add);
        let resolves = epochs
            .iter()
            .filter(|e| matches!(e.action, EpochAction::Resolved { .. }))
            .count() as u64;
        Ok(StreamCheckpoint {
            fingerprint: journal.fingerprint,
            epoch: to_u32(epochs.len() as u64, "epoch")?,
            initial_cost,
            placement: ids(last, "placement", NodeId)?,
            rates: Vec::new(),
            drift_accum: u64_field(last, "drift_accum")?,
            total_cost: epochs
                .iter()
                .fold(initial_cost, |t, e| t.saturating_add(e.comm_cost)),
            resolves,
            resolves_skipped: epochs.len() as u64 - resolves,
            drift_total: sum(|e| e.drift),
            deltas_total: sum(|e| e.deltas),
            epochs,
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

/// One journal snapshot line: the epoch records since the previous line,
/// then the drift accumulator and the incumbent placement.
fn push_journal_line(
    out: &mut String,
    epochs: &[EpochRecord],
    drift_accum: u64,
    placement: &[NodeId],
) {
    push_key(out, '{', "epochs");
    push_rows(
        out,
        epochs.iter().map(|e| {
            let (code, gap) = action_row(e.action);
            [
                u64::from(e.epoch),
                e.deltas,
                e.drift,
                code,
                gap,
                e.comm_cost,
            ]
        }),
    );
    push_key(out, ',', "drift_accum");
    push_u64(out, drift_accum);
    push_key(out, ',', "placement");
    push_row(out, placement.iter().map(|n| u64::from(n.0)));
    out.push_str("}\n");
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
/// **bit-identically** to the uninterrupted run: the flow store is keyed
/// at `trace.rates_at(ck.epoch)` ([`ShardedFlowStore::from_trace`]),
/// which the fingerprint pins and which the uninterrupted run's store
/// holds after [`ShardedFlowStore::advance`], the aggregates are built
/// from its host masses, and the trace cursor starts at `ck.epoch`; the
/// delta/rebuild equivalence makes the reconstruction exact.
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
    // The input hash is paid where a checkpoint reads it: on resume, to
    // validate the snapshot, or at the first snapshot taken. A day that
    // takes none never hashes, and a full day hashes once.
    let mut fp: Option<u64> = None;
    // The store and aggregates start at the start epoch's rates: the
    // store is keyed straight from the trace, and the aggregates are built
    // from its host masses, so no per-flow rate vector is ever derived.
    // The store then takes the aggregates' anchor map, so its dense steps
    // can book per slot.
    let start_state = |epoch: u32| -> Result<(ShardedFlowStore, AttachAggregates), StreamError> {
        let mut store = ShardedFlowStore::from_trace(g, w, trace, epoch)?;
        let (masses, total_rate) = store.host_masses();
        let agg = AttachAggregates::from_host_masses(g, dm, &masses, total_rate);
        store.group_by_anchor(agg.anchors());
        Ok((store, agg))
    };
    let mut tracker = DriftTracker::new(cfg.drift_threshold);
    // The warm-solver bound cache lives for the day and is *never*
    // persisted: a resumed day starts from an empty cache and rebuilds it
    // on its first certificate, so `ppdc-stream-ckpt/v5` stays primary-
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
            let expected = *fp.insert(stream_fingerprint(g, w, trace, sfc, cfg));
            ck.validate_against(g, sfc, n_hours, expected)?;
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
    let mut fingerprint = || *fp.get_or_insert_with(|| stream_fingerprint(g, w, trace, sfc, cfg));
    let every = cfg.checkpoint_every.max(1);
    // Epochs this run has journaled (see `CheckpointStore::persist`).
    let mut journaled = None;
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
        if let Some(cs) = &cfg.store {
            if stop_here || last || epoch % every == 0 {
                cs.persist(
                    journaled,
                    |out| push_header(out, STREAM_CKPT_SCHEMA, fingerprint(), st.initial_cost),
                    |out, n| {
                        push_journal_line(out, &st.epochs[n..], tracker.accum(), &st.placement)
                    },
                )?;
                journaled = Some(st.epochs.len());
            }
        }
        if stop_here && !last {
            let checkpoint = StreamCheckpoint {
                fingerprint: fingerprint(),
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
            return Ok(StreamRun {
                result: st,
                completed: false,
                checkpoint: Some(checkpoint),
            });
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
                .try_rate_deltas(h)
                .unwrap()
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
    /// prices every class and corrects flow 1's base change, yet reports
    /// what `ingest` reports for the hour's deltas, a host whose flows'
    /// nets cancel included, and counts every flow as a record.
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
        // 62 small flows away from host 0, in classes of their own or
        // shared with the two flows above.
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

    /// The day's set-up without a rate vector: at every hour, a store
    /// keyed from the trace holds `rates_at(h)`, and the aggregates built
    /// from its host masses equal a workload build at those rates — for
    /// `i64`-summed masses and, at rates near `u64::MAX`, `i128` ones.
    #[test]
    fn keyed_set_up_equals_the_workload_build() {
        let (g, dm, w, trace) = fixture(40, 19);
        let row: Vec<i64> = (0..w.num_flows() as i64)
            .map(|i| i64::MAX - 97 * i)
            .collect();
        let huge = DynamicTrace::from_rows(
            &w,
            DiurnalModel {
                n_hours: 4,
                tau_min: 1.9,
            },
            (0..w.num_flows()).map(|i| i % 2 == 0).collect(),
            &vec![row; 5],
        )
        .unwrap();
        for t in [&trace, &huge] {
            for h in 0..=t.model().n_hours + 1 {
                let store = ShardedFlowStore::from_trace(&g, &w, t, h).unwrap();
                let want = t.rates_at(h);
                assert_eq!(store.rates(), &want[..], "hour {h}");
                let (masses, total) = store.host_masses();
                let mut w_h = w.clone();
                w_h.set_rates(&want).unwrap();
                let mut exact = vec![(0u128, 0u128); g.num_nodes()];
                for (_, s, d, r) in w_h.iter() {
                    exact[s.index()].0 += u128::from(r);
                    exact[d.index()].1 += u128::from(r);
                }
                assert_eq!(masses, exact, "hour {h}");
                let agg = AttachAggregates::from_host_masses(&g, &dm, &masses, total);
                assert!(
                    agg.same_as(&AttachAggregates::build(&g, &dm, &w_h)),
                    "hour {h}"
                );
                assert_eq!(agg.total_rate(), w_h.total_rate(), "hour {h}");
            }
        }
        let (_, _, _, short) = fixture(10, 19);
        assert_eq!(
            ShardedFlowStore::from_trace(&g, &w, &short, 0).err(),
            Some(StreamError::ShapeMismatch {
                flows: w.num_flows(),
                trace_flows: short.num_flows(),
            })
        );
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

    fn schema_err(found: &str) -> Result<StreamCheckpoint, CkptError> {
        Err(CkptError::Schema {
            found: found.to_string(),
            expected: STREAM_CKPT_SCHEMA,
        })
    }

    /// An hourly journal handed to the stream reader is refused, and the
    /// error names the stream schema as the one expected.
    #[test]
    fn an_hourly_journal_is_refused_naming_the_stream_schema() {
        use crate::{run_day, EngineConfig, FaultSchedule, MigrationPolicy, SimConfig};
        let (g, _, w, trace) = fixture(20, 29);
        let sfc = Sfc::of_len(3).unwrap();
        let schedule = FaultSchedule::new(Vec::new(), trace.model().n_hours).unwrap();
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        let ecfg = EngineConfig {
            stop_after: Some(2),
            ..EngineConfig::default()
        };
        let ck = run_day(&g, &w, &trace, &sfc, &cfg, &schedule, &ecfg)
            .unwrap()
            .checkpoint
            .unwrap();
        let err = StreamCheckpoint::from_json(&ck.to_json()).unwrap_err();
        assert_eq!(err, schema_err(crate::CKPT_SCHEMA).unwrap_err());
        assert_eq!(
            err.to_string(),
            "checkpoint schema \"ppdc-ckpt/v6\", expected \"ppdc-stream-ckpt/v5\""
        );
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
            schema_err("ppdc-stream-ckpt/v1")
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
            schema_err("ppdc-stream-ckpt/v3")
        );
    }

    /// A `/v4` snapshot, one pretty-printed document per write whose
    /// fingerprint ran one FNV-1a chain over one word per id, is refused
    /// by its schema tag, whether it has the old whole-document layout or
    /// the journal's.
    #[test]
    fn v4_documents_are_refused_by_schema() {
        let v4 = r#"{
  "schema": "ppdc-stream-ckpt/v4",
  "fingerprint": 8334592082975981288,
  "epoch": 2,
  "initial_cost": 6038,
  "drift_accum": 0,
  "placement": [0,12,15],
  "totals": {"total_cost": 49992, "resolves": 2, "resolves_skipped": 0, "drift_total": 4587, "deltas_total": 4},
  "epochs": [[1,2,1626,3,0,17438],[2,2,2961,2,0,26516]]
}
"#;
        assert_eq!(
            StreamCheckpoint::from_json(v4),
            schema_err("ppdc-stream-ckpt/v4")
        );
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
            .replace(STREAM_CKPT_SCHEMA, "ppdc-stream-ckpt/v4");
        assert_eq!(
            StreamCheckpoint::from_json(&doc),
            schema_err("ppdc-stream-ckpt/v4")
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
            schema_err("ppdc-stream-ckpt/v2")
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
        let loaded = cs.load_with(StreamCheckpoint::from_json).unwrap();
        assert_eq!(loaded.epoch, 3);
        let cfg_resume = StreamConfig {
            store: Some(cs),
            ..StreamConfig::default()
        };
        let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg_resume, &loaded).unwrap();
        assert_eq!(resumed.result, full.result);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scratch journal path, unique per call within the test process.
    fn journal_store(tag: &str) -> (std::path::PathBuf, CheckpointStore) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ppdc-journal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("stream.ckpt"));
        (dir, store)
    }

    /// The snapshot each complete line of `text` ends, keyed by epoch.
    fn snapshots_by_line(text: &str) -> std::collections::BTreeMap<u32, StreamCheckpoint> {
        text.match_indices('\n')
            .skip(1)
            .map(|(end, _)| {
                let ck = StreamCheckpoint::from_json(&text[..=end]).unwrap();
                (ck.epoch, ck)
            })
            .collect()
    }

    /// The in-memory checkpoint of a run halted after `epoch`.
    fn halted_at(
        (g, dm, w, trace): &(Graph, DistanceMatrix, Workload, DynamicTrace),
        sfc: &Sfc,
        cfg: &StreamConfig,
        epoch: u32,
    ) -> StreamCheckpoint {
        let cfg = StreamConfig {
            store: None,
            stop_after: Some(epoch),
            ..cfg.clone()
        };
        run_stream_day(g, dm, w, trace, sfc, &cfg)
            .unwrap()
            .checkpoint
            .unwrap()
    }

    /// The engine's journal holds one line per snapshot, and each line's
    /// prefix loads as the in-memory checkpoint of a run halted there.
    /// Cut anywhere inside its last line (newline excluded), it loads the
    /// snapshot before.
    #[test]
    fn a_torn_last_line_loads_the_previous_snapshot() {
        let inputs = fixture(30, 23);
        let (g, dm, w, trace) = &inputs;
        let sfc = Sfc::of_len(3).unwrap();
        let (dir, store) = journal_store("torn");
        let cfg = StreamConfig {
            drift_threshold: 500,
            max_certified_gap: 10,
            store: Some(store.clone()),
            stop_after: Some(5),
            ..StreamConfig::default()
        };
        run_stream_day(g, dm, w, trace, &sfc, &cfg).unwrap();
        let text = std::fs::read_to_string(store.path()).unwrap();
        assert_eq!(text.lines().count(), 6, "a header and five snapshot lines");
        let by_line = snapshots_by_line(&text);
        for epoch in 1..=5 {
            assert_eq!(by_line[&epoch], halted_at(&inputs, &sfc, &cfg, epoch));
        }
        let start = text[..text.len() - 1].rfind('\n').unwrap() + 1;
        for cut in start..text.len() {
            assert_eq!(
                StreamCheckpoint::from_json(&text[..cut]).as_ref(),
                Ok(&by_line[&4]),
                "cut at byte {cut}"
            );
        }
        // The same through the store: a torn file loads the snapshot
        // before it.
        std::fs::write(store.path(), &text[..text.len() - 3]).unwrap();
        let loaded = store.load_with(StreamCheckpoint::from_json).unwrap();
        assert_eq!(loaded, by_line[&4]);
        // A header alone, or a torn header, holds no snapshot.
        let header_end = text.find('\n').unwrap() + 1;
        for cut in [0, 1, header_end - 1, header_end, header_end + 5] {
            assert!(
                matches!(
                    StreamCheckpoint::from_json(&text[..cut]),
                    Err(CkptError::Parse(_))
                ),
                "cut at byte {cut}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A complete line that does not parse, or that breaks the run of
    /// epoch records, is corruption, not a torn tail.
    #[test]
    fn a_corrupt_middle_line_is_refused() {
        let (g, dm, w, trace) = fixture(30, 23);
        let sfc = Sfc::of_len(3).unwrap();
        let (dir, store) = journal_store("corrupt");
        let cfg = StreamConfig {
            store: Some(store.clone()),
            stop_after: Some(4),
            ..StreamConfig::default()
        };
        run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
        let text = std::fs::read_to_string(store.path()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let rebuild = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
        let mut garbled = lines.clone();
        let half = &lines[2][..lines[2].len() / 2];
        garbled[2] = half;
        assert!(matches!(
            StreamCheckpoint::from_json(&rebuild(&garbled)),
            Err(CkptError::Corrupt(_))
        ));
        let mut skipped = lines.clone();
        skipped.remove(2);
        assert!(matches!(
            StreamCheckpoint::from_json(&rebuild(&skipped)),
            Err(CkptError::Corrupt(_))
        ));
        std::fs::write(store.path(), rebuild(&garbled)).unwrap();
        assert!(matches!(
            store.load_with(StreamCheckpoint::from_json),
            Err(CkptError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A day killed and resumed from its journal on disk rewrites the
    /// journal at its first snapshot and appends from there; every line
    /// of that journal loads equal to the uninterrupted day's journal at
    /// the same epoch.
    #[test]
    fn a_resumed_journal_loads_equal_to_the_uninterrupted_one() {
        let inputs = fixture(30, 17);
        let (g, dm, w, trace) = &inputs;
        let sfc = Sfc::of_len(4).unwrap();
        let n_hours = trace.model().n_hours;
        let (dir, whole) = journal_store("whole");
        let cfg = StreamConfig {
            drift_threshold: 20_000,
            max_certified_gap: 10_000,
            store: Some(whole.clone()),
            ..StreamConfig::default()
        };
        let full = run_stream_day(g, dm, w, trace, &sfc, &cfg).unwrap();
        let uninterrupted = snapshots_by_line(&std::fs::read_to_string(whole.path()).unwrap());
        assert_eq!(uninterrupted.len(), n_hours as usize);
        for kill in [1, 4, n_hours - 1] {
            let (_, store) = journal_store("resumed");
            let cfg = StreamConfig {
                store: Some(store.clone()),
                ..cfg.clone()
            };
            let halted = StreamConfig {
                stop_after: Some(kill),
                ..cfg.clone()
            };
            run_stream_day(g, dm, w, trace, &sfc, &halted).unwrap();
            let ck = store.load_with(StreamCheckpoint::from_json).unwrap();
            let resumed = resume_stream_day(g, dm, w, trace, &sfc, &cfg, &ck).unwrap();
            assert_eq!(resumed.result, full.result, "kill at {kill}");
            let text = std::fs::read_to_string(store.path()).unwrap();
            let by_line = snapshots_by_line(&text);
            let epochs: Vec<u32> = by_line.keys().copied().collect();
            assert_eq!(epochs, (kill + 1..=n_hours).collect::<Vec<_>>());
            for (epoch, ck) in &by_line {
                assert_eq!(ck, &uninterrupted[epoch], "kill at {kill}, epoch {epoch}");
            }
            let _ = std::fs::remove_dir_all(store.path().parent().unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::env_or(24))]

        /// Kill at any epoch under `checkpoint_every` ∈ {1, 2, 3}, load
        /// the journal back from disk — as written, or with a torn tail
        /// appended (half a real line, or bytes that are not JSON) — and
        /// resume from what loaded: the day finishes bit-identically to
        /// the uninterrupted one, and its journal ends at the same
        /// snapshot.
        #[test]
        fn resume_from_the_on_disk_journal_is_bit_identical(
            seed in 0u64..64,
            kill_pick in 0u32..64,
            every in 1u32..4,
            tear in 0u8..3,
        ) {
            let (g, dm, w, trace) = fixture(16, seed);
            let sfc = Sfc::of_len(3).unwrap();
            let n_hours = trace.model().n_hours;
            let kill = 1 + kill_pick % (n_hours - 1);
            let (dir, whole) = journal_store("prop-whole");
            let cfg = StreamConfig {
                drift_threshold: 5_000,
                max_certified_gap: 10_000,
                checkpoint_every: every,
                store: Some(whole.clone()),
                ..StreamConfig::default()
            };
            let full = run_stream_day(&g, &dm, &w, &trace, &sfc, &cfg).unwrap();
            let end = whole.load_with(StreamCheckpoint::from_json).unwrap();
            let store = CheckpointStore::new(dir.join("killed.ckpt"));
            let cfg = StreamConfig { store: Some(store.clone()), ..cfg };
            let halted = run_stream_day(
                &g, &dm, &w, &trace, &sfc,
                &StreamConfig { stop_after: Some(kill), ..cfg.clone() },
            ).unwrap();
            let text = std::fs::read_to_string(store.path()).unwrap();
            let tail = match tear {
                0 => String::new(),
                1 => {
                    let last = text.lines().last().unwrap();
                    last[..last.len() / 2].to_string()
                }
                _ => "\u{0}{\"epochs\":[[".to_string(),
            };
            std::fs::write(store.path(), format!("{text}{tail}")).unwrap();
            let ck = store.load_with(StreamCheckpoint::from_json).unwrap();
            proptest::prop_assert_eq!(Some(&ck), halted.checkpoint.as_ref());
            let resumed = resume_stream_day(&g, &dm, &w, &trace, &sfc, &cfg, &ck).unwrap();
            proptest::prop_assert_eq!(
                &resumed.result, &full.result,
                "kill {} every {} tear {}", kill, every, tear
            );
            let resumed_end = store.load_with(StreamCheckpoint::from_json).unwrap();
            proptest::prop_assert_eq!(resumed_end, end);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// `store`'s slot histogram rebuilt from scratch, as the first
    /// scale-moved step would build it now: what the kept one must equal.
    fn fresh_hist(store: &ShardedFlowStore) -> Option<Vec<u32>> {
        let mut k = store.classes.clone()?;
        k.hist = None;
        slot_histogram(&mut k, &mut None, &store.anchors, (&store.src, &store.dst))?;
        k.hist
    }

    /// Per-host mass entries summed per slot — the endpoint hosts of one
    /// `anchors` entry — each at its slot's lowest endpoint host. A slot
    /// appears when any of its hosts does, so a zero net stays.
    fn per_slot(
        masses: &[HostMassDelta],
        anchors: &[(NodeId, Cost)],
        ends: &[(NodeId, NodeId)],
    ) -> Vec<HostMassDelta> {
        use std::collections::BTreeMap;
        let mut lowest: BTreeMap<(NodeId, Cost), NodeId> = BTreeMap::new();
        for h in ends.iter().flat_map(|&(s, d)| [s, d]) {
            let low = lowest.entry(anchors[h.index()]).or_insert(h);
            *low = (*low).min(h);
        }
        let mut slots: BTreeMap<NodeId, (i128, i128)> = BTreeMap::new();
        for m in masses {
            let e = slots.entry(lowest[&anchors[m.host.index()]]).or_default();
            e.0 += m.d_out;
            e.1 += m.d_in;
        }
        slots
            .into_iter()
            .map(|(host, (d_out, d_in))| HostMassDelta { host, d_out, d_in })
            .collect()
    }

    /// A fabric of four switches in a chain (links of weight 2) and eight
    /// hosts, each wired to one or two random switches over links of
    /// weight 1 or 2: leaf hosts sharing a switch and weight share a slot,
    /// a leaf on another weight or a two-homed host is a slot of its own.
    fn mixed_fabric(next: &mut dyn FnMut() -> u64) -> Graph {
        let mut g = Graph::new();
        let s: Vec<NodeId> = (0..4).map(|i| g.add_switch(format!("s{i}"))).collect();
        for j in 1..4 {
            g.add_edge(s[j - 1], s[j], 2).unwrap();
        }
        for i in 0..8 {
            let h = g.add_host(format!("h{i}"));
            for _ in 0..1 + next() % 2 {
                let _ = g.add_edge(h, s[next() as usize % 4], 1 + next() % 2);
            }
        }
        g
    }

    /// The hour-0 set-up, a list-only day and an ungrouped store never
    /// build a slot histogram; the first scale-moved step of a grouped
    /// keyed store does, and `ingest` drops it with the classes.
    #[test]
    fn only_a_scale_moved_step_builds_the_slot_histogram() {
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let dm = DistanceMatrix::build(g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..96 {
            w.add_pair(hosts[i % 16], hosts[(i * 7 + 3) % 16], 0);
        }
        let row: Vec<i64> = (0..96).map(|i| [10, 250, 1_000][i % 3]).collect();
        let east: Vec<bool> = (0..96).map(|i| i % 5 < 2).collect();
        let churned = |model: DiurnalModel| {
            let mut rows = vec![row.clone()];
            for h in 1..=model.n_hours as usize {
                let mut next = rows[h - 1].clone();
                next[h] = [10, 250, 1_000][h % 3];
                rows.push(next);
            }
            DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap()
        };
        let diurnal = churned(DiurnalModel::default());
        let flat = churned(DiurnalModel {
            n_hours: 6,
            tau_min: 1.0,
        });
        let grouped = |trace: &DynamicTrace| {
            let mut store = ShardedFlowStore::from_trace(g, &w, trace, 0).unwrap();
            let (masses, total) = store.host_masses();
            let agg = AttachAggregates::from_host_masses(g, &dm, &masses, total);
            store.group_by_anchor(agg.anchors());
            store
        };
        let built =
            |store: &ShardedFlowStore| store.classes.as_ref().is_some_and(|k| k.hist.is_some());
        // Set-up alone, then a day of list-only steps.
        let mut store = grouped(&flat);
        assert!(!built(&store));
        let mut cursor = flat.cursor(0);
        for _ in 0..8 {
            store.advance(&mut cursor).unwrap();
            assert!(!built(&store));
        }
        // The first scale-moved step builds it, within the size rule:
        // 8 ToR slots × 6 classes ≤ 96 flows.
        let mut store = grouped(&diurnal);
        let mut plain = store.clone();
        plain.group_by_anchor(&[]);
        let (mut cursor, mut twin) = (diurnal.cursor(0), diurnal.cursor(0));
        store.advance(&mut cursor).unwrap();
        plain.advance(&mut twin).unwrap();
        assert!(built(&store));
        assert!(!built(&plain));
        assert_eq!(store.slots.as_ref().map(|s| s.host.len()), Some(8));
        // `ingest` turns the store flat, dropping it; the next scale-moved
        // step keys the store again and rebuilds it.
        let f = FlowId(0);
        let undo = [
            RateDelta { flow: f, delta: 1 },
            RateDelta { flow: f, delta: -1 },
        ];
        store.ingest(&undo).unwrap();
        assert!(store.classes.is_none());
        store.advance(&mut cursor).unwrap();
        assert!(built(&store));
        // A map of the wrong length leaves the store ungrouped.
        store.group_by_anchor(&[(NodeId(0), 0)]);
        assert!(!store.build_slot_histogram());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::env_or(64))]

        /// The slot kernel against the per-host scatter, hour by hour: a
        /// grouped store and an ungrouped clone advance through a day and
        /// two hours past it on cursors of their own, and their reports
        /// agree — per-slot masses (touched slots whose nets cancel
        /// included; the grouped store reports per slot exactly on its
        /// dense steps), `total_delta`, drift, applied count and records —
        /// while each report, folded into aggregates of its own, keeps
        /// them `same_as` a build at `rates_at(h)`. After every step a kept
        /// histogram equals one rebuilt from scratch. Few-base workloads,
        /// so that slots × classes ≤ flows and the histogram is used, on a
        /// fat-tree (ToR slots) and on a mixed fabric (leaf hosts on two
        /// link weights, two-homed hosts as slots of their own). Shapes:
        /// 0, a churn-free diurnal day; 1, the default envelope with
        /// `STANDARD_CHURN`, so changed flows occur on dense steps; 2, a
        /// flat churned envelope, whose listed hours keep a histogram
        /// built ahead; 3, churned diurnal days with mid-day `ingest`s
        /// (the histogram goes with the classes) and switches between the
        /// trace and an equal one built separately (a re-key), after which
        /// the next dense step rebuilds it; 4, one flow of base 2^57 + 2^55
        /// under an envelope above 1, so the `i64` width proof fails and
        /// the `i128` kernels run, with aggregates still finite; 5, rates
        /// near `u64::MAX` (reports only: their attach sums leave `u64`).
        #[test]
        fn slot_histogram_steps_equal_the_scatter(
            shape in 0usize..6,
            mixed in proptest::arbitrary::any::<bool>(),
            num_flows in 80usize..160,
            n_hours in 2u32..9,
            seed in proptest::arbitrary::any::<u64>(),
        ) {
            use ppdc_traffic::STANDARD_CHURN;
            let mut x = seed | 1;
            let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
            let g = if mixed { mixed_fabric(&mut next) } else { FatTree::build(4).unwrap().graph().clone() };
            let dm = DistanceMatrix::build(&g);
            let hosts: Vec<NodeId> = g.hosts().collect();
            let mut w = Workload::new();
            for _ in 0..num_flows {
                w.add_pair(hosts[next() as usize % hosts.len()], hosts[next() as usize % hosts.len()], 0);
            }
            let east: Vec<bool> = (0..num_flows).map(|_| next() % 2 == 0).collect();
            let palette: [i64; 4] = match shape {
                5 => [2, i64::MAX - 7, i64::MAX - 1_000, i64::MAX],
                _ => [0, 3, 40, 1_249],
            };
            let churn = shape != 0;
            let mut rows = vec![(0..num_flows).map(|_| palette[next() as usize % 4]).collect::<Vec<i64>>()];
            if shape == 4 {
                rows[0][0] = (1 << 57) + (1 << 55);
            }
            let tau_min = match shape {
                2 => 1.0,
                4 | 5 => [1.5, 1.99][(next() % 2) as usize],
                _ => [0.2, 0.35][(next() % 2) as usize],
            };
            let model = if shape == 1 { DiurnalModel::default() } else { DiurnalModel { n_hours, tau_min } };
            for _ in 0..model.n_hours {
                let mut row = rows[rows.len() - 1].clone();
                for r in row.iter_mut().skip(usize::from(shape == 4)) {
                    if churn && (next() % 1_000) as f64 / 1_000.0 < STANDARD_CHURN {
                        *r = palette[next() as usize % 4];
                    }
                }
                rows.push(row);
            }
            let trace = DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap();
            let twin = DynamicTrace::from_rows(&w, model, east, &rows).unwrap();
            let mut grouped = ShardedFlowStore::from_trace(&g, &w, &trace, 0).unwrap();
            let (masses, total) = grouped.host_masses();
            let agg = AttachAggregates::from_host_masses(&g, &dm, &masses, total);
            let anchors = agg.anchors().to_vec();
            let mut plain = grouped.clone();
            grouped.group_by_anchor(&anchors);
            if shape == 2 {
                proptest::prop_assert!(grouped.build_slot_histogram());
            }
            let (mut agg_grouped, mut agg_plain) = (agg.clone(), agg);
            let ends: Vec<(NodeId, NodeId)> = w.iter().map(|(_, s, d, _)| (s, d)).collect();
            let (mut on, mut onto, mut probe) = (trace.cursor(0), trace.cursor(0), trace.cursor(0));
            let mut on_twin = false;
            let mut grouped_steps = 0;
            for h in 1..=model.n_hours + 2 {
                if shape == 3 {
                    match next() % 4 {
                        0 => {
                            let f = FlowId((next() % num_flows as u64) as u32);
                            let undo = [RateDelta { flow: f, delta: 9 }, RateDelta { flow: f, delta: -9 }];
                            for store in [&mut grouped, &mut plain] {
                                proptest::prop_assert!(store.ingest(&undo).unwrap().masses.is_empty());
                            }
                            proptest::prop_assert!(grouped.classes.is_none());
                        }
                        1 => {
                            on_twin = !on_twin;
                            let t = if on_twin { &twin } else { &trace };
                            (on, onto, probe) = (t.cursor(h - 1), t.cursor(h - 1), t.cursor(h - 1));
                        }
                        _ => {}
                    }
                }
                let dense = matches!(probe.step(), HourStep::Dense { .. });
                let a = grouped.advance(&mut on).unwrap();
                let b = plain.advance(&mut onto).unwrap();
                let kept = grouped.classes.as_ref().and_then(|k| k.hist.clone());
                // Every dense step builds or keeps one: here at most 8
                // slots × 10 classes ≤ 80 flows.
                proptest::prop_assert!(kept.is_some() || !dense, "hour {}", h);
                if kept.is_some() {
                    proptest::prop_assert_eq!(&kept, &fresh_hist(&grouped), "hour {}", h);
                }
                let want = per_slot(&b.masses, &anchors, &ends);
                proptest::prop_assert_eq!(&per_slot(&a.masses, &anchors, &ends), &want, "hour {}", h);
                if dense {
                    grouped_steps += 1;
                    proptest::prop_assert_eq!(&a.masses, &want, "hour {}", h);
                } else {
                    proptest::prop_assert_eq!(&a.masses, &b.masses, "hour {}", h);
                }
                proptest::prop_assert_eq!(
                    (a.total_delta, a.drift, a.applied, a.records),
                    (b.total_delta, b.drift, b.applied, b.records),
                    "hour {}", h
                );
                let rates = trace.rates_at(h);
                proptest::prop_assert_eq!(grouped.rates(), &rates[..]);
                if shape != 5 {
                    agg_grouped.try_apply_mass_deltas(&dm, &a.masses, a.total_delta).unwrap();
                    agg_plain.try_apply_mass_deltas(&dm, &b.masses, b.total_delta).unwrap();
                    let mut w_h = w.clone();
                    w_h.set_rates(&rates).unwrap();
                    let rebuilt = AttachAggregates::build(&g, &dm, &w_h);
                    proptest::prop_assert!(agg_grouped.same_as(&rebuilt), "hour {}", h);
                    proptest::prop_assert!(agg_plain.same_as(&rebuilt), "hour {}", h);
                }
            }
            proptest::prop_assert!(shape == 2 || grouped_steps > 0);
        }
    }
}

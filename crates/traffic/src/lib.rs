//! Workload generation for PPDC experiments (Section VI of the paper).
//!
//! Three ingredients, all seeded and exactly reproducible:
//!
//! * [`rates`] — the production flow-rate mix measured in Facebook data
//!   centers \[43\] as the paper summarizes it: rates in `[0, 10000]` with
//!   25 % light (`[0, 3000)`), 70 % medium (`[3000, 7000]`), and 5 % heavy
//!   (`(7000, 10000]`) flows.
//! * [`locality`] — VM pair placement with the rack locality of real
//!   fabrics: 80 % of communicating pairs stay under one edge switch \[8\].
//! * [`diurnal`] — the cycle-stationary daily pattern of Eq. 9
//!   (triangular ramp over `N = 12` hours, floor `τ_min = 0.2`), with half
//!   the flows shifted three hours to model the US east/west-coast split.
//!
//! [`DynamicTrace`] ties them together: a base workload whose rate vector
//! is re-scaled every simulated hour, which is exactly what the TOM
//! experiments (Fig. 11) consume.
//!
//! Under Eq. 9 every rate is `round(base · scale(cohort, hour))` with two
//! scales an hour, so a flow's rate depends only on its **rate class**:
//! its base and its cohort. A trace interns its distinct bases once, at
//! construction, into an increasing table; its rows and change lists hold
//! `u32` ids into it, and [`rate_class`] `2·id + east` names a class. A
//! [`TraceCursor`] step prices every class once ([`RateRule`]) instead
//! of rounding per flow, and a consumer that keys its flows by class (the
//! stream engine's flow store) can move its masses by a per-class `Δ`
//! table without any per-flow rate.

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

pub mod diurnal;
pub mod locality;
pub mod rates;

pub use diurnal::{DiurnalModel, EAST_COAST_OFFSET};
pub use locality::{generate_pairs, PairPlacement};
pub use rates::{classify, sample_rate, FlowClass, RateMix, DEFAULT_MIX};

use std::borrow::Cow;

use ppdc_model::{FlowId, Workload};
use ppdc_topology::FatTree;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Deterministic RNG for a given experiment seed and run index.
pub fn rng_for_run(seed: u64, run: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(run))
}

/// Errors produced when building a [`DynamicTrace`] from untrusted input
/// (external trace rows, caller-supplied cohorts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The cohort vector must have one flag per workload flow.
    CohortCountMismatch { flows: usize, cohorts: usize },
    /// A trace must supply `n_hours + 1` hourly rate rows (hour 0 included).
    HourCountMismatch { expected: usize, got: usize },
    /// An hourly rate row must have one rate per flow.
    RowLengthMismatch {
        hour: usize,
        expected: usize,
        got: usize,
    },
    /// Rates are traffic volumes and cannot be negative.
    NegativeRate { hour: usize, flow: usize, rate: i64 },
    /// Rate deltas compare an hour with its predecessor; hour 0 has none.
    NoPrecedingHour,
    /// A flow's rate change from hour `hour − 1` to `hour` does not fit an
    /// `i64` delta (both rates lie in `u64`, their difference may not).
    DeltaOutOfRange { hour: u32, flow: usize },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::CohortCountMismatch { flows, cohorts } => {
                write!(f, "{cohorts} cohort flags for {flows} flows")
            }
            TraceError::HourCountMismatch { expected, got } => {
                write!(f, "trace has {got} hourly rows, model needs {expected}")
            }
            TraceError::RowLengthMismatch {
                hour,
                expected,
                got,
            } => write!(f, "hour {hour} row has {got} rates for {expected} flows"),
            TraceError::NegativeRate { hour, flow, rate } => {
                write!(f, "negative rate {rate} for flow {flow} at hour {hour}")
            }
            TraceError::NoPrecedingHour => {
                write!(f, "rate deltas need a preceding hour (h must be >= 1)")
            }
            TraceError::DeltaOutOfRange { hour, flow } => {
                write!(f, "rate change of flow {flow} at hour {hour} exceeds i64")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The base-rate changes of one hour: the flows whose base rate differs
/// from the previous hour's, in increasing flow-id order, and their new
/// bases, as two parallel arrays. A base is stored as its id in the
/// trace's base table ([`DynamicTrace::bases`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HourChanges {
    flows: Vec<u32>,
    ids: Vec<u32>,
}

impl HourChanges {
    /// The changed flows, strictly increasing.
    pub fn flows(&self) -> &[u32] {
        &self.flows
    }

    /// `ids()[k]`: the base id of `flows()[k]`'s new base rate.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// True when no base rate changed this hour.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Writes this hour's new base ids over the previous hour's id row.
    fn apply(&self, row: &mut [u32]) {
        for (&f, &b) in self.flows.iter().zip(&self.ids) {
            row[f as usize] = b;
        }
    }
}

/// One hour's base changes as rate values, before interning: what the
/// trace builders collect.
#[derive(Debug, Default)]
struct RawChanges {
    flows: Vec<u32>,
    bases: Vec<u64>,
}

impl RawChanges {
    /// Records flow `i`'s new base rate; flows arrive in increasing order.
    fn push(&mut self, i: usize, base: u64) {
        self.flows.push(i as u32);
        self.bases.push(base);
    }
}

/// The rate class of a flow whose base has id `id`: `2·id + east`. A
/// trace's classes are dense in `0..2·bases().len()`, and every flow of
/// one class has the same rate at every hour (Eq. 9).
#[inline]
pub fn rate_class(id: u32, east: bool) -> u32 {
    id << 1 | u32::from(east)
}

/// A workload whose rates follow the diurnal model hour by hour, with
/// per-flow churn.
///
/// Two dynamics compose, mirroring the paper's traffic story:
///
/// * the **diurnal envelope** (Eq. 9): every flow's rate is scaled by its
///   cohort's hour-of-day factor; east-coast flows run three hours ahead,
/// * **rate churn**: production flows are "highly diverse and dynamic"
///   \[43\] — the paper's own running example swaps λ between flows
///   entirely (Fig. 1, Fig. 3). Each hour a configurable fraction of
///   flows redraws its base rate from the production mix, redistributing
///   traffic across the fabric. Churn 0 reduces to pure scaling.
///
/// Only what changes is stored: hour 0's base row and, for every later
/// hour, the flows whose base rate moved ([`HourChanges`]). A day of
/// repeated rows costs one row, not one per hour. Every base is interned
/// once at construction: the trace keeps its distinct base rates in one
/// increasing table ([`DynamicTrace::bases`]) and its rows and change
/// lists hold `u32` ids into it. A flow's id and cohort make its rate
/// class ([`rate_class`]); a trace step prices whole classes at once
/// ([`RateRule::class_rates`]).
#[derive(Debug, Clone)]
pub struct DynamicTrace {
    /// The distinct base rates of every flow at every hour, increasing;
    /// a base's id is its index.
    bases: Vec<u64>,
    /// `row0[i]`: the id of flow `i`'s base rate at hour 0.
    row0: Vec<u32>,
    /// `changes[h - 1]`: the base-rate changes from hour `h − 1` to `h`
    /// (`n_hours` lists; later hours keep the last row).
    changes: Vec<HourChanges>,
    east: Vec<bool>,
    model: DiurnalModel,
    /// Hours the east cohort runs ahead (default [`EAST_COAST_OFFSET`]).
    offset: i64,
    /// See [`DynamicTrace::identity`].
    identity: u64,
}

/// The next [`DynamicTrace::identity`].
static NEXT_IDENTITY: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A fresh trace identity.
fn fresh_identity() -> u64 {
    NEXT_IDENTITY.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

impl DynamicTrace {
    /// Builds a trace over `w`'s flows with hourly churn.
    ///
    /// Hour 0 uses `w`'s current rates; each later hour redraws a
    /// `churn` fraction of flows from `mix`. Cohorts are assigned
    /// uniformly at random (≈ half and half).
    pub fn with_churn(
        w: &Workload,
        model: DiurnalModel,
        mix: &RateMix,
        churn: f64,
        rng: &mut impl Rng,
    ) -> Self {
        let east: Vec<bool> = (0..w.num_flows()).map(|_| rng.gen_bool(0.5)).collect();
        Self::with_cohorts(w, model, mix, churn, east, rng)
    }

    /// Builds a trace with caller-chosen cohort membership.
    ///
    /// The standard Fig. 11 workload assigns cohorts **by location**
    /// (east-coast jobs fill one half of the pods): cloud schedulers place
    /// a user community's VMs with affinity, so the 3-hour cohort offset
    /// makes the traffic's center of mass sweep across the fabric during
    /// the day — the drift TOM exists to chase. Spatially random cohorts
    /// (`with_churn`) scale the whole fabric uniformly instead and leave
    /// the optimal placement still.
    ///
    /// # Panics
    ///
    /// `east` must have one entry per flow; use
    /// [`DynamicTrace::try_with_cohorts`] for untrusted cohort vectors.
    pub fn with_cohorts(
        w: &Workload,
        model: DiurnalModel,
        mix: &RateMix,
        churn: f64,
        east: Vec<bool>,
        rng: &mut impl Rng,
    ) -> Self {
        match Self::try_with_cohorts(w, model, mix, churn, east, rng) {
            Ok(t) => t,
            #[expect(
                clippy::panic,
                reason = "documented panicking facade; shape-checked boundaries use try_with_cohorts"
            )]
            Err(e) => panic!("with_cohorts: {e}"),
        }
    }

    /// Fallible twin of [`DynamicTrace::with_cohorts`].
    ///
    /// # Errors
    ///
    /// [`TraceError::CohortCountMismatch`] unless `east` has one entry per
    /// flow.
    pub fn try_with_cohorts(
        w: &Workload,
        model: DiurnalModel,
        mix: &RateMix,
        churn: f64,
        east: Vec<bool>,
        rng: &mut impl Rng,
    ) -> Result<Self, TraceError> {
        if east.len() != w.num_flows() {
            return Err(TraceError::CohortCountMismatch {
                flows: w.num_flows(),
                cohorts: east.len(),
            });
        }
        let row0 = w.rates().to_vec();
        // Hour by hour, flow by flow, a redraw decision and (when it
        // fires) one sample: the draws do not depend on the rates, so the
        // stream is the same whatever is kept. A redraw that lands on the
        // current base is not a change.
        let churns = churn > 0.0;
        let mut row = if churns { row0.clone() } else { Vec::new() };
        let mut changes = Vec::with_capacity(model.n_hours as usize);
        for _ in 1..=model.n_hours {
            let mut hour = RawChanges::default();
            if churns {
                for (i, r) in row.iter_mut().enumerate() {
                    if rng.gen_bool(churn.clamp(0.0, 1.0)) {
                        let b = sample_rate(mix, rng);
                        if b != *r {
                            *r = b;
                            hour.push(i, b);
                        }
                    }
                }
            }
            changes.push(hour);
        }
        Ok(DynamicTrace::from_parts(row0, changes, east, model))
    }

    /// Builds a trace from externally supplied hourly base-rate rows (e.g. a
    /// parsed measurement file): `rows[h][i]` is flow `i`'s base rate at
    /// hour `h`, signed so malformed input is caught rather than wrapped.
    /// Each row after the first is stored as its changes against the row
    /// before it.
    ///
    /// # Errors
    ///
    /// Rejects a cohort vector that doesn't match the workload
    /// ([`TraceError::CohortCountMismatch`]), a row count other than
    /// `model.n_hours + 1` ([`TraceError::HourCountMismatch`]), rows with
    /// the wrong number of rates ([`TraceError::RowLengthMismatch`]), and
    /// negative rates ([`TraceError::NegativeRate`]).
    pub fn from_rows(
        w: &Workload,
        model: DiurnalModel,
        east: Vec<bool>,
        rows: &[Vec<i64>],
    ) -> Result<Self, TraceError> {
        if east.len() != w.num_flows() {
            return Err(TraceError::CohortCountMismatch {
                flows: w.num_flows(),
                cohorts: east.len(),
            });
        }
        let expected_rows = model.n_hours as usize + 1;
        if rows.len() != expected_rows {
            return Err(TraceError::HourCountMismatch {
                expected: expected_rows,
                got: rows.len(),
            });
        }
        let mut row0 = Vec::with_capacity(w.num_flows());
        let mut changes = Vec::with_capacity(expected_rows - 1);
        for (hour, row) in rows.iter().enumerate() {
            if row.len() != w.num_flows() {
                return Err(TraceError::RowLengthMismatch {
                    hour,
                    expected: w.num_flows(),
                    got: row.len(),
                });
            }
            let checked = |(flow, &rate): (usize, &i64)| {
                u64::try_from(rate).map_err(|_| TraceError::NegativeRate { hour, flow, rate })
            };
            if hour == 0 {
                row0 = row
                    .iter()
                    .enumerate()
                    .map(checked)
                    .collect::<Result<_, _>>()?;
                continue;
            }
            let mut changed = RawChanges::default();
            for (flow, (rate, prev)) in row.iter().zip(&rows[hour - 1]).enumerate() {
                let r = checked((flow, rate))?;
                if rate != prev {
                    changed.push(flow, r);
                }
            }
            changes.push(changed);
        }
        Ok(DynamicTrace::from_parts(row0, changes, east, model))
    }

    /// Assembles a trace at the default cohort offset, interning every
    /// base rate: the distinct bases of hour 0's row and of every change
    /// list, sorted, become the base table, and each row entry and change
    /// becomes its index there. A trace has fewer than `2^31` distinct
    /// bases (more would take 16 GiB of rows), so every class
    /// `2·id + east` fits a `u32`.
    fn from_parts(
        row0: Vec<u64>,
        changes: Vec<RawChanges>,
        east: Vec<bool>,
        model: DiurnalModel,
    ) -> Self {
        let mut bases: Vec<u64> = changes
            .iter()
            .flat_map(|c| &c.bases)
            .chain(&row0)
            .copied()
            .collect();
        bases.sort_unstable();
        bases.dedup();
        let intern = |vals: &[u64]| -> Vec<u32> {
            vals.iter()
                .map(|b| bases.partition_point(|x| x < b) as u32)
                .collect()
        };
        let row0 = intern(&row0);
        let changes = changes
            .into_iter()
            .map(|c| HourChanges {
                ids: intern(&c.bases),
                flows: c.flows,
            })
            .collect();
        DynamicTrace {
            bases,
            row0,
            changes,
            east,
            model,
            offset: EAST_COAST_OFFSET,
            identity: fresh_identity(),
        }
    }

    /// Overrides the cohort offset (hours the east cohort runs ahead).
    ///
    /// The paper's US-coast model uses 3 h; `n_hours / 2` puts the two
    /// cohorts in antiphase — the strongest daily traffic swing, used by
    /// the hotspot-swing ablation. The result is a new trace: it gets a
    /// fresh [`DynamicTrace::identity`].
    pub fn with_offset(mut self, offset: i64) -> Self {
        self.offset = offset;
        self.identity = fresh_identity();
        self
    }

    /// The cohort offset in hours.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Builds a churn-free trace (pure diurnal scaling of `w`'s rates).
    pub fn new(w: &Workload, model: DiurnalModel, rng: &mut impl Rng) -> Self {
        Self::with_churn(w, model, &DEFAULT_MIX, 0.0, rng)
    }

    /// Number of flows.
    pub fn num_flows(&self) -> usize {
        self.east.len()
    }

    /// The diurnal model in use.
    pub fn model(&self) -> &DiurnalModel {
        &self.model
    }

    /// True when flow `i` is in the east cohort.
    pub fn is_east(&self, i: usize) -> bool {
        self.east[i]
    }

    /// The cohort flags, one per flow (`true` = east).
    pub fn cohorts(&self) -> &[bool] {
        &self.east
    }

    /// The trace's distinct base rates, increasing: a base id indexes
    /// this table.
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// This trace's identity: distinct for every trace built (or
    /// re-offset) in the process, shared by its clones, which hold the
    /// same rates at every hour. A consumer that derives state from one
    /// trace (the stream engine's rate classes) checks it before
    /// trusting that state under another trace's cursor.
    pub fn identity(&self) -> u64 {
        self.identity
    }

    /// The base (pre-envelope) rate of flow `i` at hour `h`, replayed
    /// from hour 0 through the change lists.
    pub fn base_rate_at(&self, h: u32, i: usize) -> u64 {
        let key = i as u32;
        let id = self.changes_through(h).iter().fold(self.row0[i], |b, c| {
            match c.flows.binary_search(&key) {
                Ok(k) => c.ids[k],
                Err(_) => b,
            }
        });
        self.bases[id as usize]
    }

    /// Every flow's base id at hour `h`: hour 0's row with the change
    /// lists of hours `1..=h` written over it (borrowed when none
    /// changes anything).
    pub fn base_ids_at(&self, h: u32) -> Cow<'_, [u32]> {
        let mut row = Cow::Borrowed(&self.row0[..]);
        for c in self.changes_through(h).iter().filter(|c| !c.is_empty()) {
            c.apply(row.to_mut());
        }
        row
    }

    /// The rate vector at hour `h` (0 = 6 AM in the paper's framing):
    /// east-cohort flows are evaluated 3 hours later on the curve (their
    /// day started earlier), west-cohort flows at `h` directly.
    pub fn rates_at(&self, h: u32) -> Vec<u64> {
        let memo = self.class_rates_at(h);
        let rule = RateRule::new(&self.east, &memo);
        self.base_ids_at(h)
            .iter()
            .zip(&self.east)
            .map(|(&b, &east)| rule.rate(b, east))
            .collect()
    }

    /// Every rate class's rate at hour `h`, indexed by [`rate_class`]:
    /// `2 · bases().len()` roundings.
    pub fn class_rates_at(&self, h: u32) -> Vec<u64> {
        let mut memo = Vec::new();
        self.fill_class_rates(self.cohort_scales(h), &mut memo);
        memo
    }

    /// Fills `memo` with every class's rate under cohort scales `scales`.
    fn fill_class_rates(&self, scales: [f64; 2], memo: &mut Vec<u64>) {
        memo.clear();
        memo.extend(
            self.bases
                .iter()
                .flat_map(|&b| scales.map(|s| scaled(b, s))),
        );
    }

    /// The inputs that define this trace. Together they pin
    /// [`DynamicTrace::rates_at`] for every hour, so hashing them
    /// fingerprints the whole trace without deriving a single rate.
    pub fn inputs(&self) -> TraceInputs<'_> {
        TraceInputs {
            bases: &self.bases,
            row0: &self.row0,
            changes: &self.changes,
            east: &self.east,
            model: self.model,
            offset: self.offset,
        }
    }

    /// A cursor whose consumer holds `rates_at(hour)`; see [`TraceCursor`].
    /// It prices every rate class at `hour` up front.
    pub fn cursor(&self, hour: u32) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            hour,
            row: None,
            row_hour: 0,
            memo: self.class_rates_at(hour),
        }
    }

    /// The change lists of hours `1..=h` (hours past the last list keep
    /// the last row).
    fn changes_through(&self, h: u32) -> &[HourChanges] {
        &self.changes[..(h as usize).min(self.changes.len())]
    }

    /// Hour `h`'s change list as `(flows, ids)`; empty for hour 0 and for
    /// hours past the last list.
    fn changes_at(&self, h: u32) -> (&[u32], &[u32]) {
        match (h as usize)
            .checked_sub(1)
            .and_then(|k| self.changes.get(k))
        {
            Some(c) => (&c.flows, &c.ids),
            None => (&[], &[]),
        }
    }

    /// The envelope scales at hour `h`, indexed by cohort: `[west, east]`.
    fn cohort_scales(&self, h: u32) -> [f64; 2] {
        [
            self.model.scale_at(h as i64),
            self.model.scale_at(h as i64 + self.offset),
        ]
    }

    /// The per-flow rate changes from hour `h − 1` to hour `h`, as
    /// `(flow, new λ − old λ)` pairs in flow-id order with unchanged flows
    /// omitted: the delta batch a streaming ingest takes. By construction
    /// `rates_at(h - 1)` plus the deltas equals `rates_at(h)` exactly.
    /// It is a stateless replay (one rate vector at `h − 1`, then one
    /// cursor step); an engine that walks the day in order steps a
    /// [`TraceCursor`] instead.
    ///
    /// # Errors
    ///
    /// [`TraceError::NoPrecedingHour`] when `h` is 0, and
    /// [`TraceError::DeltaOutOfRange`] for the lowest flow whose change
    /// does not fit an `i64`.
    pub fn try_rate_deltas(&self, h: u32) -> Result<Vec<(FlowId, i64)>, TraceError> {
        let prev = h.checked_sub(1).ok_or(TraceError::NoPrecedingHour)?;
        let old = self.rates_at(prev);
        let mut out = Vec::new();
        // A step yields each flow at most once, so `old` is never stale.
        for (flow, new) in self.cursor(prev).step() {
            let net = i128::from(new) - i128::from(old[flow.index()]);
            if net != 0 {
                let delta = i64::try_from(net).map_err(|_| TraceError::DeltaOutOfRange {
                    hour: h,
                    flow: flow.index(),
                })?;
                out.push((flow, delta));
            }
        }
        Ok(out)
    }
}

/// A position in a [`DynamicTrace`] that its consumer steps through the
/// day hour by hour: the consumer holds `rates_at(hour())`, and each
/// [`TraceCursor::step`] says what it must overwrite to hold the next
/// hour's rates.
///
/// A step from hour `h − 1` to `h` is one of two shapes ([`HourStep`]):
///
/// * neither cohort's scale moved (compared bit for bit): hour `h`'s
///   change list alone. A flow absent from it kept its base entry and its
///   scale, so its rate `round(base · scale)` cannot have moved; a repeat
///   hour lists nothing.
/// * a scale moved: every flow may have moved. The step carries the
///   dense base-id row of hour `h` and, for consumers that keep their
///   own per-flow classes, hour `h`'s change list too.
///
/// The dense row starts as the trace's own hour-0 row, borrowed. Only
/// reading a scale-moved step's row ([`DenseRow::get`]) brings it up to
/// date: the cursor copies it on the first base change such a read meets
/// and replays the change lists since the last read into the copy. A
/// consumer that never reads the row (the class-keyed stream store), a
/// trace that only rescales, or one that only changes bases under a flat
/// envelope, never copies it. The cursor also owns the class-rate table
/// its steps' [`RateRule`]s read: priced at the start hour, and re-priced
/// at each scale-moved step.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a DynamicTrace,
    /// The hour whose rates the consumer holds.
    hour: u32,
    /// The base-id row at `row_hour`; `None` while it is still hour 0's
    /// row (no change list up to `row_hour` is non-empty).
    row: Option<Vec<u32>>,
    row_hour: u32,
    /// Every class's rate at `hour` ([`rate_class`] order).
    memo: Vec<u64>,
}

impl<'a> TraceCursor<'a> {
    /// The trace this cursor walks.
    pub fn trace(&self) -> &'a DynamicTrace {
        self.trace
    }

    /// The hour whose rates the consumer holds.
    pub fn hour(&self) -> u32 {
        self.hour
    }

    /// Steps from `hour()` to the next hour and returns what may have
    /// moved: the hour's change list when no cohort scale moved, else the
    /// new hour's whole base-id row and its change list. Either way the
    /// step carries the new hour's [`RateRule`], whose class rates are
    /// priced once per scale-moved step (`2 · bases().len()` roundings),
    /// never per flow.
    ///
    /// A consumer that holds `rates_at(h - 1)` and overwrites every flow
    /// of the step's iterator holds `rates_at(h)` exactly. Every flow whose
    /// rate changed is yielded; so is a listed flow whose rounded rate did
    /// not move, and on a dense step every flow. At hour `u32::MAX` the
    /// cursor stays put and lists nothing.
    pub fn step(&mut self) -> HourStep<'_> {
        let t = self.trace;
        let Some(h) = self.hour.checked_add(1) else {
            return HourStep::Listed {
                flows: &[],
                ids: &[],
                rule: RateRule::new(&t.east, &self.memo),
            };
        };
        self.hour = h;
        let (prev, next) = (t.cohort_scales(h - 1), t.cohort_scales(h));
        let (flows, ids) = t.changes_at(h);
        if prev.map(f64::to_bits) == next.map(f64::to_bits) {
            return HourStep::Listed {
                flows,
                ids,
                rule: RateRule::new(&t.east, &self.memo),
            };
        }
        t.fill_class_rates(next, &mut self.memo);
        HourStep::Dense {
            row: DenseRow {
                trace: t,
                row: &mut self.row,
                row_hour: &mut self.row_hour,
                hour: h,
            },
            flows,
            ids,
            rule: RateRule::new(&t.east, &self.memo),
        }
    }
}

/// The base-id row of a scale-moved step, brought up to the step's hour
/// only when read ([`DenseRow::get`]). A consumer that keys its own
/// per-flow classes reads the step's change list instead, and never pays
/// for the row.
#[derive(Debug)]
pub struct DenseRow<'a> {
    trace: &'a DynamicTrace,
    /// The cursor's row copy and the hour it stands at.
    row: &'a mut Option<Vec<u32>>,
    row_hour: &'a mut u32,
    /// The step's hour.
    hour: u32,
}

impl<'a> DenseRow<'a> {
    /// Every flow's base id at the step's hour. Replays the change lists
    /// since the row was last read into the cursor's copy, copying hour
    /// 0's row on the first non-empty list; until then the row is hour
    /// 0's own, borrowed.
    pub fn get(self) -> &'a [u32] {
        let trace = self.trace;
        let lists = trace.changes_through(self.hour);
        let done = (*self.row_hour as usize).min(lists.len());
        for c in lists[done..].iter().filter(|c| !c.is_empty()) {
            c.apply(self.row.get_or_insert_with(|| trace.row0.clone()));
        }
        *self.row_hour = (*self.row_hour).max(self.hour);
        self.row.as_deref().unwrap_or(&trace.row0)
    }
}

/// One [`TraceCursor::step`] from hour `h − 1` to `h`. Bases are ids
/// into the trace's base table ([`DynamicTrace::bases`]).
#[derive(Debug)]
pub enum HourStep<'a> {
    /// No cohort scale moved, so only the listed flows can have moved:
    /// hour `h`'s changed flows, strictly increasing, and `ids[k]`, the
    /// new base id of `flows[k]`.
    Listed {
        flows: &'a [u32],
        ids: &'a [u32],
        rule: RateRule<'a>,
    },
    /// A cohort scale moved: every flow `i` is re-derived from `row[i]`,
    /// its base id at hour `h` ([`DenseRow::get`]). `flows` / `ids` are
    /// hour `h`'s change list, as in [`HourStep::Listed`]: every flow
    /// whose base id differs from hour `h − 1`'s.
    Dense {
        row: DenseRow<'a>,
        flows: &'a [u32],
        ids: &'a [u32],
        rule: RateRule<'a>,
    },
}

impl<'a> IntoIterator for HourStep<'a> {
    type Item = (FlowId, u64);
    type IntoIter = HourIter<'a>;

    /// `(flow, λ at hour h)` for every flow the step covers, in flow-id
    /// order: the listed flows, or every flow of a dense step (whose row
    /// this reads).
    fn into_iter(self) -> HourIter<'a> {
        let (flows, ids, rule) = match self {
            HourStep::Listed { flows, ids, rule } => (Some(flows), ids, rule),
            HourStep::Dense { row, rule, .. } => (None, row.get(), rule),
        };
        HourIter {
            flows,
            ids,
            rule,
            next: 0,
        }
    }
}

/// The `(flow, λ at hour h)` pairs of one [`HourStep`], in flow-id order.
#[derive(Debug, Clone)]
pub struct HourIter<'a> {
    /// The listed flows, or `None` on a dense step, where `ids` is the
    /// whole row and entry `k` is flow `k`.
    flows: Option<&'a [u32]>,
    ids: &'a [u32],
    rule: RateRule<'a>,
    /// The next list entry or row slot.
    next: usize,
}

impl Iterator for HourIter<'_> {
    type Item = (FlowId, u64);

    #[inline]
    fn next(&mut self) -> Option<(FlowId, u64)> {
        let k = self.next;
        let id = *self.ids.get(k)?;
        let flow = match self.flows {
            Some(flows) => *flows.get(k)?,
            None => k as u32,
        };
        self.next += 1;
        let rule = self.rule;
        Some((FlowId(flow), rule.rate(id, rule.east[flow as usize])))
    }
}

/// The rate rule of one trace hour: a flow's rate is its base rate
/// scaled by its cohort's envelope factor, rounded half away from zero,
/// `round(base · scale)` (Eq. 9).
///
/// Under that rule a flow's rate depends only on its rate class
/// ([`rate_class`]: base id and cohort), so the rule is a table of every
/// class's rate at the hour, filled once by the rounding; looking a flow
/// up is one load, never a rounding.
#[derive(Debug, Clone, Copy)]
pub struct RateRule<'a> {
    /// `east[i]`: flow `i` is in the east cohort.
    east: &'a [bool],
    /// `classes[2·id + e]`: the rate of base `id` in cohort `e` (1 = east).
    classes: &'a [u64],
}

impl<'a> RateRule<'a> {
    /// A rule over cohort flags `east` and the class-rate table `classes`.
    fn new(east: &'a [bool], classes: &'a [u64]) -> Self {
        RateRule { east, classes }
    }

    /// The cohort flags, one per flow.
    pub fn east(&self) -> &'a [bool] {
        self.east
    }

    /// Every class's rate at the hour, indexed by [`rate_class`].
    pub fn class_rates(&self) -> &'a [u64] {
        self.classes
    }

    /// The rate of base id `id` in the east (`true`) or west cohort.
    #[inline]
    pub fn rate(&self, id: u32, east: bool) -> u64 {
        self.classes[rate_class(id, east) as usize]
    }
}

/// A flow's rate: its base rate scaled by its cohort's envelope factor.
#[inline]
fn scaled(base: u64, scale: f64) -> u64 {
    round_to_u64(base as f64 * scale)
}

/// `x.round() as u64` (half away from zero, saturating), branch-free and
/// without the libm call `round` compiles to on baseline x86-64.
///
/// Exact: for `1 ≤ x < 2^53` the truncation `t` satisfies `t ≤ x < 2t`,
/// so `x − t` is exact (Sterbenz) and compares with `0.5` exactly; below
/// 1, `t = 0` and the fraction is `x` itself; from `2^53` up, `x` is an
/// integer and the fraction is 0. Negative and NaN inputs truncate to 0
/// with a fraction below `0.5`, and values past `u64::MAX` saturate, as
/// the cast does.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// Read-only view of the inputs that define a [`DynamicTrace`]: the base
/// table, hour 0's base-id row, each later hour's base changes, the
/// cohort flags, the diurnal model, and the east cohort's offset. Every
/// hour's rate vector is a pure function of these.
#[derive(Debug, Clone, Copy)]
pub struct TraceInputs<'a> {
    /// The distinct base rates, increasing; ids index it.
    pub bases: &'a [u64],
    /// `row0[i]`: the id of flow `i`'s base rate at hour 0.
    pub row0: &'a [u32],
    /// `changes[h - 1]`: the base-rate changes from hour `h − 1` to `h`
    /// (`n_hours` lists).
    pub changes: &'a [HourChanges],
    /// `east[i]`: flow `i` is in the east cohort.
    pub east: &'a [bool],
    /// The envelope model (`n_hours`, `tau_min`).
    pub model: DiurnalModel,
    /// Hours the east cohort runs ahead.
    pub offset: i64,
}

/// Hourly churn fraction used by the standard dynamic workload: a quarter
/// of the flows redistributes its traffic every hour, the "diverse and
/// dynamic" regime the TOM experiments need (churn 0 makes every placement
/// permanently optimal and no algorithm ever migrates).
pub const STANDARD_CHURN: f64 = 0.25;

/// Number of active (hotspot) racks in the standard dynamic workload.
/// Tenant clusters concentrate traffic on a few racks; see
/// [`PairPlacement::active_racks`] for why uniform spread makes TOM
/// vacuous on hop-metric fat-trees.
pub const STANDARD_ACTIVE_RACKS: usize = 8;

/// Convenience: builds the paper's full Fig. 11 workload in one call —
/// `num_pairs` VM pairs on [`STANDARD_ACTIVE_RACKS`] hotspot racks with
/// 80 % rack locality, Facebook rate mix, and a diurnal trace with
/// [`STANDARD_CHURN`] hourly churn and location-correlated cohorts
/// (east-coast jobs occupy the first half of the racks, see
/// [`DynamicTrace::with_cohorts`]).
pub fn standard_workload(
    ft: &FatTree,
    num_pairs: usize,
    seed: u64,
    run: u64,
) -> (Workload, DynamicTrace) {
    let mut rng = rng_for_run(seed, run);
    let placement = PairPlacement {
        active_racks: Some(STANDARD_ACTIVE_RACKS.min(ft.num_racks())),
        ..PairPlacement::default()
    };
    let w = generate_pairs(ft, &placement, &DEFAULT_MIX, num_pairs, &mut rng);
    let half = ft.num_racks() / 2;
    let east: Vec<bool> = w
        .flow_ids()
        .map(|f| {
            let (src, _) = w.endpoints(f);
            ft.rack_of(src) < half
        })
        .collect();
    let trace = DynamicTrace::with_cohorts(
        &w,
        DiurnalModel::default(),
        &DEFAULT_MIX,
        STANDARD_CHURN,
        east,
        &mut rng,
    );
    (w, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_topology::{FatTree, NodeId};

    #[test]
    fn trace_is_reproducible() {
        let ft = FatTree::build(4).unwrap();
        let (w1, t1) = standard_workload(&ft, 20, 7, 3);
        let (w2, t2) = standard_workload(&ft, 20, 7, 3);
        assert_eq!(w1.rates(), w2.rates());
        for h in 0..=12 {
            assert_eq!(t1.rates_at(h), t2.rates_at(h));
        }
        let (_, t3) = standard_workload(&ft, 20, 7, 4);
        assert!((0..=12).any(|h| t1.rates_at(h) != t3.rates_at(h)));
    }

    #[test]
    fn rates_respect_diurnal_envelope() {
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 50, 42, 0);
        for h in 0..=12u32 {
            let rates = trace.rates_at(h);
            assert_eq!(rates.len(), w.num_flows());
            for (i, &r) in rates.iter().enumerate() {
                let b = trace.base_rate_at(h, i);
                assert!(r <= b + 1, "hour {h} flow {i}: scaled {r} above base {b}");
            }
        }
    }

    #[test]
    fn churn_redistributes_rates() {
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 100, 42, 0);
        // Hour 0 base is the workload's own rates.
        for i in 0..w.num_flows() {
            assert_eq!(trace.base_rate_at(0, i), w.rates()[i]);
        }
        // Roughly a quarter of flows changed base by hour 1.
        let changed = (0..w.num_flows())
            .filter(|&i| trace.base_rate_at(1, i) != trace.base_rate_at(0, i))
            .count();
        assert!(changed > 5 && changed < 60, "changed {changed} of 100");
        // A churn-free trace never changes the base.
        let mut rng = rng_for_run(1, 1);
        let t0 = DynamicTrace::new(&w, DiurnalModel::default(), &mut rng);
        for h in 0..=12 {
            for i in 0..w.num_flows() {
                assert_eq!(t0.base_rate_at(h, i), w.rates()[i]);
            }
        }
    }

    #[test]
    fn rate_deltas_reconstruct_each_hour() {
        let ft = FatTree::build(4).unwrap();
        let (_, trace) = standard_workload(&ft, 80, 11, 0);
        for h in 1..=12u32 {
            let mut rates = trace.rates_at(h - 1);
            let deltas = trace.try_rate_deltas(h).unwrap();
            for &(f, d) in &deltas {
                assert_ne!(d, 0, "unchanged flows must be omitted");
                rates[f.index()] = (rates[f.index()] as i64 + d) as u64;
            }
            assert_eq!(rates, trace.rates_at(h), "hour {h}");
        }
        // The diurnal envelope moves; some hour must produce deltas.
        assert!((1..=12).any(|h| !trace.try_rate_deltas(h).unwrap().is_empty()));
    }

    #[test]
    fn quiet_hours_stream_no_dead_entries() {
        // Streaming-engine contract: a flow whose rate did not change must
        // not appear in the delta feed at all — a million-flow stream over
        // a quiet hour is an empty batch, not a million `(flow, 0)` rows.
        let ft = FatTree::build(4).unwrap();
        let (w, _) = standard_workload(&ft, 50, 13, 0);
        // τ_min = 1 flattens the diurnal triangle; with a churn-free trace
        // on top, every hour's rate vector is identical to hour 0's.
        let flat = DiurnalModel {
            n_hours: 12,
            tau_min: 1.0,
        };
        let mut rng = rng_for_run(13, 1);
        let trace = DynamicTrace::new(&w, flat, &mut rng);
        for h in 1..=12 {
            assert_eq!(trace.try_rate_deltas(h).unwrap(), vec![], "hour {h}");
        }
        // On a moving trace the feed still never carries a dead entry, and
        // streaming the deltas across the whole day lands bit-exactly on
        // the batch rate vector — the identity the sharded ingest (and its
        // aggregate `same_as` check) builds on.
        let (_, trace) = standard_workload(&ft, 50, 13, 0);
        let mut streamed = trace.rates_at(0);
        for h in 1..=12u32 {
            for (f, d) in trace.try_rate_deltas(h).unwrap() {
                assert_ne!(d, 0, "dead entry for flow {} at hour {h}", f.0);
                streamed[f.index()] = (streamed[f.index()] as i64 + d) as u64;
            }
        }
        assert_eq!(streamed, trace.rates_at(12));
    }

    #[test]
    fn untrusted_inputs_get_typed_errors() {
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 10, 7, 0);
        let mut rng = rng_for_run(7, 0);

        // Wrong cohort count.
        let err = DynamicTrace::try_with_cohorts(
            &w,
            DiurnalModel::default(),
            &DEFAULT_MIX,
            0.0,
            vec![true; 3],
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            TraceError::CohortCountMismatch {
                flows: 10,
                cohorts: 3
            }
        );

        // Hour 0 has no predecessor.
        assert_eq!(trace.try_rate_deltas(0), Err(TraceError::NoPrecedingHour));
        assert!(trace.try_rate_deltas(1).is_ok());
    }

    #[test]
    fn from_rows_validates_shape_and_sign() {
        let ft = FatTree::build(4).unwrap();
        let (w, _) = standard_workload(&ft, 4, 7, 0);
        let model = DiurnalModel::default();
        let east = vec![false; 4];
        let good_row = vec![1i64, 2, 3, 4];

        // Wrong number of hourly rows.
        let err = DynamicTrace::from_rows(&w, model, east.clone(), std::slice::from_ref(&good_row))
            .unwrap_err();
        assert_eq!(
            err,
            TraceError::HourCountMismatch {
                expected: 13,
                got: 1
            }
        );

        // A row with the wrong flow count.
        let mut rows = vec![good_row.clone(); 13];
        rows[5] = vec![1, 2];
        let err = DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap_err();
        assert_eq!(
            err,
            TraceError::RowLengthMismatch {
                hour: 5,
                expected: 4,
                got: 2
            }
        );

        // A negative rate.
        let mut rows = vec![good_row.clone(); 13];
        rows[2][1] = -9;
        let err = DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap_err();
        assert_eq!(
            err,
            TraceError::NegativeRate {
                hour: 2,
                flow: 1,
                rate: -9
            }
        );

        // A well-formed trace round-trips its rows.
        let rows = vec![good_row; 13];
        let t = DynamicTrace::from_rows(&w, model, east, &rows).unwrap();
        for h in 0..=12 {
            for i in 0..4 {
                assert_eq!(t.base_rate_at(h, i), (i + 1) as u64);
            }
        }
    }

    /// A base of `i64::MAX` scales to 2^63 at scale 1.0, so the rise from
    /// 0 does not fit an `i64` delta: it is refused, not reported with its
    /// sign flipped as a decrease.
    #[test]
    fn a_delta_past_i64_max_is_refused_not_sign_flipped() {
        let mut w = Workload::new();
        w.add_pair(NodeId(0), NodeId(1), 0);
        let flat = DiurnalModel {
            n_hours: 1,
            tau_min: 1.0,
        };
        let t = DynamicTrace::from_rows(&w, flat, vec![false], &[vec![0], vec![i64::MAX]]).unwrap();
        assert_eq!(t.rates_at(1), vec![1u64 << 63]);
        let refused = TraceError::DeltaOutOfRange { hour: 1, flow: 0 };
        assert_eq!(t.try_rate_deltas(1), Err(refused));
        // The fall back from 2^63 to 0 is exactly `i64::MIN`, and a rise
        // that fits is reported exactly.
        for (rows, delta) in [([i64::MAX, 0], i64::MIN), ([1, i64::MAX], i64::MAX)] {
            let t = DynamicTrace::from_rows(&w, flat, vec![false], &rows.map(|r| vec![r])).unwrap();
            assert_eq!(t.try_rate_deltas(1), Ok(vec![(FlowId(0), delta)]));
        }
    }

    /// Under a flat envelope a repeat hour walks nothing and a changed
    /// hour walks its change list alone; neither copies the base row.
    /// Under a moving envelope the row is copied only once a scale-moved
    /// step meets a base change.
    #[test]
    fn the_cursor_copies_the_base_row_only_when_it_must() {
        let mut w = Workload::new();
        for i in 0..6 {
            w.add_pair(NodeId(i), NodeId(i + 1), 100 * u64::from(i + 1));
        }
        let row: Vec<i64> = w.rates().iter().map(|&r| r as i64).collect();
        let mut changed = row.clone();
        changed[2] = 7;
        changed[5] = 9;
        let rows = vec![row.clone(), row.clone(), changed.clone(), changed, row];
        let flat = DiurnalModel {
            n_hours: 4,
            tau_min: 1.0,
        };
        let t = DynamicTrace::from_rows(&w, flat, vec![false; 6], &rows).unwrap();
        let mut c = t.cursor(0);
        let walked: Vec<Vec<(FlowId, u64)>> =
            (0..6).map(|_| c.step().into_iter().collect()).collect();
        assert_eq!(
            walked,
            vec![
                vec![],
                vec![(FlowId(2), 7), (FlowId(5), 9)],
                vec![],
                vec![(FlowId(2), 300), (FlowId(5), 600)],
                vec![],
                vec![],
            ]
        );
        assert!(c.row.is_none(), "a flat envelope never needs the dense row");
        // The default envelope moves a scale every hour of the day: hour
        // 1 walks row 0 itself, hour 2's step needs the row with hour 2's
        // change written over it.
        let t = DynamicTrace::from_rows(
            &w,
            DiurnalModel {
                n_hours: 4,
                tau_min: 0.2,
            },
            vec![false; 6],
            &rows,
        )
        .unwrap();
        let mut c = t.cursor(0);
        for h in 1..=4 {
            let mut held = t.rates_at(h - 1);
            for (f, r) in c.step() {
                held[f.index()] = r;
            }
            assert_eq!(held, t.rates_at(h), "hour {h}");
            assert_eq!(c.row.is_some(), h >= 2, "hour {h}");
        }
    }

    /// A consumer that reads only the change lists of dense steps (as the
    /// class-keyed stream store does) never makes the cursor copy or
    /// replay its row; the first read catches the row up over every
    /// skipped hour at once.
    #[test]
    fn a_dense_row_is_caught_up_only_when_read() {
        let mut w = Workload::new();
        let row: Vec<i64> = (0..6)
            .map(|i| {
                w.add_pair(NodeId(0), NodeId(1), 0);
                10 * (i + 1)
            })
            .collect();
        let mut changed = row.clone();
        changed[1] = 3;
        let mut later = changed.clone();
        later[4] = 77;
        let rows = vec![row.clone(), changed.clone(), later, changed, row];
        let model = DiurnalModel {
            n_hours: 4,
            tau_min: 0.2,
        };
        let t = DynamicTrace::from_rows(&w, model, vec![false; 6], &rows).unwrap();
        let mut c = t.cursor(0);
        for h in 1..=3 {
            match c.step() {
                HourStep::Dense { flows, ids, .. } => {
                    let (want_flows, want_ids) = t.changes_at(h);
                    assert_eq!((flows, ids), (want_flows, want_ids), "hour {h}");
                }
                HourStep::Listed { .. } => panic!("hour {h}: the envelope moves every hour"),
            }
            assert!(c.row.is_none(), "hour {h}: an unread row is never copied");
        }
        let HourStep::Dense { row, .. } = c.step() else {
            panic!("hour 4: the envelope moves every hour");
        };
        assert_eq!(row.get(), &t.base_ids_at(4)[..]);
        assert!(c.row.is_some());
        assert_eq!(c.row_hour, 4);
    }

    /// The class-rate table answers exactly what rounding answers, on
    /// both cohorts and at every hour, for more than 2^14 distinct bases
    /// and for bases at the edges of exact `f64` integers and of `i64`.
    #[test]
    fn the_memoized_rule_equals_the_rounding() {
        let edges: [u64; 10] = [
            0,
            1,
            (1 << 14) - 1,
            1 << 14,
            (1 << 14) + 1,
            (1 << 53) - 1,
            1 << 53,
            (1 << 53) + 1,
            (1 << 62) + 3,
            i64::MAX as u64,
        ];
        let flows = (1 << 14) + 64;
        let mut w = Workload::new();
        let row: Vec<i64> = (0..flows)
            .map(|i| {
                w.add_pair(NodeId(0), NodeId(1), 0);
                edges.get(i).copied().unwrap_or(3 * i as u64 + 2) as i64
            })
            .collect();
        let model = DiurnalModel::default();
        let east: Vec<bool> = (0..flows).map(|i| i % 3 == 1).collect();
        let rows = vec![row; model.n_hours as usize + 1];
        let t = DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap();
        assert!(t.bases().len() > 1 << 14);
        assert!(t.bases().windows(2).all(|p| p[0] < p[1]));
        let mut cursor = t.cursor(0);
        for h in 0..=model.n_hours + 1 {
            if h > 0 {
                cursor.step();
            }
            let table = t.class_rates_at(h);
            assert_eq!(cursor.memo, table, "hour {h}");
            for (id, &b) in t.bases().iter().enumerate() {
                for (c, e) in [false, true].into_iter().enumerate() {
                    let s = model.scale_at(i64::from(h) + [0, t.offset()][c]);
                    let want = (b as f64 * s).round() as u64;
                    let got = RateRule::new(&east, &table).rate(id as u32, e);
                    assert_eq!(got, want, "hour {h} base {b} cohort {c}");
                }
            }
            let rates = t.rates_at(h);
            for (i, &r) in rates.iter().enumerate().take(edges.len()) {
                let s = model.scale_at(i64::from(h) + if east[i] { t.offset() } else { 0 });
                assert_eq!(r, (edges[i] as f64 * s).round() as u64, "hour {h} flow {i}");
            }
        }
    }

    #[test]
    fn round_to_u64_equals_the_rounding_cast() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut xs = vec![
            0.0,
            -0.0,
            below(0.5),
            0.5,
            1.5,
            2.5,
            below(2.5),
            4_503_599_627_370_495.5, // 2^52 − 0.5
            9_007_199_254_740_993.0, // 2^53 + 1, rounded to 2^53
            u64::MAX as f64,
            1e300,
            f64::INFINITY,
            -0.75,
            -1e300,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            xs.push((x % 20_000) as f64 * [0.2, 0.35, 0.5, 0.6, 0.8][(x % 5) as usize]);
            xs.push(f64::from_bits(x));
        }
        for x in xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "x = {x:e}");
        }
    }

    #[test]
    fn cohorts_split_roughly_in_half() {
        let ft = FatTree::build(4).unwrap();
        let (_, trace) = standard_workload(&ft, 400, 2, 0);
        let east = (0..trace.num_flows()).filter(|&i| trace.is_east(i)).count();
        assert!(east > 120 && east < 280, "east cohort {east} of 400");
    }

    #[test]
    fn peak_hours_differ_between_cohorts() {
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 100, 5, 0);
        // At the west peak (h = 6), west flows run at full base rate.
        let at6 = trace.rates_at(6);
        for (i, &r) in at6.iter().enumerate().take(w.num_flows()) {
            if !trace.is_east(i) {
                assert_eq!(r, trace.base_rate_at(6, i));
            }
        }
        // East flows peak 3 hours earlier (h = 3).
        let at3 = trace.rates_at(3);
        for (i, &r) in at3.iter().enumerate().take(w.num_flows()) {
            if trace.is_east(i) {
                assert_eq!(r, trace.base_rate_at(3, i));
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use ppdc_topology::NodeId;
    use proptest::prelude::*;

    /// The reference the rewritten passes must equal: every flow's rate
    /// from the public per-flow accessors, one full vector per hour.
    fn naive_rates(t: &DynamicTrace, h: u32) -> Vec<u64> {
        (0..t.num_flows())
            .map(|i| {
                let at = if t.is_east(i) {
                    h as i64 + t.offset()
                } else {
                    h as i64
                };
                (t.base_rate_at(h, i) as f64 * t.model().scale_at(at)).round() as u64
            })
            .collect()
    }

    /// Two full vectors compared flow by flow.
    fn naive_deltas(t: &DynamicTrace, h: u32) -> Vec<(FlowId, i64)> {
        let (prev, next) = (naive_rates(t, h - 1), naive_rates(t, h));
        prev.iter()
            .zip(&next)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, (&a, &b))| (FlowId(i as u32), b as i64 - a as i64))
            .collect()
    }

    /// One of the five trace shapes the engines consume, drawn from `seed`.
    fn arb_trace(shape: usize, num_flows: usize, n_hours: u32, seed: u64) -> DynamicTrace {
        let mut rng = rng_for_run(seed, shape as u64);
        let mut w = Workload::new();
        for i in 0..num_flows {
            w.add_pair(
                NodeId(i as u32),
                NodeId(i as u32 + 1),
                sample_rate(&DEFAULT_MIX, &mut rng),
            );
        }
        let model = DiurnalModel {
            n_hours,
            tau_min: [0.2, 0.35, 0.5][seed as usize % 3],
        };
        let east: Vec<bool> = (0..num_flows).map(|_| rng.gen_bool(0.5)).collect();
        match shape {
            // The paper's default envelope, with or without churn.
            0 => {
                let churn = [0.0, STANDARD_CHURN][seed as usize % 2];
                DynamicTrace::with_churn(&w, DiurnalModel::default(), &DEFAULT_MIX, churn, &mut rng)
            }
            // A flat envelope: only churn moves rates.
            1 => {
                let flat = DiurnalModel {
                    n_hours,
                    tau_min: 1.0,
                };
                DynamicTrace::with_churn(&w, flat, &DEFAULT_MIX, STANDARD_CHURN, &mut rng)
            }
            // External rows: each hour repeats the previous row or changes
            // a few entries.
            2 => {
                let mut rows: Vec<Vec<i64>> = vec![w.rates().iter().map(|&r| r as i64).collect()];
                for _ in 0..n_hours {
                    let mut row = rows[rows.len() - 1].clone();
                    if rng.gen_bool(0.5) {
                        for r in row.iter_mut() {
                            if rng.gen_bool(0.2) {
                                *r = rng.gen_range(0..10_000);
                            }
                        }
                    }
                    rows.push(row);
                }
                DynamicTrace::from_rows(&w, model, east, &rows).unwrap()
            }
            // A churned trace with a shifted cohort offset.
            3 => {
                let offset = rng.gen_range(-15i64..16);
                DynamicTrace::with_churn(&w, model, &DEFAULT_MIX, STANDARD_CHURN, &mut rng)
                    .with_offset(offset)
            }
            // Caller-chosen cohorts on a heavily churned trace.
            _ => DynamicTrace::with_cohorts(&w, model, &DEFAULT_MIX, 0.5, east, &mut rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `rates_at` and the one-pass `try_rate_deltas` equal the naive
        /// two-vector reference at every hour, including hours past the
        /// last row.
        #[test]
        fn rates_and_deltas_equal_the_naive_reference(
            shape in 0usize..5,
            num_flows in 0usize..40,
            n_hours in 1u32..16,
            seed in any::<u64>(),
        ) {
            let t = arb_trace(shape, num_flows, n_hours, seed);
            let last = t.model().n_hours + 2;
            for h in 0..=last {
                prop_assert_eq!(t.rates_at(h), naive_rates(&t, h), "shape {} hour {}", shape, h);
            }
            for h in 1..=last {
                prop_assert_eq!(
                    t.try_rate_deltas(h).unwrap(),
                    naive_deltas(&t, h),
                    "shape {} hour {}", shape, h
                );
            }
        }
    }
}

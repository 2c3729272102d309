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
/// base rates, as two parallel arrays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HourChanges {
    flows: Vec<u32>,
    bases: Vec<u64>,
}

impl HourChanges {
    /// The changed flows, strictly increasing.
    pub fn flows(&self) -> &[u32] {
        &self.flows
    }

    /// `bases()[k]`: the new base rate of `flows()[k]`.
    pub fn bases(&self) -> &[u64] {
        &self.bases
    }

    /// True when no base rate changed this hour.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Records flow `i`'s new base rate; flows arrive in increasing order.
    fn push(&mut self, i: usize, base: u64) {
        self.flows.push(i as u32);
        self.bases.push(base);
    }

    /// Writes this hour's new base rates over the previous hour's row.
    fn apply(&self, row: &mut [u64]) {
        for (&f, &b) in self.flows.iter().zip(&self.bases) {
            row[f as usize] = b;
        }
    }
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
/// Only what changes is stored: hour 0's base-rate row and, for every
/// later hour, the flows whose base rate moved ([`HourChanges`]). A day
/// of repeated rows costs one row, not one per hour.
#[derive(Debug, Clone)]
pub struct DynamicTrace {
    /// `row0[i]`: flow `i`'s base rate at hour 0.
    row0: Vec<u64>,
    /// `changes[h - 1]`: the base-rate changes from hour `h − 1` to `h`
    /// (`n_hours` lists; later hours keep the last row).
    changes: Vec<HourChanges>,
    east: Vec<bool>,
    model: DiurnalModel,
    /// Hours the east cohort runs ahead (default [`EAST_COAST_OFFSET`]).
    offset: i64,
    /// The largest base rate of any flow at any hour; it sizes the rate
    /// memo ([`RateRule`]).
    max_base: u64,
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
            Err(e) => panic!("with_cohorts: {e}"), // analyzer:allow(no-panic) -- documented panicking facade; shape-checked boundaries use try_with_cohorts
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
            let mut hour = HourChanges::default();
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
            let mut changed = HourChanges::default();
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

    /// Assembles a trace at the default cohort offset and finds its
    /// largest base rate.
    fn from_parts(
        row0: Vec<u64>,
        changes: Vec<HourChanges>,
        east: Vec<bool>,
        model: DiurnalModel,
    ) -> Self {
        let max_base = changes
            .iter()
            .flat_map(|c| &c.bases)
            .chain(&row0)
            .copied()
            .max()
            .unwrap_or(0);
        DynamicTrace {
            row0,
            changes,
            east,
            model,
            offset: EAST_COAST_OFFSET,
            max_base,
        }
    }

    /// Overrides the cohort offset (hours the east cohort runs ahead).
    ///
    /// The paper's US-coast model uses 3 h; `n_hours / 2` puts the two
    /// cohorts in antiphase — the strongest daily traffic swing, used by
    /// the hotspot-swing ablation.
    pub fn with_offset(mut self, offset: i64) -> Self {
        self.offset = offset;
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

    /// The base (pre-envelope) rate of flow `i` at hour `h`, replayed
    /// from hour 0 through the change lists.
    pub fn base_rate_at(&self, h: u32, i: usize) -> u64 {
        let key = i as u32;
        self.changes_through(h).iter().fold(self.row0[i], |b, c| {
            match c.flows.binary_search(&key) {
                Ok(k) => c.bases[k],
                Err(_) => b,
            }
        })
    }

    /// The rate vector at hour `h` (0 = 6 AM in the paper's framing):
    /// east-cohort flows are evaluated 3 hours later on the curve (their
    /// day started earlier), west-cohort flows at `h` directly.
    pub fn rates_at(&self, h: u32) -> Vec<u64> {
        let mut row = Cow::Borrowed(&self.row0[..]);
        for c in self.changes_through(h).iter().filter(|c| !c.is_empty()) {
            c.apply(row.to_mut());
        }
        let mut memo = Vec::new();
        let rule = self.rule(self.cohort_scales(h), &mut memo);
        row.iter()
            .zip(&self.east)
            .map(|(&b, &east)| rule.rate(b, east))
            .collect()
    }

    /// The memoized [`RateRule`] for cohort scales `scales`, its memo
    /// filled into `memo`.
    fn rule<'a>(&'a self, scales: [f64; 2], memo: &'a mut Vec<u64>) -> RateRule<'a> {
        RateRule::memoized(&self.east, scales, self.max_base, memo)
    }

    /// The inputs that define this trace. Together they pin
    /// [`DynamicTrace::rates_at`] for every hour, so hashing them
    /// fingerprints the whole trace without deriving a single rate.
    pub fn inputs(&self) -> TraceInputs<'_> {
        TraceInputs {
            row0: &self.row0,
            changes: &self.changes,
            east: &self.east,
            model: self.model,
            offset: self.offset,
        }
    }

    /// A cursor whose consumer holds `rates_at(hour)`; see [`TraceCursor`].
    pub fn cursor(&self, hour: u32) -> TraceCursor<'_> {
        TraceCursor {
            trace: self,
            hour,
            row: None,
            row_hour: 0,
            memo: Vec::new(),
        }
    }

    /// The change lists of hours `1..=h` (hours past the last list keep
    /// the last row).
    fn changes_through(&self, h: u32) -> &[HourChanges] {
        &self.changes[..(h as usize).min(self.changes.len())]
    }

    /// Hour `h`'s change list as `(flows, bases)`; empty for hour 0 and
    /// for hours past the last list.
    fn changes_at(&self, h: u32) -> (&[u32], &[u64]) {
        match (h as usize)
            .checked_sub(1)
            .and_then(|k| self.changes.get(k))
        {
            Some(c) => (&c.flows, &c.bases),
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
    /// `(flow, new λ − old λ)` pairs with unchanged flows omitted.
    ///
    /// This is the epoch-update feed for
    /// `AttachAggregates::apply_rate_deltas`. By construction
    /// `rates_at(h - 1)` plus the deltas equals `rates_at(h)` exactly.
    /// It is a stateless replay (one rate vector at `h − 1`, then one
    /// cursor step); an engine that walks the day in order steps a
    /// [`TraceCursor`] instead.
    ///
    /// # Panics
    ///
    /// `h` must be at least 1 (hour 0 has no predecessor); use
    /// [`DynamicTrace::try_rate_deltas`] for untrusted hour indices.
    pub fn rate_deltas(&self, h: u32) -> Vec<(FlowId, i64)> {
        match self.try_rate_deltas(h) {
            Ok(d) => d,
            Err(e) => panic!("rate_deltas: {e}"),
        }
    }

    /// Fallible twin of [`DynamicTrace::rate_deltas`].
    ///
    /// # Errors
    ///
    /// [`TraceError::NoPrecedingHour`] when `h` is 0, and
    /// [`TraceError::DeltaOutOfRange`] for the lowest flow whose change
    /// does not fit an `i64`.
    pub fn try_rate_deltas(&self, h: u32) -> Result<Vec<(FlowId, i64)>, TraceError> {
        let prev = h.checked_sub(1).ok_or(TraceError::NoPrecedingHour)?;
        let mut rates = self.rates_at(prev);
        self.cursor(prev).step_deltas(&mut rates)
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
/// * a scale moved: the dense base row of hour `h`, from which every flow
///   is re-derived; the change list is not read.
///
/// The dense row starts as the trace's own hour-0 row, borrowed. Only a
/// scale-moved step brings it up to date: the cursor copies it on the
/// first base change such a step meets and replays the change lists
/// since the last such step into the copy. A trace that only rescales,
/// or only changes bases under a flat envelope, is never copied. The
/// cursor also owns the rate memo a dense step's [`RateRule`] reads,
/// refilled at each dense step.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a DynamicTrace,
    /// The hour whose rates the consumer holds.
    hour: u32,
    /// The base row at `row_hour`; `None` while it is still hour 0's row
    /// (no change list up to `row_hour` is non-empty).
    row: Option<Vec<u64>>,
    row_hour: u32,
    /// The memo of the last dense step's rate rule.
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
    /// new hour's whole base row. Either way the step carries the new
    /// hour's [`RateRule`], whose two cohort scales are evaluated once per
    /// step, not per flow; a dense step's rule reads a memo the cursor
    /// fills here.
    ///
    /// A consumer that holds `rates_at(h - 1)` and overwrites every flow
    /// of [`HourStep::iter`] holds `rates_at(h)` exactly. Every flow whose
    /// rate changed is yielded; so is a listed flow whose rounded rate did
    /// not move, and on a dense step every flow. At hour `u32::MAX` the
    /// cursor stays put and lists nothing.
    pub fn step(&mut self) -> HourStep<'_> {
        let t = self.trace;
        let Some(h) = self.hour.checked_add(1) else {
            return HourStep::Listed {
                flows: &[],
                bases: &[],
                rule: RateRule::plain(&t.east, [1.0; 2]),
            };
        };
        self.hour = h;
        let (prev, next) = (t.cohort_scales(h - 1), t.cohort_scales(h));
        if prev.map(f64::to_bits) == next.map(f64::to_bits) {
            let (flows, bases) = t.changes_at(h);
            return HourStep::Listed {
                flows,
                bases,
                rule: RateRule::plain(&t.east, next),
            };
        }
        self.catch_up(h);
        HourStep::Dense {
            row: self.row.as_deref().unwrap_or(&t.row0),
            rule: t.rule(next, &mut self.memo),
        }
    }

    /// Steps like [`TraceCursor::step`], writes each yielded rate into
    /// `rates` (which holds `rates_at(hour())` on entry and the next
    /// hour's on return) and returns `(flow, new λ − old λ)` for every
    /// flow whose rate changed, in flow-id order.
    ///
    /// # Errors
    ///
    /// [`TraceError::DeltaOutOfRange`] for the first flow whose change
    /// does not fit an `i64`; `rates` is then partly written.
    ///
    /// # Panics
    ///
    /// When `rates` is shorter than the trace's flow count.
    pub fn step_deltas(&mut self, rates: &mut [u64]) -> Result<Vec<(FlowId, i64)>, TraceError> {
        let hour = self.hour.saturating_add(1);
        let mut out = Vec::new();
        for (flow, new) in self.step() {
            let old = std::mem::replace(&mut rates[flow.index()], new);
            if old != new {
                let delta = i64::try_from(i128::from(new) - i128::from(old));
                out.push((
                    flow,
                    delta.map_err(|_| TraceError::DeltaOutOfRange {
                        hour,
                        flow: flow.index(),
                    })?,
                ));
            }
        }
        Ok(out)
    }

    /// Brings the dense row to hour `h` by replaying the change lists
    /// after `row_hour`, copying hour 0's row on the first non-empty one.
    fn catch_up(&mut self, h: u32) {
        let lists = self.trace.changes_through(h);
        let done = (self.row_hour as usize).min(lists.len());
        for c in lists[done..].iter().filter(|c| !c.is_empty()) {
            c.apply(self.row.get_or_insert_with(|| self.trace.row0.clone()));
        }
        self.row_hour = self.row_hour.max(h);
    }
}

/// One [`TraceCursor::step`] from hour `h − 1` to `h`.
#[derive(Debug, Clone, Copy)]
pub enum HourStep<'a> {
    /// No cohort scale moved, so only the listed flows can have moved:
    /// hour `h`'s changed flows, strictly increasing, and `bases[k]`, the
    /// new base rate of `flows[k]`.
    Listed {
        flows: &'a [u32],
        bases: &'a [u64],
        rule: RateRule<'a>,
    },
    /// A cohort scale moved: every flow `i` is re-derived from `row[i]`,
    /// its base rate at hour `h`.
    Dense { row: &'a [u64], rule: RateRule<'a> },
}

impl<'a> HourStep<'a> {
    /// `(flow, λ at hour h)` for every flow the step covers, in flow-id
    /// order: the listed flows, or every flow of a dense step.
    pub fn iter(&self) -> HourIter<'a> {
        HourIter {
            step: *self,
            next: 0,
        }
    }
}

impl<'a> IntoIterator for HourStep<'a> {
    type Item = (FlowId, u64);
    type IntoIter = HourIter<'a>;

    fn into_iter(self) -> HourIter<'a> {
        self.iter()
    }
}

/// The `(flow, λ at hour h)` pairs of one [`HourStep`], in flow-id order.
#[derive(Debug, Clone)]
pub struct HourIter<'a> {
    step: HourStep<'a>,
    /// The next list entry or row slot.
    next: usize,
}

impl Iterator for HourIter<'_> {
    type Item = (FlowId, u64);

    #[inline]
    fn next(&mut self) -> Option<(FlowId, u64)> {
        let k = self.next;
        let (flow, base, rule) = match self.step {
            HourStep::Listed { flows, bases, rule } => (*flows.get(k)?, *bases.get(k)?, rule),
            HourStep::Dense { row, rule } => (k as u32, *row.get(k)?, rule),
        };
        self.next += 1;
        Some((FlowId(flow), rule.rate(base, rule.east[flow as usize])))
    }
}

/// The rate rule of one trace hour: a flow's rate is its base rate
/// scaled by its cohort's envelope factor, rounded half away from zero,
/// `round(base · scale)` (Eq. 9).
///
/// A memoized rule holds that rounding for both cohorts and every base
/// from 0 to the trace's largest base, capped at
/// [`RateRule::MEMO_BASES`]` − 1` and at the flow count (so filling it
/// never costs more than rounding every flow twice); [`RateRule::rate`]
/// reads a covered base from the table and rounds any other. The table
/// is filled by the same rounding, so the two answers are the same bits.
/// A dense cursor step and [`DynamicTrace::rates_at`] memoize; a listed
/// step, which rounds only its listed flows, does not.
#[derive(Debug, Clone, Copy)]
pub struct RateRule<'a> {
    /// `east[i]`: flow `i` is in the east cohort.
    east: &'a [bool],
    /// The envelope scales, `[west, east]`.
    scales: [f64; 2],
    /// `memo[2b + e]`: the rate of base `b` in cohort `e` (1 = east), for
    /// every `b < memo.len() / 2`; empty when not memoized.
    memo: &'a [u64],
}

impl<'a> RateRule<'a> {
    /// Bases a memo covers at most: `2 · 2^14` rates, 256 KiB.
    pub const MEMO_BASES: usize = 1 << 14;

    /// A rule that rounds every rate.
    fn plain(east: &'a [bool], scales: [f64; 2]) -> Self {
        RateRule {
            east,
            scales,
            memo: &[],
        }
    }

    /// A rule whose memo, filled into `memo`, covers every base up to
    /// `max_base`, capped at `MEMO_BASES − 1` and at the flow count.
    fn memoized(east: &'a [bool], scales: [f64; 2], max_base: u64, memo: &'a mut Vec<u64>) -> Self {
        let cap = (Self::MEMO_BASES - 1).min(east.len()) as u64;
        let bases = max_base.min(cap) + 1;
        memo.clear();
        memo.extend((0..bases).flat_map(|b| scales.map(|s| scaled(b, s))));
        RateRule { east, scales, memo }
    }

    /// The cohort flags, one per flow.
    pub fn east(&self) -> &'a [bool] {
        self.east
    }

    /// The rate of base `base` in the east (`true`) or west cohort.
    #[inline]
    pub fn rate(&self, base: u64, east: bool) -> u64 {
        // The slot saturates past the memo for any base it does not cover.
        let slot = base.saturating_mul(2) | u64::from(east);
        match self.memo.get(usize::try_from(slot).unwrap_or(usize::MAX)) {
            Some(&r) => r,
            None => scaled(base, self.scale(east)),
        }
    }

    /// The cohort's scale, selected by a bit mask on the flag rather than
    /// by indexing `scales` with it.
    #[inline]
    fn scale(&self, east: bool) -> f64 {
        let [w, e] = self.scales.map(f64::to_bits);
        f64::from_bits(w ^ ((w ^ e) & u64::from(east).wrapping_neg()))
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

/// Read-only view of the inputs that define a [`DynamicTrace`]: hour 0's
/// base-rate row, each later hour's base-rate changes, the cohort flags,
/// the diurnal model, and the east cohort's offset. Every hour's rate
/// vector is a pure function of these.
#[derive(Debug, Clone, Copy)]
pub struct TraceInputs<'a> {
    /// `row0[i]`: flow `i`'s base rate at hour 0.
    pub row0: &'a [u64],
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
            let deltas = trace.rate_deltas(h);
            for &(f, d) in &deltas {
                assert_ne!(d, 0, "unchanged flows must be omitted");
                rates[f.index()] = (rates[f.index()] as i64 + d) as u64;
            }
            assert_eq!(rates, trace.rates_at(h), "hour {h}");
        }
        // The diurnal envelope moves; some hour must produce deltas.
        assert!((1..=12).any(|h| !trace.rate_deltas(h).is_empty()));
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
        assert_eq!(t.try_rate_deltas(1), Err(refused.clone()));
        let mut rates = t.rates_at(0);
        assert_eq!(t.cursor(0).step_deltas(&mut rates), Err(refused));
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
        let walked: Vec<Vec<(FlowId, u64)>> = (0..6).map(|_| c.step().iter().collect()).collect();
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

    /// The memo answers exactly what rounding answers, on both cohorts,
    /// at the edges of the memo and of exact `f64` integers, whatever the
    /// trace's largest base.
    #[test]
    fn the_memoized_rule_equals_the_rounding() {
        let tau_min = DiurnalModel::default().tau_min;
        let mid = 0.2 + 0.8 * 5.0 / 12.0;
        let cap = RateRule::MEMO_BASES as u64;
        // Flags for 2^15 flows; the memo never covers more bases than
        // there are flows, so a trace of 700 covers at most 701.
        let long: Vec<bool> = (0..2 * cap).map(|i| i % 2 == 1).collect();
        for (flows, max_base) in [
            (2 * cap, 0),
            (2 * cap, 1249),
            (2 * cap, cap - 2),
            (2 * cap, cap - 1),
            (2 * cap, cap),
            (2 * cap, 1 << 53),
            (2 * cap, u64::MAX),
            (700, 1249),
            (700, 699),
        ] {
            let east = &long[..flows as usize];
            for scales in [[tau_min, 1.0], [1.0, mid], [mid, tau_min]] {
                let mut memo = Vec::new();
                let rule = RateRule::memoized(east, scales, max_base, &mut memo);
                let len = rule.memo.len() as u64 / 2;
                assert_eq!(len, max_base.min(cap - 1).min(flows) + 1);
                let plain = RateRule::plain(east, scales);
                for base in [
                    0,
                    len - 1,
                    len,
                    cap - 1,
                    cap,
                    (1 << 53) - 1,
                    (1 << 53) + 1,
                    u64::MAX,
                ] {
                    for (c, e) in [false, true].into_iter().enumerate() {
                        let want = scaled(base, scales[c]);
                        assert_eq!(rule.rate(base, e), want, "base {base} cohort {c}");
                        assert_eq!(plain.rate(base, e), want, "base {base} cohort {c}");
                    }
                }
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

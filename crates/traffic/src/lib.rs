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
        }
    }
}

impl std::error::Error for TraceError {}

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
#[derive(Debug, Clone)]
pub struct DynamicTrace {
    /// `base[h][i]`: flow `i`'s base rate at hour `h`.
    base: Vec<Vec<u64>>,
    east: Vec<bool>,
    model: DiurnalModel,
    /// Hours the east cohort runs ahead (default [`EAST_COAST_OFFSET`]).
    offset: i64,
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
        let mut base = Vec::with_capacity(model.n_hours as usize + 1);
        let mut prev = w.rates().to_vec();
        for _ in 1..=model.n_hours {
            let next: Vec<u64> = prev
                .iter()
                .map(|&r| {
                    if churn > 0.0 && rng.gen_bool(churn.clamp(0.0, 1.0)) {
                        sample_rate(mix, rng)
                    } else {
                        r
                    }
                })
                .collect();
            base.push(std::mem::replace(&mut prev, next));
        }
        base.push(prev);
        Ok(DynamicTrace {
            base,
            east,
            model,
            offset: EAST_COAST_OFFSET,
        })
    }

    /// Builds a trace from externally supplied hourly base-rate rows (e.g. a
    /// parsed measurement file): `rows[h][i]` is flow `i`'s base rate at
    /// hour `h`, signed so malformed input is caught rather than wrapped.
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
        let mut base = Vec::with_capacity(expected_rows);
        for (hour, row) in rows.iter().enumerate() {
            if row.len() != w.num_flows() {
                return Err(TraceError::RowLengthMismatch {
                    hour,
                    expected: w.num_flows(),
                    got: row.len(),
                });
            }
            let mut checked = Vec::with_capacity(row.len());
            for (flow, &rate) in row.iter().enumerate() {
                match u64::try_from(rate) {
                    Ok(r) => checked.push(r),
                    Err(_) => return Err(TraceError::NegativeRate { hour, flow, rate }),
                }
            }
            base.push(checked);
        }
        Ok(DynamicTrace {
            base,
            east,
            model,
            offset: EAST_COAST_OFFSET,
        })
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

    /// The base (pre-envelope) rate of flow `i` at hour `h`.
    pub fn base_rate_at(&self, h: u32, i: usize) -> u64 {
        self.base[(h as usize).min(self.base.len() - 1)][i]
    }

    /// The rate vector at hour `h` (0 = 6 AM in the paper's framing):
    /// east-cohort flows are evaluated 3 hours later on the curve (their
    /// day started earlier), west-cohort flows at `h` directly.
    pub fn rates_at(&self, h: u32) -> Vec<u64> {
        let scales = self.cohort_scales(h);
        self.row(h)
            .iter()
            .zip(&self.east)
            .map(|(&b, &east)| scaled(b, scales[usize::from(east)]))
            .collect()
    }

    /// The inputs that define this trace. Together they pin
    /// [`DynamicTrace::rates_at`] for every hour, so hashing them
    /// fingerprints the whole trace without deriving a single rate.
    pub fn inputs(&self) -> TraceInputs<'_> {
        TraceInputs {
            base: &self.base,
            east: &self.east,
            model: self.model,
            offset: self.offset,
        }
    }

    /// The base-rate row in force at hour `h` (hours past the last row
    /// keep it).
    fn row(&self, h: u32) -> &[u64] {
        &self.base[(h as usize).min(self.base.len() - 1)]
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
    /// `AttachAggregates::apply_rate_deltas`: the simulator's hourly loop
    /// folds these deltas into its aggregates instead of rebuilding them.
    /// By construction `rates_at(h - 1)` plus the deltas equals
    /// `rates_at(h)` exactly.
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
    /// [`TraceError::NoPrecedingHour`] when `h` is 0.
    pub fn try_rate_deltas(&self, h: u32) -> Result<Vec<(FlowId, i64)>, TraceError> {
        if h < 1 {
            return Err(TraceError::NoPrecedingHour);
        }
        // A flow's rate is `round(base · scale)` of its row entry and its
        // cohort's scale, so a flow whose base entry and cohort scale both
        // stayed put cannot have moved: only the others are evaluated.
        let (prev_row, next_row) = (self.row(h - 1), self.row(h));
        let (prev, next) = (self.cohort_scales(h - 1), self.cohort_scales(h));
        let moved = [0, 1].map(|c| prev[c].to_bits() != next[c].to_bits());
        let mut out = Vec::with_capacity(if moved.contains(&true) {
            self.east.len()
        } else {
            0
        });
        for (i, ((&a, &b), &east)) in prev_row.iter().zip(next_row).zip(&self.east).enumerate() {
            let c = usize::from(east);
            if a == b && !moved[c] {
                continue;
            }
            let (old, new) = (scaled(a, prev[c]), scaled(b, next[c]));
            if old != new {
                out.push((FlowId(i as u32), new as i64 - old as i64));
            }
        }
        Ok(out)
    }
}

/// A flow's rate: its base rate scaled by its cohort's envelope factor.
fn scaled(base: u64, scale: f64) -> u64 {
    (base as f64 * scale).round() as u64
}

/// Read-only view of the inputs that define a [`DynamicTrace`]: the hourly
/// base-rate rows, the cohort flags, the diurnal model, and the east
/// cohort's offset. Every hour's rate vector is a pure function of these.
#[derive(Debug, Clone, Copy)]
pub struct TraceInputs<'a> {
    /// `base[h][i]`: flow `i`'s base rate at hour `h` (`n_hours + 1` rows).
    pub base: &'a [Vec<u64>],
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
    use ppdc_topology::FatTree;

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

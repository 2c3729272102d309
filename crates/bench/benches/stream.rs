//! Streaming-ingestion benchmarks: million-flow stores on the k = 32
//! fabric (1280 switches, 8192 hosts) driven by rate-delta batches.
//!
//! One measured unit is a full aggregate update: net, validate and commit
//! the batch in [`ShardedFlowStore::ingest`] (flat flow-id-order arrays,
//! one pass each), then fold the per-host masses into
//! [`AttachAggregates::try_apply_mass_deltas`]. The fold first reduces
//! host deltas onto their anchors — each fat-tree host's ToR — so its cost
//! is `O(|touched ToRs| · |switches|)` over stored anchor rows: 16× fewer
//! rows than per host at k = 32, and independent of the store's flow
//! count. The cases
//! sweep churn *locality* against a fixed 1M-flow store:
//!
//! * `hot_racks_8` — both endpoints inside 8 hot racks (≤ 128 hosts), the
//!   paper's active-rack churn pattern and the sub-10 ms target case,
//! * `hot_pods_2` — endpoints inside two pods (≤ 512 hosts),
//! * `full_fabric` — every flow moves (all 8192 hosts), the worst case a
//!   diurnal epoch can produce; here the store's per-flow passes dominate.
//!
//! Batches alternate with their exact negation each iteration, so the
//! store and aggregates return to the initial state every two samples and
//! no pristine clone of the million-flow store is paid inside the timer.
//!
//! The same group times the per-flow plumbing around an epoch on that
//! 1M-flow store, one layer call per case:
//!
//! * `fingerprint_1m` — [`stream_fingerprint`] of the day's inputs (what
//!   every checkpointed or resumed stream day pays once),
//! * `store_build_1m` — [`ShardedFlowStore::build`], a copy of the
//!   workload's endpoints and rates (a flat store, as the layer-by-layer
//!   benchmark replay builds it),
//! * `setup_1m` — the engine's day set-up and resume at hour 0:
//!   [`ShardedFlowStore::from_trace`] keys the store straight from the
//!   trace, and [`AttachAggregates::from_host_masses`] builds the
//!   aggregates from its host masses,
//! * `rate_deltas_1m` — [`DynamicTrace::try_rate_deltas`], cycling through
//!   the day's 12 epochs of a diurnal trace with 25 % hourly churn,
//! * `trace_feed_1m` — [`ShardedFlowStore::advance`] over the same trace
//!   and store, stepping one
//!   [`TraceCursor`](ppdc_traffic::TraceCursor) through the same epochs: the
//!   engine's whole trace-driven store step, which replaces
//!   `rate_deltas_1m` plus the store half of `full_fabric`. When the day
//!   wraps, the store is reset to a keyed copy of hour 0 built before the
//!   timer ([`Clone::clone_from`], three 4-byte columns) and the cursor to
//!   hour 0, in `iter_batched`'s untimed setup. A reset by
//!   [`ShardedFlowStore::set_rates`] would leave the store flat, so the
//!   next step would also time a re-key.
//! * `trace_feed_one_cohort_1m` — the same step over hours 9 → 12 of a
//!   churn-free diurnal day with random cohorts (the `diurnal-fabric`
//!   shape), where the east cohort rests at its floor and only the west
//!   scale moves: every class is re-priced, but only about half of the
//!   flows change. The store and cursor return to hour 9 every third
//!   sample, by the same untimed copy of a keyed store.
//! * `trace_feed_hot_racks_1m` — the same step on a flat-envelope day in
//!   which odd hours halve the rates of 8 further racks' flows and even
//!   hours repeat: one iteration is a hot hour and the repeat hour after
//!   it. A repeat hour walks an empty change list, so the iteration costs
//!   the hot hour's re-keys. Resets copy a keyed store too, untimed.
//!
//! The `stream_resolve` group measures the *solver* half of an epoch: the
//! warm-started re-solve ([`dp_placement_warm`] with a persistent
//! [`BoundCache`] and the previous optimum as incumbent) against the cold
//! [`dp_placement`] the engine would otherwise pay, over the same
//! three churn localities. Aggregates are prebuilt outside the timer and
//! alternate base ↔ churned between iterations, so the measured unit is
//! exactly the post-ingest re-solve latency. The same group prices the
//! staleness certificate both ways: `certify_scan` is the `O(m²)` oracle
//! scan [`placement_cost_lower_bound`], and each `certify_cached_<case>`
//! is [`BoundCache::lower_bound`] — the refresh the engine runs each
//! checked epoch — over the same alternating aggregates.
//!
//! `PPDC_BENCH_ONLY=stream_ingest` (comma-separated group names) restricts
//! the run — the vendored criterion stand-in has no CLI filter.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use ppdc_model::{Sfc, Workload};
use ppdc_placement::{
    dp_placement, dp_placement_warm, placement_cost_lower_bound, AttachAggregates, BoundCache,
    HostMassDelta,
};
use ppdc_sim::{stream_fingerprint, RateDelta, ShardedFlowStore, StreamConfig};
use ppdc_topology::{FatTree, FatTreeOracle, NodeId};
use ppdc_traffic::{
    rng_for_run, DiurnalModel, DynamicTrace, TraceCursor, DEFAULT_MIX, STANDARD_CHURN,
};
use std::cell::RefCell;
use std::time::Duration;

const FLOWS: usize = 1_000_000;

/// A store and the cursor feeding it, shared by a feed bench's untimed
/// setup and its timed step.
type Live<'t> = RefCell<(ShardedFlowStore, TraceCursor<'t>)>;

/// `iter_batched` setup: once the cursor has reached hour `end`, copies
/// `start` back into the store and rewinds the cursor.
fn rewind_at<'t>(
    live: &Live<'t>,
    end: u32,
    start: &ShardedFlowStore,
    rewind: impl Fn() -> TraceCursor<'t>,
) {
    let (store, cursor) = &mut *live.borrow_mut();
    if cursor.hour() == end {
        store.clone_from(start);
        *cursor = rewind();
    }
}

/// One feed step of the live store.
fn step(live: &Live<'_>) -> u64 {
    let (store, cursor) = &mut *live.borrow_mut();
    store.advance(cursor).unwrap().applied
}

fn enabled(group: &str) -> bool {
    match std::env::var("PPDC_BENCH_ONLY") {
        Ok(only) => only.split(',').any(|g| g.trim() == group),
        Err(_) => true,
    }
}

/// The deterministic million-flow workload the `stream` smoke uses: pairs
/// strided over every host so every ToR carries traffic.
fn million_flow_workload(ft: &FatTree) -> Workload {
    let hosts: Vec<NodeId> = ft.graph().hosts().collect();
    let mut w = Workload::new();
    for i in 0..FLOWS {
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    w
}

/// Deltas for every flow whose endpoints' top-of-rack switches both lie in
/// `tors` (all flows when `tors` is `None`). Positive, so the negated
/// batch can never underflow a rate.
fn batch_for(ft: &FatTree, w: &Workload, tors: Option<&[NodeId]>) -> Vec<RateDelta> {
    let g = ft.graph();
    let mut out = Vec::new();
    for (f, src, dst, _) in w.iter() {
        let hot = match tors {
            None => true,
            Some(t) => {
                let ks = g.top_of_rack(src).expect("fat-tree host has a ToR");
                let kd = g.top_of_rack(dst).expect("fat-tree host has a ToR");
                t.contains(&ks) && t.contains(&kd)
            }
        };
        if hot {
            out.push(RateDelta {
                flow: f,
                delta: (f.index() as i64 % 7) + 1,
            });
        }
    }
    out
}

fn negated(batch: &[RateDelta]) -> Vec<RateDelta> {
    batch
        .iter()
        .map(|d| RateDelta {
            flow: d.flow,
            delta: -d.delta,
        })
        .collect()
}

/// Distinct top-of-rack switches in host order: the first 8 are the
/// "hot racks", the first two pods' worth are the "hot pods".
fn tors_in_host_order(ft: &FatTree) -> Vec<NodeId> {
    let g = ft.graph();
    let mut tors: Vec<NodeId> = Vec::new();
    for h in g.hosts() {
        let t = g.top_of_rack(h).expect("fat-tree host has a ToR");
        if !tors.contains(&t) {
            tors.push(t);
        }
    }
    tors
}

/// The three churn-locality cases both groups sweep.
fn churn_cases(ft: &FatTree, w: &Workload) -> Vec<(&'static str, Vec<RateDelta>)> {
    let tors = tors_in_host_order(ft);
    let racks_per_pod = tors.len() / 32;
    vec![
        ("hot_racks_8", batch_for(ft, w, Some(&tors[..8]))),
        (
            "hot_pods_2",
            batch_for(ft, w, Some(&tors[..2 * racks_per_pod])),
        ),
        ("full_fabric", batch_for(ft, w, None)),
    ]
}

fn bench_stream_ingest(c: &mut Criterion) {
    if !enabled("stream_ingest") {
        return;
    }
    let mut group = c.benchmark_group("stream_ingest");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(5));
    let ft = FatTree::build(32).unwrap();
    let g = ft.graph();
    let oracle = FatTreeOracle::new(&ft);
    let w = million_flow_workload(&ft);
    let cases = churn_cases(&ft, &w);
    for (name, batch) in &cases {
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut agg = AttachAggregates::build(g, &oracle, &w);
        let neg = negated(batch);
        let mut flip = false;
        group.bench_with_input(BenchmarkId::new(*name, FLOWS), batch, |b, batch| {
            b.iter(|| {
                let deltas: &[RateDelta] = if flip { &neg } else { batch };
                flip = !flip;
                let r = store.ingest(deltas).unwrap();
                agg.try_apply_mass_deltas(&oracle, &r.masses, r.total_delta)
                    .unwrap();
                r.applied
            })
        });
    }
    let trace = DynamicTrace::with_churn(
        &w,
        DiurnalModel::default(),
        &DEFAULT_MIX,
        STANDARD_CHURN,
        &mut rng_for_run(0x5EED, 0),
    );
    let sfc = Sfc::of_len(4).unwrap();
    let cfg = StreamConfig::default();
    group.bench_function("fingerprint_1m", |b| {
        b.iter(|| stream_fingerprint(g, &w, &trace, &sfc, &cfg))
    });
    group.bench_function("store_build_1m", |b| {
        b.iter(|| ShardedFlowStore::build(g, &w).unwrap())
    });
    group.bench_function("setup_1m", |b| {
        b.iter(|| {
            let store = ShardedFlowStore::from_trace(g, &w, &trace, 0).unwrap();
            let (masses, total_rate) = store.host_masses();
            AttachAggregates::from_host_masses(g, &oracle, &masses, total_rate)
        })
    });
    let n_hours = trace.model().n_hours;
    let mut hour = 0;
    group.bench_function("rate_deltas_1m", |b| {
        b.iter(|| {
            hour = hour % n_hours + 1;
            trace.try_rate_deltas(hour).unwrap()
        })
    });
    let day_start = ShardedFlowStore::from_trace(g, &w, &trace, 0).unwrap();
    let live: Live<'_> = RefCell::new((day_start.clone(), trace.cursor(0)));
    group.bench_function("trace_feed_1m", |b| {
        b.iter_batched(
            || rewind_at(&live, n_hours, &day_start, || trace.cursor(0)),
            |()| step(&live),
            BatchSize::PerIteration,
        )
    });
    let quiet_east = DynamicTrace::new(&w, DiurnalModel::default(), &mut rng_for_run(0x5EED, 1));
    let (from, to) = (9, 12);
    assert!(
        (from + 1..=to).all(|h| {
            let east = |h: u32| {
                quiet_east
                    .model()
                    .scale_at(i64::from(h) + quiet_east.offset())
            };
            east(h) == east(h - 1)
        }),
        "the east scale must rest over the one-cohort hours"
    );
    let one_cohort_start = ShardedFlowStore::from_trace(g, &w, &quiet_east, from).unwrap();
    let live: Live<'_> = RefCell::new((one_cohort_start.clone(), quiet_east.cursor(from)));
    group.bench_function("trace_feed_one_cohort_1m", |b| {
        b.iter_batched(
            || rewind_at(&live, to, &one_cohort_start, || quiet_east.cursor(from)),
            |()| step(&live),
            BatchSize::PerIteration,
        )
    });
    let hot = hot_rack_trace(&ft, &w);
    let day_start = ShardedFlowStore::from_trace(g, &w, &hot, 0).unwrap();
    let n_hours = hot.model().n_hours;
    let live: Live<'_> = RefCell::new((day_start.clone(), hot.cursor(0)));
    group.bench_function("trace_feed_hot_racks_1m", |b| {
        b.iter_batched(
            || rewind_at(&live, n_hours, &day_start, || hot.cursor(0)),
            |()| step(&live) + step(&live),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// A flat-envelope day over `w` in which each odd hour halves the rates
/// of the flows sourced in 8 further racks and each even hour repeats the
/// hour before it.
fn hot_rack_trace(ft: &FatTree, w: &Workload) -> DynamicTrace {
    let g = ft.graph();
    let tors = tors_in_host_order(ft);
    let model = DiurnalModel {
        n_hours: 12,
        tau_min: 1.0,
    };
    let mut rows: Vec<Vec<i64>> = vec![w.rates().iter().map(|&r| r as i64).collect()];
    for h in 1..=model.n_hours as usize {
        let mut row = rows[h - 1].clone();
        if h % 2 == 1 {
            let racks = &tors[(h / 2 * 8) % tors.len()..][..8];
            for (f, src, _, _) in w.iter() {
                let tor = g.top_of_rack(src).expect("fat-tree host has a ToR");
                if racks.contains(&tor) {
                    row[f.index()] = (row[f.index()] / 2).max(1);
                }
            }
        }
        rows.push(row);
    }
    DynamicTrace::from_rows(w, model, vec![false; w.num_flows()], &rows).unwrap()
}

/// Warm vs cold epoch re-solve latency on the k = 32 fabric.
///
/// `cold` is one full Algorithm 3 sweep over prebuilt aggregates — what
/// every epoch paid before the warm-start layer. Each `warm_<case>` id
/// alternates between a base and a churned aggregate twin (both prebuilt,
/// the churn folded once outside the timer), reports the movement through
/// [`BoundCache::note_mass_deltas`], and re-solves seeded with the
/// previous optimum — exactly the streaming engine's per-epoch solver
/// path, with the ingest fold excluded so the two sides are comparable.
/// `certify_scan` and `certify_cached_<case>` time the certificate's
/// bound on the same inputs; each cached case first checks that its bound
/// equals the scan's.
fn bench_stream_resolve(c: &mut Criterion) {
    if !enabled("stream_resolve") {
        return;
    }
    let ft = FatTree::build(32).unwrap();
    let g = ft.graph();
    let oracle = FatTreeOracle::new(&ft);
    let w = million_flow_workload(&ft);
    let sfc = Sfc::of_len(4).unwrap();
    let cases = churn_cases(&ft, &w);
    let mut group = c.benchmark_group("stream_resolve");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(1));
    group.measurement_time(Duration::from_secs(2));

    let base = AttachAggregates::build(g, &oracle, &w);
    group.bench_with_input(BenchmarkId::new("cold", FLOWS), &(), |b, ()| {
        b.iter(|| dp_placement(&oracle, &w, &sfc, &base).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("certify_scan", FLOWS), &(), |b, ()| {
        b.iter(|| placement_cost_lower_bound(&oracle, &base, sfc.len()))
    });

    let touch = [HostMassDelta {
        host: g.hosts().next().expect("fat-tree has hosts"),
        d_in: 0,
        d_out: 0,
    }];
    for (name, batch) in &cases {
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut churned = AttachAggregates::build(g, &oracle, &w);
        let r = store.ingest(batch).unwrap();
        churned
            .try_apply_mass_deltas(&oracle, &r.masses, r.total_delta)
            .unwrap();
        let mut cache = BoundCache::new();
        assert_eq!(
            cache.lower_bound(&oracle, &churned, sfc.len()),
            placement_cost_lower_bound(&oracle, &churned, sfc.len()),
            "{name}: the cached bound left the scan"
        );
        let mut flip = false;
        group.bench_with_input(
            BenchmarkId::new(format!("certify_cached_{name}"), FLOWS),
            &(),
            |b, ()| {
                b.iter(|| {
                    let agg = if flip { &churned } else { &base };
                    flip = !flip;
                    cache.note_mass_deltas(&touch);
                    cache.lower_bound(&oracle, agg, sfc.len())
                })
            },
        );
        let mut cache = BoundCache::new();
        let (mut prev, _) =
            dp_placement_warm(g, &oracle, &w, &sfc, &base, &mut cache, None).unwrap();
        let mut flip = false;
        group.bench_with_input(
            BenchmarkId::new(format!("warm_{name}"), FLOWS),
            &(),
            |b, ()| {
                b.iter(|| {
                    let agg = if flip { &base } else { &churned };
                    flip = !flip;
                    cache.note_mass_deltas(&touch);
                    let (p, cost) =
                        dp_placement_warm(g, &oracle, &w, &sfc, agg, &mut cache, Some(&prev))
                            .unwrap();
                    prev = p;
                    cost
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_stream_ingest, bench_stream_resolve);
criterion_main!(benches);

//! `ppdc-experiments` — regenerates every figure of the paper.
//!
//! ```text
//! cargo run --release -p ppdc-experiments            # full scale
//! cargo run --release -p ppdc-experiments -- --quick # smoke test
//! cargo run --release -p ppdc-experiments -- fig7    # one figure
//!
//! # run with per-phase metrics, then schema-check the summary:
//! cargo run --release -p ppdc-experiments -- --quick failsweep --metrics m.json
//! cargo run --release -p ppdc-experiments -- --check-metrics m.json
//!
//! # seeded chaos trials (kill/resume, torn checkpoints, starvation, …):
//! cargo run --release -p ppdc-experiments -- chaos --trials 64 --seed 1
//!
//! # fold one bench run's PPDC_BENCH_JSON lines into the trajectory file:
//! cargo run --release -p ppdc-experiments -- \
//!     --append-bench BENCH_placement.json --bench-samples samples.jsonl \
//!     --label "prune-and-reuse solver core" --date 2026-08-06
//! ```
//!
//! Every failure path exits through a typed [`CliError`]: usage errors
//! exit 2, failed runs exit 1, and the message always names the flag,
//! path, or seed involved.

// The binary reports wall-clock run times; the seeded library code it
// drives stays under the crate's `clippy.toml` ban on wall clocks.
#![allow(
    clippy::disallowed_methods,
    reason = "the experiments binary times whole runs with Instant::now"
)]

use ppdc_experiments::*;

fn main() {
    if let Err(e) = real_main() {
        eprintln!("# error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn real_main() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut metrics_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut append_bench: Option<String> = None;
    let mut bench_samples: Option<String> = None;
    let mut label: Option<String> = None;
    let mut date: Option<String> = None;
    let mut note: Option<String> = None;
    let mut budget_ms: Option<String> = None;
    let mut trials: Option<String> = None;
    let mut seed: Option<String> = None;
    let mut flows: Option<String> = None;
    let mut warm_ms: Option<String> = None;
    let mut churned = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {}
            "--churned" => churned = true,
            flag @ ("--metrics" | "--check-metrics" | "--append-bench" | "--bench-samples"
            | "--label" | "--date" | "--note" | "--budget-ms" | "--trials" | "--seed"
            | "--flows" | "--warm-ms") => {
                i += 1;
                let Some(value) = args.get(i).cloned() else {
                    // The match arm binds `flag` to a 'static literal; keep
                    // the error's flag name static too.
                    return Err(CliError::MissingValue {
                        flag: match flag {
                            "--metrics" => "--metrics",
                            "--check-metrics" => "--check-metrics",
                            "--append-bench" => "--append-bench",
                            "--bench-samples" => "--bench-samples",
                            "--label" => "--label",
                            "--date" => "--date",
                            "--note" => "--note",
                            "--budget-ms" => "--budget-ms",
                            "--trials" => "--trials",
                            "--seed" => "--seed",
                            "--warm-ms" => "--warm-ms",
                            _ => "--flows",
                        },
                    });
                };
                match flag {
                    "--metrics" => metrics_path = Some(value),
                    "--check-metrics" => check_path = Some(value),
                    "--append-bench" => append_bench = Some(value),
                    "--bench-samples" => bench_samples = Some(value),
                    "--label" => label = Some(value),
                    "--date" => date = Some(value),
                    "--budget-ms" => budget_ms = Some(value),
                    "--trials" => trials = Some(value),
                    "--seed" => seed = Some(value),
                    "--flows" => flows = Some(value),
                    "--warm-ms" => warm_ms = Some(value),
                    _ => note = Some(value),
                }
            }
            name => which.push(name.to_string()),
        }
        i += 1;
    }

    // Trajectory mode: fold one bench run into BENCH_placement.json and
    // exit. Runs no figures.
    if let Some(doc_path) = append_bench {
        let samples_path = bench_samples.ok_or(CliError::MissingValue {
            flag: "--bench-samples",
        })?;
        let doc = read_file(&doc_path)?;
        let samples = read_file(&samples_path)?;
        let env = BenchEnvironment {
            cpu_cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            rayon_threads: rayon::current_num_threads() as u64,
            note: note.unwrap_or_else(|| {
                "Timings from the offline stopwatch criterion stand-in (vendor/criterion), \
                 min/median/mean ns per iteration."
                    .to_string()
            }),
        };
        let updated = append_bench_trajectory(
            &doc,
            &samples,
            label.as_deref().unwrap_or("unlabelled"),
            date.as_deref().unwrap_or("unknown"),
            &env,
        )
        .map_err(|e| CliError::Bench(e.to_string()))?;
        write_file(&doc_path, &updated)?;
        eprintln!("# bench trajectory appended to {doc_path}");
        return Ok(());
    }

    // k=32 smoke: prove the analytic oracle path solves a 1,280-switch /
    // 8,192-host fat-tree inside a wall-clock budget, with ZERO dense V²
    // matrix build (this mode never constructs a DistanceMatrix). The
    // ci.sh gate runs it with a tight `--budget-ms`; breach exits nonzero.
    if which.iter().any(|w| w == "smoke-k32") {
        let budget = match budget_ms.as_deref() {
            Some(v) => parse_u64("--budget-ms", v)?,
            None => 10_000,
        };
        return smoke_k32(budget);
    }

    // Streaming smoke: drive the million-flow epoch engine (flat flow
    // store, ToR-collapsed aggregate fold) through a full diurnal day on
    // the k=32 analytic-oracle fabric, assert its
    // counter pair, and enforce a wall-clock budget. The ci.sh gate runs
    // this with ≥1M flows.
    if which.iter().any(|w| w == "stream") {
        let budget = match budget_ms.as_deref() {
            Some(v) => parse_u64("--budget-ms", v)?,
            None => 120_000,
        };
        let n_flows = match flows.as_deref() {
            Some(v) => parse_u64("--flows", v)?,
            None => 1_000_000,
        };
        if churned {
            let warm = match warm_ms.as_deref() {
                Some(v) => parse_u64("--warm-ms", v)?,
                None => 1_000,
            };
            return stream_churn_smoke(n_flows as usize, budget, warm);
        }
        return stream_smoke(n_flows as usize, budget);
    }

    // Chaos mode: N seeded trials of the crash-safe engine under
    // correlated fabric failures and operator-side injections. The first
    // violated contract aborts the sweep with its seed; exit 1.
    if which.iter().any(|w| w == "chaos") {
        let n = match trials.as_deref() {
            Some(v) => parse_u64("--trials", v)?,
            None => 64,
        };
        let base = match seed.as_deref() {
            Some(v) => parse_u64("--seed", v)?,
            None => 1,
        };
        eprintln!("# chaos: {n} seeded trials from seed {base} …");
        let t0 = std::time::Instant::now();
        let s = chaos_suite(n, base).map_err(|(seed, err)| CliError::Chaos { seed, err })?;
        eprintln!(
            "# chaos: {} trials passed in {:.1}s — {} resumes ({} after torn checkpoints), \
             {} fault events, {} blackout hours, {} degraded hours, {} retry hours",
            s.trials,
            t0.elapsed().as_secs_f64(),
            s.resumed,
            s.torn_recoveries,
            s.fail_events,
            s.blackout_hours,
            s.degraded_hours,
            s.retry_hours,
        );
        return Ok(());
    }

    // Validation mode: parse an emitted summary and verify the epoch-phase
    // schema (the ci.sh gate). Runs no figures.
    if let Some(path) = check_path {
        let src = read_file(&path)?;
        return match validate_metrics_json(&src) {
            Ok(()) => {
                eprintln!("# metrics ok: {path}");
                Ok(())
            }
            Err(msg) => Err(CliError::Metrics { path, msg }),
        };
    }

    if metrics_path.is_some() {
        let obs = ppdc_obs::global();
        obs.enable();
        // Pre-declare the epoch vocabulary so the exported summary has a
        // stable key set no matter which figures actually run.
        obs.declare(
            ppdc_obs::names::SPANS,
            ppdc_obs::names::COUNTERS,
            ppdc_obs::names::HISTS,
        );
    }

    let scale = Scale::from_args();
    let all = which.is_empty();
    let wants = |name: &str| all || which.iter().any(|w| w == name);
    eprintln!(
        "# PPDC experiment suite ({} scale)",
        if scale.quick { "quick" } else { "full" }
    );
    let t0 = std::time::Instant::now();
    if wants("fig6b") {
        run("fig6b", || fig6b(&scale).to_markdown());
    }
    if wants("fig7") {
        run("fig7", || fig7(&scale).to_markdown());
    }
    if wants("fig8") {
        run("fig8", || fig8().to_markdown());
    }
    if wants("fig9a") {
        run("fig9a", || fig9a(&scale).to_markdown());
    }
    if wants("fig9b") {
        run("fig9b", || fig9b(&scale).to_markdown());
    }
    if wants("fig10") {
        run("fig10", || fig10(&scale).to_markdown());
    }
    if wants("fig11ab") || wants("fig11") {
        run("fig11ab", || {
            let (a, b) = fig11a_b(&scale);
            format!("{}\n{}", a.to_markdown(), b.to_markdown())
        });
    }
    if wants("fig11c") || wants("fig11") {
        run("fig11c", || fig11c(&scale).to_markdown());
    }
    if wants("fig11d") || wants("fig11") {
        run("fig11d", || fig11d(&scale).to_markdown());
    }
    if wants("ext_replication") || wants("ext") {
        run("ext_replication", || ext_replication(&scale).to_markdown());
    }
    if wants("failsweep") {
        run("failsweep", || failure_sweep(&scale).to_markdown());
    }
    eprintln!("# done in {:.1}s", t0.elapsed().as_secs_f64());

    if let Some(path) = metrics_path {
        let json = ppdc_obs::global().snapshot().to_json();
        write_file(&path, &json)?;
        eprintln!("# metrics written to {path}");
    }
    Ok(())
}

/// Builds the k=32 fat-tree, attaches the closed-form oracle, and runs one
/// full Algorithm 3 solve (aggregates + closure + orbit-compressed B&B)
/// against a deterministic cross-pod workload. Returns a typed error when
/// the end-to-end wall time breaches `budget_ms` or a solve fails.
fn smoke_k32(budget_ms: u64) -> Result<(), CliError> {
    use ppdc_model::{Sfc, Workload};
    use ppdc_placement::{dp_placement, AttachAggregates};
    use ppdc_topology::{FatTree, FatTreeOracle};

    let obs = ppdc_obs::global();
    obs.enable();
    obs.declare(
        ppdc_obs::names::SPANS,
        ppdc_obs::names::COUNTERS,
        ppdc_obs::names::HISTS,
    );
    let t0 = std::time::Instant::now();
    let ft = FatTree::build(32).map_err(|e| CliError::Smoke(format!("k=32 fat-tree: {e}")))?;
    let oracle = FatTreeOracle::new(&ft);
    let g = ft.graph();
    eprintln!(
        "# smoke-k32: {} switches / {} hosts, oracle built in {:.1}ms (no V² matrix)",
        oracle.num_switches(),
        oracle.num_hosts(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let hosts: Vec<ppdc_topology::NodeId> = g.hosts().collect();
    let mut w = Workload::new();
    for i in 0..64usize {
        // Deterministic cross-pod pairs with spread rates.
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    let sfc = Sfc::of_len(4).map_err(|e| CliError::Smoke(format!("sfc: {e}")))?;
    let t1 = std::time::Instant::now();
    let agg = AttachAggregates::build(g, &oracle, &w);
    let (p, cost) = dp_placement(&oracle, &w, &sfc, &agg)
        .map_err(|e| CliError::Smoke(format!("k=32 placement: {e}")))?;
    let solve_ms = t1.elapsed().as_secs_f64() * 1e3;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "# smoke-k32: solved n={} at cost {} (first switch {:?}) in {solve_ms:.1}ms, \
         {total_ms:.1}ms end to end (budget {budget_ms}ms)",
        sfc.len(),
        cost,
        p.switch(0),
    );
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    eprintln!(
        "# smoke-k32: oracle.queries={} solver.dp.egress_pruned={} solver.dp.orbit_pruned={}",
        counter(ppdc_obs::names::ORACLE_QUERIES),
        counter(ppdc_obs::names::SOLVER_DP_EGRESS_PRUNED),
        counter(ppdc_obs::names::SOLVER_DP_ORBIT_PRUNED),
    );
    if total_ms > budget_ms as f64 {
        return Err(CliError::BudgetBreached {
            total_ms: total_ms as u64,
            budget_ms,
        });
    }
    Ok(())
}

/// Streams a full diurnal day of rate deltas through the flat flow store
/// on the k=32 fat-tree (analytic oracle, no V² matrix): builds
/// `n_flows` deterministic cross-pod flows, runs [`ppdc_sim::run_stream_day`]
/// with a zero-tolerance drift rule (every epoch re-solved or certified
/// optimal), and asserts the engine's counter pair before checking the
/// wall-clock budget. A second, unbudgeted leg then kills the same day at
/// mid-day through a [`ppdc_sim::CheckpointStore`] under `target/`, loads
/// the snapshot back from disk, resumes, and requires the result to equal
/// the uninterrupted day's.
fn stream_smoke(n_flows: usize, budget_ms: u64) -> Result<(), CliError> {
    use ppdc_model::{Sfc, Workload};
    use ppdc_sim::{
        resume_stream_day, run_stream_day, CheckpointStore, StreamCheckpoint, StreamConfig,
    };
    use ppdc_topology::{FatTree, FatTreeOracle};
    use ppdc_traffic::{rng_for_run, DiurnalModel, DynamicTrace};

    let obs = ppdc_obs::global();
    obs.enable();
    obs.declare(
        ppdc_obs::names::SPANS,
        ppdc_obs::names::COUNTERS,
        ppdc_obs::names::HISTS,
    );
    let t0 = std::time::Instant::now();
    let ft = FatTree::build(32).map_err(|e| CliError::Smoke(format!("k=32 fat-tree: {e}")))?;
    let oracle = FatTreeOracle::new(&ft);
    let g = ft.graph();
    let hosts: Vec<ppdc_topology::NodeId> = g.hosts().collect();
    let mut w = Workload::new();
    for i in 0..n_flows {
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    let mut rng = rng_for_run(97, 0);
    let trace = DynamicTrace::new(&w, DiurnalModel::default(), &mut rng);
    let sfc = Sfc::of_len(4).map_err(|e| CliError::Smoke(format!("sfc: {e}")))?;
    eprintln!(
        "# stream: {} flows over {} switches built in {:.1}ms",
        w.num_flows(),
        oracle.num_switches(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let run = run_stream_day(g, &oracle, &w, &trace, &sfc, &StreamConfig::default())
        .map_err(|e| CliError::Smoke(format!("stream day: {e}")))?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let epochs = trace.model().n_hours as u64;
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let span_mean_ms = |name: &str| {
        snap.spans
            .get(name)
            .map(|s| (s.count, s.total_ns as f64 / s.count.max(1) as f64 / 1e6))
            .unwrap_or((0, 0.0))
    };
    let (ingest_count, ingest_mean_ms) = span_mean_ms(ppdc_obs::names::STREAM_INGEST);
    let (fold_count, fold_mean_ms) = span_mean_ms(ppdc_obs::names::AGG_APPLY_DELTAS);
    eprintln!(
        "# stream: day served in {total_ms:.1}ms (budget {budget_ms}ms) — \
         {} re-solves, {} skipped, drift {}, {} deltas; \
         ingest+fold mean {ingest_mean_ms:.2}ms over {ingest_count} epochs \
         (fold alone {fold_mean_ms:.2}ms × {fold_count})",
        run.result.resolves,
        run.result.resolves_skipped,
        counter(ppdc_obs::names::STREAM_DRIFT),
        counter(ppdc_obs::names::STREAM_DELTAS),
    );
    eprintln!(
        "# stream: warm solver — seeded={} rows_dirty={} rows_reused={} egress_skipped={}",
        counter(ppdc_obs::names::SOLVER_WARM_SEEDED),
        counter(ppdc_obs::names::SOLVER_WARM_ROWS_DIRTY),
        counter(ppdc_obs::names::SOLVER_WARM_ROWS_REUSED),
        counter(ppdc_obs::names::SOLVER_WARM_EGRESS_SKIPPED),
    );
    // Counter-pair contract: every epoch either re-solved or was served
    // by the stale incumbent, the ingest span fired once per epoch, and a
    // diurnal day over this many flows cannot ingest zero drift.
    let checks: &[(&str, bool)] = &[
        (
            "stream.resolves + stream.resolves_skipped == epochs",
            run.result.resolves + run.result.resolves_skipped == epochs,
        ),
        (
            "counter pair matches the run report",
            counter(ppdc_obs::names::STREAM_RESOLVES) == run.result.resolves
                && counter(ppdc_obs::names::STREAM_RESOLVES_SKIPPED) == run.result.resolves_skipped,
        ),
        ("stream.ingest fired every epoch", ingest_count == epochs),
        (
            "stream.drift > 0",
            counter(ppdc_obs::names::STREAM_DRIFT) > 0,
        ),
        (
            "stream.deltas > 0",
            counter(ppdc_obs::names::STREAM_DELTAS) > 0,
        ),
        // Warm-solver contract: every re-solve on a diurnal day carries a
        // feasible incumbent, and its bound-cache refresh touches rows
        // (full-fabric diurnal churn dirties essentially all of them).
        (
            "solver.warm.seeded == stream.resolves",
            counter(ppdc_obs::names::SOLVER_WARM_SEEDED) == run.result.resolves,
        ),
        (
            "solver.warm.rows_dirty > 0",
            counter(ppdc_obs::names::SOLVER_WARM_ROWS_DIRTY) > 0,
        ),
        ("run completed", run.completed),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(CliError::Smoke(format!(
                "stream counter check failed: {what}"
            )));
        }
    }
    if total_ms > budget_ms as f64 {
        return Err(CliError::BudgetBreached {
            total_ms: total_ms as u64,
            budget_ms,
        });
    }

    let smoke_err = |what: &str, e: &dyn std::fmt::Display| CliError::Smoke(format!("{what}: {e}"));
    std::fs::create_dir_all("target").map_err(|e| smoke_err("target/", &e))?;
    let store = CheckpointStore::new("target/stream-smoke.ckpt");
    let mid = trace.model().n_hours / 2;
    let halted = run_stream_day(
        g,
        &oracle,
        &w,
        &trace,
        &sfc,
        &StreamConfig {
            store: Some(store.clone()),
            stop_after: Some(mid),
            ..StreamConfig::default()
        },
    )
    .map_err(|e| smoke_err("halted stream day", &e))?;
    let (ck, _slot) = store
        .load_with(StreamCheckpoint::from_json)
        .map_err(|e| smoke_err("checkpoint load", &e))?;
    let bytes = std::fs::metadata(store.path())
        .map_err(|e| smoke_err("checkpoint stat", &e))?
        .len();
    let resumed = resume_stream_day(g, &oracle, &w, &trace, &sfc, &StreamConfig::default(), &ck)
        .map_err(|e| smoke_err("resumed stream day", &e))?;
    eprintln!("# stream: killed at epoch {mid}, resumed from a {bytes}-byte checkpoint on disk");
    if halted.completed || ck.epoch != mid || !resumed.completed || resumed.result != run.result {
        return Err(CliError::Smoke(
            "stream kill/resume check failed: resumed day differs from the uninterrupted one"
                .to_string(),
        ));
    }
    Ok(())
}

/// The warm-start gate: a hand-authored 8-hour day on the k=32 fabric
/// with localized churn (8 hot racks, then two pods, then the full
/// fabric) interleaved with *quiet* hours whose rate rows repeat
/// verbatim. Every epoch still re-solves under the default zero-tolerance
/// config, so the quiet hours prove verbatim bound-row reuse
/// (`solver.warm.rows_reused > 0`) and the churned hours prove incumbent
/// seeding and bound-order skipping. The warm wall-clock check excludes
/// the single worst `solver.warm` observation — deterministically the
/// hour-0 bootstrap, which pays the full cold solve into the cache — and
/// budgets the mean of the rest at `warm_budget_ms`.
fn stream_churn_smoke(n_flows: usize, budget_ms: u64, warm_budget_ms: u64) -> Result<(), CliError> {
    use ppdc_model::{Sfc, Workload};
    use ppdc_sim::{run_stream_day, StreamConfig};
    use ppdc_topology::{FatTree, FatTreeOracle};
    use ppdc_traffic::{DiurnalModel, DynamicTrace};

    let obs = ppdc_obs::global();
    obs.enable();
    obs.declare(
        ppdc_obs::names::SPANS,
        ppdc_obs::names::COUNTERS,
        ppdc_obs::names::HISTS,
    );
    let t0 = std::time::Instant::now();
    let ft = FatTree::build(32).map_err(|e| CliError::Smoke(format!("k=32 fat-tree: {e}")))?;
    let oracle = FatTreeOracle::new(&ft);
    let g = ft.graph();
    let hosts: Vec<ppdc_topology::NodeId> = g.hosts().collect();
    let n_hosts = hosts.len();
    let mut w = Workload::new();
    for i in 0..n_flows {
        let a = hosts[(i * 131) % n_hosts];
        let b = hosts[(i * 2_477 + 4_096) % n_hosts];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    // τ_min = 1 flattens the diurnal envelope, so the hand-authored rows
    // below ARE the hourly rates: identical consecutive rows give truly
    // quiet epochs (zero deltas), which the default model's ramp would
    // re-scale away. Hosts are rack-contiguous in `g.hosts()` order, so
    // an index prefix selects whole racks/pods (16 hosts per k=32 rack,
    // 256 per pod).
    let model = DiurnalModel {
        n_hours: 8,
        tau_min: 1.0,
    };
    let base: Vec<i64> = (0..n_flows).map(|i| (i as i64 % 97) * 13 + 1).collect();
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(9);
    rows.push(base.clone());
    let mut cur = base;
    let churn = |cur: &mut Vec<i64>, host_prefix: usize, spread: i64| {
        for (i, r) in cur.iter_mut().enumerate() {
            if (i * 131) % n_hosts < host_prefix {
                *r += (i as i64 % spread) + 1;
            }
        }
    };
    churn(&mut cur, 8 * 16, 7); // hour 1: 8 hot racks
    rows.push(cur.clone());
    rows.push(cur.clone()); // hour 2: quiet
    rows.push(cur.clone()); // hour 3: quiet
    churn(&mut cur, 2 * 256, 5); // hour 4: two pods
    rows.push(cur.clone());
    rows.push(cur.clone()); // hour 5: quiet
    churn(&mut cur, n_hosts, 3); // hour 6: full fabric
    rows.push(cur.clone());
    rows.push(cur.clone()); // hour 7: quiet
    rows.push(cur.clone()); // hour 8: quiet
    let east = vec![false; n_flows];
    let trace = DynamicTrace::from_rows(&w, model, east, &rows)
        .map_err(|e| CliError::Smoke(format!("churned trace: {e}")))?;
    let sfc = Sfc::of_len(4).map_err(|e| CliError::Smoke(format!("sfc: {e}")))?;
    eprintln!(
        "# stream --churned: {} flows over {} switches built in {:.1}ms",
        w.num_flows(),
        oracle.num_switches(),
        t0.elapsed().as_secs_f64() * 1e3,
    );
    let run = run_stream_day(g, &oracle, &w, &trace, &sfc, &StreamConfig::default())
        .map_err(|e| CliError::Smoke(format!("churned stream day: {e}")))?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let warm = snap.spans.get(ppdc_obs::names::SOLVER_WARM).copied();
    let (warm_count, warm_mean_ms) = warm
        .filter(|s| s.count > 1)
        .map(|s| {
            // Mean over all but the worst observation: the bootstrap solve
            // is the deterministic maximum (it fills an empty cache with a
            // cold-cost sweep), so this is "mean warm re-solve" without
            // having to tag spans per call site.
            let rest = s.total_ns.saturating_sub(s.max_ns);
            (s.count, rest as f64 / (s.count - 1) as f64 / 1e6)
        })
        .unwrap_or((0, f64::INFINITY));
    eprintln!(
        "# stream --churned: day served in {total_ms:.1}ms (budget {budget_ms}ms) — \
         {} re-solves, {} skipped; warm solver over {warm_count} solves: \
         mean {warm_mean_ms:.1}ms past bootstrap (budget {warm_budget_ms}ms), \
         seeded={} rows_dirty={} rows_reused={} egress_skipped={}",
        run.result.resolves,
        run.result.resolves_skipped,
        counter(ppdc_obs::names::SOLVER_WARM_SEEDED),
        counter(ppdc_obs::names::SOLVER_WARM_ROWS_DIRTY),
        counter(ppdc_obs::names::SOLVER_WARM_ROWS_REUSED),
        counter(ppdc_obs::names::SOLVER_WARM_EGRESS_SKIPPED),
    );
    let checks: &[(&str, bool)] = &[
        ("run completed", run.completed),
        (
            "every epoch re-solved (zero-tolerance day)",
            run.result.resolves == 8,
        ),
        (
            "solver.warm.seeded == stream.resolves",
            counter(ppdc_obs::names::SOLVER_WARM_SEEDED) == run.result.resolves,
        ),
        (
            "solver.warm.rows_dirty > 0 (churned hours)",
            counter(ppdc_obs::names::SOLVER_WARM_ROWS_DIRTY) > 0,
        ),
        (
            "solver.warm.rows_reused > 0 (quiet hours)",
            counter(ppdc_obs::names::SOLVER_WARM_ROWS_REUSED) > 0,
        ),
        (
            "solver.warm.egress_skipped > 0 (seeded bound-order prefilter)",
            counter(ppdc_obs::names::SOLVER_WARM_EGRESS_SKIPPED) > 0,
        ),
        (
            "warm re-solve mean within budget",
            warm_mean_ms < warm_budget_ms as f64,
        ),
    ];
    for (what, ok) in checks {
        if !ok {
            return Err(CliError::Smoke(format!(
                "churned stream check failed: {what}"
            )));
        }
    }
    if total_ms > budget_ms as f64 {
        return Err(CliError::BudgetBreached {
            total_ms: total_ms as u64,
            budget_ms,
        });
    }
    Ok(())
}

fn run(name: &str, f: impl FnOnce() -> String) {
    let t = std::time::Instant::now();
    eprintln!("## running {name} …");
    let out = f();
    println!("{out}");
    eprintln!("## {name} done in {:.1}s", t.elapsed().as_secs_f64());
}

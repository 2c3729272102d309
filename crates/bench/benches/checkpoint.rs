//! Checkpoint write/restore latency at k = 8 and k = 16.
//!
//! Measures the crash-safety tax of the epoch engines, which share one
//! append-only journal codec. `write_k*` is one hourly `ppdc-ckpt/v6`
//! journal append after 11 hours (the engine's hour-12 line through
//! [`CheckpointStore::append`], which syncs it); `restore_k*` is one
//! load of the 12-hour journal back ([`CheckpointStore::load_with`] +
//! [`Checkpoint::from_json`]: read, parse, re-derive the totals). The
//! journals are real ones — a fault-injected day persisting every hour,
//! halted at hour 12 — so the appended hosts/stranded/hours/degraded
//! payload has production shape. Every 256 appends the untimed setup
//! rewrites the 12-line journal, so the file stays small.
//!
//! `stream_write_1m` is the streaming engine's per-epoch persist on a
//! 1M-flow day: one `ppdc-stream-ckpt/v5` journal append
//! ([`StreamCheckpoint::journal_line`] + [`CheckpointStore::append`]) after
//! 15 epochs, of a snapshot shaped like the engine's — 16 epoch records and
//! no rates, which restore re-derives from the trace — with the same
//! 256-append rewrite. `stream_restore_1m` is what `resume_stream_day`
//! runs before its first epoch: load the 16-line journal (a header and one
//! line per epoch) back through [`CheckpointStore::load_with`] +
//! [`StreamCheckpoint::from_json`], then key the 1M-flow store at the
//! snapshot's epoch straight from the trace
//! ([`ShardedFlowStore::from_trace`]).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ppdc_model::{Sfc, Workload};
use ppdc_sim::{
    run_day, Checkpoint, CheckpointStore, EngineConfig, EpochAction, EpochRecord, FaultConfig,
    FaultSchedule, MigrationPolicy, ShardedFlowStore, SimConfig, StreamCheckpoint,
};
use ppdc_topology::{FatTree, NodeId};
use ppdc_traffic::{
    rng_for_run, standard_workload, DiurnalModel, DynamicTrace, DEFAULT_MIX, STANDARD_CHURN,
};
use std::time::Duration;

/// A realistic mid-day journal: run a faulty day on a k-ary fat-tree that
/// persists every hour to `store` and stop after `stop` completed hours.
/// Returns the in-memory checkpoint and the journal's text.
fn mid_day_journal(
    k: usize,
    num_pairs: usize,
    stop: u32,
    store: &CheckpointStore,
) -> (Checkpoint, String) {
    let ft = FatTree::build(k).unwrap();
    let (w, trace) = standard_workload(&ft, num_pairs, 0xC4A0, 0);
    let sfc = Sfc::of_len(3).unwrap();
    let fc = FaultConfig {
        link_fail_per_hour: 0.05,
        switch_fail_per_hour: 0.02,
        repair_after: 2,
    };
    let schedule = FaultSchedule::generate(ft.graph(), trace.model().n_hours, &fc, 0xC4A0);
    let cfg = SimConfig {
        mu: 100,
        vm_mu: 100,
        policy: MigrationPolicy::MPareto,
    };
    let halted = run_day(
        ft.graph(),
        &w,
        &trace,
        &sfc,
        &cfg,
        &schedule,
        &EngineConfig {
            store: Some(store.clone()),
            stop_after: Some(stop),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    let ck = halted.checkpoint.expect("stopped runs carry a checkpoint");
    let journal = std::fs::read_to_string(store.path()).unwrap();
    assert_eq!(journal.lines().count(), stop as usize + 1);
    (ck, journal)
}

/// Times one `line` append to `store`, rewriting it to `journal` every
/// 256 appends in the untimed setup.
fn bench_append(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: &str,
    store: &CheckpointStore,
    journal: &str,
    line: &str,
) {
    let mut appends = 0u32;
    group.bench_function(id, |b| {
        b.iter_batched(
            || {
                if appends.is_multiple_of(256) {
                    store.write_raw(journal).unwrap();
                }
                appends += 1;
            },
            |()| store.append(line).unwrap(),
            BatchSize::PerIteration,
        )
    });
    store.write_raw(journal).unwrap();
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(30);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for (k, num_pairs) in [(8usize, 50usize), (16, 100)] {
        let dir = std::env::temp_dir().join(format!("ppdc-bench-ckpt-{}-k{k}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("day.ckpt"));
        let (ck, journal) = mid_day_journal(k, num_pairs, 12, &store);
        // The engine's own hour-12 line, appended again.
        let line = format!("{}\n", journal.lines().last().unwrap());
        bench_append(&mut group, &format!("write_k{k}"), &store, &journal, &line);
        group.bench_function(format!("restore_k{k}"), |b| {
            b.iter(|| {
                let loaded = store.load_with(Checkpoint::from_json).unwrap();
                assert_eq!(loaded.hour, ck.hour);
                loaded
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let ck = stream_checkpoint_1m();
    let (ft, w, trace) = million_flow_day(ck.epoch);
    let dir = std::env::temp_dir().join(format!("ppdc-bench-ckpt-{}-stream", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(dir.join("stream.ckpt"));
    let journal = journal_of(&ck);
    bench_append(
        &mut group,
        "stream_write_1m",
        &store,
        &journal,
        &ck.journal_line(15),
    );
    group.bench_function("stream_restore_1m", |b| {
        b.iter(|| {
            let loaded = store.load_with(StreamCheckpoint::from_json).unwrap();
            assert_eq!(loaded.epoch, ck.epoch);
            ShardedFlowStore::from_trace(ft.graph(), &w, &trace, loaded.epoch).unwrap()
        })
    });
    std::fs::remove_dir_all(&dir).unwrap();
    group.finish();
}

/// The `stream_ingest` bench's 1M-flow workload (pairs strided over every
/// k = 32 host) under a churned diurnal trace of `n_hours` epochs.
fn million_flow_day(n_hours: u32) -> (FatTree, Workload, DynamicTrace) {
    let ft = FatTree::build(32).unwrap();
    let hosts: Vec<NodeId> = ft.graph().hosts().collect();
    let mut w = Workload::new();
    for i in 0..1_000_000usize {
        let a = hosts[(i * 131) % hosts.len()];
        let b = hosts[(i * 2_477 + 4_096) % hosts.len()];
        w.add_pair(a, b, (i as u64 % 97) * 13 + 1);
    }
    let model = DiurnalModel {
        n_hours,
        ..DiurnalModel::default()
    };
    let trace = DynamicTrace::with_churn(
        &w,
        model,
        &DEFAULT_MIX,
        STANDARD_CHURN,
        &mut rng_for_run(0x5EED, 0),
    );
    (ft, w, trace)
}

/// `ck`'s journal as the engine writes it with a snapshot every epoch: a
/// header and one line per epoch record.
fn journal_of(ck: &StreamCheckpoint) -> String {
    let mut first = ck.clone();
    first.epochs.truncate(1);
    let mut text = first.to_json();
    for since in 1..ck.epochs.len() {
        let mut snap = ck.clone();
        snap.epochs.truncate(since + 1);
        text.push_str(&snap.journal_line(since));
    }
    let (loaded, lines) = (
        StreamCheckpoint::from_json(&text).unwrap(),
        text.lines().count(),
    );
    assert_eq!((loaded, lines), (ck.clone(), ck.epochs.len() + 1));
    text
}

/// A stream snapshot of a 1M-flow day after 16 epochs, with every epoch
/// action represented. Like the engine's, it carries no rates.
fn stream_checkpoint_1m() -> StreamCheckpoint {
    let epochs: Vec<EpochRecord> = (1..=16u32)
        .map(|epoch| EpochRecord {
            epoch,
            deltas: u64::from(epoch) * 61_000,
            drift: u64::from(epoch) * 9_000_000,
            action: match epoch % 3 {
                0 => EpochAction::SkippedLowDrift,
                1 => EpochAction::SkippedCertified { gap: 12_345 },
                _ => EpochAction::Resolved { improved: true },
            },
            comm_cost: 6_800_000_000 + u64::from(epoch),
        })
        .collect();
    StreamCheckpoint {
        fingerprint: 0x9E37_79B9_7F4A_7C15,
        epoch: 16,
        initial_cost: 6_826_000_000,
        placement: vec![NodeId(1_100), NodeId(1_101), NodeId(1_102), NodeId(1_103)],
        rates: Vec::new(),
        drift_accum: 0,
        total_cost: epochs.iter().map(|e| e.comm_cost).sum::<u64>() + 6_826_000_000,
        resolves: 5,
        resolves_skipped: 11,
        drift_total: epochs.iter().map(|e| e.drift).sum(),
        deltas_total: epochs.iter().map(|e| e.deltas).sum(),
        epochs,
    }
}

criterion_group!(benches, bench_checkpoint);
criterion_main!(benches);

//! Checkpoint write/restore latency at k = 8 and k = 16.
//!
//! Measures the crash-safety tax of the epoch engine: `write` is one
//! atomic two-slot snapshot persist (serialize + tmp + fsync + rotate +
//! rename), `restore` is one load back (read + parse + slot fallback).
//! The checkpoints are real ones — a fault-injected day halted mid-run —
//! so the serialized hours/degraded/rates payload has production shape.
//!
//! `stream_write_1m` is the streaming engine's per-epoch persist at scale:
//! [`StreamCheckpoint::to_json`] + [`CheckpointStore::write_raw`] of a
//! snapshot carrying 1M flow rates and 16 epoch records.
//! `stream_restore_1m` loads that snapshot back through
//! [`CheckpointStore::load_with`] + [`StreamCheckpoint::from_json`].

use criterion::{criterion_group, criterion_main, Criterion};
use ppdc_model::Sfc;
use ppdc_sim::{
    run_day, Checkpoint, CheckpointStore, EngineConfig, EpochAction, EpochRecord, FaultConfig,
    FaultSchedule, MigrationPolicy, SimConfig, StreamCheckpoint,
};
use ppdc_topology::{FatTree, NodeId};
use ppdc_traffic::standard_workload;
use std::time::Duration;

/// A realistic mid-day checkpoint: run a faulty day on a k-ary fat-tree
/// and stop after `stop` completed hours.
fn mid_day_checkpoint(k: usize, num_pairs: usize, stop: u32) -> Checkpoint {
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
            stop_after: Some(stop),
            ..EngineConfig::default()
        },
    )
    .unwrap();
    halted.checkpoint.expect("stopped runs carry a checkpoint")
}

fn bench_checkpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    group.sample_size(30);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(3));
    for (k, num_pairs) in [(8usize, 50usize), (16, 100)] {
        let ck = mid_day_checkpoint(k, num_pairs, 12);
        let dir = std::env::temp_dir().join(format!("ppdc-bench-ckpt-{}-k{k}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = CheckpointStore::new(dir.join("day.ckpt"));
        group.bench_function(format!("write_k{k}"), |b| {
            b.iter(|| store.write(&ck).unwrap())
        });
        store.write(&ck).unwrap();
        group.bench_function(format!("restore_k{k}"), |b| {
            b.iter(|| {
                let (loaded, _slot) = store.load().unwrap();
                assert_eq!(loaded.hour, ck.hour);
                loaded
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let ck = stream_checkpoint_1m();
    let dir = std::env::temp_dir().join(format!("ppdc-bench-ckpt-{}-stream", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(dir.join("stream.ckpt"));
    group.bench_function("stream_write_1m", |b| {
        b.iter(|| store.write_raw(&ck.to_json()).unwrap())
    });
    group.bench_function("stream_restore_1m", |b| {
        b.iter(|| {
            let (loaded, _slot) = store.load_with(StreamCheckpoint::from_json).unwrap();
            assert_eq!(loaded.epoch, ck.epoch);
            loaded
        })
    });
    std::fs::remove_dir_all(&dir).unwrap();
    group.finish();
}

/// A stream snapshot at the 1M-flow scale: the rates of the `stream_ingest`
/// workload after 16 epochs, with every epoch action represented.
fn stream_checkpoint_1m() -> StreamCheckpoint {
    const FLOWS: u64 = 1_000_000;
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
        rates: (0..FLOWS).map(|i| (i % 97) * 13 + 1).collect(),
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

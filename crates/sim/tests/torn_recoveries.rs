//! `ckpt.torn_recoveries` counts the loads that recovered a snapshot past
//! a torn journal tail, for both engines. This is a test binary of its
//! own because it enables the process-wide obs registry, which no other
//! test may share.

use ppdc_model::Sfc;
use ppdc_sim::{
    run_day, run_stream_day, Checkpoint, CheckpointStore, CkptError, EngineConfig, FaultSchedule,
    MigrationPolicy, SimConfig, StreamCheckpoint, StreamConfig,
};
use ppdc_topology::{DistanceMatrix, FatTree};
use ppdc_traffic::standard_workload;
use std::io::Write as _;

#[test]
fn loads_past_a_torn_tail_are_counted_for_both_engines() {
    let obs = ppdc_obs::global();
    obs.enable();
    let torn = || {
        let snap = obs.snapshot();
        let name = ppdc_obs::names::CKPT_TORN_RECOVERIES;
        snap.counters.get(name).copied().unwrap_or(0)
    };
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let (w, trace) = standard_workload(&ft, 20, 7, 0);
    let sfc = Sfc::of_len(3).unwrap();
    let dir = std::env::temp_dir().join(format!("ppdc-torn-recoveries-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (day, stream) = (
        CheckpointStore::new(dir.join("day.ckpt")),
        CheckpointStore::new(dir.join("stream.ckpt")),
    );
    let schedule = FaultSchedule::new(Vec::new(), trace.model().n_hours).unwrap();
    let cfg = SimConfig {
        mu: 100,
        vm_mu: 100,
        policy: MigrationPolicy::MPareto,
    };
    let ecfg = EngineConfig {
        store: Some(day.clone()),
        stop_after: Some(3),
        ..EngineConfig::default()
    };
    run_day(g, &w, &trace, &sfc, &cfg, &schedule, &ecfg).unwrap();
    let scfg = StreamConfig {
        store: Some(stream.clone()),
        stop_after: Some(3),
        ..StreamConfig::default()
    };
    run_stream_day(g, &DistanceMatrix::build(g), &w, &trace, &sfc, &scfg).unwrap();
    let hourly = day.load_with(Checkpoint::from_json).unwrap();
    let streamed = stream.load_with(StreamCheckpoint::from_json).unwrap();
    assert_eq!(torn(), 0, "an intact journal is no recovery");

    for store in [&day, &stream] {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(store.path())
            .unwrap();
        f.write_all(b"{\"torn").unwrap();
    }
    assert_eq!(day.load_with(Checkpoint::from_json), Ok(hourly));
    assert_eq!(torn(), 1);
    assert_eq!(stream.load_with(StreamCheckpoint::from_json), Ok(streamed));
    assert_eq!(torn(), 2);

    // A load that fails recovers nothing.
    std::fs::write(stream.path(), b"{\"torn").unwrap();
    assert!(matches!(
        stream.load_with(StreamCheckpoint::from_json),
        Err(CkptError::Parse(_))
    ));
    std::fs::remove_file(day.path()).unwrap();
    assert!(matches!(
        day.load_with(Checkpoint::from_json),
        Err(CkptError::Io { .. })
    ));
    assert_eq!(torn(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

//! `sim.stream.slot_histogram_builds` counts the slot class histograms
//! the stream engine's flow store builds: one on the first scale-moved
//! epoch of a day whose slots × classes fit its flow count, none on a day
//! of list-only epochs or on a day cut to hour 0. This is a test binary of
//! its own because it enables the process-wide obs registry, which no
//! other test may share.

use ppdc_model::{Sfc, Workload};
use ppdc_sim::{run_stream_day, StreamConfig};
use ppdc_topology::{DistanceMatrix, FatTree, NodeId};
use ppdc_traffic::{DiurnalModel, DynamicTrace};

#[test]
fn one_build_per_scale_moved_day_and_none_otherwise() {
    let obs = ppdc_obs::global();
    obs.enable();
    let builds = || {
        let snap = obs.snapshot();
        let name = ppdc_obs::names::STREAM_SLOT_HISTOGRAM_BUILDS;
        snap.counters.get(name).copied().unwrap_or(0)
    };
    let ft = FatTree::build(4).unwrap();
    let g = ft.graph();
    let dm = DistanceMatrix::build(g);
    let hosts: Vec<NodeId> = g.hosts().collect();
    // 8 ToR slots × 6 rate classes ≤ 120 flows.
    let flows = 120;
    let mut w = Workload::new();
    for i in 0..flows {
        w.add_pair(hosts[i % 16], hosts[(i * 7 + 3) % 16], 0);
    }
    let east: Vec<bool> = (0..flows).map(|i| i % 3 == 0).collect();
    let day = |model: DiurnalModel| {
        let mut rows = vec![(0..flows)
            .map(|i| [20, 300, 1_200][i % 3])
            .collect::<Vec<i64>>()];
        for h in 1..=model.n_hours as usize {
            let mut row = rows[h - 1].clone();
            row[h] = [20, 300, 1_200][(h + 1) % 3];
            rows.push(row);
        }
        DynamicTrace::from_rows(&w, model, east.clone(), &rows).unwrap()
    };
    let sfc = Sfc::of_len(3).unwrap();
    let cfg = StreamConfig::default();
    let run = |trace: &DynamicTrace| {
        let before = builds();
        let run = run_stream_day(g, &dm, &w, trace, &sfc, &cfg).unwrap();
        assert!(run.completed);
        builds() - before
    };
    assert_eq!(run(&day(DiurnalModel::default())), 1, "a diurnal day");
    let cut = DiurnalModel {
        n_hours: 0,
        tau_min: 1.0,
    };
    assert_eq!(run(&day(cut)), 0, "the hour-0 cut");
    let flat = DiurnalModel {
        n_hours: 8,
        tau_min: 1.0,
    };
    assert_eq!(run(&day(flat)), 0, "a flat-envelope day");
}

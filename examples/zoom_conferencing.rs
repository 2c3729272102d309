//! The paper's motivating scenario: cloud conferencing traffic.
//!
//! A Zoom-style deployment runs Meeting Connector VMs in two tenant
//! clusters — one serving east-coast users, one serving west-coast users —
//! behind a firewall → IDS → load-balancer SFC. Meetings ramp up toward
//! noon and fade by evening, with the east coast three hours ahead, so the
//! traffic's center of mass sweeps across the data center every day.
//!
//! The example simulates one 12-hour day on a k = 8 fat-tree and compares
//! adaptive VNF migration (mPareto) with leaving the VNFs where the
//! morning's TOP put them.
//!
//! ```text
//! cargo run --release --example zoom_conferencing
//! ```

use ppdc::model::Sfc;
use ppdc::sim::{run_day, EngineConfig, FaultSchedule, MigrationPolicy, SimConfig, Table};
use ppdc::topology::FatTree;
use ppdc::traffic::standard_workload;

fn main() {
    let ft = FatTree::build(8).expect("k = 8 fat-tree");
    println!(
        "fabric: k=8 fat-tree — {} hosts, {} switches",
        ft.graph().num_hosts(),
        ft.graph().num_switches()
    );

    // 120 conferencing VM pairs on hotspot racks, diurnal + churn dynamics.
    let (w, trace) = standard_workload(&ft, 120, 0x2000, 0);
    let sfc = Sfc::named(["firewall", "ids", "load-balancer"]).expect("three VNFs");
    let mu = 1_000; // container images are small relative to meeting traffic

    let adaptive = SimConfig {
        mu,
        vm_mu: mu,
        policy: MigrationPolicy::MPareto,
    };
    let frozen = SimConfig {
        mu,
        vm_mu: mu,
        policy: MigrationPolicy::NoMigration,
    };
    // A healthy fabric: the day's fault schedule is empty.
    let schedule = FaultSchedule::new(vec![], trace.model().n_hours).expect("no events to reject");
    let day = |cfg: &SimConfig| {
        run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            cfg,
            &schedule,
            &EngineConfig::default(),
        )
        .expect("day simulates")
        .result
    };
    let a = day(&adaptive);
    let b = day(&frozen);

    let mut table = Table::new(
        "one simulated day (6AM–6PM)",
        &["hour", "mPareto C_t", "VNF moves", "NoMigration C_a"],
    );
    for (ra, rb) in a.hours.iter().zip(&b.hours) {
        table.row(vec![
            format!("{}", 6 + ra.hour),
            ra.total_cost.to_string(),
            ra.num_migrations.to_string(),
            rb.total_cost.to_string(),
        ]);
    }
    println!("\n{}", table.to_markdown());
    let saved = 100.0 * (b.total_cost.saturating_sub(a.total_cost)) as f64 / b.total_cost as f64;
    println!(
        "day totals: mPareto {} ({} VNF migrations) vs NoMigration {} — {saved:.1}% saved",
        a.total_cost, a.total_migrations, b.total_cost
    );
}

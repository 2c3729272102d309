//! Run-level metrics export and validation for the experiments CLI.
//!
//! `--metrics <path>` enables the [`ppdc_obs::global`] registry before any
//! figure runs and writes its [`Snapshot`](ppdc_obs::Snapshot) as JSON when
//! the suite finishes; `--check-metrics <path>` re-parses an emitted file
//! and verifies it carries every key of the epoch vocabulary declared in
//! [`ppdc_obs::names`] — the CI gate that keeps the instrumentation wired
//! end to end.

use ppdc_obs::json::Value;
use ppdc_obs::{names, Snapshot, SCHEMA_VERSION};

/// Validates a `--metrics` JSON document: it must parse, carry the
/// [`SCHEMA_VERSION`] tag, hold every span, counter, and histogram key the
/// epoch loop declares ([`names::SPANS`], [`names::COUNTERS`],
/// [`names::HISTS`]), and record at least one simulated hour.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_metrics_json(src: &str) -> Result<(), String> {
    let v = Snapshot::parse_json(src).map_err(|e| format!("invalid JSON: {e}"))?;
    match v.get("schema").and_then(Value::as_str) {
        Some(s) if s == SCHEMA_VERSION => {}
        Some(s) => return Err(format!("schema {s:?}, expected {SCHEMA_VERSION:?}")),
        None => return Err("missing \"schema\" tag".into()),
    }
    let spans = v
        .get("spans")
        .and_then(Value::as_obj)
        .ok_or("missing \"spans\" object")?;
    for &k in names::SPANS {
        let s = spans.get(k).ok_or_else(|| format!("missing span {k:?}"))?;
        for field in ["count", "total_ns", "min_ns", "max_ns"] {
            if s.get(field).and_then(Value::as_u64).is_none() {
                return Err(format!("span {k:?} lacks u64 field {field:?}"));
            }
        }
    }
    let counters = v
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("missing \"counters\" object")?;
    for &k in names::COUNTERS {
        if counters.get(k).and_then(Value::as_u64).is_none() {
            return Err(format!("missing counter {k:?}"));
        }
    }
    if counters.get(names::SIM_HOURS).and_then(Value::as_u64) == Some(0) {
        return Err("counter \"sim.hours\" is 0 — no hour was simulated".into());
    }
    let hists = v
        .get("histograms")
        .and_then(Value::as_obj)
        .ok_or("missing \"histograms\" object")?;
    for &k in names::HISTS {
        let h = hists
            .get(k)
            .ok_or_else(|| format!("missing histogram {k:?}"))?;
        let bounds = h
            .get("bounds_ns")
            .and_then(Value::as_arr)
            .map(<[Value]>::len);
        let counts = h.get("counts").and_then(Value::as_arr).map(<[Value]>::len);
        match (bounds, counts) {
            (Some(b), Some(c)) if c == b + 1 => {}
            _ => return Err(format!("histogram {k:?} bounds/counts shape mismatch")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::Sfc;
    use ppdc_sim::{run_day, EngineConfig, FaultConfig, FaultSchedule, MigrationPolicy, SimConfig};
    use ppdc_topology::FatTree;
    use ppdc_traffic::standard_workload;

    /// Acceptance: an observed fault-sim run exports a machine-readable
    /// per-phase summary that passes the full schema check.
    #[test]
    fn observed_fault_sim_emits_a_valid_metrics_summary() {
        let obs = ppdc_obs::global();
        obs.enable();
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, 20, 3, 0);
        let sfc = Sfc::of_len(3).unwrap();
        let fc = FaultConfig {
            link_fail_per_hour: 0.05,
            switch_fail_per_hour: 0.02,
            repair_after: 2,
        };
        let schedule = FaultSchedule::generate(ft.graph(), trace.model().n_hours, &fc, 7);
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: MigrationPolicy::MPareto,
        };
        let ecfg = EngineConfig {
            observe: true,
            ..EngineConfig::default()
        };
        let r = run_day(ft.graph(), &w, &trace, &sfc, &cfg, &schedule, &ecfg)
            .unwrap()
            .result;
        assert!(r.degraded.iter().all(|d| d.phase.is_some()));
        let json = obs.snapshot().to_json();
        obs.disable();
        validate_metrics_json(&json).expect("schema check");
    }

    #[test]
    fn validation_requires_every_declared_key() {
        use ppdc_obs::names::{COUNTERS, HISTS, SPANS};
        let document =
            |spans: &[&'static str], counters: &[&'static str], hists: &[&'static str]| {
                let r = ppdc_obs::Registry::new();
                r.declare(spans, counters, hists);
                r.add(names::SIM_HOURS, 1);
                r.snapshot().to_json()
            };
        let without = |list: &[&'static str], k: &str| -> Vec<&'static str> {
            list.iter().copied().filter(|&x| x != k).collect()
        };
        validate_metrics_json(&document(SPANS, COUNTERS, HISTS)).expect("full vocabulary");
        for &k in SPANS {
            let err = validate_metrics_json(&document(&without(SPANS, k), COUNTERS, HISTS));
            assert!(err.unwrap_err().contains(k), "span {k}");
        }
        // `sim.hours` is written by the document itself; its absence is
        // covered by the zero-hours check below.
        for &k in COUNTERS.iter().filter(|&&k| k != names::SIM_HOURS) {
            let err = validate_metrics_json(&document(SPANS, &without(COUNTERS, k), HISTS));
            assert!(err.unwrap_err().contains(k), "counter {k}");
        }
        for &k in HISTS {
            let err = validate_metrics_json(&document(SPANS, COUNTERS, &without(HISTS, k)));
            assert!(err.unwrap_err().contains(k), "histogram {k}");
        }
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_metrics_json("not json").is_err());
        assert!(validate_metrics_json("{}").is_err());
        let wrong_schema =
            "{\"schema\": \"other/v9\", \"spans\": {}, \"counters\": {}, \"histograms\": {}}";
        assert!(validate_metrics_json(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        // A fresh registry that only declared the keys still fails on
        // sim.hours == 0: declaring is not running.
        let r = ppdc_obs::Registry::new();
        r.declare(
            ppdc_obs::names::SPANS,
            ppdc_obs::names::COUNTERS,
            ppdc_obs::names::HISTS,
        );
        let json = r.snapshot().to_json();
        assert!(validate_metrics_json(&json)
            .unwrap_err()
            .contains("sim.hours"));
    }
}

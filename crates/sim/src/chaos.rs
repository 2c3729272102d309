//! Seeded chaos harness: correlated infrastructure failures plus
//! operator-side injections, with hard invariants asserted on every trial.
//!
//! Fabric-side chaos extends [`FaultSchedule`] with two correlated
//! processes a memoryless per-element sampler cannot produce:
//!
//! * **Pod outages** — a whole pod's aggregation and edge switches fail
//!   together (a power or management-domain event), repairing together a
//!   fixed lag later.
//! * **Link flaps** — short-lived link failures that repair after one
//!   hour, modeling optics resets rather than hardware loss.
//!
//! Operator-side chaos targets the crash-safe engine itself:
//!
//! * a **kill** at a seeded hour followed by a [`resume_day`] that must
//!   reproduce the uninterrupted day bit-identically,
//! * a **torn checkpoint** — the journal's last line is truncated mid-line
//!   before resume, so [`CheckpointStore::load_with`] drops the torn tail
//!   and resumes from the hour before the kill,
//! * **solver starvation** — injected transient failures walking the
//!   supervisor's retry/fallback ladder.
//!
//! [`run_chaos_trial`] runs one seeded trial end to end and checks the
//! invariants (day completes, cost identities hold, serving placements
//! stay feasible, fault accounting matches the schedule, recovery is
//! complete once everything is repaired, resume never diverges),
//! converting any panic into a typed [`ChaosError`]. The `chaos`
//! experiments subcommand fans this out over N seeds.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ppdc_model::Sfc;
use ppdc_topology::{Cost, EdgeId, FatTree, INFINITY};
use ppdc_traffic::{rng_for_run, DiurnalModel, DynamicTrace, DEFAULT_MIX, STANDARD_CHURN};
use rand::Rng;

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::fault::{
    resume_day, run_day, Element, EngineConfig, FaultKind, FaultSchedule, FaultSimResult,
    HourProvenance, OutageLog, SimError,
};
use crate::simulator::{MigrationPolicy, SimConfig};
use crate::supervisor::SolverStarvation;

/// Dedicated RNG stream for chaos schedules, disjoint from the traffic
/// (0), cohort (1), fault (0xFA17), and starvation (0x51A7) streams.
const CHAOS_STREAM: u64 = 0xC4A0;

/// Correlated fabric-failure process of one chaos trial.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Day length in hours.
    pub n_hours: u32,
    /// Per-hour probability that each pod suffers a correlated outage
    /// (all its aggregation + edge switches fail together).
    pub pod_outage_per_hour: f64,
    /// Hours until a downed pod comes back (floored at 1).
    pub pod_repair_after: u32,
    /// Per-hour probability that each healthy link flaps (fails and
    /// repairs one hour later).
    pub link_flap_per_hour: f64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            n_hours: 24,
            pod_outage_per_hour: 0.04,
            pod_repair_after: 2,
            link_flap_per_hour: 0.01,
        }
    }
}

impl ChaosConfig {
    /// Samples the trial's fault schedule: pods are swept in index order,
    /// then links in id order, one ChaCha8 stream, so the schedule is
    /// fully deterministic in `(ft, self, seed)`. Elements already down
    /// stay on their original repair clock; a repair and a fresh failure
    /// may share an hour (repairs sort first), never an inconsistent
    /// sequence.
    pub fn schedule(&self, ft: &FatTree, seed: u64) -> FaultSchedule {
        let g = ft.graph();
        let mut rng = rng_for_run(seed, CHAOS_STREAM);
        let repair_after = self.pod_repair_after.max(1);
        let half = ft.k() / 2;
        let mut log = OutageLog::new(g, self.n_hours);
        for h in 1..=self.n_hours {
            for p in 0..ft.k() {
                if !rng.gen_bool(self.pod_outage_per_hour) {
                    continue;
                }
                let up = h.saturating_add(repair_after);
                let aggs = &ft.agg_switches()[p * half..(p + 1) * half];
                let tors = &ft.edge_switches()[p * half..(p + 1) * half];
                for &s in aggs.iter().chain(tors) {
                    // A switch still down from an earlier outage keeps its
                    // repair clock.
                    if !log.is_down(Element::Switch(s), h) {
                        log.fail(Element::Switch(s), h, up);
                    }
                }
            }
            for i in 0..g.num_edges() {
                let e = Element::Link(EdgeId::from_index(i));
                if !log.is_down(e, h) && rng.gen_bool(self.link_flap_per_hour) {
                    log.fail(e, h, h.saturating_add(1));
                }
            }
        }
        log.finish()
    }
}

/// Everything one seeded chaos trial injects.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosTrialConfig {
    /// Master seed: workload, trace, chaos schedule, and starvation all
    /// derive from it (disjoint streams).
    pub seed: u64,
    /// The migration policy under test.
    pub policy: MigrationPolicy,
    /// Communicating VM pairs in the workload.
    pub num_pairs: usize,
    /// The correlated fabric-failure process.
    pub chaos: ChaosConfig,
    /// Per-hour probability of injected transient solver starvation
    /// (0 disables the injection).
    pub starve_per_hour: f64,
    /// Worst-case failing attempts per starved hour.
    pub starve_max_attempts: u32,
    /// Kill the run after this hour and resume it from the persisted
    /// snapshot; `None` skips the crash leg.
    pub kill_hour: Option<u32>,
    /// Truncate the journal inside its last line before resume, so the
    /// load recovers the snapshot an hour before the kill (needs
    /// `kill_hour >= 2`).
    pub tear_checkpoint: bool,
    /// Where checkpoint scratch files go; `None` uses the OS temp dir.
    /// Each trial works in its own subdirectory and removes it afterwards.
    pub scratch_dir: Option<PathBuf>,
}

impl ChaosTrialConfig {
    /// Derives a varied trial from one seed: the policy rotates through
    /// all five, and the torn-checkpoint and starvation injections cycle
    /// on coprime residues so every combination appears across a
    /// contiguous seed range; the kill hour is drawn from the seed.
    pub fn seeded(seed: u64) -> Self {
        let chaos = ChaosConfig::default();
        let policy = match seed % 5 {
            0 => MigrationPolicy::MPareto,
            1 => MigrationPolicy::OptimalVnf { budget: 100_000 },
            2 => MigrationPolicy::Plan {
                slots: 4,
                passes: 3,
            },
            3 => MigrationPolicy::Mcf {
                slots: 4,
                candidates: 8,
            },
            _ => MigrationPolicy::NoMigration,
        };
        let mut rng = rng_for_run(seed, CHAOS_STREAM ^ 0xFF);
        // Always ≥ 2 so the torn-checkpoint leg has an earlier snapshot line.
        let kill_hour = 2 + rng.gen_range(0..chaos.n_hours.saturating_sub(2).max(1));
        ChaosTrialConfig {
            seed,
            policy,
            num_pairs: 30,
            chaos,
            starve_per_hour: if seed.is_multiple_of(2) { 0.15 } else { 0.0 },
            starve_max_attempts: 4,
            kill_hour: Some(kill_hour),
            tear_checkpoint: seed.is_multiple_of(3),
            scratch_dir: None,
        }
    }
}

/// What one surviving trial looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosTrialReport {
    /// The trial's master seed.
    pub seed: u64,
    /// The policy that served the day.
    pub policy: MigrationPolicy,
    /// Failure (not repair) events the schedule injected.
    pub fail_events: usize,
    /// Hours with no serving component (or no traffic).
    pub blackout_hours: usize,
    /// Hours served below rung 1 of the degradation ladder.
    pub degraded_hours: usize,
    /// Hours where the supervisor absorbed at least one transient failure.
    pub supervisor_retry_hours: usize,
    /// The crash leg ran and the resumed day matched bit-identically.
    pub resumed: bool,
    /// The resume recovered the snapshot before the kill hour after the
    /// journal's last line was torn.
    pub torn_recovery: bool,
    /// Served cost of the (uninterrupted) day.
    pub total_cost: Cost,
}

/// A chaos trial that failed its contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// Something panicked — the one thing no injection is allowed to
    /// cause.
    Panicked {
        /// Which leg of the trial blew up.
        stage: &'static str,
    },
    /// The simulator returned a typed error on inputs that should be
    /// serviceable.
    Sim(SimError),
    /// A trial invariant did not hold.
    Invariant(String),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Panicked { stage } => write!(f, "panic during {stage}"),
            ChaosError::Sim(e) => write!(f, "simulation error: {e}"),
            ChaosError::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<SimError> for ChaosError {
    fn from(e: SimError) -> Self {
        ChaosError::Sim(e)
    }
}

fn inv(msg: impl Into<String>) -> ChaosError {
    ChaosError::Invariant(msg.into())
}

/// Runs `f`, converting a panic into [`ChaosError::Panicked`].
fn guarded<T>(
    stage: &'static str,
    f: impl FnOnce() -> Result<T, SimError>,
) -> Result<T, ChaosError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(ChaosError::Sim(e)),
        Err(_) => Err(ChaosError::Panicked { stage }),
    }
}

/// Builds the trial's workload and a chaos-length diurnal trace (the
/// standard-workload recipe, re-cohorted for `n_hours`).
fn chaos_inputs(
    ft: &FatTree,
    n_hours: u32,
    num_pairs: usize,
    seed: u64,
) -> (ppdc_model::Workload, DynamicTrace) {
    let (w, _) = ppdc_traffic::standard_workload(ft, num_pairs, seed, 0);
    let mut rng = rng_for_run(seed, 1);
    let half = ft.num_racks() / 2;
    let east: Vec<bool> = w
        .flow_ids()
        .map(|f| {
            let (src, _) = w.endpoints(f);
            ft.rack_of(src) < half
        })
        .collect();
    let model = DiurnalModel {
        n_hours,
        ..DiurnalModel::default()
    };
    let trace = DynamicTrace::with_cohorts(&w, model, &DEFAULT_MIX, STANDARD_CHURN, east, &mut rng);
    (w, trace)
}

/// Truncates the journal halfway into its last line — an append frozen
/// mid-flush, newline never written.
fn tear(path: &Path) -> Result<(), ChaosError> {
    let err = |e: std::io::Error| inv(format!("tearing {}: {e}", path.display()));
    let text = std::fs::read_to_string(path).map_err(err)?;
    let start = text.trim_end().rfind('\n').map_or(0, |i| i + 1);
    std::fs::write(path, &text[..start + (text.len() - start) / 2]).map_err(err)?;
    Ok(())
}

/// Checks the day-level invariants every trial must satisfy, whatever was
/// injected.
fn check_invariants(
    r: &FaultSimResult,
    schedule: &FaultSchedule,
    n_hours: u32,
) -> Result<(), ChaosError> {
    if r.hours.len() != n_hours as usize || r.degraded.len() != n_hours as usize {
        return Err(inv(format!(
            "day truncated: {} cost rows / {} degraded rows for {n_hours} hours",
            r.hours.len(),
            r.degraded.len()
        )));
    }
    // Replay the schedule to know exactly how much must be down each hour.
    let mut pending = schedule.events().iter().peekable();
    let mut down_switches = 0usize;
    let mut down_links = 0usize;
    for (rec, d) in r.hours.iter().zip(&r.degraded) {
        while let Some(e) = pending.peek() {
            if e.hour > rec.hour {
                break;
            }
            match e.kind {
                FaultKind::FailSwitch(_) => down_switches += 1,
                FaultKind::RepairSwitch(_) => down_switches -= 1,
                FaultKind::FailLink(_) => down_links += 1,
                FaultKind::RepairLink(_) => down_links -= 1,
            }
            pending.next();
        }
        let h = rec.hour;
        if rec.hour != d.hour {
            return Err(inv(format!("misaligned records at hour {h}")));
        }
        if d.failed_switches != down_switches || d.failed_links != down_links {
            return Err(inv(format!(
                "hour {h} reports {}/{} failed switches/links, schedule says \
                 {down_switches}/{down_links}",
                d.failed_switches, d.failed_links
            )));
        }
        if rec.total_cost != rec.migration_cost.saturating_add(rec.comm_cost) {
            return Err(inv(format!("hour {h} breaks total = migration + comm")));
        }
        if rec.total_cost >= INFINITY {
            return Err(inv(format!("hour {h} served an infeasible placement")));
        }
        if d.blackout {
            if rec.total_cost != 0 || rec.num_migrations != 0 {
                return Err(inv(format!("blackout hour {h} claims served cost")));
            }
            if d.provenance != HourProvenance::Blackout {
                return Err(inv(format!("blackout hour {h} mislabeled provenance")));
            }
        } else if d.provenance == HourProvenance::Blackout {
            return Err(inv(format!("served hour {h} labeled blackout")));
        }
        // Bounded recovery: the hour everything is back up, nothing may
        // stay stranded or degraded-by-fault.
        if down_switches == 0 && down_links == 0 && (d.stranded_flows > 0 || d.stranded_rate > 0) {
            return Err(inv(format!("healthy hour {h} still strands flows")));
        }
    }
    Ok(())
}

/// Runs one seeded chaos trial end to end: the uninterrupted day, the
/// invariant sweep, and (when configured) the kill / torn-checkpoint /
/// resume leg with a bit-identity check against the uninterrupted run.
///
/// # Errors
///
/// [`ChaosError::Panicked`] if any leg panics, [`ChaosError::Sim`] if the
/// simulator rejects serviceable inputs, [`ChaosError::Invariant`] when a
/// contract does not hold.
pub fn run_chaos_trial(trial: &ChaosTrialConfig) -> Result<ChaosTrialReport, ChaosError> {
    let ft = FatTree::build(4).map_err(|e| ChaosError::Sim(SimError::Topology(e)))?;
    let g = ft.graph();
    let n_hours = trial.chaos.n_hours;
    let (w, trace) = chaos_inputs(&ft, n_hours, trial.num_pairs, trial.seed);
    let sfc = Sfc::of_len(3).map_err(|e| ChaosError::Sim(SimError::Model(e)))?;
    let schedule = trial.chaos.schedule(&ft, trial.seed);
    let starvation = (trial.starve_per_hour > 0.0).then(|| {
        SolverStarvation::generate(
            n_hours,
            trial.starve_per_hour,
            trial.starve_max_attempts.max(1),
            trial.seed,
        )
    });
    let cfg = SimConfig {
        mu: 100,
        vm_mu: 100,
        policy: trial.policy,
    };
    let base = EngineConfig {
        starvation,
        ..EngineConfig::default()
    };

    let full = guarded("uninterrupted day", || {
        run_day(g, &w, &trace, &sfc, &cfg, &schedule, &base)
    })?;
    if !full.completed {
        return Err(inv("uninterrupted run did not complete"));
    }
    check_invariants(&full.result, &schedule, n_hours)?;

    let mut resumed_ok = false;
    let mut torn_recovery = false;
    if let Some(kh) = trial.kill_hour {
        let kh = kh.clamp(1, n_hours);
        let torn = trial.tear_checkpoint && kh >= 2;
        let scratch = trial.scratch_dir.clone().unwrap_or_else(std::env::temp_dir);
        let dir = scratch.join(format!(
            "ppdc-chaos-{}-{:08x}",
            std::process::id(),
            trial.seed
        ));
        std::fs::create_dir_all(&dir).map_err(|e| inv(format!("scratch dir: {e}")))?;
        let store = CheckpointStore::new(dir.join("trial.ckpt"));
        let crash_leg = (|| -> Result<(), ChaosError> {
            let halted = guarded("killed run", || {
                run_day(
                    g,
                    &w,
                    &trace,
                    &sfc,
                    &cfg,
                    &schedule,
                    &EngineConfig {
                        store: Some(store.clone()),
                        stop_after: Some(kh),
                        ..base.clone()
                    },
                )
            })?;
            let in_mem = halted
                .checkpoint
                .ok_or_else(|| inv("killed run returned no checkpoint"))?;
            // Feasibility at the kill hour: outside a blackout, every
            // placed VNF sits on a serving-candidate switch.
            if !full.result.degraded[kh as usize - 1].blackout {
                for s in &in_mem.placement {
                    if !in_mem.candidates.contains(s) {
                        return Err(inv(format!(
                            "hour {kh} placement uses non-serving switch {}",
                            s.0
                        )));
                    }
                }
            }
            if torn {
                tear(store.path())?;
            }
            let loaded = store
                .load_with(Checkpoint::from_json)
                .map_err(|e| ChaosError::Sim(SimError::Checkpoint(e)))?;
            if torn {
                if loaded.hour != kh - 1 {
                    return Err(inv(format!(
                        "torn journal loaded hour {}, expected {}",
                        loaded.hour,
                        kh - 1
                    )));
                }
                torn_recovery = true;
            } else if loaded != in_mem {
                return Err(inv("disk snapshot diverged from the in-memory one"));
            }
            let resumed = guarded("resume", || {
                resume_day(g, &w, &trace, &sfc, &cfg, &schedule, &base, &loaded)
            })?;
            if !resumed.completed {
                return Err(inv("resumed run did not complete"));
            }
            if resumed.result != full.result {
                return Err(inv(format!(
                    "resume from hour {} diverged from the uninterrupted day",
                    loaded.hour
                )));
            }
            resumed_ok = true;
            Ok(())
        })();
        let _cleanup_best_effort = std::fs::remove_dir_all(&dir);
        crash_leg?;
    }

    let r = &full.result;
    Ok(ChaosTrialReport {
        seed: trial.seed,
        policy: trial.policy,
        fail_events: schedule.num_fail_events(),
        blackout_hours: r.blackout_hours,
        degraded_hours: r.degraded.iter().filter(|d| d.degraded_solver).count(),
        supervisor_retry_hours: r.degraded.iter().filter(|d| d.solver_retries > 0).count(),
        resumed: resumed_ok,
        torn_recovery,
        total_cost: r.total_cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_schedules_are_deterministic_correlated_and_valid() {
        let ft = FatTree::build(4).unwrap();
        let cfg = ChaosConfig {
            n_hours: 24,
            pod_outage_per_hour: 0.10,
            pod_repair_after: 2,
            link_flap_per_hour: 0.02,
        };
        let a = cfg.schedule(&ft, 42);
        let b = cfg.schedule(&ft, 42);
        assert_eq!(a, b);
        assert_ne!(a, cfg.schedule(&ft, 43));
        assert!(
            a.num_fail_events() > 0,
            "10% pod outages over 24h must fire"
        );
        // Correlation: pod outages fail k switches (aggs + ToRs) in one
        // hour. Find an hour with a switch failure and count its cohort.
        let k = ft.k();
        let switch_fails_at = |h: u32| {
            a.events_at(h)
                .filter(|e| matches!(e.kind, FaultKind::FailSwitch(_)))
                .count()
        };
        let correlated = (1..=24).any(|h| switch_fails_at(h) >= k);
        assert!(correlated, "pod outages fail whole pods together");
        // Validity: re-validating through the public constructor holds.
        assert!(FaultSchedule::new(a.events().to_vec(), 24).is_ok());
        // Flaps repair after exactly one hour.
        for e in a.events() {
            if let FaultKind::FailLink(l) = e.kind {
                if e.hour < 24 {
                    assert!(a
                        .events()
                        .iter()
                        .any(|r| r.kind == FaultKind::RepairLink(l) && r.hour == e.hour + 1));
                }
            }
        }
    }

    #[test]
    fn seeded_trials_cover_the_injection_matrix() {
        let trials: Vec<ChaosTrialConfig> = (0..60).map(ChaosTrialConfig::seeded).collect();
        assert!(trials.iter().any(|t| t.tear_checkpoint));
        assert!(trials.iter().any(|t| !t.tear_checkpoint));
        assert!(trials.iter().any(|t| t.starve_per_hour > 0.0));
        assert!(trials
            .iter()
            .any(|t| t.policy == MigrationPolicy::NoMigration));
        assert!(trials.iter().any(|t| t.policy == MigrationPolicy::MPareto));
        for t in &trials {
            let kh = t.kill_hour.unwrap();
            assert!((2..=t.chaos.n_hours).contains(&kh), "kill hour {kh}");
        }
        assert_eq!(trials[7], ChaosTrialConfig::seeded(7), "derivation is pure");
    }

    #[test]
    fn a_torn_and_a_clean_trial_both_pass() {
        // Seed 0: MPareto, starved, budget-squeezed, torn checkpoint.
        let report = run_chaos_trial(&ChaosTrialConfig::seeded(0)).unwrap();
        assert!(report.resumed);
        assert!(report.torn_recovery);
        // Seed 1: OptimalVnf, clean checkpoint path.
        let report = run_chaos_trial(&ChaosTrialConfig::seeded(1)).unwrap();
        assert!(report.resumed);
        assert!(!report.torn_recovery);
    }

    #[test]
    fn invariant_sweep_catches_tampered_results() {
        let trial = ChaosTrialConfig {
            kill_hour: None,
            ..ChaosTrialConfig::seeded(2)
        };
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = chaos_inputs(&ft, 24, trial.num_pairs, trial.seed);
        let sfc = Sfc::of_len(3).unwrap();
        let schedule = trial.chaos.schedule(&ft, trial.seed);
        let cfg = SimConfig {
            mu: 100,
            vm_mu: 100,
            policy: trial.policy,
        };
        let mut r = run_day(
            ft.graph(),
            &w,
            &trace,
            &sfc,
            &cfg,
            &schedule,
            &EngineConfig::default(),
        )
        .unwrap()
        .result;
        assert!(check_invariants(&r, &schedule, 24).is_ok());
        r.hours[5].total_cost = r.hours[5].total_cost.wrapping_add(1);
        assert!(matches!(
            check_invariants(&r, &schedule, 24),
            Err(ChaosError::Invariant(_))
        ));
    }
}

//! The supervised degradation ladder around each hourly solve.
//!
//! Production orchestrators cannot let one stalled solve take down the
//! epoch loop. The supervisor wraps every hour in a three-rung ladder:
//!
//! 1. **Exact** — the policy's normal solve ran to completion.
//! 2. **Degraded deadline** — the budgeted solver ran out of exploration
//!    budget and returned its best-so-far incumbent
//!    (`Exactness::Degraded`).
//! 3. **Last known good** — the solve could not run at all (transient
//!    resource starvation exhausted the retry budget); the previous
//!    hour's placement is kept and repriced at the current rates.
//!
//! Every solver in this workspace is deterministic, so "transient
//! failure" cannot arise spontaneously — it is *injected* by the chaos
//! harness via [`SolverStarvation`], a seeded map from hour to the number
//! of attempts that fail before one succeeds. The supervisor retries with
//! bounded exponential backoff and falls back to rung 3 when the budget
//! runs out. Because the starvation schedule, the retry budget, and the
//! fallback repricing are all deterministic, supervised runs stay
//! bit-identically reproducible — and resumable from checkpoints.

use ppdc_traffic::rng_for_run;
use rand::Rng;

/// Dedicated RNG stream for starvation schedules, disjoint from the
/// traffic (0), cohort (1), and fault (0xFA17) streams.
const STARVE_STREAM: u64 = 0x51A7;

/// Retry policy for the hourly solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Retries allowed per hour before falling back to the last-known-good
    /// placement. `max_retries = 2` means up to three attempts.
    pub max_retries: u32,
    /// Base backoff slept before retry `i` (doubling each retry, capped at
    /// 20 doublings). Zero — the default — skips sleeping entirely, which
    /// keeps tests and CI fast; the ladder logic is identical either way.
    pub backoff_ns: u64,
    /// Injected transient-failure schedule (chaos harness). `None` means
    /// every solve succeeds on the first attempt.
    pub starvation: Option<SolverStarvation>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_ns: 0,
            starvation: None,
        }
    }
}

/// A seeded, deterministic schedule of injected transient solver
/// failures: for each listed hour, how many consecutive attempts fail
/// before one would succeed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverStarvation {
    /// `(hour, failing_attempts)` sorted by hour, one entry per hour.
    burns: Vec<(u32, u32)>,
}

impl SolverStarvation {
    /// Builds a schedule from explicit `(hour, failing_attempts)` pairs.
    /// Entries are sorted; duplicate hours keep the larger burn.
    pub fn new(mut burns: Vec<(u32, u32)>) -> Self {
        burns.sort_unstable();
        burns.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 = first.1.max(later.1);
                true
            } else {
                false
            }
        });
        burns.retain(|&(_, n)| n > 0);
        SolverStarvation { burns }
    }

    /// Seeded generation: each hour `1..=n_hours` is starved with
    /// probability `per_hour`, burning a uniform `1..=max_attempts`
    /// attempts. Deterministic in `(seed, n_hours, per_hour,
    /// max_attempts)`.
    pub fn generate(n_hours: u32, per_hour: f64, max_attempts: u32, seed: u64) -> Self {
        let mut rng = rng_for_run(seed, STARVE_STREAM);
        let mut burns = Vec::new();
        for h in 1..=n_hours {
            if rng.gen::<f64>() < per_hour {
                let n = 1 + rng.gen_range(0..max_attempts.max(1));
                burns.push((h, n));
            }
        }
        SolverStarvation { burns }
    }

    /// How many attempts fail at hour `h` before one succeeds.
    pub fn attempts(&self, h: u32) -> u32 {
        match self.burns.binary_search_by_key(&h, |&(hour, _)| hour) {
            Ok(i) => self.burns[i].1,
            Err(_) => 0,
        }
    }

    /// True when no hour is starved.
    pub fn is_empty(&self) -> bool {
        self.burns.is_empty()
    }
}

/// Outcome of the transient-failure gate for one hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateOutcome {
    /// Transient failures consumed (each one is a supervisor retry).
    pub retries: u32,
    /// True when the retry budget ran out: the caller must skip the solve
    /// and keep the last-known-good placement.
    pub exhausted: bool,
}

/// Runs the injected-starvation gate ahead of hour `h`'s solve: consume
/// failing attempts (sleeping the configured backoff between them) until
/// either the starvation burns out — the solve may run — or the retry
/// budget is exhausted — the caller falls back to last-known-good.
pub(crate) fn transient_gate(cfg: &SupervisorConfig, h: u32) -> GateOutcome {
    let burn = cfg.starvation.as_ref().map_or(0, |s| s.attempts(h));
    if burn == 0 {
        return GateOutcome {
            retries: 0,
            exhausted: false,
        };
    }
    let mut failures = 0u32;
    loop {
        if failures > cfg.max_retries {
            return GateOutcome {
                retries: failures,
                exhausted: true,
            };
        }
        if failures >= burn {
            // Starvation burned out; the next attempt succeeds.
            return GateOutcome {
                retries: failures,
                exhausted: false,
            };
        }
        failures += 1;
        if cfg.backoff_ns > 0 {
            let shift = failures.saturating_sub(1).min(20);
            std::thread::sleep(std::time::Duration::from_nanos(cfg.backoff_ns << shift));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let a = SolverStarvation::generate(24, 0.3, 3, 7);
        let b = SolverStarvation::generate(24, 0.3, 3, 7);
        assert_eq!(a, b);
        let c = SolverStarvation::generate(24, 0.3, 3, 8);
        assert_ne!(a, c, "different seeds give different schedules");
        for h in 0..=25 {
            assert!(a.attempts(h) <= 3);
        }
        assert_eq!(a.attempts(0), 0, "hour 0 is the TOP solve, never starved");
        assert!(!SolverStarvation::generate(24, 1.0, 2, 1).is_empty());
        assert!(SolverStarvation::generate(24, 0.0, 2, 1).is_empty());
    }

    #[test]
    fn new_sorts_dedups_and_drops_zero_burns() {
        let s = SolverStarvation::new(vec![(5, 1), (2, 3), (5, 4), (7, 0)]);
        assert_eq!(s.attempts(2), 3);
        assert_eq!(s.attempts(5), 4, "duplicate hours keep the larger burn");
        assert_eq!(s.attempts(7), 0, "zero burns are dropped");
        assert_eq!(s.attempts(1), 0);
    }

    #[test]
    fn gate_retries_through_short_burns_and_exhausts_on_long_ones() {
        let cfg = |burns: Vec<(u32, u32)>| SupervisorConfig {
            max_retries: 2,
            backoff_ns: 0,
            starvation: Some(SolverStarvation::new(burns)),
        };
        // No starvation at this hour: zero retries.
        let g = transient_gate(&cfg(vec![(9, 5)]), 3);
        assert_eq!(
            g,
            GateOutcome {
                retries: 0,
                exhausted: false
            }
        );
        // Burn of 2 fits inside max_retries = 2: attempt 3 succeeds.
        let g = transient_gate(&cfg(vec![(3, 2)]), 3);
        assert_eq!(
            g,
            GateOutcome {
                retries: 2,
                exhausted: false
            }
        );
        // Burn of 5 exceeds the budget: give up after max_retries + 1
        // failed attempts and fall back to last-known-good.
        let g = transient_gate(&cfg(vec![(3, 5)]), 3);
        assert_eq!(
            g,
            GateOutcome {
                retries: 3,
                exhausted: true
            }
        );
    }

    #[test]
    fn zero_retry_budget_falls_back_on_first_failure() {
        let cfg = SupervisorConfig {
            max_retries: 0,
            backoff_ns: 0,
            starvation: Some(SolverStarvation::new(vec![(1, 1)])),
        };
        let g = transient_gate(&cfg, 1);
        assert!(g.exhausted);
        assert_eq!(g.retries, 1);
    }
}

//! **Warm-started re-solver** — incumbent seeding and delta-scoped bound
//! caching for the streaming epoch loop.
//!
//! Consecutive epochs solve near-identical instances: the PR 9 ingestion
//! phase reports exactly which hosts' rate masses moved
//! ([`HostMassDelta`]), and the previous epoch's placement is usually
//! still optimal or close to it. [`dp_placement_warm`] exploits both:
//!
//! 1. **Incumbent seeding** — the incumbent placement is priced under the
//!    *new* aggregates and installed as the sweep's initial atomic upper
//!    bound. A near-stationary epoch then prunes almost every egress at
//!    its first bound comparison instead of discovering the same optimum
//!    from scratch.
//! 2. **Delta-scoped bound caching** — a persistent [`BoundCache`] holds
//!    the per-candidate `A_in`/`A_out` bound terms, the metric closure,
//!    its commutative row fingerprints, the interchangeability classes,
//!    and the best-bound egress order. Epochs report their merged mass
//!    deltas via [`BoundCache::note_mass_deltas`]; the next refresh diffs
//!    every row's terms against the snapshot in `O(m)` and rewrites the
//!    ones that moved (a cancelling delta pair leaves its rows clean),
//!    classes are re-verified only when some row moved, and a quiet epoch
//!    reuses everything verbatim. A refresh runs at most once per
//!    reported batch: [`BoundCache::lower_bound`] refreshes to price the
//!    streaming engine's staleness certificate — the head of the egress
//!    order *is* [`crate::placement_cost_lower_bound`] — and a solve that
//!    follows before the next batch reuses that refresh.
//! 3. **Dirty-row egress sweep** — with a seeded incumbent, cached order
//!    entries whose bound already exceeds the seed are dropped before the
//!    parallel sweep even spawns them.
//! 4. **Interior-chain memoization** — the stroll DP filling a chain's
//!    interior is a function of the metric closure alone (fixed while
//!    the cache is valid); the aggregates only price the finished chain.
//!    Every solved `(ingress, egress)` interior is therefore memoized
//!    (`InteriorMemo` in `dp.rs`) and later epochs price it under the
//!    new aggregates in `O(n)` instead of re-running the per-egress DP
//!    fill. This carries the bulk of the speedup: an admissible bound
//!    can never prune the `{lb ≤ optimum}` survivor set, but memoization
//!    makes every survivor nearly free after its first solve.
//!
//! # Bit-identity
//!
//! The warm solve returns the same cost **and** the same lexicographic
//! switch tie-break as the cold solve (DESIGN.md §10, proptested against
//! [`crate::dp_placement_exhaustive`]). The argument in brief:
//! the seed is the exact cost of a feasible placement, so it is an upper
//! bound on nothing below the optimum; strict-inequality pruning then
//! never drops a candidate of optimal cost, and the per-egress local
//! minima — which decide the tie-break — are taken over the same solved
//! sets in both paths. The incumbent's own switch vector is *never*
//! injected into the candidate set: it only tightens the bound, so the
//! winning chain is always discovered by the sweep itself.
//!
//! # Cache contract
//!
//! A [`BoundCache`] is keyed by the candidate switch set and chain length
//! (shape changes trigger a transparent full rebuild) but **trusts** the
//! caller on two points: the distance oracle must not change between
//! solves without an [`BoundCache::invalidate`] call, and every aggregate
//! mutation between solves must be reported through
//! [`BoundCache::note_mass_deltas`]. The streaming engine satisfies both
//! by construction — its oracle is fixed for the day and every mutation
//! flows through the ingest report. On checkpoint restore the engine
//! starts from a fresh cache (rebuilt, never persisted), which keeps
//! `ppdc-stream-ckpt/v5` primary-state-only and kill/resume bit-identical.

use crate::aggregates::{AttachAggregates, HostMassDelta};
use crate::dp::{
    class_sizes, closure_row_hashes, dp_placement_inner, egress_order, placement_cost_lower_bound,
    sweep_classes_with_hashes, too_few, InteriorMemo, SweepCtx, ORBIT_MIN_SWITCHES,
};
use crate::PlacementError;
use ppdc_model::{Placement, Sfc, Workload};
use ppdc_obs::names as obs_names;
use ppdc_topology::{sat_mul, Cost, DistanceOracle, Graph, MetricClosure, NodeId, INFINITY};
use std::sync::atomic::AtomicU64;

/// Persistent bound state reused across warm solves; see the module docs
/// for what it caches and the contract it imposes on callers.
///
/// All fields are derived state: dropping the cache (or calling
/// [`BoundCache::invalidate`]) costs one full rebuild on the next solve
/// and nothing else, which is exactly the checkpoint-restore story.
#[derive(Debug, Default)]
pub struct BoundCache {
    valid: bool,
    /// Set by [`BoundCache::note_mass_deltas`]; cleared by each refresh.
    touched: bool,
    /// Set by each refresh; cleared by [`BoundCache::note_mass_deltas`].
    /// While set the cache already reflects the aggregates, so a second
    /// refresh in the same epoch (the solve after a failed certificate)
    /// neither diffs nor counts rows again.
    synced: bool,
    /// Chain length the cached `seg_lb`/order were computed for.
    n: usize,
    /// Candidate switch set the closure covers, in aggregate order.
    switches: Vec<NodeId>,
    closure: MetricClosure,
    /// [`closure_row_hashes`] of `closure`; empty below the orbit cutoff.
    row_hash: Vec<u64>,
    /// Total rate the cached order was computed under.
    rate: u64,
    a_in: Vec<Cost>,
    a_out: Vec<Cost>,
    classes: Vec<Vec<usize>>,
    class_size: Vec<u32>,
    /// Sorted best-bound egress order ([`egress_order`]).
    order: Vec<(Cost, usize)>,
    /// Cross-epoch interior-chain memo: the stroll DP's answers depend
    /// only on the closure (never the aggregates), so they persist
    /// across epochs and are priced under each epoch's aggregates in
    /// `O(n)` instead of re-running the `O(m²)`-per-level DP fill. Reset
    /// whenever the closure rebuilds.
    interior: InteriorMemo,
}

impl BoundCache {
    /// An empty cache; the first solve performs a full rebuild.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once the cache holds a usable bound state (i.e. at least one
    /// warm solve has run since construction/invalidation).
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Drops all cached state. Must be called when the distance oracle's
    /// answers change (fault events, topology edits); candidate-set and
    /// chain-length changes are detected automatically and do not need it.
    pub fn invalidate(&mut self) {
        self.valid = false;
        self.touched = false;
    }

    /// Records that the aggregates absorbed `masses` since the last solve.
    /// Call once per ingested batch, *after* folding the deltas into the
    /// aggregates; which hosts moved is irrelevant here — the next solve
    /// diffs the per-switch terms exactly — only whether anything did.
    pub fn note_mass_deltas(&mut self, masses: &[HostMassDelta]) {
        self.touched |= !masses.is_empty();
        self.synced = false;
    }

    /// Brings the cache up to date with `agg` for an `n`-VNF chain and
    /// returns the admissible lower bound that prices the streaming
    /// engine's staleness certificate. The value always equals
    /// [`placement_cost_lower_bound`]`(dm, agg, n)` (DESIGN.md §10):
    ///
    /// - for `n ≥ 3` it is the head of the cached best-bound egress
    ///   order, so the certificate costs one `O(m)` refresh instead of
    ///   an `O(m²)` oracle scan, and a [`dp_placement_warm`] call made
    ///   before the next [`BoundCache::note_mass_deltas`] reuses that
    ///   refresh;
    /// - for `n < 3`, or fewer than `n` candidates, it is the exact
    ///   closed form (or [`INFINITY`]) and the cache is left untouched.
    pub fn lower_bound<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        agg: &AttachAggregates,
        n: usize,
    ) -> Cost {
        if n < 3 || agg.switches().len() < n {
            return placement_cost_lower_bound(dm, agg, n);
        }
        self.refresh(dm, agg, n);
        self.order.first().map_or(INFINITY, |&(bound, _)| bound)
    }

    /// `(n−1) · c_min` for the cached shape.
    fn seg_lb(&self) -> Cost {
        let interior = u64::try_from(self.n.saturating_sub(1)).unwrap_or(u64::MAX);
        sat_mul(interior, self.closure.min_pair_cost())
    }

    /// Brings the cache in sync with `agg` for an `n`-VNF solve,
    /// recomputing as little as the reported deltas allow.
    fn refresh<D: DistanceOracle + ?Sized>(&mut self, dm: &D, agg: &AttachAggregates, n: usize) {
        let obs = ppdc_obs::global();
        if !self.valid || self.n != n || self.switches != agg.switches() {
            self.rebuild(dm, agg, n);
            let m = u64::try_from(self.closure.len()).unwrap_or(u64::MAX);
            obs.add(obs_names::SOLVER_WARM_ROWS_DIRTY, m);
            return;
        }
        #[cfg(feature = "strict-invariants")]
        {
            // The cache trusts the caller to invalidate on distance
            // changes; under strict invariants, verify the trust.
            let fresh = MetricClosure::over(dm, agg.switches());
            let m = self.closure.len();
            assert!(
                (0..m).all(|i| (0..m).all(|j| fresh.cost_ix(i, j) == self.closure.cost_ix(i, j))),
                "BoundCache used across a distance change without invalidate()"
            );
        }
        if self.synced {
            return;
        }
        self.synced = true;
        let m = self.closure.len();
        let m64 = u64::try_from(m).unwrap_or(u64::MAX);
        let rate = agg.total_rate();
        if !self.touched && rate == self.rate {
            // Only empty batches were reported since the last refresh:
            // unchanged aggregates + unchanged closure rows imply unchanged
            // bounds, so every row — and the order built from them — is
            // reused verbatim (DESIGN.md §10).
            debug_assert!(
                (0..m).all(|i| {
                    let x = self.closure.node(i);
                    agg.a_in(x) == self.a_in[i] && agg.a_out(x) == self.a_out[i]
                }),
                "aggregates moved without BoundCache::note_mass_deltas"
            );
            obs.add(obs_names::SOLVER_WARM_ROWS_REUSED, m64);
            return;
        }
        // Row-wise invalidation: diff the per-switch terms against the
        // snapshot. O(m) oracle-free scans — the attach aggregates have
        // already absorbed the deltas — so even a full-fabric churn pays
        // closure-free refresh here.
        let mut dirty = 0u64;
        for i in 0..m {
            let x = self.closure.node(i);
            let (ai, ao) = (agg.a_in(x), agg.a_out(x));
            if ai != self.a_in[i] || ao != self.a_out[i] {
                self.a_in[i] = ai;
                self.a_out[i] = ao;
                dirty += 1;
            }
        }
        obs.add(obs_names::SOLVER_WARM_ROWS_DIRTY, dirty);
        obs.add(
            obs_names::SOLVER_WARM_ROWS_REUSED,
            m64.saturating_sub(dirty),
        );
        let rate_changed = rate != self.rate;
        self.rate = rate;
        self.touched = false;
        if dirty == 0 && !rate_changed {
            // The reported deltas cancelled exactly (or touched only
            // non-candidate masses): all rows clean, order reused.
            return;
        }
        if dirty > 0 {
            // Interchangeability depends on the (a_in, a_out) pairs, so
            // dirty rows force a reclassification — against the cached
            // row fingerprints, which depend only on the closure. The
            // canonical class order makes the result identical to a
            // cold classification of the same aggregates.
            self.classes =
                sweep_classes_with_hashes(&self.closure, &self.a_in, &self.a_out, &self.row_hash);
            self.class_size = class_sizes(&self.classes, m);
        }
        // A rate-only change keeps rows and classes but shifts every
        // bound, so the order always rebuilds past this point.
        self.order = egress_order(
            &self.closure,
            &self.a_in,
            &self.a_out,
            &self.classes,
            self.rate,
            self.seg_lb(),
        );
    }

    /// Full rebuild for a new shape: closure, fingerprints, terms,
    /// classes, order.
    fn rebuild<D: DistanceOracle + ?Sized>(&mut self, dm: &D, agg: &AttachAggregates, n: usize) {
        self.closure.rebuild_over(dm, agg.switches());
        let m = self.closure.len();
        // New closure (or chain length) ⇒ every memoized chain is stale.
        self.interior.reset(m);
        self.switches = agg.switches().to_vec();
        self.n = n;
        self.row_hash = if m < ORBIT_MIN_SWITCHES {
            Vec::new() // singleton classes never read the fingerprints
        } else {
            closure_row_hashes(&self.closure)
        };
        self.rate = agg.total_rate();
        self.a_in = (0..m).map(|i| agg.a_in(self.closure.node(i))).collect();
        self.a_out = (0..m).map(|i| agg.a_out(self.closure.node(i))).collect();
        self.classes =
            sweep_classes_with_hashes(&self.closure, &self.a_in, &self.a_out, &self.row_hash);
        self.class_size = class_sizes(&self.classes, m);
        self.order = egress_order(
            &self.closure,
            &self.a_in,
            &self.a_out,
            &self.classes,
            self.rate,
            self.seg_lb(),
        );
        self.valid = true;
        self.touched = false;
        self.synced = true;
    }
}

/// Warm-started Algorithm 3: bit-identical to
/// [`crate::dp_placement`] (cost and lexicographic switch
/// tie-break), faster when `cache` is fresh and `incumbent` is near the
/// optimum. See the module docs for the mechanism and the cache contract.
///
/// `incumbent` is the previous epoch's placement (if any); it is priced
/// under the *current* aggregates and only used when still feasible for
/// this candidate set and chain length, so a stale incumbent can cost
/// nothing but the seeding opportunity.
///
/// `w` is read only for its flow count (an empty workload is
/// [`PlacementError::NoFlows`]); the rates come from `agg`, so a caller
/// whose rates live elsewhere passes any workload with the same flows.
/// `_g` is not read.
///
/// # Errors
///
/// Same conditions as [`crate::dp_placement`].
pub fn dp_placement_warm<D: DistanceOracle + ?Sized>(
    _g: &Graph,
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
    cache: &mut BoundCache,
    incumbent: Option<&Placement>,
) -> Result<(Placement, Cost), PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let n = sfc.len();
    if n < 3 {
        // Closed-form paths: no closure, no bounds, nothing to warm.
        return dp_placement_inner(dm, w, sfc, agg, None);
    }
    let obs = ppdc_obs::global();
    let _span = obs.span(obs_names::SOLVER_WARM);
    let switches = agg.switches();
    if switches.len() < n {
        return Err(too_few(switches.len(), n));
    }
    cache.refresh(dm, agg, n);
    // Seed only from a placement that is feasible *now*: right length,
    // injective, entirely inside the current candidate set. An infeasible
    // seed could undercut the true optimum and prune it away.
    let seed = incumbent.and_then(|p| {
        let s = p.switches();
        (s.len() == n && p.is_injective() && s.iter().all(|x| switches.contains(x)))
            .then(|| agg.comm_cost(dm, p))
    });
    let ctx = SweepCtx {
        dm,
        agg,
        closure: &cache.closure,
        n,
        rate: cache.rate,
        seg_lb: cache.seg_lb(),
        a_in: &cache.a_in,
        a_out: &cache.a_out,
        classes: &cache.classes,
        class_size: &cache.class_size,
        memo: Some(&cache.interior),
        incumbent: AtomicU64::new(seed.unwrap_or(u64::MAX)),
    };
    let result = match seed {
        Some(ub) => {
            obs.add(obs_names::SOLVER_WARM_SEEDED, 1);
            // Dirty-row egress sweep: an order entry whose cached bound
            // strictly exceeds the seed would be pruned at its first
            // atomic load anyway (the incumbent only falls from the
            // seed), so it is dropped before spawning its task. The
            // sweep's own prune counters are kept in step so warm and
            // cold runs report comparable totals.
            let live: Vec<(Cost, usize)> = cache
                .order
                .iter()
                .copied()
                .filter(|&(bound, _)| bound <= ub)
                .collect();
            let skipped = cache.order.len() - live.len();
            if skipped > 0 {
                let orbit = cache
                    .order
                    .iter()
                    .filter(|&&(bound, t_ix)| bound > ub && cache.class_size[t_ix] > 1)
                    .count();
                let skipped64 = u64::try_from(skipped).unwrap_or(u64::MAX);
                obs.add(obs_names::SOLVER_WARM_EGRESS_SKIPPED, skipped64);
                obs.add(obs_names::SOLVER_DP_EGRESS_PRUNED, skipped64);
                obs.add(
                    obs_names::SOLVER_DP_ORBIT_PRUNED,
                    u64::try_from(orbit).unwrap_or(u64::MAX),
                );
            }
            ctx.run_sweep(&live)
        }
        None => ctx.run_sweep(&cache.order),
    };
    // Same `strict-invariants` contract as the cold solve: injective
    // placement, reported cost equal to an independent re-evaluation.
    #[cfg(feature = "strict-invariants")]
    if let Ok((p, c)) = &result {
        assert!(
            p.is_injective(),
            "dp_placement_warm returned a non-injective placement: {:?}",
            p.switches()
        );
        assert_eq!(
            *c,
            agg.comm_cost(dm, p),
            "dp_placement_warm's reported cost disagrees with re-evaluation"
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp_placement, dp_placement_exhaustive};
    use ppdc_topology::builders::fat_tree;
    use ppdc_topology::DistanceMatrix;

    fn fixture() -> (Graph, DistanceMatrix, Workload) {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..hosts.len() {
            w.add_pair(
                hosts[i],
                hosts[(i * 7 + 3) % hosts.len()],
                (i as u64) % 9 + 1,
            );
        }
        (g, dm, w)
    }

    #[test]
    fn warm_matches_cold_across_epochs() {
        let (g, dm, mut w) = fixture();
        let sfc = Sfc::of_len(4).unwrap();
        let mut cache = BoundCache::new();
        let mut prev: Option<Placement> = None;
        for epoch in 0..6u64 {
            // Perturb a couple of flows each epoch and report the churn
            // through the aggregate-delta path the stream engine uses.
            let mut rates: Vec<u64> = (0..w.num_flows())
                .map(|i| (i as u64 + epoch * 13) % 17 + 1)
                .collect();
            let bump = (epoch as usize) % rates.len();
            rates[bump] += 40;
            w.set_rates(&rates).unwrap();
            let agg = AttachAggregates::build(&g, &dm, &w);
            // A fresh agg build gives no delta list; force the diff path.
            cache.note_mass_deltas(&[HostMassDelta {
                host: g.hosts().next().unwrap(),
                d_in: 0,
                d_out: 0,
            }]);
            let (wp, wc) =
                dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, prev.as_ref()).unwrap();
            let (cp, cc) = dp_placement_exhaustive(&dm, &w, &sfc, &agg).unwrap();
            assert_eq!(wc, cc, "epoch {epoch}: cost diverged");
            assert_eq!(
                wp.switches(),
                cp.switches(),
                "epoch {epoch}: tie-break diverged"
            );
            prev = Some(wp);
        }
    }

    #[test]
    fn quiet_epoch_reuses_every_row() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(3).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        let (p1, c1) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None).unwrap();
        assert!(cache.is_warm());
        // No deltas reported: the second solve must take the verbatim-reuse
        // path and still agree with a cold solve.
        let (p2, c2) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, Some(&p1)).unwrap();
        let (p3, c3) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
        assert_eq!((c1, p1.switches()), (c2, p2.switches()));
        assert_eq!((c2, p2.switches()), (c3, p3.switches()));
    }

    #[test]
    fn candidate_set_change_triggers_rebuild() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(3).unwrap();
        let mut cache = BoundCache::new();
        let full = AttachAggregates::build(&g, &dm, &w);
        let (pf, cf) = dp_placement_warm(&g, &dm, &w, &sfc, &full, &mut cache, None).unwrap();
        // Restrict the candidates: the cache must rebuild (shape change)
        // and the old incumbent — now outside the set — must not seed.
        let subset: Vec<NodeId> = g.switches().step_by(2).collect();
        let ragg = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let (rp, rc) = dp_placement_warm(&g, &dm, &w, &sfc, &ragg, &mut cache, Some(&pf)).unwrap();
        let (xp, xc) = dp_placement_exhaustive(&dm, &w, &sfc, &ragg).unwrap();
        assert_eq!((rc, rp.switches()), (xc, xp.switches()));
        // And back to the full set, seeding from the restricted solution.
        let (bp, bc) = dp_placement_warm(&g, &dm, &w, &sfc, &full, &mut cache, Some(&rp)).unwrap();
        assert_eq!((bc, bp.switches()), (cf, pf.switches()));
    }

    #[test]
    fn lower_bound_equals_the_scan_over_classes() {
        // k = 16 has 320 switches, past the orbit cutoff, and a
        // half-fabric shift workload makes the classes coarse, so the
        // cached order's head is a class-pair minimum.
        let ft = ppdc_topology::FatTree::build(16).unwrap();
        let g = ft.graph();
        let dm = ppdc_topology::FatTreeOracle::new(&ft);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let h = hosts.len();
        let mut base = Workload::new();
        for i in 0..h {
            base.add_pair(hosts[i], hosts[(i + h / 2) % h], 5);
        }
        for n in 1..=5 {
            let mut w = base.clone();
            let mut rates = w.rates().to_vec();
            let mut cache = BoundCache::new();
            for epoch in 0..4usize {
                let agg = AttachAggregates::build(g, &dm, &w);
                cache.note_mass_deltas(&[HostMassDelta {
                    host: hosts[0],
                    d_in: 0,
                    d_out: 0,
                }]);
                assert_eq!(
                    cache.lower_bound(&dm, &agg, n),
                    placement_cost_lower_bound(&dm, &agg, n),
                    "epoch {epoch}, n={n}"
                );
                assert_eq!(cache.is_warm(), n >= 3);
                if n >= 3 {
                    assert!(cache.classes.len() < cache.closure.len() / 2);
                }
                // Heat one more rack each epoch.
                for r in &mut rates[epoch * 8..][..8] {
                    *r += 7;
                }
                w.set_rates(&rates).unwrap();
            }
        }
    }

    #[test]
    fn small_n_delegates_to_closed_forms() {
        let (g, dm, w) = fixture();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        for n in 1..=2usize {
            let sfc = Sfc::of_len(n).unwrap();
            let (wp, wc) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None).unwrap();
            let (cp, cc) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
            assert_eq!((wc, wp.switches()), (cc, cp.switches()), "n={n}");
            assert!(
                !cache.is_warm(),
                "n={n}: closed forms must not warm the cache"
            );
        }
    }

    #[test]
    fn infeasible_incumbents_are_ignored() {
        let (g, dm, w) = fixture();
        let sfc = Sfc::of_len(4).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (cp, cc) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        let hosts: Vec<NodeId> = g.hosts().collect();
        let bad: Vec<Placement> = vec![
            // Wrong length. (Non-injectivity is unconstructible — even
            // `Placement::new_unchecked` asserts distinctness — so the
            // seed guard's injectivity arm is pure release-build defense.)
            Placement::new_unchecked(switches[..3].to_vec()),
            // Outside the candidate set.
            Placement::new_unchecked(vec![hosts[0], switches[1], switches[2], switches[3]]),
        ];
        for p in &bad {
            let mut cache = BoundCache::new();
            let (wp, wc) = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, Some(p)).unwrap();
            assert_eq!((wc, wp.switches()), (cc, cp.switches()));
        }
    }
}

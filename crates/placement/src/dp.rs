//! **DP** — Algorithm 3: VNF placement for the multi-flow TOP.
//!
//! The algorithm sweeps all ordered (ingress, egress) switch pairs. For
//! each pair it charges the aggregate attachment cost
//! `A_in[ingress] + A_out[egress]` and fills the interior of the chain by
//! solving an `(n−2)`-stroll between the two switches with Algorithm 2.
//!
//! Because the stroll DP's tables depend only on the *target*, all
//! ingresses for one egress share a single table; egress switches are
//! processed in parallel with rayon.
//!
//! # Branch-and-bound sweep
//!
//! The sweep is best-first rather than exhaustive. Every ordered pair
//! `(i, j)` has an admissible lower bound
//!
//! `lb(i, j) = A_in[i] + Σλ · max(c(i, j), (n−1)·c_min) + A_out[j]`
//!
//! computed from the aggregates and metric closure alone (`c_min` is the
//! cheapest distinct-pair closure cost): any placement with ingress `i` and
//! egress `j` walks an interior chain of `n−1` closure segments whose total
//! is at least `c(i, j)` (triangle inequality) and at least `(n−1)·c_min`
//! (each segment joins distinct switches). Egresses are sorted by their
//! best bound and share an incumbent — the cheapest exact candidate seen so
//! far — through an `AtomicU64`; an egress (or a single ingress row inside
//! one) is skipped when its bound **strictly** exceeds the incumbent.
//! Strictness is what keeps the result bit-identical to the exhaustive
//! sweep ([`dp_placement_exhaustive`]): an optimal candidate has
//! `lb ≤ cost = optimum ≤ incumbent` at every point in time, so no
//! cost-optimal candidate is ever pruned and the deterministic
//! lexicographic tie-break sees exactly the same contenders.
//!
//! # Orbit compression
//!
//! The bound `lb(i, j)` only reads `A_in[i]`, `A_out[j]`, and `c(i, j)`,
//! so switches that agree on all three are *interchangeable* to every
//! bound decision. The sweep groups the candidate set into
//! interchangeability classes — `u ≡ v` iff `A_in`, `A_out` agree and
//! their closure rows agree off `{u, v}` — and evaluates each bound once
//! per class representative: one comparison covers `|S|·|T|` pairs. On a
//! fat-tree these classes recover the topology's automorphism orbits
//! ([`ppdc_topology::FatTreeOracle::orbits`]) refined by the workload:
//! edge switches within a pod and core switches within a core group merge
//! whenever their attached rate masses agree (aggregation switches stay
//! singletons among switch candidates — their distance to core group `a`
//! is 1 for agg `a` and 3 otherwise, so their rows differ). Compression
//! applies to **bounds only**: every surviving member is still solved
//! individually, because the stroll DP's reconstruction argmins are
//! index-dependent; since class members share one bound value, pruning by
//! the representative prunes exactly the rows the per-row test would
//! have, and the bit-identity argument above carries over unchanged (see
//! DESIGN.md §8).
//!
//! Compression only pays when there are enough candidates to share
//! bounds across: below [`ORBIT_MIN_SWITCHES`] the sweep uses singleton
//! classes (every switch its own class), which reduces exactly to the
//! per-row bound test. Any partition into valid interchangeability
//! classes yields the same sweep result — the bound values are identical
//! either way — so the cutoff is a pure time trade.
//!
//! # Warm starts
//!
//! The streaming engine re-solves the same instance epoch after epoch
//! with only a few hosts' masses moved. [`crate::warm::dp_placement_warm`]
//! wraps this sweep with a persistent bound cache and an incumbent seed;
//! the pieces it reuses ([`sweep_classes_with_hashes`], [`egress_order`],
//! [`SweepCtx::run_sweep`]) live here so warm and cold share one code
//! path and stay bit-identical by construction.
//!
//! All per-egress state (stroll tables, candidate chains) lives in
//! per-worker thread-local scratch reused across egresses and epochs, so
//! the steady-state sweep allocates nothing but the final placement.
//!
//! Every distance is consumed through [`DistanceOracle`], so the sweep
//! runs identically over a dense [`ppdc_topology::DistanceMatrix`] or the
//! zero-build [`ppdc_topology::FatTreeOracle`] — the latter is what makes
//! k = 32 (1,280 switches) solves possible without a V² matrix.

use crate::aggregates::AttachAggregates;
use crate::PlacementError;
use ppdc_model::{Placement, Sfc, Workload};
use ppdc_stroll::{dp_stroll_all_sources, DpBatchSolver, StrollError};
use ppdc_topology::{sat_add, sat_mul, Cost, DistanceOracle, MetricClosure, NodeId, INFINITY};
use rayon::prelude::*;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

thread_local! {
    /// Closure scratch for [`dp_placement`]: refilled in place each call,
    /// so the hourly loop never re-allocates the `m × m` cost matrix or the
    /// node-universe-sized reverse index.
    static CLOSURE_SCRATCH: RefCell<MetricClosure> = RefCell::new(MetricClosure::default());
    /// Per-worker sweep scratch: stroll tables and chain buffers reused
    /// across egresses and epochs.
    static EGRESS_SCRATCH: RefCell<EgressScratch> = RefCell::new(EgressScratch::default());
}

/// Reused buffers for one egress worker: the batch stroll solver plus the
/// candidate/best chain scratch the rows are priced through.
#[derive(Default)]
struct EgressScratch {
    solver: DpBatchSolver,
    chain: Vec<NodeId>,
    best_chain: Vec<NodeId>,
}

/// One egress slot of the interior memo, indexed by ingress closure
/// index: the `n−2` interior switches of the row's chain, or `None` when
/// the stroll solver reported the row unsolvable (or the index is the
/// egress itself). Empty until the sweep first visits the egress, then
/// filled densely in one pass — see [`SweepCtx::fill_slot`].
type MemoSlot = Vec<Option<Box<[NodeId]>>>;

/// Cross-epoch memo of interior stroll chains, owned by the warm path's
/// [`crate::warm::BoundCache`].
///
/// A stroll solution is a deterministic function of
/// `(closure, egress, ingress, n)` alone — the aggregates never enter the
/// DP, and even the tie-break perturbation retries derive from the
/// closure — so while the closure is unchanged a memoized interior chain
/// is byte-identical to what [`DpBatchSolver`] would recompute, and
/// pricing it under the current epoch's aggregates reproduces the cold
/// cost exactly. This is where the warm speedup actually comes from: the
/// admissible bounds cannot shrink the `{lb ≤ optimum}` survivor set, but
/// the survivors' DP fills (the dominant cost per egress) collapse to
/// `O(1)` lookups plus an `O(n)` aggregate pricing on every epoch after
/// the first.
///
/// Each egress index owns one mutex-guarded slot; the sweep hands a whole
/// slot to the single worker visiting that egress, so the locks never
/// contend — they exist to make the memo writable through the `&SweepCtx`
/// the parallel workers share.
#[derive(Debug, Default)]
pub(crate) struct InteriorMemo {
    slots: Vec<Mutex<MemoSlot>>,
}

impl InteriorMemo {
    /// Drops every memoized chain and resizes to `m` egress slots. Must
    /// run whenever the closure is rebuilt: the chains (and the closure
    /// indices keying them) are only valid for the closure they were
    /// solved under.
    pub(crate) fn reset(&mut self, m: usize) {
        self.slots.clear();
        self.slots.resize_with(m, Mutex::default);
    }

    /// The slot for egress `t_ix`, or `None` when the memo was never
    /// sized for this closure (cold sweeps pass no memo at all).
    fn slot(&self, t_ix: usize) -> Option<std::sync::MutexGuard<'_, MemoSlot>> {
        self.slots
            .get(t_ix)
            // A worker can only poison its own slot, and a poisoned map
            // still holds only completed inserts — safe to keep using.
            .map(|m| m.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

pub(crate) fn too_few(switches: usize, vnfs: usize) -> PlacementError {
    PlacementError::Model(ppdc_model::ModelError::TooFewSwitches { switches, vnfs })
}

/// The solvers' shared input check: a workload with flows, and at least as
/// many candidate switches in `agg` as the chain has VNFs.
pub(crate) fn check_inputs(
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
) -> Result<(), PlacementError> {
    if w.num_flows() == 0 {
        return Err(PlacementError::NoFlows);
    }
    let candidates = agg.switches().len();
    if candidates < sfc.len() {
        return Err(too_few(candidates, sfc.len()));
    }
    Ok(())
}

/// The exact solvers' shared verdict on their best candidate: none at all,
/// or a cost saturated at [`INFINITY`] (every placement crosses a
/// partition, so the cost is the sentinel, not a magnitude), is
/// [`StrollError::Unreachable`]. Routing every solver through here keeps
/// their answers identical on a disconnected fabric.
pub(crate) fn reachable(
    best: Option<(Placement, Cost)>,
) -> Result<(Placement, Cost), PlacementError> {
    match best {
        Some((p, cost)) if cost < INFINITY => Ok((p, cost)),
        _ => Err(PlacementError::Stroll(StrollError::Unreachable)),
    }
}

/// Runs Algorithm 3 against `agg`, returning the placement and its exact
/// `C_a`. `agg` must describe `w` on `dm`; callers without aggregates build
/// them with [`AttachAggregates::build`].
///
/// Candidate switches are taken from `agg` itself
/// ([`AttachAggregates::switches`]), so aggregates built with
/// [`AttachAggregates::build_restricted`] confine the placement to their
/// candidate set — this is how the fault-tolerant loop keeps VNFs inside the
/// serving component of a partitioned fabric. For full aggregates the
/// candidate set is every switch of the graph.
///
/// The metric closure over the candidates is refilled into thread-local
/// scratch each call, so repeated solves never re-allocate the `m × m`
/// cost matrix and no caller has to track when the distances or the
/// candidate set changed.
///
/// # Errors
///
/// Fails when the workload has no flows, the SFC is longer than the number
/// of candidate switches, or every placement crosses a partition
/// ([`StrollError::Unreachable`]).
pub fn dp_placement<D: DistanceOracle + ?Sized>(
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
) -> Result<(Placement, Cost), PlacementError> {
    if sfc.len() < 3 {
        // The small-n paths never touch the closure; skip the refill.
        return dp_placement_inner(dm, w, sfc, agg, None);
    }
    CLOSURE_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut mc) => {
            mc.rebuild_over(dm, agg.switches());
            dp_placement_inner(dm, w, sfc, agg, Some(&mc))
        }
        // Re-entrant call on this thread (no such caller today): fall back
        // to a fresh closure rather than risking a borrow panic.
        Err(_) => dp_placement_inner(dm, w, sfc, agg, None),
    })
}

/// The branch-and-bound admissible bound, minimised over all ordered
/// (ingress, egress) pairs and exposed standalone:
///
/// `LB = min_{i ≠ j} A_in[i] + Σλ · max(c(i, j), (n−1)·c_min) + A_out[j]`
///
/// (for `n = 1`, `min_x A_in[x] + A_out[x]`). Every admissibility argument
/// of the module docs applies pairwise, so `LB ≤ C_a*` — the optimal cost
/// of Algorithm 3 over `agg`'s candidate set — in the saturating algebra.
/// For `n ≤ 2` the bound is exact.
///
/// This is the bound of the streaming engine's *staleness certificate*:
/// after folding rate deltas into `agg`, `comm_cost(incumbent) − LB`
/// bounds how far the stale incumbent placement can be from the current
/// optimum, without running a solve. `O(m²)` oracle queries and no
/// closure build. The engine prices it through
/// [`crate::BoundCache::lower_bound`], which returns this value off its
/// cached egress order for `n ≥ 3` (DESIGN.md §10) and calls this
/// function for `n < 3`; the scan stays the reference the cache is
/// tested against.
///
/// Returns [`INFINITY`] when `agg` offers fewer than `sfc_len` candidate
/// switches (no placement exists, so every cost bound holds vacuously) or
/// when `sfc_len == 0`.
pub fn placement_cost_lower_bound<D: DistanceOracle + ?Sized>(
    dm: &D,
    agg: &AttachAggregates,
    sfc_len: usize,
) -> Cost {
    let switches = agg.switches();
    let m = switches.len();
    if sfc_len == 0 || m < sfc_len {
        return INFINITY;
    }
    if sfc_len == 1 {
        return switches
            .iter()
            .map(|&x| sat_add(agg.a_in(x), agg.a_out(x)))
            .min()
            .unwrap_or(INFINITY);
    }
    let rate = agg.total_rate();
    let mut c_min = INFINITY;
    for &i in switches {
        for &j in switches {
            if i != j {
                c_min = c_min.min(dm.cost(i, j));
            }
        }
    }
    let segments = u64::try_from(sfc_len - 1).unwrap_or(u64::MAX);
    let seg_lb = sat_mul(segments, c_min);
    let mut lb = u64::MAX; // above every saturated bound
    for &i in switches {
        for &j in switches {
            if i == j {
                continue;
            }
            let chain_lb = dm.cost(i, j).max(seg_lb);
            let bound = sat_add(sat_add(agg.a_in(i), sat_mul(rate, chain_lb)), agg.a_out(j));
            lb = lb.min(bound);
        }
    }
    lb.min(INFINITY)
}

pub(crate) fn dp_placement_inner<D: DistanceOracle + ?Sized>(
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
    closure: Option<&MetricClosure>,
) -> Result<(Placement, Cost), PlacementError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_DP);
    check_inputs(w, sfc, agg)?;
    let n = sfc.len();
    let switches = agg.switches();
    let result = match n {
        1 => reachable(
            switches
                .iter()
                .map(|&x| (sat_add(agg.a_in(x), agg.a_out(x)), x))
                .min()
                .map(|(cost, x)| (Placement::new_unchecked(vec![x]), cost)),
        ),
        2 => {
            let rate = agg.total_rate();
            let mut best: Option<(Cost, NodeId, NodeId)> = None;
            for &i in switches {
                for &j in switches {
                    if i == j {
                        continue;
                    }
                    let cost = sat_add(
                        sat_add(agg.a_in(i), sat_mul(rate, dm.cost(i, j))),
                        agg.a_out(j),
                    );
                    if best.is_none_or(|(c, ..)| cost < c) {
                        best = Some((cost, i, j));
                    }
                }
            }
            reachable(best.map(|(cost, i, j)| (Placement::new_unchecked(vec![i, j]), cost)))
        }
        _ => match closure {
            Some(c) => {
                debug_assert_eq!(
                    c.nodes(),
                    switches,
                    "metric closure does not cover the aggregate candidate set"
                );
                bb_sweep(dm, agg, c, n)
            }
            None => bb_sweep(dm, agg, &MetricClosure::over(dm, switches), n),
        },
    };
    // `strict-invariants` contract: Algorithm 3 must return an injective
    // placement (one VNF per switch, footnote 3 of the paper) whose
    // reported cost matches an independent aggregate re-evaluation.
    #[cfg(feature = "strict-invariants")]
    if let Ok((p, c)) = &result {
        assert!(
            p.is_injective(),
            "dp_placement returned a non-injective placement: {:?}",
            p.switches()
        );
        assert_eq!(
            *c,
            agg.comm_cost(dm, p),
            "dp_placement's reported cost disagrees with re-evaluation"
        );
    }
    result
}

/// SplitMix64 finalizer: the commutative row-fingerprint mixer of
/// [`interchange_classes`]. Any collision is caught by the exact row
/// comparison that follows, so only determinism matters here.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Groups closure indices into interchangeability classes: `u ≡ v` iff
/// `a_in[u] = a_in[v]`, `a_out[u] = a_out[v]`, and the closure rows agree
/// off the pair (`c(u, x) = c(v, x)` for every `x ∉ {u, v}`). With a
/// symmetric closure this is an equivalence relation (DESIGN.md §8), and
/// the in-class distance `c(u, v)` is constant over distinct class pairs
/// — which is exactly what makes every sweep bound constant over `S × T`.
///
/// Candidates are bucketed by `(a_in, a_out, commutative row hash)` and
/// verified with an exact row comparison against each open class
/// representative, so hash collisions cost time, never correctness.
/// Classes come back ordered by first member, members ascending —
/// deterministic regardless of hash values. Arbitrary (asymmetric
/// workload, irregular fabric) inputs simply degrade to singletons.
pub(crate) fn interchange_classes(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
) -> Vec<Vec<usize>> {
    interchange_classes_with_hashes(closure, a_in, a_out, &closure_row_hashes(closure))
}

/// Full-row commutative fingerprints for [`interchange_classes`]:
/// interchangeable rows are equal as multisets (the off-pair entries match
/// pointwise, the pair entries are `0` and the symmetric `c(u, v)` on both
/// sides). Split out because the fingerprints depend only on the closure —
/// not the aggregates — so the warm path's [`crate::warm::BoundCache`]
/// computes them once per candidate set and reclassifies dirty epochs
/// against the cached values.
pub(crate) fn closure_row_hashes(closure: &MetricClosure) -> Vec<u64> {
    let m = closure.len();
    (0..m)
        .map(|i| (0..m).fold(0u64, |acc, x| acc.wrapping_add(mix(closure.cost_ix(i, x)))))
        .collect()
}

/// [`interchange_classes`] against caller-cached row fingerprints, which
/// must equal [`closure_row_hashes`] of `closure` (checked in debug
/// builds). The fingerprint is a bucketing accelerator only — membership
/// is decided by the exact row comparison — so correct hashes make the
/// result identical to a from-scratch classification.
pub(crate) fn interchange_classes_with_hashes(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
    hashes: &[u64],
) -> Vec<Vec<usize>> {
    let m = closure.len();
    debug_assert_eq!(hashes.len(), m, "row fingerprints do not cover the closure");
    let mut keyed: Vec<(Cost, Cost, u64, usize)> =
        (0..m).map(|i| (a_in[i], a_out[i], hashes[i], i)).collect();
    keyed.sort_unstable();
    let rows_agree = |u: usize, v: usize| {
        (0..m).all(|x| x == u || x == v || closure.cost_ix(u, x) == closure.cost_ix(v, x))
    };
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut start = 0;
    while start < m {
        let bucket = (keyed[start].0, keyed[start].1, keyed[start].2);
        let mut end = start;
        while end < m && (keyed[end].0, keyed[end].1, keyed[end].2) == bucket {
            end += 1;
        }
        // Classes opened for this bucket; the transitivity of ≡ makes a
        // representative comparison sufficient.
        let first_new = classes.len();
        for &(.., i) in &keyed[start..end] {
            match (first_new..classes.len()).find(|&ci| rows_agree(classes[ci][0], i)) {
                Some(ci) => classes[ci].push(i),
                None => classes.push(vec![i]),
            }
        }
        start = end;
    }
    // Bucket order depends on aggregate values; re-anchor to index order.
    classes.sort_unstable_by_key(|c| c[0]);
    classes
}

/// Below this candidate count the sweep skips [`interchange_classes`]
/// bucketing and every switch is its own class. The O(m²) fingerprint
/// fold plus bucket verification costs more than the bound sharing
/// recovers on small fabrics (k = 4 has 20 switch candidates, k = 8 has
/// 80 — both finish in tens of microseconds either way), while k = 16
/// (320) and k = 32 (1,280) sit far above the line and keep full orbit
/// compression. Singleton classes are a valid interchangeability
/// partition and every pruning decision compares the same bound values,
/// so the cutoff cannot change any result (see the module docs).
pub(crate) const ORBIT_MIN_SWITCHES: usize = 128;

fn singleton_classes(m: usize) -> Vec<Vec<usize>> {
    (0..m).map(|i| vec![i]).collect()
}

/// The sweep's class partition behind the [`ORBIT_MIN_SWITCHES`] cutoff:
/// singletons below it, [`interchange_classes`] at or above.
pub(crate) fn sweep_classes(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
) -> Vec<Vec<usize>> {
    if closure.len() < ORBIT_MIN_SWITCHES {
        singleton_classes(closure.len())
    } else {
        interchange_classes(closure, a_in, a_out)
    }
}

/// [`sweep_classes`] against caller-cached row fingerprints; `hashes` is
/// never read below the cutoff (the warm cache leaves it empty there).
pub(crate) fn sweep_classes_with_hashes(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
    hashes: &[u64],
) -> Vec<Vec<usize>> {
    if closure.len() < ORBIT_MIN_SWITCHES {
        singleton_classes(closure.len())
    } else {
        interchange_classes_with_hashes(closure, a_in, a_out, hashes)
    }
}

/// `class_size[i]`: how many members index `i`'s class has — the "was
/// this prune shared with siblings" test for the orbit counter.
pub(crate) fn class_sizes(classes: &[Vec<usize>], m: usize) -> Vec<u32> {
    let mut class_size = vec![0u32; m];
    for class in classes {
        let size = u32::try_from(class.len()).unwrap_or(u32::MAX);
        for &i in class {
            class_size[i] = size;
        }
    }
    class_size
}

/// The admissible bound `lb(i, j)` of the module docs over raw slices, so
/// the sweep context and the warm bound cache share one formula.
fn pair_bound_raw(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
    rate: u64,
    seg_lb: Cost,
    s_ix: usize,
    t_ix: usize,
) -> Cost {
    let chain_lb = closure.cost_ix(s_ix, t_ix).max(seg_lb);
    sat_add(sat_add(a_in[s_ix], sat_mul(rate, chain_lb)), a_out[t_ix])
}

/// Best-bound-first egress order: `(min_{s≠t} lb(s, t), t_ix)` sorted
/// ascending, so the cheapest egress is solved first, the incumbent is
/// near-optimal almost immediately, and the tail of the order prunes
/// wholesale. The per-egress bound is constant over an egress class and
/// constant over each ingress class, so it is evaluated once per class
/// *pair* — O(classes²) instead of O(m²) — and shared by every member;
/// the resulting vector is value-identical to the per-pair scan, so the
/// sort order (and with it the whole sweep) is unchanged.
pub(crate) fn egress_order(
    closure: &MetricClosure,
    a_in: &[Cost],
    a_out: &[Cost],
    classes: &[Vec<usize>],
    rate: u64,
    seg_lb: Cost,
) -> Vec<(Cost, usize)> {
    let mut order: Vec<(Cost, usize)> = Vec::with_capacity(closure.len());
    for (ti, t_class) in classes.iter().enumerate() {
        let t_rep = t_class[0];
        let mut bound = u64::MAX;
        for (si, s_class) in classes.iter().enumerate() {
            let s_rep = if si != ti {
                s_class[0]
            } else if s_class.len() > 1 {
                // In-class pair: the constant class diameter as c(s, t).
                s_class[1]
            } else {
                continue; // the lone member is the egress itself
            };
            bound = bound.min(pair_bound_raw(
                closure, a_in, a_out, rate, seg_lb, s_rep, t_rep,
            ));
        }
        for &t_ix in t_class {
            order.push((bound, t_ix));
        }
    }
    order.sort_unstable();
    order
}

/// Shared read-only state of one branch-and-bound sweep, plus the
/// incumbent the workers race against.
pub(crate) struct SweepCtx<'a, D: DistanceOracle + ?Sized> {
    pub(crate) dm: &'a D,
    pub(crate) agg: &'a AttachAggregates,
    pub(crate) closure: &'a MetricClosure,
    pub(crate) n: usize,
    pub(crate) rate: u64,
    /// `(n−1) · c_min`: every chain has `n−1` segments between distinct
    /// switches, each at least the cheapest closure edge.
    pub(crate) seg_lb: Cost,
    /// `A_in` / `A_out` re-indexed by closure index.
    pub(crate) a_in: &'a [Cost],
    pub(crate) a_out: &'a [Cost],
    /// Interchangeability classes of the closure indices
    /// ([`sweep_classes`]): every bound is evaluated once per class.
    pub(crate) classes: &'a [Vec<usize>],
    /// [`class_sizes`] of `classes`.
    pub(crate) class_size: &'a [u32],
    /// Cross-epoch interior-chain memo; `None` on cold sweeps. See
    /// [`InteriorMemo`] for why consulting it preserves bit-identity.
    pub(crate) memo: Option<&'a InteriorMemo>,
    /// Cheapest exact candidate cost seen so far (`u64::MAX` until the
    /// first candidate — or the warm path's seeded incumbent cost; every
    /// real bound saturates at [`INFINITY`], which is far below `MAX`, so
    /// a cold sweep prunes nothing before a candidate exists).
    pub(crate) incumbent: AtomicU64,
}

impl<D: DistanceOracle + ?Sized> SweepCtx<'_, D> {
    /// The admissible bound `lb(i, j)` of the module docs.
    fn pair_bound(&self, s_ix: usize, t_ix: usize) -> Cost {
        pair_bound_raw(
            self.closure,
            self.a_in,
            self.a_out,
            self.rate,
            self.seg_lb,
            s_ix,
            t_ix,
        )
    }

    /// Fills `scratch.chain` with the full candidate chain for one
    /// `(s_ix, egress)` row — ingress, `n−2` interior switches, egress —
    /// consulting the interior memo when one is attached. Returns `false`
    /// when the stroll solver cannot produce `n−2` distinct interior
    /// switches for the pair; the memo remembers failures too, so a warm
    /// sweep never re-runs a known-dead row.
    fn fill_chain(
        &self,
        s_ix: usize,
        t_ix: usize,
        egress: NodeId,
        scratch: &mut EgressScratch,
        memo_slot: Option<&mut MemoSlot>,
    ) -> bool {
        scratch.chain.clear();
        scratch.chain.push(self.closure.node(s_ix));
        if let Some(slot) = memo_slot {
            if slot.is_empty() {
                self.fill_slot(t_ix, scratch, slot);
            }
            match &slot[s_ix] {
                // Memo hit: the chain is closure-determined, so the
                // cached interior is exactly what the DP would rebuild.
                Some(interior) => scratch.chain.extend_from_slice(interior),
                None => return false,
            }
        } else {
            let Ok(sol) = scratch.solver.solve(self.closure, s_ix, self.n - 2) else {
                return false;
            };
            scratch.chain.extend_from_slice(sol.first_n(self.n - 2));
        }
        scratch.chain.push(egress);
        true
    }

    /// Densely solves every ingress row of egress `t_ix` into its memo
    /// slot. The table growth behind the first solve dominates the DP's
    /// cost and reconstructions are nearly free once grown, so completing
    /// the slot costs barely more than the one row that triggered it —
    /// and an epoch whose pruning boundary shifted afterwards hits the
    /// memo instead of re-growing the egress's tables from scratch.
    fn fill_slot(&self, t_ix: usize, scratch: &mut EgressScratch, slot: &mut MemoSlot) {
        let m = self.closure.len();
        slot.reserve_exact(m);
        for s in 0..m {
            slot.push(if s == t_ix {
                None // a chain never starts at its own egress
            } else {
                match scratch.solver.solve(self.closure, s, self.n - 2) {
                    Ok(sol) => Some(Box::from(sol.first_n(self.n - 2))),
                    Err(_) => None,
                }
            });
        }
    }

    /// Best placement whose egress is closure node `t_ix`, skipping every
    /// ingress row whose bound strictly exceeds the incumbent. May return
    /// a non-minimal candidate for an egress that cannot win anyway (its
    /// pruned rows all cost strictly more than the optimum), never for one
    /// that can — see the module docs.
    ///
    /// Ingress rows are visited class by class: the bound is constant
    /// across a class, so one representative comparison admits or prunes
    /// the whole class. Surviving members still re-check against the
    /// (monotonically falling) incumbent before their individual solve.
    /// Which rows get solved can differ from a per-row-only test — an
    /// incumbent improvement mid-class prunes later siblings — but every
    /// pruned row satisfied `lb > incumbent ≥ optimum` at its test, so
    /// optimum-cost candidates (which have `lb ≤ optimum`) are never
    /// dropped and the per-sweep minimum is unchanged.
    fn best_for_egress(
        &self,
        t_ix: usize,
        scratch: &mut EgressScratch,
    ) -> Option<(Cost, Placement)> {
        scratch.solver.reset(self.closure, t_ix);
        let egress = self.closure.node(t_ix);
        // Held for the whole row loop: this worker is the only visitor of
        // egress `t_ix`, so the lock never blocks (see [`InteriorMemo`]).
        let mut memo_slot = self.memo.and_then(|m| m.slot(t_ix));
        let mut best_cost: Option<Cost> = None;
        let mut orbit_skipped = 0u64;
        for class in self.classes {
            // A valid bound for every member needs an ingress ≠ t_ix; for
            // the class containing t_ix the next member stands in (the
            // in-class distance is constant, so any sibling works).
            let rep = match class.iter().find(|&&s| s != t_ix) {
                Some(&rep) => rep,
                None => continue, // singleton {t_ix}: no ingress rows here
            };
            if self.pair_bound(rep, t_ix) > self.incumbent.load(Ordering::Acquire) {
                if class.len() > 1 {
                    // One comparison pruned a multi-member class.
                    orbit_skipped +=
                        u64::try_from(class.len() - usize::from(class.contains(&t_ix)))
                            .unwrap_or(u64::MAX);
                }
                continue;
            }
            for &s_ix in class {
                if s_ix == t_ix {
                    continue;
                }
                if self.pair_bound(s_ix, t_ix) > self.incumbent.load(Ordering::Acquire) {
                    continue;
                }
                if !self.fill_chain(s_ix, t_ix, egress, scratch, memo_slot.as_deref_mut()) {
                    continue;
                }
                let cost = self.agg.comm_cost_switches(self.dm, &scratch.chain);
                // AcqRel publishes the tighter bound to sibling workers as
                // soon as they next load it — pruning stays monotone.
                self.incumbent.fetch_min(cost, Ordering::AcqRel);
                let better = match best_cost {
                    None => true,
                    Some(c) => {
                        cost < c
                            || (cost == c
                                && scratch.chain.as_slice() < scratch.best_chain.as_slice())
                    }
                };
                if better {
                    best_cost = Some(cost);
                    std::mem::swap(&mut scratch.chain, &mut scratch.best_chain);
                }
            }
        }
        if orbit_skipped > 0 {
            // One batched add per egress — no atomics inside the row loop.
            ppdc_obs::global().add(ppdc_obs::names::SOLVER_DP_ORBIT_PRUNED, orbit_skipped);
        }
        best_cost.map(|c| (c, Placement::new_unchecked(scratch.best_chain.clone())))
    }

    /// Runs the parallel egress sweep over a pre-sorted `(bound, t_ix)`
    /// order and reduces to the lexicographically-least optimum. The order
    /// must come from [`egress_order`] (possibly with a warm-path prefix
    /// filter applied — dropping entries whose bound exceeds the seeded
    /// incumbent is behavior-identical to pruning them here, because the
    /// incumbent only falls).
    pub(crate) fn run_sweep(
        &self,
        order: &[(Cost, usize)],
    ) -> Result<(Placement, Cost), PlacementError> {
        // The vendored rayon parallelizes owned `Vec`s only; one m-entry
        // copy per solve is noise next to the stroll fills behind it.
        let results: Vec<Option<(Cost, Placement)>> = order
            .to_vec()
            .into_par_iter()
            .map(|(bound, t_ix)| {
                if bound > self.incumbent.load(Ordering::Acquire) {
                    let obs = ppdc_obs::global();
                    obs.add(ppdc_obs::names::SOLVER_DP_EGRESS_PRUNED, 1);
                    if self.class_size[t_ix] > 1 {
                        // The bound that killed this egress was computed
                        // once for its whole class.
                        obs.add(ppdc_obs::names::SOLVER_DP_ORBIT_PRUNED, 1);
                    }
                    return None;
                }
                EGRESS_SCRATCH.with(|cell| match cell.try_borrow_mut() {
                    Ok(mut scratch) => self.best_for_egress(t_ix, &mut scratch),
                    // Re-entrant worker on this thread (no such path
                    // today): fresh scratch instead of a borrow panic.
                    Err(_) => self.best_for_egress(t_ix, &mut EgressScratch::default()),
                })
            })
            .collect();
        reachable(
            results
                .into_iter()
                .flatten()
                .min_by(|a, b| {
                    a.0.cmp(&b.0)
                        .then_with(|| a.1.switches().cmp(b.1.switches()))
                })
                .map(|(c, p)| (p, c)),
        )
    }
}

/// The `n ≥ 3` best-first sweep over all egresses.
fn bb_sweep<D: DistanceOracle + ?Sized>(
    dm: &D,
    agg: &AttachAggregates,
    closure: &MetricClosure,
    n: usize,
) -> Result<(Placement, Cost), PlacementError> {
    let m = closure.len();
    let c_min = closure.min_pair_cost();
    let interior = u64::try_from(n - 1).unwrap_or(u64::MAX);
    let rate = agg.total_rate();
    let seg_lb = sat_mul(interior, c_min);
    let a_in: Vec<Cost> = (0..m).map(|i| agg.a_in(closure.node(i))).collect();
    let a_out: Vec<Cost> = (0..m).map(|i| agg.a_out(closure.node(i))).collect();
    let classes = sweep_classes(closure, &a_in, &a_out);
    let class_size = class_sizes(&classes, m);
    let order = egress_order(closure, &a_in, &a_out, &classes, rate, seg_lb);
    let ctx = SweepCtx {
        dm,
        agg,
        closure,
        n,
        rate,
        seg_lb,
        a_in: &a_in,
        a_out: &a_out,
        classes: &classes,
        class_size: &class_size,
        memo: None,
        incumbent: AtomicU64::new(u64::MAX),
    };
    ctx.run_sweep(&order)
}

/// The pre-pruning exhaustive (ingress, egress) sweep, kept verbatim as the
/// bit-identity oracle for the branch-and-bound solver: `tests/proptests.rs`
/// asserts both return the same cost **and** switch sequence on random
/// workloads, and the benches use it as the baseline.
///
/// # Errors
///
/// Same conditions as [`dp_placement`].
pub fn dp_placement_exhaustive<D: DistanceOracle + ?Sized>(
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
) -> Result<(Placement, Cost), PlacementError> {
    if sfc.len() < 3 {
        // The small-n paths have no pruning to ablate.
        return dp_placement_inner(dm, w, sfc, agg, None);
    }
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_DP);
    check_inputs(w, sfc, agg)?;
    let n = sfc.len();
    let switches = agg.switches();
    let closure = MetricClosure::over(dm, switches);
    let results: Vec<(Cost, Placement)> = (0..switches.len())
        .into_par_iter()
        .filter_map(|t_ix| best_for_egress_exhaustive(dm, agg, &closure, t_ix, n))
        .collect();
    reachable(
        results
            .into_iter()
            .min_by(|a, b| {
                a.0.cmp(&b.0)
                    .then_with(|| a.1.switches().cmp(b.1.switches()))
            })
            .map(|(c, p)| (p, c)),
    )
}

/// Best placement whose egress is closure node `t_ix`, every ingress row
/// solved unconditionally (the oracle counterpart of
/// [`SweepCtx::best_for_egress`]).
fn best_for_egress_exhaustive<D: DistanceOracle + ?Sized>(
    dm: &D,
    agg: &AttachAggregates,
    closure: &MetricClosure,
    t_ix: usize,
    n: usize,
) -> Option<(Cost, Placement)> {
    let sources: Vec<usize> = (0..closure.len()).filter(|&i| i != t_ix).collect();
    let solutions = dp_stroll_all_sources(closure, &sources, t_ix, n - 2);
    let egress = closure.node(t_ix);
    let mut best: Option<(Cost, Placement)> = None;
    for (&s_ix, sol) in sources.iter().zip(&solutions) {
        let Ok(sol) = sol else { continue };
        let ingress = closure.node(s_ix);
        let mut chain = Vec::with_capacity(n);
        chain.push(ingress);
        chain.extend_from_slice(sol.first_n(n - 2));
        chain.push(egress);
        let p = Placement::new_unchecked(chain);
        let cost = agg.comm_cost(dm, &p);
        if best
            .as_ref()
            .is_none_or(|(c, bp)| cost < *c || (cost == *c && p.switches() < bp.switches()))
        {
            best = Some((cost, p));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::comm_cost;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::DistanceMatrix;

    #[test]
    fn lower_bound_is_admissible_and_tight_for_short_chains() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..hosts.len() {
            w.add_pair(
                hosts[i],
                hosts[(i * 7 + 3) % hosts.len()],
                1 + (i % 9) as u64,
            );
        }
        let agg = AttachAggregates::build(&g, &dm, &w);
        for n in 1..=4usize {
            let sfc = Sfc::of_len(n).unwrap();
            let (_, opt) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
            let lb = placement_cost_lower_bound(&dm, &agg, n);
            assert!(lb <= opt, "n={n}: lb {lb} > optimum {opt}");
            if n <= 2 {
                assert_eq!(lb, opt, "n={n}: the pairwise bound is exact");
            }
        }
        // Restricted candidate sets bound their restricted optimum too.
        let all: Vec<NodeId> = g.switches().collect();
        let subset: Vec<NodeId> = all.iter().copied().step_by(2).collect();
        let ragg = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let sfc = Sfc::of_len(3).unwrap();
        let (_, ropt) = dp_placement(&dm, &w, &sfc, &ragg).unwrap();
        let rlb = placement_cost_lower_bound(&dm, &ragg, 3);
        assert!(rlb <= ropt);
    }

    #[test]
    fn lower_bound_degenerate_inputs_are_vacuous() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 5);
        let agg = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(placement_cost_lower_bound(&dm, &agg, 0), INFINITY);
        // linear(3) has 3 switches; a 4-VNF chain cannot be placed.
        assert_eq!(placement_cost_lower_bound(&dm, &agg, 4), INFINITY);
    }

    #[test]
    fn example1_initial_placement() {
        // Paper Fig. 3(a): λ = ⟨100, 1⟩ on the 5-switch linear PPDC.
        // The optimal 2-VNF placement costs 410 (f1@s1, f2@s2 is one
        // optimum; the mirrored f1@s5, f2@s4 is the other).
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        let sfc = Sfc::of_len(2).unwrap();
        let (p, cost) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        assert_eq!(cost, 410);
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        // After the rate swap the optimum mirrors to 410 as well.
        w.set_rates(&[1, 100]).unwrap();
        let (p2, cost2) =
            dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        assert_eq!(cost2, 410);
        assert_ne!(p.switches(), p2.switches());
    }

    #[test]
    fn single_vnf_is_weighted_median() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 1);
        let sfc = Sfc::of_len(1).unwrap();
        let (p, cost) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        // Any switch on the h1–h2 line gives cost 6.
        assert_eq!(cost, 6);
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn three_vnfs_on_linear() {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 10);
        let sfc = Sfc::of_len(3).unwrap();
        let (p, cost) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        // Three consecutive switches on the line: still the plain 6-hop
        // route, cost 60.
        assert_eq!(cost, 60);
        assert_eq!(cost, comm_cost(&dm, &w, &p));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn reported_cost_is_exact_eq1_on_fat_tree() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 9);
        w.add_pair(hosts[2], hosts[13], 4);
        w.add_pair(hosts[7], hosts[7], 70);
        for n in 1..=5 {
            let sfc = Sfc::of_len(n).unwrap();
            let (p, cost) =
                dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
            assert_eq!(cost, comm_cost(&dm, &w, &p), "n={n}");
            assert_eq!(p.len(), n);
        }
    }

    #[test]
    fn pruned_sweep_matches_exhaustive_oracle() {
        // The branch-and-bound must agree with the exhaustive sweep bit
        // for bit — cost AND switch sequence — across chain lengths and
        // fabrics (proptests cover random workloads on top of this).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..8 {
            w.add_pair(hosts[i], hosts[15 - i], (i as u64).pow(2) + 3);
        }
        for n in 3..=6 {
            let sfc = Sfc::of_len(n).unwrap();
            let agg = AttachAggregates::build(&g, &dm, &w);
            let (p_bb, c_bb) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
            let (p_ex, c_ex) = dp_placement_exhaustive(&dm, &w, &sfc, &agg).unwrap();
            assert_eq!(c_bb, c_ex, "n={n}");
            assert_eq!(p_bb.switches(), p_ex.switches(), "n={n}");
        }
    }

    #[test]
    fn interchange_classes_recover_fat_tree_orbits() {
        // With a uniform workload surface (all attach terms zero), the
        // interchangeability classes over a k=4 fat-tree's switches are
        // exactly the automorphism orbits that keep exact pruning sound:
        // cores merge per core group, edges merge per pod, and aggregation
        // switches stay singletons (agg `a` is 1 hop from core group `a`
        // but 3 hops from every other group, so agg rows never agree).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let closure = MetricClosure::over(&dm, &switches);
        let zero = vec![0u64; switches.len()];
        let classes = interchange_classes(&closure, &zero, &zero);
        // Closure index order: cores 0..4, then per pod ⟨agg, agg, edge,
        // edge⟩ at 4 + 4p.
        let mut expect: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3]];
        for p in 0..4 {
            let base = 4 + 4 * p;
            expect.push(vec![base]);
            expect.push(vec![base + 1]);
            expect.push(vec![base + 2, base + 3]);
        }
        expect.sort_unstable_by_key(|c| c[0]);
        assert_eq!(classes, expect);
        // Distinct attach terms split classes back apart.
        let mut a_in = zero.clone();
        a_in[0] = 7;
        let split = interchange_classes(&closure, &a_in, &zero);
        assert_eq!(split.len(), classes.len() + 1);
        assert!(split.contains(&vec![0]));
    }

    #[test]
    fn sweep_classes_cutoff_is_singletons_below_orbits_above() {
        // k = 4 (20 switch candidates) sits below ORBIT_MIN_SWITCHES: the
        // sweep partition is all singletons and no fingerprints are
        // needed. k = 16 (320) sits above: the partition is exactly the
        // full interchangeability classification, hashed or not.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        assert!(switches.len() < ORBIT_MIN_SWITCHES);
        let closure = MetricClosure::over(&dm, &switches);
        let zero = vec![0u64; switches.len()];
        let small = sweep_classes(&closure, &zero, &zero);
        assert_eq!(
            small,
            (0..switches.len()).map(|i| vec![i]).collect::<Vec<_>>()
        );
        assert_eq!(
            small,
            sweep_classes_with_hashes(&closure, &zero, &zero, &[])
        );

        let ft = ppdc_topology::FatTree::build(16).unwrap();
        let oracle = ppdc_topology::FatTreeOracle::new(&ft);
        let big_switches: Vec<NodeId> = ft.graph().switches().collect();
        assert!(big_switches.len() >= ORBIT_MIN_SWITCHES);
        let big_closure = MetricClosure::over(&oracle, &big_switches);
        let zeros = vec![0u64; big_switches.len()];
        let orbits = interchange_classes(&big_closure, &zeros, &zeros);
        assert!(orbits.len() < big_switches.len(), "k=16 must compress");
        assert_eq!(orbits, sweep_classes(&big_closure, &zeros, &zeros));
        let hashes = closure_row_hashes(&big_closure);
        assert_eq!(
            orbits,
            sweep_classes_with_hashes(&big_closure, &zeros, &zeros, &hashes)
        );
    }

    #[test]
    fn oracle_driven_solve_matches_dense_exhaustive() {
        // The whole point of the trait: an analytic fat-tree oracle fed to
        // the orbit-compressed B&B must reproduce the dense-matrix
        // exhaustive sweep bit for bit.
        let ft = ppdc_topology::FatTree::build(4).unwrap();
        let oracle = ppdc_topology::FatTreeOracle::new(&ft);
        let g = ft.graph();
        let dm = DistanceMatrix::build(g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for (i, &h) in hosts.iter().enumerate() {
            w.add_pair(h, hosts[(i * 7 + 3) % hosts.len()], (3 * i as u64) % 11 + 1);
        }
        for n in 1..=5 {
            let sfc = Sfc::of_len(n).unwrap();
            let agg = AttachAggregates::build(g, &oracle, &w);
            let (p_o, c_o) = dp_placement(&oracle, &w, &sfc, &agg).unwrap();
            let agg_d = AttachAggregates::build(g, &dm, &w);
            let (p_d, c_d) = dp_placement_exhaustive(&dm, &w, &sfc, &agg_d).unwrap();
            assert_eq!(c_o, c_d, "n={n}");
            assert_eq!(p_o.switches(), p_d.switches(), "n={n}");
        }
    }

    #[test]
    fn closure_scratch_refill_tracks_the_candidate_set() {
        // The thread-local closure is refilled on every solve, so
        // alternating candidate sets and distance oracles on one thread
        // must each match a solve over a freshly built closure — no
        // caller-side invalidation exists to forget.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[1], hosts[9], 17);
        w.add_pair(hosts[4], hosts[2], 3);
        let sfc = Sfc::of_len(4).unwrap();
        let all: Vec<NodeId> = g.switches().collect();
        let subset: Vec<NodeId> = all.iter().copied().step_by(2).collect();
        let full = AttachAggregates::build(&g, &dm, &w);
        let restricted = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let mut faults = ppdc_topology::FaultSet::new(&g);
        faults.fail_node(all[0]).unwrap();
        let g_cut = g.degraded_view(&faults);
        let dm_cut = DistanceMatrix::build(&g_cut);
        let cut = AttachAggregates::build(&g_cut, &dm_cut, &w);
        for _ in 0..2 {
            for (dm, agg) in [(&dm, &full), (&dm, &restricted), (&dm_cut, &cut)] {
                let (p1, c1) = dp_placement(dm, &w, &sfc, agg).unwrap();
                let (p2, c2) = dp_placement_exhaustive(dm, &w, &sfc, agg).unwrap();
                assert_eq!(c1, c2);
                assert_eq!(p1.switches(), p2.switches());
            }
        }
    }

    #[test]
    fn rejects_empty_workload() {
        let (g, ..) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let sfc = Sfc::of_len(2).unwrap();
        assert!(matches!(
            dp_placement(
                &dm,
                &Workload::new(),
                &sfc,
                &AttachAggregates::build(&g, &dm, &Workload::new())
            ),
            Err(PlacementError::NoFlows)
        ));
    }

    #[test]
    fn rejects_too_long_sfc() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 1);
        let sfc = Sfc::of_len(4).unwrap();
        assert!(matches!(
            dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)),
            Err(PlacementError::Model(_))
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..6 {
            w.add_pair(hosts[i], hosts[15 - i], (i as u64 + 1) * 13);
        }
        let sfc = Sfc::of_len(4).unwrap();
        let (p1, c1) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        let (p2, c2) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(p1.switches(), p2.switches());
    }
}

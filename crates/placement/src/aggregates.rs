//! Attach-cost aggregates: the workload-wide ingress/egress cost arrays.
//!
//! `C_a(p)` (Eq. 1) decomposes into a chain term shared by all flows and a
//! per-flow attachment term that depends only on the ingress and egress
//! switches:
//!
//! `C_a(p) = Σλ · chain(p)  +  A_in[p(1)]  +  A_out[p(n)]`
//!
//! where `A_in[x] = Σ_i λ_i·c(s(v_i), x)` and
//! `A_out[x] = Σ_i λ_i·c(x, s(v'_i))`. Precomputing the two arrays makes
//! evaluating a candidate placement `O(n)` regardless of the number of
//! flows — the enabling trick for Algorithm 3's `O(|V_s|²)` pair sweep and
//! the branch-and-bound of Algorithm 4.
//!
//! # Attach-node aggregation
//!
//! Flows enter the fabric only at their VMs' attach nodes, so the sums
//! group by endpoint host:
//!
//! `A_in[x] = Σ_h R_out[h]·c(h, x)` with `R_out[h] = Σ_{s(v_i)=h} λ_i`
//!
//! (and symmetrically `R_in[h]` for `A_out`). Folding the workload into the
//! per-host rate masses first makes [`AttachAggregates::build`]
//! `O(|flows| + |V_h|·|V_s|)` instead of `O(|flows|·|V_s|)` — many VMs
//! share an attach node, and a production workload has orders of magnitude
//! more flows than hosts.
//!
//! A host whose only neighbour is a switch `t` (every fat-tree host: its
//! ToR) satisfies `c(h, x) = w(h, t) + c(t, x)` exactly, so the host masses
//! fold once more, onto their ToR, plus one per-candidate constant
//! `Σ_h R_out[h]·w(h, t)`. That is k/2 fewer oracle rows on a fat-tree.
//! All arithmetic is exact (`u128` on builds, checked `i128` on folds,
//! clamped at [`INFINITY`]), so regrouping the sum changes nothing: the
//! arrays are bit-identical to the flow-by-flow ones (kept as
//! [`AttachAggregates::build_flow_by_flow`] for tests and benches).
//!
//! The same grouping makes TOM epochs incremental: when only rates change
//! (hosts and distances fixed), the caller reduces the moved flows to
//! per-host mass changes ([`HostMassDelta`]; both epoch engines do this
//! in one accumulator, the flow store's), and
//! [`AttachAggregates::try_apply_mass_deltas`] folds those into per-anchor
//! masses and adds `Δmass·c(t, x)` to each switch —
//! `O(|touched anchors|·|V_s|)` per epoch instead of a full rebuild.
//!
//! The costs `c(t, x)` a fold multiplies by never change while the
//! aggregates live, so each anchor keeps them as one row over the
//! candidate switches ([`AnchorRows`]). A build stores the rows its own
//! sweep queries; an anchor without mass at build time gets its row on
//! the first fold that moves it. From then on a fold is
//! `acc[x] += Δmass·row[x]` over contiguous rows, anchor by anchor, with
//! no oracle query. One row serves both sides: every [`DistanceOracle`]
//! answers for an undirected fabric, so `c(x, t) = c(t, x)` (the
//! `strict-invariants` build checks each stored row both ways, and
//! [`ppdc_topology::DistanceMatrix`] checks its own symmetry there).

use ppdc_model::{Placement, Workload};
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId, NodeKind, INFINITY};

/// One `λ·c(h, x)` attachment term of the flow-by-flow oracle. The
/// product saturates, and [`attach_acc`] clamps the running sum at
/// [`INFINITY`]: a positive mass across an unreachable distance (or any
/// sum that large) lands on exactly the sentinel, and a zero mass
/// contributes 0 regardless of reachability.
#[inline]
fn attach_term(mass: u64, cost: Cost) -> Cost {
    mass.saturating_mul(cost)
}

/// Saturating aggregate accumulation: any unreachable contribution pins the
/// aggregate at exactly [`INFINITY`] (the documented sentinel) instead of
/// wrapping.
#[inline]
fn attach_acc(acc: Cost, mass: u64, cost: Cost) -> Cost {
    acc.saturating_add(attach_term(mass, cost)).min(INFINITY)
}

/// Clamps an exact (saturating) `u128` attachment sum to the
/// [`INFINITY`] sentinel.
#[inline]
fn clamp_attach(sum: u128) -> Cost {
    Cost::try_from(sum.min(u128::from(INFINITY))).unwrap_or(INFINITY)
}

/// Every node's *anchor*: the node whose distances stand in for its own,
/// and the cost of reaching it. A host whose only neighbour is `t` reaches
/// every other node through `t`, so `c(h, x) = w(h, t) + c(t, x)` and
/// `c(x, h) = c(x, t) + w(t, h)` exactly (DESIGN.md §9); it anchors to
/// `(t, w(h, t))`. Every other node anchors to itself at 0. On an oracle
/// with an unreachable pair every node anchors to itself: there
/// `c(t, x) = INFINITY` is a sentinel, not a sum the identity could carry.
fn anchors<D: DistanceOracle + ?Sized>(g: &Graph, dm: &D) -> Vec<(NodeId, Cost)> {
    let collapse = dm.all_connected();
    g.nodes()
        .map(|h| match g.neighbors(h) {
            &[(t, w)] if collapse && g.kind(h) == NodeKind::Host => (t, w),
            _ => (h, 0),
        })
        .collect()
}

/// Typed failure of the checked mass-delta fold
/// ([`AttachAggregates::try_apply_mass_deltas`]). The aggregates are left
/// untouched when a fold fails — updates are staged and committed only
/// after every entry validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateError {
    /// A fold drove the named quantity negative or beyond `u64` range —
    /// the deltas disagree with the rates the aggregates were built from.
    OutOfRange {
        /// Which aggregate went out of range (`"A_in"`, `"A_out"`, or
        /// `"the total rate"`).
        what: &'static str,
    },
    /// An intermediate `Δmass · c` product or running sum exceeded `i128`
    /// — only reachable from adversarially large mass deltas, never from
    /// deltas derived from real `u64` rates.
    Overflow {
        /// Which aggregate the overflowing term was headed for.
        what: &'static str,
    },
}

impl std::fmt::Display for AggregateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggregateError::OutOfRange { what } => {
                write!(f, "rate deltas drove {what} negative or out of range")
            }
            AggregateError::Overflow { what } => {
                write!(f, "rate-delta fold overflowed while updating {what}")
            }
        }
    }
}

impl std::error::Error for AggregateError {}

/// One attach node's net rate-mass change, the unit the streaming engine's
/// flow store reports per batch: `d_out` is the change of `R_out[host]`
/// (the host's total source rate), `d_in` of `R_in[host]`. Deltas are
/// `i128` so any sum of per-flow `i64` deltas — including a stream that
/// transiently overshoots `u64` range before a compensating delta lands —
/// accumulates exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostMassDelta {
    /// The attach node (host) whose masses changed.
    pub host: NodeId,
    /// Net change of the host's outgoing rate mass `R_out[host]`.
    pub d_out: i128,
    /// Net change of the host's incoming rate mass `R_in[host]`.
    pub d_in: i128,
}

/// One cost row per anchor over the candidate switches, filled once from
/// the oracle and read by every later fold (see the module docs).
#[derive(Debug, Clone)]
struct AnchorRows {
    /// Per node: the index of its row, or `None` before its first use.
    slot: Vec<Option<usize>>,
    /// Row `r` is `costs[r·m..(r+1)·m]`, one cost per candidate in
    /// candidate order (`m` candidates).
    costs: Vec<Cost>,
    /// Row `r`'s largest entry, for the fold's overflow headroom test.
    max: Vec<Cost>,
}

impl AnchorRows {
    /// No rows yet over `nodes` nodes, with room for `rows` rows of `m`
    /// costs (a build knows how many anchors carry mass).
    fn with_capacity(nodes: usize, rows: usize, m: usize) -> Self {
        AnchorRows {
            slot: vec![None; nodes],
            costs: Vec::with_capacity(rows * m),
            max: Vec::with_capacity(rows),
        }
    }

    /// Anchor `a`'s row index, filling the row with `cost(x)` for every
    /// candidate `x` on first use. Returns the number of oracle queries
    /// made (`0` when the row was already stored).
    fn ensure(
        &mut self,
        a: NodeId,
        candidates: &[NodeId],
        cost: impl Fn(NodeId) -> Cost,
    ) -> (usize, u64) {
        if let Some(r) = self.slot[a.index()] {
            return (r, 0);
        }
        let r = self.max.len();
        let start = self.costs.len();
        self.costs.extend(candidates.iter().map(|&x| cost(x)));
        self.max
            .push(self.costs[start..].iter().copied().max().unwrap_or(0));
        self.slot[a.index()] = Some(r);
        (r, u64::try_from(candidates.len()).unwrap_or(u64::MAX))
    }

    /// Row `r` over `m` candidates and its largest entry.
    fn row(&self, r: usize, m: usize) -> (&[Cost], Cost) {
        (&self.costs[r * m..(r + 1) * m], self.max[r])
    }

    /// `strict-invariants` contract: every stored row equals the oracle's
    /// costs both ways, `c(a, x) = c(x, a)`, for each anchor `a` with a
    /// row — the symmetry that lets one row serve `A_in` and `A_out`.
    #[cfg(feature = "strict-invariants")]
    fn assert_match<D: DistanceOracle + ?Sized>(&self, candidates: &[NodeId], dm: &D) {
        for (a, r) in self.slot.iter().enumerate() {
            if let Some(r) = *r {
                let a = NodeId::from_index(a);
                let (row, _) = self.row(r, candidates.len());
                for (&x, &c) in candidates.iter().zip(row) {
                    assert_eq!(
                        c,
                        dm.cost(a, x),
                        "stored anchor row disagrees with the oracle"
                    );
                    assert_eq!(c, dm.cost(x, a), "the oracle is not symmetric");
                }
            }
        }
    }
}

/// One side's staged sums `base[x] + k + Σ_r d_r·row_r[x]` over the
/// candidates `x`, swept row by row over the `(row, d_r)` list: `None`
/// when a product or partial sum overflows `i128`.
///
/// When `|base[x] + k| + Σ_r |d_r|·max(row_r)` fits `i64`, so does every
/// product and every partial sum in any order, and the sweep runs in
/// wrapping `i64`, four rows per pass, exact there. Otherwise it runs in
/// checked `i128`, adding each candidate's terms in the order of the
/// switch-by-switch sum it replaced, so it overflows exactly where that
/// did. The sums agree either way.
fn sweep_side(
    base: &[Cost],
    candidates: &[NodeId],
    k: i128,
    rows: &AnchorRows,
    deltas: &[(usize, i128)],
) -> Option<Vec<i128>> {
    let m = candidates.len();
    let mut acc: Vec<i128> = candidates
        .iter()
        .map(|x| i128::from(base[x.index()]).checked_add(k))
        .collect::<Option<_>>()?;
    let reach = deltas.iter().fold(
        acc.iter().map(|s| s.unsigned_abs()).max().unwrap_or(0),
        |lim, &(r, d)| {
            lim.saturating_add(
                d.unsigned_abs()
                    .saturating_mul(u128::from(rows.row(r, m).1)),
            )
        },
    );
    if reach <= u128::from(i64::MAX.unsigned_abs()) {
        let mut narrow: Vec<i64> = acc.iter().map(|&s| i64::try_from(s).unwrap_or(0)).collect();
        // Each `d ≠ 0`, so `|d|`, every row entry and every product are at
        // most `reach`, and so is every partial sum in any order.
        let row = |&(r, d): &(usize, i128)| (rows.row(r, m).0, i64::try_from(d).unwrap_or(0));
        let mut quads = deltas.chunks_exact(4);
        for q in &mut quads {
            fold_rows_narrow(
                &mut narrow,
                [row(&q[0]), row(&q[1]), row(&q[2]), row(&q[3])],
            );
        }
        for e in quads.remainder() {
            fold_rows_narrow(&mut narrow, [row(e)]);
        }
        return Some(narrow.into_iter().map(i128::from).collect());
    }
    for &(r, d) in deltas {
        for (s, &c) in acc.iter_mut().zip(rows.row(r, m).0) {
            *s = d
                .checked_mul(i128::from(c))
                .and_then(|t| s.checked_add(t))?;
        }
    }
    Some(acc)
}

/// `acc[x] += Σ_k d_k·row_k[x]` in wrapping `i64`, `K` rows per pass over
/// `acc`; exact when the caller has bounded every entry, product and
/// partial sum below `2^63`.
#[expect(
    clippy::as_conversions,
    reason = "row entries are at most the caller's bound, below 2^63, so the cast is lossless"
)]
fn fold_rows_narrow<const K: usize>(acc: &mut [i64], rows: [(&[Cost], i64); K]) {
    let rows = rows.map(|(row, d)| (&row[..acc.len()], d));
    for (x, s) in acc.iter_mut().enumerate() {
        let mut t = *s;
        for &(row, d) in &rows {
            t = t.wrapping_add(d.wrapping_mul(row[x] as i64));
        }
        *s = t;
    }
}

/// Precomputed `A_in` / `A_out` arrays plus the total rate.
#[derive(Debug, Clone)]
pub struct AttachAggregates {
    a_in: Vec<Cost>,
    a_out: Vec<Cost>,
    total_rate: u64,
    switches: Vec<NodeId>,
    /// Per node: `(anchor, cost to it)`, see [`anchors`].
    anchor: Vec<(NodeId, Cost)>,
    /// `c(t, x) = c(x, t)` per anchor `t`: what both sides fold by.
    rows: AnchorRows,
}

impl AttachAggregates {
    /// Builds the aggregates for `w` over all switches of `g` by first
    /// folding the workload into per-anchor rate masses (see
    /// [`AttachAggregates::build_restricted`]). Bit-identical to
    /// [`AttachAggregates::build_flow_by_flow`].
    pub fn build<D: DistanceOracle + ?Sized>(g: &Graph, dm: &D, w: &Workload) -> Self {
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_BUILD);
        let switches: Vec<NodeId> = g.switches().collect();
        Self::build_restricted(g, dm, w, &switches)
    }

    /// Like [`AttachAggregates::build`], but over a caller-chosen candidate
    /// switch set — the fault-tolerant epoch loop restricts placement to
    /// the serving component's alive switches this way. `dm` must be the
    /// distance oracle of `g`.
    ///
    /// Flow rates fold into per-host masses, and those into one mass per
    /// anchor (a leaf host's ToR, or the node itself; see [`anchors`]) plus
    /// one constant
    /// `K = Σ_h R[h]·w(h, anchor)`, so the build costs one oracle row over
    /// the candidates per touched anchor: `O(|flows| + |anchors|·|V_s|)`,
    /// k/2 fewer rows than per host on a fat-tree.
    ///
    /// Unreachable attachments saturate: a candidate `x` that cannot reach
    /// some host with nonzero mass gets `A_in[x]` (or `A_out[x]`) pinned at
    /// exactly [`INFINITY`] — the documented sentinel — rather than a
    /// wrapped product, and so does any sum that reaches it. Zero-mass
    /// hosts never contribute, so masking stranded flows' rates to 0 keeps
    /// the arrays finite even on a partitioned fabric.
    /// [`AttachAggregates::try_apply_mass_deltas`] must only be fed
    /// aggregates whose entries are all finite (the hourly engine rebuilds
    /// on failure/repair events before its quiet hours fold again).
    pub fn build_restricted<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        w: &Workload,
        candidates: &[NodeId],
    ) -> Self {
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_BUILD_RESTRICTED);
        // Exact per-host sums: masses stay below 2^96 (≤ 2^32 flows of
        // u64 rates).
        let mut masses = vec![(0u128, 0u128); g.num_nodes()];
        let mut total_rate = 0u64;
        for (_, src, dst, rate) in w.iter() {
            total_rate = total_rate.saturating_add(rate);
            masses[src.index()].0 += u128::from(rate);
            masses[dst.index()].1 += u128::from(rate);
        }
        let agg = Self::fold_and_sweep(g, dm, &masses, total_rate, candidates);
        // `strict-invariants` contract: the fold over `w.iter()` must land
        // on the workload's own cached total.
        #[cfg(feature = "strict-invariants")]
        assert_eq!(
            agg.total_rate,
            w.total_rate(),
            "aggregate total rate disagrees with the workload"
        );
        agg
    }

    /// Builds the aggregates over all switches of `g` from per-node rate
    /// masses instead of a workload: `masses[n] = (R_out[n], R_in[n])`,
    /// the summed rates of the flows leaving and entering node `n`, and
    /// `total_rate = Σλ` (saturated at `u64::MAX`). The attach sums group
    /// by endpoint host, so this equals [`AttachAggregates::build`] of any
    /// workload with these masses, bit for bit: the stream engine builds
    /// its start-epoch aggregates this way, from its flow store, without
    /// a workload at the epoch's rates.
    pub fn from_host_masses<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        masses: &[(u128, u128)],
        total_rate: u64,
    ) -> Self {
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_BUILD);
        let switches: Vec<NodeId> = g.switches().collect();
        Self::fold_and_sweep(g, dm, masses, total_rate, &switches)
    }

    /// The anchor fold and switch sweep both builds share: per-node
    /// masses fold onto their anchors plus the constants
    /// `K = Σ_h R[h]·w(h, anchor)`, then each anchor with mass on either
    /// side costs one oracle row over the candidates, which is stored for
    /// the folds. Sums saturate and every term is nonnegative (a saturated
    /// sum is ≥ [`INFINITY`] anyway), so neither regrouping per-flow terms
    /// by host and anchor nor sweeping anchor by anchor changes a bit of
    /// the result.
    fn fold_and_sweep<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        masses: &[(u128, u128)],
        total_rate: u64,
        candidates: &[NodeId],
    ) -> Self {
        // `strict-invariants` contract: every unit of rate leaves one host
        // and enters one, so both mass sums equal `Σλ`.
        #[cfg(feature = "strict-invariants")]
        {
            let sum = |side: fn(&(u128, u128)) -> u128| {
                let s = masses.iter().map(side).fold(0u128, u128::saturating_add);
                u64::try_from(s).unwrap_or(u64::MAX)
            };
            assert_eq!(sum(|m| m.0), total_rate, "out-masses disagree with Σλ");
            assert_eq!(sum(|m| m.1), total_rate, "in-masses disagree with Σλ");
        }
        let n = g.num_nodes();
        let anchor = anchors(g, dm);
        let mut out_mass = vec![0u128; n];
        let mut in_mass = vec![0u128; n];
        let (mut k_in, mut k_out) = (0u128, 0u128);
        for (&(mo, mi), &(a, wa)) in masses.iter().zip(&anchor) {
            let wa = u128::from(wa);
            out_mass[a.index()] = out_mass[a.index()].saturating_add(mo);
            k_in = k_in.saturating_add(mo.saturating_mul(wa));
            in_mass[a.index()] = in_mass[a.index()].saturating_add(mi);
            k_out = k_out.saturating_add(mi.saturating_mul(wa));
        }
        let m = candidates.len();
        let with_mass = (0..n)
            .filter(|&a| out_mass[a] != 0 || in_mass[a] != 0)
            .count();
        let mut rows = AnchorRows::with_capacity(n, with_mass, m);
        let mut ain = vec![k_in; m];
        let mut aout = vec![k_out; m];
        let mut queries = 0u64;
        for a in (0..n).map(NodeId::from_index) {
            let (mo, mi) = (out_mass[a.index()], in_mass[a.index()]);
            if mo == 0 && mi == 0 {
                continue;
            }
            let (r, q) = rows.ensure(a, candidates, |x| dm.cost(a, x));
            queries += q;
            let row = rows.row(r, m).0;
            // A zero mass adds exact zeros: skip its side.
            if mo != 0 {
                for (s, &c) in ain.iter_mut().zip(row) {
                    *s = s.saturating_add(mo.saturating_mul(u128::from(c)));
                }
            }
            if mi != 0 {
                for (s, &c) in aout.iter_mut().zip(row) {
                    *s = s.saturating_add(mi.saturating_mul(u128::from(c)));
                }
            }
        }
        let mut a_in = vec![0; n];
        let mut a_out = vec![0; n];
        for ((&x, &si), &so) in candidates.iter().zip(&ain).zip(&aout) {
            a_in[x.index()] = clamp_attach(si);
            a_out[x.index()] = clamp_attach(so);
        }
        // One batched count for the whole sweep — no per-query atomics.
        ppdc_obs::global().add(ppdc_obs::names::ORACLE_QUERIES, queries);
        AttachAggregates {
            a_in,
            a_out,
            total_rate,
            switches: candidates.to_vec(),
            anchor,
            rows,
        }
    }

    /// The original `O(|flows|·|V_s|)` build, one flow at a time. Kept as
    /// the parity oracle for [`AttachAggregates::build`] /
    /// [`AttachAggregates::try_apply_mass_deltas`] and as the bench
    /// baseline.
    pub fn build_flow_by_flow<D: DistanceOracle + ?Sized>(g: &Graph, dm: &D, w: &Workload) -> Self {
        let switches: Vec<NodeId> = g.switches().collect();
        Self::build_restricted_flow_by_flow(g, dm, w, &switches)
    }

    /// Flow-by-flow parity oracle for [`AttachAggregates::build_restricted`]
    /// (same candidate restriction and saturation semantics).
    pub fn build_restricted_flow_by_flow<D: DistanceOracle + ?Sized>(
        g: &Graph,
        dm: &D,
        w: &Workload,
        candidates: &[NodeId],
    ) -> Self {
        let n = g.num_nodes();
        let mut a_in = vec![0; n];
        let mut a_out = vec![0; n];
        for &x in candidates {
            let (mut ain, mut aout) = (0, 0);
            for (_, src, dst, rate) in w.iter() {
                ain = attach_acc(ain, rate, dm.cost(src, x));
                aout = attach_acc(aout, rate, dm.cost(x, dst));
            }
            a_in[x.index()] = ain;
            a_out[x.index()] = aout;
        }
        AttachAggregates {
            a_in,
            a_out,
            total_rate: w.total_rate(),
            switches: candidates.to_vec(),
            anchor: anchors(g, dm),
            rows: AnchorRows::with_capacity(n, 0, 0),
        }
    }

    /// Folds per-host rate-mass changes into the aggregates in place — the
    /// epoch engines' fold: their flow-mass accumulator reduces an epoch's
    /// moved flows to one [`HostMassDelta`] per touched host, and one
    /// switch sweep lands the list here. `total_delta` is the net change
    /// of `Σλ`. Host deltas first reduce to their anchors (a leaf host's
    /// ToR; see [`AttachAggregates::build_restricted`]), so the sweep costs
    /// `|touched anchors| · |V_s|` multiply-adds over the stored anchor
    /// rows, and oracle queries only for the row of an anchor that carried
    /// no mass at build time, on its first fold. All arithmetic is exact
    /// integer math, so the result is bit-identical to a from-scratch
    /// rebuild under the new rates. Masses are `i128`, so a delta stream
    /// that briefly overshoots before a compensating delta lands nets
    /// exactly; only the net masses and the final aggregates must be
    /// representable. A host whose masses net to zero is a no-op. On
    /// error the aggregates are left untouched.
    ///
    /// # Errors
    ///
    /// [`AggregateError::OutOfRange`] when the masses disagree with the
    /// rates the aggregates were built from (a delta drove an aggregate
    /// negative), [`AggregateError::Overflow`] on (adversarial) `i128`
    /// intermediate overflow.
    pub fn try_apply_mass_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        deltas: &[HostMassDelta],
        total_delta: i128,
    ) -> Result<(), AggregateError> {
        if deltas.is_empty() && total_delta == 0 {
            return Ok(());
        }
        let _span = ppdc_obs::global().span(ppdc_obs::names::AGG_APPLY_DELTAS);
        self.fold_mass_deltas(dm, deltas, total_delta)
    }

    /// The shared switch sweep: reduce host deltas to anchor deltas plus
    /// the constants `K = Σ Δmass·w(h, anchor)`, stage `A_in`/`A_out`
    /// updates for every candidate anchor by anchor over the stored rows
    /// ([`sweep_side`]), validate all of them, then commit — a failed fold
    /// never leaves the aggregates half-updated. (A row it filled stays:
    /// rows hold the oracle's costs, not state.)
    fn fold_mass_deltas<D: DistanceOracle + ?Sized>(
        &mut self,
        dm: &D,
        deltas: &[HostMassDelta],
        total_delta: i128,
    ) -> Result<(), AggregateError> {
        const IN: AggregateError = AggregateError::Overflow { what: "A_in" };
        const OUT: AggregateError = AggregateError::Overflow { what: "A_out" };
        let (mut k_in, mut k_out) = (0i128, 0i128);
        let mut by_anchor: Vec<(NodeId, i128, i128)> = Vec::with_capacity(deltas.len());
        for d in deltas {
            let (a, wa) = self.anchor[d.host.index()];
            let wa = i128::from(wa);
            k_in = d
                .d_out
                .checked_mul(wa)
                .and_then(|t| k_in.checked_add(t))
                .ok_or(IN)?;
            k_out = d
                .d_in
                .checked_mul(wa)
                .and_then(|t| k_out.checked_add(t))
                .ok_or(OUT)?;
            by_anchor.push((a, d.d_out, d.d_in));
        }
        // Merge per anchor. Host-sorted input is already anchor-sorted on
        // a fat-tree (a ToR's hosts have consecutive ids).
        by_anchor.sort_unstable_by_key(|r| r.0);
        let mut merged: Vec<(NodeId, i128, i128)> = Vec::with_capacity(by_anchor.len());
        for (a, d_out, d_in) in by_anchor {
            match merged.last_mut() {
                Some(m) if m.0 == a => {
                    m.1 = m.1.checked_add(d_out).ok_or(IN)?;
                    m.2 = m.2.checked_add(d_in).ok_or(OUT)?;
                }
                _ => merged.push((a, d_out, d_in)),
            }
        }
        // Rows first: an anchor's first fold fills its row from the oracle,
        // and the sweeps' headroom test reads each row's maximum. A zero
        // mass contributes exact zeros: skipping it (and an all-zero
        // anchor's row) is bit-identical.
        let mut queries = 0u64;
        let mut by_in: Vec<(usize, i128)> = Vec::with_capacity(merged.len());
        let mut by_out: Vec<(usize, i128)> = Vec::with_capacity(merged.len());
        for &(a, d_out, d_in) in &merged {
            if d_out == 0 && d_in == 0 {
                continue;
            }
            let (r, q) = self.rows.ensure(a, &self.switches, |x| dm.cost(a, x));
            queries += q;
            if d_out != 0 {
                by_in.push((r, d_out));
            }
            if d_in != 0 {
                by_out.push((r, d_in));
            }
        }
        if queries > 0 {
            ppdc_obs::global().add(ppdc_obs::names::ORACLE_QUERIES, queries);
        }
        #[cfg(feature = "strict-invariants")]
        self.rows.assert_match(&self.switches, dm);
        let ain = sweep_side(&self.a_in, &self.switches, k_in, &self.rows, &by_in).ok_or(IN)?;
        let aout =
            sweep_side(&self.a_out, &self.switches, k_out, &self.rows, &by_out).ok_or(OUT)?;
        let staged: Vec<(Cost, Cost)> = ain
            .into_iter()
            .zip(aout)
            .map(|(i, o)| {
                let i =
                    Cost::try_from(i).map_err(|_| AggregateError::OutOfRange { what: "A_in" })?;
                let o =
                    Cost::try_from(o).map_err(|_| AggregateError::OutOfRange { what: "A_out" })?;
                Ok((i, o))
            })
            .collect::<Result<_, _>>()?;
        let total = i128::from(self.total_rate).checked_add(total_delta).ok_or(
            AggregateError::Overflow {
                what: "the total rate",
            },
        )?;
        let total = u64::try_from(total).map_err(|_| AggregateError::OutOfRange {
            what: "the total rate",
        })?;
        for (&x, (ain, aout)) in self.switches.iter().zip(staged) {
            self.a_in[x.index()] = ain;
            self.a_out[x.index()] = aout;
        }
        self.total_rate = total;
        Ok(())
    }

    /// `A_in[x]`: rate-weighted cost of all sources reaching ingress `x`.
    #[inline]
    pub fn a_in(&self, x: NodeId) -> Cost {
        self.a_in[x.index()]
    }

    /// `A_out[x]`: rate-weighted cost of egress `x` reaching all sinks.
    #[inline]
    pub fn a_out(&self, x: NodeId) -> Cost {
        self.a_out[x.index()]
    }

    /// Total traffic rate `Σλ` (the chain-term multiplier).
    #[inline]
    pub fn total_rate(&self) -> u64 {
        self.total_rate
    }

    /// The switches of the graph the aggregates were built over.
    pub fn switches(&self) -> &[NodeId] {
        &self.switches
    }

    /// Per node: its anchor and the cost of reaching it, `(t, w(h, t))`
    /// for a leaf host and `(h, 0)` for every other node — the map
    /// [`AttachAggregates::try_apply_mass_deltas`] folds host deltas by.
    /// Hosts with equal entries are interchangeable to the fold: a mass
    /// delta booked at any one of them moves the aggregates the same way.
    pub fn anchors(&self) -> &[(NodeId, Cost)] {
        &self.anchor
    }

    /// Exact `C_a(p)` using the aggregates (equals
    /// [`ppdc_model::comm_cost`]).
    pub fn comm_cost<D: DistanceOracle + ?Sized>(&self, dm: &D, p: &Placement) -> Cost {
        self.comm_cost_switches(dm, p.switches())
    }

    /// [`AttachAggregates::comm_cost`] over a bare switch sequence, so the
    /// placement sweep can price candidate chains straight out of a reused
    /// scratch buffer. Exactly the same arithmetic — bit-identical costs.
    pub fn comm_cost_switches<D: DistanceOracle + ?Sized>(
        &self,
        dm: &D,
        switches: &[NodeId],
    ) -> Cost {
        use ppdc_topology::{sat_add, sat_mul};
        let ingress = switches[0];
        let egress = switches[switches.len() - 1];
        sat_add(
            sat_add(
                self.a_in(ingress),
                sat_mul(
                    self.total_rate,
                    ppdc_model::chain_cost_switches(dm, switches),
                ),
            ),
            self.a_out(egress),
        )
    }

    /// Exact equality of the `A` arrays and total rate (test helper for
    /// the bit-identity guarantees).
    pub fn same_as(&self, other: &AttachAggregates) -> bool {
        self.a_in == other.a_in
            && self.a_out == other.a_out
            && self.total_rate == other.total_rate
            && self.switches == other.switches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::{comm_cost, FlowId, Sfc};
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::DistanceMatrix;

    /// Non-fat-tree fabrics over the switch chain `s0 -2- s1 -2- s2 -2- s3`,
    /// as `(name, graph, serving hosts, island hosts)`:
    /// * `two-homed` — leaf hosts `h0` (s0), `h2`, `h3` (s2), `h4` (s3) next
    ///   to `h1`, wired to both s1 and s3;
    /// * `weighted-leaf` — the same with `h2` on a weight-7 link and `h3`
    ///   moved to s0 on a weight-3 link;
    /// * `partitioned` — `two-homed` plus an unreachable island switch `s4`
    ///   with leaf `h5`, so `all_connected()` is false.
    fn mixed_fabrics() -> Vec<(&'static str, Graph, Vec<NodeId>, Vec<NodeId>)> {
        let build = |links: &[(usize, usize, Cost)], island: bool| {
            let mut g = Graph::new();
            let s: Vec<NodeId> = (0..4).map(|i| g.add_switch(format!("s{i}"))).collect();
            let h: Vec<NodeId> = (0..5).map(|i| g.add_host(format!("h{i}"))).collect();
            for j in 1..4 {
                g.add_edge(s[j - 1], s[j], 2).unwrap();
            }
            for &(i, j, c) in links {
                g.add_edge(h[i], s[j], c).unwrap();
            }
            let mut isle = Vec::new();
            if island {
                let s4 = g.add_switch("s4");
                let h5 = g.add_host("h5");
                g.add_edge(h5, s4, 1).unwrap();
                isle.push(h5);
            }
            (g, h, isle)
        };
        let two_homed = [
            (0, 0, 1),
            (1, 1, 1),
            (1, 3, 1),
            (2, 2, 1),
            (3, 2, 1),
            (4, 3, 1),
        ];
        let weighted = [
            (0, 0, 1),
            (1, 1, 1),
            (1, 3, 1),
            (2, 2, 7),
            (3, 0, 3),
            (4, 3, 1),
        ];
        [
            ("two-homed", &two_homed[..], false),
            ("weighted-leaf", &weighted[..], false),
            ("partitioned", &two_homed[..], true),
        ]
        .into_iter()
        .map(|(name, links, island)| {
            let (g, h, isle) = build(links, island);
            (name, g, h, isle)
        })
        .collect()
    }

    /// Groups per-flow deltas into host-sorted mass deltas and the net
    /// `Σλ` change, as the streaming store reports them.
    fn host_masses(w: &Workload, deltas: &[(FlowId, i64)]) -> (Vec<HostMassDelta>, i128) {
        let mut by_host = std::collections::BTreeMap::<NodeId, (i128, i128)>::new();
        for &(f, d) in deltas {
            let (src, dst) = w.endpoints(f);
            by_host.entry(src).or_default().0 += i128::from(d);
            by_host.entry(dst).or_default().1 += i128::from(d);
        }
        let total = deltas.iter().map(|&(_, d)| i128::from(d)).sum();
        let masses = by_host
            .into_iter()
            .map(|(host, (d_out, d_in))| HostMassDelta { host, d_out, d_in })
            .collect();
        (masses, total)
    }

    /// Folds per-flow deltas the way the epoch engines do: grouped into
    /// host masses first, then one mass fold.
    fn fold_flow_deltas(
        agg: &mut AttachAggregates,
        dm: &DistanceMatrix,
        w: &Workload,
        deltas: &[(FlowId, i64)],
    ) -> Result<(), AggregateError> {
        let (masses, total) = host_masses(w, deltas);
        agg.try_apply_mass_deltas(dm, &masses, total)
    }

    #[test]
    fn aggregate_cost_matches_direct_eq1() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[5], 7);
        w.add_pair(hosts[3], hosts[11], 2);
        w.add_pair(hosts[8], hosts[8], 100);
        let agg = AttachAggregates::build(&g, &dm, &w);
        let sfc = Sfc::of_len(3).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        for combo in [[0usize, 1, 2], [3, 7, 11], [19, 4, 0]] {
            let p = Placement::new(&g, &sfc, combo.iter().map(|&i| switches[i]).collect()).unwrap();
            assert_eq!(agg.comm_cost(&dm, &p), comm_cost(&dm, &w, &p));
        }
    }

    #[test]
    fn empty_workload_aggregates_are_zero() {
        let (g, ..) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let w = Workload::new();
        let agg = AttachAggregates::build(&g, &dm, &w);
        for &x in agg.switches() {
            assert_eq!(agg.a_in(x), 0);
            assert_eq!(agg.a_out(x), 0);
        }
        assert_eq!(agg.total_rate(), 0);
    }

    #[test]
    fn asymmetric_flows_give_asymmetric_aggregates() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h2, 10); // all sources at h1, all sinks at h2
        let agg = AttachAggregates::build(&g, &dm, &w);
        let s: Vec<NodeId> = g.switches().collect();
        assert_eq!(agg.a_in(s[0]), 10);
        assert_eq!(agg.a_out(s[0]), 30);
        assert_eq!(agg.a_in(s[2]), 30);
        assert_eq!(agg.a_out(s[2]), 10);
    }

    #[test]
    fn switch_aggregated_build_is_bit_identical_to_flow_by_flow() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        // Heavy endpoint sharing: many flows per attach node, plus
        // self-loops and reversed pairs.
        for i in 0..hosts.len() {
            w.add_pair(
                hosts[i],
                hosts[(i * 7 + 3) % hosts.len()],
                1 + i as u64 * 13,
            );
            w.add_pair(hosts[(i * 5) % hosts.len()], hosts[i], 2 + i as u64);
        }
        let fast = AttachAggregates::build(&g, &dm, &w);
        let slow = AttachAggregates::build_flow_by_flow(&g, &dm, &w);
        assert!(fast.same_as(&slow));
        // Multi-homed hosts beside leaves, a non-unit leaf link, and a
        // partitioned fabric, where island traffic pins sentinels.
        for (name, g, mut hosts, island) in mixed_fabrics() {
            hosts.extend(island);
            let dm = DistanceMatrix::build(&g);
            let mut w = Workload::new();
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    w.add_pair(a, b, 1 + (7 * i + 3 * j) as u64);
                }
            }
            let fast = AttachAggregates::build(&g, &dm, &w);
            assert!(
                fast.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)),
                "{name}"
            );
            assert_eq!(
                fast.a_in.contains(&INFINITY),
                name == "partitioned",
                "{name}"
            );
        }
    }

    /// Per-node `(R_out, R_in)` masses and the saturated `Σλ` of `w`, as
    /// a flow store sums them.
    fn node_masses(g: &Graph, w: &Workload) -> (Vec<(u128, u128)>, u64) {
        let mut m = vec![(0u128, 0u128); g.num_nodes()];
        for (_, s, d, r) in w.iter() {
            m[s.index()].0 += u128::from(r);
            m[d.index()].1 += u128::from(r);
        }
        (m, w.total_rate())
    }

    /// The host-mass constructor equals the workload builds, full and
    /// flow by flow, on every mixed fabric — on the partitioned one with
    /// island flows that carry rate, so attachments across the cut
    /// saturate at exactly `INFINITY`, and with masses whose products
    /// saturate too — and it equals a restricted build over all switches.
    #[test]
    fn host_mass_build_equals_the_workload_builds() {
        for (name, g, mut hosts, island) in mixed_fabrics() {
            hosts.extend(island);
            let dm = DistanceMatrix::build(&g);
            let mut w = Workload::new();
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    w.add_pair(a, b, (7 * i + 3 * j) as u64 % 11);
                }
            }
            let (m, total) = node_masses(&g, &w);
            let from_masses = AttachAggregates::from_host_masses(&g, &dm, &m, total);
            let all: Vec<NodeId> = g.switches().collect();
            assert!(
                from_masses.same_as(&AttachAggregates::build(&g, &dm, &w)),
                "{name}"
            );
            assert!(
                from_masses.same_as(&AttachAggregates::build_restricted(&g, &dm, &w, &all)),
                "{name}"
            );
            assert!(
                from_masses.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)),
                "{name}"
            );
            assert_eq!(
                from_masses.a_in.contains(&INFINITY),
                name == "partitioned",
                "{name}"
            );
            // Rates whose products and sums pass `u64`: both sides pin at
            // the sentinel.
            let mut heavy = w.clone();
            heavy.add_pair(hosts[0], hosts[1], INFINITY);
            heavy.add_pair(hosts[2], hosts[0], u64::MAX / 3);
            let (m, total) = node_masses(&g, &heavy);
            let from_masses = AttachAggregates::from_host_masses(&g, &dm, &m, total);
            assert!(
                from_masses.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &heavy)),
                "{name} heavy"
            );
        }
    }

    /// `strict-invariants` contract of the host-mass constructor: masses
    /// whose in-side does not sum to `Σλ` are refused.
    #[cfg(feature = "strict-invariants")]
    #[test]
    #[should_panic(expected = "in-masses disagree with Σλ")]
    fn host_mass_build_refuses_masses_that_miss_the_total() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut m = vec![(0u128, 0u128); g.num_nodes()];
        m[hosts[0].index()] = (5, 0);
        m[hosts[1].index()] = (0, 4);
        let _ = AttachAggregates::from_host_masses(&g, &dm, &m, 5);
    }

    #[test]
    fn leaf_hosts_anchor_to_their_only_neighbour() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        for h in g.nodes() {
            let want = match g.kind(h) {
                NodeKind::Host => (g.top_of_rack(h).unwrap(), 1),
                NodeKind::Switch => (h, 0),
            };
            assert_eq!(anchors(&g, &dm)[h.index()], want);
        }
        for (name, g, hosts, _) in mixed_fabrics() {
            let dm = DistanceMatrix::build(&g);
            let a = anchors(&g, &dm);
            let s: Vec<NodeId> = g.switches().collect();
            let want = match name {
                "two-homed" => [(s[0], 1), (hosts[1], 0), (s[2], 1), (s[2], 1), (s[3], 1)],
                "weighted-leaf" => [(s[0], 1), (hosts[1], 0), (s[2], 7), (s[0], 3), (s[3], 1)],
                // Unreachable pairs: nothing collapses.
                _ => [0, 1, 2, 3, 4].map(|i| (hosts[i], 0)),
            };
            let got: Vec<(NodeId, Cost)> = hosts.iter().map(|h| a[h.index()]).collect();
            assert_eq!(got, want, "{name}");
            assert!(s.iter().all(|&x| a[x.index()] == (x, 0)), "{name}");
        }
    }

    #[test]
    fn infinite_rates_saturate_instead_of_overflowing() {
        // Regression: `attach_term`'s `mass * cost` and the u64 host-mass
        // sums trapped ("attempt to multiply with overflow") on one
        // INFINITY-rate flow across a cost-5 path, although `build`
        // documents saturation at the sentinel.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let (src, dst) = (hosts[0], hosts[hosts.len() - 1]);
        let far = g.switches().find(|&x| dm.cost(src, x) == 5).unwrap();
        let mut w = Workload::new();
        w.add_pair(src, dst, INFINITY);
        let fast = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(fast.a_in(far), INFINITY);
        assert!(fast.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
        // A host mass of exactly u64::MAX: every attach product saturates.
        w.add_pair(src, dst, u64::MAX - INFINITY);
        let fast = AttachAggregates::build(&g, &dm, &w);
        assert!(g
            .switches()
            .all(|x| fast.a_in(x) == INFINITY && fast.a_out(x) == INFINITY));
        assert!(fast.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
    }

    /// Rates from a trace whose base rates reach `i64::MAX` sum past
    /// `u64::MAX`: both pricings saturate at the sentinel instead of
    /// trapping on the total rate.
    #[test]
    fn rates_summing_past_u64_price_at_the_sentinel() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..3 {
            w.add_pair(hosts[i], hosts[i + 5], i64::MAX.unsigned_abs());
        }
        let agg = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(agg.total_rate(), u64::MAX);
        let switches: Vec<NodeId> = g.switches().collect();
        let p = Placement::new_unchecked(vec![switches[0], switches[7], switches[13]]);
        assert_eq!(comm_cost(&dm, &w, &p), INFINITY);
        assert_eq!(agg.comm_cost(&dm, &p), INFINITY);
    }

    #[test]
    fn zero_rate_flow_does_not_double_count_shared_host() {
        // Regression: a zero-rate flow leaves its hosts' masses at 0, so a
        // membership test based on mass==0 would re-push the host into
        // `touched` when a later nonzero flow shares it, double-counting
        // its mass in the switch sweep. Zero rates are real inputs (the
        // trace sampler's light class includes 0 and diurnal scaling can
        // floor rates to 0).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[5], 0); // zero-rate, touches hosts 0 and 5
        w.add_pair(hosts[0], hosts[7], 42); // shares src host 0
        w.add_pair(hosts[2], hosts[5], 9); // shares dst host 5
        let fast = AttachAggregates::build(&g, &dm, &w);
        let slow = AttachAggregates::build_flow_by_flow(&g, &dm, &w);
        assert!(fast.same_as(&slow));
    }

    #[test]
    fn unreachable_hosts_saturate_at_the_infinity_sentinel() {
        use ppdc_topology::{FaultSet, INFINITY};
        // Cut the middle switch of h1 - s0 - s1 - s2 - h2: h2 becomes
        // unreachable from s0, so any aggregate over s0 that includes h2
        // mass must read exactly INFINITY (never a wrapped product).
        let (g, h1, h2) = ppdc_topology::builders::linear(3).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let mut f = FaultSet::new(&g);
        f.fail_node(s[1]).unwrap();
        let dm = DistanceMatrix::build(&g.degraded_view(&f));
        let mut w = Workload::new();
        w.add_pair(h1, h2, 10);
        let agg = AttachAggregates::build(&g, &dm, &w);
        assert_eq!(agg.a_in(s[0]), 10); // h1 still reaches s0
        assert_eq!(agg.a_out(s[0]), INFINITY); // h2 does not
        assert_eq!(agg.a_in(s[2]), INFINITY);
        assert_eq!(agg.a_out(s[2]), 10);
        // The oracle saturates identically.
        assert!(agg.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w)));
        // Zero mass contributes nothing even across the cut.
        let mut wz = Workload::new();
        wz.add_pair(h1, h2, 0);
        let aggz = AttachAggregates::build(&g, &dm, &wz);
        assert_eq!(aggz.a_out(s[0]), 0);
        assert_eq!(aggz.a_in(s[2]), 0);
    }

    #[test]
    fn restricted_build_matches_restricted_oracle() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..hosts.len() {
            w.add_pair(hosts[i], hosts[(i * 3 + 1) % hosts.len()], 5 + i as u64);
        }
        let all: Vec<NodeId> = g.switches().collect();
        let subset: Vec<NodeId> = all.iter().copied().step_by(3).collect();
        let fast = AttachAggregates::build_restricted(&g, &dm, &w, &subset);
        let slow = AttachAggregates::build_restricted_flow_by_flow(&g, &dm, &w, &subset);
        assert!(fast.same_as(&slow));
        assert_eq!(fast.switches(), &subset[..]);
        // Restricted entries agree with the full build on shared switches.
        let full = AttachAggregates::build(&g, &dm, &w);
        for &x in &subset {
            assert_eq!(fast.a_in(x), full.a_in(x));
            assert_eq!(fast.a_out(x), full.a_out(x));
        }
    }

    #[test]
    fn incremental_deltas_match_rebuild() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 100);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let f2 = w.add_pair(hosts[8], hosts[0], 7);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        // Raise, lower, zero out.
        let deltas = [(f0, 50i64), (f1, -40), (f2, 3)];
        for &(f, d) in &deltas {
            w.set_rate(f, (w.rate(f) as i64 + d) as u64);
        }
        fold_flow_deltas(&mut agg, &dm, &w, &deltas).unwrap();
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    fn cancelling_deltas_then_retouch_do_not_double_apply() {
        // Regression: three flows share a src host; the first two deltas
        // (+5, -5) cancel its accumulated out-delta to exactly 0, so a
        // delta==0 membership test in the host grouping would re-push the
        // host on the third delta and apply its delta twice to every
        // switch. (The engines' grouping is the flow store's mass
        // accumulator; the workspace proptests drive it.)
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[0], hosts[7], 10);
        let f2 = w.add_pair(hosts[0], hosts[9], 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let deltas = [(f0, 5i64), (f1, -5), (f2, 2)];
        for &(f, d) in &deltas {
            w.set_rate(f, (w.rate(f) as i64 + d) as u64);
        }
        fold_flow_deltas(&mut agg, &dm, &w, &deltas).unwrap();
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    fn inconsistent_negative_delta_is_a_typed_error() {
        // Overflow-hardening regression: before the i128 delta fold, a
        // delta below -λ wrapped the aggregate into a huge Cost that
        // silently poisoned every placement decision downstream. The
        // contract is now a typed error the caller must handle.
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        let f = w.add_pair(h1, h2, 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let err = fold_flow_deltas(&mut agg, &dm, &w, &[(f, -20)]).unwrap_err();
        assert!(err.to_string().contains("rate deltas drove"), "{err}");
    }

    #[test]
    fn overshooting_then_compensating_deltas_fold_exactly() {
        // Regression (fails on the old i64 fold): three flows share a src
        // host and a delta stream raises each by D before compensating
        // entries land *in the same batch*. The per-host running sum
        // transiently reaches 3·D > i64::MAX, which the old
        // `out_delta: Vec<i64>` accumulator trapped on (workspace
        // overflow-checks) even though the net change is tiny. The i128
        // fold only requires the *net* masses to be representable.
        const D: i64 = 3_500_000_000_000_000_000; // 3·D > i64::MAX
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[0], hosts[7], 20);
        let f2 = w.add_pair(hosts[0], hosts[9], 30);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let deltas = [(f0, D), (f1, D), (f2, D), (f0, -D), (f1, -D), (f2, -D + 3)];
        w.set_rate(f2, 33); // net: f0 and f1 unchanged, f2 +3
        fold_flow_deltas(&mut agg, &dm, &w, &deltas)
            .expect("overshooting-but-compensated deltas must fold");
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        assert!(agg.same_as(&rebuilt));
    }

    #[test]
    fn failed_delta_fold_leaves_aggregates_untouched() {
        // The staged commit: an inconsistent batch must error without
        // half-updating any switch (a partially applied A_in/A_out would
        // silently skew every later incremental epoch).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 10);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let before = agg.clone();
        let err = fold_flow_deltas(&mut agg, &dm, &w, &[(f0, 1), (f1, -500)])
            .expect_err("delta below -λ must be rejected");
        assert_eq!(err, AggregateError::OutOfRange { what: "A_in" });
        assert!(agg.same_as(&before));
        assert_eq!(agg.total_rate(), before.total_rate());
    }

    #[test]
    fn mass_delta_fold_matches_flow_delta_fold() {
        // `try_apply_mass_deltas` is the streaming store's target: a
        // pre-grouped per-host mass list must land bit-identically to the
        // per-flow path (and to a from-scratch rebuild).
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[5], 100);
        let f1 = w.add_pair(hosts[3], hosts[11], 40);
        let f2 = w.add_pair(hosts[8], hosts[0], 7);
        let mut by_flow = AttachAggregates::build(&g, &dm, &w);
        let mut by_mass = by_flow.clone();
        let deltas = [(f0, 50i64), (f1, -40), (f2, 3)];
        for &(f, d) in &deltas {
            let new = u64::try_from(i64::try_from(w.rate(f)).unwrap() + d).unwrap();
            w.set_rate(f, new);
        }
        fold_flow_deltas(&mut by_flow, &dm, &w, &deltas).unwrap();
        // Grouped by endpoint host, first-touch order of the flow path.
        let masses = [
            HostMassDelta {
                host: hosts[0],
                d_out: 50,
                d_in: 3,
            },
            HostMassDelta {
                host: hosts[5],
                d_out: 0,
                d_in: 50,
            },
            HostMassDelta {
                host: hosts[3],
                d_out: -40,
                d_in: 0,
            },
            HostMassDelta {
                host: hosts[11],
                d_out: 0,
                d_in: -40,
            },
            HostMassDelta {
                host: hosts[8],
                d_out: 3,
                d_in: 0,
            },
        ];
        by_mass.try_apply_mass_deltas(&dm, &masses, 13).unwrap();
        assert!(by_mass.same_as(&by_flow));
        assert!(by_mass.same_as(&AttachAggregates::build(&g, &dm, &w)));
        // The same on the mixed fabrics, over the switches the serving
        // hosts reach; island flows carry rate 0, as the fault engine
        // masks stranded flows.
        for (name, g, hosts, island) in mixed_fabrics() {
            let dm = DistanceMatrix::build(&g);
            let mut w = Workload::new();
            for (i, &a) in hosts.iter().enumerate() {
                for (j, &b) in hosts.iter().enumerate() {
                    w.add_pair(a, b, 50 + (7 * i + 3 * j) as u64);
                }
            }
            let live = w.num_flows();
            for &a in &hosts {
                for &b in &island {
                    w.add_pair(a, b, 0);
                    w.add_pair(b, a, 0);
                }
            }
            let candidates: Vec<NodeId> = g
                .switches()
                .filter(|&x| dm.cost(hosts[0], x) < INFINITY)
                .collect();
            let mut by_flow = AttachAggregates::build_restricted(&g, &dm, &w, &candidates);
            let mut by_mass = by_flow.clone();
            for step in 0..3i64 {
                let deltas: Vec<(FlowId, i64)> = w
                    .flow_ids()
                    .filter(|f| f.index() < live && (f.index() as i64 + step) % 3 != 0)
                    .map(|f| (f, (f.index() as i64 % 9 - 4) * (step + 1)))
                    .collect();
                for &(f, d) in &deltas {
                    let new = u64::try_from(i64::try_from(w.rate(f)).unwrap() + d).unwrap();
                    w.set_rate(f, new);
                }
                fold_flow_deltas(&mut by_flow, &dm, &w, &deltas).unwrap();
                let (masses, total) = host_masses(&w, &deltas);
                by_mass.try_apply_mass_deltas(&dm, &masses, total).unwrap();
                let rebuilt = AttachAggregates::build_restricted(&g, &dm, &w, &candidates);
                assert!(by_mass.same_as(&by_flow), "{name} step {step}");
                assert!(by_mass.same_as(&rebuilt), "{name} step {step}");
            }
        }
    }

    /// Every stored row equals the oracle's costs over the candidates,
    /// both ways, and its recorded maximum.
    fn rows_match(agg: &AttachAggregates, dm: &DistanceMatrix) -> bool {
        let m = agg.switches.len();
        agg.rows.slot.iter().enumerate().all(|(a, r)| {
            r.is_none_or(|r| {
                let a = NodeId::from_index(a);
                let (row, max) = agg.rows.row(r, m);
                row.iter()
                    .zip(&agg.switches)
                    .all(|(&c, &x)| c == dm.cost(a, x) && c == dm.cost(x, a))
                    && max == row.iter().copied().max().unwrap_or(0)
            })
        })
    }

    /// An anchor that carries no mass at build time has no row; the first
    /// fold that moves it fills it from the oracle, and later folds read
    /// it. Every step equals a rebuild, on the fat-tree (the
    /// anchor a ToR) and on the mixed fabrics (on the partitioned one,
    /// over the serving switches, every host anchors to itself).
    #[test]
    fn anchor_first_gaining_mass_after_build_gets_its_row() {
        let g = fat_tree(4).unwrap();
        let mut fabrics = vec![("fat-tree", g.clone(), g.hosts().collect::<Vec<_>>())];
        fabrics.extend(
            mixed_fabrics()
                .into_iter()
                .map(|(name, g, h, _)| (name, g, h)),
        );
        for (name, g, hosts) in fabrics {
            let dm = DistanceMatrix::build(&g);
            let anchor = anchors(&g, &dm);
            let (first, last) = (hosts[0], hosts[hosts.len() - 1]);
            let (a_first, a_last) = (anchor[first.index()].0, anchor[last.index()].0);
            assert_ne!(a_first, a_last, "{name}");
            let mut w = Workload::new();
            let busy = w.add_pair(first, first, 9);
            let idle = w.add_pair(last, last, 0);
            // Folds need finite aggregates: serve the switches the hosts
            // reach, as the fault engine does.
            let candidates: Vec<NodeId> = g
                .switches()
                .filter(|&x| dm.cost(first, x) < INFINITY)
                .collect();
            let rebuild =
                |w: &Workload| AttachAggregates::build_restricted(&g, &dm, w, &candidates);
            let mut agg = rebuild(&w);
            assert!(agg.rows.slot[a_first.index()].is_some(), "{name}");
            assert!(agg.rows.slot[a_last.index()].is_none(), "{name}");
            for (step, deltas) in [[(idle, 5i64), (busy, -2)], [(idle, 3), (busy, 4)]]
                .into_iter()
                .enumerate()
            {
                for &(f, d) in &deltas {
                    w.set_rate(f, w.rate(f).checked_add_signed(d).unwrap());
                }
                fold_flow_deltas(&mut agg, &dm, &w, &deltas).unwrap();
                assert!(agg.same_as(&rebuild(&w)), "{name} {step}");
                assert!(agg.rows.slot[a_last.index()].is_some(), "{name} {step}");
                assert!(rows_match(&agg, &dm), "{name} {step}");
            }
            // Two anchors, one row each: nothing else was filled.
            assert_eq!(agg.rows.max.len(), 2, "{name}");
        }
    }

    /// A fold whose headroom passes `i64` takes the checked `i128` sweep,
    /// one that stays below takes the narrow sweep (rows four at a time,
    /// then the rest one by one); over every ToR of a k = 4 fat-tree both
    /// equal a rebuild. The wide case moves `X` of rate off one pod's host
    /// onto another's: its headroom `max A_in + Σ|Δ|·max row ≥ 4X + 8X`
    /// passes `i64::MAX`, while every aggregate stays below the sentinel.
    #[test]
    fn wide_and_narrow_sweeps_agree_with_rebuild() {
        const X: u64 = 850_000_000_000_000_000;
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        for big in [17, X] {
            let mut w = Workload::new();
            for (i, &h) in hosts.iter().enumerate() {
                w.add_pair(h, hosts[(i * 7 + 3) % hosts.len()], 10 + i as u64);
            }
            let down = w.add_pair(hosts[0], hosts[9], big);
            let up = w.add_pair(hosts[12], hosts[3], 0);
            let mut agg = AttachAggregates::build(&g, &dm, &w);
            assert!(agg.a_in.iter().chain(&agg.a_out).all(|&a| a < INFINITY));
            let wide = u128::from(*agg.a_in.iter().max().unwrap()) + 8 * u128::from(big);
            assert_eq!(wide > u128::from(i64::MAX.unsigned_abs()), big == X);
            let step = i64::try_from(big).unwrap();
            let deltas: Vec<(FlowId, i64)> = w
                .flow_ids()
                .map(|f| match f {
                    _ if f == down => (f, -step),
                    _ if f == up => (f, step),
                    _ => (f, f.index() as i64 % 5 - 2),
                })
                .collect();
            for &(f, d) in &deltas {
                w.set_rate(f, w.rate(f).checked_add_signed(d).unwrap());
            }
            fold_flow_deltas(&mut agg, &dm, &w, &deltas).unwrap();
            assert!(agg.same_as(&AttachAggregates::build(&g, &dm, &w)), "{big}");
            assert!(agg.a_in.iter().chain(&agg.a_out).all(|&a| a < INFINITY));
            assert!(rows_match(&agg, &dm), "{big}");
            assert_eq!(agg.rows.max.len(), 8, "{big}: every ToR is an anchor");
        }
    }

    #[test]
    fn empty_and_zero_deltas_are_no_ops() {
        let (g, h1, h2) = linear(3).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        let f = w.add_pair(h1, h2, 10);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let before = agg.clone();
        fold_flow_deltas(&mut agg, &dm, &w, &[]).unwrap();
        fold_flow_deltas(&mut agg, &dm, &w, &[(f, 0)]).unwrap();
        assert!(agg.same_as(&before));
    }
}

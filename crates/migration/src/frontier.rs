//! VNF migration frontiers (Definitions 1 and 2 of the paper) and the
//! Pareto front they sweep.
//!
//! Each VNF `f_j` migrates from `p(j)` toward its new home `p'(j)` along
//! the shortest path `S_j`. A *frontier* picks one switch per path; the
//! `h_max` *parallel frontiers* advance all VNFs in lock-step (a VNF that
//! has arrived stays put). As `C_b` (migration) rises along the frontier
//! sequence, `C_a` (communication) falls — the points form a Pareto front,
//! and Theorem 5 says mPareto is optimal whenever that front is convex.

use ppdc_model::{migration_cost, MigrationCoefficient, Placement};
use ppdc_placement::AttachAggregates;
use ppdc_topology::{Cost, DistanceOracle, Graph, NodeId, NodeKind, INFINITY};

/// One evaluated frontier: its placement snapshot and both cost terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierPoint {
    /// The snapshot `m` of all VNF positions at this frontier.
    pub placement: Placement,
    /// `C_b(p, m)` — migration cost of reaching this frontier from `p`.
    pub migration_cost: Cost,
    /// `C_a(m)` — communication cost if the VNFs stop here.
    pub comm_cost: Cost,
}

impl FrontierPoint {
    /// `C_t(p, m) = C_b + C_a`, saturating at the unreachable sentinel.
    pub fn total_cost(&self) -> Cost {
        ppdc_topology::sat_add(self.migration_cost, self.comm_cost)
    }

    /// True when neither cost term carries the [`INFINITY`] unreachable
    /// sentinel. Sentinel-poisoned points are not magnitudes: they mark
    /// snapshots a degraded fabric cannot realize, and both
    /// [`pareto_front`] and [`is_convex`] exclude them (cross-multiplied
    /// slopes through the sentinel are meaningless).
    pub fn is_finite(&self) -> bool {
        self.migration_cost < INFINITY && self.comm_cost < INFINITY
    }
}

/// The migration paths `S_j`: the shortest path from `p(j)` to `p'(j)` for
/// every VNF (a single-switch path when the VNF does not move).
///
/// # Errors
///
/// [`crate::MigrationError::Model`] on a placement length mismatch;
/// [`crate::MigrationError::Unreachable`] when a VNF's old and new switches
/// sit in different components — the epoch loop must then repair the
/// placement (both placements inside one serving component make every path
/// exist).
pub fn migration_paths<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    p: &Placement,
    p_new: &Placement,
) -> Result<Vec<Vec<NodeId>>, crate::MigrationError> {
    if p.len() != p_new.len() {
        return Err(crate::MigrationError::Model(
            ppdc_model::ModelError::WrongLength {
                expected: p.len(),
                got: p_new.len(),
            },
        ));
    }
    p.switches()
        .iter()
        .zip(p_new.switches())
        .map(|(&from, &to)| {
            let path = dm
                .path(from, to)
                .ok_or(crate::MigrationError::Unreachable { from, to })?;
            debug_assert!(
                path.iter().all(|&v| g.kind(v) == NodeKind::Switch),
                "migration path must stay on switches"
            );
            Ok(path)
        })
        .collect()
}

/// The `h_max` parallel migration frontiers ℙ of Definition 2, evaluated:
/// row 0 is `p` itself (zero migration), the last row is `p'`.
///
/// `C_a` is evaluated through the attach-cost aggregates instead of
/// per-flow sums — `O(n)` per frontier row regardless of the flow count.
/// Exact: Eq. 1's decomposition holds for every frontier snapshot,
/// injective or not. `agg` must describe the current workload on `dm`.
///
/// # Errors
///
/// [`crate::MigrationError::EmptyMigrationPath`] when some path has no
/// switches at all — a frontier row cannot place that VNF anywhere.
/// Paths produced by [`migration_paths`] always hold at least the source
/// switch, so this only fires on malformed caller-supplied paths
/// (previously this underflowed `path.len() - 1`).
pub fn parallel_frontiers<D: DistanceOracle + ?Sized>(
    dm: &D,
    agg: &AttachAggregates,
    paths: &[Vec<NodeId>],
    p: &Placement,
    mu: MigrationCoefficient,
) -> Result<Vec<FrontierPoint>, crate::MigrationError> {
    if let Some(vnf) = paths.iter().position(Vec::is_empty) {
        return Err(crate::MigrationError::EmptyMigrationPath { vnf });
    }
    let h_max = paths.iter().map(Vec::len).max().unwrap_or(1);
    Ok((0..h_max)
        .map(|i| {
            let snapshot: Vec<NodeId> = paths
                .iter()
                .map(|path| path[i.min(path.len() - 1)])
                .collect();
            let m = Placement::new_relaxed(snapshot);
            FrontierPoint {
                migration_cost: migration_cost(dm, p, &m, mu),
                comm_cost: agg.comm_cost(dm, &m),
                placement: m,
            }
        })
        .collect())
}

/// Extracts the Pareto front from frontier points: sorted by strictly
/// rising `C_b`, keeping for each `C_b` only its best `C_a` and dropping
/// every point whose `C_a` fails to strictly improve on everything
/// cheaper.
///
/// Sentinel-poisoned points (either cost at [`INFINITY`]) are excluded
/// up front: an unreachable snapshot is not a trade-off candidate, and
/// letting the sentinel masquerade as a magnitude both corrupts the
/// front and feeds meaningless slopes to [`is_convex`].
pub fn pareto_front(points: &[FrontierPoint]) -> Vec<FrontierPoint> {
    let mut sorted: Vec<&FrontierPoint> = points.iter().filter(|f| f.is_finite()).collect();
    sorted.sort_by_key(|f| (f.migration_cost, f.comm_cost));
    let mut front: Vec<FrontierPoint> = Vec::new();
    for f in sorted {
        match front.last_mut() {
            // An equal-C_b group collapses to its best C_a. Checked
            // before the dominance arm so the group semantics hold on
            // their own; the sort already puts the group's best first,
            // which then makes its followers land in the dominated arm.
            Some(last) if f.migration_cost == last.migration_cost => {
                if f.comm_cost < last.comm_cost {
                    *last = f.clone();
                }
            }
            // Cheaper-or-equal C_a already exists at lower C_b: dominated.
            Some(last) if f.comm_cost >= last.comm_cost => {}
            _ => front.push(f.clone()),
        }
    }
    front
}

/// Theorem 5's hypothesis: is the (sorted) Pareto front convex?
///
/// For consecutive points the (negative) slopes `ΔC_a / ΔC_b` must be
/// non-decreasing. Checked with exact cross-multiplication over the
/// *finite* points only: [`INFINITY`] is a sentinel, not a magnitude, so
/// points carrying it (unreachable snapshots on a degraded fabric) are
/// excluded before any slope is formed — previously a poisoned point
/// could flip the verdict for the whole front.
pub fn is_convex(front: &[FrontierPoint]) -> bool {
    let finite: Vec<&FrontierPoint> = front.iter().filter(|f| f.is_finite()).collect();
    if finite.len() < 3 {
        return true;
    }
    for w in finite.windows(3) {
        let (x0, y0) = (i128::from(w[0].migration_cost), i128::from(w[0].comm_cost));
        let (x1, y1) = (i128::from(w[1].migration_cost), i128::from(w[1].comm_cost));
        let (x2, y2) = (i128::from(w[2].migration_cost), i128::from(w[2].comm_cost));
        // slope(w0,w1) <= slope(w1,w2) ⇔ (y1-y0)(x2-x1) <= (y2-y1)(x1-x0)
        if (y1 - y0) * (x2 - x1) > (y2 - y1) * (x1 - x0) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppdc_model::{comm_cost, Sfc, Workload};
    use ppdc_topology::builders::linear;
    use ppdc_topology::DistanceMatrix;

    /// Example-1 setting: p = (s1, s2), p' = (s5, s4) on the 5-switch line.
    fn setting() -> (Graph, DistanceMatrix, Workload, Placement, Placement) {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 1);
        w.add_pair(h2, h2, 100);
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        let p_new = Placement::new(&g, &sfc, vec![s[4], s[3]]).unwrap();
        (g, dm, w, p, p_new)
    }

    #[test]
    fn paths_walk_the_line() {
        let (g, dm, _, p, p_new) = setting();
        let paths = migration_paths(&g, &dm, &p, &p_new).unwrap();
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 5, "s1 → s5 crosses all five switches");
        assert_eq!(paths[1].len(), 3, "s2 → s4");
        assert_eq!(paths[0][0], p.switch(0));
        assert_eq!(*paths[0].last().unwrap(), p_new.switch(0));
    }

    #[test]
    fn identity_migration_single_frontier() {
        let (g, dm, w, p, _) = setting();
        let paths = migration_paths(&g, &dm, &p, &p).unwrap();
        let fr =
            parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1).unwrap();
        assert_eq!(fr.len(), 1);
        assert_eq!(fr[0].migration_cost, 0);
        assert_eq!(fr[0].comm_cost, comm_cost(&dm, &w, &p));
    }

    #[test]
    fn frontier_rows_interpolate_p_to_p_new() {
        let (g, dm, w, p, p_new) = setting();
        let paths = migration_paths(&g, &dm, &p, &p_new).unwrap();
        let fr =
            parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1).unwrap();
        assert_eq!(fr.len(), 5);
        assert_eq!(fr[0].placement.switches(), p.switches());
        assert_eq!(fr[4].placement.switches(), p_new.switches());
        assert_eq!(fr[0].migration_cost, 0);
        // Monotone C_b along parallel frontiers.
        for w2 in fr.windows(2) {
            assert!(w2[0].migration_cost <= w2[1].migration_cost);
        }
        // Final row pays the full migration: s1→s5 is 4, s2→s4 is 2.
        assert_eq!(fr[4].migration_cost, 6);
    }

    #[test]
    fn comm_cost_falls_as_migration_rises_in_example1() {
        let (g, dm, w, p, p_new) = setting();
        let paths = migration_paths(&g, &dm, &p, &p_new).unwrap();
        let fr =
            parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1).unwrap();
        // Hand-computed row costs: rows 0–4 place the pair at
        // (s1,s2), (s2,s3), (s3,s4), (s4,s4), (s5,s4).
        let comm: Vec<Cost> = fr.iter().map(|f| f.comm_cost).collect();
        assert_eq!(comm, vec![1004, 806, 608, 408, 410]);
        // Row 3 co-locates both VNFs on s4 — cheaper to communicate but
        // not a legal resting point (non-injective).
        assert!(!fr[3].placement.is_injective());
        assert!(fr[4].placement.is_injective());
    }

    #[test]
    fn pareto_front_is_nondominated_and_sorted() {
        let (g, dm, w, p, p_new) = setting();
        let paths = migration_paths(&g, &dm, &p, &p_new).unwrap();
        let fr =
            parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1).unwrap();
        let front = pareto_front(&fr);
        assert!(!front.is_empty());
        for w2 in front.windows(2) {
            assert!(w2[0].migration_cost < w2[1].migration_cost);
            assert!(w2[0].comm_cost > w2[1].comm_cost);
        }
    }

    fn pt(b: Cost, a: Cost) -> FrontierPoint {
        FrontierPoint {
            placement: Placement::new_relaxed(vec![NodeId(0)]),
            migration_cost: b,
            comm_cost: a,
        }
    }

    #[test]
    fn empty_path_is_a_typed_error_not_an_underflow() {
        // Regression: `frontiers_impl` indexed `path[i.min(path.len() - 1)]`,
        // which underflows (and panics) on an empty path. Malformed paths
        // must surface as a typed error instead.
        let (g, dm, w, p, p_new) = setting();
        let mut paths = migration_paths(&g, &dm, &p, &p_new).unwrap();
        paths[1].clear();
        let err = parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1)
            .unwrap_err();
        assert_eq!(err, crate::MigrationError::EmptyMigrationPath { vnf: 1 });
        // Well-formed paths (even all-singleton) stay fine.
        let paths = migration_paths(&g, &dm, &p, &p).unwrap();
        assert_eq!(
            parallel_frontiers(&dm, &AttachAggregates::build(&g, &dm, &w), &paths, &p, 1)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn pareto_front_drops_sentinel_points_and_keeps_best_of_equal_cb() {
        // Regression (fails on the pre-fix code): INFINITY-saturated
        // points are sentinels for unreachable snapshots, not trade-off
        // candidates — the old sweep kept `(INFINITY, 0)` as the front's
        // "best" point. Duplicate-C_b groups must also collapse to their
        // single best C_a.
        use ppdc_topology::INFINITY;
        let points = vec![
            pt(0, 10),
            pt(5, 9),
            pt(5, 7),
            pt(5, 7),
            pt(3, INFINITY),
            pt(INFINITY, 1),
            pt(INFINITY, 0),
        ];
        let front = pareto_front(&points);
        let costs: Vec<(Cost, Cost)> = front
            .iter()
            .map(|f| (f.migration_cost, f.comm_cost))
            .collect();
        assert_eq!(costs, vec![(0, 10), (5, 7)]);
        for f in &front {
            assert!(f.is_finite(), "sentinel point leaked onto the front");
        }
    }

    #[test]
    fn pareto_front_shuffle_of_duplicate_cb_groups_is_invariant() {
        // Equal-C_b groups keep their best C_a no matter the input order.
        let base = vec![pt(2, 4), pt(0, 9), pt(2, 6), pt(1, 7), pt(0, 8)];
        let mut rotations = Vec::new();
        for r in 0..base.len() {
            let mut rotated = base.clone();
            rotated.rotate_left(r);
            rotations.push(pareto_front(&rotated));
        }
        for other in &rotations[1..] {
            assert_eq!(&rotations[0], other);
        }
        let costs: Vec<(Cost, Cost)> = rotations[0]
            .iter()
            .map(|f| (f.migration_cost, f.comm_cost))
            .collect();
        assert_eq!(costs, vec![(0, 8), (1, 7), (2, 4)]);
    }

    #[test]
    fn is_convex_ignores_unreachable_sentinel_points() {
        // Regression (fails on the pre-fix code): on a degraded fabric the
        // early frontier rows can be unreachable (comm cost saturated at
        // INFINITY). Cross-multiplying slopes through the sentinel flipped
        // the Theorem 5 verdict — the finite sub-front here is trivially
        // convex, but the old checker reported it concave.
        use ppdc_topology::INFINITY;
        let degraded = vec![pt(0, INFINITY), pt(1, INFINITY), pt(2, 50), pt(3, 10)];
        assert!(is_convex(&degraded));
        // A genuinely concave finite front stays concave when a sentinel
        // point tags along.
        let concave = vec![pt(0, 20), pt(10, 10), pt(11, 0), pt(INFINITY, 0)];
        assert!(!is_convex(&concave));
    }

    #[test]
    fn convexity_checker() {
        let mk = |pairs: &[(Cost, Cost)]| -> Vec<FrontierPoint> {
            pairs
                .iter()
                .map(|&(b, a)| FrontierPoint {
                    placement: Placement::new_relaxed(vec![NodeId(0)]),
                    migration_cost: b,
                    comm_cost: a,
                })
                .collect()
        };
        // Convex: slopes -10, -1.
        assert!(is_convex(&mk(&[(0, 20), (1, 10), (11, 0)])));
        // Concave: slopes -1, -10.
        assert!(!is_convex(&mk(&[(0, 20), (10, 10), (11, 0)])));
        // Degenerate fronts are trivially convex.
        assert!(is_convex(&mk(&[(0, 5)])));
        assert!(is_convex(&mk(&[(0, 5), (1, 4)])));
    }
}

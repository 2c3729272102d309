//! **mPareto** — Algorithm 5: parallel-frontier VNF migration.

use crate::frontier::{migration_paths, parallel_frontiers, FrontierPoint};
use crate::MigrationError;
use ppdc_model::{MigrationCoefficient, Placement, Sfc, Workload};
use ppdc_placement::{dp_placement, AttachAggregates};
use ppdc_topology::{Cost, DistanceOracle, Graph};

/// Result of a TOM solve (mPareto or Optimal).
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// The chosen migration `m` (equal to `p` when staying is cheapest).
    pub migration: Placement,
    /// `C_b(p, m)`.
    pub migration_cost: Cost,
    /// `C_a(m)` under the current rates.
    pub comm_cost: Cost,
    /// `C_t(p, m) = C_b + C_a`.
    pub total_cost: Cost,
    /// How many VNFs actually moved (`m(j) ≠ p(j)`).
    pub num_migrations: usize,
    /// The evaluated parallel frontiers (empty for solvers that do not
    /// build them). Row 0 is `p`, the last row is `p'`.
    pub frontiers: Vec<FrontierPoint>,
}

impl MigrationOutcome {
    fn from_point(p: &Placement, point: FrontierPoint, frontiers: Vec<FrontierPoint>) -> Self {
        let num_migrations = p
            .switches()
            .iter()
            .zip(point.placement.switches())
            .filter(|(a, b)| a != b)
            .count();
        MigrationOutcome {
            migration_cost: point.migration_cost,
            comm_cost: point.comm_cost,
            total_cost: point.total_cost(),
            num_migrations,
            migration: point.placement,
            frontiers,
        }
    }
}

/// Runs Algorithm 5: recomputes the ideal placement `p'` for the current
/// rates with Algorithm 3, then picks the cheapest parallel migration
/// frontier between `p` and `p'`.
///
/// `w` must already carry the *new* rate vector and `agg` must describe
/// it on `dm` — the hourly TOM loop keeps one [`AttachAggregates`] alive
/// and folds each hour's deltas into it; callers without aggregates build
/// them with [`AttachAggregates::build`]. `p` is the placement the VNFs
/// currently occupy.
///
/// # Errors
///
/// Propagates failures of the inner Algorithm 3 call and of
/// [`migration_paths`] (a VNF whose new home sits in another component).
pub fn mpareto<D: DistanceOracle + ?Sized>(
    g: &Graph,
    dm: &D,
    w: &Workload,
    sfc: &Sfc,
    p: &Placement,
    mu: MigrationCoefficient,
    agg: &AttachAggregates,
) -> Result<MigrationOutcome, MigrationError> {
    let _span = ppdc_obs::global().span(ppdc_obs::names::SOLVER_MPARETO);
    let (p_new, _) = dp_placement(dm, w, sfc, agg)?;
    // On a healthy fabric every path exists; on a degraded one the epoch
    // loop keeps p and the candidate set inside one serving component, so
    // an Unreachable error here means the caller skipped placement repair.
    let paths = migration_paths(g, dm, p, &p_new)?;
    let frontiers = parallel_frontiers(dm, agg, &paths, p, mu)?;
    // Mid-migration frontier rows can transiently co-locate two VNFs on
    // one switch; the *chosen* resting point must respect the model's
    // one-VNF-per-switch assumption (footnote 3 of the paper). Row 0 is
    // `p` itself, so an injective row always exists.
    #[expect(
        clippy::expect_used,
        reason = "row 0 is the validated injective input placement; an empty frontier is a solver bug worth a loud stop"
    )]
    let best = frontiers
        .iter()
        .enumerate()
        .filter(|(_, f)| f.placement.is_injective())
        .min_by_key(|(i, f)| (f.total_cost(), *i))
        .map(|(_, f)| f.clone())
        .expect("row 0 (= p) is always injective");
    // `strict-invariants` contract: the swept front must be strictly
    // non-dominated, and the pick can never cost more than staying put
    // (row 0 is `p` itself and is always an eligible candidate).
    #[cfg(feature = "strict-invariants")]
    {
        let front = crate::frontier::pareto_front(&frontiers);
        for pair in front.windows(2) {
            assert!(
                pair[0].migration_cost < pair[1].migration_cost
                    && pair[0].comm_cost > pair[1].comm_cost,
                "pareto_front returned a dominated or unsorted point"
            );
        }
        assert!(
            best.total_cost() <= frontiers[0].total_cost(),
            "mPareto picked a frontier costlier than staying put"
        );
    }
    Ok(MigrationOutcome::from_point(p, best, frontiers))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{is_convex, pareto_front};
    use ppdc_model::{comm_cost, total_cost, Sfc};
    use ppdc_placement::dp_placement;
    use ppdc_topology::builders::{fat_tree, linear};
    use ppdc_topology::{DistanceMatrix, NodeId};

    /// mPareto over freshly built aggregates.
    fn fresh_mpareto(
        g: &Graph,
        dm: &DistanceMatrix,
        w: &Workload,
        sfc: &Sfc,
        p: &Placement,
        mu: MigrationCoefficient,
    ) -> MigrationOutcome {
        mpareto(g, dm, w, sfc, p, mu, &AttachAggregates::build(g, dm, w)).unwrap()
    }

    fn example1() -> (Graph, DistanceMatrix, Workload, Sfc, Placement) {
        let (g, h1, h2) = linear(5).unwrap();
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(h1, h1, 100);
        w.add_pair(h2, h2, 1);
        let sfc = Sfc::of_len(2).unwrap();
        let s: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, vec![s[0], s[1]]).unwrap();
        (g, dm, w, sfc, p)
    }

    #[test]
    fn example1_migrates_fully_and_reaches_416() {
        let (g, dm, mut w, sfc, p) = example1();
        w.set_rates(&[1, 100]).unwrap();
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 1);
        // Moving all the way to (s5, s4): C_b = 6, C_a = 410.
        assert_eq!(out.total_cost, 416);
        assert_eq!(out.migration_cost, 6);
        assert_eq!(out.comm_cost, 410);
        assert_eq!(out.num_migrations, 2);
        assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, 1));
    }

    #[test]
    fn huge_mu_freezes_the_vnfs() {
        let (g, dm, mut w, sfc, p) = example1();
        w.set_rates(&[1, 100]).unwrap();
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 1_000_000);
        assert_eq!(out.num_migrations, 0);
        assert_eq!(out.migration.switches(), p.switches());
        assert_eq!(out.total_cost, comm_cost(&dm, &w, &p));
    }

    #[test]
    fn zero_mu_goes_straight_to_p_new() {
        let (g, dm, mut w, sfc, p) = example1();
        w.set_rates(&[1, 100]).unwrap();
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 0);
        assert_eq!(out.migration_cost, 0, "μ = 0 makes migration free");
        assert_eq!(out.comm_cost, 410);
    }

    #[test]
    fn unchanged_rates_do_not_migrate() {
        let (g, dm, w, sfc, p) = example1();
        // p is already optimal for ⟨100, 1⟩ (cost 410); any migration
        // could only add C_b.
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 10);
        assert_eq!(out.total_cost, 410);
        assert_eq!(out.num_migrations, 0);
    }

    #[test]
    fn outcome_total_is_consistent() {
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        for i in 0..6 {
            w.add_pair(hosts[i], hosts[15 - i], 10 * (i as u64 + 1));
        }
        let sfc = Sfc::of_len(3).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        // Shift the traffic drastically.
        w.set_rates(&[600, 1, 1, 1, 1, 500]).unwrap();
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 5);
        assert_eq!(out.total_cost, out.migration_cost + out.comm_cost);
        assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, 5));
        assert!(!out.frontiers.is_empty());
    }

    #[test]
    fn fig6b_pareto_front_shape() {
        // Reduced-scale Fig. 6(b): the parallel frontiers sweep a front
        // where C_a falls as C_b rises, and mPareto picks its minimum-sum
        // point.
        let g = fat_tree(4).unwrap();
        let dm = DistanceMatrix::build(&g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], 100);
        w.add_pair(hosts[14], hosts[15], 1);
        let sfc = Sfc::of_len(3).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        w.set_rates(&[1, 100]).unwrap();
        let out = fresh_mpareto(&g, &dm, &w, &sfc, &p, 2);
        let front = pareto_front(&out.frontiers);
        assert!(front.len() >= 2, "traffic swap must force movement");
        // mPareto's pick is the cheapest injective frontier point, and the
        // Pareto front contains no injective point cheaper than it.
        let best_injective = out
            .frontiers
            .iter()
            .filter(|f| f.placement.is_injective())
            .map(FrontierPoint::total_cost)
            .min()
            .unwrap();
        assert_eq!(out.total_cost, best_injective);
        // The paper's fronts are convex in this regime (Theorem 5).
        assert!(is_convex(&front));
    }
}

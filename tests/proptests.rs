//! Property-based tests over randomly generated PPDCs and workloads.

use ppdc::model::{comm_cost, comm_cost_flow, total_cost, Placement, Sfc, Workload};
use ppdc::placement::{
    comm_cost_scaled, dp_placement, dp_placement_exhaustive, dp_placement_warm,
    exhaustive_placement, greedy_placement, optimal_placement, optimal_placement_scaled,
    steering_placement, AttachAggregates, BoundCache, PlacementError, TrafficScaling,
};
use ppdc::stroll::{dp_stroll, exhaustive_stroll, optimal_stroll, StrollError, StrollInstance};
use ppdc::topology::{
    DistanceMatrix, EdgeId, FaultSet, Graph, MetricClosure, NodeId, Partition, INFINITY,
};
use proptest::prelude::*;

/// A random connected PPDC: a switch spanning tree plus extra switch-switch
/// edges, with one host per leaf-ish switch.
fn arb_ppdc() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (3usize..9, 0usize..6, 1u64..5, any::<u64>()).prop_map(
        |(switches, extra_edges, weight_scale, seed)| {
            let mut g = Graph::new();
            let sw: Vec<NodeId> = (0..switches)
                .map(|i| g.add_switch(format!("s{i}")))
                .collect();
            let mut x = seed | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            // Random spanning tree over switches.
            for i in 1..switches {
                let parent = (next() as usize) % i;
                let w = 1 + (next() % weight_scale);
                g.add_edge(sw[i], sw[parent], w).unwrap();
            }
            for _ in 0..extra_edges {
                let a = (next() as usize) % switches;
                let b = (next() as usize) % switches;
                if a != b {
                    let w = 1 + (next() % weight_scale);
                    let _ = g.add_edge(sw[a], sw[b], w);
                }
            }
            // Two hosts on random switches.
            let h1 = g.add_host("h1");
            g.add_edge(h1, sw[(next() as usize) % switches], 1).unwrap();
            let h2 = g.add_host("h2");
            g.add_edge(h2, sw[(next() as usize) % switches], 1).unwrap();
            (g, vec![h1, h2])
        },
    )
}

/// [`arb_ppdc`], sometimes with a host-less island of 1–3 switches (a
/// chain of unit links) that no other switch reaches: a disconnected
/// fabric whose island switches sit at the `INFINITY` sentinel from every
/// host and from the main component.
fn arb_ppdc_maybe_island() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (arb_ppdc(), 0usize..4).prop_map(|((mut g, hosts), island)| {
        let mut prev: Option<NodeId> = None;
        for i in 0..island {
            let s = g.add_switch(format!("island{i}"));
            if let Some(p) = prev {
                g.add_edge(p, s, 1).unwrap();
            }
            prev = Some(s);
        }
        (g, hosts)
    })
}

/// Every ordered sequence of `n` distinct members of `pool`, enumerated
/// directly — the oracle that shares no code with the branch-and-bound.
fn injective_sequences(pool: &[NodeId], n: usize) -> Vec<Placement> {
    let mut out = Vec::new();
    let mut seq = Vec::with_capacity(n);
    fn extend(pool: &[NodeId], n: usize, seq: &mut Vec<NodeId>, out: &mut Vec<Placement>) {
        if seq.len() == n {
            out.push(Placement::new_unchecked(seq.clone()));
            return;
        }
        for &x in pool {
            if !seq.contains(&x) {
                seq.push(x);
                extend(pool, n, seq, out);
                seq.pop();
            }
        }
    }
    extend(pool, n, &mut seq, &mut out);
    out
}

/// The budgeted optimal placement run to proven optimality.
fn exact_optimal_placement(
    dm: &DistanceMatrix,
    w: &Workload,
    sfc: &Sfc,
    agg: &AttachAggregates,
) -> Result<(Placement, u64), PlacementError> {
    optimal_placement(dm, w, sfc, agg, ppdc::placement::optimal::DEFAULT_BUDGET).map(
        |(p, cost, exactness)| {
            assert!(exactness.is_exact(), "default budget exhausted");
            (p, cost)
        },
    )
}

proptest! {
    // 64 cases by default; CI raises it via PROPTEST_CASES.
    #![proptest_config(ProptestConfig::env_or(64))]

    /// DP-Stroll produces a valid solution whose cost is at least the
    /// exact optimum and, empirically on these sizes, within 2× of it.
    #[test]
    fn dp_stroll_bounded_by_optimal((g, hosts) in arb_ppdc(), n in 1usize..4) {
        let dm = DistanceMatrix::build(&g);
        let mut members = hosts.clone();
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        prop_assume!(g.num_switches() >= n);
        let inst = StrollInstance::new(&mc, hosts[0], hosts[1], n).unwrap();
        let dp = dp_stroll(&inst).unwrap();
        dp.validate(&inst).unwrap();
        let (opt, exactness) = optimal_stroll(&inst, ppdc::stroll::exact::DEFAULT_BUDGET);
        prop_assert!(exactness.is_exact());
        opt.validate(&inst).unwrap();
        prop_assert!(opt.cost <= dp.cost);
        prop_assert!(dp.cost <= 2 * opt.cost + 1, "dp {} opt {}", dp.cost, opt.cost);
    }

    /// The branch-and-bound stroll equals the plain exhaustive enumeration.
    #[test]
    fn bb_stroll_equals_exhaustive((g, hosts) in arb_ppdc(), n in 1usize..4) {
        let dm = DistanceMatrix::build(&g);
        let mut members = hosts.clone();
        members.extend(g.switches());
        let mc = MetricClosure::over(&dm, &members);
        prop_assume!(g.num_switches() >= n);
        let inst = StrollInstance::new(&mc, hosts[0], hosts[1], n).unwrap();
        let (bb, exactness) = optimal_stroll(&inst, ppdc::stroll::exact::DEFAULT_BUDGET);
        prop_assert!(exactness.is_exact());
        let ex = exhaustive_stroll(&inst).unwrap();
        prop_assert_eq!(bb.cost, ex.cost);
    }

    /// The placement branch-and-bound equals exhaustive enumeration, and
    /// no algorithm beats it. Algorithm 3's pruned, exhaustive and warm
    /// (fresh cache) sweeps agree bit for bit. On a fabric with a
    /// host-less island every exact solver returns the same cost or the
    /// same `Unreachable` (when the chain cannot fit in the hosts'
    /// component), and nothing panics.
    #[test]
    fn placement_optimality_chain(
        (g, hosts) in arb_ppdc_maybe_island(),
        n in 1usize..6,
        rate1 in 1u64..1000,
        rate2 in 1u64..1000,
    ) {
        prop_assume!(g.num_switches() >= n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], rate1);
        w.add_pair(hosts[1], hosts[0], rate2);
        let sfc = Sfc::of_len(n).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let bb = exact_optimal_placement(&dm, &w, &sfc, &agg).map(|(_, c)| c);
        let ex = exhaustive_placement(&dm, &w, &sfc, &agg).map(|(_, c)| c);
        prop_assert_eq!(&bb, &ex, "b&b vs exhaustive");
        let dp = dp_placement(&dm, &w, &sfc, &agg);
        let dp_ex = dp_placement_exhaustive(&dm, &w, &sfc, &agg);
        let dp_warm = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut BoundCache::new(), None);
        for (name, other) in [("exhaustive sweep", &dp_ex), ("warm sweep", &dp_warm)] {
            match (&dp, other) {
                (Ok((p1, c1)), Ok((p2, c2))) => {
                    prop_assert_eq!(c1, c2, "dp vs {}", name);
                    prop_assert_eq!(p1.switches(), p2.switches(), "dp vs {} tie-break", name);
                }
                (a, b) => prop_assert_eq!(a, b, "dp vs {}", name),
            }
        }
        let Ok(bb) = bb else {
            // Only a partition can make an exact solve fail here, and then
            // every exact solver (and Algorithm 3) must say so.
            let unreachable = Err(PlacementError::Stroll(StrollError::Unreachable));
            prop_assert_eq!(&ex.map(|_| ()), &unreachable);
            prop_assert_eq!(&dp.map(|_| ()), &unreachable);
            for (name, res) in [
                ("steering", steering_placement(&g, &dm, &w, &sfc)),
                ("greedy", greedy_placement(&g, &dm, &w, &sfc)),
            ] {
                let (p, cost) = res.unwrap();
                prop_assert_eq!(cost, INFINITY, "{} found a reachable chain", name);
                prop_assert_eq!(cost, comm_cost(&dm, &w, &p), "{} cost accounting", name);
            }
            return Ok(());
        };
        if n <= 2 {
            // The closed-form small-n paths are exact.
            prop_assert_eq!(dp.as_ref().map(|(_, c)| *c), Ok(bb), "dp is exact for n <= 2");
        }
        for (name, res) in [
            ("dp", dp),
            ("steering", steering_placement(&g, &dm, &w, &sfc)),
            ("greedy", greedy_placement(&g, &dm, &w, &sfc)),
        ] {
            let (p, cost) = res.unwrap();
            prop_assert!(bb <= cost, "{} beat optimal: {} < {}", name, cost, bb);
            prop_assert_eq!(cost, comm_cost(&dm, &w, &p), "{} cost accounting", name);
        }
    }

    /// Attach aggregates reproduce Eq. 1 exactly for arbitrary placements.
    #[test]
    fn aggregates_match_eq1(
        (g, hosts) in arb_ppdc_maybe_island(),
        n in 1usize..4,
        rate in 1u64..10_000,
        pick in any::<u64>(),
    ) {
        prop_assume!(g.num_switches() >= n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], rate);
        let agg = AttachAggregates::build(&g, &dm, &w);
        // A pseudo-random valid placement.
        let switches: Vec<NodeId> = g.switches().collect();
        let mut chosen = Vec::new();
        let mut x = pick | 1;
        while chosen.len() < n {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let s = switches[(x as usize) % switches.len()];
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }
        let sfc = Sfc::of_len(n).unwrap();
        let p = Placement::new(&g, &sfc, chosen).unwrap();
        prop_assert_eq!(agg.comm_cost(&dm, &p), comm_cost(&dm, &w, &p));
        // The solvers' reported costs are the same Eq. 1 evaluation, cold
        // and warm (fresh cache) alike.
        let cold = dp_placement(&dm, &w, &sfc, &agg);
        let warm = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut BoundCache::new(), None);
        for (name, res) in [("cold", &cold), ("warm", &warm)] {
            if let Ok((q, c)) = res {
                prop_assert_eq!(*c, comm_cost(&dm, &w, q), "{} dp cost accounting", name);
                prop_assert_eq!(*c, agg.comm_cost(&dm, q), "{} dp vs aggregates", name);
            }
        }
        prop_assert_eq!(cold, warm);
    }

    /// The switch-aggregated build is bit-identical to the flow-by-flow
    /// oracle, for any number of flows sharing the two attach nodes in
    /// either direction (including self-loops).
    #[test]
    fn switch_aggregated_build_equals_flow_by_flow(
        (g, hosts) in arb_ppdc(),
        // Zero rates are weighted heavily: a zero-rate flow leaves its
        // hosts' masses at 0, the class of input that broke the original
        // mass==0 membership test in RateMasses.
        rates in proptest::collection::vec(
            prop_oneof![Just(0u64), 0u64..10_000],
            1..20,
        ),
        dirs in any::<u64>(),
    ) {
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        for (i, &r) in rates.iter().enumerate() {
            let (a, b) = match (dirs >> (2 * (i % 32))) & 3 {
                0 => (hosts[0], hosts[1]),
                1 => (hosts[1], hosts[0]),
                2 => (hosts[0], hosts[0]),
                _ => (hosts[1], hosts[1]),
            };
            w.add_pair(a, b, r);
        }
        let fast = AttachAggregates::build(&g, &dm, &w);
        let slow = AttachAggregates::build_flow_by_flow(&g, &dm, &w);
        prop_assert!(fast.same_as(&slow));
    }

    /// Folding random rate deltas into existing aggregates is bit-identical
    /// to rebuilding from scratch under the new rates.
    #[test]
    fn incremental_aggregates_equal_rebuild(
        (g, hosts) in arb_ppdc(),
        // Small rates make a host's accumulated delta cancel to exactly 0
        // mid-list fairly often — the class that broke the delta==0
        // membership test in apply_rate_deltas. Large rates still appear
        // via the dedicated magnitude range.
        old_rates in proptest::collection::vec(
            prop_oneof![0u64..16, 0u64..10_000],
            1..16,
        ),
        new_seed in any::<u64>(),
    ) {
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        for (i, &r) in old_rates.iter().enumerate() {
            let (a, b) = if i % 2 == 0 { (hosts[0], hosts[1]) } else { (hosts[1], hosts[0]) };
            w.add_pair(a, b, r);
        }
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        // New rates: pseudo-random, some flows unchanged (delta 0).
        let mut x = new_seed | 1;
        let mut deltas = Vec::new();
        for f in w.flow_ids().collect::<Vec<_>>() {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let new = if x.is_multiple_of(3) {
                w.rate(f)
            } else if x.is_multiple_of(2) {
                x % 16 // small: lets per-host deltas cancel to exactly 0
            } else {
                x % 10_000
            };
            let d = new as i64 - w.rate(f) as i64;
            w.set_rate(f, new);
            if d != 0 {
                deltas.push((f, d));
            }
        }
        agg.apply_rate_deltas(&dm, &w, &deltas).unwrap();
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        prop_assert!(agg.same_as(&rebuilt));
    }

    /// A delta list whose prefix cancels a shared host's accumulated
    /// delta to exactly zero before a later delta retouches it — the
    /// class that broke the delta==0 membership test in
    /// `apply_rate_deltas` (the host was pushed into `touched` twice and
    /// its delta applied twice to every switch).
    #[test]
    fn cancelling_delta_prefix_matches_rebuild(
        (g, hosts) in arb_ppdc(),
        base in 1u64..1_000,
        d in 1i64..1_000,
        tail in 1i64..1_000,
    ) {
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        let f0 = w.add_pair(hosts[0], hosts[1], base);
        let f1 = w.add_pair(hosts[0], hosts[1], base + d as u64);
        let f2 = w.add_pair(hosts[0], hosts[1], base);
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        // +d then -d zeroes both endpoints' accumulated deltas; `tail`
        // then retouches them.
        let deltas = [(f0, d), (f1, -d), (f2, tail)];
        for &(f, dd) in &deltas {
            w.set_rate(f, (w.rate(f) as i64 + dd) as u64);
        }
        agg.apply_rate_deltas(&dm, &w, &deltas).unwrap();
        let rebuilt = AttachAggregates::build(&g, &dm, &w);
        prop_assert!(agg.same_as(&rebuilt));
    }

    /// Cost identities: C_t = C_b + C_a; rate scaling is linear; the
    /// identity migration is free.
    #[test]
    fn cost_identities(
        (g, hosts) in arb_ppdc(),
        n in 1usize..4,
        rate in 1u64..500,
        mu in 0u64..10_000,
    ) {
        prop_assume!(g.num_switches() >= 2 * n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], rate);
        let sfc = Sfc::of_len(n).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        let p = Placement::new(&g, &sfc, switches[..n].to_vec()).unwrap();
        let m = Placement::new(&g, &sfc, switches[n..2 * n].to_vec()).unwrap();
        let ct = total_cost(&dm, &w, &p, &m, mu);
        prop_assert_eq!(
            ct,
            ppdc::model::migration_cost(&dm, &p, &m, mu) + comm_cost(&dm, &w, &m)
        );
        prop_assert_eq!(total_cost(&dm, &w, &p, &p, mu), comm_cost(&dm, &w, &p));
        // Linear in the rate.
        let single = comm_cost_flow(&dm, hosts[0], hosts[1], 1, &p);
        prop_assert_eq!(comm_cost_flow(&dm, hosts[0], hosts[1], rate, &p), rate * single);
    }

    /// The branch-and-bound Algorithm 3 sweep is bit-identical — cost AND
    /// switch sequence — to the exhaustive (ingress, egress) sweep it
    /// replaced: strict-inequality pruning never discards a cost-optimal
    /// candidate, so the deterministic lexicographic tie-break sees the
    /// same contenders.
    #[test]
    fn bb_placement_equals_exhaustive_sweep(
        (g, hosts) in arb_ppdc(),
        n in 3usize..6,
        rates in proptest::collection::vec(1u64..10_000, 1..6),
        dirs in any::<u64>(),
    ) {
        prop_assume!(g.num_switches() >= n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        for (i, &r) in rates.iter().enumerate() {
            let (a, b) = if (dirs >> i) & 1 == 0 {
                (hosts[0], hosts[1])
            } else {
                (hosts[1], hosts[0])
            };
            w.add_pair(a, b, r);
        }
        let sfc = Sfc::of_len(n).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        let (p_bb, c_bb) = dp_placement(&dm, &w, &sfc, &agg).unwrap();
        let (p_ex, c_ex) = dp_placement_exhaustive(&dm, &w, &sfc, &agg).unwrap();
        prop_assert_eq!(c_bb, c_ex);
        prop_assert_eq!(p_bb.switches(), p_ex.switches());
    }

    /// After any interleaving of fail/repair events, `rebuild_dirty` fed
    /// the toggled edges is bit-identical to a from-scratch build of the
    /// degraded view — distances, parents, diameter, and connectivity.
    #[test]
    fn dirty_row_apsp_equals_full_rebuild(
        (g, _hosts) in arb_ppdc(),
        seed in any::<u64>(),
        steps in 1usize..8,
    ) {
        let mut faults = FaultSet::new(&g);
        let mut dm = DistanceMatrix::build(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let num_edges = g.num_edges() as u64;
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        for _ in 0..steps {
            let mut changed = Vec::new();
            // 1–3 events per step, mirroring multi-event fault hours.
            for _ in 0..(1 + next() % 3) {
                match next() % 4 {
                    0 => {
                        let e = EdgeId((next() % num_edges) as u32);
                        faults.fail_edge(e).unwrap();
                        changed.push(g.edge(e));
                    }
                    1 => {
                        let e = EdgeId((next() % num_edges) as u32);
                        faults.repair_edge(e).unwrap();
                        changed.push(g.edge(e));
                    }
                    2 => {
                        let s = switches[(next() as usize) % switches.len()];
                        faults.fail_node(s).unwrap();
                        changed.extend(g.neighbors(s).iter().map(|&(v, w)| (s, v, w)));
                    }
                    _ => {
                        let s = switches[(next() as usize) % switches.len()];
                        faults.repair_node(s).unwrap();
                        changed.extend(g.neighbors(s).iter().map(|&(v, w)| (s, v, w)));
                    }
                }
            }
            let view = g.degraded_view(&faults);
            dm.rebuild_dirty(&view, &changed);
            prop_assert!(dm.same_as(&DistanceMatrix::build(&view)),
                "dirty-row rebuild diverged from a full build");
        }
    }

    /// Failing and repairing elements round-trips to bit-identical
    /// distances and attach aggregates: node ids are stable across
    /// degraded views, and the empty fault set reproduces the original
    /// edge insertion order.
    #[test]
    fn fail_repair_round_trip_restores_aggregates(
        (g, hosts) in arb_ppdc(),
        rate in 1u64..10_000,
        pick in any::<u64>(),
    ) {
        let dm0 = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], rate);
        let agg0 = AttachAggregates::build(&g, &dm0, &w);
        let mut faults = FaultSet::new(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let dead = switches[(pick as usize) % switches.len()];
        let cut = EdgeId((pick >> 16) as u32 % g.num_edges() as u32);
        faults.fail_node(dead).unwrap();
        faults.fail_edge(cut).unwrap();
        // The toggled edges with their healthy weights, as the hourly
        // engine lists them for a failed switch and link.
        let mut changed = vec![g.edge(cut)];
        changed.extend(g.neighbors(dead).iter().map(|&(v, wv)| (dead, v, wv)));
        let mut dm = DistanceMatrix::build(&g);
        dm.rebuild_dirty(&g.degraded_view(&faults), &changed);
        faults.repair_node(dead).unwrap();
        for e in faults.failed_edges().collect::<Vec<_>>() {
            faults.repair_edge(e).unwrap();
        }
        prop_assert!(faults.is_healthy());
        let healed = g.degraded_view(&faults);
        dm.rebuild_dirty(&healed, &changed);
        for a in g.nodes() {
            for b in g.nodes() {
                prop_assert_eq!(dm.cost(a, b), dm0.cost(a, b));
            }
        }
        let agg = AttachAggregates::build(&healed, &dm, &w);
        prop_assert!(agg.same_as(&agg0));
    }

    /// On a degraded view the restricted switch-aggregated build equals
    /// the restricted flow-by-flow oracle — INFINITY saturation included
    /// (a positive mass across a cut pins the attach sum at exactly the
    /// sentinel; zero-rate flows never observe it).
    #[test]
    fn degraded_restricted_build_matches_oracle(
        (g, hosts) in arb_ppdc(),
        rates in proptest::collection::vec(prop_oneof![Just(0u64), 1u64..10_000], 1..8),
        pick in any::<u64>(),
    ) {
        let mut w = Workload::new();
        for (i, &r) in rates.iter().enumerate() {
            let (a, b) = if i % 2 == 0 { (hosts[0], hosts[1]) } else { (hosts[1], hosts[0]) };
            w.add_pair(a, b, r);
        }
        let mut faults = FaultSet::new(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        let dead = switches[(pick as usize) % switches.len()];
        faults.fail_node(dead).unwrap();
        let view = g.degraded_view(&faults);
        let dm = DistanceMatrix::build(&view);
        let candidates: Vec<NodeId> =
            switches.iter().copied().filter(|&s| s != dead).collect();
        let fast = AttachAggregates::build_restricted(&view, &dm, &w, &candidates);
        let slow =
            AttachAggregates::build_restricted_flow_by_flow(&view, &dm, &w, &candidates);
        prop_assert!(fast.same_as(&slow));
    }

    /// The INFINITY sentinel is exactly the cross-component indicator on a
    /// degraded view: `cost == INFINITY` ⇔ `hops`/`path` are `None` ⇔ the
    /// endpoints sit in different components — never a silent wraparound.
    #[test]
    fn disconnection_sentinel_is_consistent(
        (g, _hosts) in arb_ppdc(),
        pick in any::<u64>(),
    ) {
        let mut faults = FaultSet::new(&g);
        let switches: Vec<NodeId> = g.switches().collect();
        faults.fail_node(switches[(pick as usize) % switches.len()]).unwrap();
        faults.fail_edge(EdgeId((pick >> 8) as u32 % g.num_edges() as u32)).unwrap();
        let view = g.degraded_view(&faults);
        let dm = DistanceMatrix::build(&view);
        let part = Partition::of(&view);
        for a in view.nodes() {
            for b in view.nodes() {
                let connected = part.same_component(a, b);
                prop_assert_eq!(dm.cost(a, b) < INFINITY, connected);
                prop_assert_eq!(dm.hops(a, b).is_some(), connected);
                if a != b {
                    prop_assert_eq!(dm.path(a, b).is_some(), connected);
                }
            }
        }
    }

    /// mPareto's outcome always satisfies Eq. 8 accounting and never loses
    /// to staying put.
    #[test]
    fn mpareto_never_worse_than_staying(
        (g, hosts) in arb_ppdc(),
        n in 1usize..4,
        r1 in 1u64..1000,
        r2 in 1u64..1000,
        mu in 0u64..200,
    ) {
        prop_assume!(g.num_switches() >= n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], r1);
        w.add_pair(hosts[1], hosts[0], r2);
        let sfc = Sfc::of_len(n).unwrap();
        let (p, _) = dp_placement(&dm, &w, &sfc, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        w.set_rates(&[r2, r1]).unwrap();
        let out = ppdc::migration::mpareto(&g, &dm, &w, &sfc, &p, mu, &AttachAggregates::build(&g, &dm, &w)).unwrap();
        prop_assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, mu));
        prop_assert!(out.total_cost <= comm_cost(&dm, &w, &p));
    }

    /// Independent oracles for Algorithm 6 and the traffic-scaled search,
    /// which share one branch-and-bound with Algorithm 4: every injective
    /// sequence is enumerated in the test itself. Optimal migration from
    /// a placement inside the hosts' component equals the minimum Eq. 8
    /// `C_t`; the scaled search equals the minimum scaled cost, or says
    /// `Unreachable` exactly when that minimum is the sentinel. Host-less
    /// islands included, nothing panics.
    #[test]
    fn migration_and_scaled_search_match_enumeration(
        (g, hosts) in arb_ppdc_maybe_island(),
        n in 1usize..5,
        rate1 in 1u64..1000,
        rate2 in 1u64..1000,
        permille in proptest::collection::vec(0u32..3000, 4),
        pick in any::<u64>(),
    ) {
        prop_assume!(g.num_switches() >= n);
        let dm = DistanceMatrix::build(&g);
        let mut w = Workload::new();
        w.add_pair(hosts[0], hosts[1], rate1);
        w.add_pair(hosts[1], hosts[0], rate2);
        let sfc = Sfc::of_len(n).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        let all = injective_sequences(&switches, n);

        let scaling = TrafficScaling::new(&sfc, permille[..n].to_vec()).unwrap();
        let best = all
            .iter()
            .map(|m| comm_cost_scaled(&dm, &w, m, &scaling))
            .min()
            .unwrap();
        let scaled = optimal_placement_scaled(&g, &dm, &w, &sfc, &scaling, u64::MAX);
        if let Ok((p, cost)) = &scaled {
            prop_assert_eq!(*cost, comm_cost_scaled(&dm, &w, p, &scaling));
        }
        let expected = if best < INFINITY {
            Ok(best)
        } else {
            Err(PlacementError::Stroll(StrollError::Unreachable))
        };
        prop_assert_eq!(scaled.map(|(_, c)| c), expected, "{:?}", scaling);

        // A current placement drawn from the hosts' component, so staying
        // put is always reachable.
        let main: Vec<NodeId> = switches
            .iter()
            .copied()
            .filter(|&s| dm.cost(hosts[0], s) < INFINITY)
            .collect();
        if main.len() < n {
            return Ok(());
        }
        let mut pool = main;
        let mut x = pick | 1;
        let mut chosen = Vec::with_capacity(n);
        while chosen.len() < n {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            chosen.push(pool.swap_remove((x as usize) % pool.len()));
        }
        let p = Placement::new(&g, &sfc, chosen).unwrap();
        let agg = AttachAggregates::build(&g, &dm, &w);
        for mu in [0u64, 1, 100] {
            let (out, exactness) = ppdc::migration::optimal_migration(
                &dm, &sfc, &p, mu, None, ppdc::migration::optimal::DEFAULT_BUDGET, &agg,
            ).unwrap();
            prop_assert!(exactness.is_exact());
            prop_assert_eq!(out.total_cost, total_cost(&dm, &w, &p, &out.migration, mu));
            let best = all.iter().map(|m| total_cost(&dm, &w, &p, m, mu)).min().unwrap();
            prop_assert_eq!(out.total_cost, best, "mu={}", mu);
        }
    }

    /// `pareto_front` always returns a strictly sorted, mutually
    /// non-dominated, sentinel-free front that covers every finite input
    /// point and does not depend on input order.
    #[test]
    fn pareto_front_is_nondominated_sorted_and_shuffle_invariant(
        raw in proptest::collection::vec(
            (
                prop_oneof![Just(INFINITY), 0u64..40],
                prop_oneof![Just(INFINITY), 0u64..40],
            ),
            0..24,
        ),
        seed in proptest::prelude::any::<u64>(),
    ) {
        use ppdc::migration::{pareto_front, FrontierPoint};
        let pts: Vec<FrontierPoint> = raw
            .iter()
            .map(|&(b, a)| FrontierPoint {
                placement: Placement::new_relaxed(vec![NodeId(0)]),
                migration_cost: b,
                comm_cost: a,
            })
            .collect();
        let front = pareto_front(&pts);
        for f in &front {
            prop_assert!(f.migration_cost < INFINITY && f.comm_cost < INFINITY,
                "sentinel point leaked onto the front");
        }
        for pair in front.windows(2) {
            prop_assert!(pair[0].migration_cost < pair[1].migration_cost,
                "C_b must rise strictly");
            prop_assert!(pair[0].comm_cost > pair[1].comm_cost,
                "C_a must fall strictly");
        }
        // Completeness: every finite input point is weakly dominated by
        // some front point (so nothing undominated was dropped).
        for &(b, a) in raw.iter().filter(|&&(b, a)| b < INFINITY && a < INFINITY) {
            prop_assert!(
                front.iter().any(|f| f.migration_cost <= b && f.comm_cost <= a),
                "input ({b}, {a}) escaped the front"
            );
        }
        // Order invariance: a seeded Fisher–Yates permutation of the input
        // yields the same cost front.
        let mut shuffled = pts.clone();
        let mut x = seed | 1;
        for i in (1..shuffled.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            shuffled.swap(i, (x as usize) % (i + 1));
        }
        let key = |f: &FrontierPoint| (f.migration_cost, f.comm_cost);
        let a: Vec<_> = front.iter().map(key).collect();
        let b: Vec<_> = pareto_front(&shuffled).iter().map(key).collect();
        prop_assert_eq!(a, b);
    }

    /// The closed-form fat-tree oracle is bit-identical to the dense BFS
    /// matrix: every pairwise cost, plus (sampled) reconstructed paths and
    /// hop counts under the shared min-id tie-break.
    #[test]
    fn analytic_oracle_matches_dense_matrix(
        k in prop_oneof![Just(4usize), Just(6), Just(8)],
        seed in any::<u64>(),
    ) {
        use ppdc::topology::{DistanceOracle, FatTree, FatTreeOracle};
        let ft = FatTree::build(k).unwrap();
        let oracle = FatTreeOracle::new(&ft);
        let dm = DistanceMatrix::build(ft.graph());
        let n = ft.graph().num_nodes();
        prop_assert_eq!(oracle.num_nodes(), n);
        prop_assert_eq!(DistanceOracle::diameter(&oracle), dm.diameter());
        prop_assert_eq!(oracle.all_connected(), dm.all_connected());
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(
                    DistanceOracle::cost(&oracle, NodeId(u as u32), NodeId(v as u32)),
                    dm.cost(NodeId(u as u32), NodeId(v as u32)),
                    "k={} u={} v={}", k, u, v
                );
            }
        }
        // 64 seeded pairs: identical tie-broken paths and hop counts.
        let mut x = seed | 1;
        for _ in 0..64 {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let u = NodeId((x as usize % n) as u32);
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let v = NodeId((x as usize % n) as u32);
            prop_assert_eq!(
                DistanceOracle::path(&oracle, u, v),
                dm.path(u, v),
                "k={} path {}→{}", k, u.index(), v.index()
            );
            prop_assert_eq!(DistanceOracle::hops(&oracle, u, v), dm.hops(u, v));
        }
    }

    /// The orbit-compressed branch-and-bound sweep, driven by the analytic
    /// oracle, reproduces the dense exhaustive sweep bit for bit — cost AND
    /// the lexicographic switch choice — on fat-trees with random
    /// workloads.
    #[test]
    fn orbit_compressed_bb_equals_exhaustive(
        n in 3usize..6,
        num_flows in 1usize..10,
        seed in any::<u64>(),
    ) {
        use ppdc::topology::{FatTree, FatTreeOracle};
        let ft = FatTree::build(4).unwrap();
        let oracle = FatTreeOracle::new(&ft);
        let g = ft.graph();
        let dm = DistanceMatrix::build(g);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut w = Workload::new();
        let mut x = seed | 1;
        for _ in 0..num_flows {
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let a = hosts[x as usize % hosts.len()];
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            let b = hosts[x as usize % hosts.len()];
            x ^= x << 13; x ^= x >> 7; x ^= x << 17;
            w.add_pair(a, b, x % 10_000);
        }
        prop_assume!(w.rates().iter().any(|&r| r > 0));
        let sfc = Sfc::of_len(n).unwrap();
        let agg_o = AttachAggregates::build(g, &oracle, &w);
        let (p_o, c_o) = dp_placement(&oracle, &w, &sfc, &agg_o).unwrap();
        let agg_d = AttachAggregates::build(g, &dm, &w);
        let (p_d, c_d) = dp_placement_exhaustive(&dm, &w, &sfc, &agg_d).unwrap();
        prop_assert_eq!(c_o, c_d, "cost mismatch at n={}", n);
        prop_assert_eq!(p_o.switches(), p_d.switches(), "tie-break mismatch at n={}", n);
    }

    /// Crash safety: killing a fault-injected day at a random hour and
    /// resuming from the JSON-round-tripped checkpoint finishes the day
    /// **bit-identically** to the uninterrupted run — every per-hour cost
    /// row, every degraded-hour provenance record, every aggregate counter
    /// — for any policy, workload seed, and fault mix.
    #[test]
    fn kill_and_resume_is_bit_identical(
        seed in any::<u64>(),
        num_pairs in 4usize..24,
        policy_pick in 0usize..5,
        kill_pick in any::<u32>(),
        link_f in 0u32..8,
        switch_f in 0u32..5,
        repair_after in 1u32..4,
    ) {
        use ppdc::sim::{
            resume_day, run_day, Checkpoint, EngineConfig, FaultConfig, FaultSchedule,
            MigrationPolicy, SimConfig,
        };
        use ppdc::topology::FatTree;
        use ppdc::traffic::standard_workload;
        let ft = FatTree::build(4).unwrap();
        let (w, trace) = standard_workload(&ft, num_pairs, seed % 1024, 0);
        let n_hours = trace.model().n_hours;
        let fc = FaultConfig {
            link_fail_per_hour: f64::from(link_f) / 100.0,
            switch_fail_per_hour: f64::from(switch_f) / 100.0,
            repair_after,
        };
        let schedule = FaultSchedule::generate(ft.graph(), n_hours, &fc, seed ^ 0xFA17);
        let sfc = Sfc::of_len(3).unwrap();
        let policy = match policy_pick {
            0 => MigrationPolicy::MPareto,
            1 => MigrationPolicy::OptimalVnf { budget: 100_000 },
            2 => MigrationPolicy::Plan { slots: 4, passes: 3 },
            3 => MigrationPolicy::Mcf { slots: 4, candidates: 8 },
            _ => MigrationPolicy::NoMigration,
        };
        let cfg = SimConfig { mu: 100, vm_mu: 100, policy };
        let full = run_day(
            ft.graph(), &w, &trace, &sfc, &cfg, &schedule, &EngineConfig::default(),
        ).unwrap();
        prop_assert!(full.completed);
        let kill = 1 + kill_pick % n_hours;
        let halted = run_day(
            ft.graph(), &w, &trace, &sfc, &cfg, &schedule,
            &EngineConfig { stop_after: Some(kill), ..EngineConfig::default() },
        ).unwrap();
        let ck = halted.checkpoint.expect("stopped runs carry a checkpoint");
        prop_assert_eq!(ck.hour, kill);
        // Survive a serialization round-trip, like a real crash would force.
        let ck = Checkpoint::from_json(&ck.to_json()).unwrap();
        let resumed = resume_day(
            ft.graph(), &w, &trace, &sfc, &cfg, &schedule, &EngineConfig::default(), &ck,
        ).unwrap();
        prop_assert!(resumed.completed);
        prop_assert_eq!(resumed.result, full.result, "policy {:?} kill {}", policy, kill);
    }

    /// Sharded streaming ingestion is bit-identical to building from
    /// scratch: after every epoch of random rate movement the incrementally
    /// folded aggregates — full *and* restricted to a random candidate
    /// subset — equal a fresh [`AttachAggregates`] at the new rates, and
    /// the store's exported rate vector equals the target vector.
    #[test]
    fn streamed_ingest_equals_rebuild_with_restricted_candidates(
        num_flows in 1usize..24,
        n_epochs in 1usize..6,
        seed in any::<u64>(),
    ) {
        use ppdc::model::FlowId;
        use ppdc::sim::{RateDelta, ShardedFlowStore};
        use ppdc::topology::{FatTree, FatTreeOracle};
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let oracle = FatTreeOracle::new(&ft);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let mut w = Workload::new();
        for _ in 0..num_flows {
            let a = hosts[next() as usize % hosts.len()];
            let b = hosts[next() as usize % hosts.len()];
            w.add_pair(a, b, next() % 10_000);
        }
        let switches: Vec<NodeId> = g.switches().collect();
        let mut candidates: Vec<NodeId> =
            switches.iter().copied().filter(|_| next() % 3 != 0).collect();
        if candidates.is_empty() {
            candidates = switches;
        }
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut agg = AttachAggregates::build(g, &oracle, &w);
        let mut agg_r = AttachAggregates::build_restricted(g, &oracle, &w, &candidates);
        let mut w_cur = w.clone();
        for _ in 0..n_epochs {
            let target: Vec<u64> = (0..w_cur.num_flows()).map(|_| next() % 10_000).collect();
            let deltas: Vec<RateDelta> = w_cur
                .rates()
                .iter()
                .enumerate()
                .map(|(f, &r)| RateDelta {
                    flow: FlowId(f as u32),
                    delta: target[f] as i64 - r as i64,
                })
                .collect();
            let report = store.ingest(&deltas).unwrap();
            agg.try_apply_mass_deltas(&oracle, &report.masses, report.total_delta).unwrap();
            agg_r.try_apply_mass_deltas(&oracle, &report.masses, report.total_delta).unwrap();
            w_cur.set_rates(&target).unwrap();
            prop_assert!(
                agg.same_as(&AttachAggregates::build(g, &oracle, &w_cur)),
                "full aggregates drifted from the rebuild"
            );
            prop_assert!(
                agg_r.same_as(&AttachAggregates::build_restricted(g, &oracle, &w_cur, &candidates)),
                "restricted aggregates drifted from the rebuild"
            );
            let mut exported = Vec::new();
            store.export_rates(&mut exported);
            prop_assert_eq!(exported, target);
        }
    }

    /// Streamed ≡ rebuilt off the fat-tree: on a random switch fabric
    /// whose hosts mix single-link leaves (collapsed onto their switch at
    /// random link weights) with two- and three-homed hosts (folded per
    /// host), streamed aggregates — full and restricted — equal a fresh
    /// build after every epoch, and the store holds the target rates.
    #[test]
    fn streamed_ingest_equals_rebuild_on_a_mixed_fabric(
        (g, _) in arb_ppdc(),
        n_hosts in 2usize..10,
        num_flows in 1usize..24,
        n_epochs in 1usize..5,
        seed in any::<u64>(),
    ) {
        use ppdc::model::FlowId;
        use ppdc::sim::{RateDelta, ShardedFlowStore};
        let mut g = g;
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let switches: Vec<NodeId> = g.switches().collect();
        let mut hosts: Vec<NodeId> = g.hosts().collect();
        for i in 0..n_hosts {
            let h = g.add_host(format!("m{i}"));
            for _ in 0..1 + next() % 3 {
                let s = switches[next() as usize % switches.len()];
                let _ = g.add_edge(h, s, 1 + next() % 9);
            }
            hosts.push(h);
        }
        let dm = DistanceMatrix::build(&g);
        prop_assert!(dm.all_connected());
        let mut w = Workload::new();
        for _ in 0..num_flows {
            let a = hosts[next() as usize % hosts.len()];
            let b = hosts[next() as usize % hosts.len()];
            w.add_pair(a, b, next() % 10_000);
        }
        let mut candidates: Vec<NodeId> =
            switches.iter().copied().filter(|_| next() % 3 != 0).collect();
        if candidates.is_empty() {
            candidates = switches;
        }
        let mut store = ShardedFlowStore::build(&g, &w).unwrap();
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let mut agg_r = AttachAggregates::build_restricted(&g, &dm, &w, &candidates);
        let mut w_cur = w.clone();
        for _ in 0..n_epochs {
            let target: Vec<u64> = (0..w_cur.num_flows()).map(|_| next() % 10_000).collect();
            let deltas: Vec<RateDelta> = w_cur
                .rates()
                .iter()
                .enumerate()
                .map(|(f, &r)| RateDelta {
                    flow: FlowId(f as u32),
                    delta: target[f] as i64 - r as i64,
                })
                .collect();
            let report = store.ingest(&deltas).unwrap();
            agg.try_apply_mass_deltas(&dm, &report.masses, report.total_delta).unwrap();
            agg_r.try_apply_mass_deltas(&dm, &report.masses, report.total_delta).unwrap();
            w_cur.set_rates(&target).unwrap();
            prop_assert!(agg.same_as(&AttachAggregates::build(&g, &dm, &w_cur)));
            prop_assert!(agg.same_as(&AttachAggregates::build_flow_by_flow(&g, &dm, &w_cur)));
            prop_assert!(
                agg_r.same_as(&AttachAggregates::build_restricted(&g, &dm, &w_cur, &candidates))
            );
            prop_assert_eq!(store.rates(), &target[..]);
        }
    }

    /// The warm-started re-solver is bit-identical to the exhaustive cold
    /// sweep — cost **and** lexicographic switch tie-break — across random
    /// epoch sequences of churn confined to a random locality, with the
    /// previous optimum seeding every warm solve and multi-epoch delta
    /// batches merged into a single bound-cache refresh.
    #[test]
    fn warm_resolve_is_bit_identical_to_cold(
        seed in any::<u64>(),
        num_flows in 4usize..24,
        n_epochs in 2usize..7,
        n in 3usize..5,
        locality in 0usize..3,
        solve_every in 1usize..3,
    ) {
        use ppdc::model::FlowId;
        use ppdc::placement::{dp_placement_warm, BoundCache};
        use ppdc::sim::{RateDelta, ShardedFlowStore};
        use ppdc::topology::{FatTree, FatTreeOracle};
        let ft = FatTree::build(4).unwrap();
        let g = ft.graph();
        let oracle = FatTreeOracle::new(&ft);
        let hosts: Vec<NodeId> = g.hosts().collect();
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let mut w = Workload::new();
        for _ in 0..num_flows {
            let a = hosts[next() as usize % hosts.len()];
            let b = hosts[next() as usize % hosts.len()];
            w.add_pair(a, b, next() % 1_000 + 1);
        }
        let sfc = Sfc::of_len(n).unwrap();
        // Churn stays confined to a prefix of the hosts — a couple of
        // racks, half the fabric, or everything — mirroring the smoke's
        // churn localities.
        let hot = [hosts.len() / 8 + 1, hosts.len() / 2, hosts.len()][locality];
        let flow_src: Vec<usize> = w
            .iter()
            .map(|(_, src, _, _)| hosts.iter().position(|&h| h == src).unwrap())
            .collect();
        let mut store = ShardedFlowStore::build(g, &w).unwrap();
        let mut agg = AttachAggregates::build(g, &oracle, &w);
        let mut cache = BoundCache::new();
        let mut prev: Option<Placement> = None;
        let mut rates: Vec<u64> = w.rates().to_vec();
        for epoch in 0..n_epochs {
            let deltas: Vec<RateDelta> = (0..rates.len()).filter_map(|f| {
                if flow_src[f] >= hot || next() % 2 == 0 {
                    return None;
                }
                let d = ((next() % 2_000) as i64 - 1_000).max(-(rates[f] as i64));
                (d != 0).then_some(RateDelta { flow: FlowId(f as u32), delta: d })
            }).collect();
            for d in &deltas {
                let f = d.flow.index();
                rates[f] = (rates[f] as i64 + d.delta) as u64;
            }
            let report = store.ingest(&deltas).unwrap();
            agg.try_apply_mass_deltas(&oracle, &report.masses, report.total_delta).unwrap();
            cache.note_mass_deltas(&report.masses);
            // Not every epoch solves: skipped epochs pile their deltas
            // into the next refresh, like a drift-gated engine would.
            if (epoch + 1) % solve_every != 0 && epoch + 1 != n_epochs {
                continue;
            }
            let (wp, wc) =
                dp_placement_warm(g, &oracle, &w, &sfc, &agg, &mut cache, prev.as_ref()).unwrap();
            let (cp, cc) = dp_placement_exhaustive(&oracle, &w, &sfc, &agg).unwrap();
            prop_assert_eq!(wc, cc, "epoch {}: warm cost diverged", epoch);
            prop_assert_eq!(
                wp.switches(), cp.switches(),
                "epoch {}: warm tie-break diverged", epoch
            );
            prev = Some(wp);
        }
    }

    /// The staleness certificate's bound read off a warm [`BoundCache`]
    /// equals the `O(m²)` scan [`placement_cost_lower_bound`], kept as the
    /// oracle, after every step of one cache's life: dirty (with and
    /// without a change of `Σλ`), cancelling, quiet and rate-only
    /// mass-delta folds, and candidate-set changes through
    /// `build_restricted`, on fabrics with and without an unreachable
    /// island. With fewer candidates than VNFs both are
    /// `INFINITY`. Each step also re-solves on the cache the bound just
    /// refreshed, against a cold solve.
    #[test]
    fn cached_certificate_bound_equals_the_scan(
        (g, hosts) in arb_ppdc_maybe_island(),
        n in 1usize..6,
        seed in any::<u64>(),
        n_steps in 1usize..16,
    ) {
        use ppdc::placement::{placement_cost_lower_bound, HostMassDelta};
        let dm = DistanceMatrix::build(&g);
        let mut x = seed | 1;
        let mut next = move || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let flows = [(hosts[0], hosts[1]), (hosts[1], hosts[0])];
        let mut w = Workload::new();
        for &(a, b) in &flows {
            w.add_pair(a, b, next() % 1_000 + 1);
        }
        let sfc = Sfc::of_len(n).unwrap();
        let switches: Vec<NodeId> = g.switches().collect();
        let mut agg = AttachAggregates::build(&g, &dm, &w);
        let mut cache = BoundCache::new();
        // Moves flow `f` by `d`: the workload, then the aggregates by a
        // fold of the endpoints' masses, reported to the cache.
        let shift = |f: usize, d: i128, w: &mut Workload, agg: &mut AttachAggregates,
                     cache: &mut BoundCache| {
            let mut rates = w.rates().to_vec();
            rates[f] = u64::try_from(i128::from(rates[f]) + d).unwrap();
            w.set_rates(&rates).unwrap();
            let (src, dst) = flows[f];
            let masses = [
                HostMassDelta { host: src, d_out: d, d_in: 0 },
                HostMassDelta { host: dst, d_out: 0, d_in: d },
            ];
            // An island candidate's `INFINITY` entries are outside the
            // fold's contract; such aggregates move by a rebuild instead.
            let finite = agg
                .switches()
                .iter()
                .all(|&s| agg.a_in(s) < INFINITY && agg.a_out(s) < INFINITY);
            if finite {
                agg.try_apply_mass_deltas(&dm, &masses, d).unwrap();
            } else {
                *agg = AttachAggregates::build_restricted(&g, &dm, w, agg.switches());
            }
            cache.note_mass_deltas(&masses);
        };
        for step in 0..n_steps {
            let f = usize::from(next() % 2 == 1);
            match next() % 6 {
                // Dirty: one flow's rate moves (by zero now and then).
                0 => {
                    let r = w.rates()[f];
                    let d = i128::from(next() % (r + 1_000)) - i128::from(r);
                    shift(f, d, &mut w, &mut agg, &mut cache);
                }
                // Dirty at a constant `Σλ`: rate moves from one flow to
                // the other.
                1 => {
                    let d = i128::from(next() % (w.rates()[1 - f] + 1));
                    shift(f, d, &mut w, &mut agg, &mut cache);
                    shift(1 - f, -d, &mut w, &mut agg, &mut cache);
                }
                // Cancelling: a move and its undo land before one refresh.
                2 => {
                    let d = i128::from(next() % 1_000 + 1);
                    shift(f, d, &mut w, &mut agg, &mut cache);
                    shift(f, -d, &mut w, &mut agg, &mut cache);
                }
                // Quiet: an empty batch.
                3 => cache.note_mass_deltas(&[]),
                // Rate-only: `Σλ` moves while no candidate row does.
                4 => {
                    agg.try_apply_mass_deltas(&dm, &[], i128::from(next() % 1_000 + 1))
                        .unwrap();
                    cache.note_mass_deltas(&[]);
                }
                // A new candidate set, rebuilt from the workload.
                _ => {
                    let mut candidates: Vec<NodeId> =
                        switches.iter().copied().filter(|_| next() % 3 != 0).collect();
                    if next() % 4 == 0 {
                        candidates = switches.clone();
                    }
                    agg = AttachAggregates::build_restricted(&g, &dm, &w, &candidates);
                    cache.note_mass_deltas(&[HostMassDelta { host: hosts[0], d_out: 0, d_in: 0 }]);
                }
            }
            let cached = cache.lower_bound(&dm, &agg, n);
            let scanned = placement_cost_lower_bound(&dm, &agg, n);
            prop_assert_eq!(cached, scanned, "step {}", step);
            if agg.switches().len() < n {
                prop_assert_eq!(cached, INFINITY);
                continue;
            }
            let warm = dp_placement_warm(&g, &dm, &w, &sfc, &agg, &mut cache, None);
            let cold = dp_placement(&dm, &w, &sfc, &agg);
            prop_assert_eq!(warm, cold, "step {}", step);
        }
    }

    /// Crash safety for the streaming engine: killing a streamed day at a
    /// random epoch and resuming from the JSON-round-tripped checkpoint
    /// finishes **bit-identically** to the uninterrupted run — placement,
    /// per-epoch records, and every accumulated counter — across drift
    /// thresholds that re-solve always, sometimes, and never, and across
    /// certified-gap settings that accept or reject the incumbent. The
    /// resumed engine starts from a fresh [`ppdc::placement::BoundCache`]
    /// (never persisted), so this also pins down that a rebuilt warm cache
    /// cannot steer any post-restore re-solve.
    #[test]
    fn stream_kill_and_resume_is_bit_identical(
        seed in any::<u64>(),
        num_pairs in 4usize..24,
        kill_pick in any::<u32>(),
        threshold_pick in 0usize..3,
        gap_pick in 0usize..3,
    ) {
        use ppdc::sim::{resume_stream_day, run_stream_day, StreamCheckpoint, StreamConfig};
        use ppdc::topology::{FatTree, FatTreeOracle};
        use ppdc::traffic::standard_workload;
        let ft = FatTree::build(4).unwrap();
        let oracle = FatTreeOracle::new(&ft);
        let (w, trace) = standard_workload(&ft, num_pairs, seed % 1024, 0);
        let n_hours = trace.model().n_hours;
        prop_assume!(n_hours >= 2);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: [0u64, 5_000, u64::MAX][threshold_pick],
            max_certified_gap: [0u64, 10_000, u64::MAX][gap_pick],
            ..StreamConfig::default()
        };
        let full = run_stream_day(ft.graph(), &oracle, &w, &trace, &sfc, &cfg).unwrap();
        prop_assert!(full.completed);
        let kill = 1 + kill_pick % (n_hours - 1);
        let halted = run_stream_day(
            ft.graph(), &oracle, &w, &trace, &sfc,
            &StreamConfig { stop_after: Some(kill), ..cfg.clone() },
        ).unwrap();
        prop_assert!(!halted.completed);
        let ck = halted.checkpoint.expect("stopped runs carry a checkpoint");
        prop_assert_eq!(ck.epoch, kill);
        // Survive a serialization round-trip, like a real crash would force.
        let ck = StreamCheckpoint::from_json(&ck.to_json()).unwrap();
        let resumed =
            resume_stream_day(ft.graph(), &oracle, &w, &trace, &sfc, &cfg, &ck).unwrap();
        prop_assert!(resumed.completed);
        prop_assert_eq!(
            resumed.result, full.result,
            "threshold {} gap {} kill {}", cfg.drift_threshold, cfg.max_certified_gap, kill
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused trace feed equals the delta-batch path: stepping a store
    /// through every hour with `advance` of a trace cursor and a twin store with
    /// `ingest` of `try_rate_deltas(h)` gives equal reports — masses,
    /// `Σλ` change, drift and applied count; `records` counts different
    /// inputs on the two paths — and both stores hold `rates_at(h)`
    /// after each hour, hours past the trace's last row included. Traces
    /// cover the default diurnal envelope, the flat `tau_min = 1` one,
    /// external rows that repeat or change, shifted east cohorts,
    /// zero-rate flows, and external rows whose bases straddle the rate
    /// memo's bounds and the edge of exact `f64` integers; each runs on a
    /// fat-tree and on a random fabric mixing leaf hosts with two- and
    /// three-homed ones.
    #[test]
    fn trace_feed_equals_the_delta_batch_path(
        (g, _) in arb_ppdc(),
        shape in 0usize..5,
        num_flows in 0usize..32,
        n_hours in 1u32..10,
        zero_pick in 0u64..3,
        seed in any::<u64>(),
    ) {
        use ppdc::sim::{RateDelta, ShardedFlowStore};
        use ppdc::topology::FatTree;
        use ppdc::traffic::{
            rng_for_run, DiurnalModel, DynamicTrace, RateRule, DEFAULT_MIX, STANDARD_CHURN,
        };
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        // Fabric 1: a fat-tree. Fabric 2: the random switch graph with
        // extra hosts wired to one, two or three switches.
        let ft = FatTree::build(4).unwrap();
        let mut mixed = g;
        let switches: Vec<NodeId> = mixed.switches().collect();
        for i in 0..2 + next() % 6 {
            let h = mixed.add_host(format!("m{i}"));
            for _ in 0..1 + next() % 3 {
                let s = switches[next() as usize % switches.len()];
                let _ = mixed.add_edge(h, s, 1 + next() % 9);
            }
        }
        // One rate vector for both fabrics' workloads; `zero_pick` sets
        // none, about a quarter or about half of the flows to rate 0.
        let rates: Vec<u64> = (0..num_flows)
            .map(|_| if next() % 4 < zero_pick { 0 } else { next() % 10_000 })
            .collect();
        let workload_on = |g: &Graph, next: &mut dyn FnMut() -> u64| {
            let hosts: Vec<NodeId> = g.hosts().collect();
            let mut w = Workload::new();
            for &r in &rates {
                let a = hosts[next() as usize % hosts.len()];
                let b = hosts[next() as usize % hosts.len()];
                w.add_pair(a, b, r);
            }
            w
        };
        let fabrics = [
            (ft.graph().clone(), workload_on(ft.graph(), &mut next)),
            (mixed.clone(), workload_on(&mixed, &mut next)),
        ];
        let w = &fabrics[0].1;
        let mut rng = rng_for_run(seed, shape as u64);
        let model = DiurnalModel { n_hours, tau_min: [0.2, 0.35, 0.5][(next() % 3) as usize] };
        let east: Vec<bool> = (0..num_flows).map(|_| next() % 2 == 0).collect();
        let trace = match shape {
            // The paper's default envelope, with or without churn.
            0 => {
                let churn = [0.0, STANDARD_CHURN][(next() % 2) as usize];
                DynamicTrace::with_churn(w, DiurnalModel::default(), &DEFAULT_MIX, churn, &mut rng)
            }
            // A flat envelope: only churn moves rates.
            1 => {
                let flat = DiurnalModel { n_hours, tau_min: 1.0 };
                DynamicTrace::with_churn(w, flat, &DEFAULT_MIX, STANDARD_CHURN, &mut rng)
            }
            // External rows: each hour repeats the previous row or changes
            // a few entries, some of them to 0.
            2 => {
                let mut rows: Vec<Vec<i64>> = vec![rates.iter().map(|&r| r as i64).collect()];
                for _ in 0..n_hours {
                    let mut row = rows[rows.len() - 1].clone();
                    if next() % 2 == 0 {
                        for r in row.iter_mut() {
                            if next() % 5 == 0 {
                                *r = [0, (next() % 10_000) as i64][(next() % 2) as usize];
                            }
                        }
                    }
                    rows.push(row);
                }
                DynamicTrace::from_rows(w, model, east, &rows).unwrap()
            }
            // Caller-chosen east cohorts at a shifted offset.
            3 => {
                let offset = (next() % 31) as i64 - 15;
                DynamicTrace::with_cohorts(w, model, &DEFAULT_MIX, STANDARD_CHURN, east, &mut rng)
                    .with_offset(offset)
            }
            // External rows whose bases straddle the rate memo's bounds
            // (the flow count and `MEMO_BASES − 1`) and 2^53, up to
            // 2^53 + 1 so that every delta fits an `i64`; about a third
            // of the entries change each hour.
            _ => {
                let cap = RateRule::MEMO_BASES as u64;
                let n = num_flows as u64;
                let picks = [
                    0, 1, n.saturating_sub(1), n, n + 1, cap - 1, cap, cap + 1,
                    (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
                ];
                let draw = |next: &mut dyn FnMut() -> u64| {
                    let p = next();
                    let base = if p.is_multiple_of(4) { p % (2 * cap) } else { picks[(p / 4) as usize % picks.len()] };
                    base as i64
                };
                let mut rows: Vec<Vec<i64>> = vec![(0..num_flows).map(|_| draw(&mut next)).collect()];
                for _ in 0..n_hours {
                    let mut row = rows[rows.len() - 1].clone();
                    for r in row.iter_mut() {
                        if next() % 3 == 0 {
                            *r = draw(&mut next);
                        }
                    }
                    rows.push(row);
                }
                DynamicTrace::from_rows(w, model, east, &rows).unwrap()
            }
        };
        let last = trace.model().n_hours + 2;
        for (g, w) in &fabrics {
            let mut w0 = w.clone();
            w0.set_rates(&trace.rates_at(0)).unwrap();
            let mut fed = ShardedFlowStore::build(g, &w0).unwrap();
            let mut batched = fed.clone();
            let mut cursor = trace.cursor(0);
            for h in 1..=last {
                let a = fed.advance(&mut cursor).unwrap();
                let deltas: Vec<RateDelta> = trace
                    .try_rate_deltas(h)
                    .unwrap()
                    .into_iter()
                    .map(|(flow, delta)| RateDelta { flow, delta })
                    .collect();
                let b = batched.ingest(&deltas).unwrap();
                prop_assert_eq!(&a.masses, &b.masses, "shape {} hour {}", shape, h);
                prop_assert_eq!(a.total_delta, b.total_delta, "shape {} hour {}", shape, h);
                prop_assert_eq!(a.drift, b.drift, "shape {} hour {}", shape, h);
                prop_assert_eq!(a.applied, b.applied, "shape {} hour {}", shape, h);
                prop_assert_eq!(b.records, deltas.len() as u64);
                prop_assert!(a.applied <= a.records && a.records <= num_flows as u64);
                let want = trace.rates_at(h);
                prop_assert_eq!(fed.rates(), &want[..], "shape {} hour {}", shape, h);
                prop_assert_eq!(batched.rates(), &want[..], "shape {} hour {}", shape, h);
            }
        }
    }

    /// Kill/resume with the rates re-derived from the trace: a streamed
    /// day killed at a random epoch, its checkpoint round-tripped through
    /// JSON and resumed, finishes **bit-identically** to the uninterrupted
    /// run. The snapshot carries no rates, so this pins down that
    /// `rates_at(epoch)` equals the live store for every trace kind the
    /// fused-feed test draws — external rows that repeat or change, zero
    /// rates, shifted east cohorts, the flat `tau_min = 1` envelope and
    /// churned cohorts — on a fat-tree and on a random fabric mixing leaf
    /// hosts with two- and three-homed ones, across drift thresholds that
    /// re-solve always, sometimes and never.
    #[test]
    fn stream_resume_regenerates_rates_for_every_trace_kind(
        (g, _) in arb_ppdc(),
        shape in 0usize..4,
        num_flows in 1usize..32,
        n_hours in 2u32..10,
        zero_pick in 0u64..3,
        kill_pick in any::<u32>(),
        threshold_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        use ppdc::sim::{resume_stream_day, run_stream_day, StreamCheckpoint, StreamConfig};
        use ppdc::topology::FatTree;
        use ppdc::traffic::{
            rng_for_run, DiurnalModel, DynamicTrace, DEFAULT_MIX, STANDARD_CHURN,
        };
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let ft = FatTree::build(4).unwrap();
        let mut mixed = g;
        let switches: Vec<NodeId> = mixed.switches().collect();
        for i in 0..2 + next() % 6 {
            let h = mixed.add_host(format!("m{i}"));
            for _ in 0..1 + next() % 3 {
                let s = switches[next() as usize % switches.len()];
                let _ = mixed.add_edge(h, s, 1 + next() % 9);
            }
        }
        let rates: Vec<u64> = (0..num_flows)
            .map(|_| if next() % 4 < zero_pick { 0 } else { next() % 10_000 })
            .collect();
        let workload_on = |g: &Graph, next: &mut dyn FnMut() -> u64| {
            let hosts: Vec<NodeId> = g.hosts().collect();
            let mut w = Workload::new();
            for &r in &rates {
                let a = hosts[next() as usize % hosts.len()];
                let b = hosts[next() as usize % hosts.len()];
                w.add_pair(a, b, r);
            }
            w
        };
        let fabrics = [
            (ft.graph().clone(), workload_on(ft.graph(), &mut next)),
            (mixed.clone(), workload_on(&mixed, &mut next)),
        ];
        let w = &fabrics[0].1;
        let mut rng = rng_for_run(seed, shape as u64);
        let model = DiurnalModel { n_hours, tau_min: [0.2, 0.35, 0.5][(next() % 3) as usize] };
        let east: Vec<bool> = (0..num_flows).map(|_| next() % 2 == 0).collect();
        let trace = match shape {
            0 => {
                let churn = [0.0, STANDARD_CHURN][(next() % 2) as usize];
                DynamicTrace::with_churn(w, DiurnalModel::default(), &DEFAULT_MIX, churn, &mut rng)
            }
            1 => {
                let flat = DiurnalModel { n_hours, tau_min: 1.0 };
                DynamicTrace::with_churn(w, flat, &DEFAULT_MIX, STANDARD_CHURN, &mut rng)
            }
            2 => {
                let mut rows: Vec<Vec<i64>> = vec![rates.iter().map(|&r| r as i64).collect()];
                for _ in 0..n_hours {
                    let mut row = rows[rows.len() - 1].clone();
                    if next() % 2 == 0 {
                        for r in row.iter_mut() {
                            if next() % 5 == 0 {
                                *r = [0, (next() % 10_000) as i64][(next() % 2) as usize];
                            }
                        }
                    }
                    rows.push(row);
                }
                DynamicTrace::from_rows(w, model, east, &rows).unwrap()
            }
            _ => {
                let offset = (next() % 31) as i64 - 15;
                DynamicTrace::with_cohorts(w, model, &DEFAULT_MIX, STANDARD_CHURN, east, &mut rng)
                    .with_offset(offset)
            }
        };
        let last = trace.model().n_hours;
        let kill = 1 + kill_pick % (last - 1);
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig {
            drift_threshold: [0u64, 5_000, u64::MAX][threshold_pick],
            ..StreamConfig::default()
        };
        for (g, w) in &fabrics {
            let dm = DistanceMatrix::build(g);
            let full = run_stream_day(g, &dm, w, &trace, &sfc, &cfg).unwrap();
            prop_assert!(full.completed);
            let halted = run_stream_day(
                g, &dm, w, &trace, &sfc,
                &StreamConfig { stop_after: Some(kill), ..cfg.clone() },
            ).unwrap();
            let ck = halted.checkpoint.expect("stopped runs carry a checkpoint");
            prop_assert_eq!(ck.epoch, kill);
            let ck = StreamCheckpoint::from_json(&ck.to_json()).unwrap();
            let resumed = resume_stream_day(g, &dm, w, &trace, &sfc, &cfg, &ck).unwrap();
            prop_assert!(resumed.completed);
            prop_assert_eq!(
                resumed.result, full.result,
                "shape {} kill {} threshold {}", shape, kill, cfg.drift_threshold
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The trace against dense rows the test keeps itself: rows drawn in
    /// the test (repeat hours, a few random flows, flow 0, the last flow,
    /// every flow, or a whole repeated day) go through `from_rows`, and
    /// `rates_at`, `try_rate_deltas` and cursor steps from every start
    /// hour (the resume case) must match `round(row · scale)` computed
    /// here from those rows, through hours past the last row, under
    /// envelopes where both cohorts, one cohort or no cohort moves. The
    /// trace's own change lists are never read.
    ///
    /// Moving one base change to the next hour, or to a neighbouring
    /// flow, must change `stream_fingerprint`.
    #[test]
    fn trace_matches_its_dense_rows_and_fingerprints_every_change(
        num_flows in 1usize..24,
        n_hours in 1u32..9,
        envelope in 0usize..3,
        all_repeat in any::<bool>(),
        seed in any::<u64>(),
    ) {
        use ppdc::sim::{stream_fingerprint, StreamConfig};
        use ppdc::topology::FatTree;
        use ppdc::traffic::{DiurnalModel, DynamicTrace};
        let mut x = seed | 1;
        let mut next = || { x ^= x << 13; x ^= x >> 7; x ^= x << 17; x };
        let ft = FatTree::build(4).unwrap();
        let hosts: Vec<NodeId> = ft.graph().hosts().collect();
        let mut w = Workload::new();
        let mut rows: Vec<Vec<i64>> = vec![Vec::new()];
        for _ in 0..num_flows {
            let a = hosts[next() as usize % hosts.len()];
            let b = hosts[next() as usize % hosts.len()];
            let r = next() % 10_000;
            w.add_pair(a, b, r);
            rows[0].push(r as i64);
        }
        let last_flow = num_flows - 1;
        for _ in 0..n_hours {
            let mut row = rows[rows.len() - 1].clone();
            let draw = |next: &mut dyn FnMut() -> u64| (next() % 10_000) as i64;
            match if all_repeat { 0 } else { next() % 5 } {
                0 => {}
                1 => {
                    for _ in 0..1 + next() % 3 {
                        let i = next() as usize % num_flows;
                        row[i] = draw(&mut next);
                    }
                }
                2 => row[0] = draw(&mut next),
                3 => row[last_flow] = draw(&mut next),
                _ => row.iter_mut().for_each(|r| *r = draw(&mut next)),
            }
            rows.push(row);
        }
        // Flat: no scale moves. Default offset: both cohorts move. An
        // offset past the day: the east cohort rests at the floor while
        // the west one moves.
        let (tau_min, offset) = [(1.0, 3), (0.2, 3), (0.35, i64::from(n_hours) + 1)][envelope];
        let model = DiurnalModel { n_hours, tau_min };
        let east: Vec<bool> = (0..num_flows).map(|_| next() % 2 == 0).collect();
        let build = |rows: &[Vec<i64>]| {
            DynamicTrace::from_rows(&w, model, east.clone(), rows)
                .unwrap()
                .with_offset(offset)
        };
        let trace = build(&rows);
        let want = |h: u32| -> Vec<u64> {
            let row = &rows[(h as usize).min(rows.len() - 1)];
            row.iter()
                .zip(&east)
                .map(|(&b, &e)| {
                    let at = i64::from(h) + if e { offset } else { 0 };
                    (b as f64 * model.scale_at(at)).round() as u64
                })
                .collect()
        };
        let end = n_hours + 2;
        for h in 0..=end {
            prop_assert_eq!(trace.rates_at(h), want(h), "hour {}", h);
        }
        for h in 1..=end {
            let (prev, now) = (want(h - 1), want(h));
            let deltas: Vec<(ppdc::model::FlowId, i64)> = prev
                .iter()
                .zip(&now)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .map(|(i, (&a, &b))| (ppdc::model::FlowId(i as u32), b as i64 - a as i64))
                .collect();
            prop_assert_eq!(trace.try_rate_deltas(h).unwrap(), deltas, "hour {}", h);
        }
        for start in 0..end {
            let mut cursor = trace.cursor(start);
            let mut held = want(start);
            for h in start + 1..=end {
                let prev_row = &rows[(h as usize - 1).min(rows.len() - 1)];
                let row = &rows[(h as usize).min(rows.len() - 1)];
                let scale_moved = (0..2).any(|c| {
                    let at = |h: u32| i64::from(h) + if c == 1 { offset } else { 0 };
                    model.scale_at(at(h - 1)).to_bits() != model.scale_at(at(h)).to_bits()
                });
                let mut walked = 0usize;
                let mut last_seen = None;
                for (f, r) in cursor.step() {
                    prop_assert!(last_seen < Some(f.index()), "flow order at hour {}", h);
                    last_seen = Some(f.index());
                    held[f.index()] = r;
                    walked += 1;
                }
                prop_assert_eq!(cursor.hour(), h);
                prop_assert_eq!(&held, &want(h), "start {} hour {}", start, h);
                if !scale_moved {
                    // Only the hour's base changes are walked: a repeat
                    // hour walks nothing.
                    let changed = row.iter().zip(prev_row).filter(|(a, b)| a != b).count();
                    prop_assert_eq!(walked, changed, "start {} hour {}", start, h);
                }
            }
        }
        // Fingerprints: move the first base change one hour later, or onto
        // a neighbouring flow.
        let sfc = Sfc::of_len(3).unwrap();
        let cfg = StreamConfig::default();
        let fp = |t: &DynamicTrace| stream_fingerprint(ft.graph(), &w, t, &sfc, &cfg);
        let base_fp = fp(&trace);
        let first_change = (1..rows.len())
            .flat_map(|h| (0..num_flows).map(move |i| (h, i)))
            .find(|&(h, i)| rows[h][i] != rows[h - 1][i]);
        if let Some((h, i)) = first_change {
            if h < rows.len() - 1 {
                let mut later = rows.clone();
                later[h][i] = rows[h - 1][i];
                prop_assert!(fp(&build(&later)) != base_fp, "change at ({}, {}) one hour later", h, i);
            }
            if num_flows > 1 {
                let j = if i == last_flow { i - 1 } else { i + 1 };
                let mut beside = rows.clone();
                beside[h][i] = rows[h - 1][i];
                beside[h][j] = rows[h][i];
                prop_assert!(fp(&build(&beside)) != base_fp, "change at ({}, {}) moved to flow {}", h, i, j);
            }
        }
    }
}

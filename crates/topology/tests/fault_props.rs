//! Property-based coverage of degraded-mode routing: for random
//! topologies and random fault sets, `rebuild_excluding` must be total
//! exactly over the pairs the surviving loops still connect, and on those
//! pairs it must pick the true shortest surviving route.

use proptest::prelude::*;
use rlnoc_topology::{Direction, FaultSet, Grid, RectLoop, RoutingTable, Topology};

const SIDE: usize = 4;

/// `Topology::from_loops` rejects duplicate loops; random draws collide
/// often on a 4x4 grid, so dedup while preserving order.
fn dedup_loops(loops: Vec<RectLoop>) -> Vec<RectLoop> {
    let mut unique: Vec<RectLoop> = Vec::new();
    for l in loops {
        if !unique.contains(&l) {
            unique.push(l);
        }
    }
    unique
}

/// A random rectangular loop on the 4x4 grid.
fn arb_loop() -> impl Strategy<Value = RectLoop> {
    (
        0usize..SIDE - 1,
        0usize..SIDE - 1,
        0usize..SIDE - 1,
        0usize..SIDE - 1,
        0usize..2,
    )
        .prop_map(|(x0, y0, dx, dy, cw)| {
            let x1 = (x0 + 1 + dx).min(SIDE - 1);
            let y1 = (y0 + 1 + dy).min(SIDE - 1);
            let dir = if cw == 0 {
                Direction::Clockwise
            } else {
                Direction::Counterclockwise
            };
            RectLoop::new(x0, y0, x1, y1, dir).expect("valid rectangle")
        })
}

/// Oracle: the shortest surviving hop count from `a` to `b`, scanning
/// loops directly (no routing-table machinery). A route on loop `i`
/// survives iff the loop is alive.
fn oracle_shortest(topo: &Topology, faults: &FaultSet, a: usize, b: usize) -> Option<usize> {
    let grid = topo.grid();
    let mut best: Option<usize> = None;
    for (i, ring) in topo.loops().iter().enumerate() {
        if faults.loop_failed(i) {
            continue;
        }
        let nodes = ring.perimeter_nodes(grid);
        let len = nodes.len();
        let (Some(pi), Some(pj)) = (
            nodes.iter().position(|&n| n == a),
            nodes.iter().position(|&n| n == b),
        ) else {
            continue;
        };
        let hops = (pj + len - pi) % len;
        best = Some(best.map_or(hops, |h: usize| h.min(hops)));
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `rebuild_excluding` is total exactly over the pairs the surviving
    /// loops connect, agrees with the oracle on hop counts, and its
    /// report is consistent with the table.
    #[test]
    fn rebuild_excluding_matches_surviving_connectivity(
        loops in prop::collection::vec(arb_loop(), 1..6),
        loop_faults in prop::collection::vec(0usize..6, 0..3),
    ) {
        let grid = Grid::square(SIDE).unwrap();
        let topo = Topology::from_loops(grid, dedup_loops(loops)).unwrap();
        let num_loops = topo.loops().len();

        let mut faults = FaultSet::new();
        for f in loop_faults {
            faults.fail_loop(f % num_loops);
        }

        let (table, report) = RoutingTable::rebuild_excluding(&topo, &faults);

        let n = grid.len();
        let mut reachable = 0usize;
        for a in grid.nodes() {
            for b in grid.nodes() {
                if a == b {
                    prop_assert_eq!(table.route(a, b), None);
                    continue;
                }
                let expect = oracle_shortest(&topo, &faults, a, b);
                let got = table.route(a, b);
                prop_assert_eq!(
                    got.map(|r| r.hops), expect,
                    "pair ({}, {}) disagrees with oracle", a, b
                );
                if let Some(r) = got {
                    // The chosen loop must itself be a surviving route of
                    // exactly that length.
                    prop_assert!(!faults.loop_failed(r.loop_index));
                    reachable += 1;
                }
            }
        }
        prop_assert_eq!(report.total_pairs, n * n - n);
        prop_assert_eq!(report.reachable_pairs, reachable);
        prop_assert_eq!(
            report.reachable_pairs + report.disconnected_pairs(),
            report.total_pairs
        );
    }

    /// With no faults, the degraded build is bit-identical to the healthy
    /// build for any random topology.
    #[test]
    fn empty_fault_set_is_identity(
        loops in prop::collection::vec(arb_loop(), 1..6),
    ) {
        let grid = Grid::square(SIDE).unwrap();
        let topo = Topology::from_loops(grid, dedup_loops(loops)).unwrap();
        let (table, report) = RoutingTable::rebuild_excluding(&topo, &FaultSet::new());
        prop_assert_eq!(&table, &RoutingTable::build(&topo));
        prop_assert_eq!(report.reachable_pairs + report.disconnected_pairs(), report.total_pairs);
    }
}

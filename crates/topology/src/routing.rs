use crate::{FaultSet, NodeId, ReachabilityReport, Topology};
use serde::{Deserialize, Serialize};

/// How the per-source lookup table picks among candidate loops.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RoutingPolicy {
    /// Always the fewest-hop loop; ties break toward the earlier-added
    /// loop. Deterministic and hop-optimal, but adversarial patterns can
    /// pile every flow onto one loop.
    #[default]
    Shortest,
    /// Among loops within `slack` hops of the best, pick the one with the
    /// least traffic already assigned (greedy global balancing, weighting
    /// each assignment by its hop count). `slack = 0` balances only exact
    /// ties, trading no latency for better loop utilization.
    Balanced {
        /// Extra hops tolerated relative to the shortest candidate.
        slack: usize,
    },
}

/// A single routing decision: which loop a source injects on to reach a
/// destination, and how many hops the journey takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Route {
    /// Index into [`Topology::loops`] of the loop to inject on.
    pub loop_index: usize,
    /// Directed hop count along that loop.
    pub hops: usize,
}

/// The per-source lookup table of a routerless NoC.
///
/// Routerless designs perform *all* routing at the source (§2.1): each node
/// holds a small table mapping every destination to the loop that reaches it
/// in the fewest hops. This type precomputes that table for a whole
/// [`Topology`].
///
/// # Example
///
/// ```
/// use rlnoc_topology::{Grid, Topology, RectLoop, Direction, RoutingTable};
/// # fn main() -> Result<(), rlnoc_topology::TopologyError> {
/// let grid = Grid::square(2)?;
/// let topo = Topology::from_loops(
///     grid,
///     [RectLoop::new(0, 0, 1, 1, Direction::Clockwise)?],
/// )?;
/// let table = RoutingTable::build(&topo);
/// let route = table.route(0, 3).expect("connected");
/// assert_eq!(route.loop_index, 0);
/// assert_eq!(route.hops, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    n: usize,
    entries: Vec<Option<Route>>,
}

impl RoutingTable {
    /// Precomputes best-loop routes for every ordered pair in `topo` with
    /// the default [`RoutingPolicy::Shortest`] policy.
    ///
    /// Ties between loops with equal hop count are broken toward the
    /// earlier-added loop, matching a deterministic hardware table.
    pub fn build(topo: &Topology) -> Self {
        RoutingTable::build_with(topo, RoutingPolicy::Shortest)
    }

    /// Precomputes routes under the given [`RoutingPolicy`].
    pub fn build_with(topo: &Topology, policy: RoutingPolicy) -> Self {
        RoutingTable::build_filtered(topo, policy, None)
    }

    /// Re-derives the table over surviving loops only, excluding every
    /// route that uses a failed loop, with the default
    /// [`RoutingPolicy::Shortest`] policy.
    ///
    /// Returns the degraded table together with a [`ReachabilityReport`]
    /// summarising what connectivity remains, so callers can decide how
    /// to degrade (reroute, drop traffic, alarm) instead of panicking on
    /// partial connectivity. With an empty [`FaultSet`] the returned
    /// table is identical to [`RoutingTable::build`].
    pub fn rebuild_excluding(topo: &Topology, faults: &FaultSet) -> (Self, ReachabilityReport) {
        RoutingTable::rebuild_excluding_with(topo, faults, RoutingPolicy::Shortest)
    }

    /// [`RoutingTable::rebuild_excluding`] under an explicit policy.
    pub fn rebuild_excluding_with(
        topo: &Topology,
        faults: &FaultSet,
        policy: RoutingPolicy,
    ) -> (Self, ReachabilityReport) {
        let table = RoutingTable::build_filtered(topo, policy, Some(faults));
        let report = table.reachability_report();
        (table, report)
    }

    /// Summarises this table's coverage as a [`ReachabilityReport`].
    pub fn reachability_report(&self) -> ReachabilityReport {
        let n = self.n;
        let total_pairs = n * n - n;
        let mut reachable_pairs = 0;
        let mut disconnected = Vec::new();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                if self.entries[src * n + dst].is_some() {
                    reachable_pairs += 1;
                } else {
                    disconnected.push((src, dst));
                }
            }
        }
        ReachabilityReport {
            total_pairs,
            reachable_pairs,
            average_hops: self.average_hops(),
            disconnected,
        }
    }

    /// Shared construction path: enumerate candidate routes per ordered
    /// pair (optionally skipping the loops a `FaultSet` marks failed), then
    /// select per the policy. `Shortest` keeps only the best so far:
    /// candidates come in loop order, so replacing it only on strictly
    /// fewer hops breaks ties toward the earlier-added loop.
    fn build_filtered(topo: &Topology, policy: RoutingPolicy, faults: Option<&FaultSet>) -> Self {
        let grid = topo.grid();
        let n = grid.len();
        let mut entries: Vec<Option<Route>> = vec![None; n * n];
        // Candidate routes per ordered pair, kept only for `Balanced`.
        let mut candidates: Vec<Vec<Route>> = match policy {
            RoutingPolicy::Shortest => Vec::new(),
            RoutingPolicy::Balanced { .. } => vec![Vec::new(); n * n],
        };
        for (i, ring) in topo.loops().iter().enumerate() {
            if faults.is_some_and(|f| f.loop_failed(i)) {
                continue;
            }
            let nodes = ring.perimeter_nodes(grid);
            let len = nodes.len();
            for (pi, &a) in nodes.iter().enumerate() {
                for (pj, &b) in nodes.iter().enumerate() {
                    if a == b {
                        continue;
                    }
                    let hops = (pj + len - pi) % len;
                    let route = Route {
                        loop_index: i,
                        hops,
                    };
                    match policy {
                        RoutingPolicy::Shortest => {
                            let best = &mut entries[a * n + b];
                            if best.is_none_or(|best| hops < best.hops) {
                                *best = Some(route);
                            }
                        }
                        RoutingPolicy::Balanced { .. } => candidates[a * n + b].push(route),
                    }
                }
            }
        }
        if let RoutingPolicy::Balanced { slack } = policy {
            // Greedy global balancing: assign pairs in node order,
            // weighting each loop by the hop-traffic already routed on
            // it, and choosing the least-loaded near-shortest loop.
            let mut load = vec![0u64; topo.loops().len()];
            for (cell, cands) in entries.iter_mut().zip(&candidates) {
                let Some(best) = cands.iter().map(|r| r.hops).min() else {
                    continue;
                };
                let chosen = cands
                    .iter()
                    .copied()
                    .filter(|r| r.hops <= best + slack)
                    .min_by_key(|r| (load[r.loop_index], r.hops, r.loop_index))
                    .expect("at least the shortest candidate qualifies");
                load[chosen.loop_index] += chosen.hops as u64;
                *cell = Some(chosen);
            }
        }
        RoutingTable { n, entries }
    }

    /// The route from `src` to `dst`, or `None` if unconnected (or
    /// `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        assert!(src < self.n && dst < self.n, "node out of range");
        self.entries[src * self.n + dst]
    }

    /// Number of nodes the table covers.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Whether every ordered pair of distinct nodes has a route.
    pub fn is_complete(&self) -> bool {
        self.entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.is_some() || i / self.n == i % self.n)
    }

    /// Average hop count over all routed pairs, or `None` if no pair is
    /// routed. Agrees with
    /// [`HopMatrix::average_connected_hops`](crate::HopMatrix::average_connected_hops).
    pub fn average_hops(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut count = 0u64;
        for e in self.entries.iter().flatten() {
            total += e.hops as u64;
            count += 1;
        }
        (count > 0).then(|| total as f64 / count as f64)
    }

    /// Per-source table occupancy: how many destinations each source can
    /// reach. Useful for sizing the hardware lookup table.
    pub fn occupancy(&self, src: NodeId) -> usize {
        assert!(src < self.n, "node out of range");
        self.entries[src * self.n..(src + 1) * self.n]
            .iter()
            .filter(|e| e.is_some())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, Grid, RectLoop};

    fn topo_4x4_two_rings() -> Topology {
        let g = Grid::square(4).unwrap();
        Topology::from_loops(
            g,
            [
                RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap(),
                RectLoop::new(0, 0, 3, 3, Direction::Counterclockwise).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn picks_shorter_direction() {
        let t = topo_4x4_two_rings();
        let g = *t.grid();
        let table = RoutingTable::build(&t);
        let a = g.node_at(0, 0);
        let b = g.node_at(3, 0);
        // CW reaches b in 3 hops, CCW in 9: table must pick CW (index 0).
        let r = table.route(a, b).unwrap();
        assert_eq!(
            r,
            Route {
                loop_index: 0,
                hops: 3
            }
        );
        // And the reverse pair prefers CCW.
        let r = table.route(b, a).unwrap();
        assert_eq!(
            r,
            Route {
                loop_index: 1,
                hops: 3
            }
        );
    }

    #[test]
    fn equal_hops_break_toward_earlier_loop() {
        // Opposite corners of the 12-node ring are 6 hops apart either way.
        let t = topo_4x4_two_rings();
        let g = *t.grid();
        let table = RoutingTable::build(&t);
        for (a, b) in [
            (g.node_at(0, 0), g.node_at(3, 3)),
            (g.node_at(3, 0), g.node_at(0, 3)),
        ] {
            for (src, dst) in [(a, b), (b, a)] {
                let route = Route {
                    loop_index: 0,
                    hops: 6,
                };
                assert_eq!(table.route(src, dst), Some(route));
            }
        }
    }

    #[test]
    fn agrees_with_hop_matrix() {
        let t = topo_4x4_two_rings();
        let table = RoutingTable::build(&t);
        let hops = t.hop_matrix();
        for s in t.grid().nodes() {
            for d in t.grid().nodes() {
                if s == d {
                    assert_eq!(table.route(s, d), None);
                    continue;
                }
                match table.route(s, d) {
                    Some(r) => assert_eq!(r.hops as u32, hops.hops(s, d)),
                    None => assert!(!hops.is_connected(s, d)),
                }
            }
        }
    }

    #[test]
    fn incomplete_table_reports_gaps() {
        let g = Grid::square(4).unwrap();
        let t = Topology::from_loops(
            g,
            [RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap()],
        )
        .unwrap();
        let table = RoutingTable::build(&t);
        assert!(!table.is_complete());
        let corner = g.node_at(0, 0);
        let inner = g.node_at(1, 1);
        assert_eq!(table.route(corner, inner), None);
        assert_eq!(table.occupancy(corner), 11, "perimeter minus itself");
        assert_eq!(table.occupancy(inner), 0);
    }

    #[test]
    fn balanced_zero_slack_preserves_hop_optimality() {
        let t = topo_4x4_two_rings();
        let shortest = RoutingTable::build(&t);
        let balanced = RoutingTable::build_with(&t, RoutingPolicy::Balanced { slack: 0 });
        // Same hop count on every pair, possibly different loop choices.
        for s in t.grid().nodes() {
            for d in t.grid().nodes() {
                match (shortest.route(s, d), balanced.route(s, d)) {
                    (Some(a), Some(b)) => assert_eq!(a.hops, b.hops, "pair ({s},{d})"),
                    (None, None) => {}
                    other => panic!("coverage differs on ({s},{d}): {other:?}"),
                }
            }
        }
        assert!(
            (shortest.average_hops().unwrap() - balanced.average_hops().unwrap()).abs() < 1e-12
        );
    }

    #[test]
    fn balanced_spreads_load_across_tied_loops() {
        // Two identical-geometry loops (opposite directions) on a 2x2 grid:
        // every pair has a 2-hop... no — on a 4-cycle, distances are 1,2,3
        // CW and 3,2,1 CCW, tying only at distance 2. Check the diagonal
        // pairs (distance 2 both ways) split across loops under balancing.
        let g = Grid::square(2).unwrap();
        let t = Topology::from_loops(
            g,
            [
                RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap(),
                RectLoop::new(0, 0, 1, 1, Direction::Counterclockwise).unwrap(),
            ],
        )
        .unwrap();
        let table = RoutingTable::build_with(&t, RoutingPolicy::Balanced { slack: 0 });
        let mut used = [0usize; 2];
        for s in g.nodes() {
            for d in g.nodes() {
                if let Some(r) = table.route(s, d) {
                    used[r.loop_index] += 1;
                }
            }
        }
        assert!(
            used[0] > 0 && used[1] > 0,
            "both loops must carry traffic: {used:?}"
        );
    }

    #[test]
    fn balanced_slack_trades_hops_for_balance() {
        let t = topo_4x4_two_rings();
        let relaxed = RoutingTable::build_with(&t, RoutingPolicy::Balanced { slack: 6 });
        let strict = RoutingTable::build(&t);
        // Slack can only increase (or keep) average hops, never lose
        // coverage.
        assert!(relaxed.is_complete() == strict.is_complete());
        assert!(relaxed.average_hops().unwrap() + 1e-12 >= strict.average_hops().unwrap());
    }

    #[test]
    fn average_matches_matrix_average() {
        let t = topo_4x4_two_rings();
        let table = RoutingTable::build(&t);
        let expect = t.hop_matrix().average_connected_hops().unwrap();
        let got = table.average_hops().unwrap();
        assert!((expect - got).abs() < 1e-9);
    }

    #[test]
    fn zero_fault_rebuild_is_identical_to_build() {
        let t = topo_4x4_two_rings();
        let faults = FaultSet::new();
        let (degraded, report) = RoutingTable::rebuild_excluding(&t, &faults);
        assert_eq!(degraded, RoutingTable::build(&t));
        assert_eq!(report.total_pairs, 16 * 15);
        // Perimeter rings never reach the four inner nodes; the report
        // must agree exactly with the healthy table's coverage.
        assert_eq!(report, RoutingTable::build(&t).reachability_report());
        // And under the balanced policy too.
        let policy = RoutingPolicy::Balanced { slack: 2 };
        let (degraded, _) = RoutingTable::rebuild_excluding_with(&t, &faults, policy);
        assert_eq!(degraded, RoutingTable::build_with(&t, policy));
    }

    #[test]
    fn failed_loop_reroutes_onto_survivor() {
        let t = topo_4x4_two_rings();
        let mut faults = FaultSet::new();
        faults.fail_loop(0);
        let (table, report) = RoutingTable::rebuild_excluding(&t, &faults);
        // The CCW twin covers the same (perimeter) pairs alone, at worse
        // average hops — every surviving route must use loop 1.
        let healthy_report = RoutingTable::build(&t).reachability_report();
        assert_eq!(report.reachable_pairs, healthy_report.reachable_pairs);
        for s in t.grid().nodes() {
            for d in t.grid().nodes() {
                if let Some(r) = table.route(s, d) {
                    assert_eq!(r.loop_index, 1);
                }
            }
        }
        let healthy = RoutingTable::build(&t).average_hops().unwrap();
        assert!(report.average_hops.unwrap() > healthy);
    }

    #[test]
    fn all_loops_failed_disconnects_everything() {
        let t = topo_4x4_two_rings();
        let mut faults = FaultSet::new();
        faults.fail_loop(0).fail_loop(1);
        let (table, report) = RoutingTable::rebuild_excluding(&t, &faults);
        assert_eq!(report.reachable_pairs, 0);
        assert_eq!(report.disconnected_pairs(), 16 * 15);
        assert_eq!(report.average_hops, None);
        assert!(!table.is_complete());
    }

    #[test]
    fn reachability_report_matches_table_queries() {
        let t = topo_4x4_two_rings();
        let mut faults = FaultSet::new();
        faults.fail_loop(1);
        let (table, report) = RoutingTable::rebuild_excluding(&t, &faults);
        assert_eq!(
            report.reachable_pairs + report.disconnected_pairs(),
            report.total_pairs
        );
        for &(s, d) in &report.disconnected {
            assert!(table.route(s, d).is_none());
        }
        assert_eq!(table.reachability_report(), report);
    }
}

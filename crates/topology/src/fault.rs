//! Fault modelling for routerless topologies: which loops have failed,
//! and what connectivity survives them.
//!
//! The paper's §6.7 argues DRL designs tolerate failures better than REC
//! because more distinct loops serve each pair (3.79 vs 2.77 on 8x8). A
//! [`FaultSet`] makes that claim executable: it names failed loops, and
//! [`RoutingTable::rebuild_excluding`](crate::RoutingTable::rebuild_excluding)
//! re-derives per-destination routes over the surviving loops only,
//! summarising what remains in a [`ReachabilityReport`] so callers can
//! degrade gracefully instead of panicking on partial connectivity.

use crate::NodeId;
use serde::{Deserialize, Serialize};

/// A set of failed loops. A failed loop is disabled whole (e.g. a defect
/// in the shared loop control logic): no flit may use any part of it.
///
/// The set is kept sorted and deduplicated, so equality and serialization
/// are canonical.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Failed loop indices (into [`Topology::loops`](crate::Topology::loops)),
    /// sorted, deduplicated.
    failed_loops: Vec<usize>,
}

impl FaultSet {
    /// An empty fault set (everything healthy).
    pub fn new() -> Self {
        FaultSet::default()
    }

    /// Whether no fault is recorded.
    pub fn is_empty(&self) -> bool {
        self.failed_loops.is_empty()
    }

    /// Marks a whole loop as failed. Idempotent.
    pub fn fail_loop(&mut self, loop_index: usize) -> &mut Self {
        if let Err(at) = self.failed_loops.binary_search(&loop_index) {
            self.failed_loops.insert(at, loop_index);
        }
        self
    }

    /// Whether the whole loop has failed.
    pub fn loop_failed(&self, loop_index: usize) -> bool {
        self.failed_loops.binary_search(&loop_index).is_ok()
    }

    /// Failed loop indices, ascending.
    pub fn failed_loops(&self) -> &[usize] {
        &self.failed_loops
    }

    /// Total number of recorded faults.
    pub fn len(&self) -> usize {
        self.failed_loops.len()
    }

    /// Selects `k` distinct loops out of `num_loops` to fail, chosen
    /// deterministically from `seed` (a SplitMix64-driven partial
    /// Fisher-Yates). The workhorse of fault-tolerance sweeps: the same
    /// `(k, num_loops, seed)` always kills the same loops, regardless of
    /// platform or thread count.
    pub fn random_loop_failures(k: usize, num_loops: usize, seed: u64) -> FaultSet {
        let mut indices: Vec<usize> = (0..num_loops).collect();
        let mut state = seed;
        let mut faults = FaultSet::new();
        for step in 0..k.min(num_loops) {
            // SplitMix64 finalizer: decorrelates consecutive draws.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let remaining = num_loops - step;
            let pick = step + (z % remaining as u64) as usize;
            indices.swap(step, pick);
            faults.fail_loop(indices[step]);
        }
        faults
    }
}

/// What connectivity survives a fault set, as reported by
/// [`RoutingTable::rebuild_excluding`](crate::RoutingTable::rebuild_excluding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReachabilityReport {
    /// Ordered pairs of distinct nodes in the grid.
    pub total_pairs: usize,
    /// Pairs the degraded routing table still serves.
    pub reachable_pairs: usize,
    /// Average hop count over the reachable pairs, or `None` when nothing
    /// is reachable.
    pub average_hops: Option<f64>,
    /// The pairs left without any route, in `(src, dst)` order.
    pub disconnected: Vec<(NodeId, NodeId)>,
}

impl ReachabilityReport {
    /// Fraction of pairs still reachable (1.0 for an empty grid).
    pub fn reachability(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.reachable_pairs as f64 / self.total_pairs as f64
        }
    }

    /// Number of pairs left without a route.
    pub fn disconnected_pairs(&self) -> usize {
        self.disconnected.len()
    }

    /// Whether every ordered pair of distinct nodes still has a route.
    pub fn is_fully_connected(&self) -> bool {
        self.reachable_pairs == self.total_pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_set_is_canonical_and_idempotent() {
        let mut a = FaultSet::new();
        a.fail_loop(3).fail_loop(1).fail_loop(3);
        let mut b = FaultSet::new();
        b.fail_loop(1).fail_loop(3);
        assert_eq!(a, b);
        assert_eq!(a.failed_loops(), &[1, 3]);
        assert_eq!(a.len(), 2);
        assert!(a.loop_failed(1) && a.loop_failed(3) && !a.loop_failed(2));
    }

    #[test]
    fn empty_set_reports_empty() {
        let f = FaultSet::new();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(!f.loop_failed(0));
    }

    #[test]
    fn random_loop_failures_are_deterministic_and_distinct() {
        let a = FaultSet::random_loop_failures(3, 14, 42);
        let b = FaultSet::random_loop_failures(3, 14, 42);
        assert_eq!(a, b);
        assert_eq!(a.failed_loops().len(), 3);
        assert!(a.failed_loops().iter().all(|&l| l < 14));
        let c = FaultSet::random_loop_failures(3, 14, 43);
        // Different seeds *can* collide, but not for these constants.
        assert_ne!(a, c);
        // k past the loop count saturates instead of spinning.
        let all = FaultSet::random_loop_failures(20, 5, 7);
        assert_eq!(all.failed_loops(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn reachability_report_ratios() {
        let r = ReachabilityReport {
            total_pairs: 12,
            reachable_pairs: 9,
            average_hops: Some(2.5),
            disconnected: vec![(0, 3), (3, 0), (1, 2)],
        };
        assert!((r.reachability() - 0.75).abs() < 1e-12);
        assert_eq!(r.disconnected_pairs(), 3);
        assert!(!r.is_fully_connected());
        let empty = ReachabilityReport {
            total_pairs: 0,
            reachable_pairs: 0,
            average_hops: None,
            disconnected: Vec::new(),
        };
        assert_eq!(empty.reachability(), 1.0);
        assert!(empty.is_fully_connected());
    }
}

//! Cycle-scheduled loop kills for the routerless simulator, applied at
//! exact cycles so faulted runs stay deterministic (and therefore
//! bit-identical across sweep thread counts).
//!
//! A [`FaultPlan`] is a sorted schedule of [`FaultEvent`]s, replayed by
//! `RouterlessSim::with_faults` at the top of each tick. The only fault
//! is a whole-loop kill, the failure the paper's §6.7 reliability
//! argument counts; an *empty* plan is required to leave the kernel
//! bit-identical to its fault-free behaviour — the parity tests in
//! `tests/fault_parity.rs` enforce that contract.

use rlnoc_topology::FaultSet;
use serde::{Deserialize, Serialize};

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Permanently kill a whole loop of a routerless fabric at cycle `at`:
    /// in-flight flits on the loop are dropped (counted in
    /// `dropped_by_fault`), and sources reroute over the survivors.
    KillLoop {
        /// Cycle the fault becomes active (applied at the top of that tick).
        at: u64,
        /// Index into the topology's loop list.
        loop_index: usize,
    },
}

impl FaultEvent {
    /// The cycle at which this event takes effect.
    pub fn activation_cycle(&self) -> u64 {
        match *self {
            FaultEvent::KillLoop { at, .. } => at,
        }
    }
}

/// A deterministic schedule of faults, sorted by activation cycle.
///
/// Build one with [`FaultPlan::kill_loop`] (or from a [`FaultSet`] via
/// [`FaultPlan::kill_faults_at`]) and hand it to
/// `RouterlessSim::with_faults`. The same plan replayed against the same
/// traffic always produces the same `Metrics`, whatever thread count the
/// sweep engine uses.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan — simulators treat it exactly like no plan at all.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, sorted by activation cycle (stable order for
    /// equal cycles: insertion order).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Schedules `event`, keeping the list sorted by activation cycle.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        let at = event.activation_cycle();
        let idx = self.events.partition_point(|e| e.activation_cycle() <= at);
        self.events.insert(idx, event);
        self
    }

    /// Schedules a whole-loop kill at `at`.
    pub fn kill_loop(&mut self, at: u64, loop_index: usize) -> &mut Self {
        self.push(FaultEvent::KillLoop { at, loop_index })
    }

    /// Schedules a kill at `at` for every loop a [`FaultSet`] marks
    /// failed — the bridge from the static topology-layer fault model to
    /// the dynamic schedule.
    pub fn kill_faults_at(&mut self, at: u64, faults: &FaultSet) -> &mut Self {
        for &l in faults.failed_loops() {
            self.kill_loop(at, l);
        }
        self
    }

    /// Convenience: a plan killing `k` deterministic random loops (out of
    /// `num_loops`) at cycle `at`, seeded like
    /// [`FaultSet::random_loop_failures`].
    pub fn random_loop_kills(at: u64, k: usize, num_loops: usize, seed: u64) -> Self {
        let mut plan = FaultPlan::new();
        plan.kill_faults_at(at, &FaultSet::random_loop_failures(k, num_loops, seed));
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_stay_sorted_by_cycle() {
        let mut plan = FaultPlan::new();
        plan.kill_loop(50, 2)
            .kill_loop(10, 0)
            .kill_loop(30, 1)
            .kill_loop(10, 4);
        let cycles: Vec<u64> = plan.events().iter().map(|e| e.activation_cycle()).collect();
        assert_eq!(cycles, vec![10, 10, 30, 50]);
        // Equal cycles keep insertion order.
        assert_eq!(
            plan.events()[..2],
            [
                FaultEvent::KillLoop {
                    at: 10,
                    loop_index: 0
                },
                FaultEvent::KillLoop {
                    at: 10,
                    loop_index: 4
                }
            ]
        );
    }

    #[test]
    fn kill_faults_at_mirrors_fault_set() {
        let mut fs = FaultSet::new();
        fs.fail_loop(3).fail_loop(1);
        let mut plan = FaultPlan::new();
        plan.kill_faults_at(5, &fs);
        assert_eq!(
            plan.events(),
            [
                FaultEvent::KillLoop {
                    at: 5,
                    loop_index: 1
                },
                FaultEvent::KillLoop {
                    at: 5,
                    loop_index: 3
                }
            ]
        );
    }

    #[test]
    fn random_loop_kills_are_deterministic() {
        let a = FaultPlan::random_loop_kills(0, 2, 14, 9);
        let b = FaultPlan::random_loop_kills(0, 2, 14, 9);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 2);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(FaultPlan::random_loop_kills(0, 0, 14, 1).is_empty());
    }
}

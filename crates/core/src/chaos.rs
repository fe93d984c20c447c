//! Deterministic fault injection for the supervised exploration drivers.
//!
//! A [`ChaosInjector`] carries a [`ChaosPlan`] — which global cycles get a
//! NaN gradient or a worker panic — and fires each scheduled fault exactly
//! once, on the *first* attempt of its cycle. Because faults are keyed on
//! the cycle index (not the worker or wall clock), a chaos run is
//! reproducible at any thread count. A panicked cycle is requeued and its
//! retry observes a clean world: with the RNG escrow handing the respawned
//! worker its stream, the recovered run is bit-identical to the
//! never-faulted run. A NaN gradient stops the run with a typed error
//! (both asserted in `tests/chaos.rs`).
//!
//! The injector is intended for tests and the `exp_chaos` smoke binary,
//! but it ships in the library so the hook sites in [`crate::parallel`]
//! exercise the exact production code path; with no injector configured
//! each hook is one `Option` branch.

use rlnoc_nn::Tensor;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which faults fire at which global cycle indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Cycles whose gradient snapshot gets a NaN written into its first
    /// tensor, which stops the run with
    /// [`crate::parallel::ExploreError::Numerical`].
    pub nan_grad_cycles: Vec<usize>,
    /// Cycles whose first attempt panics at cycle start (exercises the
    /// catch_unwind/respawn path).
    pub panic_cycles: Vec<usize>,
}

impl ChaosPlan {
    /// A seed-scheduled plan over `total_cycles`: `faults` panic cycles
    /// drawn without replacement via SplitMix64. Deterministic in
    /// `(seed, total_cycles, faults)`.
    pub fn seeded(seed: u64, total_cycles: usize, faults: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            // SplitMix64: the workspace's standard stateless stream.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut chosen = BTreeSet::new();
        while chosen.len() < faults.min(total_cycles) {
            chosen.insert((next() % total_cycles as u64) as usize);
        }
        ChaosPlan {
            panic_cycles: chosen.into_iter().collect(),
            ..ChaosPlan::default()
        }
    }
}

/// The distinct fault classes, used to key the fired-once bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultClass {
    NanGrad,
    Panic,
}

#[derive(Debug)]
struct InjectorState {
    plan: ChaosPlan,
    /// `(class, cycle)` pairs that already fired.
    fired: parking_lot::Mutex<BTreeSet<(FaultClass, usize)>>,
    injected: AtomicU64,
}

/// A cloneable handle to one shared fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosInjector(Arc<InjectorState>);

impl ChaosInjector {
    /// Wraps a plan for sharing across workers.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosInjector(Arc::new(InjectorState {
            plan,
            fired: parking_lot::Mutex::new(BTreeSet::new()),
            injected: AtomicU64::new(0),
        }))
    }

    /// The schedule this injector executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.0.plan
    }

    /// Total faults injected so far (all classes).
    pub fn injected(&self) -> u64 {
        self.0.injected.load(Ordering::Relaxed)
    }

    /// Claims the one-shot fault `(class, cycle)` if scheduled and not yet
    /// fired.
    fn claim(&self, class: FaultClass, cycle: usize, scheduled: &[usize]) -> bool {
        if !scheduled.contains(&cycle) {
            return false;
        }
        if !self.0.fired.lock().insert((class, cycle)) {
            return false;
        }
        self.0.injected.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Cycle-start hook: panics if `cycle` is a scheduled panic cycle
    /// (first attempt only).
    pub fn on_cycle_start(&self, cycle: usize) {
        if self.claim(FaultClass::Panic, cycle, &self.0.plan.panic_cycles) {
            panic!("chaos: injected worker panic at cycle {cycle}");
        }
    }

    /// Gradient hook: writes a NaN into `grads` when `cycle` is a
    /// scheduled NaN-gradient cycle. Returns true when something was
    /// injected.
    pub fn corrupt_grads(&self, cycle: usize, grads: &mut [Tensor]) -> bool {
        if grads.is_empty() || !self.claim(FaultClass::NanGrad, cycle, &self.0.plan.nan_grad_cycles)
        {
            return false;
        }
        grads[0].as_mut_slice()[0] = f32::NAN;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_per_cycle() {
        let plan = ChaosPlan {
            nan_grad_cycles: vec![2],
            ..ChaosPlan::default()
        };
        let inj = ChaosInjector::new(plan);
        let mut grads = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        assert!(!inj.corrupt_grads(1, &mut grads));
        assert!(inj.corrupt_grads(2, &mut grads), "scheduled cycle fires");
        assert!(grads[0].as_slice()[0].is_nan());
        grads[0].as_mut_slice()[0] = 1.0;
        assert!(
            !inj.corrupt_grads(2, &mut grads),
            "a second attempt sees a clean world"
        );
        assert!(grads[0].as_slice()[0].is_finite());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    #[should_panic(expected = "injected worker panic")]
    fn panic_injection_panics() {
        let plan = ChaosPlan {
            panic_cycles: vec![0],
            ..ChaosPlan::default()
        };
        let inj = ChaosInjector::new(plan);
        inj.on_cycle_start(0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_disjoint() {
        let a = ChaosPlan::seeded(7, 40, 10);
        let b = ChaosPlan::seeded(7, 40, 10);
        assert_eq!(a, b);
        let c = ChaosPlan::seeded(8, 40, 10);
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.nan_grad_cycles.is_empty(), "seeded plans only panic");
        let mut all = a.panic_cycles.clone();
        assert_eq!(all.len(), 10);
        all.dedup();
        assert_eq!(all.len(), 10, "fault cycles drawn without replacement");
        assert!(all.iter().all(|&cy| cy < 40));
        assert_eq!(ChaosPlan::seeded(7, 0, 3), ChaosPlan::default());
    }
}

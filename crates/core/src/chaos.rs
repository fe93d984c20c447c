//! Deterministic fault injection for the resilience layer.
//!
//! A [`ChaosInjector`] carries a [`ChaosPlan`] — which global cycles get a
//! NaN gradient, a scaled (exploding) gradient, a poisoned parameter, or a
//! worker panic — and fires each scheduled fault exactly once, on the
//! *first* attempt of its cycle. Because faults are keyed on the cycle
//! index (not the worker or wall clock), a chaos run is
//! reproducible at any thread count, and a recovered retry of the same
//! cycle observes a clean world: with the retry machinery restoring the
//! worker RNG, the recovered run is bit-identical to the never-faulted run
//! (asserted in `tests/chaos.rs`).
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
    /// tensor (first attempt only — the retry computes clean gradients).
    pub nan_grad_cycles: Vec<usize>,
    /// Cycles whose gradients get a NaN on *every* attempt, modelling a
    /// persistent numerical failure that must end in quarantine and a
    /// typed [`crate::parallel::ExploreError::Numerical`].
    pub persistent_nan_grad_cycles: Vec<usize>,
    /// Cycles whose gradients are scaled by [`ChaosPlan::explode_factor`]
    /// (finite, but far beyond any sane norm) to trip the EWMA check.
    pub explode_grad_cycles: Vec<usize>,
    /// Gradient scale applied on exploding cycles.
    pub explode_factor: f32,
    /// Cycles after whose optimizer step the first parent parameter is
    /// poisoned with NaN, forcing the post-step check to roll back.
    pub nan_param_cycles: Vec<usize>,
    /// Cycles whose first attempt panics at cycle start (exercises the
    /// catch_unwind/respawn path).
    pub panic_cycles: Vec<usize>,
}

impl ChaosPlan {
    /// A plan that injects nothing (useful as a mutation base).
    pub fn none() -> Self {
        ChaosPlan {
            explode_factor: 1e12,
            ..ChaosPlan::default()
        }
    }

    /// A seed-scheduled plan over `total_cycles`: `faults` cycles are drawn
    /// without replacement via SplitMix64 and dealt round-robin across the
    /// recoverable fault classes (NaN grad, exploding grad, NaN param,
    /// panic). Deterministic in `(seed, total_cycles, faults)`.
    pub fn seeded(seed: u64, total_cycles: usize, faults: usize) -> Self {
        let mut plan = ChaosPlan::none();
        if total_cycles == 0 {
            return plan;
        }
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
        for (i, cycle) in chosen.into_iter().enumerate() {
            match i % 4 {
                0 => plan.nan_grad_cycles.push(cycle),
                1 => plan.explode_grad_cycles.push(cycle),
                2 => plan.nan_param_cycles.push(cycle),
                _ => plan.panic_cycles.push(cycle),
            }
        }
        plan
    }
}

/// The distinct fault classes, used to key the fired-once bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FaultClass {
    NanGrad,
    ExplodeGrad,
    NanParam,
    Panic,
}

#[derive(Debug)]
struct InjectorState {
    plan: ChaosPlan,
    /// `(class, cycle)` pairs that already fired (persistent faults are
    /// never recorded here).
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

    /// Gradient hook: corrupts `grads` when cycle is scheduled. Returns
    /// true when something was injected.
    pub fn corrupt_grads(&self, cycle: usize, grads: &mut [Tensor]) -> bool {
        if grads.is_empty() {
            return false;
        }
        if self.0.plan.persistent_nan_grad_cycles.contains(&cycle) {
            // Persistent: fires on every attempt, bypassing fired-once.
            self.0.injected.fetch_add(1, Ordering::Relaxed);
            grads[0].as_mut_slice()[0] = f32::NAN;
            return true;
        }
        if self.claim(FaultClass::NanGrad, cycle, &self.0.plan.nan_grad_cycles) {
            grads[0].as_mut_slice()[0] = f32::NAN;
            return true;
        }
        if self.claim(
            FaultClass::ExplodeGrad,
            cycle,
            &self.0.plan.explode_grad_cycles,
        ) {
            let factor = self.0.plan.explode_factor;
            for g in grads.iter_mut() {
                *g = g.scale(factor);
            }
            return true;
        }
        false
    }

    /// Post-step hook: reports whether the parent's parameters should be
    /// poisoned for `cycle` (the caller writes the NaN while holding the
    /// parent lock, so the post-step verifier sees it).
    pub fn take_param_corruption(&self, cycle: usize) -> bool {
        self.claim(FaultClass::NanParam, cycle, &self.0.plan.nan_param_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_once_per_cycle() {
        let mut plan = ChaosPlan::none();
        plan.nan_grad_cycles = vec![2];
        let inj = ChaosInjector::new(plan);
        let mut grads = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        assert!(!inj.corrupt_grads(1, &mut grads));
        assert!(inj.corrupt_grads(2, &mut grads), "scheduled cycle fires");
        assert!(grads[0].as_slice()[0].is_nan());
        grads[0].as_mut_slice()[0] = 1.0;
        assert!(
            !inj.corrupt_grads(2, &mut grads),
            "retry sees a clean world"
        );
        assert!(grads[0].as_slice()[0].is_finite());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn persistent_faults_fire_every_attempt() {
        let mut plan = ChaosPlan::none();
        plan.persistent_nan_grad_cycles = vec![0];
        let inj = ChaosInjector::new(plan);
        let mut grads = vec![Tensor::zeros(&[2])];
        for _ in 0..3 {
            grads[0].as_mut_slice()[0] = 0.0;
            assert!(inj.corrupt_grads(0, &mut grads));
            assert!(grads[0].as_slice()[0].is_nan());
        }
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn explode_scales_all_tensors() {
        let mut plan = ChaosPlan::none();
        plan.explode_grad_cycles = vec![0];
        plan.explode_factor = 100.0;
        let inj = ChaosInjector::new(plan);
        let mut grads = vec![
            Tensor::from_vec(vec![1.0], &[1]).unwrap(),
            Tensor::from_vec(vec![-2.0], &[1]).unwrap(),
        ];
        assert!(inj.corrupt_grads(0, &mut grads));
        assert_eq!(grads[0].as_slice(), &[100.0]);
        assert_eq!(grads[1].as_slice(), &[-200.0]);
    }

    #[test]
    #[should_panic(expected = "injected worker panic")]
    fn panic_injection_panics() {
        let mut plan = ChaosPlan::none();
        plan.panic_cycles = vec![0];
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
        let mut all: Vec<usize> = a
            .nan_grad_cycles
            .iter()
            .chain(&a.explode_grad_cycles)
            .chain(&a.nan_param_cycles)
            .chain(&a.panic_cycles)
            .copied()
            .collect();
        assert_eq!(all.len(), 10);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 10, "fault cycles drawn without replacement");
        assert!(all.iter().all(|&cy| cy < 40));
    }
}

//! Deterministic fault injection for the exploration drivers.
//!
//! A [`ChaosInjector`] carries a [`ChaosPlan`]: which cycles get a NaN
//! gradient or a panic. Faults are keyed on the cycle index (not the
//! worker or wall clock), so a chaos run is reproducible at any thread
//! count. Either fault stops the run at its first occurrence with a typed
//! error, a panic with [`crate::parallel::ExploreError::Panicked`] and a
//! NaN gradient with [`crate::parallel::ExploreError::Numerical`], whose
//! partial results at one thread are bit-identical to the clean run's
//! cycles before the fault (asserted in `tests/chaos.rs`). The serial
//! [`crate::Explorer`] honors the same plan, keyed on the cycle index of
//! its `run_cycles` call, and panics with the stop's message. Nothing is
//! retried, so each scheduled fault fires at most once and a schedule with
//! several panics stops at the first one a worker reaches.
//!
//! The injector is intended for tests, but it ships in the library so its
//! hooks, which sit in the cycle body every driver shares
//! (`explorer::run_cycle`), exercise the exact production code
//! path; with no injector configured each hook is one `Option` branch.

use rlnoc_nn::Tensor;
use std::sync::Arc;

/// Which faults fire at which global cycle indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    /// Cycles whose gradient snapshot gets a NaN written into its first
    /// tensor, which stops the run with
    /// [`crate::parallel::ExploreError::Numerical`].
    pub nan_grad_cycles: Vec<usize>,
    /// Cycles that panic at cycle start, which stops the run with
    /// [`crate::parallel::ExploreError::Panicked`].
    pub panic_cycles: Vec<usize>,
}

/// A cloneable handle to one shared fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosInjector(Arc<ChaosPlan>);

impl ChaosInjector {
    /// Wraps a plan for sharing across workers.
    pub fn new(plan: ChaosPlan) -> Self {
        ChaosInjector(Arc::new(plan))
    }

    /// The schedule this injector executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.0
    }

    /// Cycle-start hook: panics if `cycle` is a scheduled panic cycle.
    pub fn on_cycle_start(&self, cycle: usize) {
        if self.0.panic_cycles.contains(&cycle) {
            panic!("chaos: injected worker panic at cycle {cycle}");
        }
    }

    /// Gradient hook: writes a NaN into the first of `grads` when `cycle`
    /// is a scheduled NaN-gradient cycle. Returns true when something was
    /// injected.
    pub fn corrupt_grads<'a>(
        &self,
        cycle: usize,
        grads: impl IntoIterator<Item = &'a mut Tensor>,
    ) -> bool {
        match grads.into_iter().next() {
            Some(g) if self.0.nan_grad_cycles.contains(&cycle) => {
                g.as_mut_slice()[0] = f32::NAN;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_only_on_scheduled_cycles() {
        let plan = ChaosPlan {
            nan_grad_cycles: vec![2],
            ..ChaosPlan::default()
        };
        let inj = ChaosInjector::new(plan);
        let mut grads = vec![Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap()];
        assert!(!inj.corrupt_grads(1, &mut grads));
        assert!(grads[0].as_slice()[0].is_finite());
        assert!(inj.corrupt_grads(2, &mut grads), "scheduled cycle fires");
        assert!(grads[0].as_slice()[0].is_nan());
        inj.on_cycle_start(2); // no panic scheduled
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
}

//! Training-run resilience: numerical anomaly detection and the rollback
//! policy for the multi-threaded learner.
//!
//! Long unattended exploration runs die in predictable ways: a NaN slips
//! out of a gradient and poisons every parameter within one step, or a
//! mis-scaled reward explodes the gradient norm. This module defines the
//! *policy* side of the defenses — what counts as an anomaly, how often to
//! retry, when to give up — while [`crate::parallel`] implements the
//! mechanism (typed [`AnomalyReport`]s checked around every optimizer step,
//! rollback to the last-good parameter snapshot, and per-worker quarantine
//! with exponential backoff). Worker panics are handled by the same
//! supervisor (catch, respawn, requeue); a worker that hangs without
//! panicking is not detected.
//!
//! The contract that keeps this safe to leave enabled: detection is
//! read-only and intervention only triggers on an actual anomaly, so a
//! zero-anomaly run with the resilience layer on is bit-identical to one
//! with it off (asserted by `tests/chaos.rs`).

use rlnoc_nn::Tensor;
use std::time::Duration;

/// What kind of numerical anomaly was detected around an optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnomalyKind {
    /// The episode's policy or value loss came back NaN/Inf.
    NonFiniteLoss {
        /// Mean policy loss of the poisoned episode.
        policy_loss: f32,
        /// Mean value loss of the poisoned episode.
        value_loss: f32,
    },
    /// A gradient tensor contained a NaN/Inf before the parent step.
    NonFiniteGrad {
        /// Index of the first offending tensor in the parameter list.
        tensor: usize,
    },
    /// The global gradient norm itself was NaN/Inf (overflow in the
    /// sum-of-squares even though no single element was non-finite).
    NonFiniteGradNorm {
        /// The computed pre-clip norm.
        norm: f32,
    },
    /// The pre-clip gradient norm exceeded the EWMA-tracked threshold.
    ExplodingGradNorm {
        /// The observed pre-clip norm.
        norm: f32,
        /// The threshold it exceeded (`ewma_mult x max(ewma, ewma_floor)`).
        threshold: f32,
    },
    /// A parameter tensor was NaN/Inf after the step (the step is rolled
    /// back to the pre-step snapshot).
    NonFiniteParam {
        /// Index of the first offending tensor in the parameter list.
        tensor: usize,
    },
}

impl AnomalyKind {
    /// The telemetry counter name this anomaly increments.
    pub fn counter(&self) -> &'static str {
        match self {
            AnomalyKind::NonFiniteLoss { .. } => "anomaly.nonfinite_loss",
            AnomalyKind::NonFiniteGrad { .. } => "anomaly.nonfinite_grad",
            AnomalyKind::NonFiniteGradNorm { .. } => "anomaly.nonfinite_grad_norm",
            AnomalyKind::ExplodingGradNorm { .. } => "anomaly.exploding_grad_norm",
            AnomalyKind::NonFiniteParam { .. } => "anomaly.nonfinite_param",
        }
    }

    /// Whether handling this anomaly rolled parameters back (only the
    /// post-step check does; the pre-step checks discard the update before
    /// anything is mutated).
    pub fn rolled_back(&self) -> bool {
        matches!(self, AnomalyKind::NonFiniteParam { .. })
    }
}

impl std::fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnomalyKind::NonFiniteLoss {
                policy_loss,
                value_loss,
            } => write!(
                f,
                "non-finite loss (policy {policy_loss}, value {value_loss})"
            ),
            AnomalyKind::NonFiniteGrad { tensor } => {
                write!(f, "non-finite gradient in tensor {tensor}")
            }
            AnomalyKind::NonFiniteGradNorm { norm } => {
                write!(f, "non-finite global gradient norm ({norm})")
            }
            AnomalyKind::ExplodingGradNorm { norm, threshold } => {
                write!(f, "exploding gradient norm {norm} > threshold {threshold}")
            }
            AnomalyKind::NonFiniteParam { tensor } => {
                write!(
                    f,
                    "non-finite parameter in tensor {tensor} after step (rolled back)"
                )
            }
        }
    }
}

/// One detected anomaly, located in the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyReport {
    /// What was detected.
    pub kind: AnomalyKind,
    /// The worker whose update tripped the check.
    pub worker: usize,
    /// The global cycle index whose update was discarded.
    pub cycle: usize,
    /// How many consecutive anomalies this worker had produced at the time
    /// (1 for the first).
    pub consecutive: usize,
}

impl std::fmt::Display for AnomalyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker {} cycle {}: {} (consecutive anomaly #{})",
            self.worker, self.cycle, self.kind, self.consecutive
        )
    }
}

/// Detection/retry policy for numerical anomalies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyPolicy {
    /// Master switch. Disabled, every check compiles down to untaken
    /// branches and the learner behaves exactly as before this layer
    /// existed.
    pub enabled: bool,
    /// How many *consecutive* anomalies one worker may produce before it is
    /// quarantined (its claimed cycle is requeued for surviving workers; if
    /// every worker is quarantined the run fails with
    /// [`crate::parallel::ExploreError::Numerical`]).
    pub max_retries: usize,
    /// Base of the exponential retry backoff (doubles per consecutive
    /// anomaly). Zero disables sleeping, which deterministic tests use.
    pub backoff_base: Duration,
    /// Upper bound on one backoff sleep.
    pub backoff_cap: Duration,
    /// EWMA smoothing factor for the gradient-norm tracker (weight of the
    /// newest observation).
    pub ewma_alpha: f64,
    /// A step is "exploding" when its pre-clip norm exceeds
    /// `ewma_mult x max(ewma, ewma_floor)`.
    pub ewma_mult: f64,
    /// Lower bound substituted for the EWMA in the threshold, so early
    /// near-zero norms cannot produce a hair-trigger threshold.
    pub ewma_floor: f64,
    /// Number of accepted steps observed before the exploding-norm check
    /// arms (the NaN/Inf checks are always armed).
    pub ewma_warmup: u64,
}

impl Default for AnomalyPolicy {
    fn default() -> Self {
        AnomalyPolicy {
            enabled: true,
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(2),
            ewma_alpha: 0.05,
            // Deliberately loose: actor-critic grad norms are heavy-tailed
            // and a false trip costs a retry. The NaN checks do the
            // precision work; this catches runaway divergence.
            ewma_mult: 100.0,
            ewma_floor: 1.0,
            ewma_warmup: 16,
        }
    }
}

impl AnomalyPolicy {
    /// The backoff sleep before retry number `consecutive` (1-based):
    /// `backoff_base * 2^(consecutive-1)`, capped at `backoff_cap`.
    pub fn backoff(&self, consecutive: usize) -> Duration {
        if self.backoff_base.is_zero() {
            return Duration::ZERO;
        }
        let shift = consecutive.saturating_sub(1).min(16) as u32;
        self.backoff_base
            .saturating_mul(1u32 << shift)
            .min(self.backoff_cap)
    }
}

/// The resilience layer's combined configuration, carried by
/// [`crate::ExplorerConfig`] and honored by the [`crate::parallel`]
/// drivers.
#[derive(Debug, Clone, Default)]
pub struct ResilienceConfig {
    /// Numerical anomaly detection/rollback/retry policy.
    pub anomaly: AnomalyPolicy,
    /// Deterministic fault injector for chaos testing; `None` (the
    /// default) costs one branch per hook site.
    pub chaos: Option<crate::chaos::ChaosInjector>,
}

impl ResilienceConfig {
    /// A configuration with every defense switched off — the exact
    /// pre-resilience code path, for A/B bit-identity tests.
    pub fn disabled() -> Self {
        ResilienceConfig {
            anomaly: AnomalyPolicy {
                enabled: false,
                ..AnomalyPolicy::default()
            },
            chaos: None,
        }
    }
}

/// Index of the first tensor in `tensors` containing a non-finite value.
pub fn first_non_finite(tensors: &[Tensor]) -> Option<usize> {
    tensors.iter().position(|t| !t.all_finite())
}

/// EWMA tracker for the pre-clip gradient norm, owned by the parent
/// [`crate::policy::PolicyAgent`] so every worker's accepted steps feed one
/// stream. Rejected steps do not update the average (a poisoned norm must
/// not drag the baseline up toward itself).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NormSentinel {
    ewma: f64,
    observed: u64,
}

impl NormSentinel {
    /// Reconstructs a sentinel from checkpointed state (see
    /// [`crate::checkpoint::LearnerState`]).
    pub fn from_parts(ewma: f64, observed: u64) -> Self {
        NormSentinel { ewma, observed }
    }

    /// The current threshold, or `None` while warming up / disabled.
    pub fn threshold(&self, policy: &AnomalyPolicy) -> Option<f64> {
        if !policy.enabled || self.observed < policy.ewma_warmup {
            return None;
        }
        Some(self.ewma.max(policy.ewma_floor) * policy.ewma_mult)
    }

    /// Folds an accepted step's pre-clip norm into the average.
    pub fn observe(&mut self, norm: f64, policy: &AnomalyPolicy) {
        self.ewma = if self.observed == 0 {
            norm
        } else {
            policy.ewma_alpha * norm + (1.0 - policy.ewma_alpha) * self.ewma
        };
        self.observed += 1;
    }

    /// Number of accepted steps folded in so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The current smoothed norm (0 before any observation).
    pub fn ewma(&self) -> f64 {
        self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinel_warms_up_before_arming() {
        let policy = AnomalyPolicy {
            ewma_warmup: 3,
            ewma_mult: 10.0,
            ewma_floor: 0.0,
            ..AnomalyPolicy::default()
        };
        let mut s = NormSentinel::default();
        assert_eq!(s.threshold(&policy), None);
        s.observe(2.0, &policy);
        s.observe(2.0, &policy);
        assert_eq!(s.threshold(&policy), None, "still warming up");
        s.observe(2.0, &policy);
        let th = s.threshold(&policy).expect("armed after warmup");
        assert!((th - 20.0).abs() < 1e-9, "threshold {th}");
    }

    #[test]
    fn sentinel_floor_prevents_hair_trigger() {
        let policy = AnomalyPolicy {
            ewma_warmup: 1,
            ewma_mult: 10.0,
            ewma_floor: 1.0,
            ..AnomalyPolicy::default()
        };
        let mut s = NormSentinel::default();
        s.observe(1e-6, &policy);
        let th = s.threshold(&policy).unwrap();
        assert!((th - 10.0).abs() < 1e-9, "floor should dominate: {th}");
    }

    #[test]
    fn sentinel_disabled_policy_never_arms() {
        let policy = AnomalyPolicy {
            enabled: false,
            ewma_warmup: 0,
            ..AnomalyPolicy::default()
        };
        let mut s = NormSentinel::default();
        s.observe(5.0, &policy);
        assert_eq!(s.threshold(&policy), None);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = AnomalyPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(35),
            ..AnomalyPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(35), "capped");
        let zero = AnomalyPolicy {
            backoff_base: Duration::ZERO,
            ..policy
        };
        assert_eq!(zero.backoff(5), Duration::ZERO);
    }

    #[test]
    fn first_non_finite_locates_offender() {
        let good = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let bad = Tensor::from_vec(vec![1.0, f32::NAN], &[2]).unwrap();
        assert_eq!(first_non_finite(&[good.clone(), good.clone()]), None);
        assert_eq!(first_non_finite(&[good.clone(), bad.clone()]), Some(1));
        let inf = Tensor::from_vec(vec![f32::INFINITY], &[1]).unwrap();
        assert_eq!(first_non_finite(&[inf, good, bad]), Some(0));
    }

    #[test]
    fn anomaly_kinds_name_their_counters() {
        let kinds = [
            AnomalyKind::NonFiniteLoss {
                policy_loss: f32::NAN,
                value_loss: 0.0,
            },
            AnomalyKind::NonFiniteGrad { tensor: 0 },
            AnomalyKind::NonFiniteGradNorm {
                norm: f32::INFINITY,
            },
            AnomalyKind::ExplodingGradNorm {
                norm: 1e9,
                threshold: 100.0,
            },
            AnomalyKind::NonFiniteParam { tensor: 2 },
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.counter()).collect();
        names.dedup();
        assert_eq!(names.len(), kinds.len(), "counters must be distinct");
        assert!(kinds.iter().all(|k| k.counter().starts_with("anomaly.")));
        assert!(kinds[4].rolled_back() && !kinds[1].rolled_back());
    }
}

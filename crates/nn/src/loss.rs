//! Loss functions and output-head gradients for advantage actor-critic
//! training (paper Equations 15–18).
//!
//! The two-headed network is trained with
//!
//! - a policy-gradient term `−A · ∇ log π(a; s, θ)` per action component,
//!   where the advantage `A = Σ γ^(t′−t) r_{t′} − V(s_t; θ_v)` (Eq. 16–17),
//! - a value regression term `∇ (A)²` (Eq. 18).
//!
//! These functions compute both the scalar losses (for logging) and the
//! gradients with respect to the network's raw outputs, which a
//! [`crate::PolicyValueNet::train_pass`] loss writes into the output
//! gradients it is handed.

/// Numerically stable softmax over a logit slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    assert!(!logits.is_empty(), "softmax of empty slice");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum).collect()
}

/// Log of `softmax(logits)[index]`, computed stably.
///
/// # Panics
///
/// Panics if `index` is out of range.
pub fn log_softmax_at(logits: &[f32], index: usize) -> f32 {
    assert!(index < logits.len(), "index out of range");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let lse: f32 = logits.iter().map(|&l| (l - max).exp()).sum::<f32>().ln() + max;
    logits[index] - lse
}

/// Policy-gradient loss and logit gradient for one categorical head.
///
/// Returns `(loss, grad)` where `loss = −A · log softmax(logits)[chosen]`
/// and `grad[i] = A · (softmax(logits)[i] − 1[i == chosen])`, i.e. the
/// gradient of the loss with respect to the raw logits.
///
/// # Panics
///
/// Panics if `chosen` is out of range.
pub fn policy_head_grad(logits: &[f32], chosen: usize, advantage: f32) -> (f32, Vec<f32>) {
    assert!(chosen < logits.len(), "chosen index out of range");
    let probs = softmax(logits);
    let loss = -advantage * log_softmax_at(logits, chosen);
    let grad = probs
        .iter()
        .enumerate()
        .map(|(i, &p)| advantage * (p - f32::from(u8::from(i == chosen))))
        .collect();
    (loss, grad)
}

/// Policy-gradient loss and gradient for the tanh direction head.
///
/// The head outputs `t ∈ (−1, 1)`; the paper maps `t > 0` to clockwise.
/// We interpret the head as a Bernoulli policy with
/// `P(clockwise) = (1 + t) / 2` and differentiate
/// `−A · log P(chosen)` with respect to `t`.
///
/// Returns `(loss, dloss/dt)`.
pub fn direction_head_grad(t: f32, clockwise: bool, advantage: f32) -> (f32, f32) {
    // Clamp away from the saturated ends for numerical stability.
    let t = t.clamp(-0.999_99, 0.999_99);
    let p_cw = (1.0 + t) / 2.0;
    if clockwise {
        let loss = -advantage * p_cw.ln();
        let grad = -advantage / (1.0 + t);
        (loss, grad)
    } else {
        let loss = -advantage * (1.0 - p_cw).ln();
        let grad = advantage / (1.0 - t);
        (loss, grad)
    }
}

/// Value-head regression: `loss = (v − target)²`, `dloss/dv = 2 (v −
/// target)` (paper Eq. 18 with the advantage as the residual).
pub fn value_head_grad(v: f32, target: f32) -> (f32, f32) {
    let d = v - target;
    (d * d, 2.0 * d)
}

/// Entropy of a categorical distribution given raw logits; useful as an
/// exploration bonus diagnostic.
pub fn entropy(logits: &[f32]) -> f32 {
    softmax(logits)
        .into_iter()
        .filter(|&p| p > 0.0)
        .map(|p| -p * p.ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!((p[0] - 0.5).abs() < 1e-6);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let logits = [0.3, -1.2, 2.0];
        let p = softmax(&logits);
        for (i, &pi) in p.iter().enumerate() {
            assert!((log_softmax_at(&logits, i) - pi.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn policy_grad_finite_difference() {
        let logits = vec![0.5, -0.3, 1.1, 0.0];
        let a = 1.7;
        let (_, grad) = policy_head_grad(&logits, 2, a);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let fp = -a * log_softmax_at(&lp, 2);
            let fm = -a * log_softmax_at(&lm, 2);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (grad[i] - numeric).abs() < 1e-3,
                "grad[{i}]: {} vs {numeric}",
                grad[i]
            );
        }
    }

    #[test]
    fn policy_grad_pushes_toward_chosen_with_positive_advantage() {
        let (_, grad) = policy_head_grad(&[0.0, 0.0], 0, 1.0);
        // Gradient descent subtracts grad: chosen logit must rise.
        assert!(grad[0] < 0.0);
        assert!(grad[1] > 0.0);
        // Negative advantage flips the direction.
        let (_, grad) = policy_head_grad(&[0.0, 0.0], 0, -1.0);
        assert!(grad[0] > 0.0);
    }

    #[test]
    fn direction_grad_finite_difference() {
        for &(t, cw) in &[(0.3f32, true), (-0.6, false), (0.0, true)] {
            let a = 0.9;
            let (_, grad) = direction_head_grad(t, cw, a);
            let eps = 1e-3;
            let f = |t: f32| direction_head_grad(t, cw, a).0;
            let numeric = (f(t + eps) - f(t - eps)) / (2.0 * eps);
            assert!(
                (grad - numeric).abs() < 1e-2,
                "t={t} cw={cw}: {grad} vs {numeric}"
            );
        }
    }

    #[test]
    fn value_grad_is_two_residual() {
        let (loss, grad) = value_head_grad(2.0, -1.0);
        assert_eq!(loss, 9.0);
        assert_eq!(grad, 6.0);
    }

    #[test]
    fn entropy_maximal_for_uniform() {
        let h_uniform = entropy(&[0.0, 0.0, 0.0, 0.0]);
        let h_peaked = entropy(&[10.0, 0.0, 0.0, 0.0]);
        assert!(h_uniform > h_peaked);
        assert!((h_uniform - (4.0f32).ln()).abs() < 1e-5);
    }
}

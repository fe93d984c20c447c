//! The Adam optimizer, plus global-norm gradient clipping (the
//! stabilization the paper's multi-threaded training relies on when
//! averaging "both large gradients and small gradients", §4.6).

use crate::layers::Param;
use crate::Tensor;

/// Scales all gradients so their global L2 norm does not exceed
/// `max_norm`. Returns the pre-clip norm.
///
/// A non-finite norm (NaN/Inf gradients, or overflow in the sum of
/// squares) leaves the gradients untouched: rescaling by `max_norm / NaN`
/// would poison every parameter on the following step. The norm is still
/// returned so callers can detect and report the anomaly.
pub fn clip_global_norm(params: &mut [&mut Param], max_norm: f32) -> f32 {
    let norm: f32 = params
        .iter()
        .map(|p| {
            let n = p.grad.norm();
            n * n
        })
        .sum::<f32>()
        .sqrt();
    if norm.is_finite() && norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for p in params.iter_mut() {
            for g in p.grad.as_mut_slice() {
                *g *= scale;
            }
        }
    }
    norm
}

/// The Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Step count and first/second moment estimates, for checkpointing.
    /// Empty moments mean the optimizer has not stepped yet.
    pub fn state(&self) -> (u64, &[Tensor], &[Tensor]) {
        (self.t, &self.m, &self.v)
    }

    /// Restores state captured by [`Adam::state`]. Resuming a run without
    /// the moments silently restarts bias correction and changes every
    /// subsequent step, so checkpoints must round-trip them.
    ///
    /// # Panics
    ///
    /// Panics if the moment vectors disagree in length.
    pub fn restore_state(&mut self, t: u64, m: Vec<Tensor>, v: Vec<Tensor>) {
        assert_eq!(m.len(), v.len(), "moment vectors must align");
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// Applies one Adam step to `params`, then zeroes their gradients.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        let timer = crate::instrument::start();
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
            self.v = params
                .iter()
                .map(|p| Tensor::zeros(p.value.shape()))
                .collect();
        }
        assert_eq!(self.m.len(), params.len(), "parameter set changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let g = p.grad.as_slice();
            let mv = m.as_mut_slice();
            let vv = v.as_mut_slice();
            let pv = p.value.as_mut_slice();
            for i in 0..g.len() {
                mv[i] = self.beta1 * mv[i] + (1.0 - self.beta1) * g[i];
                vv[i] = self.beta2 * vv[i] + (1.0 - self.beta2) * g[i] * g[i];
                let mhat = mv[i] / bc1;
                let vhat = vv[i] / bc2;
                pv[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            p.zero_grad();
        }
        crate::instrument::record_since("nn.optim_us", timer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(x0: f32) -> Param {
        Param::new(Tensor::from_vec(vec![x0], &[1]).unwrap())
    }

    /// Minimize f(x) = (x - 3)² with each optimizer.
    fn run<F: FnMut(&mut [&mut Param])>(p: &mut Param, mut step: F, iters: usize) -> f32 {
        for _ in 0..iters {
            let x = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(vec![2.0 * (x - 3.0)], &[1]).unwrap();
            let mut params = [&mut *p];
            step(&mut params);
        }
        p.value.as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut p = quadratic_param(10.0);
        let mut opt = Adam::new(0.3);
        let x = run(&mut p, |ps| opt.step(ps), 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = quadratic_param(0.0);
        p.grad = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut opt = Adam::new(0.1);
        let mut params = [&mut p];
        opt.step(&mut params);
        assert_eq!(p.grad.as_slice(), &[0.0]);
    }

    #[test]
    fn clip_rescales_only_when_needed() {
        let mut a = quadratic_param(0.0);
        a.grad = Tensor::from_vec(vec![3.0], &[1]).unwrap();
        let mut b = quadratic_param(0.0);
        b.grad = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        {
            let mut params = [&mut a, &mut b];
            let norm = clip_global_norm(&mut params, 10.0);
            assert!((norm - 5.0).abs() < 1e-6);
        }
        assert_eq!(a.grad.as_slice(), &[3.0], "below cap: untouched");
        {
            let mut params = [&mut a, &mut b];
            let norm = clip_global_norm(&mut params, 1.0);
            assert!((norm - 5.0).abs() < 1e-6);
        }
        assert!((a.grad.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((b.grad.as_slice()[0] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn clip_leaves_grads_alone_on_non_finite_norm() {
        let mut a = quadratic_param(0.0);
        a.grad = Tensor::from_vec(vec![f32::NAN], &[1]).unwrap();
        let mut b = quadratic_param(0.0);
        b.grad = Tensor::from_vec(vec![4.0], &[1]).unwrap();
        let norm = {
            let mut params = [&mut a, &mut b];
            clip_global_norm(&mut params, 1.0)
        };
        assert!(norm.is_nan(), "norm reported for anomaly detection: {norm}");
        assert!(a.grad.as_slice()[0].is_nan(), "NaN grad untouched");
        assert_eq!(
            b.grad.as_slice(),
            &[4.0],
            "finite grad must not be rescaled by NaN"
        );

        let mut c = quadratic_param(0.0);
        c.grad = Tensor::from_vec(vec![f32::INFINITY], &[1]).unwrap();
        let norm = {
            let mut params = [&mut c];
            clip_global_norm(&mut params, 1.0)
        };
        assert_eq!(norm, f32::INFINITY);
        assert_eq!(c.grad.as_slice()[0], f32::INFINITY, "Inf grad untouched");
    }
}

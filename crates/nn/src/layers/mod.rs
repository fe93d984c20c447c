//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer caches whatever it needs during [`Layer::forward`] and
//! consumes that cache in [`Layer::backward`]. Parameters are exposed
//! through [`Layer::params_mut`] so optimizers in [`crate::optim`] can
//! update them uniformly.

mod activation;
mod batchnorm;
mod conv;
mod linear;
mod pool;
mod residual;
mod sequential;

pub use activation::{Relu, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use linear::{Flatten, Linear};
pub use pool::MaxPool2d;
pub use residual::ResidualBlock;
pub use sequential::Sequential;

use crate::Tensor;

/// A trainable parameter: its value and the gradient accumulated by the
/// most recent backward pass(es).
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Resets the accumulated gradient to zero, in place.
    pub fn zero_grad(&mut self) {
        debug_assert_eq!(self.grad.shape(), self.value.shape());
        self.grad.as_mut_slice().fill(0.0);
    }
}

/// A differentiable network layer.
///
/// The contract is strictly sequential: `backward` must be called with the
/// gradient of the loss with respect to the output of the *most recent*
/// `forward`, and returns the gradient with respect to that forward's input.
/// Gradients accumulate into [`Param::grad`] (they are not overwritten), so
/// multiple episodes can be batched before an optimizer step.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer output. `train` selects training behaviour for
    /// layers that distinguish it (e.g. batch-norm statistics).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (∂loss/∂output), accumulating parameter
    /// gradients and returning ∂loss/∂input.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before `forward`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// The layer's trainable parameters, if any.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// Appends this layer's persistent non-parameter state — values a
    /// training forward mutates that are not [`Param`]s (batch-norm
    /// running statistics) — onto `out`. Stateless layers append nothing.
    /// Together with [`Layer::load_norm_state`] this lets a caller make a
    /// training attempt fully transactional.
    fn append_norm_state(&self, out: &mut Vec<f32>) {
        let _ = out;
    }

    /// Restores the prefix of `state` captured by
    /// [`Layer::append_norm_state`], returning how many values were
    /// consumed. Stateless layers consume nothing.
    fn load_norm_state(&mut self, state: &[f32]) -> usize {
        let _ = state;
        0
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::Layer;
    use crate::Tensor;

    /// Verifies `layer`'s input gradient against central finite differences
    /// of the scalar loss `sum(forward(x) * weights)`.
    pub fn check_input_grad(layer: &mut impl Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        // Use deterministic pseudo-random loss weights to cover all outputs.
        let weights: Vec<f32> = (0..out.len())
            .map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.3)
            .collect();
        let w = Tensor::from_vec(weights, out.shape()).unwrap();
        let analytic = layer.backward(&w);

        let eps = 1e-2f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = layer.forward(&xp, true).mul(&w).sum();
            let lm = layer.forward(&xm, true).mul(&w).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "input grad [{i}]: analytic {a}, numeric {numeric}"
            );
        }
    }

    /// Verifies parameter gradients of `layer` the same way.
    pub fn check_param_grads(layer: &mut impl Layer, x: &Tensor, tol: f32) {
        let out = layer.forward(x, true);
        let weights: Vec<f32> = (0..out.len())
            .map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.3)
            .collect();
        let w = Tensor::from_vec(weights, out.shape()).unwrap();
        layer.zero_grad();
        let _ = layer.backward(&w);
        let analytic: Vec<Tensor> = layer.params_mut().iter().map(|p| p.grad.clone()).collect();

        let eps = 1e-2f32;
        for (pi, grad) in analytic.iter().enumerate() {
            for i in 0..grad.len() {
                let orig = {
                    let mut ps = layer.params_mut();
                    let v = ps[pi].value.as_slice()[i];
                    ps[pi].value.as_mut_slice()[i] = v + eps;
                    v
                };
                let lp = layer.forward(x, true).mul(&w).sum();
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig - eps;
                let lm = layer.forward(x, true).mul(&w).sum();
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let a = grad.as_slice()[i];
                assert!(
                    (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                    "param {pi} grad [{i}]: analytic {a}, numeric {numeric}"
                );
            }
        }
    }
}

//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers hold only their parameters (and batch-norm running statistics).
//! A pass's activations and gradients live in a [`Workspace`]: a forward
//! pushes its output there, and the matching [`Layer::backward`] reads
//! its input and output back from it. Parameters are exposed through
//! [`Layer::params_mut`] so optimizers in [`crate::optim`] can update
//! them uniformly.

mod activation;
mod batchnorm;
mod conv;
mod linear;
mod pool;
mod residual;
mod sequential;
mod workspace;

pub use activation::{Relu, Tanh};
pub use batchnorm::BatchNorm2d;
pub use conv::{Conv2d, ConvHeads};
pub use linear::Linear;
pub use pool::MaxPool2d;
pub use residual::ResidualBlock;
pub use sequential::Sequential;
pub(crate) use workspace::with_thread_workspace;
pub use workspace::{Shape, Workspace};

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

/// A differentiable network layer, run over a [`Workspace`].
///
/// The contract is strictly last in, first out: `forward` reads the top
/// activation and pushes its output; `backward` undoes the most recent
/// training `forward` still on the workspace, so backwards run in the
/// reverse order of their forwards. Gradients accumulate into
/// [`Param::grad`] (they are not overwritten), so multiple episodes can be
/// batched before an optimizer step.
pub trait Layer: std::fmt::Debug + Send {
    /// Computes the layer's output from the top activation of `ws` and
    /// pushes it. `train` selects training behaviour: batch statistics
    /// for batch norm, and keeping what [`Layer::backward`] needs.
    fn forward(&mut self, ws: &mut Workspace, train: bool);

    /// Backpropagates the top gradient of `ws` (∂loss/∂output, the top
    /// activation), accumulating parameter gradients. Replaces that
    /// gradient with ∂loss/∂input when `input_grad`, and drops it
    /// otherwise (the first layer of a network); pops the output.
    fn backward(&mut self, ws: &mut Workspace, input_grad: bool);

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
    fn append_norm_state(&self, out: &mut Vec<f32>) {
        let _ = out;
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::{Layer, Workspace};
    use crate::Tensor;

    /// A training forward of `layer` on `x` in `ws`, returning its output.
    pub fn forward(layer: &mut impl Layer, ws: &mut Workspace, x: &Tensor) -> Vec<f32> {
        ws.start(x);
        layer.forward(ws, true);
        ws.output().to_vec()
    }

    /// `forward` then a backward of `grad_out`, returning ∂loss/∂x.
    pub fn input_grad(layer: &mut impl Layer, x: &Tensor, grad_out: &[f32]) -> Vec<f32> {
        let mut ws = Workspace::default();
        forward(layer, &mut ws, x);
        ws.push_grad(grad_out);
        layer.backward(&mut ws, true);
        ws.grad().to_vec()
    }

    /// The scalar loss `sum(forward(x) * weights)`.
    fn loss(layer: &mut impl Layer, x: &Tensor, weights: &[f32]) -> f32 {
        let out = forward(layer, &mut Workspace::default(), x);
        out.iter().zip(weights).map(|(o, w)| o * w).sum()
    }

    /// Deterministic pseudo-random loss weights covering every output.
    fn loss_weights(layer: &mut impl Layer, x: &Tensor) -> Vec<f32> {
        let len = forward(layer, &mut Workspace::default(), x).len();
        (0..len)
            .map(|i| ((i * 2654435761) % 1000) as f32 / 1000.0 - 0.3)
            .collect()
    }

    /// Verifies `layer`'s input gradient against central finite differences
    /// of the scalar loss `sum(forward(x) * weights)`.
    pub fn check_input_grad(layer: &mut impl Layer, x: &Tensor, tol: f32) {
        let w = loss_weights(layer, x);
        let analytic = input_grad(layer, x, &w);

        let eps = 1e-2f32;
        for (i, &a) in analytic.iter().enumerate() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (loss(layer, &xp, &w) - loss(layer, &xm, &w)) / (2.0 * eps);
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "input grad [{i}]: analytic {a}, numeric {numeric}"
            );
        }
    }

    /// Verifies parameter gradients of `layer` the same way.
    pub fn check_param_grads(layer: &mut impl Layer, x: &Tensor, tol: f32) {
        let w = loss_weights(layer, x);
        layer.zero_grad();
        input_grad(layer, x, &w);
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
                let lp = loss(layer, x, &w);
                layer.params_mut()[pi].value.as_mut_slice()[i] = orig - eps;
                let lm = loss(layer, x, &w);
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

use super::{Layer, Param};
use crate::Tensor;

/// A chain of layers applied in order.
///
/// `Sequential` is itself a [`Layer`], so stacks nest naturally (the
/// policy/value heads in [`crate::PolicyValueNet`] are each a
/// `Sequential`).
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential::default()
    }

    /// Appends a layer, builder style.
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a layer in place.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        backward_through(&mut self.layers, grad_out).unwrap_or_else(|| grad_out.clone())
    }

    /// Runs [`Layer::backward`] down to the second layer and
    /// [`Layer::backward_params`] on the first.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let g = backward_through(rest, grad_out);
        first.backward_params(g.as_ref().unwrap_or(grad_out));
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn append_norm_state(&self, out: &mut Vec<f32>) {
        for layer in &self.layers {
            layer.append_norm_state(out);
        }
    }
}

/// Backpropagates `grad_out` through `layers` in reverse, returning the
/// last input gradient (`None` when `layers` is empty).
fn backward_through(layers: &mut [Box<dyn Layer>], grad_out: &Tensor) -> Option<Tensor> {
    let mut g: Option<Tensor> = None;
    for layer in layers.iter_mut().rev() {
        g = Some(layer.backward(g.as_ref().unwrap_or(grad_out)));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};

    #[test]
    fn chains_forward_and_backward() {
        let mut net = Sequential::new()
            .with(Linear::new(2, 3, 0))
            .with(Relu::new())
            .with(Linear::new(3, 1, 1));
        let x = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap();
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), &[1, 1]);
        let gx = net.backward(&Tensor::full(&[1, 1], 1.0));
        assert_eq!(gx.shape(), &[1, 2]);
        assert_eq!(net.params_mut().len(), 4, "two linears × (W, b)");
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = Sequential::new().with(Linear::new(2, 2, 0));
        let x = Tensor::full(&[1, 2], 1.0);
        let _ = net.forward(&x, true);
        let _ = net.backward(&Tensor::full(&[1, 2], 1.0));
        assert!(net.params_mut().iter().any(|p| p.grad.norm() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.norm() == 0.0));
    }
}

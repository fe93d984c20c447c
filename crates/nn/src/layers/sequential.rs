use super::{Layer, Param, Workspace};

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
    fn forward(&mut self, ws: &mut Workspace, train: bool) {
        for layer in &mut self.layers {
            layer.forward(ws, train);
        }
    }

    /// Backpropagates through the layers in reverse; only the first one's
    /// input gradient depends on `input_grad`.
    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        for (i, layer) in self.layers.iter_mut().enumerate().rev() {
            layer.backward(ws, input_grad || i > 0);
        }
        if self.layers.is_empty() && !input_grad {
            ws.pop_grad();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{gradcheck, Linear, Relu};
    use crate::Tensor;

    #[test]
    fn chains_forward_and_backward() {
        let mut net = Sequential::new()
            .with(Linear::new(2, 3, 0))
            .with(Relu::new())
            .with(Linear::new(3, 1, 1));
        let x = Tensor::from_vec(vec![0.5, -0.5], &[1, 2]).unwrap();
        let mut ws = Workspace::default();
        let y = gradcheck::forward(&mut net, &mut ws, &x);
        assert_eq!(y.len(), 1);
        ws.push_grad(&[1.0]);
        net.backward(&mut ws, true);
        assert_eq!(ws.grad().len(), 2);
        assert_eq!(ws.output_shape(), [1, 2, 1, 1], "back to the input");
        assert_eq!(net.params_mut().len(), 4, "two linears × (W, b)");
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut net = Sequential::new().with(Linear::new(2, 2, 0));
        let x = Tensor::full(&[1, 2], 1.0);
        gradcheck::input_grad(&mut net, &x, &[1.0, 1.0]);
        assert!(net.params_mut().iter().any(|p| p.grad.norm() > 0.0));
        net.zero_grad();
        assert!(net.params_mut().iter().all(|p| p.grad.norm() == 0.0));
    }
}

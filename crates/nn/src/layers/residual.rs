use super::{BatchNorm2d, Conv2d, Layer, Param, Relu, Workspace};

/// The paper's residual building block (Figure 6a/6b): two 3x3
/// convolutions with batch normalization, a shortcut connection adding the
/// block input to the second convolution's output, and a final ReLU.
///
/// The channel count is preserved (`C → C`), matching the `Res: 3x3 conv,
/// C` boxes of Figure 6(c).
#[derive(Debug)]
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    relu_out: Relu,
}

impl ResidualBlock {
    /// Creates a residual block over `channels` feature maps.
    pub fn new(channels: usize, seed: u64) -> Self {
        ResidualBlock {
            conv1: Conv2d::new(channels, channels, 3, seed),
            bn1: BatchNorm2d::new(channels),
            relu1: Relu::new(),
            conv2: Conv2d::new(channels, channels, 3, seed.wrapping_add(1)),
            bn2: BatchNorm2d::new(channels),
            relu_out: Relu::new(),
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, ws: &mut Workspace, train: bool) {
        self.conv1.forward(ws, train);
        self.bn1.forward(ws, train);
        self.relu1.forward(ws, train);
        self.conv2.forward(ws, train);
        self.bn2.forward(ws, train);
        // Shortcut: activation applies to F(x) + x (Figure 6a). The sum
        // overwrites the second batch norm's output, which its backward
        // does not read; the block input sits under the five outputs.
        ws.add_to_top(5);
        self.relu_out.forward(ws, train);
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        self.relu_out.backward(ws, true);
        // The sum node fans the gradient to both branches: the branch
        // consumes a copy, and the shortcut's stays underneath.
        ws.dup_grad();
        self.bn2.backward(ws, true);
        self.conv2.backward(ws, true);
        self.relu1.backward(ws, true);
        self.bn1.backward(ws, true);
        self.conv1.backward(ws, input_grad);
        if input_grad {
            ws.fold_grads();
        } else {
            ws.pop_grad();
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out = self.conv1.params_mut();
        out.extend(self.bn1.params_mut());
        out.extend(self.conv2.params_mut());
        out.extend(self.bn2.params_mut());
        out
    }

    fn append_norm_state(&self, out: &mut Vec<f32>) {
        self.bn1.append_norm_state(out);
        self.bn2.append_norm_state(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;
    use crate::Tensor;

    #[test]
    fn preserves_shape() {
        let mut block = ResidualBlock::new(4, 0);
        let mut ws = Workspace::default();
        gradcheck::forward(&mut block, &mut ws, &Tensor::zeros(&[1, 4, 5, 5]));
        assert_eq!(ws.output_shape(), [1, 4, 5, 5]);
    }

    #[test]
    fn shortcut_feeds_through_when_convs_zeroed() {
        let mut block = ResidualBlock::new(1, 0);
        // Zero both convolutions so F(x) == bn(0) == beta == 0; output is
        // then relu(x).
        for p in block.conv1.params_mut() {
            p.value = Tensor::zeros(p.value.shape());
        }
        for p in block.conv2.params_mut() {
            p.value = Tensor::zeros(p.value.shape());
        }
        let x = Tensor::from_vec(vec![-1.0, 2.0, -3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = gradcheck::forward(&mut block, &mut Workspace::default(), &x);
        assert_eq!(y, [0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn gradcheck_residual_block() {
        // Init seed chosen so no ReLU sits on its kink for this input
        // under the workspace PRNG stream (see vendor/rand); finite
        // differences are unreliable at kinks.
        let mut block = ResidualBlock::new(2, 3);
        let x = Tensor::from_vec(
            (0..2 * 9).map(|v| (v as f32 * 0.23).sin()).collect(),
            &[1, 2, 3, 3],
        )
        .unwrap();
        gradcheck::check_input_grad(&mut block, &x, 6e-2);
    }

    #[test]
    fn param_count() {
        let mut block = ResidualBlock::new(3, 0);
        // conv(W,b) ×2 + bn(γ,β) ×2 = 8 parameter tensors.
        assert_eq!(block.params_mut().len(), 8);
    }
}

use super::{Layer, Param, Workspace};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully connected layer: `y = x W + b` with `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`. An input `[batch, c, h, w]` reads as
/// `[batch, c·h·w]`, so no flatten layer or copy sits in front of it; the
/// output is `[batch, out, 1, 1]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_f: usize,
    out_f: usize,
}

impl Linear {
    /// Creates a layer with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_f: usize, out_f: usize, seed: u64) -> Self {
        assert!(in_f > 0 && out_f > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        Linear {
            weight: Param::new(init::xavier_uniform(&[in_f, out_f], in_f, out_f, &mut rng)),
            bias: Param::new(Tensor::zeros(&[out_f])),
            in_f,
            out_f,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let timer = crate::instrument::start();
        let [batch, c, h, w] = ws.output_shape();
        assert_eq!(c * h * w, self.in_f, "feature count mismatch");
        let (in_f, out_f) = (self.in_f, self.out_f);
        let io = ws.push([batch, out_f, 1, 1]);
        let weight = self.weight.value.as_slice();
        kernels::gemm(false, false, batch, in_f, out_f, io.x, weight, io.y);
        let b = self.bias.value.as_slice();
        for row in io.y.chunks_mut(out_f) {
            for (v, &bi) in row.iter_mut().zip(b) {
                *v += bi;
            }
        }
        crate::instrument::record_since("nn.linear_us", timer);
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        let timer = crate::instrument::start();
        let batch = ws.input_shape()[0];
        let (in_f, out_f) = (self.in_f, self.out_f);
        let (weight, bias) = (&mut self.weight, &mut self.bias);
        ws.backward(input_grad, 0, |b| {
            // dW = xᵀ g ; db = Σ_batch g ; dx = g Wᵀ. Both transposes are
            // logical (resolved when the GEMM packs), never materialized.
            let gw = kernels::scratch(b.tmp, in_f * out_f);
            kernels::gemm(true, false, in_f, batch, out_f, b.x, b.go, gw);
            for (acc, &v) in weight.grad.as_mut_slice().iter_mut().zip(&*gw) {
                *acc += v;
            }
            let gb = bias.grad.as_mut_slice();
            for row in b.go.chunks(out_f) {
                for (acc, &v) in gb.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            if let Some(gx) = b.gx {
                let w = weight.value.as_slice();
                kernels::gemm(false, true, batch, out_f, in_f, b.go, w, gx);
            }
        });
        crate::instrument::record_since("nn.linear_us", timer);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn known_affine_map() {
        let mut lin = Linear::new(2, 2, 0);
        lin.weight.value = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        lin.bias.value = Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap();
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        let y = gradcheck::forward(&mut lin, &mut Workspace::default(), &x);
        assert_eq!(y, [4.5, 5.5]);
    }

    #[test]
    fn batch_forward() {
        let mut lin = Linear::new(3, 1, 1);
        let mut ws = Workspace::default();
        gradcheck::forward(&mut lin, &mut ws, &Tensor::zeros(&[4, 3]));
        assert_eq!(ws.output_shape(), [4, 1, 1, 1]);
    }

    #[test]
    fn reads_nchw_input_as_rows() {
        // A [2, 3, 2, 2] input is two rows of 12 features: the same as
        // the [2, 12] tensor holding the same values.
        let x = Tensor::from_vec((0..24).map(|v| v as f32 * 0.1).collect(), &[2, 3, 2, 2]).unwrap();
        let rows = Tensor::from_vec(x.as_slice().to_vec(), &[2, 12]).unwrap();
        let mut lin = Linear::new(12, 2, 4);
        let a = gradcheck::forward(&mut lin, &mut Workspace::default(), &x);
        let b = gradcheck::forward(&mut lin, &mut Workspace::default(), &rows);
        assert_eq!(a, b);
    }

    #[test]
    fn gradcheck_linear() {
        let mut lin = Linear::new(3, 4, 2);
        let x =
            Tensor::from_vec((0..6).map(|v| (v as f32 * 0.7).sin()).collect(), &[2, 3]).unwrap();
        gradcheck::check_input_grad(&mut lin, &x, 1e-2);
        gradcheck::check_param_grads(&mut lin, &x, 1e-2);
    }
}

use super::{Layer, Param};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A fully connected layer: `y = x W + b` with `x: [batch, in]`,
/// `W: [in, out]`, `b: [out]`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_f: usize,
    out_f: usize,
    cache: Option<Tensor>,
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
            cache: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_f
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_f
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [batch, features]");
        assert_eq!(x.shape()[1], self.in_f, "feature count mismatch");
        let mut y = x.matmul(&self.weight.value);
        let b = self.bias.value.as_slice();
        let out = self.out_f;
        for row in y.as_mut_slice().chunks_mut(out) {
            for (v, &bi) in row.iter_mut().zip(b) {
                *v += bi;
            }
        }
        self.cache = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("backward before forward");
        let batch = x.shape()[0];
        let (in_f, out_f) = (self.in_f, self.out_f);
        assert_eq!(grad_out.shape(), &[batch, out_f], "gradient shape mismatch");
        // dW = xᵀ g ; db = Σ_batch g ; dx = g Wᵀ. Both transposes are
        // logical (resolved when the GEMM packs), never materialized.
        let (xd, g) = (x.as_slice(), grad_out.as_slice());
        let mut gw = Tensor::zeros(&[in_f, out_f]);
        kernels::gemm(true, false, in_f, batch, out_f, xd, g, gw.as_mut_slice());
        self.weight.grad.add_scaled(&gw, 1.0);
        let gb = self.bias.grad.as_mut_slice();
        for row in g.chunks(out_f) {
            for (b, &v) in gb.iter_mut().zip(row) {
                *b += v;
            }
        }
        let mut gx = Tensor::zeros(&[batch, in_f]);
        let w = self.weight.value.as_slice();
        kernels::gemm(false, true, batch, out_f, in_f, g, w, gx.as_mut_slice());
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Reshapes NCHW activations to `[batch, c*h*w]`, remembering the original
/// shape for the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cache: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let shape = x.shape().to_vec();
        assert!(!shape.is_empty());
        let batch = shape[0];
        let rest: usize = shape[1..].iter().product();
        self.cache = Some(shape);
        x.reshape(&[batch, rest]).expect("element count unchanged")
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self.cache.as_ref().expect("backward before forward");
        grad_out.reshape(shape).expect("element count unchanged")
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
        let y = lin.forward(&x, false);
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn batch_forward() {
        let mut lin = Linear::new(3, 1, 1);
        let x = Tensor::zeros(&[4, 3]);
        assert_eq!(lin.forward(&x, false).shape(), &[4, 1]);
    }

    #[test]
    fn gradcheck_linear() {
        let mut lin = Linear::new(3, 4, 2);
        let x =
            Tensor::from_vec((0..6).map(|v| (v as f32 * 0.7).sin()).collect(), &[2, 3]).unwrap();
        gradcheck::check_input_grad(&mut lin, &x, 1e-2);
        gradcheck::check_param_grads(&mut lin, &x, 1e-2);
    }

    #[test]
    fn flatten_round_trip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 2, 2]).unwrap();
        let y = f.forward(&x, false);
        assert_eq!(y.shape(), &[2, 12]);
        let back = f.backward(&y);
        assert_eq!(back, x);
    }
}

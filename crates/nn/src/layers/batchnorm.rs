use super::conv::shape4;
use super::{Layer, Param};
use crate::Tensor;

/// Per-channel batch normalization over `(batch, height, width)`, as used
/// after the paper's convolutional layers "to normalize the value
/// distribution" (§4.4).
///
/// In training mode the layer normalizes with batch statistics and updates
/// exponential running averages; in inference mode it uses the running
/// averages.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
    shape: [usize; 4],
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0);
        BatchNorm2d {
            gamma: Param::new(Tensor::full(&[channels], 1.0)),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    fn channels(&self) -> usize {
        self.running_mean.len()
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let [n, c, h, w] = shape4(x);
        assert_eq!(c, self.channels(), "channel mismatch");
        let plane = h * w;
        let m = (n * plane) as f32;
        let xd = x.as_slice();
        let mut out = Tensor::zeros(&[n, c, h, w]);
        let mut xhat = Tensor::zeros(&[n, c, h, w]);
        let mut inv_stds = vec![0.0f32; c];
        for (ch, inv_std_slot) in inv_stds.iter_mut().enumerate() {
            let (mean, var) = if train {
                let mut sum = 0.0f32;
                let mut sq = 0.0f32;
                for b in 0..n {
                    let base = ((b * c) + ch) * plane;
                    for &v in &xd[base..base + plane] {
                        sum += v;
                        sq += v * v;
                    }
                }
                let mean = sum / m;
                let var = (sq / m - mean * mean).max(0.0);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            *inv_std_slot = inv_std;
            let g = self.gamma.value.as_slice()[ch];
            let b0 = self.beta.value.as_slice()[ch];
            for b in 0..n {
                let base = ((b * c) + ch) * plane;
                for i in 0..plane {
                    let xh = (xd[base + i] - mean) * inv_std;
                    xhat.as_mut_slice()[base + i] = xh;
                    out.as_mut_slice()[base + i] = g * xh + b0;
                }
            }
        }
        self.cache = Some(BnCache {
            xhat,
            inv_std: inv_stds,
            shape: [n, c, h, w],
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let [n, c, h, w] = cache.shape;
        let plane = h * w;
        let m = (n * plane) as f32;
        let god = grad_out.as_slice();
        let xh = cache.xhat.as_slice();
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        for ch in 0..c {
            let g = self.gamma.value.as_slice()[ch];
            let inv_std = cache.inv_std[ch];
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for b in 0..n {
                let base = ((b * c) + ch) * plane;
                for i in 0..plane {
                    sum_g += god[base + i];
                    sum_gx += god[base + i] * xh[base + i];
                }
            }
            self.gamma.grad.as_mut_slice()[ch] += sum_gx;
            self.beta.grad.as_mut_slice()[ch] += sum_g;
            for b in 0..n {
                let base = ((b * c) + ch) * plane;
                for i in 0..plane {
                    let dxhat = god[base + i] * g;
                    // Full batch-norm backward: couples every element of the
                    // channel through the batch mean and variance.
                    gx.as_mut_slice()[base + i] =
                        inv_std * (dxhat - (g / m) * sum_g - xh[base + i] * (g / m) * sum_gx);
                }
            }
        }
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn append_norm_state(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(&self.running_mean);
        out.extend_from_slice(&self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = bn.forward(&x, true);
        let mean = y.mean();
        let var = y
            .as_slice()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn gamma_beta_affine() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 1, 1, 2]).unwrap();
        let y = bn.forward(&x, true);
        // xhat = [-1, 1] (unit variance), so y = 2*xhat + 1 = [-1, 3].
        assert!((y.as_slice()[0] + 1.0).abs() < 1e-2);
        assert!((y.as_slice()[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn running_stats_converge() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![4.0, 6.0], &[1, 1, 1, 2]).unwrap();
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean[0] - 5.0).abs() < 1e-2);
        assert!((bn.running_var[0] - 1.0).abs() < 1e-1);
        // Inference uses running stats: output for x=5 should be ≈ 0.
        let y = bn.forward(&Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap(), false);
        assert!(y.as_slice()[0].abs() < 0.1);
    }

    #[test]
    fn gradcheck_batchnorm() {
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec(
            (0..16).map(|v| (v as f32 * 0.37).sin() * 2.0).collect(),
            &[2, 2, 2, 2],
        )
        .unwrap();
        gradcheck::check_input_grad(&mut bn, &x, 5e-2);
        gradcheck::check_param_grads(&mut bn, &x, 5e-2);
    }
}

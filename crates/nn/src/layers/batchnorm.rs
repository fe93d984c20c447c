use super::{Layer, Param, Workspace};
use crate::{kernels, pool, Tensor};

/// Per-channel batch normalization over `(batch, height, width)`, as used
/// after the paper's convolutional layers "to normalize the value
/// distribution" (§4.4).
///
/// In training mode the layer normalizes with batch statistics and updates
/// exponential running averages; in inference mode it uses the running
/// averages. A training forward keeps each channel's batch mean and
/// `1/√(var + ε)` in the workspace, and the backward recomputes the
/// normalized input `x̂ = (x − mean)·inv_std` from its input with the
/// forward's expression, so it reads the same bits the forward wrote.
///
/// A large pass splits over the kernel pool: its statistics four channels
/// per share (summed side by side on the share's thread), its backward
/// sums one channel per share, each channel in batch-then-pixel order,
/// and its elementwise normalize and input gradient one batch item per
/// share. So every value is the same at any thread count.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
}

/// Channels whose forward statistics one share sums side by side.
const SUM_GROUP: usize = 4;

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
        }
    }

    fn channels(&self) -> usize {
        self.running_mean.len()
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, ws: &mut Workspace, train: bool) {
        let timer = crate::instrument::start();
        let shape @ [n, c, h, w] = ws.output_shape();
        assert_eq!(c, self.channels(), "channel mismatch");
        let plane = h * w;
        let m = (n * plane) as f32;
        let split = pool::splits(n * c * plane);
        let io = ws.push(shape);
        let xd = io.x;
        // Each channel's `[mean, inv_std]`, kept for the backward in
        // training; dropped again after an inference forward.
        let kept = io.saved.len();
        io.saved.resize(kept + 2 * c, 0.0);
        let stats = &mut io.saved[kept..];
        if train {
            // Each channel's sum and sum of squares, batch then pixel
            // order, for `SUM_GROUP` channels side by side: their chains
            // overlap instead of each waiting on its own `add`. Channels
            // past `c` alias the group's last one; their sums are dropped.
            let groups = stats.chunks_mut(2 * SUM_GROUP).enumerate();
            pool::for_each(split, groups, |(g, s)| {
                let last = s.len() / 2 - 1;
                let mut acc = [[0.0f32; 2]; SUM_GROUP];
                for b in 0..n {
                    let planes: [&[f32]; SUM_GROUP] = std::array::from_fn(|j| {
                        let ch = g * SUM_GROUP + j.min(last);
                        &xd[(b * c + ch) * plane..][..plane]
                    });
                    for q in 0..plane {
                        for (a, p) in acc.iter_mut().zip(&planes) {
                            let v = p[q];
                            a[0] += v;
                            a[1] += v * v;
                        }
                    }
                }
                s.copy_from_slice(&acc.as_flattened()[..s.len()]);
            });
        }
        for (ch, s) in stats.chunks_exact_mut(2).enumerate() {
            let (mean, var) = if train {
                let mean = s[0] / m;
                let var = (s[1] / m - mean * mean).max(0.0);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            s.copy_from_slice(&[mean, 1.0 / (var + self.eps).sqrt()]);
        }
        let (gamma, beta) = (self.gamma.value.as_slice(), self.beta.value.as_slice());
        let stats = &*stats;
        let items = xd
            .chunks_exact(c * plane)
            .zip(io.y.chunks_exact_mut(c * plane));
        pool::for_each(split, items, |(x_b, y_b)| {
            let channels = x_b.chunks_exact(plane).zip(y_b.chunks_exact_mut(plane));
            for (ch, (x_c, y_c)) in channels.enumerate() {
                let (mean, inv_std) = (stats[2 * ch], stats[2 * ch + 1]);
                let (g, b0) = (gamma[ch], beta[ch]);
                for (y, &x) in y_c.iter_mut().zip(x_c) {
                    let xh = (x - mean) * inv_std;
                    *y = g * xh + b0;
                }
            }
        });
        if !train {
            io.saved.truncate(kept);
        }
        crate::instrument::record_since("nn.bn_us", timer);
    }

    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        let timer = crate::instrument::start();
        let [n, c, h, w] = ws.input_shape();
        let plane = h * w;
        let m = (n * plane) as f32;
        let split = pool::splits(n * c * plane);
        let (gamma, beta) = (&mut self.gamma, &mut self.beta);
        ws.backward(input_grad, 2 * c, |io| {
            let (xd, god, saved) = (io.x, io.go, io.saved);
            // Each channel's `[Σ go, Σ go·x̂]`, batch then pixel order.
            let sums = kernels::scratch(io.tmp, 2 * c);
            let channels = sums.chunks_exact_mut(2).enumerate();
            pool::for_each(split, channels, |(ch, s)| {
                let (mean, inv_std) = (saved[2 * ch], saved[2 * ch + 1]);
                let mut sum_g = 0.0f32;
                let mut sum_gx = 0.0f32;
                for b in 0..n {
                    let at = ((b * c) + ch) * plane..((b * c) + ch + 1) * plane;
                    for (&x, &go) in xd[at.clone()].iter().zip(&god[at]) {
                        let xh = (x - mean) * inv_std;
                        sum_g += go;
                        sum_gx += go * xh;
                    }
                }
                s.copy_from_slice(&[sum_g, sum_gx]);
            });
            let grads = gamma.grad.as_mut_slice().iter_mut();
            for ((dg, db), s) in grads
                .zip(beta.grad.as_mut_slice())
                .zip(sums.chunks_exact(2))
            {
                *dg += s[1];
                *db += s[0];
            }
            let Some(gx) = io.gx else {
                return;
            };
            let (g_all, sums) = (gamma.value.as_slice(), &*sums);
            let items = gx
                .chunks_exact_mut(c * plane)
                .zip(xd.chunks_exact(c * plane))
                .zip(god.chunks_exact(c * plane));
            pool::for_each(split, items, |((gx_b, x_b), go_b)| {
                let planes = gx_b
                    .chunks_exact_mut(plane)
                    .zip(x_b.chunks_exact(plane))
                    .zip(go_b.chunks_exact(plane));
                for (ch, ((gx_c, x_c), go_c)) in planes.enumerate() {
                    let (mean, inv_std) = (saved[2 * ch], saved[2 * ch + 1]);
                    let (sum_g, sum_gx) = (sums[2 * ch], sums[2 * ch + 1]);
                    let g = g_all[ch];
                    for ((gx, &x), &go) in gx_c.iter_mut().zip(x_c).zip(go_c) {
                        let xh = (x - mean) * inv_std;
                        let dxhat = go * g;
                        // Full batch-norm backward: couples every element of
                        // the channel through the batch mean and variance.
                        *gx = inv_std * (dxhat - (g / m) * sum_g - xh * (g / m) * sum_gx);
                    }
                }
            });
        });
        crate::instrument::record_since("nn.bn_us", timer);
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

    fn run(bn: &mut BatchNorm2d, x: &Tensor, train: bool) -> Vec<f32> {
        let mut ws = Workspace::default();
        ws.start(x);
        bn.forward(&mut ws, train);
        ws.output().to_vec()
    }

    #[test]
    fn normalizes_to_zero_mean_unit_var() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]).unwrap();
        let y = run(&mut bn, &x, true);
        let mean = y.iter().sum::<f32>() / 4.0;
        let var = y.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn gamma_beta_affine() {
        let mut bn = BatchNorm2d::new(1);
        bn.gamma.value = Tensor::from_vec(vec![2.0], &[1]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 1, 1, 2]).unwrap();
        let y = run(&mut bn, &x, true);
        // xhat = [-1, 1] (unit variance), so y = 2*xhat + 1 = [-1, 3].
        assert!((y[0] + 1.0).abs() < 1e-2);
        assert!((y[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn running_stats_converge() {
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_vec(vec![4.0, 6.0], &[1, 1, 1, 2]).unwrap();
        for _ in 0..200 {
            run(&mut bn, &x, true);
        }
        assert!((bn.running_mean[0] - 5.0).abs() < 1e-2);
        assert!((bn.running_var[0] - 1.0).abs() < 1e-1);
        // Inference uses running stats: output for x=5 should be ≈ 0.
        let y = run(
            &mut bn,
            &Tensor::from_vec(vec![5.0], &[1, 1, 1, 1]).unwrap(),
            false,
        );
        assert!(y[0].abs() < 0.1);
    }

    #[test]
    fn statistics_keep_each_channels_order() {
        // A whole group of `SUM_GROUP` channels and a ragged one.
        let (n, c, plane) = (3, SUM_GROUP + 1, 7);
        let data = (0..n * c * plane).map(|v| (v as f32 * 0.37).sin() * 3.0);
        let x = Tensor::from_vec(data.collect(), &[n, c, 1, plane]).unwrap();
        let mut bn = BatchNorm2d::new(c);
        run(&mut bn, &x, true);
        let m = (n * plane) as f32;
        for ch in 0..c {
            let (mut sum, mut sq) = (0.0f32, 0.0f32);
            for b in 0..n {
                for &v in &x.as_slice()[(b * c + ch) * plane..][..plane] {
                    sum += v;
                    sq += v * v;
                }
            }
            let mean = sum / m;
            let var = (sq / m - mean * mean).max(0.0);
            let want = [
                (1.0 - 0.1f32) * 0.0 + 0.1 * mean,
                (1.0 - 0.1f32) * 1.0 + 0.1 * var,
            ];
            let got = [bn.running_mean[ch], bn.running_var[ch]];
            assert_eq!(
                got.map(f32::to_bits),
                want.map(f32::to_bits),
                "channel {ch}"
            );
        }
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

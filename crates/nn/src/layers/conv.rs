use super::{Layer, Param};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Per-thread im2col/col2im buffers shared by every [`Conv2d`] pass on the
/// thread. A pass takes them out of [`CONV_SCRATCH`] and puts them back
/// when done; they are sized by [`kernels::scratch`] (grow-only, never
/// cleared), and `im2col` and `gemm` overwrite every element a pass reads.
/// This is a cell of its own, apart from the GEMM packing scratch, because
/// `gemm` runs while a pass holds these buffers.
#[derive(Default)]
struct ConvScratch {
    col: Vec<f32>,
    gcol: Vec<f32>,
    gw_batch: Vec<f32>,
}

thread_local! {
    static CONV_SCRATCH: Cell<ConvScratch> = const {
        Cell::new(ConvScratch { col: Vec::new(), gcol: Vec::new(), gw_batch: Vec::new() })
    };
}

/// A 2-D convolution with stride 1 and "same" zero padding.
///
/// Input and output are NCHW. The kernel tensor has shape
/// `[out_channels, in_channels, k, k]`; padding is `k / 2`, so odd kernel
/// sizes preserve spatial dimensions exactly.
///
/// Both passes lower onto the blocked GEMM in [`crate::kernels`]: the
/// forward pass im2col-expands each batch item into a
/// `[in_c·k·k, h·w]` column matrix and multiplies by the weight matrix
/// viewed as `[out_c, in_c·k·k]`; the backward pass recomputes the column
/// matrix (cheaper than caching it for large batches), forms the weight
/// gradient as `grad_out × colᵀ` and scatters `Wᵀ × grad_out` back through
/// col2im for the input gradient. The naive loop nest these must agree
/// with lives in [`crate::reference::conv2d_naive`].
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_c: usize,
    out_c: usize,
    k: usize,
    cache: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same-padding requires odd kernels) or any
    /// dimension is zero.
    pub fn new(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "kernel size must be odd for same padding");
        assert!(in_c > 0 && out_c > 0 && k > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = in_c * k * k;
        Conv2d {
            weight: Param::new(init::he_uniform(&[out_c, in_c, k, k], fan_in, &mut rng)),
            bias: Param::new(Tensor::zeros(&[out_c])),
            in_c,
            out_c,
            k,
            cache: None,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let timer = crate::instrument::start();
        let [n, c, h, w] = shape4(x);
        assert_eq!(c, self.in_c, "input channel mismatch");
        let hw = h * w;
        let kdim = self.in_c * self.k * self.k;
        let mut out = Tensor::zeros(&[n, self.out_c, h, w]);
        let xd = x.as_slice();
        let wd = self.weight.value.as_slice();
        let bd = self.bias.value.as_slice();
        let od = out.as_mut_slice();
        let mut bufs = CONV_SCRATCH.take();
        let col = kernels::scratch(&mut bufs.col, kdim * hw);
        for b in 0..n {
            im2col(&xd[b * c * hw..][..c * hw], c, h, w, self.k, col);
            let out_b = &mut od[b * self.out_c * hw..][..self.out_c * hw];
            // out[b] = W[out_c, kdim] × col[kdim, hw]
            kernels::gemm(false, false, self.out_c, kdim, hw, wd, col, out_b);
            for oc in 0..self.out_c {
                let bias = bd[oc];
                for v in &mut out_b[oc * hw..(oc + 1) * hw] {
                    *v += bias;
                }
            }
        }
        CONV_SCRATCH.set(bufs);
        self.cache = Some(x.clone());
        crate::instrument::record_since("nn.conv_us", timer);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("backward before forward");
        let [n, c, h, w] = shape4(x);
        assert_eq!(
            grad_out.shape(),
            &[n, self.out_c, h, w],
            "gradient shape mismatch"
        );
        let hw = h * w;
        let kdim = self.in_c * self.k * self.k;
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        let xd = x.as_slice();
        let wd = self.weight.value.as_slice();
        let god = grad_out.as_slice();
        let gw = self.weight.grad.as_mut_slice();
        let gb = self.bias.grad.as_mut_slice();
        let gxd = gx.as_mut_slice();
        let mut bufs = CONV_SCRATCH.take();
        let col = kernels::scratch(&mut bufs.col, kdim * hw);
        let gcol = kernels::scratch(&mut bufs.gcol, kdim * hw);
        let gw_batch = kernels::scratch(&mut bufs.gw_batch, self.out_c * kdim);
        for b in 0..n {
            let go_b = &god[b * self.out_c * hw..][..self.out_c * hw];
            for oc in 0..self.out_c {
                gb[oc] += go_b[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
            }
            // gW += grad_out[b] × col[b]ᵀ (gemm overwrites, so go through a
            // scratch buffer; parameter gradients accumulate across calls).
            im2col(&xd[b * c * hw..][..c * hw], c, h, w, self.k, col);
            kernels::gemm(false, true, self.out_c, hw, kdim, go_b, col, gw_batch);
            for (dst, &v) in gw.iter_mut().zip(gw_batch.iter()) {
                *dst += v;
            }
            // gx[b] = col2im(Wᵀ × grad_out[b])
            kernels::gemm(true, false, kdim, self.out_c, hw, wd, go_b, gcol);
            col2im(gcol, c, h, w, self.k, &mut gxd[b * c * hw..][..c * hw]);
        }
        CONV_SCRATCH.set(bufs);
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Expands one NCHW batch item (`x` is `[c, h, w]` flattened) into the
/// im2col matrix `col[(ic·k + ky)·k + kx, oy·w + ox] = x[ic, oy+ky-pad,
/// ox+kx-pad]`, with zero padding outside the image. For each
/// `(ic, ky, kx, oy)` the valid `ox` range is one contiguous run, so rows
/// are filled with slice copies rather than per-pixel bounds checks.
fn im2col(x: &[f32], c: usize, h: usize, w: usize, k: usize, col: &mut [f32]) {
    let pad = k / 2;
    let hw = h * w;
    debug_assert_eq!(x.len(), c * hw);
    debug_assert_eq!(col.len(), c * k * k * hw);
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = &mut col[((ic * k + ky) * k + kx) * hw..][..hw];
                // Valid output xs: 0 <= ox + kx - pad < w.
                let ox_lo = pad.saturating_sub(kx);
                let ox_hi = (w + pad).saturating_sub(kx).min(w);
                for oy in 0..h {
                    let dst = &mut row[oy * w..(oy + 1) * w];
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h || ox_lo >= ox_hi {
                        dst.fill(0.0);
                        continue;
                    }
                    let iy = iy - pad;
                    dst[..ox_lo].fill(0.0);
                    dst[ox_hi..].fill(0.0);
                    let ix_lo = ox_lo + kx - pad;
                    let src = &x[ic * hw + iy * w..][ix_lo..ix_lo + (ox_hi - ox_lo)];
                    dst[ox_lo..ox_hi].copy_from_slice(src);
                }
            }
        }
    }
}

/// Inverse of [`im2col`] for gradients: scatter-adds the column-matrix
/// gradient back onto the image gradient (`gx` is `[c, h, w]` flattened,
/// accumulated into). Overlapping kernel windows sum, matching the direct
/// convolution's input gradient.
fn col2im(gcol: &[f32], c: usize, h: usize, w: usize, k: usize, gx: &mut [f32]) {
    let pad = k / 2;
    let hw = h * w;
    debug_assert_eq!(gx.len(), c * hw);
    debug_assert_eq!(gcol.len(), c * k * k * hw);
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let row = &gcol[((ic * k + ky) * k + kx) * hw..][..hw];
                let ox_lo = pad.saturating_sub(kx);
                let ox_hi = (w + pad).saturating_sub(kx).min(w);
                if ox_lo >= ox_hi {
                    continue;
                }
                for oy in 0..h {
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let iy = iy - pad;
                    let ix_lo = ox_lo + kx - pad;
                    let dst = &mut gx[ic * hw + iy * w..][ix_lo..ix_lo + (ox_hi - ox_lo)];
                    let src = &row[oy * w + ox_lo..oy * w + ox_hi];
                    for (d, &g) in dst.iter_mut().zip(src) {
                        *d += g;
                    }
                }
            }
        }
    }
}

/// Extracts `[n, c, h, w]` from a 4-D tensor.
///
/// # Panics
///
/// Panics if the tensor is not 4-D.
pub(crate) fn shape4(x: &Tensor) -> [usize; 4] {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected NCHW tensor, got shape {s:?}");
    [s[0], s[1], s[2], s[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        // Set kernel to the identity (center tap 1), bias 0.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0);
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x, false);
        assert_eq!(y, x);
    }

    #[test]
    fn same_padding_preserves_shape() {
        let mut conv = Conv2d::new(3, 5, 3, 1);
        let x = Tensor::zeros(&[2, 3, 6, 7]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[2, 5, 6, 7]);
    }

    #[test]
    fn bias_applied_everywhere() {
        let mut conv = Conv2d::new(1, 2, 3, 2);
        conv.weight.value = Tensor::zeros(&[2, 1, 3, 3]);
        conv.bias.value = Tensor::from_vec(vec![1.5, -0.5], &[2]).unwrap();
        let y = conv.forward(&Tensor::zeros(&[1, 1, 2, 2]), false);
        assert!(y.as_slice()[..4].iter().all(|&v| v == 1.5));
        assert!(y.as_slice()[4..].iter().all(|&v| v == -0.5));
    }

    #[test]
    fn gradcheck_input() {
        let mut conv = Conv2d::new(2, 3, 3, 3);
        let x = Tensor::from_vec(
            (0..2 * 4 * 4).map(|v| (v as f32 * 0.13).sin()).collect(),
            &[1, 2, 4, 4],
        )
        .unwrap();
        gradcheck::check_input_grad(&mut conv, &x, 2e-2);
    }

    #[test]
    fn im2col_forward_matches_naive_reference() {
        use rand::Rng;
        // Random shapes, including batch > 1, non-square spatial dims, and
        // k = 5 (larger padding) — the im2col path must agree with the
        // direct loop nest everywhere.
        let shapes: &[(usize, usize, usize, usize, usize)] = &[
            (1, 1, 4, 4, 3),
            (2, 3, 6, 7, 3),
            (3, 2, 5, 9, 5),
            (4, 4, 8, 8, 3),
            (2, 1, 1, 6, 3),
        ];
        let mut rng = StdRng::seed_from_u64(99);
        for &(n, c, h, w, k) in shapes {
            let mut conv = Conv2d::new(c, c + 1, k, 5);
            let x = Tensor::from_vec(
                (0..n * c * h * w)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect(),
                &[n, c, h, w],
            )
            .unwrap();
            let got = conv.forward(&x, false);
            let want = crate::reference::conv2d_naive(&x, &conv.weight.value, &conv.bias.value);
            assert_eq!(got.shape(), want.shape());
            for (g, e) in got.as_slice().iter().zip(want.as_slice()) {
                assert!(
                    (g - e).abs() <= 1e-5,
                    "conv parity failed at shape {:?}: {g} vs {e}",
                    (n, c, h, w, k)
                );
            }
        }
    }

    #[test]
    fn backward_no_longer_skips_zero_grads() {
        // A zero upstream gradient times a NaN weight must still propagate
        // NaN into the input gradient (0 × NaN = NaN); the old loop skipped
        // zero grad_out entries entirely.
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.value = Tensor::from_vec(vec![f32::NAN; 9], &[1, 1, 3, 3]).unwrap();
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        conv.forward(&x, true);
        let gx = conv.backward(&Tensor::zeros(&[1, 1, 3, 3]));
        assert!(gx.as_slice().iter().all(|v| v.is_nan()));
    }

    #[test]
    fn gradcheck_params() {
        let mut conv = Conv2d::new(1, 2, 3, 4);
        let x = Tensor::from_vec(
            (0..9).map(|v| (v as f32 * 0.31).cos()).collect(),
            &[1, 1, 3, 3],
        )
        .unwrap();
        gradcheck::check_param_grads(&mut conv, &x, 2e-2);
    }
}

use super::{Layer, Param};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Buffers one thread needs to run a [`Conv2d`] pass over its share of
/// the batch items. All are grow-only ([`kernels::scratch`]), never
/// shrunk: every element a pass reads was written earlier in that pass.
#[derive(Default)]
struct ItemScratch {
    /// One item's input, zero-padded, plus [`kernels::CONV_SLACK`].
    xp: Vec<f32>,
    /// One item's im2col matrix (weight gradient only).
    col: Vec<f32>,
}

/// Per-thread buffers of the thread that calls a [`Conv2d`] pass. A pass
/// takes them out of [`CONV_SCRATCH`] and puts them back when done. This
/// is a cell of its own, apart from the GEMM packing scratch, because
/// `gemm` runs while a pass holds these buffers. Helper threads of a
/// batch-split pass are fresh scoped threads and bring empty
/// [`ItemScratch`].
#[derive(Default)]
struct ConvScratch {
    /// Tap offsets `p = (ic, ky, kx) → (ic·hp + ky)·wp + kx` into the
    /// padded input.
    offs: Vec<usize>,
    /// The weight matrix packed for [`kernels::conv_same_direct`].
    packed_w: Vec<f32>,
    /// Per-item weight-gradient partials, `[n, out_c·kdim]`.
    gw_items: Vec<f32>,
    /// Per-item bias-gradient partials, `[n, out_c]`.
    gb_items: Vec<f32>,
    item: ItemScratch,
}

thread_local! {
    static CONV_SCRATCH: Cell<ConvScratch> = const {
        Cell::new(ConvScratch {
            offs: Vec::new(),
            packed_w: Vec::new(),
            gw_items: Vec::new(),
            gb_items: Vec::new(),
            item: ItemScratch { xp: Vec::new(), col: Vec::new() },
        })
    };
}

/// A 2-D convolution with stride 1 and "same" zero padding.
///
/// Input and output are NCHW. The kernel tensor has shape
/// `[out_channels, in_channels, k, k]`; padding is `k / 2`, so odd kernel
/// sizes preserve spatial dimensions exactly.
///
/// No pass builds an im2col matrix it does not need. The forward pass
/// copies each batch item into a zero-padded scratch and runs
/// [`kernels::conv_same_direct`], which reads the GEMM micro-kernel's `B`
/// rows in place. The backward pass im2col-expands each item once for the
/// weight gradient `grad_out × colᵀ`, and forms the input gradient one
/// `(ic, ky, kx)` row of `Wᵀ × grad_out` at a time, scatter-added into the
/// image at once. Both passes split the batch items over the
/// [`kernels::set_matmul_threads`] budget and run their GEMMs serially;
/// per-item weight and bias gradient partials are summed in batch order.
/// Every result is bit-identical, at any thread count, to the im2col
/// passes kept in [`crate::reference::conv2d_im2col`] and
/// [`crate::reference::conv2d_im2col_backward`]; the naive loop nest
/// lives in [`crate::reference::conv2d_naive`].
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
        let (out_c, k) = (self.out_c, self.k);
        let (hw, kdim) = (h * w, c * k * k);
        let mut out = Tensor::zeros(&[n, out_c, h, w]);
        if n > 0 && hw > 0 {
            let mut bufs = CONV_SCRATCH.take();
            let wp = tap_offsets(c, h, w, k, &mut bufs.offs);
            let offs = &bufs.offs[..];
            let packed_w = kernels::pack_conv_weights(
                self.weight.value.as_slice(),
                out_c,
                kdim,
                &mut bufs.packed_w,
            );
            let bias = self.bias.value.as_slice();
            let threads = kernels::threads_for(n * out_c * kdim * hw, n);
            let per = n.div_ceil(threads);
            let chunks = x
                .as_slice()
                .chunks(per * c * hw)
                .zip(out.as_mut_slice().chunks_mut(per * out_c * hw));
            run_chunks(threads, chunks, &mut bufs.item, |(xs, outs), item| {
                for (x_b, out_b) in xs
                    .chunks_exact(c * hw)
                    .zip(outs.chunks_exact_mut(out_c * hw))
                {
                    let xp = pad_into(x_b, c, h, w, k, &mut item.xp);
                    kernels::conv_same_direct(out_c, packed_w, bias, xp, offs, h, w, wp, out_b);
                }
            });
            CONV_SCRATCH.set(bufs);
        }
        self.cache = Some(x.clone());
        crate::instrument::record_since("nn.conv_us", timer);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache.as_ref().expect("backward before forward");
        let [n, c, h, w] = shape4(x);
        let (out_c, k) = (self.out_c, self.k);
        assert_eq!(
            grad_out.shape(),
            &[n, out_c, h, w],
            "gradient shape mismatch"
        );
        let (hw, kdim) = (h * w, c * k * k);
        let mut gx = Tensor::zeros(&[n, c, h, w]);
        if n == 0 || hw == 0 {
            return gx;
        }
        let wd = self.weight.value.as_slice();
        let mut bufs = CONV_SCRATCH.take();
        let gw_items = kernels::scratch(&mut bufs.gw_items, n * out_c * kdim);
        let gb_items = kernels::scratch(&mut bufs.gb_items, n * out_c);
        let threads = kernels::threads_for(n * out_c * kdim * hw, n);
        let per = n.div_ceil(threads);
        let chunks = x
            .as_slice()
            .chunks(per * c * hw)
            .zip(grad_out.as_slice().chunks(per * out_c * hw))
            .zip(gx.as_mut_slice().chunks_mut(per * c * hw))
            .zip(gw_items.chunks_mut(per * out_c * kdim))
            .zip(gb_items.chunks_mut(per * out_c));
        run_chunks(
            threads,
            chunks,
            &mut bufs.item,
            |((((xs, gos), gxs), gws), gbs), item| {
                let items = xs
                    .chunks_exact(c * hw)
                    .zip(gos.chunks_exact(out_c * hw))
                    .zip(gxs.chunks_exact_mut(c * hw))
                    .zip(gws.chunks_exact_mut(out_c * kdim))
                    .zip(gbs.chunks_exact_mut(out_c));
                for ((((x_b, go_b), gx_b), gw_b), gb_b) in items {
                    for (s, go) in gb_b.iter_mut().zip(go_b.chunks_exact(hw)) {
                        *s = go.iter().sum::<f32>();
                    }
                    // gW_b = grad_out[b] × col[b]ᵀ
                    let col = kernels::scratch(&mut item.col, kdim * hw);
                    kernels::im2col(x_b, c, h, w, k, col);
                    kernels::gemm_with_threads(1, false, true, out_c, hw, kdim, go_b, col, gw_b);
                    input_grad(wd, go_b, out_c, c, h, w, k, gx_b);
                }
            },
        );
        // Parameter gradients accumulate across calls, item by item in
        // batch order whatever the thread split.
        let gw = self.weight.grad.as_mut_slice();
        let gb = self.bias.grad.as_mut_slice();
        for (gw_b, gb_b) in gw_items
            .chunks_exact(out_c * kdim)
            .zip(gb_items.chunks_exact(out_c))
        {
            for (dst, &v) in gb.iter_mut().zip(gb_b) {
                *dst += v;
            }
            for (dst, &v) in gw.iter_mut().zip(gw_b) {
                *dst += v;
            }
        }
        CONV_SCRATCH.set(bufs);
        gx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Runs `work` on every chunk of batch items: the first on the calling
/// thread with its warm `local` scratch, each other one on a scoped thread
/// of its own with fresh scratch. `threads` is the number of chunks; at
/// `1` no thread is spawned (and nothing is allocated).
fn run_chunks<C: Send>(
    threads: usize,
    chunks: impl Iterator<Item = C>,
    local: &mut ItemScratch,
    work: impl Fn(C, &mut ItemScratch) + Sync,
) {
    let mut chunks = chunks;
    if threads <= 1 {
        chunks.for_each(|chunk| work(chunk, local));
        return;
    }
    let first = chunks.next();
    std::thread::scope(|scope| {
        let work = &work;
        for chunk in chunks {
            scope.spawn(move || work(chunk, &mut ItemScratch::default()));
        }
        if let Some(first) = first {
            work(first, local);
        }
    });
}

/// Fills `offs` with where each tap `p = (ic, ky, kx)` starts in the
/// zero-padded `[c, h + 2·pad, w + 2·pad]` input, and returns the padded
/// row length `wp`.
fn tap_offsets(c: usize, h: usize, w: usize, k: usize, offs: &mut Vec<usize>) -> usize {
    let (hp, wp) = (h + k - 1, w + k - 1);
    offs.clear();
    for ic in 0..c {
        for ky in 0..k {
            offs.extend((0..k).map(|kx| (ic * hp + ky) * wp + kx));
        }
    }
    wp
}

/// Copies one `[c, h, w]` item into `xp` as `[c, h + 2·pad, w + 2·pad]`
/// with zero borders, followed by [`kernels::CONV_SLACK`] zeros.
fn pad_into<'a>(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    xp: &'a mut Vec<f32>,
) -> &'a [f32] {
    let pad = k / 2;
    let (hp, wp) = (h + k - 1, w + k - 1);
    let xp = kernels::scratch(xp, c * hp * wp + kernels::CONV_SLACK);
    xp.fill(0.0);
    for (ic, x_c) in x.chunks_exact(h * w).enumerate() {
        for (y, x_row) in x_c.chunks_exact(w).enumerate() {
            xp[(ic * hp + y + pad) * wp + pad..][..w].copy_from_slice(x_row);
        }
    }
    xp
}

/// `gx_b += col2im(Wᵀ × grad_out[b])` without the `[kdim, h·w]` matrix:
/// each `(ic, ky, kx)` row of `Wᵀ × grad_out[b]` is formed, one valid
/// output-row segment at a time, by [`kernels::gemm_tn_row_add`] and added
/// into the image at once. Rows go in ascending `(ic, ky, kx)` order, so
/// every input-gradient element sums its kernel taps in col2im's order,
/// starting from `gx_b`'s zeros.
#[allow(clippy::too_many_arguments)]
fn input_grad(
    wd: &[f32],
    go_b: &[f32],
    out_c: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    gx_b: &mut [f32],
) {
    let (pad, hw, kdim) = (k / 2, h * w, c * k * k);
    for ic in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                // Valid output xs: 0 <= ox + kx - pad < w.
                let ox_lo = pad.saturating_sub(kx);
                let ox_hi = (w + pad).saturating_sub(kx).min(w);
                if ox_lo >= ox_hi {
                    continue;
                }
                let p = (ic * k + ky) * k + kx;
                for oy in 0..h {
                    let iy = oy + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let iy = iy - pad;
                    let ix_lo = ox_lo + kx - pad;
                    let dst = &mut gx_b[ic * hw + iy * w..][ix_lo..ix_lo + (ox_hi - ox_lo)];
                    kernels::gemm_tn_row_add(kdim, out_c, hw, wd, go_b, p, oy * w + ox_lo, dst);
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
    fn forward_matches_naive_reference() {
        use rand::Rng;
        // Random shapes, including batch > 1, non-square spatial dims, and
        // k = 5 (larger padding) — the direct kernel must agree with the
        // naive loop nest everywhere.
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

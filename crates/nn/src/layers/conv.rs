use super::{Layer, Param, Shape, Workspace};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Buffers one thread needs to run a convolution pass over one batch
/// item. All are grow-only ([`kernels::scratch`]), never shrunk: every
/// element a pass reads was written earlier in that pass.
#[derive(Default)]
struct ItemScratch {
    /// One item's input, zero-padded, plus [`kernels::CONV_SLACK`]
    /// (forward and weight gradient).
    xp: Vec<f32>,
    /// One item's `grad_out` in [`kernels::pack_conv_grad`]'s `NR`-wide
    /// rows (weight gradient).
    gt: Vec<f32>,
    /// One item's `grad_out` with zero-padded rows (input gradient).
    gop: Vec<f32>,
}

/// Per-thread buffers of the thread that calls a convolution pass. A pass
/// takes them out of [`CONV_SCRATCH`] and puts them back when done.
#[derive(Default)]
struct ConvScratch {
    /// Tap offsets `p = (ic, ky, kx) → (ic·hp + ky)·wp + kx` into the
    /// padded input.
    offs: Vec<usize>,
    /// The weight matrix packed for [`kernels::conv_same_direct`] in a
    /// forward, or for [`kernels::conv_igrad_direct`] in a backward.
    packed_w: Vec<f32>,
    /// Per-item weight-gradient partials, `[n, out_c·kdim]`.
    gw_items: Vec<f32>,
    /// Per-item bias-gradient partials, `[n, out_c]`.
    gb_items: Vec<f32>,
}

thread_local! {
    static CONV_SCRATCH: Cell<ConvScratch> = const {
        Cell::new(ConvScratch {
            offs: Vec::new(),
            packed_w: Vec::new(),
            gw_items: Vec::new(),
            gb_items: Vec::new(),
        })
    };
    /// The item buffers of whichever thread runs an item: the caller's or
    /// a pool helper's, which keeps them warm across passes.
    static ITEM_SCRATCH: Cell<ItemScratch> = const {
        Cell::new(ItemScratch {
            xp: Vec::new(),
            gt: Vec::new(),
            gop: Vec::new(),
        })
    };
}

/// A 2-D convolution with stride 1 and "same" zero padding.
///
/// Input and output are NCHW. The kernel tensor has shape
/// `[out_channels, in_channels, k, k]`; padding is `k / 2`, so odd kernel
/// sizes preserve spatial dimensions exactly.
///
/// No pass builds an im2col matrix. Each batch item is copied into a
/// zero-padded scratch, and both the forward (`kernels::conv_same_direct`)
/// and the weight gradient (`kernels::conv_wgrad_direct`) read every
/// tap's pixels in place from it. The input gradient
/// (`kernels::conv_igrad_direct`) gathers each input pixel's taps from a
/// row-padded copy of `grad_out`, on the forward's register tile turned
/// around: a few input channels by one vector of pixels. A pass of enough
/// work splits over the kernel pool ([`kernels::set_matmul_threads`]),
/// one batch item per share; per-item weight and bias gradient partials
/// are summed in batch order. Every result is bit-identical, at any thread
/// count, to the im2col passes kept in
/// [`crate::reference::conv2d_im2col`] and
/// [`crate::reference::conv2d_im2col_backward`]; the naive loop nest lives
/// in [`crate::reference::conv2d_naive`].
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_c: usize,
    out_c: usize,
    k: usize,
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
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// The shape of a pass over an input of `shape`.
    fn dims(&self, [n, c, h, w]: Shape) -> Dims {
        assert_eq!(c, self.in_c, "input channel mismatch");
        Dims {
            n,
            c,
            h,
            w,
            k: self.k,
            out_c: self.out_c,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let timer = crate::instrument::start();
        let d = self.dims(ws.output_shape());
        let io = ws.push(d.out_shape());
        let mut bufs = CONV_SCRATCH.take();
        forward_pass(
            d,
            io.x,
            self.weight.value.as_slice(),
            self.bias.value.as_slice(),
            io.y,
            &mut bufs,
        );
        CONV_SCRATCH.set(bufs);
        crate::instrument::record_since("nn.conv_us", timer);
    }

    /// Without `input_grad` (the stem), skips the input gradient
    /// altogether.
    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        let d = self.dims(ws.input_shape());
        ws.backward(input_grad, 0, |io| {
            let mut bufs = CONV_SCRATCH.take();
            weight_grad_pass(d, io.x, io.go, &mut bufs);
            add_item_partials(&bufs, d, 0, &mut self.weight, &mut self.bias);
            if let Some(gx) = io.gx {
                let wd = self.weight.value.as_slice();
                input_grad_pass(d, 1, wd, io.go, gx, &mut bufs);
            }
            CONV_SCRATCH.set(bufs);
        });
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Convolutions of one input, all with the same input channels, kernel
/// size and output channel count, run as one stacked convolution: the
/// three head convolutions of [`crate::PolicyValueNet`]. Its output is
/// the heads' outputs stacked along channels, `[n, heads·out_c, h, w]`.
///
/// The heads keep their own [`Param`]s, in head order, and every output
/// and gradient is bit-identical to running the heads as separate
/// [`Conv2d`] layers: the forward and the weight gradient are per output
/// channel, and the input gradient sums each head's taps on its own and
/// adds the heads' sums left to right, as separate input gradients added
/// with [`Tensor::add`] would be.
#[derive(Debug, Clone)]
pub struct ConvHeads {
    heads: Vec<Conv2d>,
    /// The heads' weights stacked as `[out_c, kdim]`, then their biases
    /// as `[out_c]`.
    stacked: Vec<f32>,
}

impl ConvHeads {
    /// Stacks `heads` into one pass.
    ///
    /// # Panics
    ///
    /// Panics if `heads` is empty or the heads differ in input channels,
    /// kernel size or output channels.
    pub fn new(heads: Vec<Conv2d>) -> Self {
        let first = heads.first().expect("at least one head");
        assert!(
            heads
                .iter()
                .all(|h| (h.in_c, h.k, h.out_c) == (first.in_c, first.k, first.out_c)),
            "heads must share input channels, kernel size and output channels"
        );
        ConvHeads {
            heads,
            stacked: Vec::new(),
        }
    }

    /// The heads, in order.
    pub fn heads_mut(&mut self) -> &mut [Conv2d] {
        &mut self.heads
    }

    /// The shape of the stacked pass over an input of `shape`.
    fn dims(&self, shape: Shape) -> Dims {
        let one = self.heads[0].dims(shape);
        Dims {
            out_c: one.out_c * self.heads.len(),
            ..one
        }
    }

    /// Stacks the heads' current weights, then biases, into `stacked`,
    /// and returns the two parts.
    fn stack_params(&mut self) -> (&[f32], &[f32]) {
        self.stacked.clear();
        for head in &self.heads {
            self.stacked.extend_from_slice(head.weight.value.as_slice());
        }
        let weights = self.stacked.len();
        for head in &self.heads {
            self.stacked.extend_from_slice(head.bias.value.as_slice());
        }
        self.stacked.split_at(weights)
    }
}

impl Layer for ConvHeads {
    fn forward(&mut self, ws: &mut Workspace, _train: bool) {
        let timer = crate::instrument::start();
        let d = self.dims(ws.output_shape());
        let (weights, bias) = self.stack_params();
        let io = ws.push(d.out_shape());
        let mut bufs = CONV_SCRATCH.take();
        forward_pass(d, io.x, weights, bias, io.y, &mut bufs);
        CONV_SCRATCH.set(bufs);
        crate::instrument::record_since("nn.conv_us", timer);
    }

    /// Accumulates each head's parameter gradients from its channels of
    /// the output gradient; the input gradient is `(g₀ + g₁) + g₂ …` over
    /// the heads.
    fn backward(&mut self, ws: &mut Workspace, input_grad: bool) {
        let d = self.dims(ws.input_shape());
        let groups = self.heads.len();
        let per_head = d.out_c / groups;
        self.stack_params();
        let (heads, weights) = (&mut self.heads, &self.stacked[..d.out_c * d.kdim()]);
        ws.backward(input_grad, 0, |io| {
            let mut bufs = CONV_SCRATCH.take();
            weight_grad_pass(d, io.x, io.go, &mut bufs);
            for (g, head) in heads.iter_mut().enumerate() {
                add_item_partials(&bufs, d, g * per_head, &mut head.weight, &mut head.bias);
            }
            if let Some(gx) = io.gx {
                input_grad_pass(d, groups, weights, io.go, gx, &mut bufs);
            }
            CONV_SCRATCH.set(bufs);
        });
    }

    /// Every head's parameters, in head order.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.heads.iter_mut().flat_map(|h| h.params_mut()).collect()
    }
}

/// The shape of one convolution pass: `n` items of `[c, h, w]` in,
/// `[out_c, h, w]` out, a `k × k` kernel.
#[derive(Debug, Clone, Copy)]
struct Dims {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    out_c: usize,
}

impl Dims {
    fn hw(&self) -> usize {
        self.h * self.w
    }

    fn kdim(&self) -> usize {
        self.c * self.k * self.k
    }

    fn out_shape(&self) -> [usize; 4] {
        [self.n, self.out_c, self.h, self.w]
    }

    /// Whether the pass has any work, and whether it splits its items over
    /// the pool: it must reach [`kernels::PARALLEL_FLOPS`] multiply-adds.
    fn split(&self) -> Option<bool> {
        if self.n == 0 || self.hw() == 0 {
            return None;
        }
        Some(self.n * self.out_c * self.kdim() * self.hw() >= kernels::PARALLEL_FLOPS)
    }
}

/// `out = conv(x)` with `weights` as `[out_c, kdim]` and `bias` as
/// `[out_c]`.
fn forward_pass(
    d: Dims,
    x: &[f32],
    weights: &[f32],
    bias: &[f32],
    out: &mut [f32],
    bufs: &mut ConvScratch,
) {
    let Some(split) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c) = (d.c, d.h, d.w, d.hw(), d.out_c);
    let wp = tap_offsets(c, h, w, d.k, &mut bufs.offs);
    let offs = &bufs.offs[..];
    let packed_w = kernels::pack_conv_weights(weights, out_c, d.kdim(), &mut bufs.packed_w);
    let items = x.chunks_exact(c * hw).zip(out.chunks_exact_mut(out_c * hw));
    run_items(split, items, |(x_b, out_b), item| {
        let xp = pad_into(x_b, c, h, w, d.k, &mut item.xp);
        kernels::conv_same_direct(out_c, packed_w, bias, xp, offs, h, w, wp, out_b);
    });
    crate::instrument::record_since("nn.conv_fwd_us", timer);
}

/// Fills `bufs.gw_items` and `bufs.gb_items` with every item's weight and
/// bias gradient partials for output gradient `go`.
fn weight_grad_pass(d: Dims, x: &[f32], go: &[f32], bufs: &mut ConvScratch) {
    let Some(split) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c, kdim) = (d.c, d.h, d.w, d.hw(), d.out_c, d.kdim());
    let wp = tap_offsets(c, h, w, d.k, &mut bufs.offs);
    let offs = &bufs.offs[..];
    let gw_items = kernels::scratch(&mut bufs.gw_items, d.n * out_c * kdim);
    let gb_items = kernels::scratch(&mut bufs.gb_items, d.n * out_c);
    let items = x
        .chunks_exact(c * hw)
        .zip(go.chunks_exact(out_c * hw))
        .zip(gw_items.chunks_exact_mut(out_c * kdim))
        .zip(gb_items.chunks_exact_mut(out_c));
    run_items(split, items, |(((x_b, go_b), gw_b), gb_b), item| {
        let xp = pad_into(x_b, c, h, w, d.k, &mut item.xp);
        let gt = kernels::pack_conv_grad(go_b, out_c, hw, &mut item.gt);
        kernels::conv_bias_grad(gt, hw, gb_b);
        kernels::conv_wgrad_direct(out_c, gt, xp, offs, h, w, wp, gw_b);
    });
    crate::instrument::record_since("nn.conv_wgrad_us", timer);
}

/// Adds output channels `oc0..` of every item's partials in `bufs`, item
/// by item in batch order, onto the gradients of `weight` and `bias`
/// (whatever the thread split, and across calls).
fn add_item_partials(
    bufs: &ConvScratch,
    d: Dims,
    oc0: usize,
    weight: &mut Param,
    bias: &mut Param,
) {
    let kdim = d.kdim();
    for (dst, items, len) in [
        (&mut weight.grad, &bufs.gw_items, d.out_c * kdim),
        (&mut bias.grad, &bufs.gb_items, d.out_c),
    ] {
        let dst = dst.as_mut_slice();
        let offset = oc0 * (len / d.out_c);
        for item in items[..d.n * len].chunks_exact(len) {
            for (g, &v) in dst.iter_mut().zip(&item[offset..]) {
                *g += v;
            }
        }
    }
}

/// `gx = ∂loss/∂x` for output gradient `go`, with `weights` as
/// `[out_c, kdim]` and the output channels in `groups` equal groups
/// ([`kernels::conv_igrad_direct`]). The weights are packed once into
/// `bufs.packed_w` for every item.
fn input_grad_pass(
    d: Dims,
    groups: usize,
    weights: &[f32],
    go: &[f32],
    gx: &mut [f32],
    bufs: &mut ConvScratch,
) {
    let Some(split) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c) = (d.c, d.h, d.w, d.hw(), d.out_c);
    let packed = kernels::pack_igrad_weights(weights, out_c, c, d.k, &mut bufs.packed_w);
    let items = go.chunks_exact(out_c * hw).zip(gx.chunks_exact_mut(c * hw));
    run_items(split, items, |(go_b, gx_b), item| {
        let gop = pad_rows_into(go_b, out_c * h, w, d.k / 2, &mut item.gop);
        kernels::conv_igrad_direct(packed, out_c, groups, gop, c, h, w, d.k, gx_b);
    });
    crate::instrument::record_since("nn.conv_igrad_us", timer);
}

/// Runs `work` on every batch item, each with the [`ItemScratch`] of the
/// thread that runs it: all on the calling thread, or, when `split`, one
/// item per share of the kernel pool ([`crate::pool`]), whose helpers
/// keep their scratch warm from pass to pass.
fn run_items<I>(split: bool, items: I, work: impl Fn(I::Item, &mut ItemScratch) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    crate::pool::for_each(split, items, |item| {
        let mut scratch = ITEM_SCRATCH.take();
        work(item, &mut scratch);
        ITEM_SCRATCH.set(scratch);
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

/// Copies `rows` rows of `w` values into `out` as rows of `w + 2·pad`,
/// with `pad` zeros on each side.
fn pad_rows_into<'a>(
    x: &[f32],
    rows: usize,
    w: usize,
    pad: usize,
    out: &'a mut Vec<f32>,
) -> &'a [f32] {
    let wq = w + 2 * pad;
    let out = kernels::scratch(out, rows * wq);
    for (dst, src) in out.chunks_exact_mut(wq).zip(x.chunks_exact(w)) {
        dst[..pad].fill(0.0);
        dst[pad..pad + w].copy_from_slice(src);
        dst[pad + w..].fill(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck;

    /// An inference forward of `conv` on `x`: its output and shape.
    fn run(conv: &mut Conv2d, x: &Tensor) -> (Vec<f32>, Shape) {
        let mut ws = Workspace::default();
        ws.start(x);
        conv.forward(&mut ws, false);
        (ws.output().to_vec(), ws.output_shape())
    }

    #[test]
    fn identity_kernel_passes_through() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        // Set kernel to the identity (center tap 1), bias 0.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0);
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let (y, _) = run(&mut conv, &x);
        assert_eq!(y, x.as_slice());
    }

    #[test]
    fn same_padding_preserves_shape() {
        let mut conv = Conv2d::new(3, 5, 3, 1);
        let x = Tensor::zeros(&[2, 3, 6, 7]);
        let (_, shape) = run(&mut conv, &x);
        assert_eq!(shape, [2, 5, 6, 7]);
    }

    #[test]
    fn bias_applied_everywhere() {
        let mut conv = Conv2d::new(1, 2, 3, 2);
        conv.weight.value = Tensor::zeros(&[2, 1, 3, 3]);
        conv.bias.value = Tensor::from_vec(vec![1.5, -0.5], &[2]).unwrap();
        let (y, _) = run(&mut conv, &Tensor::zeros(&[1, 1, 2, 2]));
        assert!(y[..4].iter().all(|&v| v == 1.5));
        assert!(y[4..].iter().all(|&v| v == -0.5));
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
            let (got, shape) = run(&mut conv, &x);
            let want = crate::reference::conv2d_naive(&x, &conv.weight.value, &conv.bias.value);
            assert_eq!(&shape[..], want.shape());
            for (g, e) in got.iter().zip(want.as_slice()) {
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
        let gx = gradcheck::input_grad(&mut conv, &x, &[0.0; 9]);
        assert!(gx.iter().all(|v| v.is_nan()));
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

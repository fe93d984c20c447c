use super::{Layer, Param};
use crate::{init, kernels, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;

/// Buffers one thread needs to run a convolution pass over its share of
/// the batch items. All are grow-only ([`kernels::scratch`]), never
/// shrunk: every element a pass reads was written earlier in that pass.
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
/// takes them out of [`CONV_SCRATCH`] and puts them back when done. The
/// calling thread works in `items[0]`; a batch-split pass lends
/// `items[i]` to its `i`-th helper thread, so helpers start warm too.
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
    items: Vec<ItemScratch>,
}

thread_local! {
    static CONV_SCRATCH: Cell<ConvScratch> = const {
        Cell::new(ConvScratch {
            offs: Vec::new(),
            packed_w: Vec::new(),
            gw_items: Vec::new(),
            gb_items: Vec::new(),
            items: Vec::new(),
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
/// (`kernels::conv_igrad_gather`) gathers each input pixel's taps from a
/// row-padded copy of `grad_out`. Every pass splits the batch items over
/// the [`kernels::set_matmul_threads`] budget; per-item weight and bias
/// gradient partials are summed in batch order. Every result is
/// bit-identical, at any thread count, to the im2col passes kept in
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

    /// The shape of a pass over `x`.
    fn dims(&self, x: &Tensor) -> Dims {
        let [n, c, h, w] = shape4(x);
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

    /// Accumulates the parameter gradients of `grad_out` and, if
    /// `input_grad`, returns the input gradient.
    fn backward_pass(&mut self, grad_out: &Tensor, input_grad: bool) -> Option<Tensor> {
        let x = self.cache.as_ref().expect("backward before forward");
        let d = self.dims(x);
        assert_eq!(grad_out.shape(), &d.out_shape(), "gradient shape mismatch");
        let mut bufs = CONV_SCRATCH.take();
        weight_grad_pass(d, x.as_slice(), grad_out.as_slice(), &mut bufs);
        add_item_partials(&bufs, d, 0, &mut self.weight, &mut self.bias);
        let gx = input_grad.then(|| {
            let mut gx = Tensor::zeros(x.shape());
            let wd = self.weight.value.as_slice();
            input_grad_pass(d, 1, wd, grad_out.as_slice(), gx.as_mut_slice(), &mut bufs);
            gx
        });
        CONV_SCRATCH.set(bufs);
        gx
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let timer = crate::instrument::start();
        let d = self.dims(x);
        let mut out = Tensor::zeros(&d.out_shape());
        let mut bufs = CONV_SCRATCH.take();
        forward_pass(
            d,
            x.as_slice(),
            self.weight.value.as_slice(),
            self.bias.value.as_slice(),
            out.as_mut_slice(),
            &mut bufs,
        );
        CONV_SCRATCH.set(bufs);
        self.cache = Some(x.clone());
        crate::instrument::record_since("nn.conv_us", timer);
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_pass(grad_out, true)
            .expect("input gradient requested")
    }

    /// Skips the input gradient altogether.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward_pass(grad_out, false);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Convolutions of one input, all with the same input channels, kernel
/// size and output channel count, run as one stacked convolution: the
/// three head convolutions of [`crate::PolicyValueNet`].
///
/// The heads keep their own [`Param`]s, in head order, and every output
/// and gradient is bit-identical to running the heads as separate
/// [`Conv2d`] layers: the forward and the weight gradient are per output
/// channel, and the input gradient sums each head's taps on its own and
/// adds the heads' sums left to right, as separate input gradients added
/// with [`Tensor::add`] would be. Only one copy of the input is cached.
#[derive(Debug, Clone)]
pub struct ConvHeads {
    heads: Vec<Conv2d>,
    cache: Option<Tensor>,
    /// The heads' weights stacked as `[out_c, kdim]`, then their biases
    /// as `[out_c]`.
    stacked: Vec<f32>,
    /// All heads' outputs, or output gradients, as one `[n, out_c, h, w]`
    /// batch (grow-only scratch).
    all: Vec<f32>,
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
            cache: None,
            stacked: Vec::new(),
            all: Vec::new(),
        }
    }

    /// The heads, in order.
    pub fn heads_mut(&mut self) -> &mut [Conv2d] {
        &mut self.heads
    }

    /// The shapes of one head's pass over `x` and of the stacked pass.
    fn dims(&self, x: &Tensor) -> (Dims, Dims) {
        let one = self.heads[0].dims(x);
        let out_c = one.out_c * self.heads.len();
        (one, Dims { out_c, ..one })
    }

    /// Stacks the heads' current weights, then biases, into `stacked`.
    fn stack_params(&mut self) {
        self.stacked.clear();
        for head in &self.heads {
            self.stacked.extend_from_slice(head.weight.value.as_slice());
        }
        for head in &self.heads {
            self.stacked.extend_from_slice(head.bias.value.as_slice());
        }
    }

    /// Runs every head on `x`, returning their outputs in head order.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, in_c, h, w]`.
    pub fn forward(&mut self, x: &Tensor) -> Vec<Tensor> {
        let timer = crate::instrument::start();
        let (one, d) = self.dims(x);
        self.stack_params();
        let (weights, bias) = self.stacked.split_at(d.out_c * d.kdim());
        let all = kernels::scratch(&mut self.all, d.out_len());
        let mut bufs = CONV_SCRATCH.take();
        forward_pass(d, x.as_slice(), weights, bias, all, &mut bufs);
        CONV_SCRATCH.set(bufs);
        let per = one.out_c * one.hw();
        let outs = (0..self.heads.len())
            .map(|g| {
                let mut out = Vec::with_capacity(one.out_len());
                for item in all.chunks_exact(d.out_c * d.hw()) {
                    out.extend_from_slice(&item[g * per..][..per]);
                }
                Tensor::from_vec(out, &one.out_shape()).expect("sized as one head's output")
            })
            .collect();
        self.cache = Some(x.clone());
        crate::instrument::record_since("nn.conv_us", timer);
        outs
    }

    /// Backpropagates one output gradient per head, accumulating each
    /// head's parameter gradients and returning the gradient with respect
    /// to the shared input, `(g₀ + g₁) + g₂ …` over the heads.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward` or with mismatched gradients.
    pub fn backward(&mut self, grads: &[Tensor]) -> Tensor {
        let x = self.cache.take().expect("backward before forward");
        let (one, d) = self.dims(&x);
        assert_eq!(grads.len(), self.heads.len(), "one gradient per head");
        for g in grads {
            assert_eq!(g.shape(), &one.out_shape(), "gradient shape mismatch");
        }
        self.stack_params();
        let mut gx = Tensor::zeros(x.shape());
        let go = kernels::scratch(&mut self.all, d.out_len());
        let per = one.out_c * one.hw();
        for (b, item) in go.chunks_exact_mut(d.out_c * d.hw()).enumerate() {
            for (dst, g) in item.chunks_exact_mut(per).zip(grads) {
                dst.copy_from_slice(&g.as_slice()[b * per..][..per]);
            }
        }
        let mut bufs = CONV_SCRATCH.take();
        weight_grad_pass(d, x.as_slice(), go, &mut bufs);
        for (g, head) in self.heads.iter_mut().enumerate() {
            add_item_partials(&bufs, d, g * one.out_c, &mut head.weight, &mut head.bias);
        }
        let weights = &self.stacked[..d.out_c * d.kdim()];
        input_grad_pass(
            d,
            self.heads.len(),
            weights,
            go,
            gx.as_mut_slice(),
            &mut bufs,
        );
        CONV_SCRATCH.set(bufs);
        self.cache = Some(x);
        gx
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

    /// Elements of the `[n, out_c, h, w]` output.
    fn out_len(&self) -> usize {
        self.n * self.out_c * self.hw()
    }

    /// Threads for the pass and batch items per thread; `None` when there
    /// is nothing to compute.
    fn split(&self) -> Option<(usize, usize)> {
        if self.n == 0 || self.hw() == 0 {
            return None;
        }
        let threads = kernels::threads_for(self.n * self.out_c * self.kdim() * self.hw(), self.n);
        Some((threads, self.n.div_ceil(threads)))
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
    let Some((threads, per)) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c) = (d.c, d.h, d.w, d.hw(), d.out_c);
    let wp = tap_offsets(c, h, w, d.k, &mut bufs.offs);
    let offs = &bufs.offs[..];
    let packed_w = kernels::pack_conv_weights(weights, out_c, d.kdim(), &mut bufs.packed_w);
    let chunks = x.chunks(per * c * hw).zip(out.chunks_mut(per * out_c * hw));
    run_chunks(threads, chunks, &mut bufs.items, |(xs, outs), item| {
        for (x_b, out_b) in xs
            .chunks_exact(c * hw)
            .zip(outs.chunks_exact_mut(out_c * hw))
        {
            let xp = pad_into(x_b, c, h, w, d.k, &mut item.xp);
            kernels::conv_same_direct(out_c, packed_w, bias, xp, offs, h, w, wp, out_b);
        }
    });
    crate::instrument::record_since("nn.conv_fwd_us", timer);
}

/// Fills `bufs.gw_items` and `bufs.gb_items` with every item's weight and
/// bias gradient partials for output gradient `go`.
fn weight_grad_pass(d: Dims, x: &[f32], go: &[f32], bufs: &mut ConvScratch) {
    let Some((threads, per)) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c, kdim) = (d.c, d.h, d.w, d.hw(), d.out_c, d.kdim());
    let wp = tap_offsets(c, h, w, d.k, &mut bufs.offs);
    let offs = &bufs.offs[..];
    let gw_items = kernels::scratch(&mut bufs.gw_items, d.n * out_c * kdim);
    let gb_items = kernels::scratch(&mut bufs.gb_items, d.n * out_c);
    let chunks = x
        .chunks(per * c * hw)
        .zip(go.chunks(per * out_c * hw))
        .zip(gw_items.chunks_mut(per * out_c * kdim))
        .zip(gb_items.chunks_mut(per * out_c));
    run_chunks(
        threads,
        chunks,
        &mut bufs.items,
        |(((xs, gos), gws), gbs), item| {
            let items = xs
                .chunks_exact(c * hw)
                .zip(gos.chunks_exact(out_c * hw))
                .zip(gws.chunks_exact_mut(out_c * kdim))
                .zip(gbs.chunks_exact_mut(out_c));
            for (((x_b, go_b), gw_b), gb_b) in items {
                for (s, go) in gb_b.iter_mut().zip(go_b.chunks_exact(hw)) {
                    *s = go.iter().sum::<f32>();
                }
                let xp = pad_into(x_b, c, h, w, d.k, &mut item.xp);
                let gt = kernels::pack_conv_grad(go_b, out_c, hw, &mut item.gt);
                kernels::conv_wgrad_direct(out_c, gt, xp, offs, h, w, wp, gw_b);
            }
        },
    );
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
/// ([`kernels::conv_igrad_gather`]).
fn input_grad_pass(
    d: Dims,
    groups: usize,
    weights: &[f32],
    go: &[f32],
    gx: &mut [f32],
    bufs: &mut ConvScratch,
) {
    let Some((threads, per)) = d.split() else {
        return;
    };
    let timer = crate::instrument::start();
    let (c, h, w, hw, out_c) = (d.c, d.h, d.w, d.hw(), d.out_c);
    let chunks = go.chunks(per * out_c * hw).zip(gx.chunks_mut(per * c * hw));
    run_chunks(threads, chunks, &mut bufs.items, |(gos, gxs), item| {
        for (go_b, gx_b) in gos
            .chunks_exact(out_c * hw)
            .zip(gxs.chunks_exact_mut(c * hw))
        {
            let gop = pad_rows_into(go_b, out_c * h, w, d.k / 2, &mut item.gop);
            kernels::conv_igrad_gather(weights, out_c, groups, gop, c, h, w, d.k, gx_b);
        }
    });
    crate::instrument::record_since("nn.conv_igrad_us", timer);
}

/// Runs `work` on every chunk of batch items, the `i`-th with scratch
/// `items[i]` (grown to `threads` on first need): the first on the
/// calling thread, each other one on a scoped thread of its own.
/// `threads` bounds the number of chunks; at `1` no thread is spawned
/// (and a warm call allocates nothing).
fn run_chunks<C: Send>(
    threads: usize,
    mut chunks: impl Iterator<Item = C>,
    items: &mut Vec<ItemScratch>,
    work: impl Fn(C, &mut ItemScratch) + Sync,
) {
    if items.len() < threads.max(1) {
        items.resize_with(threads.max(1), ItemScratch::default);
    }
    let (local, helpers) = items.split_first_mut().expect("at least one scratch");
    if threads <= 1 {
        chunks.for_each(|chunk| work(chunk, local));
        return;
    }
    let first = chunks.next();
    std::thread::scope(|scope| {
        let work = &work;
        for (chunk, item) in chunks.zip(helpers.iter_mut()) {
            scope.spawn(move || work(chunk, item));
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

//! Reference kernels — the correctness oracles for the optimized paths in
//! [`crate::kernels`] and [`crate::layers::Conv2d`].
//!
//! [`matmul_naive`] and [`conv2d_naive`] are the original
//! (pre-optimization) loop nests, kept as straightforward as possible so
//! they are easy to audit by eye; parity tests check the blocked GEMM and
//! the convolution against them within floating-point tolerance across
//! random shapes. [`conv2d_im2col`] and [`conv2d_im2col_backward`] are the
//! im2col-plus-GEMM convolution passes `Conv2d` ran before its direct
//! kernel, kept verbatim: the convolution must match them **bit for bit**
//! (`crates/nn/tests/conv_oracle.rs`). Everything here is compiled into the
//! library (not just test builds) so benchmarks can report
//! optimized-vs-reference ratios.

use crate::{kernels, Tensor};

/// Naive triple-loop matrix multiply: `[m, k] × [k, n] → [m, n]`.
///
/// No zero-skip fast path: `0 × NaN` propagates, exactly like the blocked
/// kernel.
///
/// # Panics
/// Panics if either tensor is not 2-D or inner dimensions disagree.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape().len(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    assert_eq!(k, k2, "matmul inner dimensions disagree");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            let row = &bd[p * n..(p + 1) * n];
            let dst = &mut out[i * n..(i + 1) * n];
            for (d, &bv) in dst.iter_mut().zip(row) {
                *d += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n]).expect("sized above")
}

/// Naive direct convolution: stride 1, same zero padding (`pad = k / 2`).
///
/// `x` is `[batch, in_c, h, w]`, `weight` is `[out_c, in_c, k, k]`, `bias`
/// is `[out_c]`; the result is `[batch, out_c, h, w]`.
///
/// # Panics
/// Panics if shapes are inconsistent.
pub fn conv2d_naive(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let [batch, in_c, h, w] = shape4(x);
    let [out_c, w_in_c, k, k2] = shape4(weight);
    assert_eq!(in_c, w_in_c, "conv input channels disagree");
    assert_eq!(k, k2, "conv kernels must be square");
    assert_eq!(bias.shape(), &[out_c], "conv bias shape");
    let pad = k / 2;

    let (xd, wd, bd) = (x.as_slice(), weight.as_slice(), bias.as_slice());
    let mut out = vec![0.0f32; batch * out_c * h * w];
    for b in 0..batch {
        for oc in 0..out_c {
            for oy in 0..h {
                for ox in 0..w {
                    let mut acc = bd[oc];
                    for ic in 0..in_c {
                        let ibase = (b * in_c + ic) * h * w;
                        let wbase = ((oc * in_c + ic) * k) * k;
                        for ky in 0..k {
                            let iy = oy + ky;
                            if iy < pad || iy >= h + pad {
                                continue;
                            }
                            let iy = iy - pad;
                            for kx in 0..k {
                                let ix = ox + kx;
                                if ix < pad || ix >= w + pad {
                                    continue;
                                }
                                let ix = ix - pad;
                                acc += xd[ibase + iy * w + ix] * wd[wbase + ky * k + kx];
                            }
                        }
                    }
                    out[((b * out_c + oc) * h + oy) * w + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[batch, out_c, h, w]).expect("sized above")
}

/// The im2col convolution forward: stride 1, same zero padding. Each batch
/// item is im2col-expanded into a `[in_c·k·k, h·w]` column matrix and
/// multiplied by the weight matrix viewed as `[out_c, in_c·k·k]`; the bias
/// is added afterwards. Shapes as in [`conv2d_naive`].
///
/// # Panics
/// Panics if shapes are inconsistent.
pub fn conv2d_im2col(x: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let [n, c, h, w] = shape4(x);
    let [out_c, w_in_c, k, _] = shape4(weight);
    assert_eq!(c, w_in_c, "conv input channels disagree");
    assert_eq!(bias.shape(), &[out_c], "conv bias shape");
    let hw = h * w;
    let kdim = c * k * k;
    let mut out = Tensor::zeros(&[n, out_c, h, w]);
    let xd = x.as_slice();
    let wd = weight.as_slice();
    let bd = bias.as_slice();
    let od = out.as_mut_slice();
    let mut col = vec![0.0f32; kdim * hw];
    for b in 0..n {
        kernels::im2col(&xd[b * c * hw..][..c * hw], c, h, w, k, &mut col);
        let out_b = &mut od[b * out_c * hw..][..out_c * hw];
        // out[b] = W[out_c, kdim] × col[kdim, hw]
        kernels::gemm(false, false, out_c, kdim, hw, wd, &col, out_b);
        for oc in 0..out_c {
            let bias = bd[oc];
            for v in &mut out_b[oc * hw..(oc + 1) * hw] {
                *v += bias;
            }
        }
    }
    out
}

/// The im2col convolution backward for [`conv2d_im2col`]: returns the input
/// gradient and accumulates the weight and bias gradients into `gw`
/// (`[out_c, in_c, k, k]` flattened) and `gb` (`[out_c]`), item by item in
/// batch order. The column matrix is recomputed per item; the weight
/// gradient is `grad_out × colᵀ` and the input gradient scatters
/// `Wᵀ × grad_out` back through col2im.
///
/// # Panics
/// Panics if shapes are inconsistent.
pub fn conv2d_im2col_backward(
    x: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    gw: &mut [f32],
    gb: &mut [f32],
) -> Tensor {
    let [n, c, h, w] = shape4(x);
    let [out_c, w_in_c, k, _] = shape4(weight);
    assert_eq!(c, w_in_c, "conv input channels disagree");
    assert_eq!(
        grad_out.shape(),
        &[n, out_c, h, w],
        "gradient shape mismatch"
    );
    let hw = h * w;
    let kdim = c * k * k;
    assert_eq!(gw.len(), out_c * kdim, "weight gradient length");
    assert_eq!(gb.len(), out_c, "bias gradient length");
    let mut gx = Tensor::zeros(&[n, c, h, w]);
    let xd = x.as_slice();
    let wd = weight.as_slice();
    let god = grad_out.as_slice();
    let gxd = gx.as_mut_slice();
    let mut col = vec![0.0f32; kdim * hw];
    let mut gcol = vec![0.0f32; kdim * hw];
    let mut gw_batch = vec![0.0f32; out_c * kdim];
    for b in 0..n {
        let go_b = &god[b * out_c * hw..][..out_c * hw];
        for oc in 0..out_c {
            gb[oc] += go_b[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
        }
        // gW += grad_out[b] × col[b]ᵀ (gemm overwrites, so go through a
        // scratch buffer; parameter gradients accumulate across calls).
        kernels::im2col(&xd[b * c * hw..][..c * hw], c, h, w, k, &mut col);
        kernels::gemm(false, true, out_c, hw, kdim, go_b, &col, &mut gw_batch);
        for (dst, &v) in gw.iter_mut().zip(gw_batch.iter()) {
            *dst += v;
        }
        // gx[b] = col2im(Wᵀ × grad_out[b])
        kernels::gemm(true, false, kdim, out_c, hw, wd, go_b, &mut gcol);
        col2im(&gcol, c, h, w, k, &mut gxd[b * c * hw..][..c * hw]);
    }
    gx
}

/// Inverse of im2col for gradients: scatter-adds the column-matrix
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

fn shape4(t: &Tensor) -> [usize; 4] {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected a 4-D tensor, got {s:?}");
    [s[0], s[1], s[2], s[3]]
}

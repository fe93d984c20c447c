//! Bit-identity of `Conv2d` against the im2col oracle, and of `ConvHeads`
//! against separate `Conv2d`s.
//!
//! `Conv2d` runs direct same-padding kernels for the forward, the weight
//! gradient and the input gradient, with batch items split across the
//! matmul thread budget. `rlnoc_nn::reference::conv2d_im2col{,_backward}`
//! keep the im2col-plus-GEMM passes they replaced. Outputs, input
//! gradients and the accumulated weight and bias gradients must equal
//! theirs bit for bit, for every shape and thread count, including
//! non-finite values. `ConvHeads` stacks several convolutions of one input
//! into one pass and must equal running them one by one.

use rand::prelude::*;
use rlnoc_nn::layers::{Conv2d, ConvHeads, Layer};
use rlnoc_nn::{kernels, reference, Tensor};
use std::sync::Mutex;

/// Held by every test that pins the global matmul thread setting, so no
/// two of them race it.
static THREADS: Mutex<()> = Mutex::new(());

fn random(rng: &mut StdRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec(
        (0..len).map(|_| rng.gen_range(-1.0..1.0f32)).collect(),
        shape,
    )
    .unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// What one forward+backward produced: output, input gradient, and the
/// weight and bias gradients after accumulation.
struct Pass {
    y: Tensor,
    gx: Tensor,
    gw: Tensor,
    gb: Tensor,
}

/// Runs `conv` forward on `x` and backward on `go`, next to the im2col
/// oracle on the same parameters and pre-existing gradients.
fn both_passes(conv: &mut Conv2d, x: &Tensor, go: &Tensor) -> (Pass, Pass) {
    let (w, b, gw0, gb0) = {
        let params = conv.params_mut();
        let (w, b) = (&params[0], &params[1]);
        (
            w.value.clone(),
            b.value.clone(),
            w.grad.clone(),
            b.grad.clone(),
        )
    };
    let y = conv.forward(x, true);
    let gx = conv.backward(go);
    let got = {
        let params = conv.params_mut();
        Pass {
            y,
            gx,
            gw: params[0].grad.clone(),
            gb: params[1].grad.clone(),
        }
    };
    let (mut gw, mut gb) = (gw0, gb0);
    let want = Pass {
        y: reference::conv2d_im2col(x, &w, &b),
        gx: reference::conv2d_im2col_backward(x, &w, go, gw.as_mut_slice(), gb.as_mut_slice()),
        gw,
        gb,
    };
    (got, want)
}

fn assert_same_bits(got: &Pass, want: &Pass, what: &str) {
    assert_eq!(got.y.shape(), want.y.shape(), "{what}: output shape");
    assert!(bits(&got.y) == bits(&want.y), "{what}: output differs");
    assert!(
        bits(&got.gx) == bits(&want.gx),
        "{what}: input gradient differs"
    );
    assert!(
        bits(&got.gw) == bits(&want.gw),
        "{what}: weight gradient differs"
    );
    assert!(
        bits(&got.gb) == bits(&want.gb),
        "{what}: bias gradient differs"
    );
}

/// `(batch, in_c, out_c, k, h, w)`. Together they cover batch 1/2/7/45,
/// `in_c` 1/2/8/32 (32 at `k = 3` makes `kdim = 288 > KC`), `out_c`
/// 1/2/6/8 (and 260, a reduction deeper than `KC` in the input gradient),
/// `k` 1/3/5, spatial 4×4, 6×7, 10×10 and 64×64 (plus the 4x4 learner's
/// 16×16 and images smaller than the kernel), ragged `w % 8 ≠ 0` tiles,
/// and shapes big enough to split the batch at 2 and 3 threads.
///
/// The last rows cover the edges of the widest tiles: a partial 8-row
/// output-channel tile (`out_c` 5, 7, 9, 11, 13, 15), a ragged or
/// overlapping last 16-lane chunk (`w` 17, 19, 24, 31, 33, 40, 63, 70)
/// and the remainder of the input gradient's 2-, 4- and 8-row blocks
/// (`h` 2, 3, 5, 6, 7, 9, 13), or an image shorter than one block.
const CASES: &[(usize, usize, usize, usize, usize, usize)] = &[
    (1, 1, 1, 1, 4, 4),
    (2, 2, 2, 3, 6, 7),
    (7, 8, 6, 5, 10, 10),
    (45, 32, 8, 3, 10, 10),
    (45, 8, 8, 3, 16, 16),
    (7, 2, 1, 5, 6, 7),
    (1, 32, 2, 1, 4, 4),
    (2, 8, 8, 3, 64, 64),
    (45, 1, 2, 3, 64, 64),
    (1, 8, 2, 3, 64, 64),
    (2, 1, 260, 3, 4, 4),
    (2, 3, 4, 5, 2, 1),
    (2, 3, 5, 3, 3, 19),
    (1, 1, 7, 3, 5, 17),
    (2, 8, 13, 3, 7, 40),
    (3, 2, 11, 5, 13, 24),
    (1, 4, 9, 3, 2, 63),
    (2, 8, 15, 3, 6, 31),
    (1, 2, 3, 1, 9, 33),
    (2, 3, 9, 3, 5, 70),
];

#[test]
fn conv_matches_im2col_oracle_bit_for_bit() {
    let _pin = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let previous = kernels::matmul_threads();
    let mut rng = StdRng::seed_from_u64(2020);
    for threads in [1, 2, 3] {
        kernels::set_matmul_threads(threads);
        for (i, &(n, in_c, out_c, k, h, w)) in CASES.iter().enumerate() {
            let mut conv = Conv2d::new(in_c, out_c, k, i as u64);
            {
                // Random bias and pre-existing gradients, so accumulation
                // order is checked too.
                let mut params = conv.params_mut();
                params[1].value = random(&mut rng, &[out_c]);
                params[0].grad = random(&mut rng, &[out_c, in_c, k, k]);
                params[1].grad = random(&mut rng, &[out_c]);
            }
            let x = random(&mut rng, &[n, in_c, h, w]);
            let go = random(&mut rng, &[n, out_c, h, w]);
            // Twice on one layer: the second pass runs on warm scratch
            // (and accumulates onto the first pass's gradients).
            for round in 0..2 {
                let (got, want) = both_passes(&mut conv, &x, &go);
                let what = format!(
                    "batch {n}, {in_c}->{out_c}, k{k}, {h}x{w}, {threads} threads, round {round}"
                );
                assert_same_bits(&got, &want, &what);
            }
        }
    }
    kernels::set_matmul_threads(previous);
}

/// `(batch, in_c, k, h, w)` of three `in_c → 2` heads: the 4x4 and 8x8
/// learners' heads (at batch 45 and, to keep unoptimised test builds
/// quick, 5), a ragged `w`, a reduction deeper than `KC` in the weight
/// gradient's `kdim`, and an image narrower than the kernel. The first
/// four split the batch at 2 and 3 threads. The last three put the NaN
/// head weight in a ragged 16-lane chunk and a partial row block.
const HEAD_CASES: &[(usize, usize, usize, usize, usize)] = &[
    (45, 8, 3, 16, 16),
    (5, 8, 3, 64, 64),
    (3, 4, 5, 7, 9),
    (2, 32, 3, 10, 10),
    (2, 3, 5, 2, 1),
    (2, 8, 3, 6, 24),
    (1, 4, 3, 3, 40),
    (2, 2, 5, 5, 19),
];

/// `ConvHeads` against three separate `Conv2d`s with the same parameters:
/// every head's output and parameter gradients, and the input gradient
/// against `(g₀ + g₁) + g₂` of the separate input gradients. One head
/// weight is NaN, so the order of that sum shows in the NaN lanes too.
#[test]
fn heads_match_separate_convs_bit_for_bit() {
    let _pin = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let previous = kernels::matmul_threads();
    let mut rng = StdRng::seed_from_u64(2021);
    for threads in [1, 2, 3] {
        kernels::set_matmul_threads(threads);
        for &(n, in_c, k, h, w) in HEAD_CASES {
            let mut separate: Vec<Conv2d> = (0..3)
                .map(|g| {
                    let mut conv = Conv2d::new(in_c, 2, k, 40 + g);
                    let mut params = conv.params_mut();
                    params[1].value = random(&mut rng, &[2]);
                    params[0].grad = random(&mut rng, &[2, in_c, k, k]);
                    params[1].grad = random(&mut rng, &[2]);
                    conv
                })
                .collect();
            separate[1].params_mut()[0].value.as_mut_slice()[k * k / 2] = f32::NAN;
            let mut heads = ConvHeads::new(separate.clone());
            let x = random(&mut rng, &[n, in_c, h, w]);
            let grads: Vec<Tensor> = (0..3).map(|_| random(&mut rng, &[n, 2, h, w])).collect();
            let what = format!("batch {n}, {in_c}->3x2, k{k}, {h}x{w}, {threads} threads");
            for round in 0..2 {
                let ys = heads.forward(&x);
                let gx = heads.backward(&grads);
                let mut want_gx: Option<Tensor> = None;
                for (g, conv) in separate.iter_mut().enumerate() {
                    let y = conv.forward(&x, true);
                    assert!(
                        bits(&ys[g]) == bits(&y),
                        "{what}, round {round}: head {g} output"
                    );
                    let gx_g = conv.backward(&grads[g]);
                    want_gx = Some(match want_gx {
                        None => gx_g,
                        Some(sum) => sum.add(&gx_g),
                    });
                }
                let want_gx = want_gx.expect("three heads");
                assert!(
                    bits(&gx) == bits(&want_gx),
                    "{what}, round {round}: input gradient"
                );
                assert!(
                    gx.as_slice().iter().any(|v| v.is_nan()),
                    "{what}: NaN reaches gx"
                );
                for (g, conv) in separate.iter_mut().enumerate() {
                    let fused = heads.heads_mut()[g].params_mut();
                    for (p, (a, b)) in fused.iter().zip(conv.params_mut()).enumerate() {
                        assert!(
                            bits(&a.grad) == bits(&b.grad),
                            "{what}, round {round}: head {g} param {p} gradient"
                        );
                    }
                }
            }
        }
    }
    kernels::set_matmul_threads(previous);
}

/// A 1→1 conv with `value` at the top-left tap and ones elsewhere.
fn corner_tap_conv(value: f32) -> Conv2d {
    let mut conv = Conv2d::new(1, 1, 3, 0);
    let mut weight = vec![1.0f32; 9];
    weight[0] = value;
    conv.params_mut()[0].value = Tensor::from_vec(weight, &[1, 1, 3, 3]).unwrap();
    conv
}

#[test]
fn non_finite_weight_times_padding_is_nan_forward() {
    for value in [f32::INFINITY, f32::NAN] {
        let mut conv = corner_tap_conv(value);
        let x = Tensor::from_vec(vec![1.0; 25], &[1, 1, 5, 5]).unwrap();
        let go = Tensor::zeros(&[1, 1, 5, 5]);
        let (got, want) = both_passes(&mut conv, &x, &go);
        assert_same_bits(&got, &want, &format!("corner tap {value}"));
        // The top-left tap reads zero padding along the top row and left
        // column: value × 0 = NaN there, whatever the other taps add.
        for oy in 0..5 {
            for ox in 0..5 {
                let y = got.y.as_slice()[oy * 5 + ox];
                if oy == 0 || ox == 0 || value.is_nan() {
                    assert!(y.is_nan(), "({oy}, {ox}) should be NaN, got {y}");
                } else {
                    assert_eq!(y, f32::INFINITY, "({oy}, {ox})");
                }
            }
        }
    }
}

#[test]
fn non_finite_values_times_zero_are_nan_backward() {
    // A zero upstream gradient times a non-finite weight is NaN in the
    // input gradient, at every pixel the non-finite tap reaches.
    for value in [f32::INFINITY, f32::NAN] {
        let mut conv = corner_tap_conv(value);
        let x = Tensor::from_vec(vec![1.0; 25], &[1, 1, 5, 5]).unwrap();
        let go = Tensor::zeros(&[1, 1, 5, 5]);
        let (got, want) = both_passes(&mut conv, &x, &go);
        assert_same_bits(&got, &want, &format!("corner tap {value}, zero grad"));
        // The top-left tap sends output (oy, ox) to input (oy-1, ox-1), so
        // every input pixel but the last row and column is reached.
        for iy in 0..5 {
            for ix in 0..5 {
                let g = got.gx.as_slice()[iy * 5 + ix];
                assert_eq!(g.is_nan(), iy < 4 && ix < 4, "gx ({iy}, {ix}) = {g}");
            }
        }
    }
    // An image narrower than the kernel: every tap but the centre column
    // reads only padding, and its NaN weight must be skipped there, not
    // multiplied by a padded zero.
    let mut conv = Conv2d::new(1, 1, 5, 0);
    let weight = (0..25)
        .map(|tap| if tap % 5 == 2 { 1.0 } else { f32::NAN })
        .collect();
    conv.params_mut()[0].value = Tensor::from_vec(weight, &[1, 1, 5, 5]).unwrap();
    let x = Tensor::from_vec(vec![1.0; 3], &[1, 1, 3, 1]).unwrap();
    let go = Tensor::from_vec(vec![1.0; 3], &[1, 1, 3, 1]).unwrap();
    let (got, want) = both_passes(&mut conv, &x, &go);
    assert_same_bits(&got, &want, "image narrower than the kernel");
    assert!(
        got.gx.as_slice().iter().all(|g| g.is_finite()),
        "gx {:?}",
        got.gx
    );
    // An infinite upstream gradient times zero padding is NaN in the
    // weight gradient: every tap but the centre reads padding somewhere.
    let mut conv = Conv2d::new(1, 1, 3, 0);
    let x = Tensor::from_vec(vec![1.0; 25], &[1, 1, 5, 5]).unwrap();
    let go = Tensor::from_vec(vec![f32::INFINITY; 25], &[1, 1, 5, 5]).unwrap();
    let (got, want) = both_passes(&mut conv, &x, &go);
    assert_same_bits(&got, &want, "infinite grad");
    for (tap, g) in got.gw.as_slice().iter().enumerate() {
        if tap == 4 {
            assert_eq!(*g, f32::INFINITY, "centre tap");
        } else {
            assert!(g.is_nan(), "tap {tap} should be NaN, got {g}");
        }
    }
}

/// Non-finite weights on edge taps of an image whose input gradient runs
/// in row blocks with a remainder and a ragged last 16-lane chunk, in a
/// partial 8-row output-channel tile. Bit-identical to the oracle, and
/// the padding a skipped tap would read never turns into `NaN`.
#[test]
fn non_finite_edge_taps_inside_row_blocks() {
    let (in_c, out_c, h, w) = (2, 5, 11, 19);
    let mut rng = StdRng::seed_from_u64(2022);
    for value in [f32::INFINITY, f32::NAN] {
        let mut conv = Conv2d::new(in_c, out_c, 3, 7);
        {
            let mut params = conv.params_mut();
            let weight = params[0].value.as_mut_slice();
            // Output channel 3: the top-right tap of input channel 0 and
            // the bottom-left tap of input channel 1.
            weight[3 * in_c * 9 + 2] = value;
            weight[(3 * in_c + 1) * 9 + 6] = value;
        }
        let x = random(&mut rng, &[2, in_c, h, w]);
        for go in [
            Tensor::zeros(&[2, out_c, h, w]),
            random(&mut rng, &[2, out_c, h, w]),
        ] {
            let (got, want) = both_passes(&mut conv, &x, &go);
            assert_same_bits(&got, &want, &format!("edge taps {value}"));
            // Tap (0, 2) reaches input (iy, ix) from output (iy + 1, ix - 1);
            // tap (2, 0) from output (iy - 1, ix + 1). Elsewhere it reads
            // padding and must be skipped.
            let gx = &got.gx.as_slice()[..in_c * h * w];
            for iy in 0..h {
                for ix in 0..w {
                    let top_right = iy + 1 < h && ix >= 1;
                    let bottom_left = iy >= 1 && ix + 1 < w;
                    for (ic, reached) in [(0, top_right), (1, bottom_left)] {
                        let g = gx[(ic * h + iy) * w + ix];
                        assert_eq!(
                            !g.is_finite(),
                            reached,
                            "{value}: gx[{ic}, {iy}, {ix}] = {g}"
                        );
                    }
                }
            }
        }
    }
}

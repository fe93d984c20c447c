//! Bit-identity of `Conv2d` against the im2col oracle.
//!
//! `Conv2d` runs a direct same-padding forward kernel and an im2col-free
//! input gradient, with batch items split across the matmul thread budget.
//! `rlnoc_nn::reference::conv2d_im2col{,_backward}` keep the im2col-plus-GEMM
//! passes it replaced. Outputs, input gradients and the accumulated weight
//! and bias gradients must equal theirs bit for bit, for every shape and
//! thread count, including non-finite values.

use rand::prelude::*;
use rlnoc_nn::layers::{Conv2d, Layer};
use rlnoc_nn::{kernels, reference, Tensor};

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
];

/// One test function on purpose: it pins the global matmul thread
/// setting, so no sibling test in this binary may race it.
#[test]
fn conv_matches_im2col_oracle_bit_for_bit() {
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

//! Counting-allocator audit of the GEMM and convolution kernels.
//!
//! Once a thread has run a call of a given shape, repeating it on that
//! thread performs **zero** heap allocations inside the kernels: the GEMM's
//! packed panels and the convolutions' padded-input, padded and transposed
//! gradient, and gradient-partial buffers live in reusable per-thread
//! scratch (see `rlnoc_nn::kernels`), so a warm call only reads and writes
//! memory it already owns. A warm `Conv2d` or `ConvHeads` pass allocates
//! exactly its returned tensors and, in the forward, the cached copy of
//! its input; a warm parameters-only backward allocates nothing. The
//! shapes are the ones the learner's small network issues on every
//! forward/backward pass.
//!
//! The counter is thread-local, so the harness and any sibling threads
//! cannot pollute the measurement. Every test here pins the matmul to one
//! thread (the serial path); none sets anything else.

use rlnoc_nn::layers::{Conv2d, ConvHeads, Layer, Param};
use rlnoc_nn::{kernels, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// System allocator wrapper counting allocations made by *this* thread.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by the current thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_COUNT.with(|c| c.get());
    f();
    ALLOC_COUNT.with(|c| c.get()) - before
}

/// `(m, k, n)` of the learner's GEMMs at 4x4 with the small network: the
/// stem conv (`8×9×256`), the residual convs (`8×72×256`), the head convs
/// (`2×72×256`) and the policy head's `Linear` on a 45-state batch
/// (`45×512×16`).
const LEARNER_SHAPES: &[(usize, usize, usize)] =
    &[(8, 9, 256), (8, 72, 256), (2, 72, 256), (45, 512, 16)];

#[test]
fn warm_serial_gemm_allocates_nothing() {
    // Force thread-local slot initialisation outside the counted windows.
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    for &(m, k, n) in LEARNER_SHAPES {
        let a: Vec<f32> = (0..m * k).map(|v| (v as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|v| (v as f32 * 0.23).cos()).collect();
        let mut c = vec![0.0f32; m * n];
        for (trans_a, trans_b) in [(false, false), (true, false), (false, true), (true, true)] {
            kernels::gemm(trans_a, trans_b, m, k, n, &a, &b, &mut c);
            let allocs = allocations_during(|| {
                kernels::gemm(trans_a, trans_b, m, k, n, &a, &b, &mut c);
            });
            assert_eq!(
                allocs, 0,
                "warm gemm {m}x{k}x{n} (trans_a={trans_a}, trans_b={trans_b}) allocated"
            );
        }
    }
}

/// `(in_c, out_c, k)` of the small network's convolutions: the stem, the
/// residual pair and one head.
const LEARNER_CONVS: &[(usize, usize, usize)] = &[(1, 8, 3), (8, 8, 3), (8, 2, 3)];

/// The batches the conv audits run: `(side, batch)`. The learner trains on
/// an episode's states, up to 45 of them. At 8x8 a smaller batch keeps
/// unoptimised test builds quick; the scratch a pass needs grows with the
/// batch, so the warm-up call still has to size it.
const LEARNER_BATCHES: &[(usize, usize)] = &[(16, 45), (64, 4)];

fn wave(shape: &[usize], step: f32) -> Tensor {
    let len = shape.iter().product();
    Tensor::from_vec((0..len).map(|v| (v as f32 * step).sin()).collect(), shape).unwrap()
}

#[test]
fn warm_serial_conv_allocates_only_its_tensors() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    for &(side, batch) in LEARNER_BATCHES {
        for &(in_c, out_c, k) in LEARNER_CONVS {
            let x = wave(&[batch, in_c, side, side], 0.19);
            let grad = wave(&[batch, out_c, side, side], 0.07);
            let out_shape = [batch, out_c, side, side];
            // What the pass must allocate: its output tensor and, in the
            // forward, the cached input. Nothing else.
            let output = allocations_during(|| drop(Tensor::zeros(&out_shape)));
            let input_grad = allocations_during(|| drop(Tensor::zeros(x.shape())));
            let cache = allocations_during(|| drop(x.clone()));

            let mut conv = Conv2d::new(in_c, out_c, k, 3);
            conv.forward(&x, true);
            conv.backward(&grad);
            let forward = allocations_during(|| drop(conv.forward(&x, true)));
            let backward = allocations_during(|| drop(conv.backward(&grad)));
            let params_only = allocations_during(|| conv.backward_params(&grad));
            let what = format!("{in_c}->{out_c} k{k} at {side}x{side}, batch {batch}");
            assert_eq!(forward, output + cache, "warm forward {what}");
            assert_eq!(backward, input_grad, "warm backward {what}");
            assert_eq!(params_only, 0, "warm parameters-only backward {what}");
        }
    }
}

#[test]
fn warm_serial_head_pass_allocates_only_its_tensors() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    for &(side, batch) in LEARNER_BATCHES {
        let x = wave(&[batch, 8, side, side], 0.19);
        let head_shape = [batch, 2, side, side];
        let grads: Vec<Tensor> = (0..3).map(|g| wave(&head_shape, 0.07 + g as f32)).collect();
        // What the pass must allocate: the three head outputs and the
        // `Vec` holding them, the cached input, and the input gradient.
        let outputs = allocations_during(|| {
            drop(
                (0..3)
                    .map(|_| Tensor::zeros(&head_shape))
                    .collect::<Vec<_>>(),
            )
        });
        let cache = allocations_during(|| drop(x.clone()));
        let input_grad = allocations_during(|| drop(Tensor::zeros(x.shape())));

        let mut heads = ConvHeads::new((0..3).map(|g| Conv2d::new(8, 2, 3, g)).collect());
        heads.forward(&x);
        heads.backward(&grads);
        let forward = allocations_during(|| drop(heads.forward(&x)));
        let backward = allocations_during(|| drop(heads.backward(&grads)));
        let what = format!("8->3x2 k3 at {side}x{side}, batch {batch}");
        assert_eq!(forward, outputs + cache, "warm forward {what}");
        assert_eq!(backward, input_grad, "warm backward {what}");
    }
}

#[test]
fn zero_grad_refills_in_place() {
    ALLOC_COUNT.with(|c| c.get());
    let mut param = Param::new(wave(&[8, 8, 3, 3], 0.5));
    param.grad = wave(&[8, 8, 3, 3], 0.3);
    let allocs = allocations_during(|| param.zero_grad());
    assert_eq!(allocs, 0, "zero_grad allocated");
    assert!(param.grad.as_slice().iter().all(|&g| g == 0.0));
}

//! Counting-allocator audit of the kernels, the layers, the network's
//! passes and the optimizer step.
//!
//! Once a thread has run a call of a given shape, repeating it on that
//! thread performs **zero** heap allocations inside the kernels: the GEMM's
//! packed panels and the convolutions' padded-input, padded and transposed
//! gradient, and gradient-partial buffers live in reusable per-thread
//! scratch (see `rlnoc_nn::kernels`), and every activation and gradient of
//! a pass lives in a grow-only `Workspace`, so a warm call only reads and
//! writes memory it already owns. A warm `Conv2d` or `ConvHeads` pass
//! allocates only the copy of its output (or input gradient) the test
//! takes out of the workspace; a warm parameters-only backward allocates
//! nothing. A warm `PolicyValueNet` training pass or inference forward
//! allocates only its returned outputs, the same count at every batch
//! size, and a warm clipped optimizer step allocates nothing. The shapes
//! are the ones the learner's small network issues on every pass.
//!
//! The counter is thread-local, so the harness and any sibling threads
//! cannot pollute the measurement. Every test here pins the matmul to one
//! thread (the serial path); none sets anything else.

use rlnoc_nn::layers::{Conv2d, ConvHeads, Layer, Param, Workspace};
use rlnoc_nn::net::PolicyValueOutput;
use rlnoc_nn::optim::{clip_global_norm, Adam};
use rlnoc_nn::{kernels, PolicyValueConfig, PolicyValueNet, Tensor};
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
/// (`45×512×16`); and the shapes `gemm` serves without packing: the policy
/// head on one state (`1×512×16`), the direction head's `Linear(512, 1)`
/// on a batch and on one state (`45×512×1`, `1×512×1`), and an outer
/// product (`9×1×512`).
const LEARNER_SHAPES: &[(usize, usize, usize)] = &[
    (8, 9, 256),
    (8, 72, 256),
    (2, 72, 256),
    (45, 512, 16),
    (1, 512, 16),
    (45, 512, 1),
    (1, 512, 1),
    (9, 1, 512),
];

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

/// Allocations of a warm training forward of `layer` on `x` that takes a
/// copy of the output, of a warm backward of `grad` that takes a copy of
/// the input gradient, and of a warm parameters-only backward.
fn warm_pass_allocations(layer: &mut impl Layer, x: &Tensor, grad: &Tensor) -> (u64, u64, u64) {
    let mut ws = Workspace::default();
    let forward = |layer: &mut _, ws: &mut Workspace| {
        ws.start(x);
        Layer::forward(layer, ws, true);
        drop(ws.output().to_vec());
        ws.push_grad(grad.as_slice());
    };
    forward(layer, &mut ws);
    layer.backward(&mut ws, true);
    let forward = allocations_during(|| forward(layer, &mut ws));
    let backward = allocations_during(|| {
        layer.backward(&mut ws, true);
        drop(ws.grad().to_vec());
    });
    ws.start(x);
    layer.forward(&mut ws, true);
    ws.push_grad(grad.as_slice());
    let params_only = allocations_during(|| layer.backward(&mut ws, false));
    (forward, backward, params_only)
}

#[test]
fn warm_serial_conv_allocates_only_its_output() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    for &(side, batch) in LEARNER_BATCHES {
        for &(in_c, out_c, k) in LEARNER_CONVS {
            let x = wave(&[batch, in_c, side, side], 0.19);
            let grad = wave(&[batch, out_c, side, side], 0.07);
            // What the pass must allocate: the copy of its output or
            // input gradient taken out of the workspace. Nothing else.
            let output = allocations_during(|| drop(grad.as_slice().to_vec()));
            let input_grad = allocations_during(|| drop(x.as_slice().to_vec()));

            let mut conv = Conv2d::new(in_c, out_c, k, 3);
            let (forward, backward, params_only) = warm_pass_allocations(&mut conv, &x, &grad);
            let what = format!("{in_c}->{out_c} k{k} at {side}x{side}, batch {batch}");
            assert_eq!(forward, output, "warm forward {what}");
            assert_eq!(backward, input_grad, "warm backward {what}");
            assert_eq!(params_only, 0, "warm parameters-only backward {what}");
        }
    }
}

#[test]
fn warm_serial_head_pass_allocates_only_its_output() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    for &(side, batch) in LEARNER_BATCHES {
        let x = wave(&[batch, 8, side, side], 0.19);
        // The three heads' output gradients, stacked along channels.
        let grad = wave(&[batch, 6, side, side], 0.07);
        let output = allocations_during(|| drop(grad.as_slice().to_vec()));
        let input_grad = allocations_during(|| drop(x.as_slice().to_vec()));

        let mut heads = ConvHeads::new((0..3).map(|g| Conv2d::new(8, 2, 3, g)).collect());
        let (forward, backward, params_only) = warm_pass_allocations(&mut heads, &x, &grad);
        let what = format!("8->3x2 k3 at {side}x{side}, batch {batch}");
        assert_eq!(forward, output, "warm forward {what}");
        assert_eq!(backward, input_grad, "warm backward {what}");
        assert_eq!(params_only, 0, "warm parameters-only backward {what}");
    }
}

/// A loss that backpropagates the outputs themselves, allocating nothing.
fn echo_loss(out: &PolicyValueOutput, grad: rlnoc_nn::net::PolicyValueGrad<'_>) {
    grad.coord_logits
        .copy_from_slice(out.coord_logits.as_slice());
    grad.dir.copy_from_slice(out.dir.as_slice());
    grad.value.copy_from_slice(out.value.as_slice());
}

/// `(n, batch)` of the network audits: the 4x4 learner's longest episode,
/// and the 8x8 learner at a batch small enough for unoptimised builds.
/// The workspace is sized by the first pass at each shape.
const NET_BATCHES: &[(usize, usize)] = &[(4, 45), (8, 4)];

#[test]
fn warm_network_passes_allocate_only_their_outputs() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    let mut counts = Vec::new();
    for &(n, batch) in NET_BATCHES {
        let config = PolicyValueConfig::small(n);
        let side = config.input_side;
        let x = wave(&[batch, 1, side, side], 0.13);
        let output = allocations_during(|| {
            drop(PolicyValueOutput {
                coord_logits: Tensor::zeros(&[batch, 4, n]),
                dir: Tensor::zeros(&[batch, 1]),
                value: Tensor::zeros(&[batch, 1]),
            })
        });
        let mut net = PolicyValueNet::new(config, 5);
        net.train_pass(&x, echo_loss);
        net.forward(&x);
        let train = allocations_during(|| drop(net.train_pass(&x, echo_loss)));
        let forward = allocations_during(|| drop(net.forward(&x)));
        let what = format!("small({n}) at batch {batch}");
        assert_eq!(train, output, "warm train_pass {what}");
        assert_eq!(forward, output, "warm forward {what}");
        counts.push((train, forward));
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocation counts depend on the batch: {counts:?}"
    );
}

#[test]
fn warm_clipped_optimizer_step_allocates_nothing() {
    ALLOC_COUNT.with(|c| c.get());
    kernels::set_matmul_threads(1);

    let config = PolicyValueConfig::small(4);
    let x = wave(&[3, 1, config.input_side, config.input_side], 0.13);
    let mut net = PolicyValueNet::new(config, 6);
    let mut opt = Adam::new(1e-3);
    let max_norm = 1e-3;
    for round in 0..2 {
        net.train_pass(&x, echo_loss);
        let mut params = net.params_mut();
        let mut norm = 0.0;
        let allocs = allocations_during(|| {
            norm = clip_global_norm(&mut params, max_norm);
            opt.step(&mut params);
        });
        assert!(norm > max_norm, "clipping is active (norm {norm})");
        if round > 0 {
            assert_eq!(allocs, 0, "warm clip and Adam step allocated");
        }
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

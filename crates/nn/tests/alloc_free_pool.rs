//! Counting-allocator audit of the threaded network passes.
//!
//! `alloc_free.rs` counts one thread's allocations with the matmul pinned
//! to one thread. This binary counts every thread's, the kernel pool's
//! helpers included, with the matmul at the two threads the 8x8 learner
//! runs on: once the helpers have started and every thread's scratch has
//! been sized, a warm small(8) batch-45 training pass or inference forward
//! allocates only its returned outputs. So the pool hands out work, wakes
//! and joins its helpers without allocating, and no helper re-sizes its
//! packing or convolution scratch from one pass to the next.
//!
//! The only test in its binary, so no sibling test allocates while it
//! counts.

use rlnoc_nn::net::{PolicyValueGrad, PolicyValueOutput};
use rlnoc_nn::{kernels, PolicyValueConfig, PolicyValueNet, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made by any thread of the process.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting every thread's allocations.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by the whole process while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOC_COUNT.load(Ordering::SeqCst);
    f();
    ALLOC_COUNT.load(Ordering::SeqCst) - before
}

/// A loss that backpropagates the outputs themselves, allocating nothing.
fn echo_loss(out: &PolicyValueOutput, grad: PolicyValueGrad<'_>) {
    grad.coord_logits
        .copy_from_slice(out.coord_logits.as_slice());
    grad.dir.copy_from_slice(out.dir.as_slice());
    grad.value.copy_from_slice(out.value.as_slice());
}

#[test]
fn warm_threaded_network_passes_allocate_only_their_outputs() {
    kernels::set_matmul_threads(2);
    let (n, batch) = (8, 45);
    let config = PolicyValueConfig::small(n);
    let side = config.input_side;
    let len = batch * side * side;
    let x = Tensor::from_vec(
        (0..len).map(|v| (v as f32 * 0.13).sin()).collect(),
        &[batch, 1, side, side],
    )
    .unwrap();
    let output = allocations_during(|| {
        drop(PolicyValueOutput {
            coord_logits: Tensor::zeros(&[batch, 4, n]),
            dir: Tensor::zeros(&[batch, 1]),
            value: Tensor::zeros(&[batch, 1]),
        })
    });
    let mut net = PolicyValueNet::new(config, 5);
    // Which thread runs a share varies from pass to pass, so a few passes
    // give every thread a share of every size before anything is counted.
    for _ in 0..4 {
        net.train_pass(&x, echo_loss);
        net.forward(&x);
    }
    let train = allocations_during(|| drop(net.train_pass(&x, echo_loss)));
    let forward = allocations_during(|| drop(net.forward(&x)));
    assert_eq!(train, output, "warm train_pass at matmul 2");
    assert_eq!(forward, output, "warm inference forward at matmul 2");
}

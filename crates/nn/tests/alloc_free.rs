//! Counting-allocator audit of the GEMM kernel: once a thread has run a
//! call of a given shape, repeating it on that thread performs **zero**
//! heap allocations. The packed panels live in reusable per-thread scratch
//! (see `rlnoc_nn::kernels`), so a warm call only reads and writes memory
//! it already owns. The shapes are the ones the learner's small 4x4 network
//! issues on every forward/backward pass.
//!
//! The counter is thread-local, so the harness and any sibling threads
//! cannot pollute the measurement.

use rlnoc_nn::kernels;
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

/// One test function on purpose: it is the only test in this binary, so
/// no sibling test changes the global matmul thread setting under it.
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

//! Counting-allocator audit of the disabled-mode contract: every
//! instrumentation call on a disabled sink/recorder must perform **zero**
//! heap allocations (and never read the clock — inert timers are how we
//! observe that here: a disabled recorder's timer is not started).
//!
//! One test function on purpose (mirroring `rlnoc-sim`'s audit): it is the
//! only test in this binary, so no sibling test thread pollutes the
//! thread-local counter.

use rlnoc_telemetry::{Recorder, TelemetrySink};
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
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOC_COUNT.with(|c| c.get());
    let result = f();
    let after = ALLOC_COUNT.with(|c| c.get());
    (after - before, result)
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    // Force thread-local slot initialisation outside the counted windows.
    ALLOC_COUNT.with(|c| c.get());

    let (allocs, sink) = allocations_during(TelemetrySink::disabled);
    assert_eq!(allocs, 0, "building a disabled sink must not allocate");
    assert!(!sink.is_enabled());

    let (allocs, mut rec) = allocations_during(|| sink.recorder("hot-path-source"));
    assert_eq!(allocs, 0, "drawing a disabled recorder must not allocate");
    assert!(!rec.is_enabled());

    let (allocs, ()) = allocations_during(|| {
        for i in 0..10_000u64 {
            rec.incr("sim.packets_injected", 1);
            rec.gauge("sim.calendar_occupancy", i as f64);
            rec.record("sim.packet_latency", i);
            rec.record_n("sim.flits", i, 3);
            let t = rec.timer();
            assert!(!t.is_started(), "disabled timer must never read the clock");
            rec.observe_timer("sim.cycle_us", t);
            {
                let _span = rec.span("sim.tick_us");
            }
            rec.set_phase("drain");
            rec.flush();
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled instrumentation calls must be allocation-free no-ops"
    );

    let (allocs, ()) = allocations_during(|| {
        let standalone = Recorder::disabled();
        assert!(!standalone.is_enabled());
        drop(standalone);
        drop(rec);
    });
    assert_eq!(allocs, 0, "dropping disabled recorders must not allocate");
}

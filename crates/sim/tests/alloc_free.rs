//! Counting-allocator audit: once a simulation reaches steady state, the
//! per-cycle loop — packet generation, injection, fabric tick, delivery
//! drain, and metrics recording — must perform **zero** heap allocations
//! on either fabric. This pins the allocation-free kernel contract
//! (`Network::drain_deliveries` / `PacketSource::generate_into` plus the
//! persistent lane/scratch buffers) against regressions.
//!
//! The counter is thread-local, so the harness and any sibling threads
//! cannot pollute the measurement; the whole run is seeded and therefore
//! deterministic.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::traffic::{Pattern, TrafficGen};
use rlnoc_sim::{Delivery, MeshSim, Metrics, Network, Packet, RouterlessSim, SimConfig};
use rlnoc_topology::Grid;
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

/// Drives `net` exactly like `run_with_source`'s per-cycle loop. Warm-up
/// runs at `condition_rate` — *above* the measured rate — so every
/// internal buffer (node queues, the ledger's packet slab and free list,
/// delivery vectors, the driver's scratch buffers) reaches a capacity
/// high-water mark that dominates anything the measured phase can demand.
/// Then the allocations over `measured` cycles at `rate` are returned.
#[allow(clippy::too_many_arguments)]
fn steady_state_allocs<N: Network>(
    net: &mut N,
    pattern: Pattern,
    cfg: &SimConfig,
    condition_rate: f64,
    rate: f64,
    warmup: u64,
    measured: u64,
    seed: u64,
) -> u64 {
    assert!(condition_rate > rate, "warm-up must dominate measurement");
    let grid = *net.grid();
    let mut metrics = Metrics::new(grid.len(), measured);
    let mut fresh: Vec<Packet> = Vec::new();
    let mut delivered: Vec<Delivery> = Vec::new();
    let mut run = |cycles: std::ops::Range<u64>,
                   net: &mut N,
                   source: &mut TrafficGen,
                   metrics: &mut Metrics| {
        for cycle in cycles {
            fresh.clear();
            source.generate_into(cycle, cfg, true, &mut fresh);
            for &p in &fresh {
                metrics.record_offered(p.flits);
                net.offer(p);
            }
            net.tick(cycle);
            delivered.clear();
            net.drain_deliveries(&mut delivered);
            for d in &delivered {
                metrics.record_delivery(d.delivered - d.packet.created, d.hops, d.packet.flits);
            }
        }
    };
    let mut conditioner = TrafficGen::new(grid, pattern, condition_rate, seed);
    run(0..warmup, net, &mut conditioner, &mut metrics);
    // Drain the conditioning backlog so the measured phase starts from a
    // calm network: its per-cycle delivery bursts then sit far below the
    // high-water marks the saturated conditioning phase established.
    let mut cycle = warmup;
    let mut sink: Vec<Delivery> = Vec::new();
    while net.in_flight() > 0 && cycle < warmup + 50_000 {
        net.tick(cycle);
        sink.clear();
        net.drain_deliveries(&mut sink);
        cycle += 1;
    }
    assert_eq!(net.in_flight(), 0, "network failed to drain");
    let mut source = TrafficGen::new(grid, pattern, rate, seed + 1);
    let (allocs, ()) =
        allocations_during(|| run(cycle..cycle + measured, net, &mut source, &mut metrics));
    assert!(
        metrics.packets > 0,
        "audit must actually move traffic to be meaningful"
    );
    allocs
}

/// One test function on purpose: it is the only test in this binary, so
/// no sibling test thread runs concurrently and timings stay sequential.
#[test]
fn steady_state_cycles_allocate_nothing() {
    // Force thread-local slot initialisation outside the counted windows.
    ALLOC_COUNT.with(|c| c.get());

    let grid = Grid::square(8).unwrap();

    let rless_cfg = SimConfig::routerless();
    let topo = rec_topology(grid).unwrap();
    let mut rless = RouterlessSim::new(&topo);
    let allocs = steady_state_allocs(
        &mut rless,
        Pattern::UniformRandom,
        &rless_cfg,
        0.55,
        0.30,
        4_000,
        1_000,
        11,
    );
    assert_eq!(
        allocs, 0,
        "routerless steady-state cycles must not allocate"
    );

    let mesh_cfg = SimConfig::mesh();
    let mut mesh = MeshSim::mesh2(grid);
    let allocs = steady_state_allocs(
        &mut mesh,
        Pattern::UniformRandom,
        &mesh_cfg,
        0.45,
        0.20,
        4_000,
        1_000,
        13,
    );
    assert_eq!(allocs, 0, "mesh steady-state cycles must not allocate");
}

//! Golden values for the faulted mesh path, which has no reference
//! oracle: `ReferenceMeshSim` predates fault injection, and
//! `fault_parity.rs` only compares a faulted mesh with itself across
//! thread counts. The numbers below were recorded from the mesh kernel
//! that routed every candidate input per output and kept one `VecDeque`
//! per input port; any rewrite of `MeshSim::tick` must reproduce them
//! exactly.
//!
//! The plan exercises every fault hook: a link kill on a busy link that
//! severs a wormhole mid-packet, a second kill that forces Y-first
//! detours and drops unroutable heads, and an injection-stall window.

use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, FaultPlan, MeshSim, Metrics, Network, SimConfig};
use rlnoc_topology::Grid;

/// Everything a faulted run reports, with the latency histogram folded
/// into an FNV-1a digest so the golden table stays readable.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    packets: u64,
    latency_sum: u64,
    hop_sum: u64,
    flits_delivered: u64,
    flit_hop_sum: u64,
    packets_offered: u64,
    flits_offered: u64,
    max_latency: u64,
    hist_digest: u64,
    dropped_by_fault: u64,
    dropped_fault_flits: u64,
    in_flight: usize,
}

fn digest(hist: &[u64]) -> u64 {
    hist.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ c).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(delay: u64) -> Outcome {
    let g = Grid::square(6).unwrap();
    let mut plan = FaultPlan::new();
    // Centre east-bound link, busy under uniform traffic: at both router
    // delays the kill lands while packet 434, a 5-flit wormhole, holds it
    // with two or three flits still to cross.
    plan.kill_mesh_link(315, g.node_at(2, 2), g.node_at(3, 2));
    // North-bound link next to it.
    plan.kill_mesh_link(700, g.node_at(3, 3), g.node_at(3, 2));
    plan.stall_injection(g.node_at(1, 4), 500, 900);
    let mut sim = MeshSim::with_faults(g, delay, 4, plan);
    let cfg = SimConfig {
        warmup: 200,
        measure: 1_200,
        drain: 1_000,
        data_flits: 5,
        ..SimConfig::mesh()
    };
    let m: Metrics = run_synthetic(&mut sim, Pattern::UniformRandom, 0.12, &cfg, 5);
    Outcome {
        packets: m.packets,
        latency_sum: m.latency_sum,
        hop_sum: m.hop_sum,
        flits_delivered: m.flits_delivered,
        flit_hop_sum: m.flit_hop_sum,
        packets_offered: m.packets_offered,
        flits_offered: m.flits_offered,
        max_latency: m.max_latency,
        hist_digest: digest(&m.latency_hist),
        dropped_by_fault: sim.dropped_by_fault(),
        dropped_fault_flits: sim.dropped_fault_flits(),
        in_flight: sim.in_flight(),
    }
}

#[test]
fn faulted_mesh_matches_golden() {
    let golden = [
        (
            1u64,
            Outcome {
                packets: 1680,
                latency_sum: 27240,
                hop_sum: 6676,
                flits_delivered: 5168,
                flit_hop_sum: 20464,
                packets_offered: 1738,
                flits_offered: 5346,
                max_latency: 388,
                hist_digest: 14004704090601550461,
                dropped_by_fault: 58,
                dropped_fault_flits: 153,
                in_flight: 0,
            },
        ),
        (
            2,
            Outcome {
                packets: 1680,
                latency_sum: 35458,
                hop_sum: 6676,
                flits_delivered: 5168,
                flit_hop_sum: 20464,
                packets_offered: 1738,
                flits_offered: 5346,
                max_latency: 391,
                hist_digest: 6367127011372981231,
                dropped_by_fault: 58,
                dropped_fault_flits: 159,
                in_flight: 0,
            },
        ),
    ];
    for (delay, want) in golden {
        assert_eq!(run(delay), want, "faulted 6x6 mesh at router delay {delay}");
    }
}

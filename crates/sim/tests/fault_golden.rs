//! Golden values for the faulted paths of both fabrics, which have no
//! reference oracle: `ReferenceMeshSim` and `ReferenceRouterlessSim`
//! predate fault injection, and `fault_parity.rs` only compares a faulted
//! sim with itself across thread counts. Any rewrite of either tick or of
//! their shared fault bookkeeping must reproduce these numbers exactly.
//!
//! The mesh values were recorded from the mesh kernel that routed every
//! candidate input per output and kept one `VecDeque` per input port. Its
//! plan exercises every mesh fault hook: a link kill on a busy link that
//! severs a wormhole mid-packet, a second kill that forces Y-first
//! detours and drops unroutable heads, and an injection-stall window.
//!
//! The routerless values were recorded from the kernel that kept its own
//! fault state next to the mesh's copy. Its plan cuts one link of the
//! busy outer ring, kills a whole inner loop later, and stalls one
//! source; a shared ejection port per node makes flits deflect, so
//! deflected flits on the cut ring are dropped too.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, FaultPlan, MeshSim, Metrics, Network, RouterlessSim, SimConfig};
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

impl Outcome {
    fn new(m: &Metrics, dropped_by_fault: u64, dropped_fault_flits: u64, in_flight: usize) -> Self {
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
            dropped_by_fault,
            dropped_fault_flits,
            in_flight,
        }
    }
}

fn run_mesh(delay: u64) -> Outcome {
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
    let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.12, &cfg, 5);
    Outcome::new(
        &m,
        sim.dropped_by_fault(),
        sim.dropped_fault_flits(),
        sim.in_flight(),
    )
}

/// A faulted routerless run's [`Outcome`] plus the routerless-only
/// counters: packets with no surviving route, and deflected flits.
fn run_routerless(ejection_limit: usize) -> (Outcome, u64, u64) {
    let g = Grid::square(6).unwrap();
    let topo = rec_topology(g).unwrap();
    let mut plan = FaultPlan::new();
    // Loop 2 is the clockwise ring over columns 1-5 (18 nodes): cutting
    // the link that leaves (3, 0) destroys flits in flight across it and
    // aborts injections whose arc spans it.
    plan.kill_link(300, 2, g.node_at(3, 0));
    // Loop 10 is the counter-clockwise ring over rows 1-5 (18 nodes):
    // killing it drains its flits and aborts its injections.
    plan.kill_loop(600, 10);
    plan.stall_injection(g.node_at(1, 4), 500, 900);
    let mut sim = RouterlessSim::with_faults(&topo, plan);
    sim.set_ejection_limit(Some(ejection_limit));
    let cfg = SimConfig {
        warmup: 200,
        measure: 1_200,
        drain: 1_000,
        data_flits: 5,
        ..SimConfig::routerless()
    };
    let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.3, &cfg, 5);
    (
        Outcome::new(
            &m,
            sim.dropped_by_fault(),
            sim.dropped_fault_flits(),
            sim.in_flight(),
        ),
        sim.unroutable(),
        sim.deflections(),
    )
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
        assert_eq!(
            run_mesh(delay),
            want,
            "faulted 6x6 mesh at router delay {delay}"
        );
    }
}

#[test]
fn faulted_routerless_matches_golden() {
    // With one ejection port per node, flits deflected on the cut ring are
    // dropped and the surviving flits of their packets are discarded at
    // ejection; with two ports nothing deflects into the cut.
    let golden = [
        (
            1usize,
            (
                Outcome {
                    packets: 4285,
                    latency_sum: 80690,
                    hop_sum: 21307,
                    flits_delivered: 12857,
                    flit_hop_sum: 63895,
                    packets_offered: 4327,
                    flits_offered: 12987,
                    max_latency: 418,
                    hist_digest: 9142768446351388298,
                    dropped_by_fault: 19,
                    dropped_fault_flits: 43,
                    in_flight: 0,
                },
                23,
                2406,
            ),
        ),
        (
            2,
            (
                Outcome {
                    packets: 4301,
                    latency_sum: 55997,
                    hop_sum: 21388,
                    flits_delivered: 12917,
                    flit_hop_sum: 64204,
                    packets_offered: 4327,
                    flits_offered: 12987,
                    max_latency: 406,
                    hist_digest: 458671002712558622,
                    dropped_by_fault: 3,
                    dropped_fault_flits: 7,
                    in_flight: 0,
                },
                23,
                109,
            ),
        ),
    ];
    for (limit, want) in golden {
        assert_eq!(
            run_routerless(limit),
            want,
            "faulted 6x6 REC at ejection limit {limit}"
        );
    }
}

//! Golden values for the routerless fabric under loop kills, which has no
//! reference oracle: `ReferenceRouterlessSim` predates fault injection,
//! and `fault_parity.rs` only compares a faulted sim with itself across
//! thread counts. Any rewrite of the tick or of the ledger's fault
//! bookkeeping must reproduce these numbers exactly.
//!
//! The values were recorded from the kernel that also modelled link cuts,
//! injection stalls and mesh link kills. Its plan kills two rings of a 6x6
//! REC mid-run, and a shared ejection port per node makes flits deflect,
//! so the kills also catch flits circling past their destination.

use rlnoc_baselines::rec_topology;
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{run_synthetic, FaultPlan, Metrics, Network, RouterlessSim, SimConfig};
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

/// A routerless run under loop kills only, the one fault the experiments
/// inject: the [`Outcome`] plus packets with no surviving route and
/// deflected flits.
fn run_loop_kills(ejection_limit: usize) -> (Outcome, u64, u64) {
    let g = Grid::square(6).unwrap();
    let topo = rec_topology(g).unwrap();
    let mut plan = FaultPlan::new();
    // Loop 2 is the clockwise ring over columns 1-5 (18 nodes) and loop 10
    // the counter-clockwise ring over rows 1-5: each kill drains its
    // ring's flits, deflected ones included, and aborts its injections.
    plan.kill_loop(300, 2);
    plan.kill_loop(600, 10);
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
fn loop_kill_routerless_matches_golden() {
    let golden = [
        (
            1usize,
            (
                Outcome {
                    packets: 4287,
                    latency_sum: 68020,
                    hop_sum: 21589,
                    flits_delivered: 12879,
                    flit_hop_sum: 64741,
                    packets_offered: 4327,
                    flits_offered: 12987,
                    max_latency: 110,
                    hist_digest: 4255133121954842168,
                    dropped_by_fault: 6,
                    dropped_fault_flits: 10,
                    in_flight: 0,
                },
                34,
                2297,
            ),
        ),
        (
            2,
            (
                Outcome {
                    packets: 4289,
                    latency_sum: 45907,
                    hop_sum: 21600,
                    flits_delivered: 12885,
                    flit_hop_sum: 64784,
                    packets_offered: 4327,
                    flits_offered: 12987,
                    max_latency: 75,
                    hist_digest: 16349407468097293562,
                    dropped_by_fault: 4,
                    dropped_fault_flits: 8,
                    in_flight: 0,
                },
                34,
                107,
            ),
        ),
    ];
    for (limit, want) in golden {
        assert_eq!(
            run_loop_kills(limit),
            want,
            "6x6 REC with two loop kills at ejection limit {limit}"
        );
    }
}

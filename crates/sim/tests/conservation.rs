//! Property-based packet-conservation invariants: at every cycle, every
//! packet ever offered to a fabric is delivered, still in flight, or
//! (routerless only) counted unroutable or lost to a loop kill — nothing
//! is duplicated or lost unaccounted.

use proptest::prelude::*;
use rlnoc_baselines::rec_topology;
use rlnoc_sim::traffic::{Pattern, TrafficGen};
use rlnoc_sim::{Delivery, FaultPlan, MeshSim, Network, Packet, RouterlessSim, SimConfig};
use rlnoc_topology::Grid;

fn pattern(idx: usize) -> Pattern {
    Pattern::ALL[idx % Pattern::ALL.len()]
}

/// Offers traffic for `cycles` cycles and checks the conservation
/// equation after every tick; returns (offered, delivered) for the final
/// sanity assertions. `unroutable` reads the fabric's drop counter.
/// (The vendored proptest reports failures as `String`s.)
fn check_conservation<N: Network>(
    net: &mut N,
    gen: &mut TrafficGen,
    cfg: &SimConfig,
    cycles: u64,
    unroutable: impl Fn(&N) -> u64,
) -> Result<(usize, usize), String> {
    let mut offered = 0usize;
    let mut delivered = 0usize;
    let mut fresh: Vec<Packet> = Vec::new();
    let mut drained: Vec<Delivery> = Vec::new();
    for cycle in 0..cycles {
        fresh.clear();
        gen.generate_into(cycle, cfg, false, &mut fresh);
        for &p in &fresh {
            offered += 1;
            net.offer(p);
        }
        net.tick(cycle);
        drained.clear();
        net.drain_deliveries(&mut drained);
        delivered += drained.len();
        prop_assert_eq!(
            offered,
            delivered + net.in_flight() + unroutable(net) as usize,
            "conservation broken at cycle {}",
            cycle
        );
    }
    Ok((offered, delivered))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Routerless: offered = delivered + in-flight + unroutable, every cycle.
    #[test]
    fn routerless_conserves_packets(
        pattern_idx in 0usize..6,
        rate in 0.02f64..0.6,
        seed in 0u64..1_000,
    ) {
        let grid = Grid::square(4).unwrap();
        let topo = rec_topology(grid).unwrap();
        let mut net = RouterlessSim::new(&topo);
        let cfg = SimConfig::routerless();
        let mut gen = TrafficGen::new(grid, pattern(pattern_idx), rate, seed);
        let (offered, delivered) =
            check_conservation(&mut net, &mut gen, &cfg, 400, |n| n.unroutable())?;
        prop_assert!(offered >= delivered);
    }

    /// Routerless under a tight ejection limit (deflections active): the
    /// same equation must hold — deflected flits stay in flight.
    #[test]
    fn routerless_conserves_packets_with_ejection_limit(
        rate in 0.05f64..0.6,
        seed in 0u64..1_000,
    ) {
        let grid = Grid::square(4).unwrap();
        let topo = rec_topology(grid).unwrap();
        let mut net = RouterlessSim::new(&topo);
        net.set_ejection_limit(Some(1));
        let cfg = SimConfig::routerless();
        let mut gen = TrafficGen::new(grid, Pattern::UniformRandom, rate, seed);
        check_conservation(&mut net, &mut gen, &cfg, 400, |n| n.unroutable())?;
    }

    /// Mesh: offered = delivered + in-flight, every cycle (XY routing on a
    /// full mesh reaches every destination, so nothing is unroutable).
    #[test]
    fn mesh_conserves_packets(
        pattern_idx in 0usize..6,
        rate in 0.02f64..0.6,
        seed in 0u64..1_000,
        delay in 0u64..3,
    ) {
        let grid = Grid::square(4).unwrap();
        let mut net = MeshSim::new(grid, delay, 8);
        let cfg = SimConfig::mesh();
        let mut gen = TrafficGen::new(grid, pattern(pattern_idx), rate, seed);
        let (offered, delivered) =
            check_conservation(&mut net, &mut gen, &cfg, 400, |_| 0)?;
        prop_assert!(offered >= delivered);
    }

    /// Routerless under mid-run loop kills: every offered packet is
    /// delivered, in flight, unroutable, or condemned by a fault — the
    /// accounting extends, it never leaks.
    #[test]
    fn routerless_conserves_packets_under_faults(
        pattern_idx in 0usize..6,
        rate in 0.05f64..0.6,
        seed in 0u64..1_000,
        kills in 1usize..3,
        kill_at in 20u64..200,
        fault_seed in 0u64..1_000,
    ) {
        let grid = Grid::square(4).unwrap();
        let topo = rec_topology(grid).unwrap();
        let num_loops = topo.loops().len();
        let plan = FaultPlan::random_loop_kills(kill_at, kills, num_loops, fault_seed);
        let mut net = RouterlessSim::with_faults(&topo, plan);
        let cfg = SimConfig::routerless();
        let mut gen = TrafficGen::new(grid, pattern(pattern_idx), rate, seed);
        let (offered, _) = check_conservation(&mut net, &mut gen, &cfg, 400, |n| {
            n.unroutable() + n.dropped_by_fault()
        })?;
        prop_assert!(offered > 0);
    }
}

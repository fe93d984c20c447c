//! Quickstart: learn a routerless NoC topology for a 4x4 chip, compare it
//! against the REC baseline and a conventional mesh, and verify it in the
//! cycle-accurate simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use rlnoc::baselines::rec_topology;
use rlnoc::drl::explorer::{Explorer, ExplorerConfig};
use rlnoc::drl::routerless::RouterlessEnv;
use rlnoc::sim::traffic::Pattern;
use rlnoc::sim::{run_synthetic, MeshSim, RouterlessSim, SimConfig};
use rlnoc::topology::{mesh, Grid};

fn main() {
    // 1. The design problem: a 4x4 chip with a wiring budget of 6
    //    overlapping loops per node (the REC-equivalent budget, 2(N−1)).
    let grid = Grid::square(4).expect("4x4 grid");
    let cap = 6;

    // 2. Let the DRL framework explore. Each cycle the DNN proposes loop
    //    additions, the Monte-Carlo tree refines them, and the actor-critic
    //    update trains the network from the outcome.
    let env = RouterlessEnv::new(grid, cap);
    let mut config = ExplorerConfig::fast();
    // A fresh (untrained) policy benefits from a high ε: Algorithm 1 keeps
    // episodes on track toward connectivity while the network learns.
    config.epsilon = 0.35;
    config.max_steps = 4; // short exploration prefix; completion finishes the design
    let mut explorer = Explorer::new(env, config, 42);
    let report = explorer.run_cycles(8);
    println!(
        "explored {} designs, {} fully connected",
        report.cycles_run,
        report.successful_count()
    );

    // With this tiny budget the search can come up empty; the framework's
    // deterministic ε = 1 rollout is the guaranteed fallback.
    let drl_topo = match report.best() {
        Some(best) => best.env.topology().clone(),
        None => {
            println!("(no connected design in this short run; using the ε = 1 rollout)");
            rlnoc::drl::rollout::greedy_rollout(grid, cap)
        }
    };
    println!("\nBest DRL design:\n{drl_topo}");

    // 3. Compare hop counts against the baselines.
    let rec = rec_topology(grid).expect("REC works for any even grid");
    println!(
        "average hops: mesh {:.3} (2 cycles/hop)",
        mesh::average_hops(&grid)
    );
    println!("average hops: REC  {:.3} (1 cycle/hop)", rec.average_hops());
    println!(
        "average hops: DRL  {:.3} (1 cycle/hop)",
        drl_topo.average_hops()
    );

    // 4. Verify in the flit-level simulator under uniform random traffic.
    let rl_cfg = SimConfig {
        warmup: 500,
        measure: 5_000,
        drain: 2_000,
        ..SimConfig::routerless()
    };
    let mesh_cfg = SimConfig {
        warmup: 500,
        measure: 5_000,
        drain: 2_000,
        ..SimConfig::mesh()
    };
    let rate = 0.05;
    let m_mesh = run_synthetic(
        &mut MeshSim::mesh2(grid),
        Pattern::UniformRandom,
        rate,
        &mesh_cfg,
        1,
    );
    let m_rec = run_synthetic(
        &mut RouterlessSim::new(&rec),
        Pattern::UniformRandom,
        rate,
        &rl_cfg,
        1,
    );
    let m_drl = run_synthetic(
        &mut RouterlessSim::new(&drl_topo),
        Pattern::UniformRandom,
        rate,
        &rl_cfg,
        1,
    );
    println!("\npacket latency at {rate} flits/node/cycle (uniform random):");
    println!("  Mesh-2: {:.2} cycles", m_mesh.avg_packet_latency());
    println!("  REC:    {:.2} cycles", m_rec.avg_packet_latency());
    println!("  DRL:    {:.2} cycles", m_drl.avg_packet_latency());
}

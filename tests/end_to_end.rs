//! End-to-end integration: explore a design with the DRL framework, route
//! it, simulate it, and cost it with the power/area models — every crate
//! in one flow.

use rlnoc::baselines::rec_topology;
use rlnoc::drl::explorer::{Explorer, ExplorerConfig};
use rlnoc::drl::rollout::greedy_rollout;
use rlnoc::drl::routerless::RouterlessEnv;
use rlnoc::power::{AreaModel, Fabric, PowerModel};
use rlnoc::sim::traffic::Pattern;
use rlnoc::sim::{run_synthetic, MeshSim, Network, RouterlessSim, SimConfig};
use rlnoc::topology::{Grid, RoutingTable};
use rlnoc::workloads::{run_benchmark, Benchmark};

fn small_cfg(data_flits: usize) -> SimConfig {
    SimConfig {
        warmup: 200,
        measure: 2_000,
        drain: 1_500,
        data_flits,
        ..SimConfig::default()
    }
}

#[test]
fn explore_route_simulate_cost() {
    // 1. Explore a 3x3 design (small enough for debug-mode NN training).
    let grid = Grid::square(3).unwrap();
    let env = RouterlessEnv::new(grid, 6);
    let mut config = ExplorerConfig::fast();
    config.max_steps = 30;
    let report = Explorer::new(env, config, 5).run_cycles(4);
    let best = report.best().expect("3x3 at cap 6 must connect");
    let topo = best.env.topology().clone();
    assert!(topo.is_fully_connected());
    assert!(topo.max_overlap() <= 6);

    // 2. Routing table covers every pair and agrees with the hop matrix.
    let table = RoutingTable::build(&topo);
    assert!(table.is_complete());
    let matrix_avg = topo.hop_matrix().average_connected_hops().unwrap();
    assert!((table.average_hops().unwrap() - matrix_avg).abs() < 1e-9);

    // 3. Simulate light uniform traffic: everything is delivered, and the
    //    observed hop average matches the topology's static average.
    let mut sim = RouterlessSim::new(&topo);
    let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.03, &small_cfg(5), 3);
    assert!(m.packets > 50);
    assert!(m.delivery_ratio() > 0.99);
    assert_eq!(sim.in_flight(), 0);
    assert!(
        (m.avg_hops() - matrix_avg).abs() < 1.0,
        "simulated hops {} vs static {}",
        m.avg_hops(),
        matrix_avg
    );

    // 4. Cost it.
    let power = PowerModel::default();
    let fabric = Fabric::Routerless { overlap: 6 };
    let p = power.from_metrics(fabric, &m);
    assert!(p.static_mw > 0.0 && p.dynamic_mw > 0.0);
    assert!(AreaModel::default().node_area_um2(fabric) < 10_000.0);
}

#[test]
fn drl_design_beats_rec_on_hops_at_equal_budget() {
    // The paper's Table 3 claim at reproduction scale, via the
    // deterministic framework rollout on 6x6.
    let grid = Grid::square(6).unwrap();
    let cap = 10; // 2(N-1)
    let rec = rec_topology(grid).unwrap();
    let drl = greedy_rollout(grid, cap);
    assert!(drl.is_fully_connected());
    assert!(drl.max_overlap() <= cap);
    assert!(
        drl.average_hops() < rec.average_hops(),
        "DRL {} vs REC {}",
        drl.average_hops(),
        rec.average_hops()
    );
}

#[test]
fn routerless_beats_mesh_zero_load_latency() {
    // Paper Figure 10/11 ordering: DRL < REC < Mesh-1 < Mesh-2 at low load.
    let grid = Grid::square(4).unwrap();
    let rec = rec_topology(grid).unwrap();
    let drl = greedy_rollout(grid, 6);
    let rate = 0.02;
    let l_drl = run_synthetic(
        &mut RouterlessSim::new(&drl),
        Pattern::UniformRandom,
        rate,
        &small_cfg(5),
        1,
    )
    .avg_packet_latency();
    let l_rec = run_synthetic(
        &mut RouterlessSim::new(&rec),
        Pattern::UniformRandom,
        rate,
        &small_cfg(5),
        1,
    )
    .avg_packet_latency();
    let l_m1 = run_synthetic(
        &mut MeshSim::mesh1(grid),
        Pattern::UniformRandom,
        rate,
        &small_cfg(3),
        1,
    )
    .avg_packet_latency();
    let l_m2 = run_synthetic(
        &mut MeshSim::mesh2(grid),
        Pattern::UniformRandom,
        rate,
        &small_cfg(3),
        1,
    )
    .avg_packet_latency();
    assert!(
        l_drl <= l_rec && l_rec < l_m1 && l_m1 < l_m2,
        "ordering violated: DRL {l_drl:.2}, REC {l_rec:.2}, Mesh-1 {l_m1:.2}, Mesh-2 {l_m2:.2}"
    );
}

#[test]
fn workload_pipeline_produces_execution_times() {
    // Table 5 pipeline at integration scale: simulate two fabrics on one
    // benchmark and convert to execution time.
    let grid = Grid::square(4).unwrap();
    let bench = Benchmark::Fluidanimate;
    let m_mesh = run_benchmark(&mut MeshSim::mesh2(grid), bench, &small_cfg(3), 9);
    let drl = greedy_rollout(grid, 6);
    let m_drl = run_benchmark(&mut RouterlessSim::new(&drl), bench, &small_cfg(5), 9);
    let model = bench.model();
    let l_ref = m_mesh.avg_packet_latency();
    let t_mesh = model.execution_time_ms(l_ref, l_ref);
    let t_drl = model.execution_time_ms(m_drl.avg_packet_latency(), l_ref);
    assert!((t_mesh - model.base_exec_ms).abs() < 1e-9);
    assert!(
        t_drl < t_mesh,
        "lower latency must shorten execution: {t_drl} vs {t_mesh}"
    );
}

#[test]
fn parallel_and_single_threaded_searches_agree_on_success() {
    use rlnoc::drl::parallel::explore_parallel;
    let grid = Grid::square(3).unwrap();
    let env = RouterlessEnv::new(grid, 6);
    let mut config = ExplorerConfig::fast();
    config.max_steps = 30;
    let single = Explorer::new(env.clone(), config.clone(), 2).run_cycles(3);
    let multi = explore_parallel(&env, &config, 2, 3, 2);
    assert!(single.successful_count() > 0);
    assert!(multi.successful_count() > 0);
}

//! Criterion micro-benchmarks for the hot kernels behind every
//! experiment: hop-matrix maintenance, Algorithm-1 greedy search, MCTS
//! bookkeeping, DNN forward/backward, and simulator cycle throughput.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rlnoc_baselines::rec_topology;
use rlnoc_core::mcts::{Mcts, MctsConfig};
use rlnoc_core::rollout::greedy_rollout;
use rlnoc_core::routerless::RouterlessEnv;
use rlnoc_core::Environment;
use rlnoc_nn::{PolicyValueConfig, PolicyValueNet, Tensor};
use rlnoc_sim::traffic::Pattern;
use rlnoc_sim::{MeshSim, Network, RouterlessSim, SimConfig};
use rlnoc_topology::{Direction, Grid, HopMatrix, RectLoop, RoutingTable, Topology};

fn bench_hop_matrix(c: &mut Criterion) {
    let grid = Grid::square(8).unwrap();
    let ring = RectLoop::new(0, 0, 7, 7, Direction::Clockwise).unwrap();
    c.bench_function("hop_matrix/apply_loop_8x8_outer", |b| {
        b.iter(|| {
            let mut m = HopMatrix::new(grid);
            m.apply_loop(&grid, black_box(&ring));
            black_box(m.average_hops())
        })
    });

    let mut partial = HopMatrix::new(grid);
    partial.apply_loop(&grid, &ring);
    let candidate = RectLoop::new(1, 1, 6, 6, Direction::Clockwise)
        .unwrap()
        .perimeter_nodes(&grid);
    c.bench_function("hop_matrix/score_loop_8x8", |b| {
        b.iter(|| black_box(partial.score_loop(black_box(&candidate))))
    });
}

fn bench_greedy(c: &mut Criterion) {
    // A whole Algorithm 1 design: each selection is an argmax over a score
    // table that every added loop updates, so one selection alone would
    // leave the updates untimed.
    let grid = Grid::square(10).unwrap();
    c.bench_function("greedy/rollout_10x10_cap18", |b| {
        b.iter(|| black_box(greedy_rollout(black_box(grid), 18)))
    });
    // Env surfaces on a partially built 8x8 design (mid-episode state).
    let mut env = RouterlessEnv::new(Grid::square(8).unwrap(), 14);
    for _ in 0..10 {
        let a = env.greedy_action().unwrap();
        env.apply(a);
    }
    c.bench_function("env/state_tensor_8x8", |b| {
        b.iter(|| black_box(env.state_tensor()))
    });
    c.bench_function("env/legal_actions_8x8", |b| {
        b.iter(|| black_box(env.legal_actions().len()))
    });
}

fn bench_mcts(c: &mut Criterion) {
    let mut tree: Mcts<u32> = Mcts::new(MctsConfig::default());
    let priors: Vec<(u32, f32)> = (0..500).map(|i| (i, 1.0 / 500.0)).collect();
    tree.expand(1, &priors);
    for i in 0..200u32 {
        tree.backup(&[(1, i % 500)], &[f64::from(i % 7)]);
    }
    c.bench_function("mcts/select_500_edges", |b| {
        b.iter(|| black_box(tree.select(1)))
    });
    c.bench_function("mcts/backup_depth_50", |b| {
        let path: Vec<(u64, u32)> = (0..50).map(|i| (i, (i % 500) as u32)).collect();
        let returns = vec![1.0; 50];
        b.iter(|| tree.backup(black_box(&path), black_box(&returns)))
    });
}

fn bench_nn(c: &mut Criterion) {
    let mut net = PolicyValueNet::new(PolicyValueConfig::small(8), 1);
    let x = Tensor::zeros(&[1, 1, 64, 64]);
    c.bench_function("nn/forward_small_8x8_state", |b| {
        b.iter(|| black_box(net.forward(black_box(&x))))
    });
    c.bench_function("nn/forward_backward_small_8x8_state", |b| {
        b.iter(|| {
            black_box(net.train_pass(black_box(&x), |_, grad| grad.value[0] = 1.0));
            net.zero_grad();
        })
    });

    // The paper's full Figure 6(c) architecture at its three reported grid
    // sizes. Single-threaded matmul so runs are comparable across hosts.
    rlnoc_nn::kernels::set_matmul_threads(1);
    for n in [4usize, 8, 10] {
        let cfg = PolicyValueConfig::paper(n);
        let side = cfg.input_side;
        let mut net = PolicyValueNet::new(cfg, 1);
        let x = Tensor::zeros(&[1, 1, side, side]);
        c.bench_function(&format!("nn/forward_paper_{n}x{n}"), |b| {
            b.iter(|| black_box(net.forward(black_box(&x))))
        });
    }
    rlnoc_nn::kernels::set_matmul_threads(0);
}

fn bench_kernels(c: &mut Criterion) {
    // Blocked GEMM vs the retained naive oracle at a net-realistic shape
    // (single-threaded, so the ratio reflects blocking alone).
    rlnoc_nn::kernels::set_matmul_threads(1);
    let (m, k, n) = (256, 512, 256);
    let a = Tensor::from_vec(
        (0..m * k).map(|v| (v as f32 * 0.37).sin()).collect(),
        &[m, k],
    )
    .unwrap();
    let b_mat = Tensor::from_vec(
        (0..k * n).map(|v| (v as f32 * 0.23).cos()).collect(),
        &[k, n],
    )
    .unwrap();
    c.bench_function("matmul/blocked_256x512x256", |b| {
        b.iter(|| black_box(black_box(&a).matmul(black_box(&b_mat))))
    });
    c.bench_function("matmul/naive_256x512x256", |b| {
        b.iter(|| {
            black_box(rlnoc_nn::reference::matmul_naive(
                black_box(&a),
                black_box(&b_mat),
            ))
        })
    });

    // Convolution at the paper-8x8 net's stage-2 shape: the direct conv
    // kernel vs the naive 7-deep loop nest.
    use rlnoc_nn::layers::{Conv2d, Layer, Workspace};
    let x = Tensor::from_vec(
        (0..16 * 32 * 32).map(|v| (v as f32 * 0.11).sin()).collect(),
        &[1, 16, 32, 32],
    )
    .unwrap();
    let mut conv = Conv2d::new(16, 32, 3, 0);
    let mut ws = Workspace::default();
    c.bench_function("conv/direct_16c_to_32c_32x32", |b| {
        b.iter(|| {
            ws.start(black_box(&x));
            conv.forward(&mut ws, false);
            black_box(ws.output());
        })
    });
    let w = Tensor::zeros(&[32, 16, 3, 3]);
    let bias = Tensor::zeros(&[32]);
    c.bench_function("conv/naive_16c_to_32c_32x32", |b| {
        b.iter(|| {
            black_box(rlnoc_nn::reference::conv2d_naive(
                black_box(&x),
                black_box(&w),
                black_box(&bias),
            ))
        })
    });
    rlnoc_nn::kernels::set_matmul_threads(0);
}

fn bench_sim(c: &mut Criterion) {
    let grid = Grid::square(8).unwrap();
    let topo = rec_topology(grid).unwrap();
    let cfg = SimConfig::routerless();
    c.bench_function("sim/routerless_1k_cycles_8x8", |b| {
        b.iter(|| {
            let mut sim = RouterlessSim::new(&topo);
            let mut gen = rlnoc_sim::traffic::TrafficGen::new(grid, Pattern::UniformRandom, 0.1, 3);
            for cycle in 0..1_000u64 {
                for p in rlnoc_sim::PacketSource::generate(&mut gen, cycle, &cfg, false) {
                    sim.offer(p);
                }
                sim.tick(cycle);
                black_box(sim.take_deliveries());
            }
        })
    });
    c.bench_function("sim/mesh2_1k_cycles_8x8", |b| {
        b.iter(|| {
            let mut sim = MeshSim::mesh2(grid);
            let mut gen = rlnoc_sim::traffic::TrafficGen::new(grid, Pattern::UniformRandom, 0.1, 3);
            let mcfg = SimConfig::mesh();
            for cycle in 0..1_000u64 {
                for p in rlnoc_sim::PacketSource::generate(&mut gen, cycle, &mcfg, false) {
                    sim.offer(p);
                }
                sim.tick(cycle);
                black_box(sim.take_deliveries());
            }
        })
    });
}

fn bench_construction(c: &mut Criterion) {
    c.bench_function("baselines/rec_8x8", |b| {
        b.iter(|| black_box(rec_topology(Grid::square(8).unwrap()).unwrap()))
    });
    let topo = rec_topology(Grid::square(8).unwrap()).unwrap();
    c.bench_function("routing/table_build_8x8", |b| {
        b.iter(|| black_box(RoutingTable::build(black_box(&topo))))
    });
    c.bench_function("topology/clone_8x8", |b| {
        b.iter(|| black_box(Topology::clone(black_box(&topo))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hop_matrix, bench_greedy, bench_mcts, bench_nn, bench_kernels, bench_sim, bench_construction
}
criterion_main!(benches);

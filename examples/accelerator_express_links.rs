//! Broad applicability (paper §6.8): the same DRL framework exploring a
//! *different* design space — express-link insertion on an accelerator's
//! mesh interconnect.
//!
//! Scenario: a spatial accelerator (think TPU/Eyeriss-style PE array) moves
//! tensors between processing elements over a mesh. A few long-range
//! express links can cut hop counts dramatically, but each PE's router has
//! a strict port budget. The framework swaps in the `ExpressLinkEnv`
//! environment — the state is still a hop-count matrix, the action is
//! still `(x1, y1, x2, y2, flag)` — and everything else (DNN, MCTS,
//! actor-critic, ε-greedy) is reused unchanged.
//!
//! Run with: `cargo run --release --example accelerator_express_links`

use rlnoc::drl::envs::ExpressLinkEnv;
use rlnoc::drl::explorer::{Explorer, ExplorerConfig};
use rlnoc::topology::{mesh, Grid};

fn main() {
    // A 5x5 PE array with a budget of 2 express links per PE.
    let grid = Grid::square(5).expect("5x5 grid");
    let budget = 2;
    let env = ExpressLinkEnv::new(grid, budget);
    println!(
        "baseline mesh average hops: {:.3}",
        mesh::average_hops(&grid)
    );

    // Explore. The greedy fallback for this environment is naive (first
    // legal link), so learning and tree search carry more weight here.
    let mut config = ExplorerConfig::fast();
    config.max_steps = 12;
    config.epsilon = 0.05;
    let mut explorer = Explorer::new(env, config, 7);
    let report = explorer.run_cycles(5);

    println!("explored {} link placements:", report.cycles_run);
    for d in &report.designs {
        println!(
            "  cycle {}: {} links, avg hops {:.3} (return {:+.3})",
            d.cycle,
            d.env.links().len(),
            d.env.average_hops(),
            d.final_return
        );
    }

    let best = report
        .designs
        .iter()
        .max_by(|a, b| a.final_return.total_cmp(&b.final_return))
        .expect("at least one cycle ran");
    println!(
        "\nbest express-link plan (avg hops {:.3}):",
        best.env.average_hops()
    );
    for l in best.env.links() {
        println!(
            "  ({}, {}) -> ({}, {}){}",
            l.x1,
            l.y1,
            l.x2,
            l.y2,
            if l.bidirectional {
                "  (bidirectional)"
            } else {
                ""
            }
        );
    }
    let improvement =
        100.0 * (mesh::average_hops(&grid) - best.env.average_hops()) / mesh::average_hops(&grid);
    println!("hop-count reduction over plain mesh: {improvement:.1}%");
}

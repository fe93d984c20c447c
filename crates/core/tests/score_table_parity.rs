//! The score table behind Algorithm 1 against a from-scratch rescan.
//!
//! Random action sequences on small square and rectangular grids mix legal
//! additions (both directions), rejected duplicates, reverses of placed
//! loops, actions blocked by the overlap cap, resets, clones and checkpoint
//! round trips. After every step each rectangle's cached score, blocked
//! flag and placed directions must equal `HopMatrix::score_loop`,
//! `Topology::overlap_violation` and `Topology::contains_loop` on the
//! design as it stands.

use rand::prelude::*;
use rand::rngs::StdRng;
use rlnoc_core::greedy::RectState;
use rlnoc_core::{Environment, LoopAction, RouterlessEnv};
use rlnoc_topology::{Direction, Grid, RectLoop, Topology};

/// One rectangle's state, computed from scratch.
fn rescan(topo: &Topology, cap: u32, ring: RectLoop) -> RectState {
    RectState {
        score: topo
            .hop_matrix()
            .score_loop(&ring.perimeter_nodes(topo.grid())),
        blocked: topo.overlap_violation(&ring, cap).is_some(),
        placed_cw: topo.contains_loop(&ring),
        placed_ccw: topo.contains_loop(&ring.reversed()),
    }
}

fn check(env: &RouterlessEnv, ctx: &str) {
    let topo = env.topology();
    let mut rings = RectLoop::all_clockwise(topo.grid());
    for (ring, got) in env.score_table().states() {
        assert_eq!(Some(ring), rings.next(), "{ctx}: table order");
        let want = rescan(topo, env.overlap_cap(), ring);
        assert_eq!(
            got,
            want,
            "{ctx}: {ring} after {} loops",
            topo.loops().len()
        );
    }
    assert_eq!(rings.next(), None, "{ctx}: table misses rectangles");
}

fn random_ring(rng: &mut StdRng, grid: &Grid) -> RectLoop {
    let all: Vec<RectLoop> = RectLoop::all_clockwise(grid).collect();
    let ring = all[rng.gen_range(0..all.len())];
    if rng.gen_bool(0.5) {
        ring.reversed()
    } else {
        ring
    }
}

/// How often each kind of step occurred, so a test can show its sequences
/// exercised every path.
#[derive(Default)]
struct Seen {
    added: usize,
    reverses_added: usize,
    duplicates: usize,
    blocked: usize,
    resets: usize,
    clones: usize,
    round_trips: usize,
}

impl Seen {
    fn assert_all(&self) {
        let counts = [
            self.added,
            self.reverses_added,
            self.duplicates,
            self.blocked,
            self.resets,
            self.clones,
            self.round_trips,
        ];
        assert!(
            counts.iter().all(|&c| c > 0),
            "a step kind never occurred: {counts:?}"
        );
    }
}

/// Runs one random sequence of `steps` steps, checking after each.
fn run(seen: &mut Seen, grid: Grid, cap: u32, seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = RouterlessEnv::new(grid, cap);
    check(&env, "new");
    for step in 0..steps {
        let ctx = format!("{grid} cap {cap} seed {seed} step {step}");
        let placed = env.topology().loops().to_vec();
        match rng.gen_range(0..100) {
            0..=54 => {
                let legal = env.legal_actions();
                if legal.is_empty() {
                    env.reset();
                } else {
                    let a = legal[rng.gen_range(0..legal.len())];
                    assert_eq!(env.apply(a), 0.0, "{ctx}: legal {a:?}");
                    seen.added += 1;
                }
            }
            55..=64 if !placed.is_empty() => {
                let dup = placed[rng.gen_range(0..placed.len())];
                assert_eq!(env.apply(dup.into()), -1.0, "{ctx}: duplicate {dup}");
                seen.duplicates += 1;
            }
            55..=74 if !placed.is_empty() => {
                let rev = placed[rng.gen_range(0..placed.len())].reversed();
                if env.apply(rev.into()) == 0.0 {
                    seen.reverses_added += 1;
                }
            }
            55..=89 => {
                let ring = random_ring(&mut rng, &grid);
                let blocked = env.topology().overlap_violation(&ring, cap).is_some();
                let r = env.apply(ring.into());
                if blocked && !placed.contains(&ring) {
                    assert_eq!(r, env.illegal_penalty(), "{ctx}: blocked {ring}");
                    seen.blocked += 1;
                }
            }
            90..=92 => {
                env.reset();
                seen.resets += 1;
            }
            93..=96 => {
                // Work on a clone; the original must not move.
                let original = env.clone();
                if let Some(a) = env.greedy_action() {
                    assert_eq!(env.apply(a), 0.0, "{ctx}: greedy {a:?}");
                }
                check(&original, &format!("{ctx} (original of a clone)"));
                seen.clones += 1;
            }
            _ => {
                let json = serde_json::to_string(&env).unwrap();
                env = serde_json::from_str(&json).unwrap();
                seen.round_trips += 1;
            }
        }
        check(&env, &ctx);
    }
}

#[test]
fn table_matches_rescan_on_square_grids() {
    let mut seen = Seen::default();
    for n in 2..=8usize {
        let grid = Grid::square(n).unwrap();
        let n = n as u32;
        for cap in [1, n, 2 * n] {
            for seed in 0..2 {
                run(&mut seen, grid, cap, seed, 40);
            }
        }
    }
    seen.assert_all();
}

#[test]
fn table_matches_rescan_on_rectangular_grids() {
    let mut seen = Seen::default();
    for (w, h) in [(3, 5), (4, 6)] {
        let grid = Grid::new(w, h).unwrap();
        for cap in [2, 5, 10] {
            for seed in 0..3 {
                run(&mut seen, grid, cap, seed, 60);
            }
        }
    }
    seen.assert_all();
}

#[test]
fn zero_cap_blocks_every_rectangle() {
    let mut env = RouterlessEnv::new(Grid::square(3).unwrap(), 0);
    check(&env, "cap 0");
    assert!(env.legal_actions().is_empty());
    let a = LoopAction::new(0, 0, 2, 2, Direction::Clockwise);
    assert_eq!(env.apply(a), env.illegal_penalty());
    env.reset();
    check(&env, "cap 0 after reset");
}

#[test]
fn decoding_a_repeated_loop_is_an_error() {
    let mut env = RouterlessEnv::new(Grid::square(3).unwrap(), 4);
    let ring = RectLoop::new(0, 0, 2, 2, Direction::Clockwise).unwrap();
    assert_eq!(env.apply(ring.into()), 0.0);
    let one = serde_json::to_string(&ring).unwrap();
    let json = serde_json::to_string(&env).unwrap();
    let twice = json.replacen(&format!("[{one}]"), &format!("[{one},{one}]"), 1);
    assert_ne!(json, twice, "the loop list is where the test expects it");
    assert!(serde_json::from_str::<RouterlessEnv>(&twice).is_err());
}

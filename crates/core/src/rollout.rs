//! Deterministic and randomized rollout policies for routerless design.
//!
//! These are the non-learning members of the framework's search toolbox:
//!
//! - [`greedy_rollout`]: Algorithm 1 (ε = 1) repeated to completion — the
//!   strongest *deterministic* designer, used throughout the experiment
//!   harness for loose overlap caps;
//! - [`frugal_rollout`]: a budget-aware, connectivity-first variant with
//!   randomized tie-breaking for *tight* caps, where plain Algorithm 1 is
//!   too myopic and strands nodes;
//! - [`best_connected`]: random-restart wrapper returning the best fully
//!   connected design found.
//!
//! With a laptop-scale budget these reach overlap caps down to ~13 on an
//! 8x8 grid; the paper's fully trained DRL reaches 8 (Figure 13), which is
//! the value a long-running [`crate::Explorer`] session targets.

use crate::greedy::for_each_candidate;
use crate::routerless::RouterlessEnv;
use crate::Environment;
use rand::prelude::*;
use rand::rngs::StdRng;
use rlnoc_topology::{Direction, Grid, RectLoop, Topology};

/// Algorithm 1 (ε = 1) to completion: repeatedly add the loop with the
/// best `CheckCount`/`Imprv` score until no legal loop remains.
pub fn greedy_rollout(grid: Grid, cap: u32) -> Topology {
    let mut env = RouterlessEnv::new(grid, cap);
    while let Some(a) = env.greedy_action() {
        let r = env.apply(a);
        debug_assert_eq!(r, 0.0, "greedy proposes only legal actions");
    }
    env.into_topology()
}

/// Budget-aware connectivity-first rollout.
///
/// Phase 1 adds only loops that connect new node pairs, scoring candidates
/// by new pairs discounted by *overlap pressure* (how much budget the loop
/// consumes on nearly-saturated nodes) and sampling among the top few so
/// restarts explore different branches. Phase 2 spends any leftover budget
/// on pure hop-count improvement.
///
/// The result may be disconnected when `cap` is very tight; check with
/// [`Topology::is_fully_connected`] or use [`best_connected`].
pub fn frugal_rollout(grid: Grid, cap: u32, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut env = RouterlessEnv::new(grid, cap);

    // Phase 1: connect everything, spending as little budget as possible.
    loop {
        let mut cands: Vec<(f64, RectLoop)> = Vec::new();
        for_each_candidate(&env, |c| {
            if c.score.new_pairs > 0 {
                cands.push((c.discounted_pairs(), c.best_direction().1));
            }
        });
        if cands.is_empty() {
            break;
        }
        cands.sort_by(|a, b| b.0.total_cmp(&a.0));
        let k = cands.len().min(4);
        let pick = rng.gen_range(0..k);
        let r = env.apply(cands[pick].1.into());
        assert_eq!(r, 0.0, "candidates are legal");
        if env.is_fully_connected() {
            break;
        }
    }

    // Phase 2: spend leftover wiring on hop-count improvement.
    if env.is_fully_connected() {
        loop {
            let mut best: Option<(u64, RectLoop)> = None;
            for_each_candidate(&env, |c| {
                let (g, ring) = c.best_direction();
                if best.is_none_or(|(bg, _)| g > bg) {
                    best = Some((g, ring));
                }
            });
            match best {
                Some((g, ring)) if g > 0 => {
                    let r = env.apply(ring.into());
                    assert_eq!(r, 0.0, "candidates are legal");
                }
                _ => break,
            }
        }
    }
    env.into_topology()
}

/// A minimal-wiring fully connected construction with maximum node
/// overlapping of exactly `max(width, height)` — the theoretical limit the
/// paper identifies (§6.2: an `N×N` NoC needs a cap of at least `N`).
///
/// Construction (per concentric layer, recursing inward):
///
/// - the layer ring,
/// - a *fan* of full-width rectangles anchored on the layer's top row,
///   `(a, a)–(b, y)` for each interior row `y`, and the mirrored fan
///   anchored on the bottom row.
///
/// Within a layer, every perimeter node shares a loop with every node of
/// the layer (the fans' full rows/columns), and interior pairs in the same
/// row share that row's fan loop; pairs strictly inside recurse. Boundary
/// nodes carry at most `m − 1` loops of their own layer (`m` the layer
/// size) plus 2 per enclosing layer, so the overall cap is `N`.
///
/// Use this as the connectivity backbone under tight wiring budgets, then
/// spend leftover budget on hop improvement ([`skeleton_rollout`]).
pub fn skeleton_topology(grid: Grid) -> Topology {
    let mut topo = Topology::new(grid);
    let (mut ax, mut ay) = (0usize, 0usize);
    let (mut bx, mut by) = (grid.width() - 1, grid.height() - 1);
    let mut flip = false;
    loop {
        let dir = if flip {
            Direction::Counterclockwise
        } else {
            Direction::Clockwise
        };
        flip = !flip;
        let ring = RectLoop::new(ax, ay, bx, by, dir).expect("layer spans both dims");
        topo.add_loop(ring).expect("rings are unique per layer");
        for y in ay + 1..by {
            let d = if y % 2 == 0 { dir } else { dir.reversed() };
            let top = RectLoop::new(ax, ay, bx, y, d).expect("non-degenerate");
            let bottom = RectLoop::new(ax, y, bx, by, d.reversed()).expect("non-degenerate");
            let _ = topo.add_loop(top);
            let _ = topo.add_loop(bottom);
        }
        // What remains unconnected lives strictly inside this layer with
        // different rows (same-row pairs share a fan loop).
        let iw = (bx - ax).saturating_sub(1); // interior width
        let ih = (by - ay).saturating_sub(1); // interior height
        if iw == 0 || ih <= 1 {
            // Empty interior, or a single interior row (covered by its own
            // fan — this also covers the single-center-node case): done.
            break;
        }
        if iw == 1 {
            // A single interior column cannot recurse: one vertical strip
            // carries the whole column on its right edge.
            let strip = RectLoop::new(ax, ay, ax + 1, by, dir).expect("non-degenerate");
            let _ = topo.add_loop(strip);
            break;
        }
        ax += 1;
        ay += 1;
        bx -= 1;
        by -= 1;
    }
    debug_assert!(topo.is_fully_connected());
    topo
}

/// [`skeleton_topology`] plus greedy hop improvement with the leftover
/// wiring budget, for caps between `max(width, height)` and `2(N−1)`.
///
/// Returns `None` when `cap` is below the skeleton's own requirement.
pub fn skeleton_rollout(grid: Grid, cap: u32) -> Option<Topology> {
    let skeleton = skeleton_topology(grid);
    if skeleton.max_overlap() > cap {
        return None;
    }
    let mut env = RouterlessEnv::new(grid, cap);
    for &l in skeleton.loops() {
        let (x1, y1, x2, y2, d) = l.encode();
        let r = env.apply(crate::routerless::LoopAction::new(
            x1,
            y1,
            x2,
            y2,
            Direction::from_bit(d),
        ));
        debug_assert_eq!(r, 0.0, "skeleton loops are legal under the cap");
    }
    while let Some(a) = env.greedy_action() {
        // Greedy keeps adding only while it improves hops or connectivity;
        // once fully connected, stop when the best candidate's improvement
        // is zero.
        let before = env.average_hops();
        env.apply(a);
        if env.average_hops() >= before && env.is_fully_connected() {
            break;
        }
    }
    Some(env.into_topology())
}

/// Random-restart search: runs [`frugal_rollout`] with up to `attempts`
/// seeds and returns the fully connected design with the lowest average
/// hop count, or `None` if every attempt left nodes stranded.
pub fn best_connected(grid: Grid, cap: u32, attempts: usize, base_seed: u64) -> Option<Topology> {
    let mut best: Option<Topology> = None;
    for i in 0..attempts {
        let t = frugal_rollout(grid, cap, base_seed.wrapping_add(i as u64));
        if t.is_fully_connected()
            && best
                .as_ref()
                .is_none_or(|b| t.average_hops() < b.average_hops())
        {
            best = Some(t);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_rollout_connects_small_grids() {
        for (n, cap) in [(3usize, 4u32), (4, 6), (5, 8)] {
            let t = greedy_rollout(Grid::square(n).unwrap(), cap);
            assert!(t.is_fully_connected(), "{n}x{n} cap {cap}");
            assert!(t.max_overlap() <= cap);
        }
    }

    #[test]
    fn frugal_respects_cap() {
        let t = frugal_rollout(Grid::square(5).unwrap(), 6, 3);
        assert!(t.max_overlap() <= 6);
    }

    #[test]
    fn frugal_deterministic_per_seed() {
        let g = Grid::square(4).unwrap();
        let a = frugal_rollout(g, 6, 9);
        let b = frugal_rollout(g, 6, 9);
        assert_eq!(a.loops(), b.loops());
    }

    #[test]
    fn frugal_connects_at_tight_cap_where_greedy_fails() {
        // 4x4 at cap 4: plain Algorithm 1 strands nodes; the frugal restart
        // search should find a fully connected design.
        let g = Grid::square(4).unwrap();
        let greedy = greedy_rollout(g, 4);
        let frugal = best_connected(g, 4, 20, 0);
        match frugal {
            Some(t) => {
                assert!(t.is_fully_connected());
                assert!(t.max_overlap() <= 4);
            }
            None => {
                // If even restarts fail, greedy certainly did — the cap is
                // below this searcher's reach, which must show consistently.
                assert!(!greedy.is_fully_connected());
            }
        }
    }

    #[test]
    fn skeleton_hits_the_theoretical_cap() {
        // Paper §6.2: N is the minimum cap for an N×N routerless NoC; the
        // skeleton construction achieves it exactly, fully connected.
        for n in [4usize, 6, 8, 10, 12] {
            let t = skeleton_topology(Grid::square(n).unwrap());
            assert!(t.is_fully_connected(), "{n}x{n} connected");
            assert_eq!(t.max_overlap(), n as u32, "{n}x{n} overlap");
        }
    }

    #[test]
    fn skeleton_works_on_rectangles() {
        for (w, h) in [(4usize, 6usize), (6, 4), (3, 5)] {
            let t = skeleton_topology(Grid::new(w, h).unwrap());
            assert!(t.is_fully_connected(), "{w}x{h}");
            assert!(
                t.max_overlap() <= w.max(h) as u32 + 1,
                "{w}x{h}: {}",
                t.max_overlap()
            );
        }
    }

    #[test]
    fn skeleton_rollout_uses_leftover_budget() {
        let g = Grid::square(6).unwrap();
        let tight = skeleton_rollout(g, 6).expect("cap 6 = N works");
        let roomy = skeleton_rollout(g, 10).expect("cap 10 works");
        assert!(tight.is_fully_connected());
        assert!(roomy.is_fully_connected());
        assert!(roomy.average_hops() <= tight.average_hops());
        assert!(tight.max_overlap() <= 6 && roomy.max_overlap() <= 10);
        // Below the skeleton's requirement: impossible here.
        assert!(skeleton_rollout(g, 5).is_none());
    }

    #[test]
    fn best_connected_picks_lowest_hops() {
        let g = Grid::square(4).unwrap();
        let best = best_connected(g, 6, 8, 1).expect("cap 6 is easy on 4x4");
        // No single attempt may beat the reported winner.
        for i in 0..8u64 {
            let t = frugal_rollout(g, 6, 1u64.wrapping_add(i));
            if t.is_fully_connected() {
                assert!(best.average_hops() <= t.average_hops() + 1e-12);
            }
        }
    }
}

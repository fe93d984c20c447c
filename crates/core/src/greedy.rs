//! The paper's Algorithm 1: deterministic greedy loop selection.
//!
//! With probability ε the MCTS ignores the learned policy and instead runs
//! this exhaustive sweep, which scores every in-cap rectangle by
//! `CheckCount` (how many node pairs can communicate after adding it) and
//! tie-breaks by `Imprv` (total hop-count improvement, which also selects
//! the loop direction).
//!
//! Every greedy selector in the crate — [`greedy_action`],
//! [`completion_action`] and both phases of
//! [`frugal_rollout`](crate::rollout::frugal_rollout) — is an argmax over
//! one candidate scan, `for_each_candidate`, which scores each rectangle
//! once for both directions.

use crate::routerless::{LoopAction, RouterlessEnv};
use rlnoc_topology::{LoopScore, NodeId, RectLoop, Topology};

/// One in-cap rectangle offered by [`for_each_candidate`], with at least
/// one direction not yet placed.
pub(crate) struct Candidate<'a> {
    /// The rectangle, clockwise.
    ring: RectLoop,
    /// Both directions' effect on the hop matrix.
    pub score: LoopScore,
    cw_free: bool,
    ccw_free: bool,
    /// The clockwise perimeter.
    nodes: &'a [NodeId],
    overlaps: &'a [u32],
    cap: u32,
}

impl Candidate<'_> {
    /// The direction rule every selector uses: the free direction with the
    /// larger gain, clockwise on ties; returns that gain and loop.
    ///
    /// When the better direction is already placed this is its reverse,
    /// the completion selectors' "better direction, else its reverse".
    pub fn best_direction(&self) -> (u64, RectLoop) {
        let s = &self.score;
        if self.cw_free && !(self.ccw_free && s.gain_ccw > s.gain_cw) {
            (s.gain_cw, self.ring)
        } else {
            (s.gain_ccw, self.ring.reversed())
        }
    }

    /// Newly connected pairs discounted by overlap *pressure*: the mean,
    /// over the perimeter, of each node's squared share of the cap already
    /// used. Loops through nearly saturated nodes score lower.
    pub fn discounted_pairs(&self) -> f64 {
        let cap = f64::from(self.cap.max(1));
        let pressure = self
            .nodes
            .iter()
            .map(|&n| {
                let o = f64::from(self.overlaps[n]) / cap;
                o * o
            })
            .sum::<f64>()
            / self.nodes.len() as f64;
        self.score.new_pairs as f64 / (1.0 + pressure)
    }
}

/// Visits, in [`RectLoop::all_clockwise`] order, every rectangle that fits
/// under overlap cap `cap` on `topo` and is not yet placed in both
/// directions. The clockwise perimeter is built once per rectangle, in one
/// reused buffer, and scored once for both directions.
pub(crate) fn for_each_candidate(topo: &Topology, cap: u32, mut f: impl FnMut(&Candidate<'_>)) {
    let grid = topo.grid();
    let overlaps = topo.overlaps();
    let mut nodes = Vec::with_capacity(2 * (grid.width() + grid.height()));
    for ring in RectLoop::all_clockwise(grid) {
        ring.perimeter_nodes_into(grid, &mut nodes);
        if nodes.iter().any(|&n| overlaps[n] >= cap) {
            continue;
        }
        let score = topo.hop_matrix().score_loop(&nodes);
        // A placed loop connects all its perimeter pairs, so a rectangle
        // that still connects new pairs is free in both directions.
        let free = |r: RectLoop| score.new_pairs > 0 || !topo.contains_loop(&r);
        let (cw_free, ccw_free) = (free(ring), free(ring.reversed()));
        if !(cw_free || ccw_free) {
            continue;
        }
        f(&Candidate {
            ring,
            score,
            cw_free,
            ccw_free,
            nodes: &nodes,
            overlaps,
            cap,
        });
    }
}

/// Runs Algorithm 1 on the environment's current state: returns the legal
/// loop addition with the highest `CheckCount`, tie-broken by the largest
/// hop-count improvement (`Imprv`), which also chooses the direction.
///
/// Returns `None` when no legal action exists (terminal state).
pub fn greedy_action(env: &RouterlessEnv) -> Option<LoopAction> {
    // `CheckCount` is `connected_pairs() + new_pairs`; the first term is
    // the same for every candidate, so `new_pairs` ranks identically.
    let mut best: Option<(usize, u64, RectLoop)> = None;
    for_each_candidate(env.topology(), env.overlap_cap(), |c| {
        let (imprv, ring) = c.best_direction();
        let count = c.score.new_pairs;
        if best.is_none_or(|(bc, bi, _)| count > bc || (count == bc && imprv > bi)) {
            best = Some((count, imprv, ring));
        }
    });
    best.map(|(_, _, ring)| ring.into())
}

/// Connectivity-first action selection for the completion phase: maximize
/// newly connected pairs discounted by overlap *pressure* (budget consumed
/// on nearly saturated nodes), tie-broken by `Imprv`.
///
/// Compared with [`greedy_action`] — which ranks by total `CheckCount` and
/// will happily spend scarce wiring on hop improvements — this selector
/// protects the remaining budget until the design is fully connected,
/// which is what the Figure 4 completion phase needs after an exploratory
/// prefix has consumed part of the budget. Falls back to [`greedy_action`]
/// once (or if) no new pair can be connected.
pub fn completion_action(env: &RouterlessEnv) -> Option<LoopAction> {
    let mut best: Option<(f64, u64, RectLoop)> = None;
    for_each_candidate(env.topology(), env.overlap_cap(), |c| {
        if c.score.new_pairs == 0 {
            return;
        }
        let score = c.discounted_pairs();
        // New pairs mean neither direction is placed, so this picks the
        // better direction and `g` is `max(gain_cw, gain_ccw)`: the
        // tie-break never sees a reverse ring's own gain.
        let (g, ring) = c.best_direction();
        if best.is_none_or(|(bs, bg, _)| score > bs || (score == bs && g > bg)) {
            best = Some((score, g, ring));
        }
    });
    match best {
        Some((_, _, ring)) => Some(ring.into()),
        None => greedy_action(env),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Environment;
    use rlnoc_topology::{Direction, Grid};

    #[test]
    fn greedy_first_pick_maximizes_connectivity() {
        // On a blank 4x4, the outer ring connects the most pairs (12
        // perimeter nodes → 132 ordered pairs); greedy must pick it.
        let env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        let a = greedy_action(&env).unwrap();
        assert_eq!((a.x1, a.y1, a.x2, a.y2), (0, 0, 3, 3));
    }

    #[test]
    fn greedy_actions_are_always_legal() {
        let mut env = RouterlessEnv::new(Grid::square(4).unwrap(), 4);
        for _ in 0..50 {
            match greedy_action(&env) {
                Some(a) => assert_eq!(env.apply(a), 0.0, "greedy proposed illegal {a:?}"),
                None => break,
            }
        }
        assert!(env.is_terminal() || env.topology().loops().len() == 50);
    }

    #[test]
    fn greedy_reaches_full_connectivity() {
        let mut env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        while let Some(a) = greedy_action(&env) {
            env.apply(a);
            if env.is_fully_connected() {
                break;
            }
        }
        assert!(
            env.is_fully_connected(),
            "greedy should connect a 4x4 at cap 6"
        );
    }

    #[test]
    fn greedy_none_when_terminal() {
        let mut env = RouterlessEnv::new(Grid::square(2).unwrap(), 1);
        env.apply(crate::routerless::LoopAction::new(
            0,
            0,
            1,
            1,
            Direction::Clockwise,
        ));
        assert!(greedy_action(&env).is_none());
    }

    #[test]
    fn greedy_prefers_direction_with_more_improvement() {
        // Add a CW outer ring; the best second action includes direction
        // choice. Reverse of an existing ring halves round-trip distances,
        // so the CCW outer ring has the largest Imprv among same-count
        // candidates.
        let mut env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
        env.apply(crate::routerless::LoopAction::new(
            0,
            0,
            3,
            3,
            Direction::Clockwise,
        ));
        let a = greedy_action(&env).unwrap();
        // Whatever rectangle wins must be strictly legal and improve hops.
        let before = env.average_hops();
        env.apply(a);
        assert!(env.average_hops() < before);
    }
}

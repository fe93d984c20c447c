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
//! one design's [`ScoreTable`], which holds every rectangle's
//! [`LoopScore`], a cap-blocked flag and which directions are placed.
//!
//! The table is kept by deltas. Adding a loop `L` changes the hop entry
//! `H[a][b]` only when `a` and `b` both lie on `L`, and changes overlap only
//! on `L`. So `ScoreTable::add_loop` snapshots `H` over `L × L`, adds the
//! loop, and then, for every rectangle `R` that shares nodes with `L` and
//! every ordered pair `(a, b)` of `R ∩ L` whose entry changed, swaps the
//! pair's old contribution for its new one: `H ≥ sentinel` to `new_pairs`,
//! `(H − d)⁺` to the clockwise gain and `(H − r)⁺` to the
//! counter-clockwise gain, for `R`'s own distances `d` and `r = len − d`.
//! Only those rectangles can become cap-blocked. The arithmetic is integer,
//! so the table equals a rescan with [`HopMatrix::score_loop`] exactly.
//!
//! [`HopMatrix::score_loop`]: rlnoc_topology::HopMatrix::score_loop

use crate::routerless::{LoopAction, RouterlessEnv};
use rlnoc_topology::{Direction, Grid, LoopScore, RectLoop, Topology, TopologyError};
use std::fmt;
use std::sync::Arc;

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
    nodes: &'a [u32],
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
                let o = f64::from(self.overlaps[n as usize]) / cap;
                o * o
            })
            .sum::<f64>()
            / self.nodes.len() as f64;
        self.score.new_pairs as f64 / (1.0 + pressure)
    }
}

/// Visits, in [`RectLoop::all_clockwise`] order, every rectangle of `env`'s
/// table that fits under its overlap cap and is not yet placed in both
/// directions.
pub(crate) fn for_each_candidate(env: &RouterlessEnv, mut f: impl FnMut(&Candidate<'_>)) {
    let table = env.score_table();
    let overlaps = env.topology().overlaps();
    for (i, e) in table.entries.iter().enumerate() {
        let (cw_free, ccw_free) = (e.flags & PLACED_CW == 0, e.flags & PLACED_CCW == 0);
        if e.flags & BLOCKED != 0 || !(cw_free || ccw_free) {
            continue;
        }
        f(&Candidate {
            ring: table.rects.ring(i),
            score: e.score(),
            cw_free,
            ccw_free,
            nodes: table.rects.perimeter(i),
            overlaps,
            cap: table.cap,
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
    for_each_candidate(env, |c| {
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
    for_each_candidate(env, |c| {
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

/// Flag bits of a table entry.
const BLOCKED: u8 = 1;
const PLACED_CW: u8 = 2;
const PLACED_CCW: u8 = 4;

fn placed_bit(dir: Direction) -> u8 {
    match dir {
        Direction::Clockwise => PLACED_CW,
        Direction::Counterclockwise => PLACED_CCW,
    }
}

/// The grid-static half of a [`ScoreTable`]: every rectangle's clockwise
/// perimeter and, per node, the rectangles through it. Built with a blank
/// design and shared by every clone and reset of it.
struct Rects {
    grid: Grid,
    /// Rectangle `i`, in [`RectLoop::all_clockwise`] order, has the
    /// clockwise perimeter `perims[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    perims: Vec<u32>,
    /// Node `n`'s `(rectangle, clockwise position)` pairs are
    /// `incidence[node_starts[n]..node_starts[n + 1]]`.
    node_starts: Vec<u32>,
    incidence: Vec<(u32, u32)>,
}

impl Rects {
    fn new(grid: Grid) -> Self {
        // Sums over a perimeter of length `len` stay below `len² · sentinel`.
        let max_len = 2 * (grid.width() - 1 + grid.height() - 1);
        assert!(
            max_len
                .saturating_mul(max_len)
                .saturating_mul(grid.unconnected_hops())
                < u32::MAX as usize,
            "{grid} is too large for u32 rectangle scores"
        );
        let mut starts = vec![0];
        let mut perims = Vec::new();
        let mut node_starts = vec![0u32; grid.len() + 1];
        let mut nodes = Vec::with_capacity(max_len);
        for ring in RectLoop::all_clockwise(&grid) {
            ring.perimeter_nodes_into(&grid, &mut nodes);
            for &n in &nodes {
                node_starts[n + 1] += 1;
                perims.push(n as u32);
            }
            starts.push(u32::try_from(perims.len()).expect("incidence count fits u32"));
        }
        for n in 0..grid.len() {
            node_starts[n + 1] += node_starts[n];
        }
        let mut fill = node_starts.clone();
        let mut incidence = vec![(0, 0); perims.len()];
        for (i, span) in starts.windows(2).enumerate() {
            let perim = &perims[span[0] as usize..span[1] as usize];
            for (pos, &n) in perim.iter().enumerate() {
                incidence[fill[n as usize] as usize] = (i as u32, pos as u32);
                fill[n as usize] += 1;
            }
        }
        Rects {
            grid,
            starts,
            perims,
            node_starts,
            incidence,
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn perimeter(&self, i: usize) -> &[u32] {
        &self.perims[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Rectangle `i`, clockwise: its perimeter starts at the top-left
    /// corner and is halfway round at the bottom-right one.
    fn ring(&self, i: usize) -> RectLoop {
        let perim = self.perimeter(i);
        let (x1, y1) = self.grid.coord_of(perim[0] as usize);
        let (x2, y2) = self.grid.coord_of(perim[perim.len() / 2] as usize);
        RectLoop::new(x1, y1, x2, y2, Direction::Clockwise).expect("corners of a rectangle")
    }

    fn through(&self, node: u32) -> &[(u32, u32)] {
        let n = node as usize;
        &self.incidence[self.node_starts[n] as usize..self.node_starts[n + 1] as usize]
    }

    /// The table index of `ring`'s rectangle, which must fit on the grid.
    fn index_of(&self, ring: &RectLoop) -> usize {
        // `all_clockwise` orders by the column pair, then the row pair, each
        // pair `(lo, hi)` of `m` values lexicographically.
        let pair = |lo: usize, hi: usize, m: usize| lo * (2 * m - lo - 1) / 2 + (hi - lo - 1);
        let ((x1, y1), (x2, y2)) = (ring.top_left(), ring.bottom_right());
        let (w, h) = (self.grid.width(), self.grid.height());
        pair(x1, x2, w) * (h * (h - 1) / 2) + pair(y1, y2, h)
    }
}

/// One rectangle's entry: both directions' score, and the flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    new_pairs: u32,
    gain_cw: u32,
    gain_ccw: u32,
    flags: u8,
}

impl Entry {
    fn score(&self) -> LoopScore {
        LoopScore {
            new_pairs: self.new_pairs as usize,
            gain_cw: u64::from(self.gain_cw),
            gain_ccw: u64::from(self.gain_ccw),
        }
    }
}

/// What a [`ScoreTable`] holds for one rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RectState {
    /// Both directions' effect on the current hop matrix.
    pub score: LoopScore,
    /// Whether some perimeter node is already at the overlap cap.
    pub blocked: bool,
    /// Whether the clockwise loop is placed.
    pub placed_cw: bool,
    /// Whether the counter-clockwise loop is placed.
    pub placed_ccw: bool,
}

/// Algorithm 1's view of one design: every rectangle's [`LoopScore`],
/// cap-blocked flag and placed directions, kept current as loops are added
/// (see the module docs for the delta rule).
#[derive(Clone)]
pub struct ScoreTable {
    rects: Arc<Rects>,
    cap: u32,
    /// One entry per rectangle, in [`RectLoop::all_clockwise`] order.
    entries: Vec<Entry>,
}

impl fmt::Debug for ScoreTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScoreTable")
            .field("rects", &self.entries.len())
            .field("cap", &self.cap)
            .finish_non_exhaustive()
    }
}

impl ScoreTable {
    /// The table of a blank design on `grid` under overlap cap `cap`.
    pub(crate) fn new(grid: Grid, cap: u32) -> Self {
        let rects = Arc::new(Rects::new(grid));
        let mut table = ScoreTable {
            entries: Vec::with_capacity(rects.len()),
            rects,
            cap,
        };
        table.reset();
        table
    }

    /// The table of `topo`, built by adding its loops in order to a blank
    /// design.
    ///
    /// # Errors
    ///
    /// Returns the error of the first loop that does not fit on the grid or
    /// repeats an earlier one.
    pub(crate) fn of(topo: &Topology, cap: u32) -> Result<Self, TopologyError> {
        let mut table = ScoreTable::new(*topo.grid(), cap);
        let mut replay = Topology::new(*topo.grid());
        for &l in topo.loops() {
            table.add_loop(&mut replay, l)?;
        }
        Ok(table)
    }

    /// Returns the table to a blank design on the same grid.
    pub(crate) fn reset(&mut self) {
        // On a blank design every pair is unconnected, so each of a
        // perimeter's `len` nodes adds `len − 1` new pairs, and the sum of
        // `sentinel − d` over `d = 1, …, len − 1` to either gain.
        let sentinel = self.rects.grid.unconnected_hops() as u32;
        let flags = if self.cap == 0 { BLOCKED } else { 0 };
        let blank = (0..self.rects.len()).map(|i| {
            let len = self.rects.perimeter(i).len() as u32;
            let gain = len * ((len - 1) * sentinel - len * (len - 1) / 2);
            Entry {
                new_pairs: len * (len - 1),
                gain_cw: gain,
                gain_ccw: gain,
                flags,
            }
        });
        self.entries.clear();
        self.entries.extend(blank);
    }

    /// Every rectangle with its state, clockwise, in
    /// [`RectLoop::all_clockwise`] order.
    pub fn states(&self) -> impl Iterator<Item = (RectLoop, RectState)> + '_ {
        self.entries.iter().enumerate().map(|(i, e)| {
            let state = RectState {
                score: e.score(),
                blocked: e.flags & BLOCKED != 0,
                placed_cw: e.flags & PLACED_CW != 0,
                placed_ccw: e.flags & PLACED_CCW != 0,
            };
            (self.rects.ring(i), state)
        })
    }

    /// Whether `ring` is placed in its own direction.
    pub(crate) fn is_placed(&self, ring: &RectLoop) -> bool {
        self.entries[self.rects.index_of(ring)].flags & placed_bit(ring.direction()) != 0
    }

    /// Whether adding `ring` would push a node past the overlap cap.
    pub(crate) fn is_blocked(&self, ring: &RectLoop) -> bool {
        self.entries[self.rects.index_of(ring)].flags & BLOCKED != 0
    }

    /// Adds `ring` to `topo`, the design this table scores, and updates the
    /// table by the module's delta rule.
    ///
    /// # Errors
    ///
    /// Returns [`Topology::add_loop`]'s error, leaving both unchanged.
    pub(crate) fn add_loop(
        &mut self,
        topo: &mut Topology,
        ring: RectLoop,
    ) -> Result<(), TopologyError> {
        ring.check_on(&self.rects.grid)?;
        let rects = &*self.rects;
        let li = rects.index_of(&ring);
        let lnodes = rects.perimeter(li);
        let len = lnodes.len();
        let n = rects.grid.len();
        let block = |h: &[u32]| -> Vec<u32> {
            let mut out = Vec::with_capacity(len * len);
            for &a in lnodes {
                let row = &h[a as usize * n..][..n];
                out.extend(lnodes.iter().map(|&b| row[b as usize]));
            }
            out
        };
        let old = block(topo.hop_matrix().as_slice());
        topo.add_loop(ring)?;
        let new = block(topo.hop_matrix().as_slice());
        let sentinel = topo.hop_matrix().sentinel();
        let overlaps = topo.overlaps();
        self.entries[li].flags |= placed_bit(ring.direction());

        // Group `R ∩ L` by rectangle `R`, in two passes over the incidence
        // of L's nodes: count each `R`'s members (and block it if a node is
        // now full, which only rectangles through L's nodes can become),
        // then place each member `(position on L, position on R)` in its
        // rectangle's run of `members`.
        let mut slot = vec![0u32; self.entries.len()];
        let mut touched: Vec<u32> = Vec::new();
        for &a in lnodes {
            let full = overlaps[a as usize] >= self.cap;
            for &(r, _) in rects.through(a) {
                if slot[r as usize] == 0 {
                    touched.push(r);
                }
                slot[r as usize] += 1;
                if full {
                    self.entries[r as usize].flags |= BLOCKED;
                }
            }
        }
        if old == new {
            return Ok(());
        }
        let mut runs = Vec::with_capacity(touched.len() + 1);
        let mut total = 0;
        for &r in &touched {
            runs.push(total);
            total += std::mem::replace(&mut slot[r as usize], total);
        }
        runs.push(total);
        let mut members = vec![(0, 0); total as usize];
        for (i, &a) in lnodes.iter().enumerate() {
            for &(r, pos) in rects.through(a) {
                members[slot[r as usize] as usize] = (i as u32, pos);
                slot[r as usize] += 1;
            }
        }
        for (t, &rect) in touched.iter().enumerate() {
            let rect = rect as usize;
            let members = &members[runs[t] as usize..runs[t + 1] as usize];
            if members.len() < 2 {
                continue;
            }
            let rlen = rects.perimeter(rect).len() as u32;
            let e = &mut self.entries[rect];
            for &(i, p) in members {
                let row = i as usize * len;
                let (old_row, new_row) = (&old[row..][..len], &new[row..][..len]);
                for &(j, q) in members {
                    let (o, h) = (old_row[j as usize], new_row[j as usize]);
                    if o == h {
                        continue;
                    }
                    let d = if q >= p { q - p } else { q + rlen - p };
                    let r = rlen - d;
                    e.new_pairs -= u32::from(o >= sentinel) - u32::from(h >= sentinel);
                    e.gain_cw -= o.saturating_sub(d) - h.saturating_sub(d);
                    e.gain_ccw -= o.saturating_sub(r) - h.saturating_sub(r);
                }
            }
        }
        Ok(())
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

    #[test]
    fn index_of_follows_all_clockwise_order() {
        for (w, h) in [(2usize, 2usize), (3, 5), (6, 4)] {
            let rects = Rects::new(Grid::new(w, h).unwrap());
            for (i, ring) in RectLoop::all_clockwise(&rects.grid).enumerate() {
                assert_eq!(rects.ring(i), ring);
                assert_eq!(rects.index_of(&ring), i, "{w}x{h} {ring}");
                assert_eq!(rects.index_of(&ring.reversed()), i);
            }
        }
    }
}

use crate::{Grid, NodeId, RectLoop};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pairwise hop-count matrix of a routerless NoC — the paper's §4.2
/// state encoding.
///
/// For a grid with `n = width * height` nodes, this stores an `n × n` matrix
/// `H` where `H[s][d]` is the minimum number of hops a packet needs to travel
/// from `s` to `d` along a *single* loop (routerless NoCs never switch loops
/// mid-flight). Unconnected pairs hold the sentinel value
/// `5 * max(width, height)` (the paper's `5 * N` default), which is strictly
/// larger than any realizable loop distance (`≤ 4N - 4`), so
/// `H[s][d] < sentinel ⟺ s can reach d`.
///
/// Because a new loop can only improve pairs whose endpoints both lie on its
/// perimeter, [`HopMatrix::apply_loop`] performs an exact incremental update
/// in `O(L²)` for a loop of length `L` — no all-pairs recomputation.
///
/// # Example
///
/// ```
/// use rlnoc_topology::{Grid, HopMatrix, RectLoop, Direction};
/// # fn main() -> Result<(), rlnoc_topology::TopologyError> {
/// let grid = Grid::square(4)?;
/// let mut hops = HopMatrix::new(grid);
/// assert_eq!(hops.connected_pairs(), 0);
/// hops.apply_loop(&grid, &RectLoop::new(0, 0, 3, 3, Direction::Clockwise)?);
/// assert_eq!(hops.connected_pairs(), 12 * 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopMatrix {
    n: usize,
    sentinel: u32,
    data: Vec<u32>,
    /// Cached count of connected ordered pairs, maintained by
    /// [`HopMatrix::apply_loop`] so queries are O(1).
    connected: usize,
}

impl HopMatrix {
    /// Creates the hop matrix of a completely disconnected NoC on `grid`:
    /// zero on the diagonal, the `5 * N` sentinel everywhere else.
    pub fn new(grid: Grid) -> Self {
        let n = grid.len();
        let sentinel = grid.unconnected_hops() as u32;
        let mut data = vec![sentinel; n * n];
        for i in 0..n {
            data[i * n + i] = 0;
        }
        HopMatrix {
            n,
            sentinel,
            data,
            connected: 0,
        }
    }

    /// Number of nodes (`n`), i.e. the matrix is `n × n`.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The sentinel value stored for unconnected pairs.
    pub fn sentinel(&self) -> u32 {
        self.sentinel
    }

    /// Hop count from `src` to `dst`. Returns the sentinel when unconnected.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        assert!(src < self.n && dst < self.n, "node out of range");
        self.data[src * self.n + dst]
    }

    /// Whether a packet can travel from `src` to `dst` on some loop.
    pub fn is_connected(&self, src: NodeId, dst: NodeId) -> bool {
        self.hops(src, dst) < self.sentinel
    }

    /// Number of ordered pairs `(s, d)`, `s != d`, that are connected.
    /// O(1): the count is maintained incrementally.
    pub fn connected_pairs(&self) -> usize {
        self.connected
    }

    /// Whether every ordered pair of distinct nodes is connected. O(1).
    pub fn is_fully_connected(&self) -> bool {
        self.connected == self.n * (self.n - 1)
    }

    /// Average hop count over all ordered pairs of distinct nodes, with
    /// unconnected pairs contributing the sentinel value. This is the
    /// quantity the paper's agent minimizes (§4.3).
    pub fn average_hops(&self) -> f64 {
        if self.n <= 1 {
            return 0.0;
        }
        let total: u64 = self.data.iter().map(|&h| u64::from(h)).sum();
        total as f64 / (self.n * (self.n - 1)) as f64
    }

    /// Average hop count over connected ordered pairs only, or `None` when
    /// no pair is connected.
    pub fn average_connected_hops(&self) -> Option<f64> {
        let mut total = 0u64;
        let mut count = 0u64;
        for s in 0..self.n {
            for d in 0..self.n {
                let h = self.data[s * self.n + d];
                if s != d && h < self.sentinel {
                    total += u64::from(h);
                    count += 1;
                }
            }
        }
        (count > 0).then(|| total as f64 / count as f64)
    }

    /// Incorporates `ring` into the matrix, min-updating every ordered pair
    /// of perimeter nodes with its directed on-loop distance. Returns the
    /// number of matrix entries that improved.
    ///
    /// # Panics
    ///
    /// Panics if the loop does not fit on `grid` or the grid does not match
    /// the matrix dimensions.
    pub fn apply_loop(&mut self, grid: &Grid, ring: &RectLoop) -> usize {
        assert_eq!(grid.len(), self.n, "grid does not match matrix size");
        ring.check_on(grid).expect("loop out of bounds for grid");
        let nodes = ring.perimeter_nodes(grid);
        let len = nodes.len();
        let mut improved = 0;
        for (pi, &a) in nodes.iter().enumerate() {
            let row = a * self.n;
            for (pj, &b) in nodes.iter().enumerate() {
                if a == b {
                    continue;
                }
                let d = ((pj + len - pi) % len) as u32;
                let cell = &mut self.data[row + b];
                if d < *cell {
                    if *cell == self.sentinel {
                        self.connected += 1;
                    }
                    *cell = d;
                    improved += 1;
                }
            }
        }
        improved
    }

    /// Scores adding the loop whose clockwise perimeter is `cw_nodes`, in
    /// both directions at once, without mutating the matrix.
    ///
    /// One read of each perimeter pair's entry serves both directions: the
    /// counter-clockwise distance is `len − d` for clockwise distance `d`.
    /// `new_pairs` is direction-independent, and `connected_pairs() +
    /// new_pairs` is the paper's `CheckCount` (Algorithm 1); the gains drive
    /// its `Imprv` tie-break and the direction choice.
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range.
    pub fn score_loop(&self, cw_nodes: &[NodeId]) -> LoopScore {
        let len = cw_nodes.len();
        let mut score = LoopScore::default();
        for (pi, &a) in cw_nodes.iter().enumerate() {
            let row = &self.data[a * self.n..(a + 1) * self.n];
            for (pj, &b) in cw_nodes.iter().enumerate() {
                if pi == pj {
                    continue;
                }
                let cur = row[b];
                let d = if pj > pi { pj - pi } else { pj + len - pi } as u32;
                let r = len as u32 - d;
                if cur >= self.sentinel {
                    score.new_pairs += 1;
                }
                if d < cur {
                    score.gain_cw += u64::from(cur - d);
                }
                if r < cur {
                    score.gain_ccw += u64::from(cur - r);
                }
            }
        }
        score
    }

    /// Flattens the matrix into the paper's `N² × N²` block state layout for
    /// an `N × N` grid (Figure 5): the block at block-row `bi`, block-column
    /// `bj` is the `N × N` submatrix of hop counts *from* node
    /// `bi * N + bj` *to* every node.
    ///
    /// Values are returned as `f32` for direct use as DNN input. For
    /// rectangular `W × H` grids the same construction yields a
    /// `(W·H) × (W·H)` matrix arranged in `H × W` blocks of `H × W`.
    pub fn to_state_tensor(&self, grid: &Grid) -> Vec<f32> {
        assert_eq!(grid.len(), self.n, "grid does not match matrix size");
        let (w, h) = (grid.width(), grid.height());
        let side = self.n; // N² for square grids
        let mut out = vec![0f32; side * side];
        for src in 0..self.n {
            let (bx, by) = (src % w, src / w);
            for dst in 0..self.n {
                let (cx, cy) = (dst % w, dst / w);
                let row = by * h + cy;
                let col = bx * w + cx;
                out[row * side + col] = self.data[src * self.n + dst] as f32;
            }
        }
        out
    }

    /// Raw row-major matrix data (`n * n` entries, `H[s][d]` at `s * n + d`).
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }
}

/// What adding one rectangle would do to a [`HopMatrix`], in each
/// direction; see [`HopMatrix::score_loop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopScore {
    /// Ordered pairs the loop would newly connect (either direction).
    pub new_pairs: usize,
    /// Total hop-count reduction of the clockwise loop.
    pub gain_cw: u64,
    /// Total hop-count reduction of the counter-clockwise loop.
    pub gain_ccw: u64,
}

/// Renders the matrix as aligned rows of hop counts; sentinel entries show
/// as `-`.
impl fmt::Display for HopMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in 0..self.n {
            for d in 0..self.n {
                let h = self.data[s * self.n + d];
                if h >= self.sentinel {
                    write!(f, "  -")?;
                } else {
                    write!(f, "{h:3}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    fn grid(n: usize) -> Grid {
        Grid::square(n).unwrap()
    }

    #[test]
    fn fresh_matrix_disconnected() {
        let g = grid(4);
        let m = HopMatrix::new(g);
        assert_eq!(m.connected_pairs(), 0);
        assert!(!m.is_fully_connected());
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 20);
    }

    #[test]
    fn figure5_2x2_state() {
        // Paper Figure 5: a 2x2 NoC with one clockwise loop.
        let g = grid(2);
        let mut m = HopMatrix::new(g);
        m.apply_loop(
            &g,
            &RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap(),
        );
        // Node ids: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1); CW order 0,1,3,2.
        assert_eq!(m.hops(0, 1), 1);
        assert_eq!(m.hops(0, 3), 2);
        assert_eq!(m.hops(0, 2), 3);
        assert_eq!(m.hops(2, 0), 1);
        assert!(m.is_fully_connected());
        // The paper's 4x4 block layout for this topology (Figure 5).
        let t = m.to_state_tensor(&g);
        #[rustfmt::skip]
        let expect: Vec<f32> = vec![
            0.0, 1.0,  3.0, 0.0,
            3.0, 2.0,  2.0, 1.0,
            1.0, 2.0,  2.0, 3.0,
            0.0, 3.0,  1.0, 0.0,
        ];
        assert_eq!(t, expect);
    }

    #[test]
    fn apply_loop_incremental_matches_exact() {
        // Adding loops one at a time must equal recomputing from scratch.
        let g = grid(4);
        let loops = [
            RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap(),
            RectLoop::new(0, 0, 1, 3, Direction::Counterclockwise).unwrap(),
            RectLoop::new(1, 1, 3, 2, Direction::Clockwise).unwrap(),
        ];
        let mut incremental = HopMatrix::new(g);
        for l in &loops {
            incremental.apply_loop(&g, l);
        }
        // Exact: min over loops of directed distance.
        for s in g.nodes() {
            for d in g.nodes() {
                let exact = loops
                    .iter()
                    .filter_map(|l| l.distance(&g, s, d))
                    .min()
                    .map(|x| x as u32)
                    .unwrap_or(if s == d { 0 } else { incremental.sentinel() });
                let exact = if s == d { 0 } else { exact };
                assert_eq!(incremental.hops(s, d), exact, "pair ({s},{d})");
            }
        }
    }

    /// Applies `ring` to a copy of `m`, returning (newly connected pairs,
    /// total hop reduction).
    fn applied_delta(m: &HopMatrix, g: &Grid, ring: &RectLoop) -> (usize, u64) {
        let total = |m: &HopMatrix| m.as_slice().iter().map(|&h| u64::from(h)).sum::<u64>();
        let mut after = m.clone();
        after.apply_loop(g, ring);
        (
            after.connected_pairs() - m.connected_pairs(),
            total(m) - total(&after),
        )
    }

    #[test]
    fn score_loop_matches_apply() {
        let g = grid(4);
        // Both directions of a loop overlapping a placed one.
        let mut m = HopMatrix::new(g);
        m.apply_loop(
            &g,
            &RectLoop::new(0, 0, 2, 2, Direction::Clockwise).unwrap(),
        );
        let cw = RectLoop::new(1, 1, 3, 3, Direction::Clockwise).unwrap();
        let s = m.score_loop(&cw.perimeter_nodes(&g));
        assert_eq!(applied_delta(&m, &g, &cw), (s.new_pairs, s.gain_cw));
        assert_eq!(
            applied_delta(&m, &g, &cw.reversed()),
            (s.new_pairs, s.gain_ccw)
        );
        assert!(s.new_pairs > 0 && s.gain_cw > 0 && s.gain_ccw > 0);

        // The reverse of a placed ring connects nothing new but shortens
        // the long way round; the ring itself changes nothing.
        let mut m = HopMatrix::new(g);
        let ring = RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap();
        m.apply_loop(&g, &ring);
        let s = m.score_loop(&ring.perimeter_nodes(&g));
        assert_eq!((s.new_pairs, s.gain_cw), (0, 0));
        assert_eq!(applied_delta(&m, &g, &ring.reversed()), (0, s.gain_ccw));
        assert!(s.gain_ccw > 0);
    }

    #[test]
    fn average_hops_single_full_ring_4x4() {
        let g = grid(4);
        let mut m = HopMatrix::new(g);
        m.apply_loop(
            &g,
            &RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap(),
        );
        // 12 perimeter nodes on a cycle of length 12: average directed
        // distance over distinct pairs is (1+2+...+11)/11 = 6.
        let avg = m.average_connected_hops().unwrap();
        assert!((avg - 6.0).abs() < 1e-9, "avg {avg}");
    }

    #[test]
    fn duplicate_loop_changes_nothing() {
        let g = grid(4);
        let l = RectLoop::new(0, 1, 2, 3, Direction::Clockwise).unwrap();
        let mut m = HopMatrix::new(g);
        m.apply_loop(&g, &l);
        let snapshot = m.clone();
        let improved = m.apply_loop(&g, &l);
        assert_eq!(improved, 0);
        assert_eq!(m, snapshot);
    }

    #[test]
    fn sentinel_exceeds_any_loop_distance() {
        // Longest possible loop on NxN is the outer ring: 4N-4 nodes, so the
        // longest directed distance is 4N-5 < 5N.
        for n in [2usize, 4, 8, 10, 18] {
            let g = grid(n);
            assert!(4 * n - 5 < g.unconnected_hops());
        }
    }
}

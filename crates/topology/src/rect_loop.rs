use crate::{Coord, Grid, NodeId, TopologyError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Packet circulation direction around a [`RectLoop`].
///
/// The paper encodes this as the `dir` component of an action
/// `(x1, y1, x2, y2, dir)`, with `dir = 1` for clockwise and `dir = 0`
/// for counterclockwise circulation (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Clockwise circulation (with `y` growing downward: right along the top
    /// edge, down the right edge, left along the bottom edge, up the left
    /// edge).
    Clockwise,
    /// Counterclockwise circulation.
    Counterclockwise,
}

impl Direction {
    /// The opposite circulation direction.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Clockwise => Direction::Counterclockwise,
            Direction::Counterclockwise => Direction::Clockwise,
        }
    }

    /// Paper encoding: `1` for clockwise, `0` for counterclockwise.
    pub fn as_bit(self) -> u8 {
        match self {
            Direction::Clockwise => 1,
            Direction::Counterclockwise => 0,
        }
    }

    /// Decodes the paper's bit encoding (`dir > 0` ⇒ clockwise).
    pub fn from_bit(bit: u8) -> Direction {
        if bit > 0 {
            Direction::Clockwise
        } else {
            Direction::Counterclockwise
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Clockwise => write!(f, "CW"),
            Direction::Counterclockwise => write!(f, "CCW"),
        }
    }
}

/// A unidirectional rectangular wiring loop — the atomic building block of a
/// routerless NoC and the action unit of the paper's DRL framework.
///
/// A loop is specified by two diagonal corners and a circulation
/// [`Direction`]. Corners are normalized on construction so that
/// `(x_min, y_min)` and `(x_max, y_max)` are stored regardless of the
/// argument order, making structural equality match geometric equality.
///
/// Packets on a loop travel only in its circulation direction and never
/// switch loops mid-flight (routerless property), so the *directed* hop
/// distance between two on-loop nodes is generally asymmetric.
///
/// # Example
///
/// ```
/// use rlnoc_topology::{RectLoop, Direction, Grid};
/// # fn main() -> Result<(), rlnoc_topology::TopologyError> {
/// let grid = Grid::square(4)?;
/// let ring = RectLoop::new(0, 0, 3, 3, Direction::Clockwise)?;
/// assert_eq!(ring.num_nodes(), 12); // outer ring of a 4x4 grid
/// let a = grid.node_at(0, 0);
/// let b = grid.node_at(3, 0);
/// assert_eq!(ring.distance(&grid, a, b), Some(3));
/// assert_eq!(ring.distance(&grid, b, a), Some(9)); // the long way round
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RectLoop {
    x1: usize,
    y1: usize,
    x2: usize,
    y2: usize,
    dir: Direction,
}

impl RectLoop {
    /// Creates a rectangular loop with diagonal corners `(x1, y1)` and
    /// `(x2, y2)` and circulation direction `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DegenerateLoop`] when the corners share a row
    /// or column (`x1 == x2 || y1 == y2`), which the paper classifies as an
    /// *invalid* (non-rectangular) action.
    pub fn new(
        x1: usize,
        y1: usize,
        x2: usize,
        y2: usize,
        dir: Direction,
    ) -> Result<Self, TopologyError> {
        if x1 == x2 || y1 == y2 {
            return Err(TopologyError::DegenerateLoop {
                corner_a: (x1, y1),
                corner_b: (x2, y2),
            });
        }
        Ok(RectLoop {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
            dir,
        })
    }

    /// The normalized top-left corner `(x_min, y_min)`.
    pub fn top_left(&self) -> Coord {
        (self.x1, self.y1)
    }

    /// The normalized bottom-right corner `(x_max, y_max)`.
    pub fn bottom_right(&self) -> Coord {
        (self.x2, self.y2)
    }

    /// Circulation direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The same rectangle with opposite circulation.
    pub fn reversed(&self) -> RectLoop {
        RectLoop {
            dir: self.dir.reversed(),
            ..*self
        }
    }

    /// Rectangle width in links (number of columns spanned minus one).
    pub fn span_x(&self) -> usize {
        self.x2 - self.x1
    }

    /// Rectangle height in links (number of rows spanned minus one).
    pub fn span_y(&self) -> usize {
        self.y2 - self.y1
    }

    /// Number of nodes on the loop perimeter. Equal to the loop length in
    /// hops, since the loop is a cycle.
    pub fn num_nodes(&self) -> usize {
        2 * (self.span_x() + self.span_y())
    }

    /// Checks that the loop fits on `grid`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::LoopOutOfBounds`] if any corner exceeds the
    /// grid bounds.
    pub fn check_on(&self, grid: &Grid) -> Result<(), TopologyError> {
        if self.x2 < grid.width() && self.y2 < grid.height() {
            Ok(())
        } else {
            Err(TopologyError::LoopOutOfBounds {
                corners: (self.x1, self.y1, self.x2, self.y2),
                width: grid.width(),
                height: grid.height(),
            })
        }
    }

    /// Whether the coordinate `(x, y)` lies on the loop perimeter.
    pub fn contains_coord(&self, x: usize, y: usize) -> bool {
        let on_x_edge = (x == self.x1 || x == self.x2) && (self.y1..=self.y2).contains(&y);
        let on_y_edge = (y == self.y1 || y == self.y2) && (self.x1..=self.x2).contains(&x);
        on_x_edge || on_y_edge
    }

    /// Whether `node` (on `grid`) lies on the loop perimeter.
    pub fn contains(&self, grid: &Grid, node: NodeId) -> bool {
        let (x, y) = grid.coord_of(node);
        self.contains_coord(x, y)
    }

    /// Every clockwise rectangle that fits on `grid`, ordered by `x1`, then
    /// `x2`, then `y1`, then `y2` — the scan order of Algorithm 1 and of
    /// the environment's legal actions.
    pub fn all_clockwise(grid: &Grid) -> impl Iterator<Item = RectLoop> {
        let (w, h) = (grid.width(), grid.height());
        (0..w).flat_map(move |x1| {
            (x1 + 1..w).flat_map(move |x2| {
                (0..h).flat_map(move |y1| {
                    (y1 + 1..h).map(move |y2| RectLoop {
                        x1,
                        y1,
                        x2,
                        y2,
                        dir: Direction::Clockwise,
                    })
                })
            })
        })
    }

    /// The perimeter in clockwise order from the top-left corner; each edge
    /// stops short of its last corner so corners are not duplicated.
    fn clockwise_coords(&self) -> impl Iterator<Item = Coord> {
        let RectLoop { x1, y1, x2, y2, .. } = *self;
        (x1..x2)
            .map(move |x| (x, y1))
            .chain((y1..y2).map(move |y| (x2, y)))
            .chain((x1 + 1..=x2).rev().map(move |x| (x, y2)))
            .chain((y1 + 1..=y2).rev().map(move |y| (x1, y)))
    }

    /// The perimeter coordinates in circulation order, starting from the
    /// top-left corner.
    pub fn perimeter_coords(&self) -> Vec<Coord> {
        let mut out: Vec<Coord> = self.clockwise_coords().collect();
        if self.dir == Direction::Counterclockwise {
            // Reverse traversal order but keep the same starting node.
            out[1..].reverse();
        }
        out
    }

    /// The perimeter node ids on `grid`, in circulation order.
    ///
    /// # Panics
    ///
    /// Panics if the loop does not fit on `grid`; validate with
    /// [`RectLoop::check_on`] first.
    pub fn perimeter_nodes(&self, grid: &Grid) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.num_nodes());
        self.perimeter_nodes_into(grid, &mut out);
        out
    }

    /// [`RectLoop::perimeter_nodes`] into a caller-owned buffer, which is
    /// cleared first.
    ///
    /// # Panics
    ///
    /// Panics if the loop does not fit on `grid`.
    pub fn perimeter_nodes_into(&self, grid: &Grid, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.clockwise_coords().map(|(x, y)| grid.node_at(x, y)));
        if self.dir == Direction::Counterclockwise {
            out[1..].reverse();
        }
    }

    /// Position of `(x, y)` along the circulation order, or `None` if the
    /// coordinate is not on the perimeter.
    pub fn position_of_coord(&self, x: usize, y: usize) -> Option<usize> {
        if !self.contains_coord(x, y) {
            return None;
        }
        // Compute the clockwise position analytically, then convert.
        let (w, h) = (self.span_x(), self.span_y());
        let cw_pos = if y == self.y1 && x < self.x2 {
            x - self.x1 // top edge
        } else if x == self.x2 && y < self.y2 {
            w + (y - self.y1) // right edge
        } else if y == self.y2 && x > self.x1 {
            w + h + (self.x2 - x) // bottom edge
        } else {
            2 * w + h + (self.y2 - y) // left edge
        };
        Some(match self.dir {
            Direction::Clockwise => cw_pos,
            Direction::Counterclockwise => {
                if cw_pos == 0 {
                    0
                } else {
                    self.num_nodes() - cw_pos
                }
            }
        })
    }

    /// Directed hop distance from `src` to `dst` along the circulation
    /// direction, or `None` if either node is off the loop.
    ///
    /// The distance from a node to itself is `0`.
    pub fn distance(&self, grid: &Grid, src: NodeId, dst: NodeId) -> Option<usize> {
        let (sx, sy) = grid.coord_of(src);
        let (dx, dy) = grid.coord_of(dst);
        let ps = self.position_of_coord(sx, sy)?;
        let pd = self.position_of_coord(dx, dy)?;
        let len = self.num_nodes();
        Some((pd + len - ps) % len)
    }

    /// The directed links `(from, to)` of the loop on `grid`, in circulation
    /// order.
    pub fn links(&self, grid: &Grid) -> Vec<(NodeId, NodeId)> {
        let nodes = self.perimeter_nodes(grid);
        let n = nodes.len();
        (0..n).map(|i| (nodes[i], nodes[(i + 1) % n])).collect()
    }

    /// The action encoding used by the DRL agent: `(x1, y1, x2, y2, dir)`
    /// with `dir` as the paper's bit (§4.2).
    pub fn encode(&self) -> (usize, usize, usize, usize, u8) {
        (self.x1, self.y1, self.x2, self.y2, self.dir.as_bit())
    }
}

impl fmt::Display for RectLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "loop ({},{})-({},{}) {}",
            self.x1, self.y1, self.x2, self.y2, self.dir
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid4() -> Grid {
        Grid::square(4).unwrap()
    }

    #[test]
    fn degenerate_rejected() {
        assert!(matches!(
            RectLoop::new(1, 1, 1, 3, Direction::Clockwise),
            Err(TopologyError::DegenerateLoop { .. })
        ));
        assert!(matches!(
            RectLoop::new(0, 2, 3, 2, Direction::Clockwise),
            Err(TopologyError::DegenerateLoop { .. })
        ));
    }

    #[test]
    fn corners_normalized() {
        let a = RectLoop::new(3, 3, 0, 0, Direction::Clockwise).unwrap();
        let b = RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.top_left(), (0, 0));
        assert_eq!(a.bottom_right(), (3, 3));
        // Anti-diagonal corners normalize to the same rectangle too.
        let c = RectLoop::new(3, 0, 0, 3, Direction::Clockwise).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn perimeter_count_matches_formula() {
        for (x2, y2, expect) in [(1, 1, 4), (2, 1, 6), (3, 3, 12), (2, 3, 10)] {
            let l = RectLoop::new(0, 0, x2, y2, Direction::Clockwise).unwrap();
            assert_eq!(l.num_nodes(), expect);
            assert_eq!(l.perimeter_coords().len(), expect);
        }
    }

    #[test]
    fn clockwise_perimeter_order_2x2() {
        let l = RectLoop::new(0, 0, 1, 1, Direction::Clockwise).unwrap();
        assert_eq!(l.perimeter_coords(), vec![(0, 0), (1, 0), (1, 1), (0, 1)]);
    }

    #[test]
    fn counterclockwise_perimeter_order_2x2() {
        let l = RectLoop::new(0, 0, 1, 1, Direction::Counterclockwise).unwrap();
        assert_eq!(l.perimeter_coords(), vec![(0, 0), (0, 1), (1, 1), (1, 0)]);
    }

    #[test]
    fn perimeter_is_connected_cycle() {
        let g = grid4();
        for dir in [Direction::Clockwise, Direction::Counterclockwise] {
            let l = RectLoop::new(1, 0, 3, 2, dir).unwrap();
            let coords = l.perimeter_coords();
            for i in 0..coords.len() {
                let (ax, ay) = coords[i];
                let (bx, by) = coords[(i + 1) % coords.len()];
                assert_eq!(
                    ax.abs_diff(bx) + ay.abs_diff(by),
                    1,
                    "consecutive perimeter nodes must be grid neighbours"
                );
            }
            // All perimeter coords must satisfy contains_coord.
            for &(x, y) in &coords {
                assert!(l.contains_coord(x, y));
            }
            let _ = g;
        }
    }

    #[test]
    fn position_matches_perimeter_enumeration() {
        for dir in [Direction::Clockwise, Direction::Counterclockwise] {
            let l = RectLoop::new(0, 1, 2, 3, dir).unwrap();
            for (i, (x, y)) in l.perimeter_coords().into_iter().enumerate() {
                assert_eq!(l.position_of_coord(x, y), Some(i), "({x},{y}) dir {dir}");
            }
        }
    }

    #[test]
    fn distance_asymmetric_on_unidirectional_loop() {
        let g = grid4();
        let l = RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap();
        let a = g.node_at(0, 0);
        let b = g.node_at(0, 1); // directly below a: last perimeter node CW
        assert_eq!(l.distance(&g, a, b), Some(11));
        assert_eq!(l.distance(&g, b, a), Some(1));
        assert_eq!(l.distance(&g, a, a), Some(0));
    }

    #[test]
    fn distance_none_off_loop() {
        let g = grid4();
        let l = RectLoop::new(0, 0, 3, 3, Direction::Clockwise).unwrap();
        let inner = g.node_at(1, 1);
        assert_eq!(l.distance(&g, inner, g.node_at(0, 0)), None);
        assert_eq!(l.distance(&g, g.node_at(0, 0), inner), None);
    }

    #[test]
    fn reversed_flips_distance() {
        let g = grid4();
        let l = RectLoop::new(1, 1, 3, 3, Direction::Clockwise).unwrap();
        let r = l.reversed();
        let a = g.node_at(1, 1);
        let b = g.node_at(3, 3);
        let d_fwd = l.distance(&g, a, b).unwrap();
        let d_rev = r.distance(&g, a, b).unwrap();
        assert_eq!(d_fwd + d_rev, l.num_nodes());
    }

    #[test]
    fn links_form_cycle() {
        let g = grid4();
        let l = RectLoop::new(0, 0, 2, 2, Direction::Counterclockwise).unwrap();
        let links = l.links(&g);
        assert_eq!(links.len(), l.num_nodes());
        // Each node appears exactly once as a source and once as a sink.
        let mut out = vec![0usize; g.len()];
        let mut inc = vec![0usize; g.len()];
        for (a, b) in links {
            out[a] += 1;
            inc[b] += 1;
        }
        for n in g.nodes() {
            let expect = usize::from(l.contains(&g, n));
            assert_eq!(out[n], expect);
            assert_eq!(inc[n], expect);
        }
    }

    #[test]
    fn bounds_check() {
        let g = grid4();
        let l = RectLoop::new(0, 0, 4, 2, Direction::Clockwise).unwrap();
        assert!(matches!(
            l.check_on(&g),
            Err(TopologyError::LoopOutOfBounds { .. })
        ));
        let ok = RectLoop::new(0, 0, 3, 2, Direction::Clockwise).unwrap();
        assert!(ok.check_on(&g).is_ok());
    }

    #[test]
    fn encode_round_trip() {
        let l = RectLoop::new(1, 0, 3, 2, Direction::Counterclockwise).unwrap();
        let (x1, y1, x2, y2, d) = l.encode();
        let l2 = RectLoop::new(x1, y1, x2, y2, Direction::from_bit(d)).unwrap();
        assert_eq!(l, l2);
    }

    #[test]
    fn contains_coord_edges_only() {
        let l = RectLoop::new(0, 0, 2, 2, Direction::Clockwise).unwrap();
        assert!(l.contains_coord(0, 0));
        assert!(l.contains_coord(1, 0));
        assert!(l.contains_coord(2, 1));
        assert!(
            !l.contains_coord(1, 1),
            "interior nodes are not on the loop"
        );
        assert!(!l.contains_coord(3, 0));
    }

    #[test]
    fn all_clockwise_scans_x1_x2_y1_y2() {
        let g = Grid::new(4, 3).unwrap();
        let all: Vec<_> = RectLoop::all_clockwise(&g).map(|l| l.encode()).collect();
        // C(4, 2) column pairs × C(3, 2) row pairs.
        assert_eq!(all.len(), 6 * 3);
        assert_eq!(
            all[..3],
            [(0, 0, 1, 1, 1), (0, 0, 1, 2, 1), (0, 1, 1, 2, 1)]
        );
        let mut sorted = all.clone();
        sorted.sort_by_key(|&(x1, y1, x2, y2, _)| (x1, x2, y1, y2));
        assert_eq!(all, sorted);
    }
}

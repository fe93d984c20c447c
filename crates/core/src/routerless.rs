//! The routerless NoC design environment — the paper's case study.

use crate::env::Environment;
use crate::greedy::ScoreTable;
use rlnoc_nn::Tensor;
use rlnoc_topology::{Direction, Grid, RectLoop, Topology, TopologyError};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// An agent action: propose adding the rectangular loop with diagonal
/// corners `(x1, y1)`, `(x2, y2)` and circulation `dir` — the paper's
/// `(x1, y1, x2, y2, dir)` encoding (§4.2).
///
/// Unlike [`RectLoop`], a `LoopAction` may be degenerate (`x1 == x2` or
/// `y1 == y2`): proposing one is an *invalid* action that earns a −1
/// penalty rather than a construction error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopAction {
    /// First corner column.
    pub x1: usize,
    /// First corner row.
    pub y1: usize,
    /// Second corner column.
    pub x2: usize,
    /// Second corner row.
    pub y2: usize,
    /// Packet circulation direction.
    pub dir: Direction,
}

impl LoopAction {
    /// Creates an action from raw coordinates.
    pub fn new(x1: usize, y1: usize, x2: usize, y2: usize, dir: Direction) -> Self {
        LoopAction {
            x1,
            y1,
            x2,
            y2,
            dir,
        }
    }

    /// Converts to a validated [`RectLoop`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DegenerateLoop`] for non-rectangular
    /// proposals.
    pub fn to_loop(self) -> Result<RectLoop, TopologyError> {
        RectLoop::new(self.x1, self.y1, self.x2, self.y2, self.dir)
    }

    /// The categorical indices `(x1, y1, x2, y2)` used by the four policy
    /// heads, plus the clockwise flag for the direction head.
    pub fn head_indices(self) -> ([usize; 4], bool) {
        (
            [self.x1, self.y1, self.x2, self.y2],
            self.dir == Direction::Clockwise,
        )
    }
}

impl From<RectLoop> for LoopAction {
    fn from(l: RectLoop) -> Self {
        let (x1, y1, x2, y2, d) = l.encode();
        LoopAction::new(x1, y1, x2, y2, Direction::from_bit(d))
    }
}

/// Design constraints enforced by the environment: the paper's evaluation
/// caps node overlapping. Kept as a struct so the serialized environment
/// stays `{"constraints": {"overlap_cap": …}}`, the layout saved
/// checkpoints carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct DesignConstraints {
    /// Maximum loops through any node interface (wiring budget).
    overlap_cap: u32,
}

/// The routerless NoC environment: a [`Topology`] under construction with a
/// node-overlapping cap, implementing the paper's state encoding (§4.2) and
/// reward taxonomy (§4.3).
///
/// # Example
///
/// ```
/// use rlnoc_core::routerless::{RouterlessEnv, LoopAction};
/// use rlnoc_core::Environment;
/// use rlnoc_topology::{Direction, Grid};
///
/// let mut env = RouterlessEnv::new(Grid::square(2).unwrap(), 2);
/// let r = env.apply(LoopAction::new(0, 0, 1, 1, Direction::Clockwise));
/// assert_eq!(r, 0.0); // valid addition
/// let r = env.apply(LoopAction::new(0, 0, 1, 1, Direction::Clockwise));
/// assert_eq!(r, -1.0); // repetitive
/// ```
#[derive(Debug, Clone)]
pub struct RouterlessEnv {
    grid: Grid,
    constraints: DesignConstraints,
    topo: Topology,
    mesh_avg: f64,
    /// Sum of all rewards received since the last reset (penalties plus the
    /// final return once terminal).
    reward_accum: f64,
    /// Algorithm 1's scores of `topo`; derived, so never serialized.
    table: ScoreTable,
}

impl Serialize for RouterlessEnv {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("grid".into(), self.grid.serialize()),
            ("constraints".into(), self.constraints.serialize()),
            ("topo".into(), self.topo.serialize()),
            ("mesh_avg".into(), self.mesh_avg.serialize()),
            ("reward_accum".into(), self.reward_accum.serialize()),
        ])
    }
}

impl Deserialize for RouterlessEnv {
    /// Decodes the fields [`Serialize`] writes and rebuilds the score table
    /// by replaying the decoded design's loops.
    fn deserialize(value: &Value) -> Result<Self, SerdeError> {
        if value.as_object().is_none() {
            return Err(SerdeError::expected("object for RouterlessEnv", value));
        }
        let field = |name: &str| {
            value.get(name).ok_or_else(|| {
                SerdeError::custom(format!("missing field `{name}` in RouterlessEnv"))
            })
        };
        let grid = Grid::deserialize(field("grid")?)?;
        let constraints = DesignConstraints::deserialize(field("constraints")?)?;
        let topo = Topology::deserialize(field("topo")?)?;
        let mesh_avg = f64::deserialize(field("mesh_avg")?)?;
        let reward_accum = f64::deserialize(field("reward_accum")?)?;
        let table = ScoreTable::of(&topo, constraints.overlap_cap)
            .map_err(|e| SerdeError::custom(format!("RouterlessEnv design: {e}")))?;
        Ok(RouterlessEnv {
            grid,
            constraints,
            topo,
            mesh_avg,
            reward_accum,
            table,
        })
    }
}

impl RouterlessEnv {
    /// Creates a blank environment on `grid` with node-overlapping cap
    /// `cap`.
    pub fn new(grid: Grid, cap: u32) -> Self {
        RouterlessEnv {
            grid,
            constraints: DesignConstraints { overlap_cap: cap },
            topo: Topology::new(grid),
            table: ScoreTable::new(grid, cap),
            mesh_avg: rlnoc_topology::mesh::average_hops(&grid),
            reward_accum: 0.0,
        }
    }

    /// The grid being designed for.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The node-overlapping cap.
    pub fn overlap_cap(&self) -> u32 {
        self.constraints.overlap_cap
    }

    /// The design built so far.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Algorithm 1's per-rectangle scores and flags for the current design.
    pub fn score_table(&self) -> &ScoreTable {
        &self.table
    }

    /// Consumes the environment, returning the design.
    pub fn into_topology(self) -> Topology {
        self.topo
    }

    /// Average hop count of the current design (sentinel-weighted while
    /// incomplete).
    pub fn average_hops(&self) -> f64 {
        self.topo.average_hops()
    }

    /// Whether the current design is fully connected.
    pub fn is_fully_connected(&self) -> bool {
        self.topo.is_fully_connected()
    }

    /// The illegal-action penalty, −5·N for an N-wide grid (§4.3).
    pub fn illegal_penalty(&self) -> f64 {
        -(self.grid.unconnected_hops() as f64)
    }

    /// Classifies and applies an action without consuming it; shared by
    /// [`Environment::apply`].
    fn try_apply(&mut self, action: LoopAction) -> f64 {
        let ring = match action.to_loop() {
            Ok(r) => r,
            Err(_) => return -1.0, // invalid: not a rectangle
        };
        if ring.check_on(&self.grid).is_err() {
            return -1.0; // invalid: outside the grid
        }
        if self.table.is_placed(&ring) {
            return -1.0; // repetitive
        }
        if self.table.is_blocked(&ring) {
            return self.illegal_penalty(); // illegal: exceeds the overlap cap
        }
        self.table
            .add_loop(&mut self.topo, ring)
            .expect("validated above; addition cannot fail");
        0.0
    }
}

impl Environment for RouterlessEnv {
    type Action = LoopAction;

    fn reset(&mut self) {
        self.topo = Topology::new(self.grid);
        self.table.reset();
        self.reward_accum = 0.0;
    }

    fn state_key(&self) -> u64 {
        // Order-independent over the loop set: the same design reached via
        // different insertion orders is one MCTS node.
        let mut encoded: Vec<_> = self.topo.loops().iter().map(|l| l.encode()).collect();
        encoded.sort_unstable();
        let mut h = DefaultHasher::new();
        self.grid.hash(&mut h);
        encoded.hash(&mut h);
        h.finish()
    }

    fn state_tensor(&self) -> Tensor {
        let side = self.grid.len();
        let raw = self.topo.hop_matrix().to_state_tensor(&self.grid);
        // Normalize by the sentinel so inputs lie in [0, 1].
        let scale = 1.0 / self.grid.unconnected_hops() as f32;
        let data = raw.into_iter().map(|v| v * scale).collect();
        Tensor::from_vec(data, &[1, 1, side, side]).expect("N²·N² elements")
    }

    fn state_side(&self) -> usize {
        self.grid.len()
    }

    fn apply(&mut self, action: LoopAction) -> f64 {
        let r = self.try_apply(action);
        self.reward_accum += r;
        r
    }

    fn is_terminal(&self) -> bool {
        // Terminal when no legal loop remains under the cap.
        self.first_legal_action().is_none()
    }

    fn final_return(&self) -> f64 {
        self.mesh_avg - self.topo.average_hops()
    }

    fn legal_actions(&self) -> Vec<LoopAction> {
        let mut out = Vec::new();
        self.for_each_legal(|a| out.push(a));
        out
    }

    fn head_cardinality(&self) -> usize {
        self.grid.width().max(self.grid.height())
    }

    fn encode_action(&self, action: LoopAction) -> ([usize; 4], bool) {
        action.head_indices()
    }

    fn decode_action(&self, coords: [usize; 4], flag: bool) -> LoopAction {
        LoopAction::new(
            coords[0],
            coords[1],
            coords[2],
            coords[3],
            if flag {
                Direction::Clockwise
            } else {
                Direction::Counterclockwise
            },
        )
    }

    fn is_successful(&self) -> bool {
        self.is_fully_connected()
    }

    fn greedy_action(&self) -> Option<LoopAction> {
        crate::greedy::greedy_action(self)
    }

    fn completion_action(&self) -> Option<LoopAction> {
        if self.is_fully_connected() {
            crate::greedy::greedy_action(self)
        } else {
            crate::greedy::completion_action(self)
        }
    }
}

impl RouterlessEnv {
    /// Visits legal actions (both directions of every in-cap, non-duplicate
    /// rectangle) in scan order until `f` returns `false`.
    fn scan_legal(&self, mut f: impl FnMut(LoopAction) -> bool) {
        for (base, s) in self.table.states() {
            if s.blocked {
                continue;
            }
            for (ring, placed) in [(base, s.placed_cw), (base.reversed(), s.placed_ccw)] {
                if !placed && !f(ring.into()) {
                    return;
                }
            }
        }
    }

    /// Visits every legal action.
    fn for_each_legal(&self, mut f: impl FnMut(LoopAction)) {
        self.scan_legal(|a| {
            f(a);
            true
        });
    }

    /// The first legal action in scan order, if any.
    pub fn first_legal_action(&self) -> Option<LoopAction> {
        let mut found = None;
        self.scan_legal(|a| {
            found = Some(a);
            false
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env4() -> RouterlessEnv {
        RouterlessEnv::new(Grid::square(4).unwrap(), 6)
    }

    #[test]
    fn reward_taxonomy() {
        let mut env = env4();
        // Valid.
        assert_eq!(
            env.apply(LoopAction::new(0, 0, 3, 3, Direction::Clockwise)),
            0.0
        );
        // Repetitive.
        assert_eq!(
            env.apply(LoopAction::new(0, 0, 3, 3, Direction::Clockwise)),
            -1.0
        );
        // Invalid (degenerate).
        assert_eq!(
            env.apply(LoopAction::new(1, 0, 1, 3, Direction::Clockwise)),
            -1.0
        );
        // Invalid (out of bounds).
        assert_eq!(
            env.apply(LoopAction::new(0, 0, 4, 4, Direction::Clockwise)),
            -1.0
        );
        assert_eq!(env.topology().loops().len(), 1);
    }

    #[test]
    fn illegal_penalty_is_5n() {
        let mut env = RouterlessEnv::new(Grid::square(4).unwrap(), 1);
        assert_eq!(
            env.apply(LoopAction::new(0, 0, 3, 3, Direction::Clockwise)),
            0.0
        );
        // Any loop sharing a node with the first now violates cap 1.
        let r = env.apply(LoopAction::new(0, 0, 3, 3, Direction::Counterclockwise));
        assert_eq!(r, -20.0, "-5*N for N=4");
    }

    #[test]
    fn state_key_order_independent() {
        let a1 = LoopAction::new(0, 0, 1, 1, Direction::Clockwise);
        let a2 = LoopAction::new(2, 2, 3, 3, Direction::Clockwise);
        let mut e1 = env4();
        e1.apply(a1);
        e1.apply(a2);
        let mut e2 = env4();
        e2.apply(a2);
        e2.apply(a1);
        assert_eq!(e1.state_key(), e2.state_key());
        let mut e3 = env4();
        e3.apply(a1);
        assert_ne!(e1.state_key(), e3.state_key());
    }

    #[test]
    fn state_tensor_shape_and_normalization() {
        let mut env = env4();
        let t = env.state_tensor();
        assert_eq!(t.shape(), &[1, 1, 16, 16]);
        // Blank design: all off-diagonal entries are the sentinel → 1.0.
        assert_eq!(t.max(), 1.0);
        env.apply(LoopAction::new(0, 0, 3, 3, Direction::Clockwise));
        let t = env.state_tensor();
        assert!(t.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn terminal_when_cap_exhausted() {
        let mut env = RouterlessEnv::new(Grid::square(2).unwrap(), 1);
        assert!(!env.is_terminal());
        env.apply(LoopAction::new(0, 0, 1, 1, Direction::Clockwise));
        // Every node now has overlap 1 = cap; the only other loop (reverse
        // direction) would violate it.
        assert!(env.is_terminal());
        assert!(env.legal_actions().is_empty());
    }

    #[test]
    fn legal_actions_complete_and_legal() {
        let mut env = RouterlessEnv::new(Grid::square(3).unwrap(), 2);
        env.apply(LoopAction::new(0, 0, 2, 2, Direction::Clockwise));
        let legal = env.legal_actions();
        assert!(!legal.is_empty());
        for a in legal {
            let mut probe = env.clone();
            assert_eq!(probe.apply(a), 0.0, "advertised legal action {a:?}");
        }
    }

    #[test]
    fn final_return_improves_with_connectivity() {
        let mut env = env4();
        let blank = env.final_return();
        env.apply(LoopAction::new(0, 0, 3, 3, Direction::Clockwise));
        env.apply(LoopAction::new(0, 0, 3, 3, Direction::Counterclockwise));
        assert!(env.final_return() > blank, "connecting nodes must help");
        assert!(env.final_return() < 0.0, "still worse than mesh");
    }

    #[test]
    fn reset_restores_blank_state() {
        let mut env = env4();
        let blank_key = env.state_key();
        env.apply(LoopAction::new(0, 0, 2, 2, Direction::Clockwise));
        assert_ne!(env.state_key(), blank_key);
        env.reset();
        assert_eq!(env.state_key(), blank_key);
        assert!(env.topology().loops().is_empty());
    }

    #[test]
    fn head_indices_round_trip() {
        let a = LoopAction::new(1, 2, 3, 0, Direction::Counterclockwise);
        let (coords, cw) = a.head_indices();
        assert_eq!(coords, [1, 2, 3, 0]);
        assert!(!cw);
    }
}

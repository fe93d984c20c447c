//! Additional environments demonstrating the framework's broad
//! applicability (paper §6.8).
//!
//! The paper argues the same DNN+MCTS framework generalizes to other
//! NoC-related design problems by swapping the state/action encoding. This
//! module provides one concrete second environment: express-link insertion
//! on a mesh (a small-world / interposer-style wiring problem), reusing the
//! hop-count-matrix state encoding and the `(x1, y1, x2, y2, flag)` action
//! encoding unchanged.

use crate::env::Environment;
use rlnoc_nn::Tensor;
use rlnoc_topology::{Grid, NodeId};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// An express-link action: wire node `(x1, y1)` to `(x2, y2)`. When
/// `bidirectional` is set the link carries traffic both ways; otherwise
/// only forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkAction {
    /// Source column.
    pub x1: usize,
    /// Source row.
    pub y1: usize,
    /// Destination column.
    pub x2: usize,
    /// Destination row.
    pub y2: usize,
    /// Whether the link is usable in both directions.
    pub bidirectional: bool,
}

/// A mesh NoC augmented with long-range express links under a per-node
/// link-budget constraint — the §6.8 generalization example.
///
/// State: the same `N²×N²` hop-count matrix encoding as the routerless
/// environment, with hops computed by BFS over mesh + express links.
/// Rewards follow the paper's taxonomy: 0 for a valid link, −1 for
/// self-links/duplicates, −5·N for links that exceed the per-node budget.
///
/// # Example
///
/// ```
/// use rlnoc_core::envs::{ExpressLinkEnv, LinkAction};
/// use rlnoc_core::Environment;
/// use rlnoc_topology::Grid;
///
/// let mut env = ExpressLinkEnv::new(Grid::square(4).unwrap(), 2);
/// let base = env.average_hops();
/// env.apply(LinkAction { x1: 0, y1: 0, x2: 3, y2: 3, bidirectional: true });
/// assert!(env.average_hops() < base);
/// ```
#[derive(Debug, Clone)]
pub struct ExpressLinkEnv {
    grid: Grid,
    /// Maximum express links incident to any node.
    budget: u32,
    /// Express links added so far.
    links: Vec<LinkAction>,
    /// Express-link count per node.
    degree: Vec<u32>,
    mesh_avg: f64,
}

impl ExpressLinkEnv {
    /// Creates a mesh of `grid`'s dimensions with an express-link budget of
    /// `budget` links per node.
    pub fn new(grid: Grid, budget: u32) -> Self {
        ExpressLinkEnv {
            grid,
            budget,
            links: Vec::new(),
            degree: vec![0; grid.len()],
            mesh_avg: rlnoc_topology::mesh::average_hops(&grid),
        }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// The express links placed so far.
    pub fn links(&self) -> &[LinkAction] {
        &self.links
    }

    /// Average hop count over all ordered pairs of distinct nodes.
    pub fn average_hops(&self) -> f64 {
        let n = self.grid.len();
        let mut total = 0u64;
        for s in 0..n {
            let d = self.bfs_from(s);
            total += d.iter().map(|&x| u64::from(x)).sum::<u64>();
        }
        total as f64 / (n * (n - 1)) as f64
    }

    /// BFS hop counts from `src` over mesh plus express links.
    fn bfs_from(&self, src: NodeId) -> Vec<u32> {
        let n = self.grid.len();
        let (w, h) = (self.grid.width(), self.grid.height());
        let mut dist = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        dist[src] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let (x, y) = self.grid.coord_of(u);
            let push = |v: NodeId, dist: &mut Vec<u32>, q: &mut VecDeque<NodeId>| {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            };
            if x > 0 {
                push(u - 1, &mut dist, &mut q);
            }
            if x + 1 < w {
                push(u + 1, &mut dist, &mut q);
            }
            if y > 0 {
                push(u - w, &mut dist, &mut q);
            }
            if y + 1 < h {
                push(u + w, &mut dist, &mut q);
            }
            for l in &self.links {
                let a = self.grid.node_at(l.x1, l.y1);
                let b = self.grid.node_at(l.x2, l.y2);
                if a == u {
                    push(b, &mut dist, &mut q);
                } else if b == u && l.bidirectional {
                    push(a, &mut dist, &mut q);
                }
            }
        }
        dist
    }

    fn endpoints(&self, a: LinkAction) -> Option<(NodeId, NodeId)> {
        let src = self.grid.try_node_at(a.x1, a.y1)?;
        let dst = self.grid.try_node_at(a.x2, a.y2)?;
        Some((src, dst))
    }
}

impl Environment for ExpressLinkEnv {
    type Action = LinkAction;

    fn reset(&mut self) {
        self.links.clear();
        self.degree = vec![0; self.grid.len()];
    }

    fn state_key(&self) -> u64 {
        let mut sorted: Vec<_> = self
            .links
            .iter()
            .map(|l| (l.x1, l.y1, l.x2, l.y2, l.bidirectional))
            .collect();
        sorted.sort_unstable();
        let mut hsh = DefaultHasher::new();
        self.grid.hash(&mut hsh);
        sorted.hash(&mut hsh);
        hsh.finish()
    }

    fn state_tensor(&self) -> Tensor {
        let n = self.grid.len();
        let (w, hh) = (self.grid.width(), self.grid.height());
        let scale = 1.0 / self.grid.unconnected_hops() as f32;
        let mut out = vec![0f32; n * n];
        for src in 0..n {
            let dist = self.bfs_from(src);
            let (bx, by) = (src % w, src / w);
            for (dst, &d) in dist.iter().enumerate() {
                let (cx, cy) = (dst % w, dst / w);
                let row = by * hh + cy;
                let col = bx * w + cx;
                out[row * n + col] = d as f32 * scale;
            }
        }
        Tensor::from_vec(out, &[1, 1, n, n]).expect("N²·N² elements")
    }

    fn state_side(&self) -> usize {
        self.grid.len()
    }

    fn apply(&mut self, action: LinkAction) -> f64 {
        let Some((src, dst)) = self.endpoints(action) else {
            return -1.0; // outside the grid
        };
        if src == dst {
            return -1.0; // invalid: self link
        }
        if self.links.contains(&action) {
            return -1.0; // repetitive
        }
        if self.degree[src] + 1 > self.budget || self.degree[dst] + 1 > self.budget {
            return -(self.grid.unconnected_hops() as f64); // illegal
        }
        self.degree[src] += 1;
        self.degree[dst] += 1;
        self.links.push(action);
        0.0
    }

    fn is_terminal(&self) -> bool {
        self.legal_actions().is_empty()
    }

    fn final_return(&self) -> f64 {
        self.mesh_avg - self.average_hops()
    }

    fn legal_actions(&self) -> Vec<LinkAction> {
        let mut out = Vec::new();
        let n = self.grid.len();
        for s in 0..n {
            if self.degree[s] >= self.budget {
                continue;
            }
            for d in 0..n {
                if s == d || self.degree[d] >= self.budget {
                    continue;
                }
                let (x1, y1) = self.grid.coord_of(s);
                let (x2, y2) = self.grid.coord_of(d);
                for bidi in [false, true] {
                    let a = LinkAction {
                        x1,
                        y1,
                        x2,
                        y2,
                        bidirectional: bidi,
                    };
                    if !self.links.contains(&a) {
                        out.push(a);
                    }
                }
            }
        }
        out
    }

    fn head_cardinality(&self) -> usize {
        self.grid.width().max(self.grid.height())
    }

    fn encode_action(&self, a: LinkAction) -> ([usize; 4], bool) {
        ([a.x1, a.y1, a.x2, a.y2], a.bidirectional)
    }

    fn decode_action(&self, coords: [usize; 4], flag: bool) -> LinkAction {
        LinkAction {
            x1: coords[0],
            y1: coords[1],
            x2: coords[2],
            y2: coords[3],
            bidirectional: flag,
        }
    }

    fn is_successful(&self) -> bool {
        !self.links.is_empty() && self.average_hops() < self.mesh_avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> ExpressLinkEnv {
        ExpressLinkEnv::new(Grid::square(4).unwrap(), 1)
    }

    #[test]
    fn express_link_reduces_hops() {
        let mut e = env();
        let base = e.average_hops();
        assert!((base - rlnoc_topology::mesh::average_hops(e.grid())).abs() < 1e-9);
        let r = e.apply(LinkAction {
            x1: 0,
            y1: 0,
            x2: 3,
            y2: 3,
            bidirectional: true,
        });
        assert_eq!(r, 0.0);
        assert!(e.average_hops() < base);
        assert!(e.final_return() > 0.0);
        assert!(e.is_successful());
    }

    #[test]
    fn reward_taxonomy_matches_paper() {
        let mut e = env();
        // Self link: invalid.
        assert_eq!(
            e.apply(LinkAction {
                x1: 1,
                y1: 1,
                x2: 1,
                y2: 1,
                bidirectional: true
            }),
            -1.0
        );
        // Valid, then duplicate.
        let a = LinkAction {
            x1: 0,
            y1: 0,
            x2: 2,
            y2: 2,
            bidirectional: false,
        };
        assert_eq!(e.apply(a), 0.0);
        assert_eq!(e.apply(a), -1.0);
        // Budget exceeded (budget 1, node (0,0) already used): illegal −5·N.
        let b = LinkAction {
            x1: 0,
            y1: 0,
            x2: 3,
            y2: 0,
            bidirectional: false,
        };
        assert_eq!(e.apply(b), -20.0);
    }

    #[test]
    fn unidirectional_links_are_one_way() {
        let mut e = ExpressLinkEnv::new(Grid::square(4).unwrap(), 4);
        e.apply(LinkAction {
            x1: 0,
            y1: 0,
            x2: 3,
            y2: 3,
            bidirectional: false,
        });
        let fwd = e.bfs_from(e.grid.node_at(0, 0))[e.grid.node_at(3, 3)];
        let rev = e.bfs_from(e.grid.node_at(3, 3))[e.grid.node_at(0, 0)];
        assert_eq!(fwd, 1);
        assert_eq!(rev, 6, "reverse must fall back to the mesh");
    }

    #[test]
    fn framework_runs_on_express_env() {
        use crate::explorer::{Explorer, ExplorerConfig};
        let mut cfg = ExplorerConfig::fast();
        cfg.max_steps = 6;
        let env = ExpressLinkEnv::new(Grid::square(3).unwrap(), 1);
        let report = Explorer::new(env, cfg, 3).run_cycles(2);
        assert_eq!(report.cycles_run, 2);
        // Any design with a useful link counts as successful.
        assert!(report.designs.iter().any(|d| d.steps > 0));
    }

    #[test]
    fn state_key_insensitive_to_insertion_order() {
        let a = LinkAction {
            x1: 0,
            y1: 0,
            x2: 1,
            y2: 1,
            bidirectional: true,
        };
        let b = LinkAction {
            x1: 2,
            y1: 2,
            x2: 3,
            y2: 3,
            bidirectional: true,
        };
        let mut e1 = ExpressLinkEnv::new(Grid::square(4).unwrap(), 2);
        e1.apply(a);
        e1.apply(b);
        let mut e2 = ExpressLinkEnv::new(Grid::square(4).unwrap(), 2);
        e2.apply(b);
        e2.apply(a);
        assert_eq!(e1.state_key(), e2.state_key());
    }
}

//! NoC topology primitives for routerless network-on-chip design.
//!
//! This crate provides the structural substrate used throughout the `rlnoc`
//! workspace, reproducing the topology layer of *"A Deep Reinforcement
//! Learning Framework for Architectural Exploration: A Routerless NoC Case
//! Study"* (HPCA 2020):
//!
//! - [`Grid`]: an `N×M` arrangement of nodes (cores) identified by [`NodeId`],
//! - [`RectLoop`]: a unidirectional rectangular wiring loop (ring) placed on a
//!   grid, the paper's atomic design action,
//! - [`Topology`]: a set of loops on a grid, with node-overlapping accounting
//!   and connectivity queries,
//! - [`HopMatrix`]: the paper's §4.2 state encoding — an `N²×N²` matrix of
//!   pairwise directed hop counts, maintained incrementally as loops are
//!   added,
//! - [`RoutingTable`]: the per-source lookup table that routerless NoCs use
//!   to pick the loop carrying a packet to each destination,
//! - [`diversity`]: path-diversity and link-failure reliability metrics
//!   (paper §6.7),
//! - [`FaultSet`] + [`RoutingTable::rebuild_excluding`]: degraded-mode
//!   routing over surviving loops after loop failures, reported via
//!   [`ReachabilityReport`],
//! - [`mesh`] and [`reference`](crate::reference): router-based reference
//!   fabrics (mesh, single ring, hierarchical ring) used as comparison
//!   baselines.
//!
//! # Example
//!
//! Build the 2x2 routerless NoC from the paper's Figure 5 and inspect its
//! hop-count matrix:
//!
//! ```
//! use rlnoc_topology::{Grid, RectLoop, Direction, Topology};
//!
//! # fn main() -> Result<(), rlnoc_topology::TopologyError> {
//! let grid = Grid::new(2, 2)?;
//! let mut topo = Topology::new(grid);
//! topo.add_loop(RectLoop::new(0, 0, 1, 1, Direction::Clockwise)?)?;
//! assert!(topo.is_fully_connected());
//! // Average hop count over all ordered pairs of distinct nodes:
//! let avg = topo.hop_matrix().average_hops();
//! assert!((avg - 2.0).abs() < 1e-9); // 1+2+3 hops averaged over 3 pairs, symmetric
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod fault;
mod grid;
mod hops;
mod rect_loop;
mod routing;
mod topology;

pub mod diversity;
pub mod mesh;
pub mod reference;
pub mod render;

pub use error::TopologyError;
pub use fault::{FaultSet, ReachabilityReport};
pub use grid::{Coord, Grid, NodeId};
pub use hops::{HopMatrix, LoopScore};
pub use rect_loop::{Direction, RectLoop};
pub use routing::{Route, RoutingPolicy, RoutingTable};
pub use topology::Topology;

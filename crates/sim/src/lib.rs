//! Cycle-accurate flit-level NoC simulation for routerless and mesh
//! fabrics.
//!
//! This crate is the reproduction's substitute for Gem5 + Garnet2.0 (see
//! `DESIGN.md`): a synchronous, tick-per-cycle simulator capturing the
//! first-order behaviours the paper's evaluation depends on —
//!
//! - **routerless** ([`RouterlessSim`]): one dedicated wire ring per loop,
//!   single-cycle per hop, source routing via a per-node lookup table,
//!   injection only into free slots (passing traffic has priority),
//!   per-loop concurrent ejection;
//! - **mesh** ([`MeshSim`]): input-buffered wormhole routers with XY
//!   dimension-order routing, credit-based backpressure, and a configurable
//!   pipeline depth (2-cycle baseline `Mesh-2`, optimized 1-cycle `Mesh-1`,
//!   idealized 0-cycle `Mesh-0`);
//! - **synthetic traffic** ([`traffic`]): uniform random, tornado, bit
//!   complement, bit rotation, shuffle, and transpose, injected at a
//!   configurable flit rate with the paper's control/data packet mix;
//! - **measurement** ([`stats`], [`sweep`]): warm-up + measurement windows,
//!   average packet latency, hop counts, accepted throughput, and
//!   saturation sweeps (paper Figures 10 and 16).
//!
//! # Example
//!
//! ```
//! use rlnoc_sim::{RouterlessSim, SimConfig, traffic::Pattern, run_synthetic};
//! use rlnoc_baselines::rec_topology;
//! use rlnoc_topology::Grid;
//!
//! let topo = rec_topology(Grid::square(4).unwrap()).unwrap();
//! let mut sim = RouterlessSim::new(&topo);
//! let cfg = SimConfig { warmup: 200, measure: 500, ..SimConfig::default() };
//! let m = run_synthetic(&mut sim, Pattern::UniformRandom, 0.02, &cfg, 1);
//! assert!(m.avg_packet_latency() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
mod config;
mod error;
mod fault;
mod ledger;
mod mesh;
mod packet;
mod routerless;
mod runner;

pub mod reference;
pub mod stats;
pub mod sweep;
pub mod traffic;

pub use config::SimConfig;
pub use error::SimError;
pub use fault::{FaultEvent, FaultPlan};
pub use mesh::MeshSim;
pub use packet::{Flit, Packet, PacketKind};
pub use routerless::RouterlessSim;
pub use runner::{
    run_synthetic, run_synthetic_checked, run_with_source, run_with_source_traced, Delivery,
    Network, PacketSource,
};
pub use stats::Metrics;

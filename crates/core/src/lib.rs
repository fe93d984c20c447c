//! The deep reinforcement learning framework of the paper — the primary
//! contribution being reproduced.
//!
//! The framework (paper Figure 4) couples three pieces:
//!
//! 1. a two-headed policy/value DNN ([`rlnoc_nn::PolicyValueNet`]) that
//!    proposes design actions and estimates returns,
//! 2. a Monte-Carlo tree search ([`mcts`]) that records explored designs and
//!    balances exploitation of known-good branches against exploration
//!    (Equations 21–22, with an ε-greedy override running the deterministic
//!    greedy sweep of Algorithm 1),
//! 3. an advantage actor-critic learner ([`policy`], Equations 15–18) that
//!    trains the DNN from each exploration cycle — no pre-existing dataset.
//!
//! The framework is generic over an [`Environment`] (§6.8 "broad
//! applicability"); the paper's case study, routerless NoC loop placement,
//! is implemented in [`routerless`]. Multi-threaded exploration with a
//! parent parameter server (§4.6, Figure 8) lives in [`parallel`].
//!
//! # Example
//!
//! Explore 4x4 routerless NoC designs for a few cycles:
//!
//! ```
//! use rlnoc_core::routerless::RouterlessEnv;
//! use rlnoc_core::explorer::{Explorer, ExplorerConfig};
//! use rlnoc_topology::Grid;
//!
//! let env = RouterlessEnv::new(Grid::square(4).unwrap(), 6);
//! let mut explorer = Explorer::new(env, ExplorerConfig::fast(), 42);
//! let report = explorer.run_cycles(3);
//! assert!(report.cycles_run == 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod chaos;
pub mod checkpoint;
pub mod env;
pub mod envs;
pub mod explorer;
pub mod greedy;
pub mod mcts;
pub mod parallel;
pub mod policy;
pub mod replay;
pub mod rollout;
pub mod routerless;

pub use cache::{CacheStats, EvalCache, EvalCacheHandle, NoCache};
pub use chaos::{ChaosInjector, ChaosPlan};
pub use checkpoint::{CheckpointConfig, CheckpointError, ExploreCheckpoint};
pub use env::Environment;
pub use explorer::{DesignResult, ExploreReport, Explorer, ExplorerConfig};
pub use mcts::{Mcts, MctsConfig};
pub use parallel::{
    explore_parallel, explore_parallel_checkpointed, explore_parallel_supervised, AnomalyKind,
    AnomalyReport, ExploreError, SupervisedReport,
};
pub use policy::{Episode, PolicyAgent, Step, TrainConfig};
pub use routerless::{LoopAction, RouterlessEnv};

//! A from-scratch neural-network library for the `rlnoc` workspace.
//!
//! The paper's DRL agent uses a deep residual convolutional network with two
//! output heads (policy and value, Figure 6c). No ML framework dependency is
//! allowed in this reproduction, so this crate implements the required
//! machinery directly:
//!
//! - [`Tensor`]: a dense row-major `f32` tensor with NCHW convention,
//! - layers ([`layers`]): 2-D convolution, batch normalization, max pooling,
//!   fully connected, ReLU/Tanh activations, and residual blocks,
//! - [`PolicyValueNet`]: the paper's two-headed architecture, parameterized
//!   by grid size and channel widths,
//! - [`optim`]: SGD with momentum and Adam, with global-norm gradient
//!   clipping,
//! - [`loss`]: softmax/cross-entropy utilities and the advantage
//!   actor-critic gradients of the paper's Equations 17–18.
//!
//! Everything runs on CPU with deterministic seeding, sized for the
//! laptop-scale experiments in this reproduction.
//!
//! # Example
//!
//! ```
//! use rlnoc_nn::{PolicyValueNet, PolicyValueConfig, Tensor};
//!
//! let cfg = PolicyValueConfig::small(4); // 4x4 NoC → 16x16 state matrix
//! let mut net = PolicyValueNet::new(cfg, 42);
//! let state = Tensor::zeros(&[1, 1, 16, 16]);
//! let out = net.forward(&state, false);
//! assert_eq!(out.coord_logits.shape(), &[1, 4, 4]); // 4 heads × N logits
//! assert_eq!(out.value.shape(), &[1, 1]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

mod error;
#[allow(unsafe_code)] // the lane intrinsics; see the module docs
mod simd;
mod tensor;

pub mod init;
pub mod instrument;
pub mod kernels;
pub mod layers;
pub mod loss;
pub mod net;
pub mod optim;
pub mod reference;

pub use error::NnError;
pub use net::{PolicyValueConfig, PolicyValueNet, PolicyValueOutput};
pub use tensor::Tensor;

//! Synthetic network substrate for the overlay multicast experiments.
//!
//! The paper assumes hosts are mapped to Euclidean points by a system like
//! GNP (its reference \[12\]) and builds trees on the coordinates. This crate
//! provides that whole pipeline so the "future work" experiment — how do
//! the trees perform on *true* delays after a lossy embedding — is
//! runnable:
//!
//! * [`WaxmanConfig`] / [`Graph`] — Internet-like random underlays with
//!   propagation delays and shortest-path routing.
//! * [`DelayMatrix`] — measured end-to-end delays between chosen hosts,
//!   plus embedding-quality metrics ([`stress`],
//!   [`median_relative_error`]).
//! * [`gnp_embed`] — GNP-style landmark embedding into any dimension.
//! * [`vivaldi_embed`] — decentralized spring embedding.
//! * [`true_delays`] / [`distortion_report`] — evaluate an overlay tree
//!   built on embedded coordinates against the measured delays.
//! * [`matrix_compact_tree`] — the coordinate-free quadratic reference:
//!   greedy minimum-delay trees built directly on the measured matrix.
//!
//! # Examples
//!
//! ```
//! use omt_net::{DelayMatrix, GnpConfig, WaxmanConfig, gnp_embed};
//! use omt_rng::rngs::SmallRng;
//! use omt_rng::SeedableRng;
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let underlay = WaxmanConfig { routers: 80, ..WaxmanConfig::default() }.sample(&mut rng);
//! let hosts: Vec<usize> = (0..30).collect();
//! let delays = DelayMatrix::from_graph(&underlay, &hosts);
//! let embedding = gnp_embed::<3>(&delays, &GnpConfig::default(), &mut rng);
//! assert_eq!(embedding.coordinates.len(), 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod distortion;
mod gnp;
mod graph;
mod matrix_tree;
mod staleness;
mod vivaldi;

pub use delay::{median_relative_error, stress, DelayMatrix};
pub use distortion::{distortion_report, true_delays, true_radius, DistortionReport};
pub use gnp::{gnp_embed, GnpConfig, GnpEmbedding};
pub use graph::{Graph, WaxmanConfig};
pub use matrix_tree::{matrix_compact_tree, MatrixTree};
pub use staleness::CoordDrift;
pub use vivaldi::{vivaldi_embed, VivaldiConfig};

//! Degree-constrained rooted multicast trees.
//!
//! The output object of every algorithm in this workspace: a spanning tree
//! over receiver points rooted at a multicast source, where edge weights are
//! Euclidean distances (the unicast delays of the overlay model in *Overlay
//! Multicast Trees of Minimal Delay*).
//!
//! * [`TreeBuilder`] — incremental top-down construction that makes cycles
//!   unrepresentable and enforces the out-degree budget per attachment.
//! * [`MulticastTree`] — the immutable result: parents, children (CSR),
//!   cached delays and hop counts, traversal iterators.
//! * [`TreeMetrics`] — radius / diameter / stretch / fanout summaries.
//! * [`MulticastTree::validate`] — from-scratch invariant re-verification
//!   for tests and debugging.
//! * [`validate_parent_forest`] — the same spanning/acyclicity/degree checks
//!   on a bare parent array, for maintenance structures that validate per
//!   membership event without materializing a snapshot.
//! * [`MulticastTree::to_dot`] / [`MulticastTree::to_edge_list`] —
//!   GraphViz and plain-text exchange formats (with a parser).
//! * [`MulticastTree::to_svg`] — dependency-free SVG rendering of 2-D
//!   trees.
//!
//! # Examples
//!
//! ```
//! use omt_geom::Point2;
//! use omt_tree::TreeBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let points = vec![
//!     Point2::new([1.0, 0.0]),
//!     Point2::new([0.0, 1.0]),
//!     Point2::new([2.0, 0.0]),
//! ];
//! let mut builder = TreeBuilder::new(Point2::ORIGIN, points).max_out_degree(2);
//! builder.attach_to_source(0)?;
//! builder.attach_to_source(1)?;
//! builder.attach(2, 0)?;
//! let tree = builder.finish()?;
//! assert_eq!(tree.radius(), 2.0);
//! tree.validate(Some(2))?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arena;
pub mod builder;
pub mod error;
pub mod export;
mod forest;
pub mod iter;
pub mod metrics;
pub mod svg;
mod tree;

pub use arena::{check_node_capacity, FinishStage, TreeArena, MAX_NODES};
pub use builder::TreeBuilder;
pub use error::{TreeError, ValidationError};
pub use forest::validate_parent_forest;
pub use iter::{Bfs, Dfs, PathToSource};
pub use metrics::TreeMetrics;
pub use svg::SvgOptions;
pub use tree::{MulticastTree, NodeId, ParentRef};

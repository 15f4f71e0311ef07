//! # fg-graph — graph substrate for the Forgiving Graph workspace
//!
//! The shared foundation of the [Forgiving Graph] reproduction: a simple
//! undirected graph with stable, tombstoned node ids ([`Graph`]), BFS-based
//! measurement primitives ([`traversal`]), deterministic workload generators
//! ([`generators`]), sorted small-vector containers ([`SortedSet`],
//! [`SortedMap`]) and frozen CSR snapshots ([`FrozenCsr`]).
//!
//! Ids are never reused after removal because the paper's metrics are
//! defined against `G'` — the graph of *everything ever inserted* — so a
//! node id must stay meaningful after the adversary kills the node.
//!
//! [Forgiving Graph]: https://arxiv.org/abs/0902.2501
//!
//! ## Example
//!
//! ```
//! use fg_graph::{generators, traversal};
//!
//! let g = generators::connected_erdos_renyi(64, 0.05, 42);
//! assert!(traversal::is_connected(&g));
//! let d = traversal::diameter_exact(&g).unwrap();
//! assert!(d >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
mod error;
pub mod generators;
mod graph;
mod id;
mod sorted;
pub mod traversal;

pub use csr::FrozenCsr;
pub use error::GraphError;
pub use graph::Graph;
pub use id::{EdgeKey, NodeId};
pub use sorted::{SortedMap, SortedSet};

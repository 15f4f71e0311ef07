//! # fg-core — the Forgiving Graph
//!
//! A reference implementation of *The Forgiving Graph: a distributed data
//! structure for low stretch under adversarial attack* (Hayes, Saia,
//! Trehan; PODC 2009, [arXiv:0902.2501]).
//!
//! An omniscient adversary alternates between inserting nodes (with
//! arbitrary attachments) and deleting nodes. After every deletion the
//! network heals itself by adding a few edges, so that at all times
//!
//! * **degree**: `deg(v, G) ≤ 3 · deg(v, G')`, and
//! * **stretch**: `dist(x, y, G) ≤ ⌈log₂ n⌉ · dist(x, y, G')`,
//!
//! where `G'` is the graph of everything ever inserted (ignoring
//! deletions) and `n` counts all nodes ever seen.
//!
//! [`ForgivingGraph`] is the sequential reference engine; the `fg-dist`
//! crate runs the same repair as a message-passing protocol and converges
//! to identical state.
//!
//! [arXiv:0902.2501]: https://arxiv.org/abs/0902.2501
//!
//! ## Example
//!
//! ```
//! use fg_core::ForgivingGraph;
//! use fg_graph::{generators, traversal, NodeId};
//!
//! // Adopt a network, kill its highest-degree node, stay connected.
//! let mut fg = ForgivingGraph::from_graph(&generators::barabasi_albert(64, 2, 7))?;
//! let hub = fg.image().iter().max_by_key(|&v| fg.image().degree(v)).unwrap();
//! fg.delete(hub)?;
//! assert!(traversal::is_connected(fg.image()));
//! assert!(fg.max_degree_ratio() <= 3.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod engine;
mod error;
mod event;
mod forest;
mod healer;
mod image;
mod merge;
pub mod plan;
pub mod query;
mod slot;
mod snapshot;
mod stats;
pub mod view;

pub use api::{BatchReport, HealOutcome, InsertReport, RepairReport, ReportDigest};
pub use engine::{ForgivingGraph, PhaseTimes, PlacementPolicy};
pub use error::EngineError;
pub use event::NetworkEvent;
pub use forest::{Forest, VNode};
pub use healer::SelfHealer;
pub use image::ImageGraph;
pub use query::{stretch_ratio, QueryOps};
pub use slot::{Slot, VKey, VKind};
pub use stats::EngineStats;
pub use view::{epoch_of, FrozenView, GraphView, View};

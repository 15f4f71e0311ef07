//! # fg-baselines — what the Forgiving Graph is measured against
//!
//! Implementations of [`fg_core::SelfHealer`] for:
//!
//! * the **Forgiving Tree** (PODC 2008) — the paper's direct predecessor,
//!   rebuilt as reconstruction trees over a spanning tree
//!   ([`ForgivingTree`]), and
//! * the **naive healers** — no-heal, cycle, star, clique and
//!   per-deletion binary trees — that bracket the degree/stretch design
//!   space (see [`NoHealer`] and friends).
//!
//! The E4/E5/E9 experiments run every healer under identical attack
//! traces via [`fg_core::SelfHealer::apply_batch`] and tabulate the
//! paper's metrics.
//!
//! ## Example
//!
//! ```
//! use fg_baselines::{CycleHealer, NoHealer};
//! use fg_core::SelfHealer;
//! use fg_graph::{generators, traversal, NodeId};
//!
//! let g = generators::star(8);
//! let mut none = NoHealer::from_graph(&g);
//! let mut ring = CycleHealer::from_graph(&g);
//! none.delete(NodeId::new(0))?;
//! ring.delete(NodeId::new(0))?;
//! assert!(!traversal::is_connected(none.image()));
//! assert!(traversal::is_connected(ring.image()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod forgiving_tree;
mod naive;

pub use forgiving_tree::ForgivingTree;
pub use naive::{BinaryTreeHealer, CliqueHealer, CycleHealer, NoHealer, StarHealer};

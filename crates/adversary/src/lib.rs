//! # fg-adversary — omniscient attack strategies
//!
//! The Forgiving Graph's adversary (paper §2) sees the whole topology and
//! the healing algorithm, and per step either deletes any node or inserts
//! a node with arbitrary attachments. This crate provides a library of
//! such adversaries — random failure, targeted hub attacks, articulation-
//! point attacks, the Theorem 2 star construction, and realistic churn —
//! plus the driver loop that runs them against any
//! [`fg_core::SelfHealer`].
//!
//! ## Example
//!
//! ```
//! use fg_adversary::{run_attack, MaxDegreeDeleter};
//! use fg_core::ForgivingGraph;
//! use fg_graph::{generators, traversal};
//!
//! let mut fg = ForgivingGraph::from_graph(&generators::barabasi_albert(40, 2, 1))?;
//! let mut attack = MaxDegreeDeleter::new(10);
//! let log = run_attack(&mut fg, &mut attack, 1_000)?;
//! assert_eq!(log.deletions, 30);
//! assert!(traversal::is_connected(fg.image()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod driver;
mod strategies;

pub use driver::{run_attack, AttackLog};
pub use strategies::{
    articulation_points, Adversary, AttackView, ChurnAdversary, Composite, CutPointDeleter,
    MaxDegreeDeleter, PreferentialInserter, RandomDeleter, StarSmash,
};

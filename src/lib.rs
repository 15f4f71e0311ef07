//! # forgiving-graph — umbrella crate
//!
//! A full reproduction of *The Forgiving Graph: a distributed data
//! structure for low stretch under adversarial attack* (Hayes, Saia,
//! Trehan; PODC 2009). Re-exports every layer of the workspace; DESIGN.md
//! §1 lays out the crates and §5 lists the binary that reproduces each
//! paper claim.
//!
//! ```
//! use forgiving_graph::core::ForgivingGraph;
//! use forgiving_graph::graph::generators;
//!
//! let mut fg = ForgivingGraph::from_graph(&generators::star(9))?;
//! fg.delete(forgiving_graph::graph::NodeId::new(0))?;
//! assert!(forgiving_graph::graph::traversal::is_connected(fg.image()));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use fg_adversary as adversary;
pub use fg_baselines as baselines;
pub use fg_bench as bench;
pub use fg_core as core;
pub use fg_dist as dist;
pub use fg_graph as graph;
pub use fg_haft as haft;
pub use fg_metrics as metrics;
pub use fg_serve as serve;
pub use fg_store as store;

/// One-stop imports for driving any healer through the typed
/// operation/outcome API — write side *and* read side: every healer
/// hands out epoch-stamped snapshot views (`view()`) answering
/// [`QueryOps`](fg_core::QueryOps) reads, and `view().freeze()`
/// builds the [`FrozenView`](fg_core::FrozenView) the server answers
/// from (each later publish advances it with
/// [`FrozenView::advance`](fg_core::FrozenView::advance)).
///
/// ```
/// use forgiving_graph::prelude::*;
///
/// let g = fg_graph::generators::star(9);
/// let mut engine = ForgivingGraph::from_graph(&g)?;
/// let mut protocol = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
/// for healer in [&mut engine as &mut dyn SelfHealer, &mut protocol] {
///     let report = healer.delete(NodeId::new(0))?;
///     assert_eq!(report.leaves_created, 8);
///     // The read side: snapshot views answer distance/stretch queries.
///     let view = healer.view();
///     assert!(view.distance(NodeId::new(1), NodeId::new(2)).is_some());
/// }
/// # Ok::<(), fg_core::EngineError>(())
/// ```
pub mod prelude {
    pub use fg_adversary::{run_attack, AttackLog};
    pub use fg_baselines::{
        BinaryTreeHealer, CliqueHealer, CycleHealer, ForgivingTree, NoHealer, StarHealer,
    };
    pub use fg_bench::{scenario, QueryMix, QueryWorkload, Scenario, ScenarioRunner, WORKLOADS};
    pub use fg_core::{
        stretch_ratio, BatchReport, EngineError, ForgivingGraph, GraphView, HealOutcome,
        InsertReport, NetworkEvent, PlacementPolicy, QueryOps, RepairReport, SelfHealer, View,
    };
    pub use fg_dist::{DistHealer, Network, RepairCost};
    pub use fg_graph::{Graph, NodeId};
    pub use fg_metrics::measure;
    pub use fg_serve::{
        spawn_writer, Client, Publisher, ReplicaNode, Server, ServerConfig, SnapshotHub,
    };
    pub use fg_store::{
        DurableHealer, DurableOptions, Persistable, RecoveryReport, ReplListener, Replica,
    };
}

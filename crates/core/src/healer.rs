//! The [`SelfHealer`] abstraction: anything that maintains a network under
//! adversarial insertions and deletions.
//!
//! The Forgiving Graph, the distributed protocol (`fg_dist::DistHealer`),
//! the Forgiving Tree, and the naive healing baselines all implement this
//! trait, so adversaries (`fg-adversary`), measurements (`fg-metrics`)
//! and workloads (`fg-bench`) can be written once and compared head to
//! head — which is how the E4/E5/E9 experiments and the differential
//! suite are built.
//!
//! Every operation returns a typed outcome (see [`crate::api`]): inserts
//! yield [`InsertReport`]s, deletes yield [`RepairReport`]s, and batches
//! yield [`BatchReport`]s with aggregate envelope accounting.

use crate::api::{BatchReport, HealOutcome, InsertReport, RepairReport};
use crate::engine::PhaseTimes;
use crate::error::EngineError;
use crate::event::NetworkEvent;
use crate::view::View;
use fg_graph::{Graph, NodeId};

/// A self-healing network under the paper's insert/delete attack model
/// (Figure 1).
///
/// Implementations maintain two views:
/// * the **image** — the network that actually exists right now, and
/// * the **ghost** `G'` — everything ever inserted, ignoring deletions,
///   which is the reference frame for the degree and stretch metrics.
pub trait SelfHealer {
    /// Short human-readable strategy name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Adversarially inserts a node attached to `neighbors`, reporting
    /// what was attached.
    ///
    /// # Errors
    ///
    /// Implementations reject empty, duplicate or dead neighbour lists
    /// with [`EngineError`].
    fn insert(&mut self, neighbors: &[NodeId]) -> Result<InsertReport, EngineError>;

    /// Adversarially deletes `v`, runs this strategy's repair, and
    /// reports what the repair did.
    ///
    /// # Errors
    ///
    /// [`EngineError::NotAlive`] if `v` is unknown or already deleted.
    fn delete(&mut self, v: NodeId) -> Result<RepairReport, EngineError>;

    /// The current healed network.
    fn image(&self) -> &Graph;

    /// The insert-only graph `G'`.
    fn ghost(&self) -> &Graph;

    /// Whether `v` is currently alive.
    fn is_alive(&self, v: NodeId) -> bool {
        self.image().contains(v)
    }

    /// This healer's structural epoch: `nodes_ever + deletions_ever`,
    /// advancing by exactly one per applied event (see
    /// [`crate::view::epoch_of`]).
    fn epoch(&self) -> u64 {
        crate::view::epoch_of(self.image(), self.ghost())
    }

    /// An epoch-stamped read-only snapshot of this healer's state — the
    /// entry point of the query API. All reads
    /// ([`distance`](crate::QueryOps::distance),
    /// [`path`](crate::QueryOps::path),
    /// [`stretch`](crate::QueryOps::stretch), …) hang off the returned
    /// view through the [`crate::QueryOps`] extension trait; see
    /// [`crate::view`] for the snapshot semantics.
    ///
    /// The borrow makes the snapshot stable for free: no write can run
    /// while a view is alive. Healers whose reads must be globally
    /// consistent with an internal execution engine (the distributed
    /// protocol's round loop) hand out views only at consistent points —
    /// `fg_dist` runs every repair to quiescence before returning, so its
    /// views are always quiescent snapshots.
    fn view(&self) -> View<'_> {
        View::over(self.image(), self.ghost())
    }

    /// Starts per-phase wall-clock profiling, for healers that support it
    /// (see [`crate::ForgivingGraph::enable_profiling`]). The default is
    /// a no-op so the trait stays object-safe and implementations without
    /// a phase structure need no changes.
    fn enable_profiling(&mut self) {}

    /// Cumulative [`PhaseTimes`] since [`SelfHealer::enable_profiling`],
    /// or `None` when unsupported or off.
    fn phase_times(&self) -> Option<PhaseTimes> {
        None
    }

    /// Applies one adversarial event, returning its typed outcome.
    ///
    /// # Errors
    ///
    /// Propagates the underlying insert/delete error.
    fn apply_event(&mut self, event: &NetworkEvent) -> Result<HealOutcome, EngineError> {
        match event {
            NetworkEvent::Insert { neighbors } => {
                self.insert(neighbors).map(|report| HealOutcome::Inserted {
                    node: report.node,
                    report,
                })
            }
            NetworkEvent::Delete { node } => self
                .delete(*node)
                .map(|report| HealOutcome::Repaired { report }),
        }
    }

    /// Ingests a batch of adversarial events, stopping at the first
    /// error, and returns the per-op outcomes plus aggregates.
    ///
    /// The default implementation applies events one by one; healers with
    /// cheaper bulk paths (deferred index rebuilds, amortised allocation)
    /// may override it. The `fg-bench` ScenarioRunner feeds workloads
    /// through this entry point.
    ///
    /// # Errors
    ///
    /// The first failing event's error, wrapped as
    /// [`EngineError::AtEvent`] with its batch index; earlier events stay
    /// applied.
    fn apply_batch(&mut self, events: &[NetworkEvent]) -> Result<BatchReport, EngineError> {
        let mut batch = BatchReport::new();
        for (index, event) in events.iter().enumerate() {
            let outcome = self
                .apply_event(event)
                .map_err(|source| EngineError::at_event(index, event, source))?;
            batch.push(outcome);
        }
        Ok(batch)
    }
}

impl SelfHealer for crate::ForgivingGraph {
    fn name(&self) -> &'static str {
        "forgiving-graph"
    }

    fn insert(&mut self, neighbors: &[NodeId]) -> Result<InsertReport, EngineError> {
        self.insert_report(neighbors)
    }

    fn delete(&mut self, v: NodeId) -> Result<RepairReport, EngineError> {
        crate::ForgivingGraph::delete(self, v)
    }

    fn image(&self) -> &Graph {
        crate::ForgivingGraph::image(self)
    }

    fn ghost(&self) -> &Graph {
        crate::ForgivingGraph::ghost(self)
    }

    fn is_alive(&self, v: NodeId) -> bool {
        crate::ForgivingGraph::is_alive(self, v)
    }

    fn enable_profiling(&mut self) {
        crate::ForgivingGraph::enable_profiling(self);
    }

    fn phase_times(&self) -> Option<PhaseTimes> {
        crate::ForgivingGraph::phase_times(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ForgivingGraph;
    use fg_graph::generators;

    #[test]
    fn forgiving_graph_is_a_self_healer() {
        let mut fg = ForgivingGraph::from_graph(&generators::star(5)).unwrap();
        let healer: &mut dyn SelfHealer = &mut fg;
        assert_eq!(healer.name(), "forgiving-graph");
        let outcome = healer
            .apply_event(&NetworkEvent::delete(NodeId::new(0)))
            .unwrap();
        let report = outcome.repair().expect("deletion yields a repair");
        assert_eq!(report.ghost_degree, 4);
        assert_eq!(report.alive_neighbors, 4);
        assert!(!healer.is_alive(NodeId::new(0)));
        assert_eq!(healer.image().node_count(), 4);
        assert_eq!(healer.ghost().node_count(), 5);
        let outcome = healer
            .apply_event(&NetworkEvent::insert([NodeId::new(1)]))
            .unwrap();
        assert_eq!(outcome.node(), Some(NodeId::new(5)));
        assert_eq!(healer.image().node_count(), 5);
    }

    #[test]
    fn batch_reports_aggregate_and_pinpoint_errors() {
        let mut fg = ForgivingGraph::from_graph(&generators::star(6)).unwrap();
        let batch = fg
            .apply_batch(&[
                NetworkEvent::insert([NodeId::new(1)]),
                NetworkEvent::delete(NodeId::new(0)),
            ])
            .unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.inserts, 1);
        assert_eq!(batch.deletes, 1);
        assert!(batch.edges_added >= 1);

        // The second delete of node 0 fails; the error carries index 1.
        let err = fg
            .apply_batch(&[
                NetworkEvent::insert([NodeId::new(1)]),
                NetworkEvent::delete(NodeId::new(0)),
            ])
            .unwrap_err();
        match err {
            EngineError::AtEvent { index, source, .. } => {
                assert_eq!(index, 1);
                assert_eq!(*source, EngineError::NotAlive(NodeId::new(0)));
            }
            other => panic!("expected AtEvent, got {other:?}"),
        }
        // The insert before the failure stayed applied.
        assert_eq!(fg.ghost().node_count(), 8);
    }
}

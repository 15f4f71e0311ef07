//! [`DistHealer`]: the message-passing protocol behind the shared
//! [`SelfHealer`] façade.
//!
//! [`crate::Network`] is the raw protocol machine — actors, rounds,
//! Lemma 4 cost accounting. `DistHealer` adapts it to the typed
//! operation/outcome API of `fg_core::api`, so the adversary driver, the
//! ScenarioRunner and the differential suite can drive the distributed
//! protocol exactly the way they drive the sequential engine and every
//! baseline — and receive the *same* structural
//! [`fg_core::RepairReport`]s, bit for bit.

use fg_core::{EngineError, InsertReport, PlacementPolicy, RepairReport, SelfHealer};
use fg_graph::{Graph, NodeId};

use crate::cost::RepairCost;
use crate::network::Network;

/// The distributed protocol as a [`SelfHealer`].
///
/// # Examples
///
/// ```
/// use fg_core::{PlacementPolicy, SelfHealer};
/// use fg_dist::DistHealer;
/// use fg_graph::{generators, NodeId};
///
/// let mut healer = DistHealer::from_graph(&generators::star(9), PlacementPolicy::Adjacent);
/// let report = healer.delete(NodeId::new(0))?;
/// assert_eq!(report.ghost_degree, 8);
/// assert_eq!(report.leaves_created, 8);
/// // Lemma 4 message accounting stays available underneath the façade.
/// assert!(healer.costs().last().unwrap().normalized_messages() < 16.0);
/// # Ok::<(), fg_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct DistHealer {
    net: Network,
}

impl DistHealer {
    /// Wraps an existing protocol network.
    pub fn new(net: Network) -> Self {
        DistHealer { net }
    }

    /// Adopts `g` as `G_0` (see [`Network::from_graph`]).
    ///
    /// # Panics
    ///
    /// Panics if `g` contains removed (tombstoned) nodes.
    pub fn from_graph(g: &Graph, policy: PlacementPolicy) -> Self {
        DistHealer::new(Network::from_graph(g, policy))
    }

    /// [`DistHealer::from_graph`]; the width argument is ignored. Kept
    /// only until `perfbench`'s heal-replay calls `from_graph` instead.
    #[doc(hidden)]
    pub fn from_graph_threaded(g: &Graph, policy: PlacementPolicy, _threads: usize) -> Self {
        DistHealer::from_graph(g, policy)
    }

    /// The underlying protocol network (forest snapshots, vnode counts).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The Lemma 4 accounting of every repair run so far, in order.
    pub fn costs(&self) -> &[RepairCost] {
        &self.net.repair_costs
    }
}

impl SelfHealer for DistHealer {
    fn name(&self) -> &'static str {
        "fg-dist"
    }

    fn insert(&mut self, neighbors: &[NodeId]) -> Result<InsertReport, EngineError> {
        self.net.insert_report(neighbors)
    }

    fn delete(&mut self, v: NodeId) -> Result<RepairReport, EngineError> {
        self.net.delete_report(v).map(|(report, _)| report)
    }

    fn image(&self) -> &Graph {
        self.net.image()
    }

    fn ghost(&self) -> &Graph {
        self.net.ghost()
    }

    fn is_alive(&self, v: NodeId) -> bool {
        self.net.is_alive(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::NetworkEvent;
    use fg_graph::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn self_healer_surface_works() {
        let mut healer = DistHealer::from_graph(&generators::star(5), PlacementPolicy::Adjacent);
        let dynamic: &mut dyn SelfHealer = &mut healer;
        assert_eq!(dynamic.name(), "fg-dist");
        let outcome = dynamic.apply_event(&NetworkEvent::delete(n(0))).unwrap();
        assert!(outcome.is_repair());
        assert!(!dynamic.is_alive(n(0)));
        assert_eq!(dynamic.image().node_count(), 4);
        let outcome = dynamic
            .apply_event(&NetworkEvent::insert([n(1), n(2)]))
            .unwrap();
        assert_eq!(outcome.node(), Some(n(5)));
        assert_eq!(healer.costs().len(), 1);
    }

    #[test]
    fn views_are_barrier_consistent_snapshots() {
        use fg_core::{GraphView, QueryOps};
        let g = generators::star(9);
        let mut dist = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
        let mut engine = fg_core::ForgivingGraph::from_graph(&g).unwrap();
        let _ = SelfHealer::delete(&mut dist, n(0)).unwrap();
        let _ = engine.delete(n(0)).unwrap();
        // The protocol's view is taken after the repair quiesced, so it
        // answers exactly like the engine's.
        let (dv, ev) = (dist.view(), engine.view());
        assert_eq!(dv.epoch(), ev.epoch());
        for u in 1..9u32 {
            for v in 1..9u32 {
                assert_eq!(dv.distance(n(u), n(v)), ev.distance(n(u), n(v)));
                assert_eq!(dv.stretch(n(u), n(v)), ev.stretch(n(u), n(v)));
            }
        }
        assert_eq!(dist.network().view().epoch(), dv.epoch());
    }

    #[test]
    fn batches_pinpoint_failing_events() {
        let mut healer = DistHealer::from_graph(&generators::path(4), PlacementPolicy::Adjacent);
        let err = healer
            .apply_batch(&[NetworkEvent::delete(n(1)), NetworkEvent::delete(n(1))])
            .unwrap_err();
        match err {
            EngineError::AtEvent { index, source, .. } => {
                assert_eq!(index, 1);
                assert_eq!(*source, EngineError::NotAlive(n(1)));
            }
            other => panic!("expected AtEvent, got {other:?}"),
        }
    }
}

//! The read-side query API: [`QueryOps`] over any [`GraphView`].
//!
//! The paper frames the Forgiving Graph as a *data structure answering
//! distance queries between repairs* — this module is that API surface.
//! [`QueryOps`] is blanket-implemented for every [`GraphView`], so any
//! view obtained from a [`SelfHealer`](crate::SelfHealer) (engine,
//! distributed protocol, baselines) answers:
//!
//! * [`distance`](QueryOps::distance) / [`path`](QueryOps::path) — exact
//!   shortest hops on the healed image, by the bidirectional BFS kernel
//!   in [`fg_graph::traversal`];
//! * [`neighbors`](QueryOps::neighbors) / [`degree`](QueryOps::degree) /
//!   [`same_component`](QueryOps::same_component) — local and
//!   connectivity reads;
//! * [`stretch`](QueryOps::stretch) — the paper's success metric for one
//!   pair: image distance over distance in the remembered ideal graph
//!   `G'`, via the single shared ratio convention [`stretch_ratio`]
//!   (the same definition `fg_metrics`' aggregate measurements consume).
//!
//! The served read path answers the same surface from a published
//! [`FrozenView`](crate::FrozenView), whose CSR kernels return identical
//! answers, paths included node for node.

use crate::view::GraphView;
use fg_graph::{traversal, NodeId};

/// The single stretch-ratio convention, shared by [`QueryOps::stretch`]
/// and `fg_metrics`' aggregate stretch measurements:
///
/// * both distances known → `image / max(1, ghost)`;
/// * connected in `G'` but not in the image → `∞` (a healing failure);
/// * disconnected in `G'` → `None` (legitimately disconnected; the pair
///   is not measured).
pub fn stretch_ratio(ghost: Option<u32>, image: Option<u32>) -> Option<f64> {
    match (ghost, image) {
        (Some(g), Some(i)) => Some(f64::from(i) / f64::from(g.max(1))),
        (Some(_), None) => Some(f64::INFINITY),
        (None, _) => None,
    }
}

/// Read operations over a snapshot view, blanket-implemented for every
/// [`GraphView`].
///
/// All answers are **exact** (never approximations) and refer to the
/// view's epoch. Pairwise operations return `None` when an endpoint is
/// not live in the image.
///
/// # Examples
///
/// ```
/// use fg_core::query::QueryOps;
/// use fg_core::{ForgivingGraph, SelfHealer};
/// use fg_graph::{generators, NodeId};
///
/// let mut fg = ForgivingGraph::from_graph(&generators::cycle(8))?;
/// fg.delete(NodeId::new(3))?;
/// let view = fg.view();
/// let (u, v) = (NodeId::new(2), NodeId::new(4));
/// let d = view.distance(u, v).unwrap();
/// let path = view.path(u, v).unwrap();
/// assert_eq!(path.len() as u32, d + 1);
/// assert!(view.same_component(u, v));
/// // Stretch compares the healed route against ghost distance 2
/// // (through the deleted node) — the repair may even shortcut it.
/// assert_eq!(view.stretch(u, v), Some(f64::from(d) / 2.0));
/// assert_eq!(view.degree(NodeId::new(3)), None); // dead nodes answer None
/// # Ok::<(), fg_core::EngineError>(())
/// ```
pub trait QueryOps: GraphView {
    /// Whether `u` is live in the image at this view's epoch.
    fn alive(&self, u: NodeId) -> bool {
        self.image().contains(u)
    }

    /// `u`'s degree in the healed image; `None` when `u` is not live.
    fn degree(&self, u: NodeId) -> Option<usize> {
        self.alive(u).then(|| self.image().degree(u))
    }

    /// `u`'s image neighbours in increasing id order (empty when dead).
    fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        self.image().neighbor_vec(u)
    }

    /// Exact shortest-path hops between `u` and `v` in the healed image
    /// (bidirectional BFS); `None` when either is dead or the pair is
    /// disconnected.
    fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        traversal::bidirectional_distance(self.image(), u, v)
    }

    /// A shortest image path from `u` to `v` inclusive of both
    /// endpoints: exactly `distance(u, v) + 1` nodes, consecutive nodes
    /// adjacent.
    fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        traversal::shortest_path(self.image(), u, v)
    }

    /// Whether `u` and `v` are live and mutually reachable in the image.
    fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.distance(u, v).is_some()
    }

    /// The pair's network stretch: image distance over distance in the
    /// remembered ideal graph `G'` (whose paths may pass through deleted
    /// nodes), per [`stretch_ratio`]. `None` when an endpoint is dead or
    /// the pair is disconnected even in `G'`.
    fn stretch(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if !self.alive(u) || !self.alive(v) {
            return None;
        }
        let ghost = traversal::bidirectional_distance(self.ghost(), u, v);
        let image = traversal::bidirectional_distance(self.image(), u, v);
        stretch_ratio(ghost, image)
    }
}

impl<T: GraphView + ?Sized> QueryOps for T {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForgivingGraph, SelfHealer};
    use fg_graph::generators;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn stretch_ratio_convention() {
        assert_eq!(stretch_ratio(Some(2), Some(3)), Some(1.5));
        assert_eq!(stretch_ratio(Some(0), Some(0)), Some(0.0));
        assert_eq!(stretch_ratio(Some(4), None), Some(f64::INFINITY));
        assert_eq!(stretch_ratio(None, Some(3)), None);
        assert_eq!(stretch_ratio(None, None), None);
    }

    #[test]
    fn query_ops_answers_match_ground_truth() {
        let mut fg = ForgivingGraph::from_graph(&generators::cycle(10)).unwrap();
        let _ = fg.delete(n(4)).unwrap();
        let view = fg.view();
        // 3 and 5 were cycle-adjacent to the victim; the repair keeps
        // them connected within the stretch bound.
        let d = view.distance(n(3), n(5)).unwrap();
        let path = view.path(n(3), n(5)).unwrap();
        assert_eq!(path.len() as u32, d + 1);
        for pair in path.windows(2) {
            assert!(view.image().has_edge(pair[0], pair[1]));
        }
        assert!(view.same_component(n(3), n(5)));
        // Ghost distance is 2 (through the dead node).
        assert_eq!(view.stretch(n(3), n(5)), Some(f64::from(d) / 2.0));
        assert_eq!(view.distance(n(3), n(4)), None);
        assert_eq!(view.stretch(n(4), n(5)), None);
        assert_eq!(view.degree(n(4)), None);
        assert_eq!(view.neighbors(n(4)), Vec::<NodeId>::new());
        assert!(view.degree(n(3)).unwrap() >= 2);
    }
}

//! Read-side snapshots: [`GraphView`], the epoch-stamped window onto a
//! healer's image and ghost graphs, and [`FrozenView`], its published
//! CSR form.
//!
//! The Forgiving Graph exists to *serve queries* while under attack —
//! "how far is `u` from `v` right now?" — yet writes (insert, delete,
//! repair) and reads live on very different paths. [`GraphView`] is the
//! read side's foundation: a cheap, read-only, **epoch-stamped** view of
//! a healer's state, obtained from any [`SelfHealer`] via
//! [`SelfHealer::view`]. The sequential engine, the distributed protocol
//! (whose views are materialized at round barriers — see
//! `fg_dist::Network::view`) and every baseline healer all produce them
//! through the same façade.
//!
//! The **epoch** is a structural state stamp derived from the two graphs
//! themselves: `nodes_ever + deletions_ever` (each insert grows
//! `nodes_ever` by one, each delete grows the tombstone count by one),
//! so it advances by exactly one per adversarial event and never
//! repeats. Two views of the same healer with equal epochs are views of
//! identical state, and a [`FrozenView`] keeps the stamp of the view it
//! was frozen from, so a served answer names the state it was computed
//! on.
//!
//! [`SelfHealer`]: crate::SelfHealer
//! [`SelfHealer::view`]: crate::SelfHealer::view

use fg_graph::{FrozenCsr, Graph, NodeId};
use std::sync::Arc;

/// The structural epoch of an (image, ghost) pair:
/// `nodes_ever + deletions_ever`.
///
/// Monotone, and advances by exactly one per adversarial event: an
/// insertion grows `ghost.nodes_ever()` by one (deletions unchanged), a
/// deletion tombstones one image node (`nodes_ever` unchanged). The
/// sequential engine and the distributed protocol hold bit-identical
/// graphs, so their epochs agree at every point of every trace.
pub fn epoch_of(image: &Graph, ghost: &Graph) -> u64 {
    let ever = ghost.nodes_ever() as u64;
    let dead = ever.saturating_sub(image.node_count() as u64);
    ever + dead
}

/// A stable, cheap, epoch-stamped read-only view of a self-healing
/// network: the healed image `G`, the remembered ideal graph `G'`
/// (insert-only ghost), and the epoch the snapshot was taken at.
///
/// All read operations — [`distance`], [`path`], [`stretch`],
/// [`neighbors`], [`degree`], [`same_component`] — are provided by the
/// [`QueryOps`] extension trait, blanket-implemented for every
/// `GraphView`.
///
/// [`distance`]: crate::query::QueryOps::distance
/// [`path`]: crate::query::QueryOps::path
/// [`stretch`]: crate::query::QueryOps::stretch
/// [`neighbors`]: crate::query::QueryOps::neighbors
/// [`degree`]: crate::query::QueryOps::degree
/// [`same_component`]: crate::query::QueryOps::same_component
/// [`QueryOps`]: crate::query::QueryOps
pub trait GraphView {
    /// The healed network `G` as of this view's epoch.
    fn image(&self) -> &Graph;

    /// The remembered ideal graph `G'` (everything ever inserted,
    /// deletions ignored) as of this view's epoch.
    fn ghost(&self) -> &Graph;

    /// The structural state stamp this view was taken at (see
    /// [`epoch_of`]).
    fn epoch(&self) -> u64;

    /// Publishes this view as an immutable, owned [`FrozenView`]: both
    /// graphs are copied into [`FrozenCsr`] layout (contiguous
    /// offsets+targets over dense live ids) under the same epoch stamp.
    ///
    /// Freezing costs one `O(live + edges)` pass per side. It is the
    /// first publish of a history; every later one advances the last
    /// snapshot instead ([`FrozenView::advance`]), re-reading only the
    /// rows the events changed (see DESIGN.md §12).
    fn freeze(&self) -> FrozenView
    where
        Self: Sized,
    {
        FrozenView {
            image: Arc::new(FrozenCsr::from_graph(self.image())),
            ghost: Arc::new(FrozenCsr::from_graph(self.ghost())),
            epoch: self.epoch(),
        }
    }
}

/// An owned, immutable, epoch-stamped snapshot of a healer's state in
/// [`FrozenCsr`] layout — the publication unit of the freeze-and-query
/// idiom: a writer publishes one `FrozenView` per epoch, readers pin it
/// and answer every query from contiguous arrays without borrowing the
/// healer. It is the one served read path: the server answers every
/// read from the `FrozenView` of the snapshot it pinned.
///
/// `FrozenView` answers the full [`QueryOps`](crate::query::QueryOps)
/// surface through inherent methods (it deliberately does *not*
/// implement [`GraphView`] — there are no live `Graph`s behind it).
/// Answers are bit-identical to the live-view path at the same epoch,
/// shortest paths included node for node.
///
/// Both CSRs sit behind [`Arc`]s, so successive epochs share whatever
/// did not change: [`advance`](FrozenView::advance) reuses the ghost
/// across a deletion, and either CSR when its graph did not change.
/// Cloning a `FrozenView` costs two reference counts.
///
/// # Examples
///
/// ```
/// use fg_core::view::GraphView;
/// use fg_core::query::QueryOps;
/// use fg_core::{ForgivingGraph, SelfHealer};
/// use fg_graph::{generators, NodeId};
///
/// let mut fg = ForgivingGraph::from_graph(&generators::cycle(8))?;
/// fg.delete(NodeId::new(3))?;
/// let frozen = fg.view().freeze();
/// let (u, v) = (NodeId::new(2), NodeId::new(4));
/// assert_eq!(frozen.epoch(), fg.view().epoch());
/// assert_eq!(frozen.distance(u, v), fg.view().distance(u, v));
/// assert_eq!(frozen.stretch(u, v), fg.view().stretch(u, v));
/// # Ok::<(), fg_core::EngineError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenView {
    image: Arc<FrozenCsr>,
    ghost: Arc<FrozenCsr>,
    epoch: u64,
}

impl FrozenView {
    /// The snapshot of `view`, built from this one: equal to
    /// `view.freeze()`, at the cost of what changed in between.
    ///
    /// Each side is brought up to date on its own. A CSR taken from that
    /// graph at its current [`version`](Graph::version) is shared through
    /// its `Arc`: every deletion leaves `G′` untouched, and a publish with
    /// nothing applied leaves both graphs untouched. Any other CSR is
    /// advanced by [`FrozenCsr::advance`], which re-reads only the rows the
    /// graph stamped as changed, and freezes from scratch a graph of
    /// another history.
    pub fn advance(&self, view: &impl GraphView) -> FrozenView {
        FrozenView {
            image: advance_csr(&self.image, view.image()),
            ghost: advance_csr(&self.ghost, view.ghost()),
            epoch: view.epoch(),
        }
    }

    /// The epoch the snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The frozen healed image `G`.
    pub fn image(&self) -> &FrozenCsr {
        &self.image
    }

    /// The frozen ideal graph `G'`.
    pub fn ghost(&self) -> &FrozenCsr {
        &self.ghost
    }

    /// Whether `u` was live in the image at this epoch.
    pub fn alive(&self, u: NodeId) -> bool {
        self.image.contains(u)
    }

    /// `u`'s image degree; `None` when `u` is not live. Mirrors
    /// [`QueryOps::degree`](crate::query::QueryOps::degree).
    pub fn degree(&self, u: NodeId) -> Option<usize> {
        self.image.degree(u)
    }

    /// `u`'s image neighbors in increasing id order (empty when dead).
    pub fn neighbors(&self, u: NodeId) -> Vec<NodeId> {
        self.image.neighbors(u).collect()
    }

    /// Exact shortest-path hops in the image, by the dense bidirectional
    /// kernel. Mirrors [`QueryOps::distance`](crate::query::QueryOps::distance).
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.image.bidirectional_distance(u, v)
    }

    /// A shortest image path, node-identical to the live kernel's.
    /// Mirrors [`QueryOps::path`](crate::query::QueryOps::path).
    pub fn path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.image.shortest_path(u, v)
    }

    /// Whether `u` and `v` are live and mutually reachable in the image.
    pub fn same_component(&self, u: NodeId, v: NodeId) -> bool {
        self.distance(u, v).is_some()
    }

    /// The pair's network stretch, per
    /// [`stretch_ratio`](crate::query::stretch_ratio). Mirrors
    /// [`QueryOps::stretch`](crate::query::QueryOps::stretch).
    pub fn stretch(&self, u: NodeId, v: NodeId) -> Option<f64> {
        if !self.alive(u) || !self.alive(v) {
            return None;
        }
        let ghost = self.ghost.bidirectional_distance(u, v);
        let image = self.image.bidirectional_distance(u, v);
        crate::query::stretch_ratio(ghost, image)
    }
}

/// `g` frozen from `csr`: shared when `csr` reflects `g` as it is,
/// advanced otherwise.
fn advance_csr(csr: &Arc<FrozenCsr>, g: &Graph) -> Arc<FrozenCsr> {
    if csr.reflects(g) {
        Arc::clone(csr)
    } else {
        Arc::new(csr.advance(g))
    }
}

/// The concrete view every [`SelfHealer`](crate::SelfHealer) hands out:
/// two borrowed graphs plus the epoch stamp. Borrowing the healer is
/// what makes the snapshot *stable* — the borrow checker guarantees no
/// write can interleave while the view is alive, so there is nothing to
/// copy and nothing to lock.
///
/// # Examples
///
/// ```
/// use fg_core::query::QueryOps;
/// use fg_core::view::GraphView;
/// use fg_core::{ForgivingGraph, SelfHealer};
/// use fg_graph::{generators, NodeId};
///
/// let mut fg = ForgivingGraph::from_graph(&generators::star(9))?;
/// fg.delete(NodeId::new(0))?;
/// let view = fg.view();
/// assert_eq!(view.epoch(), 10); // 9 nodes ever + 1 deletion.
/// // Spokes that sat at ghost distance 2 stay within the stretch bound.
/// let d = view.distance(NodeId::new(1), NodeId::new(2)).unwrap();
/// assert!((1..=8).contains(&d));
/// assert_eq!(
///     view.stretch(NodeId::new(1), NodeId::new(2)),
///     Some(f64::from(d) / 2.0), // ghost distance 2, through the hub
/// );
/// # Ok::<(), fg_core::EngineError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    image: &'a Graph,
    ghost: &'a Graph,
    epoch: u64,
}

impl<'a> View<'a> {
    /// A view over an (image, ghost) pair, stamped via [`epoch_of`].
    ///
    /// This is also how measurement code builds ad-hoc views over bare
    /// graphs (e.g. `fg_metrics` cross-checking a healer against a
    /// materialized reference image).
    pub fn over(image: &'a Graph, ghost: &'a Graph) -> View<'a> {
        View {
            image,
            ghost,
            epoch: epoch_of(image, ghost),
        }
    }
}

impl GraphView for View<'_> {
    fn image(&self) -> &Graph {
        self.image
    }

    fn ghost(&self) -> &Graph {
        self.ghost
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForgivingGraph, SelfHealer};
    use fg_graph::{generators, NodeId};

    #[test]
    fn epoch_advances_by_one_per_event() {
        let mut fg = ForgivingGraph::from_graph(&generators::path(6)).unwrap();
        let e0 = fg.view().epoch();
        assert_eq!(e0, 6); // 6 nodes ever, 0 deletions.
        let _ = fg.insert(&[NodeId::new(0)]).unwrap();
        assert_eq!(fg.view().epoch(), e0 + 1);
        let _ = fg.delete(NodeId::new(2)).unwrap();
        assert_eq!(fg.view().epoch(), e0 + 2);
        assert_eq!(SelfHealer::epoch(&fg), e0 + 2);
    }

    #[test]
    fn view_exposes_the_same_graphs_as_the_healer() {
        let mut fg = ForgivingGraph::from_graph(&generators::star(5)).unwrap();
        let _ = fg.delete(NodeId::new(0)).unwrap();
        let view = fg.view();
        assert_eq!(view.image(), fg.image());
        assert_eq!(view.ghost(), fg.ghost());
        assert_eq!(view.epoch(), epoch_of(fg.image(), fg.ghost()));
    }

    #[test]
    fn ad_hoc_views_over_bare_graphs() {
        let g = generators::cycle(5);
        let view = View::over(&g, &g);
        assert_eq!(view.epoch(), 5);
        assert_eq!(view.image().edge_count(), 5);
    }
}

//! A simple undirected graph with stable node ids and cache-friendly,
//! sorted adjacency lists.
//!
//! This is the substrate shared by every layer of the workspace: the
//! insert-only ghost graph `G'`, the healed image graph `G`, the baselines
//! and the distributed simulator all store their topology in a [`Graph`].
//!
//! Nodes are never re-numbered: removing a node leaves a tombstone so that
//! ids stay valid for the lifetime of the experiment, matching the paper's
//! model where `n` counts every node ever seen.
//!
//! A graph also records *where* it changed, so a frozen snapshot can be
//! brought up to date by re-reading only those rows
//! ([`FrozenCsr::advance`](crate::FrozenCsr::advance)). Every successful
//! mutation bumps a [`version`](Graph::version) counter and stamps each
//! row it changed with the new version: both endpoints of an added or
//! removed edge, a removed node and each of its former neighbours, a new
//! node. The stamp goes on the row itself and on the block of 16 ids
//! holding it, so a reader finds the changed rows by scanning blocks.
//! [`changed_since`](Graph::changed_since) lists the ids of every block
//! stamped after a given version. A [`lineage`](Graph::lineage), fresh for
//! every constructed or cloned graph, says which history those versions
//! count. The tracking is bookkeeping, not structure: equality compares
//! nodes and edges only.

use crate::sorted::SortedSet;
use crate::{EdgeKey, GraphError, NodeId};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ids per change stamp: [`Graph::changed_since`] reports changed rows in
/// aligned blocks of this many ids.
const CHANGE_BLOCK: usize = 16;

/// Source of [`Graph::lineage`] ids, unique within the process.
static LINEAGES: AtomicU64 = AtomicU64::new(0);

fn fresh_lineage() -> u64 {
    // Relaxed: the counter only hands out distinct ids and publishes no
    // other data.
    LINEAGES.fetch_add(1, Ordering::Relaxed)
}

/// An undirected simple graph over dense [`NodeId`]s with tombstoned removal.
///
/// Adjacency lists are sorted vectors ([`SortedSet`]) — one contiguous
/// allocation per node, iterated in ascending id order — so that every
/// iteration order in the workspace is deterministic; the repair protocol
/// depends on this for reproducibility.
///
/// # Examples
///
/// ```
/// use fg_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b)?;
/// g.add_edge(b, c)?;
/// assert_eq!(g.degree(b), 2);
/// assert_eq!(g.node_count(), 3);
/// g.remove_node(b)?;
/// assert_eq!(g.node_count(), 2);
/// assert!(!g.has_edge(a, b));
/// # Ok::<(), fg_graph::GraphError>(())
/// ```
#[derive(Debug, Serialize, Deserialize)]
pub struct Graph {
    adjacency: Vec<SortedSet<NodeId>>,
    alive: Vec<bool>,
    live_nodes: usize,
    live_edges: usize,
    /// Successful mutations so far.
    version: u64,
    /// Per aligned block of [`CHANGE_BLOCK`] ids, the version that last
    /// changed a row in it.
    changed_at: Vec<u64>,
    /// Per id, the version that last changed its row.
    row_changed_at: Vec<u64>,
    /// Which history `version` and the stamps count.
    lineage: u64,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Graph {
            adjacency: Vec::with_capacity(n),
            alive: Vec::with_capacity(n),
            live_nodes: 0,
            live_edges: 0,
            version: 0,
            changed_at: Vec::with_capacity(n.div_ceil(CHANGE_BLOCK)),
            row_changed_at: Vec::with_capacity(n),
            lineage: fresh_lineage(),
        }
    }

    /// Creates a graph with `n` live nodes (ids `0..n`) and no edges.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![SortedSet::new(); n],
            alive: vec![true; n],
            live_nodes: n,
            live_edges: 0,
            version: 0,
            changed_at: vec![0; n.div_ceil(CHANGE_BLOCK)],
            row_changed_at: vec![0; n],
            lineage: fresh_lineage(),
        }
    }

    /// Adds a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adjacency.len() as u32);
        self.adjacency.push(SortedSet::new());
        self.alive.push(true);
        self.live_nodes += 1;
        if id.index().is_multiple_of(CHANGE_BLOCK) {
            self.changed_at.push(0);
        }
        self.row_changed_at.push(0);
        self.version += 1;
        self.stamp(id);
        id
    }

    /// Marks `v`'s row, and its block, as changed by the current version.
    fn stamp(&mut self, v: NodeId) {
        self.changed_at[v.index() / CHANGE_BLOCK] = self.version;
        self.row_changed_at[v.index()] = self.version;
    }

    /// The number of successful mutations since the graph was created:
    /// every [`add_node`](Graph::add_node), [`add_edge`](Graph::add_edge),
    /// [`remove_edge`](Graph::remove_edge) and
    /// [`remove_node`](Graph::remove_node) that changed it adds one.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The history this graph's [`version`](Graph::version) counts: unique
    /// within the process to each constructed graph and to each clone,
    /// because a clone's later changes are its own. Two graphs with the
    /// same lineage and version are in the same state.
    pub fn lineage(&self) -> u64 {
        self.lineage
    }

    /// Every id in an aligned block of 16 ids holding a row changed after
    /// `version`, ascending. A superset of the rows whose neighbours, or
    /// whose own liveness, changed since then: ids outside it have exactly
    /// the rows they had at `version`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fg_graph::{Graph, NodeId};
    ///
    /// let mut g = Graph::with_nodes(40);
    /// let before = g.version();
    /// g.add_edge(NodeId::new(3), NodeId::new(35))?;
    /// let changed: Vec<usize> = g.changed_since(before).map(NodeId::index).collect();
    /// assert_eq!(changed, (0..16).chain(32..40).collect::<Vec<_>>());
    /// # Ok::<(), fg_graph::GraphError>(())
    /// ```
    pub fn changed_since(&self, version: u64) -> impl Iterator<Item = NodeId> + '_ {
        self.changed_blocks(version)
            .flatten()
            .map(|i| NodeId::new(i as u32))
    }

    /// The id ranges of the blocks [`changed_since`](Graph::changed_since)
    /// reports, ascending.
    fn changed_blocks(&self, version: u64) -> impl Iterator<Item = Range<usize>> + '_ {
        let ever = self.nodes_ever();
        self.changed_at
            .iter()
            .enumerate()
            .filter(move |&(_, &at)| at > version)
            .map(move |(b, _)| b * CHANGE_BLOCK..ever.min((b + 1) * CHANGE_BLOCK))
    }

    /// Exactly the ids whose rows changed after `version`, ascending:
    /// the stamped blocks, narrowed by the per-row stamps.
    pub(crate) fn changed_rows(&self, version: u64) -> impl Iterator<Item = usize> + '_ {
        self.changed_blocks(version)
            .flatten()
            .filter(move |&i| self.row_changed_at[i] > version)
    }

    /// Number of live (non-removed) nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of node ids ever created, including removed ones.
    ///
    /// This is the paper's `n`: "the total number of vertices seen so far".
    pub fn nodes_ever(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Whether `v` was ever created and has not been removed.
    pub fn contains(&self, v: NodeId) -> bool {
        self.alive.get(v.index()).copied().unwrap_or(false)
    }

    /// Whether the live edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adjacency
            .get(u.index())
            .is_some_and(|adj| adj.contains(&v))
    }

    /// Degree of `v` (0 for removed/unknown nodes).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency.get(v.index()).map_or(0, SortedSet::len)
    }

    /// Maximum degree over live nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.iter().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Iterates over live node ids in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// Iterates over the neighbours of `v` in increasing id order.
    ///
    /// Returns an empty iterator for removed or unknown nodes.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency
            .get(v.index())
            .into_iter()
            .flat_map(|adj| adj.iter().copied())
    }

    /// The neighbours of `v` as one ascending slice (empty for removed or
    /// unknown nodes).
    pub(crate) fn row(&self, v: NodeId) -> &[NodeId] {
        self.adjacency
            .get(v.index())
            .map_or(&[], SortedSet::as_slice)
    }

    /// Collects the neighbours of `v` into a vector (increasing id order).
    pub fn neighbor_vec(&self, v: NodeId) -> Vec<NodeId> {
        self.neighbors(v).collect()
    }

    /// Iterates over all live edges, each reported once with `lo < hi`.
    pub fn edges(&self) -> impl Iterator<Item = EdgeKey> + '_ {
        self.iter().flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| EdgeKey::new(u, v))
        })
    }

    /// Adds the edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `u == v`,
    /// * [`GraphError::NodeNotFound`] if either endpoint is missing,
    /// * [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !self.contains(u) {
            return Err(GraphError::NodeNotFound(u));
        }
        if !self.contains(v) {
            return Err(GraphError::NodeNotFound(v));
        }
        if !self.adjacency[u.index()].insert(v) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.adjacency[v.index()].insert(u);
        self.live_edges += 1;
        self.version += 1;
        self.stamp(u);
        self.stamp(v);
        Ok(())
    }

    /// Adds the edge `(u, v)` if absent; returns whether it was added.
    ///
    /// # Errors
    ///
    /// Same as [`Graph::add_edge`], except duplicates are tolerated.
    pub fn ensure_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        match self.add_edge(u, v) {
            Ok(()) => Ok(true),
            Err(GraphError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Removes the edge `(u, v)`.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeNotFound`] if the edge does not exist.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        if !self.has_edge(u, v) {
            return Err(GraphError::EdgeNotFound(u, v));
        }
        self.adjacency[u.index()].remove(&v);
        self.adjacency[v.index()].remove(&u);
        self.live_edges -= 1;
        self.version += 1;
        self.stamp(u);
        self.stamp(v);
        Ok(())
    }

    /// Removes node `v` and all incident edges, returning its former
    /// neighbours in increasing id order.
    ///
    /// The id is tombstoned, never reused.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeNotFound`] if `v` is missing or already removed.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<NodeId>, GraphError> {
        if !self.contains(v) {
            return Err(GraphError::NodeNotFound(v));
        }
        let neighbours: Vec<NodeId> = self.adjacency[v.index()].iter().copied().collect();
        self.version += 1;
        for &u in &neighbours {
            self.adjacency[u.index()].remove(&v);
            self.stamp(u);
        }
        self.live_edges -= neighbours.len();
        self.adjacency[v.index()].clear();
        self.alive[v.index()] = false;
        self.live_nodes -= 1;
        self.stamp(v);
        Ok(neighbours)
    }

    /// Sum of degrees over live nodes (= 2 × edge count); useful in tests.
    pub fn degree_sum(&self) -> usize {
        self.iter().map(|v| self.degree(v)).sum()
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::with_capacity(0)
    }
}

impl Clone for Graph {
    /// A copy of the structure and its change stamps under a fresh
    /// [`lineage`](Graph::lineage): the copy's later changes are its own.
    fn clone(&self) -> Self {
        Graph {
            adjacency: self.adjacency.clone(),
            alive: self.alive.clone(),
            live_nodes: self.live_nodes,
            live_edges: self.live_edges,
            version: self.version,
            changed_at: self.changed_at.clone(),
            row_changed_at: self.row_changed_at.clone(),
            lineage: fresh_lineage(),
        }
    }
}

/// Structural equality: the same live nodes and edges over the same ids.
/// The change tracking (version, stamps, lineage) is ignored.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.live_nodes == other.live_nodes
            && self.live_edges == other.live_edges
            && self.alive == other.alive
            && self.adjacency == other.adjacency
    }
}

impl Eq for Graph {}

impl Extend<(NodeId, NodeId)> for Graph {
    /// Extends the graph with edges, growing the node set as needed and
    /// ignoring duplicates.
    fn extend<T: IntoIterator<Item = (NodeId, NodeId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            let need = u.index().max(v.index()) + 1;
            while self.adjacency.len() < need {
                self.add_node();
            }
            let _ = self.ensure_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(n(1)), 2);
        assert!(g.has_edge(n(1), n(0)));
        assert_eq!(g.neighbor_vec(n(1)), vec![n(0), n(2)]);
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(g.add_edge(n(0), n(0)), Err(GraphError::SelfLoop(n(0))));
        g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(
            g.add_edge(n(1), n(0)),
            Err(GraphError::DuplicateEdge(n(1), n(0)))
        );
        assert_eq!(g.ensure_edge(n(1), n(0)), Ok(false));
    }

    #[test]
    fn rejects_missing_nodes() {
        let mut g = Graph::with_nodes(1);
        assert_eq!(g.add_edge(n(0), n(5)), Err(GraphError::NodeNotFound(n(5))));
        assert_eq!(
            g.remove_edge(n(0), n(5)),
            Err(GraphError::EdgeNotFound(n(0), n(5)))
        );
    }

    #[test]
    fn remove_node_tombstones_and_reports_neighbours() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        g.add_edge(n(0), n(3)).unwrap();
        let nbrs = g.remove_node(n(0)).unwrap();
        assert_eq!(nbrs, vec![n(1), n(2), n(3)]);
        assert!(!g.contains(n(0)));
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.nodes_ever(), 4);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.remove_node(n(0)), Err(GraphError::NodeNotFound(n(0))));
        // Id is never reused.
        let fresh = g.add_node();
        assert_eq!(fresh, n(4));
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(n(0), n(1)).unwrap();
        g.add_edge(n(1), n(2)).unwrap();
        g.add_edge(n(0), n(2)).unwrap();
        let edges: Vec<EdgeKey> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert_eq!(g.degree_sum(), 6);
    }

    #[test]
    fn extend_ignores_duplicates() {
        let mut g = Graph::new();
        g.extend([(n(0), n(1)), (n(0), n(1)), (n(1), n(2))]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_count(), 3);
    }

    #[test]
    fn graph_implements_common_traits() {
        fn assert_traits<T: Clone + std::fmt::Debug + PartialEq + Send + Sync>() {}
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_traits::<Graph>();
        assert_serde::<Graph>();
        let mut g = Graph::with_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        assert_eq!(g.clone(), g);
    }

    #[test]
    fn removed_nodes_have_empty_neighbourhoods() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        g.remove_node(n(1)).unwrap();
        assert_eq!(g.degree(n(1)), 0);
        assert_eq!(g.neighbors(n(1)).count(), 0);
        assert_eq!(g.neighbor_vec(n(0)), Vec::<NodeId>::new());
    }

    #[test]
    fn equal_structure_compares_equal_whatever_the_history() {
        let mut a = Graph::with_nodes(3);
        a.add_edge(n(0), n(1)).unwrap();
        a.add_edge(n(1), n(2)).unwrap();
        let mut b = Graph::new();
        for _ in 0..3 {
            b.add_node();
        }
        b.add_edge(n(2), n(1)).unwrap();
        b.add_edge(n(0), n(2)).unwrap();
        b.add_edge(n(1), n(0)).unwrap();
        b.remove_edge(n(0), n(2)).unwrap();
        assert_ne!(a.version(), b.version());
        assert_ne!(a.lineage(), b.lineage());
        assert_eq!(a, b);
    }

    #[test]
    fn a_clone_is_equal_but_starts_its_own_lineage() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(n(0), n(1)).unwrap();
        let copy = g.clone();
        assert_eq!(copy, g);
        assert_eq!(copy.version(), g.version());
        assert_ne!(copy.lineage(), g.lineage());
        assert_ne!(Graph::new().lineage(), Graph::default().lineage());
    }

    #[test]
    fn changed_since_names_every_changed_row() {
        // Ids 0, 20, 40, 60 and 80 sit in five different 16-id blocks.
        let mut g = Graph::with_nodes(81);
        let blocks = |g: &Graph, since: u64| -> Vec<usize> {
            let ids: Vec<usize> = g.changed_since(since).map(NodeId::index).collect();
            ids.chunks(16).map(|b| b[0] / 16).collect()
        };
        let v0 = g.version();
        assert!(g.changed_since(v0).next().is_none());
        g.add_edge(n(0), n(40)).unwrap();
        assert_eq!(blocks(&g, v0), [0, 2]);
        let v1 = g.version();
        assert_eq!(v1, v0 + 1);
        g.add_edge(n(20), n(40)).unwrap();
        g.add_edge(n(60), n(40)).unwrap();
        let v2 = g.version();
        g.remove_edge(n(0), n(40)).unwrap();
        assert_eq!(blocks(&g, v2), [0, 2]);
        let v3 = g.version();
        // A removed node and each of its former neighbours.
        g.remove_node(n(40)).unwrap();
        assert_eq!(blocks(&g, v3), [1, 2, 3]);
        assert_eq!(blocks(&g, v1), [0, 1, 2, 3]);
        // A new node: its block is the last, partial one.
        let v4 = g.version();
        let fresh = g.add_node();
        let ids: Vec<NodeId> = g.changed_since(v4).collect();
        assert_eq!(ids, [n(80), fresh]);
        // Failed mutations change nothing.
        let v5 = g.version();
        assert!(g.add_edge(n(1), n(1)).is_err());
        assert!(g.remove_edge(n(1), n(2)).is_err());
        assert!(g.remove_node(n(40)).is_err());
        assert_eq!(g.version(), v5);
    }

    #[test]
    fn changed_rows_name_exactly_the_changed_rows() {
        let mut g = Graph::with_nodes(40);
        let v0 = g.version();
        g.add_edge(n(3), n(35)).unwrap();
        g.add_edge(n(3), n(4)).unwrap();
        assert_eq!(g.changed_rows(v0).collect::<Vec<_>>(), [3, 4, 35]);
        let v1 = g.version();
        g.remove_edge(n(3), n(4)).unwrap();
        assert_eq!(g.changed_rows(v1).collect::<Vec<_>>(), [3, 4]);
        // A removed node and its former neighbour, then a new node.
        let v2 = g.version();
        g.remove_node(n(35)).unwrap();
        g.add_node();
        assert_eq!(g.changed_rows(v2).collect::<Vec<_>>(), [3, 35, 40]);
        assert_eq!(g.changed_rows(g.version()).count(), 0);
    }
}

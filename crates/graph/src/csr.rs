//! Frozen CSR snapshots: the read-optimized layout behind epoch
//! publication.
//!
//! A [`FrozenCsr`] is an immutable compressed-sparse-row copy of a
//! [`Graph`]'s *live* structure: one contiguous `offsets` array, one
//! contiguous `targets` array, and a dense remap table between stable
//! [`NodeId`]s and dense `u32` indices `0..live`. Freezing costs one
//! linear pass (`O(live + edges)`); every query after that walks
//! cache-contiguous arrays sized by the *live* population instead of
//! tombstone-diluted `nodes_ever`-sized structures — after heavy churn
//! the live set is a small fraction of the ids ever issued, so the
//! working set shrinks by the same factor. A graph that changed since an
//! earlier snapshot of it is frozen by advancing that snapshot instead
//! ([`FrozenCsr::advance`]): the graph's change stamps say which rows
//! changed, runs of the others are copied whole, and only the changed
//! and appended rows are read from the graph.
//!
//! The traversal kernel here is a dense mirror of [`crate::traversal`]'s
//! bidirectional meet-in-the-middle search. Because the dense remap is
//! built over live ids in ascending order it is *monotone*, so ascending
//! iteration over a CSR row is ascending iteration over [`NodeId`]s —
//! the kernel discovers nodes in exactly the order the live-graph kernel
//! does, and therefore returns not just equal distances but
//! **identical** concrete paths. The differential suites lean on that.

use crate::{Graph, NodeId};
use std::ops::Range;

/// Dense-index sentinel: "this id is not live in the snapshot".
const DEAD: u32 = u32::MAX;

/// An immutable compressed-sparse-row snapshot of a graph's live
/// structure, with dense-id remapping and a bidirectional BFS kernel.
///
/// Built via [`FrozenCsr::from_graph`], or from an earlier snapshot by
/// [`FrozenCsr::advance`]; see the [module docs](self) for the layout and
/// the bit-identity argument.
///
/// # Examples
///
/// ```
/// use fg_graph::{generators, FrozenCsr, NodeId};
///
/// let mut g = generators::cycle(8);
/// g.remove_node(NodeId::new(3)).unwrap();
/// let csr = FrozenCsr::from_graph(&g);
/// assert_eq!(csr.live_count(), 7);
/// assert!(!csr.contains(NodeId::new(3)));
/// // The cycle is cut open at 3: going the long way round is 6 hops.
/// assert_eq!(csr.bidirectional_distance(NodeId::new(2), NodeId::new(4)), Some(6));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenCsr {
    /// Row boundaries: node `d`'s neighbors are
    /// `targets[offsets[d] as usize..offsets[d + 1] as usize]`.
    offsets: Vec<u32>,
    /// Concatenated adjacency rows, dense ids, each row ascending.
    targets: Vec<u32>,
    /// `NodeId::index() -> dense index`, [`DEAD`]-filled for dead ids;
    /// length [`Graph::nodes_ever`].
    dense_of: Vec<u32>,
    /// `dense index -> NodeId`, ascending; length `live_count`.
    node_of: Vec<NodeId>,
    /// [`Graph::lineage`] of the graph this snapshot reflects.
    lineage: u64,
    /// [`Graph::version`] of the graph this snapshot reflects.
    version: u64,
}

/// Structural equality: the same rows over the same remap. Which graph
/// state a snapshot was taken from is ignored, so an advanced snapshot
/// equals a fresh freeze.
impl PartialEq for FrozenCsr {
    fn eq(&self, other: &Self) -> bool {
        self.node_of == other.node_of
            && self.offsets == other.offsets
            && self.targets == other.targets
            && self.dense_of == other.dense_of
    }
}

impl Eq for FrozenCsr {}

/// How [`FrozenCsr::advance`] renumbers the targets of rows it copies.
enum Renumber {
    /// Nothing died: dense ids are unchanged.
    Same,
    /// One row died, at this dense id: later ids move down by one.
    One(u32),
    /// Several rows died: each old dense id's new one.
    Table(Vec<u32>),
}

impl FrozenCsr {
    /// Freezes the live structure of `g` into CSR form.
    ///
    /// One pass over the live nodes in ascending id order (so the dense
    /// remap is monotone), one pass over their adjacency to fill
    /// `targets`.
    pub fn from_graph(g: &Graph) -> FrozenCsr {
        let mut dense_of = vec![DEAD; g.nodes_ever()];
        let mut node_of = Vec::with_capacity(g.node_count());
        for v in g.iter() {
            dense_of[v.index()] = node_of.len() as u32;
            node_of.push(v);
        }
        let mut offsets = Vec::with_capacity(node_of.len() + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for &v in &node_of {
            // A graph row holds live neighbors ascending, and the remap
            // is monotone, so each row lands ascending in dense ids.
            targets.extend(g.row(v).iter().map(|w| dense_of[w.index()]));
            offsets.push(targets.len() as u32);
        }
        FrozenCsr {
            offsets,
            targets,
            dense_of,
            node_of,
            lineage: g.lineage(),
            version: g.version(),
        }
    }

    /// Whether this snapshot reflects `g` as it is now: taken from `g`'s
    /// lineage at `g`'s current version.
    pub fn reflects(&self, g: &Graph) -> bool {
        self.lineage == g.lineage() && self.version == g.version()
    }

    /// Freezes `g` by bringing this snapshot up to date, re-reading only
    /// the rows `g` changed since; equal to
    /// [`FrozenCsr::from_graph`]`(g)` for every `g`.
    ///
    /// The snapshot remembers the [`lineage`](Graph::lineage) and
    /// [`version`](Graph::version) of the graph it reflects. A `g` of
    /// another lineage, or whose version or id count is smaller, is frozen
    /// from scratch. Otherwise:
    ///
    /// * **Remap.** The live ids are the old ones minus those that died,
    ///   then the ids appended since that are still live — exactly
    ///   ascending order, so the remap stays monotone.
    /// * **Untouched rows.** A row outside every block
    ///   [`Graph::changed_since`] reports has exactly its frozen
    ///   neighbours, all still alive: a neighbour's death, like any edge
    ///   change, stamps the row. Runs of such rows are copied in one pass,
    ///   their targets renumbered past the dead (nothing to do when
    ///   nothing died).
    /// * **Changed and appended rows** are read from `g`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fg_graph::{generators, FrozenCsr, NodeId};
    ///
    /// let mut g = generators::path(40);
    /// let csr = FrozenCsr::from_graph(&g);
    /// let v = g.add_node();
    /// g.add_edge(v, NodeId::new(0)).unwrap();
    /// g.remove_node(NodeId::new(20)).unwrap();
    /// assert_eq!(csr.advance(&g), FrozenCsr::from_graph(&g));
    /// // A clone's history is its own: it is frozen from scratch.
    /// let fork = g.clone();
    /// assert_eq!(csr.advance(&fork), FrozenCsr::from_graph(&fork));
    /// ```
    pub fn advance(&self, g: &Graph) -> FrozenCsr {
        let (old_ever, ever) = (self.nodes_ever(), g.nodes_ever());
        let old_live = self.live_count();
        if g.lineage() != self.lineage || g.version() < self.version || ever < old_ever {
            return FrozenCsr::from_graph(g);
        }
        let blocks: Vec<Range<usize>> = g.changed_blocks(self.version).collect();
        let old_ids = |ids: &Range<usize>| ids.start..ids.end.min(old_ever);
        // Dense ids of the rows that died, ascending: a death stamps its
        // own block.
        let deaths: Vec<u32> = blocks
            .iter()
            .flat_map(old_ids)
            .map(|i| self.dense_of[i])
            .filter(|&d| d != DEAD && !g.contains(self.node(d)))
            .collect();

        let mut node_of = Vec::with_capacity(g.node_count());
        let mut from = 0;
        for &d in &deaths {
            node_of.extend_from_slice(&self.node_of[from..d as usize]);
            from = d as usize + 1;
        }
        node_of.extend_from_slice(&self.node_of[from..]);
        node_of.extend(
            (old_ever..ever)
                .map(|i| NodeId::new(i as u32))
                .filter(|&a| g.contains(a)),
        );
        // Rows before the first death keep their dense ids.
        let mut dense_of = Vec::with_capacity(ever);
        dense_of.extend_from_slice(&self.dense_of);
        dense_of.resize(ever, DEAD);
        for &d in &deaths {
            dense_of[self.node(d).index()] = DEAD;
        }
        let kept = deaths.first().map_or(old_live, |&d| d as usize);
        for (d, v) in node_of.iter().enumerate().skip(kept) {
            dense_of[v.index()] = d as u32;
        }
        let renumber = match deaths[..] {
            [] => Renumber::Same,
            [d] => Renumber::One(d),
            _ => Renumber::Table(self.node_of.iter().map(|v| dense_of[v.index()]).collect()),
        };

        let mut offsets = Vec::with_capacity(node_of.len() + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        let read_row = |v: NodeId, offsets: &mut Vec<u32>, targets: &mut Vec<u32>| {
            targets.extend(g.row(v).iter().map(|w| dense_of[w.index()]));
            offsets.push(targets.len() as u32);
        };
        let mut next = 0;
        for ids in blocks.iter().map(old_ids) {
            // The block's frozen rows are consecutive dense ids.
            let Some(first) = ids.clone().map(|i| self.dense_of[i]).find(|&d| d != DEAD) else {
                continue;
            };
            self.copy_rows(next..first as usize, &renumber, &mut offsets, &mut targets);
            next = first as usize;
            while next < old_live && self.node_of[next].index() < ids.end {
                let v = self.node_of[next];
                if g.contains(v) {
                    read_row(v, &mut offsets, &mut targets);
                }
                next += 1;
            }
        }
        self.copy_rows(next..old_live, &renumber, &mut offsets, &mut targets);
        for &a in &node_of[old_live - deaths.len()..] {
            read_row(a, &mut offsets, &mut targets);
        }
        debug_assert_eq!(targets.len(), 2 * g.edge_count());
        FrozenCsr {
            offsets,
            targets,
            dense_of,
            node_of,
            lineage: g.lineage(),
            version: g.version(),
        }
    }

    /// Appends this snapshot's rows `rows`, none of which changed: their
    /// targets renumbered in one pass, their row ends shifted by the
    /// difference in everything before them.
    fn copy_rows(
        &self,
        rows: Range<usize>,
        renumber: &Renumber,
        offsets: &mut Vec<u32>,
        targets: &mut Vec<u32>,
    ) {
        let (lo, hi) = (self.offsets[rows.start], self.offsets[rows.end]);
        // Rows before may have shrunk, so the shift may be negative.
        let shift = (targets.len() as u32).wrapping_sub(lo);
        let run = &self.targets[lo as usize..hi as usize];
        match renumber {
            Renumber::Same => targets.extend_from_slice(run),
            Renumber::One(d) => targets.extend(run.iter().map(|&t| t - u32::from(t > *d))),
            Renumber::Table(new) => targets.extend(run.iter().map(|&t| new[t as usize])),
        }
        offsets.extend(
            self.offsets[rows.start + 1..=rows.end]
                .iter()
                .map(|&o| o.wrapping_add(shift)),
        );
    }

    /// Number of live nodes in the snapshot.
    pub fn live_count(&self) -> usize {
        self.node_of.len()
    }

    /// Size of the id universe the snapshot was taken over
    /// (`Graph::nodes_ever` at freeze time).
    pub fn nodes_ever(&self) -> usize {
        self.dense_of.len()
    }

    /// Number of undirected edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Whether `v` was live at freeze time.
    pub fn contains(&self, v: NodeId) -> bool {
        self.dense_of.get(v.index()).is_some_and(|&d| d != DEAD)
    }

    /// The dense index of `v`, if live.
    pub fn dense(&self, v: NodeId) -> Option<u32> {
        self.dense_of.get(v.index()).copied().filter(|&d| d != DEAD)
    }

    /// The [`NodeId`] behind dense index `d`.
    ///
    /// # Panics
    ///
    /// If `d >= live_count()`.
    pub fn node(&self, d: u32) -> NodeId {
        self.node_of[d as usize]
    }

    /// The live nodes, ascending — same order as [`Graph::iter`].
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_of.iter().copied()
    }

    /// `v`'s dense-id adjacency row (ascending). Empty for dead ids.
    fn row(&self, d: u32) -> &[u32] {
        let (lo, hi) = (
            self.offsets[d as usize] as usize,
            self.offsets[d as usize + 1] as usize,
        );
        &self.targets[lo..hi]
    }

    /// Degree of `v`, or `None` when `v` was dead at freeze time.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.dense(v).map(|d| self.row(d).len())
    }

    /// `v`'s neighbors as [`NodeId`]s, ascending — same order as
    /// [`Graph::neighbors`]. Empty for dead ids.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let row = self.dense(v).map_or(&[][..], |d| self.row(d));
        row.iter().map(|&w| self.node_of[w as usize])
    }

    /// Length of the shortest path between `u` and `v` in the snapshot,
    /// by the same bidirectional meet-in-the-middle search as
    /// [`crate::traversal::bidirectional_distance`], run over the dense
    /// CSR arrays.
    ///
    /// `Some(0)` when `u == v` and live; `None` when either endpoint was
    /// dead at freeze time or the pair is disconnected.
    pub fn bidirectional_distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u == v {
            return self.contains(u).then_some(0);
        }
        self.search(u, v, false).map(|(d, _, _, _)| d)
    }

    /// A shortest path from `u` to `v` inclusive, stitched at the
    /// meeting node exactly like [`crate::traversal::shortest_path`].
    ///
    /// Because the dense remap is monotone and waves are expanded in the
    /// same insertion order as the live kernel, the returned path is
    /// **node-identical** to the live kernel's path, not merely equally
    /// short.
    pub fn shortest_path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        if u == v {
            return self.contains(u).then(|| vec![u]);
        }
        let (total, meet, from_u, from_v) = self.search(u, v, true)?;
        let du = self.dense(u).expect("search found u");
        let dv = self.dense(v).expect("search found v");
        let mut path = Vec::with_capacity(total as usize + 1);
        // Walk meet → u, then reverse, then extend meet → v.
        let mut cur = meet;
        while cur != du {
            path.push(self.node(cur));
            cur = from_u.parent[cur as usize];
        }
        path.push(u);
        path.reverse();
        let mut cur = meet;
        while cur != dv {
            cur = from_v.parent[cur as usize];
            path.push(self.node(cur));
        }
        Some(path)
    }

    /// The shared bidirectional kernel: a dense mirror of
    /// `traversal::bidirectional_search` — same smaller-wave-first
    /// schedule, same strict-improvement meeting updates, same
    /// `best ≤ d_u + d_v + 1` termination proof.
    fn search(
        &self,
        u: NodeId,
        v: NodeId,
        track_parents: bool,
    ) -> Option<(u32, u32, DenseFrontier, DenseFrontier)> {
        debug_assert_ne!(u, v);
        let (du, dv) = (self.dense(u)?, self.dense(v)?);
        let n = self.live_count();
        let mut from_u = DenseFrontier::seeded(n, du, track_parents);
        let mut from_v = DenseFrontier::seeded(n, dv, track_parents);
        let mut best: Option<(u32, u32)> = None;
        loop {
            if let Some((b, meet)) = best {
                if b <= from_u.depth + from_v.depth + 1 {
                    return Some((b, meet, from_u, from_v));
                }
            }
            if from_u.wave.is_empty() || from_v.wave.is_empty() {
                return best.map(|(b, meet)| (b, meet, from_u, from_v));
            }
            let found = if from_u.wave.len() <= from_v.wave.len() {
                from_u.expand(self, &from_v)
            } else {
                from_v.expand(self, &from_u)
            };
            if let Some((total, meet)) = found {
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, meet));
                }
            }
        }
    }
}

/// One side of the dense bidirectional search: flat `u32` distance and
/// parent arrays ([`DEAD`]-sentinel) over the dense id space, plus the
/// current wave in discovery order.
struct DenseFrontier {
    dist: Vec<u32>,
    parent: Vec<u32>,
    wave: Vec<u32>,
    depth: u32,
}

impl DenseFrontier {
    fn seeded(n: usize, src: u32, track_parents: bool) -> DenseFrontier {
        let mut f = DenseFrontier {
            dist: vec![DEAD; n],
            parent: if track_parents {
                vec![DEAD; n]
            } else {
                Vec::new()
            },
            wave: vec![src],
            depth: 0,
        };
        f.dist[src as usize] = 0;
        if track_parents {
            f.parent[src as usize] = src;
        }
        f
    }

    /// Expands this side by one level; returns the best meeting point
    /// with `other` discovered during the expansion, as
    /// `(total distance, meeting dense id)`. A dense mirror of
    /// `traversal::Frontier::expand` — identical discovery order, so
    /// identical parents and meeting choices.
    fn expand(&mut self, csr: &FrozenCsr, other: &DenseFrontier) -> Option<(u32, u32)> {
        let mut best: Option<(u32, u32)> = None;
        let mut next = Vec::new();
        let track_parents = !self.parent.is_empty();
        for i in 0..self.wave.len() {
            let x = self.wave[i];
            for &y in csr.row(x) {
                if self.dist[y as usize] == DEAD {
                    self.dist[y as usize] = self.depth + 1;
                    if track_parents {
                        self.parent[y as usize] = x;
                    }
                    next.push(y);
                }
                if other.dist[y as usize] != DEAD {
                    let total = self.dist[y as usize] + other.dist[y as usize];
                    if best.is_none_or(|(b, _)| total < b) {
                        best = Some((total, y));
                    }
                }
            }
        }
        self.wave = next;
        self.depth += 1;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A churned graph: cycle + chords + pendant, several removals.
    fn churned() -> Graph {
        let mut g = crate::generators::cycle(12);
        g.add_edge(n(0), n(6)).unwrap();
        g.add_edge(n(2), n(9)).unwrap();
        let p = g.add_node();
        g.add_edge(n(4), p).unwrap();
        g.remove_node(n(5)).unwrap();
        g.remove_node(n(10)).unwrap();
        g
    }

    #[test]
    fn csr_mirrors_adjacency_exactly() {
        let g = churned();
        let csr = FrozenCsr::from_graph(&g);
        assert_eq!(csr.live_count(), g.node_count());
        assert_eq!(csr.nodes_ever(), g.nodes_ever());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.iter().collect::<Vec<_>>(), g.iter().collect::<Vec<_>>());
        for i in 0..g.nodes_ever() as u32 {
            let v = n(i);
            assert_eq!(csr.contains(v), g.contains(v));
            assert_eq!(csr.degree(v), g.contains(v).then(|| g.degree(v)));
            assert_eq!(
                csr.neighbors(v).collect::<Vec<_>>(),
                g.neighbors(v).collect::<Vec<_>>(),
                "row {v}"
            );
        }
    }

    #[test]
    fn dense_remap_is_a_monotone_bijection_on_live_nodes() {
        let g = churned();
        let csr = FrozenCsr::from_graph(&g);
        let mut last = None;
        for v in g.iter() {
            let d = csr.dense(v).expect("live node has a dense id");
            assert_eq!(csr.node(d), v);
            assert!(last.is_none_or(|p| p < d), "remap not monotone at {v}");
            last = Some(d);
        }
        assert_eq!(last, Some(csr.live_count() as u32 - 1));
    }

    #[test]
    fn bidirectional_kernels_match_live_kernels_exactly() {
        let g = churned();
        let csr = FrozenCsr::from_graph(&g);
        for i in 0..g.nodes_ever() as u32 {
            for j in 0..g.nodes_ever() as u32 {
                let (u, v) = (n(i), n(j));
                assert_eq!(
                    csr.bidirectional_distance(u, v),
                    traversal::bidirectional_distance(&g, u, v),
                    "({u}, {v})"
                );
                assert_eq!(
                    csr.shortest_path(u, v),
                    traversal::shortest_path(&g, u, v),
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn empty_and_singleton_graphs_freeze() {
        let csr = FrozenCsr::from_graph(&Graph::new());
        assert_eq!(csr.live_count(), 0);
        assert_eq!(csr.bidirectional_distance(n(0), n(0)), None);
        let g = Graph::with_nodes(1);
        let csr = FrozenCsr::from_graph(&g);
        assert_eq!(csr.bidirectional_distance(n(0), n(0)), Some(0));
        assert_eq!(csr.shortest_path(n(0), n(0)), Some(vec![n(0)]));
    }

    #[test]
    fn wide_graphs_cross_word_boundaries() {
        // A 200-node cycle: both search waves run 50 levels deep.
        let g = crate::generators::cycle(200);
        let csr = FrozenCsr::from_graph(&g);
        assert_eq!(
            csr.shortest_path(n(0), n(100)),
            traversal::shortest_path(&g, n(0), n(100))
        );
        assert_eq!(csr.bidirectional_distance(n(0), n(100)), Some(100));
    }
}

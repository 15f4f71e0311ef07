//! Frozen CSR snapshots: the read-optimized layout behind epoch
//! publication.
//!
//! A [`FrozenCsr`] is an immutable compressed-sparse-row copy of a
//! [`Graph`]'s *live* structure over dense `u32` ids, plus a remap table
//! between stable [`NodeId`]s and dense ids. The rows sit in pages of 64
//! consecutive dense ids, each page one `offsets`/`targets` pair with a
//! live mask behind an [`Arc`]. Freezing costs one linear pass
//! (`O(live + edges)`); every query after that walks rows sized by the
//! *live* population instead of tombstone-diluted `nodes_ever`-sized
//! structures — after heavy churn the live set is a small fraction of the
//! ids ever issued, so the working set shrinks by the same factor.
//!
//! A graph that changed since an earlier snapshot of it is frozen by
//! advancing that snapshot instead ([`FrozenCsr::advance`]). The two share
//! the remap and every page none of whose rows changed, so a publish costs
//! what the change touched: a changed page is rebuilt from its old
//! unchanged rows plus the changed rows, which alone are read from the
//! graph. Ids appended since the last full freeze take the next dense ids,
//! and a row that died stays behind as an empty *hole* until holes
//! outnumber a quarter of the live rows; then the snapshot is frozen
//! afresh.
//!
//! The traversal kernel here is a dense mirror of [`crate::traversal`]'s
//! bidirectional meet-in-the-middle search. A full freeze numbers the live
//! ids in ascending order and appended ids are larger than every older
//! one, so the dense remap is *monotone*: ascending iteration over a row
//! is ascending iteration over [`NodeId`]s — the kernel discovers nodes in
//! exactly the order the live-graph kernel does, and therefore returns not
//! just equal distances but **identical** concrete paths. Holes change
//! nothing, since no live row points at one. The differential suites lean
//! on that.

use crate::{Graph, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// Dense-index sentinel: "this id has no dense id in the snapshot".
const DEAD: u32 = u32::MAX;

/// Rows per page: [`FrozenCsr::advance`] shares every page none of whose
/// rows changed and rebuilds the others.
const PAGE: usize = 64;

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
    /// The rows: dense id `d` is row `d % PAGE` of page `d / PAGE`.
    pages: Vec<Arc<Page>>,
    /// The dense ids of the last full freeze, shared by every snapshot
    /// advanced from it. Ids it does not cover, appended since, take the
    /// dense ids after its own, in order.
    remap: Arc<Remap>,
    /// [`Graph::nodes_ever`] of the graph this snapshot reflects.
    ever: usize,
    /// Live rows.
    live: usize,
    /// Undirected edges.
    edges: usize,
    /// [`Graph::lineage`] of the graph this snapshot reflects.
    lineage: u64,
    /// [`Graph::version`] of the graph this snapshot reflects.
    version: u64,
}

/// [`PAGE`] consecutive rows of a snapshot.
#[derive(Debug)]
struct Page {
    /// Bit `r` is set when row `r` is live. A clear bit is a hole, or lies
    /// past the last dense id; its row is empty.
    live: u64,
    /// Row `r` is `targets[offsets[r] as usize..offsets[r + 1] as usize]`.
    offsets: [u32; PAGE + 1],
    /// Concatenated rows, dense ids, each row ascending.
    targets: Vec<u32>,
}

impl Page {
    fn row(&self, r: usize) -> &[u32] {
        &self.targets[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }
}

/// The dense ids a full freeze hands out: the live ids, ascending.
#[derive(Debug)]
struct Remap {
    /// `NodeId::index() -> dense id`, [`DEAD`] for ids dead at the freeze;
    /// its length is the freeze's [`Graph::nodes_ever`].
    dense_of: Vec<u32>,
    /// `dense id -> NodeId`, ascending.
    node_of: Vec<NodeId>,
}

/// Builds one [`Page`], row by row.
struct PageBuilder {
    page: Page,
    rows: usize,
}

impl PageBuilder {
    fn with_capacity(targets: usize) -> PageBuilder {
        PageBuilder {
            page: Page {
                live: 0,
                offsets: [0; PAGE + 1],
                targets: Vec::with_capacity(targets),
            },
            rows: 0,
        }
    }

    /// Appends a live row.
    fn live(&mut self, row: impl IntoIterator<Item = u32>) {
        self.page.live |= 1 << self.rows;
        self.page.targets.extend(row);
        self.end_row();
    }

    /// Appends a hole: an empty row that is not live.
    fn hole(&mut self) {
        self.end_row();
    }

    /// Appends rows `rows` of `page` as they are, next to each other in
    /// one copy.
    fn copy(&mut self, page: &Page, rows: Range<usize>) {
        debug_assert_eq!(rows.start, self.rows);
        let (lo, hi) = (page.offsets[rows.start], page.offsets[rows.end]);
        // Rows before may have shrunk, so the shift may be negative.
        let shift = (self.page.targets.len() as u32).wrapping_sub(lo);
        self.page
            .targets
            .extend_from_slice(&page.targets[lo as usize..hi as usize]);
        for r in rows.start + 1..=rows.end {
            self.page.offsets[r] = page.offsets[r].wrapping_add(shift);
        }
        let mask = u64::MAX >> (PAGE - rows.len()) << rows.start;
        self.page.live |= page.live & mask;
        self.rows = rows.end;
    }

    fn end_row(&mut self) {
        self.rows += 1;
        self.page.offsets[self.rows] = self.page.targets.len() as u32;
    }

    fn finish(mut self) -> Arc<Page> {
        let end = self.page.targets.len() as u32;
        self.page.offsets[self.rows..].fill(end);
        Arc::new(self.page)
    }
}

/// Structural equality: the same live ids over the same id universe, with
/// the same rows. Layout — dense ids, holes, pages — and which graph state
/// a snapshot was taken from are ignored, so an advanced snapshot equals a
/// fresh freeze.
impl PartialEq for FrozenCsr {
    fn eq(&self, other: &Self) -> bool {
        self.ever == other.ever
            && self.iter().eq(other.iter())
            && self
                .iter()
                .all(|v| self.neighbors(v).eq(other.neighbors(v)))
    }
}

impl Eq for FrozenCsr {}

impl FrozenCsr {
    /// Freezes the live structure of `g` into CSR form.
    ///
    /// One pass over the live nodes in ascending id order (so the dense
    /// remap is monotone), one pass over their adjacency to fill the
    /// pages.
    pub fn from_graph(g: &Graph) -> FrozenCsr {
        let mut dense_of = vec![DEAD; g.nodes_ever()];
        let mut node_of = Vec::with_capacity(g.node_count());
        for v in g.iter() {
            dense_of[v.index()] = node_of.len() as u32;
            node_of.push(v);
        }
        let pages = node_of
            .chunks(PAGE)
            .map(|rows| {
                let mut page = PageBuilder::with_capacity(rows.iter().map(|&v| g.degree(v)).sum());
                for &v in rows {
                    // A graph row holds live neighbors ascending, and the
                    // remap is monotone, so each row lands ascending.
                    page.live(g.row(v).iter().map(|w| dense_of[w.index()]));
                }
                page.finish()
            })
            .collect();
        FrozenCsr {
            pages,
            ever: g.nodes_ever(),
            live: node_of.len(),
            edges: g.edge_count(),
            remap: Arc::new(Remap { dense_of, node_of }),
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
    /// * **Dense ids.** The remap is shared, and so is every dense id: ids
    ///   appended since take the next ones, in order, so the remap stays
    ///   monotone. A row that died stays an empty hole; once holes
    ///   outnumber a quarter of the live rows, `g` is frozen from scratch
    ///   instead.
    /// * **Changed rows** are exactly the rows `g` stamped since (its
    ///   per-row stamps, inside the blocks [`Graph::changed_since`]
    ///   reports), plus every appended row; they are read from `g`. A row
    ///   that was not stamped has exactly its frozen neighbours, all still
    ///   alive: a neighbour's death, like any edge change, stamps the row.
    /// * **Pages** with no changed row are shared. A page with one is
    ///   rebuilt: its unchanged rows copied from the old page, its changed
    ///   rows read.
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
        let ever = g.nodes_ever();
        if g.lineage() != self.lineage || g.version() < self.version || ever < self.ever {
            return FrozenCsr::from_graph(g);
        }
        let mut next = FrozenCsr {
            pages: self.pages.clone(),
            remap: Arc::clone(&self.remap),
            ever,
            live: g.node_count(),
            edges: g.edge_count(),
            lineage: g.lineage(),
            version: g.version(),
        };
        let slots = next.slots();
        if 4 * (slots - next.live) > next.live {
            return FrozenCsr::from_graph(g);
        }
        // The dense ids of the changed rows, ascending: the stamped rows
        // of old ids (an id dead at the full freeze has no dense id, and
        // no row to change), then every appended id.
        let mut changed = g
            .changed_rows(self.version)
            .take_while(|&i| i < self.ever)
            .filter_map(|i| self.slot(i))
            .chain(self.slots() as u32..slots as u32)
            .peekable();
        while let Some(&first) = changed.peek() {
            let p = first as usize / PAGE;
            let rows = slots.min((p + 1) * PAGE) - p * PAGE;
            let mut page =
                PageBuilder::with_capacity(self.pages.get(p).map_or(0, |old| old.targets.len()));
            while page.rows < rows {
                let stop = match changed.peek() {
                    Some(&d) if d as usize / PAGE == p => d as usize % PAGE,
                    _ => rows,
                };
                if stop > page.rows {
                    // Unchanged rows are old ones, on an old page.
                    page.copy(&self.pages[p], page.rows..stop);
                    continue;
                }
                changed.next();
                let v = next.node((p * PAGE + stop) as u32);
                if g.contains(v) {
                    page.live(g.row(v).iter().map(|w| next.slot_of(w.index())));
                } else {
                    page.hole();
                }
            }
            let page = page.finish();
            match next.pages.get_mut(p) {
                Some(old) => *old = page,
                None => next.pages.push(page),
            }
        }
        debug_assert_eq!(
            next.pages.iter().map(|p| p.targets.len()).sum::<usize>(),
            2 * next.edges
        );
        next
    }

    /// Number of dense ids: live rows plus holes.
    fn slots(&self) -> usize {
        self.remap.node_of.len() + self.ever - self.remap.dense_of.len()
    }

    /// The dense id of an id below `ever` that has one: every id live at
    /// the last full freeze or appended since. [`DEAD`] for the others.
    fn slot_of(&self, i: usize) -> u32 {
        match self.remap.dense_of.get(i) {
            Some(&d) => d,
            None => (self.remap.node_of.len() + i - self.remap.dense_of.len()) as u32,
        }
    }

    /// The dense id of id `i`, live or a hole.
    fn slot(&self, i: usize) -> Option<u32> {
        (i < self.ever)
            .then(|| self.slot_of(i))
            .filter(|&d| d != DEAD)
    }

    /// Whether dense id `d` holds a live row.
    fn is_live(&self, d: u32) -> bool {
        self.pages[d as usize / PAGE].live >> (d as usize % PAGE) & 1 == 1
    }

    /// Number of live nodes in the snapshot.
    pub fn live_count(&self) -> usize {
        self.live
    }

    /// Size of the id universe the snapshot was taken over
    /// (`Graph::nodes_ever` at freeze time).
    pub fn nodes_ever(&self) -> usize {
        self.ever
    }

    /// Number of undirected edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether `v` was live at freeze time.
    pub fn contains(&self, v: NodeId) -> bool {
        self.dense(v).is_some()
    }

    /// The dense index of `v`, if live. Dense indices ascend with
    /// [`NodeId`]s; they run `0..live_count()` after a full freeze, and
    /// skip the holes dead rows left in an advanced snapshot.
    pub fn dense(&self, v: NodeId) -> Option<u32> {
        self.slot(v.index()).filter(|&d| self.is_live(d))
    }

    /// The [`NodeId`] behind dense index `d`: a live node, or the node
    /// that died in a hole.
    ///
    /// # Panics
    ///
    /// If `d` is past the snapshot's last dense index.
    pub fn node(&self, d: u32) -> NodeId {
        match self.remap.node_of.get(d as usize) {
            Some(&v) => v,
            None => {
                let i = self.remap.dense_of.len() + d as usize - self.remap.node_of.len();
                assert!(i < self.ever, "dense index {d} is past the snapshot");
                NodeId::new(i as u32)
            }
        }
    }

    /// The live nodes, ascending — same order as [`Graph::iter`].
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.slots() as u32)
            .filter(|&d| self.is_live(d))
            .map(|d| self.node(d))
    }

    /// Dense index `d`'s adjacency row (ascending). Empty for holes.
    fn row(&self, d: u32) -> &[u32] {
        self.pages[d as usize / PAGE].row(d as usize % PAGE)
    }

    /// Degree of `v`, or `None` when `v` was dead at freeze time.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.dense(v).map(|d| self.row(d).len())
    }

    /// `v`'s neighbors as [`NodeId`]s, ascending — same order as
    /// [`Graph::neighbors`]. Empty for dead ids.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let row = self.dense(v).map_or(&[][..], |d| self.row(d));
        row.iter().map(|&w| self.node(w))
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
        let n = self.slots();
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
/// parent arrays ([`DEAD`]-sentinel) over the dense ids, holes included,
/// plus the current wave in discovery order.
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

    /// Which pages of `after` are the very pages of `before`.
    fn shared_pages(before: &FrozenCsr, after: &FrozenCsr) -> Vec<bool> {
        let page = |p: usize| before.pages.get(p);
        (0..after.pages.len())
            .map(|p| page(p).is_some_and(|old| Arc::ptr_eq(old, &after.pages[p])))
            .collect()
    }

    #[test]
    fn advance_copies_only_the_pages_a_change_touched() {
        // Ids 0..300: four full pages and a last one of 44 rows.
        let mut g = crate::generators::path(300);
        let frozen = FrozenCsr::from_graph(&g);
        assert_eq!(frozen.pages.len(), 5);
        // A delete changes rows 99, 100 and 101, all on page 1.
        g.remove_node(n(100)).unwrap();
        let deleted = frozen.advance(&g);
        assert_eq!(deleted, FrozenCsr::from_graph(&g));
        assert_eq!(
            shared_pages(&frozen, &deleted),
            [true, false, true, true, true]
        );
        assert!(Arc::ptr_eq(&frozen.remap, &deleted.remap));
        // An insert joined to 5 and 250 changes rows on pages 0 and 3 and
        // appends id 300 to the last page, which its hole at 100 leaves
        // at dense index 300.
        let v = g.add_node();
        g.add_edge(v, n(5)).unwrap();
        g.add_edge(v, n(250)).unwrap();
        let inserted = deleted.advance(&g);
        assert_eq!(inserted, FrozenCsr::from_graph(&g));
        assert_eq!(inserted.dense(v), Some(300));
        assert_eq!(
            shared_pages(&deleted, &inserted),
            [false, true, true, false, false]
        );
        // With nothing changed, every page is shared.
        assert!(shared_pages(&inserted, &inserted.advance(&g))
            .iter()
            .all(|&s| s));
    }

    #[test]
    fn appended_ids_fill_the_last_page_then_open_new_ones() {
        let mut g = crate::generators::path(60);
        let mut csr = FrozenCsr::from_graph(&g);
        for step in 0..10 {
            // Each step appends 3 ids, one of them dead on arrival.
            let a = g.add_node();
            let b = g.add_node();
            let c = g.add_node();
            g.add_edge(a, n(step)).unwrap();
            g.add_edge(a, c).unwrap();
            g.add_edge(b, n(59 - step)).unwrap();
            g.remove_node(b).unwrap();
            let next = csr.advance(&g);
            assert_eq!(next, FrozenCsr::from_graph(&g), "step {step}");
            assert_eq!(next.slots(), g.nodes_ever());
            csr = next;
        }
        assert_eq!(csr.pages.len(), 2);
        assert_eq!(csr.dense(n(89)), Some(89));
        assert_eq!(csr.dense(n(88)), None);
    }

    #[test]
    fn holes_stay_until_they_outnumber_a_quarter_of_the_live_rows() {
        // 100 live ids: the 21st death leaves 21 holes against 79 live
        // rows, past a quarter, so that advance freezes afresh.
        let mut g = crate::generators::path(100);
        let first = FrozenCsr::from_graph(&g);
        let mut csr = first.clone();
        for k in 1..=21u32 {
            g.remove_node(n(4 * k)).unwrap();
            csr = csr.advance(&g);
            assert_eq!(csr, FrozenCsr::from_graph(&g), "death {k}");
            let refrozen = k == 21;
            assert_eq!(
                !Arc::ptr_eq(&csr.remap, &first.remap),
                refrozen,
                "death {k}"
            );
            assert_eq!(csr.slots(), if refrozen { 79 } else { 100 });
        }
    }

    #[test]
    fn paths_through_an_advanced_snapshot_with_holes_match_the_live_kernel() {
        let mut g = crate::generators::cycle(150);
        let mut csr = FrozenCsr::from_graph(&g);
        for (k, victim) in [7u32, 70, 71, 140].into_iter().enumerate() {
            let v = g.add_node();
            g.add_edge(v, n(3 * k as u32)).unwrap();
            g.add_edge(v, n(100 + k as u32)).unwrap();
            g.remove_node(n(victim)).unwrap();
            csr = csr.advance(&g);
        }
        assert!(csr.slots() > csr.live_count(), "the deaths left holes");
        for i in 0..g.nodes_ever() as u32 {
            for j in (0..g.nodes_ever() as u32).step_by(7) {
                let (u, v) = (n(i), n(j));
                assert_eq!(
                    csr.shortest_path(u, v),
                    traversal::shortest_path(&g, u, v),
                    "({u}, {v})"
                );
            }
        }
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

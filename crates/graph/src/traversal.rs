//! Breadth-first traversal, distances, connectivity and diameter.
//!
//! Everything the measurement layer needs to evaluate the paper's success
//! metrics: `dist(x, y, G_T)` against `dist(x, y, G'_T)` (network stretch,
//! Figure 1 of the paper) and diameters for the Forgiving Tree comparison.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// The distance vector produced by a BFS from one source.
///
/// Index by [`NodeId::index`]; `None` means unreachable (or removed).
pub type DistanceVec = Vec<Option<u32>>;

/// Runs a BFS from `src` and returns distances to every node id ever created.
///
/// Removed nodes and nodes in other components map to `None`. Returns a
/// vector of `None` if `src` itself is not live.
pub fn bfs_distances(g: &Graph, src: NodeId) -> DistanceVec {
    let mut dist: DistanceVec = vec![None; g.nodes_ever()];
    if !g.contains(src) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[src.index()] = Some(0);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// BFS parents from `src`: `parent[v] = Some(u)` when `u` discovered `v`.
///
/// `parent[src] = Some(src)` marks the root; unreachable nodes are `None`.
pub fn bfs_parents(g: &Graph, src: NodeId) -> Vec<Option<NodeId>> {
    let mut parent: Vec<Option<NodeId>> = vec![None; g.nodes_ever()];
    if !g.contains(src) {
        return parent;
    }
    let mut queue = VecDeque::new();
    parent[src.index()] = Some(src);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if parent[v.index()].is_none() {
                parent[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Length of the shortest path between `u` and `v`, if any.
///
/// Thin wrapper over [`bidirectional_distance`] — the single pairwise
/// query kernel shared by `fg_core::query::QueryOps` and the stretch
/// measurements.
pub fn distance(g: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
    bidirectional_distance(g, u, v)
}

/// One frontier of a bidirectional BFS: distances, optional parents, and
/// the current wave of nodes. Parents are tracked only for
/// [`shortest_path`] — plain [`bidirectional_distance`] queries skip the
/// allocation entirely.
struct Frontier {
    dist: DistanceVec,
    parent: Vec<Option<NodeId>>,
    wave: Vec<NodeId>,
    depth: u32,
}

impl Frontier {
    fn seeded(n: usize, src: NodeId, track_parents: bool) -> Frontier {
        let mut f = Frontier {
            dist: vec![None; n],
            parent: if track_parents {
                vec![None; n]
            } else {
                Vec::new()
            },
            wave: vec![src],
            depth: 0,
        };
        f.dist[src.index()] = Some(0);
        if track_parents {
            f.parent[src.index()] = Some(src);
        }
        f
    }

    /// Expands this side by one level; returns the best meeting point
    /// with `other` discovered during the expansion, as
    /// `(total distance, meeting node)`.
    fn expand(&mut self, g: &Graph, other: &Frontier) -> Option<(u32, NodeId)> {
        let mut best: Option<(u32, NodeId)> = None;
        let mut next = Vec::new();
        let track_parents = !self.parent.is_empty();
        for &x in &self.wave {
            for y in g.neighbors(x) {
                if self.dist[y.index()].is_none() {
                    self.dist[y.index()] = Some(self.depth + 1);
                    if track_parents {
                        self.parent[y.index()] = Some(x);
                    }
                    next.push(y);
                }
                if let Some(dy) = other.dist[y.index()] {
                    let total = self.dist[y.index()].expect("just labelled") + dy;
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

/// Runs the bidirectional search shared by [`bidirectional_distance`] and
/// [`shortest_path`]: alternately expands the smaller frontier until the
/// best meeting point found so far provably cannot be improved. Returns
/// the distance, the best meeting node, and both frontiers.
fn bidirectional_search(
    g: &Graph,
    u: NodeId,
    v: NodeId,
    track_parents: bool,
) -> Option<(u32, NodeId, Frontier, Frontier)> {
    // The callers answer `u == v` without a search (and without paying
    // for the two O(nodes_ever) frontier allocations).
    debug_assert_ne!(u, v);
    if !g.contains(u) || !g.contains(v) {
        return None;
    }
    let n = g.nodes_ever();
    let mut from_u = Frontier::seeded(n, u, track_parents);
    let mut from_v = Frontier::seeded(n, v, track_parents);
    let mut best: Option<(u32, NodeId)> = None;
    loop {
        // Every u-v path of length ≤ d_u + d_v has a node labelled by
        // both waves (and was therefore recorded as a meeting), so once
        // the best recorded meeting is ≤ d_u + d_v + 1 it cannot be
        // beaten by anything still undiscovered.
        if let Some((b, meet)) = best {
            if b <= from_u.depth + from_v.depth + 1 {
                return Some((b, meet, from_u, from_v));
            }
        }
        if from_u.wave.is_empty() || from_v.wave.is_empty() {
            return best.map(|(b, meet)| (b, meet, from_u, from_v));
        }
        let found = if from_u.wave.len() <= from_v.wave.len() {
            from_u.expand(g, &from_v)
        } else {
            from_v.expand(g, &from_u)
        };
        if let Some((total, meet)) = found {
            if best.is_none_or(|(b, _)| total < b) {
                best = Some((total, meet));
            }
        }
    }
}

/// Length of the shortest live path between `u` and `v`, by bidirectional
/// BFS — two waves grown from both endpoints, the smaller expanded first,
/// meeting in the middle. Exact, and typically touches `O(√space)` of a
/// full single-source BFS on expander-like networks.
///
/// `Some(0)` when `u == v` and live; `None` when either endpoint is dead
/// or the pair is disconnected.
pub fn bidirectional_distance(g: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
    if u == v {
        return g.contains(u).then_some(0);
    }
    bidirectional_search(g, u, v, false).map(|(d, _, _, _)| d)
}

/// A shortest live path from `u` to `v` inclusive of both endpoints, by
/// the same bidirectional kernel as [`bidirectional_distance`] (the two
/// half-paths are stitched at the meeting node).
///
/// `Some(vec![u])` when `u == v` and live; `None` when either endpoint is
/// dead or the pair is disconnected. The returned path has exactly
/// `distance(g, u, v) + 1` nodes, consecutive nodes adjacent in `g`.
pub fn shortest_path(g: &Graph, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
    if u == v {
        return g.contains(u).then(|| vec![u]);
    }
    let (total, meet, from_u, from_v) = bidirectional_search(g, u, v, true)?;
    let mut path = Vec::with_capacity(total as usize + 1);
    // Walk meet → u, then reverse, then extend meet → v.
    let mut cur = meet;
    while cur != u {
        path.push(cur);
        cur = from_u.parent[cur.index()].expect("u-side labels have parents");
    }
    path.push(u);
    path.reverse();
    let mut cur = meet;
    while cur != v {
        cur = from_v.parent[cur.index()].expect("v-side labels have parents");
        path.push(cur);
    }
    Some(path)
}

/// Whether all live nodes are mutually reachable.
///
/// Vacuously true for graphs with zero or one live node.
pub fn is_connected(g: &Graph) -> bool {
    let mut nodes = g.iter();
    let Some(first) = nodes.next() else {
        return true;
    };
    let dist = bfs_distances(g, first);
    g.iter().all(|v| dist[v.index()].is_some())
}

/// Eccentricity of `v`: the greatest distance from `v` to any reachable node.
///
/// Returns `None` when `v` is not live.
pub fn eccentricity(g: &Graph, v: NodeId) -> Option<u32> {
    if !g.contains(v) {
        return None;
    }
    Some(bfs_distances(g, v).into_iter().flatten().max().unwrap_or(0))
}

/// Exact diameter: the largest eccentricity over live nodes, ignoring
/// cross-component pairs. `None` for an empty graph.
///
/// Runs a BFS per node — O(n·m) — fine for the experiment sizes (n ≤ a few
/// thousand).
pub fn diameter_exact(g: &Graph) -> Option<u32> {
    g.iter().map(|v| eccentricity(g, v).unwrap_or(0)).max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn path_graph(len: usize) -> Graph {
        let mut g = Graph::with_nodes(len);
        for i in 0..len.saturating_sub(1) {
            g.add_edge(n(i as u32), n(i as u32 + 1)).unwrap();
        }
        g
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, n(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_from_removed_node_is_empty() {
        let mut g = path_graph(3);
        g.remove_node(n(0)).unwrap();
        assert!(bfs_distances(&g, n(0)).iter().all(Option::is_none));
    }

    #[test]
    fn distance_early_exit_matches_bfs() {
        let g = path_graph(6);
        assert_eq!(distance(&g, n(1), n(4)), Some(3));
        assert_eq!(distance(&g, n(2), n(2)), Some(0));
    }

    #[test]
    fn distance_across_components_is_none() {
        let mut g = path_graph(4);
        g.remove_edge(n(1), n(2)).unwrap();
        assert_eq!(distance(&g, n(0), n(3)), None);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connectivity_trivial_cases() {
        let g = Graph::new();
        assert!(is_connected(&g));
        let g = Graph::with_nodes(1);
        assert!(is_connected(&g));
        let g = Graph::with_nodes(2);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameter_of_path_and_cycle() -> Result<(), GraphError> {
        let g = path_graph(7);
        assert_eq!(diameter_exact(&g), Some(6));

        let mut c = path_graph(6);
        c.add_edge(n(5), n(0))?;
        assert_eq!(diameter_exact(&c), Some(3));
        Ok(())
    }

    #[test]
    fn eccentricity_of_center() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, n(2)), Some(2));
        assert_eq!(eccentricity(&g, n(0)), Some(4));
        let mut g2 = g.clone();
        g2.remove_node(n(2)).unwrap();
        assert_eq!(eccentricity(&g2, n(2)), None);
    }

    #[test]
    fn bfs_parents_form_tree() {
        let g = path_graph(4);
        let p = bfs_parents(&g, n(0));
        assert_eq!(p[0], Some(n(0)));
        assert_eq!(p[1], Some(n(0)));
        assert_eq!(p[2], Some(n(1)));
        assert_eq!(p[3], Some(n(2)));
    }

    #[test]
    fn bidirectional_agrees_with_single_source_bfs() {
        // A cycle with a chord and a pendant: multiple equal-length
        // routes, an off-path detour, and a dead node.
        let mut g = path_graph(8);
        g.add_edge(n(7), n(0)).unwrap();
        g.add_edge(n(2), n(6)).unwrap();
        let p = g.add_node();
        g.add_edge(n(4), p).unwrap();
        g.remove_node(n(5)).unwrap();
        for u in g.iter() {
            let ref_dist = bfs_distances(&g, u);
            for v in g.iter() {
                assert_eq!(
                    bidirectional_distance(&g, u, v),
                    ref_dist[v.index()],
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn shortest_path_is_valid_and_tight() {
        let mut g = path_graph(8);
        g.add_edge(n(7), n(0)).unwrap();
        g.add_edge(n(2), n(6)).unwrap();
        for u in g.iter() {
            for v in g.iter() {
                let d = distance(&g, u, v);
                match shortest_path(&g, u, v) {
                    None => assert_eq!(d, None, "({u}, {v})"),
                    Some(path) => {
                        assert_eq!(path.len() as u32, d.unwrap() + 1, "({u}, {v})");
                        assert_eq!(path.first(), Some(&u));
                        assert_eq!(path.last(), Some(&v));
                        for pair in path.windows(2) {
                            assert!(g.has_edge(pair[0], pair[1]), "({u}, {v}): {path:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_queries_reject_dead_endpoints() {
        let mut g = path_graph(4);
        g.remove_node(n(3)).unwrap();
        assert_eq!(bidirectional_distance(&g, n(0), n(3)), None);
        assert_eq!(bidirectional_distance(&g, n(3), n(0)), None);
        assert_eq!(shortest_path(&g, n(0), n(3)), None);
        assert_eq!(shortest_path(&g, n(2), n(2)), Some(vec![n(2)]));
        assert_eq!(bidirectional_distance(&g, n(2), n(2)), Some(0));
    }
}

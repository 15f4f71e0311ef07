//! Deterministic workload graph generators.
//!
//! The paper's guarantees are topology-independent, so the experiment
//! harness sweeps a spectrum of initial graphs `G_0`: sparse random
//! (Erdős–Rényi), heavy-tailed (Barabási–Albert, the power-law networks the
//! related-work section discusses for cascading failures), structured (grid,
//! ring, tree) and the adversarial extreme (star — the lower-bound
//! construction of Theorem 2).
//!
//! All generators take an explicit seed and use `ChaCha8Rng`, so every
//! experiment binary (DESIGN.md §5) is bit-reproducible.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn id(i: usize) -> NodeId {
    NodeId::new(i as u32)
}

/// A path `0 – 1 – … – (n−1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(id(i - 1), id(i)).expect("fresh path edge");
    }
    g
}

/// A cycle over `n ≥ 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 nodes");
    let mut g = path(n);
    g.add_edge(id(n - 1), id(0)).expect("closing edge");
    g
}

/// A star with hub `0` and `n − 1` leaves — the Theorem 2 lower-bound
/// topology.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 1, "a star needs at least its hub");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(id(0), id(i)).expect("fresh spoke");
    }
    g
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(id(i), id(j)).expect("fresh clique edge");
        }
    }
    g
}

/// A `w × h` grid (4-neighbourhood).
///
/// # Panics
///
/// Panics if `w == 0 || h == 0`.
pub fn grid(w: usize, h: usize) -> Graph {
    assert!(w > 0 && h > 0, "grid dimensions must be positive");
    let mut g = Graph::with_nodes(w * h);
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                g.add_edge(id(v), id(v + 1)).expect("fresh grid edge");
            }
            if y + 1 < h {
                g.add_edge(id(v), id(v + w)).expect("fresh grid edge");
            }
        }
    }
    g
}

/// A complete binary tree on `n` nodes in heap order (node `i` has children
/// `2i+1`, `2i+2`).
pub fn binary_tree(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(id((i - 1) / 2), id(i)).expect("fresh tree edge");
    }
    g
}

/// Erdős–Rényi `G(n, p)`; may be disconnected.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let mut r = rng(seed);
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if r.gen_bool(p) {
                g.add_edge(id(i), id(j)).expect("fresh ER edge");
            }
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)` forced connected by overlaying a uniformly random
/// spanning tree (random-permutation attachment).
pub fn connected_erdos_renyi(n: usize, p: f64, seed: u64) -> Graph {
    let mut g = erdos_renyi(n, p, seed);
    let mut r = rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut r);
    for k in 1..n {
        let u = order[k];
        let v = order[r.gen_range(0..k)];
        let _ = g.ensure_edge(id(u), id(v));
    }
    g
}

/// A uniformly random recursive tree: node `k` attaches to a uniform
/// ancestor among `0..k`.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut r = rng(seed);
    let mut g = Graph::with_nodes(n);
    for k in 1..n {
        let parent = r.gen_range(0..k);
        g.add_edge(id(parent), id(k)).expect("fresh tree edge");
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique of
/// `m + 1` nodes, then each new node attaches to `m` distinct existing
/// nodes chosen proportionally to degree. Produces the heavy-tailed degree
/// distributions of real peer-to-peer overlays.
///
/// # Panics
///
/// Panics if `m == 0` or `n < m + 1`.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m >= 1, "attachment count must be positive");
    assert!(n > m, "need at least m + 1 nodes");
    let mut r = rng(seed);
    let mut g = complete(m + 1);
    // Endpoint multiset: sampling uniformly from it = degree-proportional.
    let mut endpoints: Vec<usize> = Vec::with_capacity(4 * n * m);
    for e in g.edges() {
        endpoints.push(e.lo().index());
        endpoints.push(e.hi().index());
    }
    for _ in (m + 1)..n {
        let v = g.add_node();
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let t = endpoints[r.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            g.add_edge(v, id(t)).expect("fresh BA edge");
            endpoints.push(v.index());
            endpoints.push(t);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter_exact, is_connected};

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.max_degree(), 2);
        assert!(is_connected(&g));
        assert_eq!(diameter_exact(&g), Some(4));
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(8);
        assert_eq!(g.edge_count(), 8);
        assert!(g.iter().all(|v| g.degree(v) == 2));
    }

    #[test]
    fn star_shape() {
        let g = star(10);
        assert_eq!(g.degree(NodeId::new(0)), 9);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(diameter_exact(&g), Some(2));
        assert_eq!(star(1).node_count(), 1);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(diameter_exact(&g), Some(1));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 3);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 4 * 2 + 3 * 3); // vertical 4*2, horizontal 3*3
        assert!(is_connected(&g));
        assert_eq!(diameter_exact(&g), Some(3 + 2));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(15);
        assert_eq!(g.edge_count(), 14);
        assert!(is_connected(&g));
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn erdos_renyi_is_deterministic_per_seed() {
        let a = erdos_renyi(40, 0.1, 7);
        let b = erdos_renyi(40, 0.1, 7);
        let c = erdos_renyi(40, 0.1, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn er_density_is_plausible() {
        let g = erdos_renyi(100, 0.05, 1);
        let expected = 0.05 * (100.0 * 99.0 / 2.0);
        let m = g.edge_count() as f64;
        assert!(m > expected * 0.5 && m < expected * 1.5, "m = {m}");
    }

    #[test]
    fn connected_er_is_connected() {
        for seed in 0..5 {
            let g = connected_erdos_renyi(64, 0.02, seed);
            assert!(is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn random_tree_is_tree() {
        let g = random_tree(50, 3);
        assert_eq!(g.edge_count(), 49);
        assert!(is_connected(&g));
    }

    #[test]
    fn barabasi_albert_properties() {
        let g = barabasi_albert(200, 3, 11);
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 200);
        // Every late node has degree ≥ m.
        assert!(g.iter().all(|v| g.degree(v) >= 3));
        // Heavy tail: someone has far more than the minimum.
        assert!(g.max_degree() >= 10);
    }
}

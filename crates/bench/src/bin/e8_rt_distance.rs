//! E8 — Figure 2 / §3: a deleted node's neighbours, formerly at distance
//! 2 through it, end up within `2·⌈log₂ d⌉` hops through its
//! reconstruction tree.
//!
//! Deletes the hub of a star of degree `d` and measures the worst
//! pairwise distance among its former neighbours in the healed network.

use fg_bench::{ceil_log2, BenchArgs};
use fg_core::ForgivingGraph;
use fg_graph::{generators, traversal, NodeId};
use fg_metrics::Table;

fn main() {
    let args = BenchArgs::parse(&[]);
    let mut table = Table::new(
        "E8 — neighbour distance through one reconstruction tree (bound 2·⌈log₂ d⌉)",
        ["d", "RT depth", "max pair dist", "bound", "within"],
    );
    for &base in &[2usize, 4, 8, 16, 64, 256, 1024, 4096] {
        let d = args.scale_with_floor(base, 2);
        let mut fg = ForgivingGraph::from_graph(&generators::star(d + 1)).expect("fresh");
        let report = fg.delete(NodeId::new(0)).expect("hub alive");
        // Worst pairwise distance among the hub's former neighbours.
        let mut worst = 0u32;
        let sample: Vec<NodeId> = fg.image().iter().take(32).collect();
        for &x in &sample {
            let dist = traversal::bfs_distances(fg.image(), x);
            for y in fg.image().iter() {
                if let Some(dy) = dist[y.index()] {
                    worst = worst.max(dy);
                }
            }
        }
        let bound = 2 * ceil_log2(d);
        table.push_row([
            d.to_string(),
            report.rt_depth.to_string(),
            worst.to_string(),
            bound.to_string(),
            (worst <= bound).to_string(),
        ]);
    }
    args.emit(&[&table]);
}

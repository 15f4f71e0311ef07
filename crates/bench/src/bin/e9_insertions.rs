//! E9 — the paper's second and third improvements over the Forgiving
//! Tree: adversarial *insertions* are handled, and no initialisation
//! phase is needed.
//!
//! Runs insert-heavy churn against both systems. The Forgiving Graph
//! keeps its `G'`-relative stretch bound; the Forgiving Tree protects
//! only its spanning tree, so edges inserted off-tree die unprotected and
//! stretch (relative to everything the adversary built) deteriorates.
//! The preprocessing column shows the PODC 2008 `O(n log n)` set-up cost
//! against the Forgiving Graph's zero.

use fg_adversary::{run_attack, ChurnAdversary};
use fg_baselines::ForgivingTree;
use fg_bench::BenchArgs;
use fg_core::{ForgivingGraph, SelfHealer};
use fg_graph::generators;
use fg_metrics::{f2, measure_sampled, Table};

fn main() {
    let args = BenchArgs::parse(&[]);
    let seed = args.seed(31);
    let mut table = Table::new(
        "E9 — insertions + preprocessing: Forgiving Graph vs Forgiving Tree",
        [
            "n0",
            "steps",
            "healer",
            "init msgs",
            "connected",
            "max stretch",
            "mean stretch",
            "max deg ratio",
        ],
    );
    for &base in &[64usize, 256] {
        let n = args.scale_n(base);
        let g = generators::connected_erdos_renyi(n, 8.0 / n as f64, seed);
        let mut fg = ForgivingGraph::from_graph(&g).expect("fresh");
        // Insert-heavy churn: 70% insertions with fan up to 4.
        let steps = 2 * n;
        let mut adv = ChurnAdversary::new(seed.wrapping_sub(22), 0.3, 4, 8, steps);
        let log = run_attack(&mut fg, &mut adv, steps).expect("attack is legal");
        fg.check_invariants().expect("invariants hold");

        let mut ft = ForgivingTree::from_graph(&g);
        let _ = ft.apply_batch(&log.events).expect("same trace is legal");

        for (init, summary) in [
            (0u64, measure_sampled(&fg, 64, seed.wrapping_sub(26))),
            (
                ft.init_messages(),
                measure_sampled(&ft, 64, seed.wrapping_sub(26)),
            ),
        ] {
            table.push_row([
                n.to_string(),
                format!("{}+{}", log.insertions, log.deletions),
                summary.healer.to_string(),
                init.to_string(),
                summary.connected.to_string(),
                f2(summary.stretch.max),
                f2(summary.stretch.mean),
                f2(summary.degree.max_ratio),
            ]);
        }
    }
    args.emit(&[&table]);
}

//! E5 — the paper's positioning (§1, related work): the Forgiving Graph
//! against its predecessor and the naive healers, under the *same*
//! adversarial trace.
//!
//! Runs a recorded random-deletion attack against every healer and
//! tabulates connectivity, stretch, degree blow-up and diameter.

use fg_adversary::{run_attack, RandomDeleter};
use fg_baselines::{
    BinaryTreeHealer, CliqueHealer, CycleHealer, ForgivingTree, NoHealer, StarHealer,
};
use fg_bench::BenchArgs;
use fg_core::{ForgivingGraph, SelfHealer};
use fg_graph::generators;
use fg_metrics::{f2, measure, Table};

fn main() {
    let args = BenchArgs::parse(&[]);
    let seed = args.seed(21);
    let n = args.scale_n(256);
    let g = generators::connected_erdos_renyi(n, 8.0 / n as f64, seed);

    // Record the attack once, against the Forgiving Graph.
    let mut fg = ForgivingGraph::from_graph(&g).expect("fresh graph");
    let mut adv = RandomDeleter::new(seed.wrapping_sub(4), n / 2);
    let log = run_attack(&mut fg, &mut adv, n).expect("attack is legal");

    let mut healers: Vec<Box<dyn SelfHealer>> = vec![
        Box::new(ForgivingTree::from_graph(&g)),
        Box::new(NoHealer::from_graph(&g)),
        Box::new(CycleHealer::from_graph(&g)),
        Box::new(StarHealer::from_graph(&g)),
        Box::new(CliqueHealer::from_graph(&g)),
        Box::new(BinaryTreeHealer::from_graph(&g)),
    ];

    let mut table = Table::new(
        &format!(
            "E5 — healer comparison: ER n={n}, {} random deletions (same trace for all)",
            log.deletions
        ),
        [
            "healer",
            "connected",
            "max stretch",
            "mean stretch",
            "max deg ratio",
            "diameter",
            "edges",
        ],
    );

    let summary = measure(&fg);
    table.push_row([
        summary.healer.to_string(),
        summary.connected.to_string(),
        f2(summary.stretch.max),
        f2(summary.stretch.mean),
        f2(summary.degree.max_ratio),
        summary.diameter.map_or("-".into(), |d| d.to_string()),
        fg.image().edge_count().to_string(),
    ]);

    for healer in &mut healers {
        let _ = healer
            .apply_batch(&log.events)
            .expect("same trace is legal");
        let summary = measure(healer.as_ref());
        table.push_row([
            summary.healer.to_string(),
            summary.connected.to_string(),
            f2(summary.stretch.max),
            f2(summary.stretch.mean),
            f2(summary.degree.max_ratio),
            summary.diameter.map_or("-".into(), |d| d.to_string()),
            healer.image().edge_count().to_string(),
        ]);
    }
    args.emit(&[&table]);
}

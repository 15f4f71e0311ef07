//! The healing zoo: every strategy in the workspace facing the same
//! attack, so the design space of the paper's §1 is visible in one table.
//!
//! ```bash
//! cargo run --release --example healing_zoo
//! ```

use fg_adversary::{run_attack, MaxDegreeDeleter};
use fg_baselines::{
    BinaryTreeHealer, CliqueHealer, CycleHealer, ForgivingTree, NoHealer, StarHealer,
};
use fg_core::{BatchReport, ForgivingGraph, SelfHealer};
use fg_graph::generators;
use fg_metrics::{f2, measure, Table};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::barabasi_albert(96, 2, 9);
    let mut fg = ForgivingGraph::from_graph(&g)?;
    let mut adversary = MaxDegreeDeleter::new(48);
    let log = run_attack(&mut fg, &mut adversary, 96)?;

    let mut zoo: Vec<Box<dyn SelfHealer>> = vec![
        Box::new(ForgivingTree::from_graph(&g)),
        Box::new(CycleHealer::from_graph(&g)),
        Box::new(StarHealer::from_graph(&g)),
        Box::new(CliqueHealer::from_graph(&g)),
        Box::new(BinaryTreeHealer::from_graph(&g)),
        Box::new(NoHealer::from_graph(&g)),
    ];

    // Every healer answers the same trace with typed per-op reports, so
    // the repair-cost columns come straight from the API — no re-walks.
    let mut table = Table::new(
        &format!(
            "healing zoo — BA(96,2), {} hub deletions (same trace for everyone)",
            log.deletions
        ),
        [
            "healer",
            "connected",
            "max stretch",
            "max deg ratio",
            "edges",
            "edges healed in",
            "worst repair churn",
        ],
    );
    let zoo_row = |healer: &dyn SelfHealer, report: &BatchReport| {
        let h = measure(healer);
        [
            h.healer.to_string(),
            h.connected.to_string(),
            f2(h.stretch.max),
            f2(h.degree.max_ratio),
            healer.image().edge_count().to_string(),
            report.edges_added.to_string(),
            report.max_churn.to_string(),
        ]
    };
    table.push_row(zoo_row(&fg, &log.report));
    for healer in &mut zoo {
        let report = healer.apply_batch(&log.events)?;
        table.push_row(zoo_row(healer.as_ref(), &report));
    }
    println!("{}", table.to_markdown());

    // The worst single repair, straight from the outcome stream.
    if let Some(worst) = log.report.repairs().max_by_key(|r| r.churn()) {
        println!(
            "forgiving-graph's worst repair: {} (G' degree {}) — {} fragments over {} \
             affected nodes, {} buckets, +{}/-{} edges, churn {}",
            worst.deleted,
            worst.ghost_degree,
            worst.fragments,
            worst.affected_nodes,
            worst.buckets,
            worst.edges_added,
            worst.edges_dropped,
            worst.churn()
        );
    }
    Ok(())
}

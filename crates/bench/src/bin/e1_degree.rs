//! E1 — Theorem 1.1: degree increase stays within a constant factor of
//! the node's `G'` degree.
//!
//! Sweeps workload families, sizes, adversaries and both placement
//! policies, deleting half the nodes and measuring the worst and mean
//! `deg(v, G) / deg(v, G')`. The paper claims factor 3; this
//! implementation's provable envelope for the conference pseudocode is 4
//! (DESIGN.md §2) — the table quantifies how often anything above 3
//! actually appears.

use fg_adversary::{run_attack, Adversary, MaxDegreeDeleter, RandomDeleter};
use fg_bench::{engine, BenchArgs};
use fg_core::PlacementPolicy;
use fg_metrics::{degree_stats, f2, ratio_histogram, Table};

fn main() {
    let args = BenchArgs::parse(&[]);
    let seed = args.seed(7);
    let mut table = Table::new(
        "E1 — degree increase vs G' (Theorem 1.1; paper bound 3, hard envelope 4)",
        [
            "workload",
            "n",
            "adversary",
            "policy",
            "max ratio",
            "mean ratio",
            ">3 nodes",
            "ratio histogram ≤1|≤2|≤3|≤4|>4",
        ],
    );
    for &workload in &["star", "er", "ba", "grid"] {
        for &base in &[64usize, 256, 1024] {
            let n = args.scale_n(base);
            for adv_name in ["random", "max-degree"] {
                for policy in [PlacementPolicy::Adjacent, PlacementPolicy::PaperExact] {
                    let mut fg = engine(workload, n, seed, policy);
                    let floor = n / 2;
                    let mut random;
                    let mut maxdeg;
                    let adv: &mut dyn Adversary = if adv_name == "random" {
                        random = RandomDeleter::new(seed + 4, floor);
                        &mut random
                    } else {
                        maxdeg = MaxDegreeDeleter::new(floor);
                        &mut maxdeg
                    };
                    run_attack(&mut fg, adv, n).expect("attack is legal");
                    fg.check_invariants().expect("invariants hold");
                    let stats = degree_stats(fg.image(), fg.ghost());
                    let hist = ratio_histogram(fg.image(), fg.ghost());
                    table.push_row([
                        workload.to_string(),
                        n.to_string(),
                        adv_name.to_string(),
                        format!("{policy:?}"),
                        f2(stats.max_ratio),
                        f2(stats.mean_ratio),
                        stats.above_three.to_string(),
                        format!(
                            "{}|{}|{}|{}|{}",
                            hist[0], hist[1], hist[2], hist[3], hist[4]
                        ),
                    ]);
                }
            }
        }
    }
    args.emit(&[&table]);
}

//! E2 — Theorem 1.2: stretch vs `G'` never exceeds `⌈log₂ n⌉`.
//!
//! Deletes half of each workload and measures worst-case pair stretch
//! against the bound. Stretch is exact up to `--stretch-threshold` live
//! nodes (default 256) and sampled from `--stretch-samples` BFS sources
//! (default 48) above it, so scaled-up sweeps (`--scale`) never go
//! quadratic. Shared flags: `--seed`, `--scale`, `--json <path>`.

use fg_adversary::{run_attack, MaxDegreeDeleter, RandomDeleter};
use fg_bench::{ceil_log2, engine, BenchArgs};
use fg_core::PlacementPolicy;
use fg_metrics::{f2, stretch_auto, Table};

fn main() {
    let args = BenchArgs::parse(&["stretch-samples", "stretch-threshold"]);
    let seed = args.seed(3);
    let threshold = args.get("stretch-threshold", 256usize);
    let samples = args.get("stretch-samples", 48usize);
    let mut table = Table::new(
        "E2 — network stretch vs G' (Theorem 1.2; bound ⌈log₂ n⌉)",
        [
            "workload",
            "n",
            "adversary",
            "max stretch",
            "mean",
            "pairs",
            "bound",
            "within",
        ],
    );
    for &workload in &["star", "er", "ba", "cycle"] {
        for &base in &[64usize, 256, 1024] {
            let n = args.scale_n(base);
            for adv_name in ["random", "max-degree"] {
                let mut fg = engine(workload, n, seed, PlacementPolicy::Adjacent);
                let floor = n / 2;
                if adv_name == "random" {
                    let mut adv = RandomDeleter::new(seed + 2, floor);
                    run_attack(&mut fg, &mut adv, n).expect("attack is legal");
                } else {
                    let mut adv = MaxDegreeDeleter::new(floor);
                    run_attack(&mut fg, &mut adv, n).expect("attack is legal");
                }
                let stretch = stretch_auto(fg.image(), fg.ghost(), threshold, samples, seed + 6);
                let bound = ceil_log2(fg.nodes_ever());
                table.push_row([
                    workload.to_string(),
                    n.to_string(),
                    adv_name.to_string(),
                    f2(stretch.max),
                    f2(stretch.mean),
                    stretch.pairs.to_string(),
                    bound.to_string(),
                    (stretch.max <= bound as f64).to_string(),
                ]);
            }
        }
    }
    args.emit(&[&table]);
}

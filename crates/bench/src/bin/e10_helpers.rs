//! E10 — Lemma 3: helper accounting.
//!
//! At rest, every slot (processor, `G'`-edge) simulates at most one
//! helper, so a processor's helper count never exceeds its count of dead
//! neighbours; and the representative cache never goes stale (zero
//! fallbacks). Measured over heavy churn on several workloads.

use fg_adversary::{run_attack, ChurnAdversary, MaxDegreeDeleter};
use fg_bench::{engine, BenchArgs};
use fg_core::PlacementPolicy;
use fg_graph::NodeId;
use fg_metrics::Table;
use std::collections::BTreeMap;

fn main() {
    let args = BenchArgs::parse(&[]);
    let seed = args.seed(17);
    let mut table = Table::new(
        "E10 — helper accounting (Lemma 3): ≤ 1 helper per slot, rep cache never stale",
        [
            "workload",
            "n",
            "attack",
            "helpers",
            "max helpers/proc",
            "max dead nbrs",
            "slot violations",
            "rep fallbacks",
        ],
    );
    for &(workload, base) in &[("er", 128usize), ("ba", 128), ("star", 64)] {
        let n = args.scale_n(base);
        for attack in ["churn", "hubs"] {
            let mut fg = engine(workload, n, seed, PlacementPolicy::Adjacent);
            if attack == "churn" {
                let mut adv = ChurnAdversary::new(seed.wrapping_sub(14), 0.55, 3, 8, 3 * n);
                run_attack(&mut fg, &mut adv, 3 * n).expect("attack is legal");
            } else {
                let mut adv = MaxDegreeDeleter::new(n / 4);
                run_attack(&mut fg, &mut adv, n).expect("attack is legal");
            }
            fg.check_invariants().expect("invariants hold");

            // Count helpers per processor and dead neighbours per processor.
            let mut helpers: BTreeMap<NodeId, usize> = BTreeMap::new();
            let mut violations = 0usize;
            for (key, _) in fg.forest().iter() {
                if key.is_helper() {
                    *helpers.entry(key.owner()).or_default() += 1;
                    // Slot uniqueness is structural (one key per slot) —
                    // a violation would mean the same (owner, other)
                    // appearing twice, which the map cannot represent;
                    // check the leaf exists instead (Lemma 3's coupling).
                    if !fg.forest().contains(key.slot.real()) {
                        violations += 1;
                    }
                }
            }
            let max_helpers = helpers.values().copied().max().unwrap_or(0);
            let max_dead = fg
                .image()
                .iter()
                .map(|v| fg.ghost().neighbors(v).filter(|&x| !fg.is_alive(x)).count())
                .max()
                .unwrap_or(0);
            assert!(max_helpers <= max_dead.max(1), "Lemma 3.1 violated");
            table.push_row([
                workload.to_string(),
                n.to_string(),
                attack.to_string(),
                helpers.values().sum::<usize>().to_string(),
                max_helpers.to_string(),
                max_dead.to_string(),
                violations.to_string(),
                fg.stats().rep_fallbacks.to_string(),
            ]);
        }
    }
    args.emit(&[&table]);
}

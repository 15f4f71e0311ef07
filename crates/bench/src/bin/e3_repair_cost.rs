//! E3 — Lemma 4 / Theorem 1.3: repair costs from the *message-passing*
//! protocol.
//!
//! Hub deletions of increasing degree `d` on stars and dense random
//! graphs; per repair: messages (`O(d log n)`), rounds
//! (`O(log d · log n)`), and the largest message (`O(log n)` names).
//! The normalized columns divide by the paper envelopes — flat values
//! mean the shape holds.

use fg_bench::BenchArgs;
use fg_core::{PlacementPolicy, SelfHealer};
use fg_dist::DistHealer;
use fg_graph::{generators, NodeId};
use fg_metrics::{f2, Table};

fn main() {
    let args = BenchArgs::parse(&[]);
    let seed = args.seed(13);
    let mut table = Table::new(
        "E3 — distributed repair cost (Lemma 4): messages O(d log n), rounds O(log d · log n)",
        [
            "graph",
            "n",
            "d",
            "messages",
            "msgs/(d·log n)",
            "rounds",
            "rounds/(log d·log n)",
            "max msg bits",
        ],
    );
    // Star hubs: the cleanest d sweep.
    for &base in &[4usize, 8, 16, 32, 64, 128, 256] {
        let d = args.scale_with_floor(base, 2);
        let g = generators::star(d + 1);
        let mut healer = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
        let _ = healer.delete(NodeId::new(0)).expect("hub is alive");
        let cost = healer.costs().last().expect("repair ran").clone();
        table.push_row([
            "star".to_string(),
            (d + 1).to_string(),
            d.to_string(),
            cost.messages.to_string(),
            f2(cost.normalized_messages()),
            cost.rounds.to_string(),
            f2(cost.normalized_rounds()),
            cost.max_message_bits.to_string(),
        ]);
    }
    // Random graphs under cascades: merged reconstruction trees.
    for &base in &[32usize, 64, 128, 256] {
        let n = args.scale_n(base);
        let g = generators::connected_erdos_renyi(n, 8.0 / n as f64, seed);
        let mut healer = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
        // Delete a quarter of the nodes, then report the costliest repair.
        for v in 0..(n as u32) / 4 {
            let _ = healer.delete(NodeId::new(v)).expect("alive");
        }
        let worst = healer
            .costs()
            .iter()
            .max_by_key(|c| c.messages)
            .expect("repairs happened")
            .clone();
        table.push_row([
            "er-cascade".to_string(),
            n.to_string(),
            worst.victim_degree.to_string(),
            worst.messages.to_string(),
            f2(worst.normalized_messages()),
            worst.rounds.to_string(),
            f2(worst.normalized_rounds()),
            worst.max_message_bits.to_string(),
        ]);
    }
    args.emit(&[&table]);
}

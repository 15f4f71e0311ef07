//! E7 — Figure 5 / §4.1.2: merging hafts is binary addition.
//!
//! Reproduces the figure's example (5 + 2 + 1 = 8 gives a complete tree)
//! and then checks random multi-way merges: the result's primary-root
//! decomposition always equals the set bits of the summed leaf count, and
//! its depth is `⌈log₂ Σ⌉`.

use fg_bench::BenchArgs;
use fg_haft::{binary, ops, Haft};
use fg_metrics::Table;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn main() {
    let args = BenchArgs::parse(&[]);
    let mut table = Table::new(
        "E7 — merge ≡ binary addition (Figure 5)",
        [
            "inputs (leaf counts)",
            "sum",
            "sum binary",
            "result strip",
            "depth",
            "⌈log₂⌉",
            "ok",
        ],
    );

    // The figure's own example.
    let mut cases: Vec<Vec<usize>> = vec![vec![5, 2, 1]];
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed(42));
    for _ in 0..9 {
        let k = rng.gen_range(2..6);
        cases.push((0..k).map(|_| rng.gen_range(1..500)).collect());
    }

    let mut random_checks = 0usize;
    for _ in 0..500 {
        let k = rng.gen_range(2..7);
        let sizes: Vec<usize> = (0..k).map(|_| rng.gen_range(1..800)).collect();
        let total: usize = sizes.iter().sum();
        let merged = ops::merge(sizes.iter().map(|&s| Haft::build_from(0..s)).collect());
        assert_eq!(merged.leaf_count(), total);
        assert_eq!(merged.primary_root_sizes(), binary::set_bit_sizes(total));
        assert_eq!(merged.depth(), binary::expected_depth(total));
        merged.check_invariants().expect("valid haft");
        random_checks += 1;
    }

    for sizes in cases {
        let total: usize = sizes.iter().sum();
        let merged = ops::merge(sizes.iter().map(|&s| Haft::build_from(0..s)).collect());
        let ok = merged.primary_root_sizes() == binary::set_bit_sizes(total)
            && merged.depth() == binary::expected_depth(total);
        table.push_row([
            format!("{sizes:?}"),
            total.to_string(),
            format!("{total:b}"),
            format!("{:?}", merged.primary_root_sizes()),
            merged.depth().to_string(),
            binary::expected_depth(total).to_string(),
            ok.to_string(),
        ]);
    }
    args.emit(&[&table]);
    println!("({random_checks} additional random merges verified silently.)");
}

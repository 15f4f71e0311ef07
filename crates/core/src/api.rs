//! The typed operation/outcome layer: rich per-operation reports and
//! batch aggregation.
//!
//! The paper's guarantees are *per-repair* quantities — the Lemma 4 cost
//! envelopes, the ≤ 3 degree increase, the ⌈log₂ n⌉ stretch — so the
//! public API returns them instead of discarding them. Every adversarial
//! operation produces a typed outcome:
//!
//! * an insertion yields an [`InsertReport`] (the new node plus the edges
//!   it attached),
//! * a deletion yields a [`RepairReport`] (what the self-healing repair
//!   did, edge-level),
//! * [`HealOutcome`] is the sum of the two, returned by
//!   [`crate::SelfHealer::apply_event`], and
//! * [`BatchReport`] aggregates a whole batch with the Theorem 1.3
//!   envelope accounting, returned by [`crate::SelfHealer::apply_batch`].
//!
//! **Determinism note:** every field of [`RepairReport`] is a structural
//! quantity of the repair itself (not of the machinery that ran it), so
//! the sequential engine and the message-passing protocol produce
//! *bit-identical* reports for the same event on the same state — the
//! differential suite asserts exactly that. Message/round counts, which
//! are protocol-specific, stay in `fg_dist::RepairCost`.

#![deny(missing_docs)]

use fg_graph::NodeId;
use serde::{Deserialize, Serialize};

/// `⌈log₂ n⌉`, floored at 1 — the paper's name length in bits, the
/// denominator of every normalized envelope (here, in `fg_dist`'s
/// Lemma 4 accounting, and in the bench tables). One definition so the
/// normalizations can never drift apart across crates.
pub fn ceil_log2(n: usize) -> u64 {
    let n = n.max(2);
    u64::from((usize::BITS - (n - 1).leading_zeros()).max(1))
}

/// What one adversarial insertion did.
///
/// Insertions need no healing (paper §3): the report records the new
/// node and the adversarial edges it attached.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InsertReport {
    /// The freshly inserted node.
    pub node: NodeId,
    /// How many neighbours the adversary attached it to.
    pub neighbors: usize,
    /// Image edge units added (one per neighbour; inserts never drop
    /// edges).
    pub edges_added: u64,
}

/// What one deletion repair did — the observable quantities behind
/// Theorem 1's cost claims.
///
/// Every field is structural (a property of the repair, not of the
/// implementation that ran it): the sequential engine and the
/// distributed protocol return identical reports for identical events.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairReport {
    /// The deleted node.
    pub deleted: NodeId,
    /// Its degree in `G'` at deletion time — the paper's `d`.
    pub ghost_degree: usize,
    /// How many of its neighbours were still alive.
    pub alive_neighbors: usize,
    /// Nodes ever seen at deletion time — the paper's `n`, the
    /// denominator of every normalized envelope.
    pub nodes_ever: usize,
    /// Fragments (RTs and RT-fragments) that joined `BT_v`.
    pub fragments: usize,
    /// Complete trees collected across all fragments.
    pub trees_collected: usize,
    /// Entries in the victim's will: its virtual nodes (leaves plus
    /// helpers) at deletion time — what failure detection replays.
    pub will_entries: usize,
    /// `BT_v` positions whose bucket was non-empty (fragment forests
    /// routed to their smallest anchor).
    pub buckets: usize,
    /// Distinct live processors that took part in the repair (owners of
    /// `BT_v` anchors, including the fresh leaves' owners).
    pub affected_nodes: usize,
    /// Image edge units created by the repair (two per helper join).
    pub edges_added: u64,
    /// Image edge units released (the victim's original edges plus every
    /// detached tree edge, including strips).
    pub edges_dropped: u64,
    /// Helpers created during the merge.
    pub helpers_created: u64,
    /// Helpers freed (red + stripped spine).
    pub helpers_freed: u64,
    /// New leaves (one per alive neighbour).
    pub leaves_created: u64,
    /// Leaves removed (the victim's own endpoints).
    pub leaves_removed: u64,
    /// Bottom-up merge rounds (the height of `BT_v`).
    pub btv_rounds: u32,
    /// Leaf count of the final reconstruction tree (0 if none was needed).
    pub rt_leaves: u32,
    /// Depth of the final reconstruction tree.
    pub rt_depth: u32,
}

impl RepairReport {
    /// A zero-filled report for deleting `deleted`; implementations fill
    /// in what their repair actually did.
    pub fn for_deletion(
        deleted: NodeId,
        ghost_degree: usize,
        alive_neighbors: usize,
        nodes_ever: usize,
    ) -> Self {
        RepairReport {
            deleted,
            ghost_degree,
            alive_neighbors,
            nodes_ever,
            fragments: 0,
            trees_collected: 0,
            will_entries: 0,
            buckets: 0,
            affected_nodes: 0,
            edges_added: 0,
            edges_dropped: 0,
            helpers_created: 0,
            helpers_freed: 0,
            leaves_created: 0,
            leaves_removed: 0,
            btv_rounds: 0,
            rt_leaves: 0,
            rt_depth: 0,
        }
    }

    /// Upper envelope for virtual-node churn from Theorem 1.3:
    /// `O(d log n)` where `d` is the victim's `G'` degree.
    pub fn churn(&self) -> u64 {
        self.helpers_created + self.helpers_freed + self.leaves_created + self.leaves_removed
    }

    /// `churn / (d · ⌈log₂ n⌉)` — flat across `d` and `n` when the
    /// Theorem 1.3 envelope holds.
    #[must_use = "the normalized envelope is the quantity under test"]
    pub fn normalized_churn(&self) -> f64 {
        let d = self.ghost_degree.max(1) as f64;
        self.churn() as f64 / (d * ceil_log2(self.nodes_ever) as f64)
    }
}

/// A 64-bit FNV-1a accumulator for report digests.
///
/// Golden-trace regression files store one digest per event; the fold is
/// spelled out here (no `std::hash`) so digests are stable across
/// platforms, compiler releases and hasher-seed changes — any drift in a
/// checked-in digest is a *behaviour* change, never an environment change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportDigest(u64);

impl ReportDigest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        ReportDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one 64-bit word into the digest, byte by byte.
    pub fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// The accumulated digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for ReportDigest {
    fn default() -> Self {
        ReportDigest::new()
    }
}

impl InsertReport {
    /// A stable structural digest of this report (see [`ReportDigest`]).
    pub fn digest(&self) -> u64 {
        ReportDigest::new()
            .word(1) // outcome tag: insert
            .word(u64::from(self.node.raw()))
            .word(self.neighbors as u64)
            .word(self.edges_added)
            .value()
    }
}

impl RepairReport {
    /// A stable structural digest over every field (see [`ReportDigest`]).
    pub fn digest(&self) -> u64 {
        ReportDigest::new()
            .word(2) // outcome tag: repair
            .word(u64::from(self.deleted.raw()))
            .word(self.ghost_degree as u64)
            .word(self.alive_neighbors as u64)
            .word(self.nodes_ever as u64)
            .word(self.fragments as u64)
            .word(self.trees_collected as u64)
            .word(self.will_entries as u64)
            .word(self.buckets as u64)
            .word(self.affected_nodes as u64)
            .word(self.edges_added)
            .word(self.edges_dropped)
            .word(self.helpers_created)
            .word(self.helpers_freed)
            .word(self.leaves_created)
            .word(self.leaves_removed)
            .word(u64::from(self.btv_rounds))
            .word(u64::from(self.rt_leaves))
            .word(u64::from(self.rt_depth))
            .value()
    }
}

/// The typed outcome of one adversarial event.
#[must_use]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealOutcome {
    /// The event inserted a node (no healing needed).
    Inserted {
        /// The new node's id.
        node: NodeId,
        /// What the insertion attached.
        report: InsertReport,
    },
    /// The event deleted a node and the network repaired itself.
    Repaired {
        /// What the repair did.
        report: RepairReport,
    },
}

impl HealOutcome {
    /// The inserted node, if this outcome was an insertion.
    pub fn node(&self) -> Option<NodeId> {
        match self {
            HealOutcome::Inserted { node, .. } => Some(*node),
            HealOutcome::Repaired { .. } => None,
        }
    }

    /// The repair report, if this outcome was a deletion.
    pub fn repair(&self) -> Option<&RepairReport> {
        match self {
            HealOutcome::Inserted { .. } => None,
            HealOutcome::Repaired { report } => Some(report),
        }
    }

    /// Whether this outcome was a repair (deletion).
    pub fn is_repair(&self) -> bool {
        matches!(self, HealOutcome::Repaired { .. })
    }

    /// Image edge units this operation added.
    pub fn edges_added(&self) -> u64 {
        match self {
            HealOutcome::Inserted { report, .. } => report.edges_added,
            HealOutcome::Repaired { report } => report.edges_added,
        }
    }

    /// Image edge units this operation dropped.
    pub fn edges_dropped(&self) -> u64 {
        match self {
            HealOutcome::Inserted { .. } => 0,
            HealOutcome::Repaired { report } => report.edges_dropped,
        }
    }

    /// A stable structural digest of the outcome's report (see
    /// [`ReportDigest`]) — what the golden-trace corpus records per event.
    pub fn digest(&self) -> u64 {
        match self {
            HealOutcome::Inserted { report, .. } => report.digest(),
            HealOutcome::Repaired { report } => report.digest(),
        }
    }
}

/// Per-op outcomes plus aggregate accounting for one ingestion batch —
/// what [`crate::SelfHealer::apply_batch`] returns.
///
/// Integer aggregates are maintained incrementally by [`BatchReport::push`];
/// the floating-point Theorem 1.3 envelope is computed on demand from the
/// stored outcomes so the report itself stays `Eq`.
#[must_use]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Every operation's outcome, in application order.
    pub outcomes: Vec<HealOutcome>,
    /// Insertions in the batch.
    pub inserts: u64,
    /// Deletions (repairs) in the batch.
    pub deletes: u64,
    /// Image edge units added across all operations.
    pub edges_added: u64,
    /// Image edge units dropped across all operations.
    pub edges_dropped: u64,
    /// Helpers created across all repairs.
    pub helpers_created: u64,
    /// Helpers freed across all repairs.
    pub helpers_freed: u64,
    /// Leaves created across all repairs.
    pub leaves_created: u64,
    /// Leaves removed across all repairs.
    pub leaves_removed: u64,
    /// Total bottom-up merge rounds across all repairs.
    pub btv_rounds: u64,
    /// Largest single-repair virtual-node churn in the batch.
    pub max_churn: u64,
}

impl BatchReport {
    /// An empty batch report.
    pub fn new() -> Self {
        BatchReport::default()
    }

    /// Records one outcome, updating every aggregate.
    pub fn push(&mut self, outcome: HealOutcome) {
        match &outcome {
            HealOutcome::Inserted { report, .. } => {
                self.inserts += 1;
                self.edges_added += report.edges_added;
            }
            HealOutcome::Repaired { report } => {
                self.deletes += 1;
                self.edges_added += report.edges_added;
                self.edges_dropped += report.edges_dropped;
                self.helpers_created += report.helpers_created;
                self.helpers_freed += report.helpers_freed;
                self.leaves_created += report.leaves_created;
                self.leaves_removed += report.leaves_removed;
                self.btv_rounds += u64::from(report.btv_rounds);
                self.max_churn = self.max_churn.max(report.churn());
            }
        }
        self.outcomes.push(outcome);
    }

    /// Folds another batch's outcomes into this one (in order).
    pub fn merge(&mut self, other: BatchReport) {
        for outcome in other.outcomes {
            self.push(outcome);
        }
    }

    /// Number of operations in the batch.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether the batch recorded no operations.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterator over the repair reports of the batch's deletions.
    pub fn repairs(&self) -> impl Iterator<Item = &RepairReport> {
        self.outcomes.iter().filter_map(HealOutcome::repair)
    }

    /// Total virtual-node churn across all repairs.
    pub fn total_churn(&self) -> u64 {
        self.helpers_created + self.helpers_freed + self.leaves_created + self.leaves_removed
    }

    /// Max over the batch's repairs of `churn / (d · ⌈log₂ n⌉)` — the
    /// aggregate Theorem 1.3 / Lemma 4 envelope. `0.0` for a batch with
    /// no deletions.
    #[must_use = "the normalized envelope is the quantity under test"]
    pub fn max_normalized_churn(&self) -> f64 {
        self.repairs()
            .map(RepairReport::normalized_churn)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repair(d: usize, churn_each: u64) -> RepairReport {
        RepairReport {
            helpers_created: churn_each,
            edges_added: 2 * churn_each,
            edges_dropped: 3,
            ..RepairReport::for_deletion(NodeId::new(0), d, d, 32)
        }
    }

    #[test]
    fn churn_sums_all_virtual_node_traffic() {
        let r = RepairReport {
            helpers_created: 2,
            helpers_freed: 1,
            leaves_created: 3,
            leaves_removed: 1,
            ..RepairReport::for_deletion(NodeId::new(0), 4, 3, 16)
        };
        assert_eq!(r.churn(), 7);
        // d·⌈log₂ 16⌉ = 4·4 = 16.
        assert!((r.normalized_churn() - 7.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn batch_report_aggregates_outcomes() {
        let mut batch = BatchReport::new();
        batch.push(HealOutcome::Inserted {
            node: NodeId::new(9),
            report: InsertReport {
                node: NodeId::new(9),
                neighbors: 2,
                edges_added: 2,
            },
        });
        batch.push(HealOutcome::Repaired {
            report: repair(4, 5),
        });
        batch.push(HealOutcome::Repaired {
            report: repair(4, 2),
        });
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.inserts, 1);
        assert_eq!(batch.deletes, 2);
        assert_eq!(batch.edges_added, 2 + 10 + 4);
        assert_eq!(batch.edges_dropped, 6);
        assert_eq!(batch.max_churn, 5);
        assert_eq!(batch.repairs().count(), 2);
        // worst repair: churn 5 over d·log n = 4·5 = 20.
        assert!((batch.max_normalized_churn() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_replays_outcomes() {
        let mut a = BatchReport::new();
        a.push(HealOutcome::Repaired {
            report: repair(2, 1),
        });
        let mut b = BatchReport::new();
        b.push(HealOutcome::Repaired {
            report: repair(2, 4),
        });
        a.merge(b);
        assert_eq!(a.deletes, 2);
        assert_eq!(a.max_churn, 4);
    }

    #[test]
    fn outcome_accessors() {
        let ins = HealOutcome::Inserted {
            node: NodeId::new(3),
            report: InsertReport {
                node: NodeId::new(3),
                neighbors: 1,
                edges_added: 1,
            },
        };
        assert_eq!(ins.node(), Some(NodeId::new(3)));
        assert!(!ins.is_repair());
        assert_eq!(ins.edges_added(), 1);
        assert_eq!(ins.edges_dropped(), 0);
        let rep = HealOutcome::Repaired {
            report: repair(2, 1),
        };
        assert!(rep.is_repair());
        assert!(rep.repair().is_some());
        assert_eq!(rep.node(), None);
    }
}

//! Lifetime counters over the engine's whole history.
//!
//! Per-operation reports live in [`crate::api`]; this module keeps the
//! cumulative view ([`EngineStats`]) used by experiments that track a
//! network over its lifetime rather than per event.

use serde::{Deserialize, Serialize};

/// Cumulative counters over the engine's lifetime, plus arena occupancy
/// gauges.
///
/// Equality compares only the **logical counters** (the first ten
/// fields): the gauges describe allocator layout, which compaction is
/// allowed to change without changing behaviour, so two engines that
/// healed identically stay equal even if one compacted its arena.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Nodes inserted (adversarial insertions, not counting `from_graph`).
    pub inserts: u64,
    /// Nodes deleted.
    pub deletes: u64,
    /// Helper nodes created by merges.
    pub helpers_created: u64,
    /// Helper nodes freed (red-marked fragments plus stripped spine nodes).
    pub helpers_freed: u64,
    /// Leaf nodes created (one per surviving neighbour per deletion).
    pub leaves_created: u64,
    /// Leaf nodes removed (when their owner was deleted).
    pub leaves_removed: u64,
    /// Image edge units added over the lifetime (adversarial attachments
    /// plus helper-join edges).
    pub edges_added: u64,
    /// Image edge units dropped over the lifetime (original releases plus
    /// every detached tree edge).
    pub edges_dropped: u64,
    /// Times the cached representative was stale and a scan was needed.
    /// The paper's invariants say this stays 0; the engine self-heals and
    /// counts if it ever happens.
    pub rep_fallbacks: u64,
    /// Sum of BTv merge rounds over all repairs.
    pub btv_rounds: u64,
    /// **Gauge** — virtual nodes currently live in the forest arena.
    pub arena_live: u64,
    /// **Gauge** — forest arena slots allocated since the last
    /// compaction (live + tombstones). `arena_live / arena_slots` is the
    /// live/ever slot ratio the compaction policy watches; without
    /// compaction it decays toward 0 under churn because tombstoned
    /// slots are never reused.
    pub arena_slots: u64,
    /// Times the engine compacted its forest arena (see
    /// [`crate::ForgivingGraph::set_compaction`]). Stays 0 only with
    /// compaction turned off.
    pub compactions: u64,
}

impl EngineStats {
    /// The live/ever slot ratio of the forest arena — 1.0 when every
    /// slot ever allocated still holds a live virtual node, decaying
    /// toward 0 as churn tombstones slots. An empty arena counts as
    /// fully dense.
    #[must_use]
    pub fn arena_density(&self) -> f64 {
        if self.arena_slots == 0 {
            1.0
        } else {
            self.arena_live as f64 / self.arena_slots as f64
        }
    }
}

impl PartialEq for EngineStats {
    fn eq(&self, other: &Self) -> bool {
        // Logical counters only; arena gauges are layout, not behaviour.
        (
            self.inserts,
            self.deletes,
            self.helpers_created,
            self.helpers_freed,
            self.leaves_created,
            self.leaves_removed,
            self.edges_added,
            self.edges_dropped,
            self.rep_fallbacks,
            self.btv_rounds,
        ) == (
            other.inserts,
            other.deletes,
            other.helpers_created,
            other.helpers_freed,
            other.leaves_created,
            other.leaves_removed,
            other.edges_added,
            other.edges_dropped,
            other.rep_fallbacks,
            other.btv_rounds,
        )
    }
}

impl Eq for EngineStats {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zero() {
        let s = EngineStats::default();
        assert_eq!(
            s.inserts + s.deletes + s.helpers_created + s.edges_added + s.edges_dropped,
            0
        );
        assert_eq!(s.arena_density(), 1.0);
    }

    #[test]
    fn equality_ignores_arena_gauges() {
        let a = EngineStats {
            inserts: 3,
            arena_live: 10,
            arena_slots: 40,
            compactions: 2,
            ..EngineStats::default()
        };
        let b = EngineStats {
            inserts: 3,
            arena_live: 40,
            arena_slots: 40,
            compactions: 0,
            ..EngineStats::default()
        };
        assert_eq!(a, b);
        assert_eq!(a.arena_density(), 0.25);
        assert_ne!(
            a,
            EngineStats {
                inserts: 4,
                ..EngineStats::default()
            }
        );
    }
}

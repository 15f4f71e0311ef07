//! Lifetime counters over the engine's whole history.
//!
//! Per-operation reports live in [`crate::api`]; this module keeps the
//! cumulative view ([`EngineStats`]) used by experiments that track a
//! network over its lifetime rather than per event.

use serde::{Deserialize, Serialize};

/// Cumulative counters over the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
}

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
    }
}

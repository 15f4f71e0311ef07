//! The attack loop: run an adversary against any self-healing network.

use crate::strategies::{Adversary, AttackView};
use fg_core::{BatchReport, EngineError, NetworkEvent, SelfHealer};

/// Outcome of an attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackLog {
    /// Every event that was applied, in order.
    pub events: Vec<NetworkEvent>,
    /// How many of them were deletions.
    pub deletions: usize,
    /// How many were insertions.
    pub insertions: usize,
    /// The per-op outcomes and aggregate envelope accounting of the run —
    /// what every repair actually did, straight from the typed API.
    pub report: BatchReport,
}

impl AttackLog {
    /// Total number of adversarial steps.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the adversary made no move at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Runs `adversary` against `healer` for at most `max_steps` moves (or
/// until the adversary gives up), applying each event as it is produced —
/// the adversary sees the healed network after every repair, exactly as in
/// the paper's model. The returned log carries every event plus the typed
/// outcome of every operation.
///
/// # Errors
///
/// Propagates the first engine error; strategies only emit legal moves,
/// so an error indicates a healer bug.
pub fn run_attack(
    healer: &mut dyn SelfHealer,
    adversary: &mut dyn Adversary,
    max_steps: usize,
) -> Result<AttackLog, EngineError> {
    let mut log = AttackLog {
        events: Vec::new(),
        deletions: 0,
        insertions: 0,
        report: BatchReport::new(),
    };
    for _ in 0..max_steps {
        let event = {
            let view = AttackView {
                image: healer.image(),
                ghost: healer.ghost(),
            };
            match adversary.next_event(view) {
                Some(e) => e,
                None => break,
            }
        };
        let outcome = healer.apply_event(&event)?;
        log.report.push(outcome);
        log.events.push(event);
    }
    // Single source of truth: the counters mirror the batch report.
    log.deletions = log.report.deletes as usize;
    log.insertions = log.report.inserts as usize;
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{MaxDegreeDeleter, RandomDeleter};
    use fg_core::ForgivingGraph;
    use fg_graph::{generators, traversal, NodeId};

    #[test]
    fn attack_runs_until_floor() {
        let mut fg = ForgivingGraph::from_graph(&generators::cycle(10)).unwrap();
        let mut adv = RandomDeleter::new(1, 4);
        let log = run_attack(&mut fg, &mut adv, 100).unwrap();
        assert_eq!(log.deletions, 6);
        assert_eq!(log.insertions, 0);
        assert_eq!(log.report.deletes, 6);
        assert_eq!(log.report.repairs().count(), 6);
        assert_eq!(fg.image().node_count(), 4);
        assert!(traversal::is_connected(fg.image()));
        fg.check_invariants().unwrap();
    }

    #[test]
    fn attack_respects_max_steps() {
        let mut fg = ForgivingGraph::from_graph(&generators::cycle(10)).unwrap();
        let mut adv = MaxDegreeDeleter::new(1);
        let log = run_attack(&mut fg, &mut adv, 3).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(fg.image().node_count(), 7);
    }

    #[test]
    fn replay_reproduces_state_and_outcomes() {
        let mut a = ForgivingGraph::from_graph(&generators::grid(3, 3)).unwrap();
        let mut adv = RandomDeleter::new(9, 3);
        let log = run_attack(&mut a, &mut adv, 100).unwrap();

        let mut b = ForgivingGraph::from_graph(&generators::grid(3, 3)).unwrap();
        let replayed = b.apply_batch(&log.events).unwrap();
        assert_eq!(a, b);
        // Replaying produces the exact same typed outcomes.
        assert_eq!(replayed, log.report);
    }

    #[test]
    fn replay_pinpoints_illegal_events() {
        let mut fg = ForgivingGraph::from_graph(&generators::path(4)).unwrap();
        let events = vec![
            NetworkEvent::delete(NodeId::new(1)),
            NetworkEvent::delete(NodeId::new(1)),
        ];
        let err = fg.apply_batch(&events).unwrap_err();
        match err {
            EngineError::AtEvent { index, .. } => assert_eq!(index, 1),
            other => panic!("expected AtEvent, got {other:?}"),
        }
    }
}

//! Error types for the Forgiving Graph engine.

use crate::event::NetworkEvent;
use fg_graph::NodeId;
use std::error::Error;
use std::fmt;

/// Errors returned by [`crate::ForgivingGraph`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The node is unknown or already deleted.
    NotAlive(NodeId),
    /// An insertion listed no neighbours; new nodes must attach somewhere
    /// or the insert-only graph `G'` would be permanently disconnected.
    EmptyNeighbourhood,
    /// An insertion listed the same neighbour twice.
    DuplicateNeighbour(NodeId),
    /// An event inside a batch failed; `index` pinpoints the offender so
    /// a failing trace is debuggable ("earlier events stay applied" now
    /// says *which* event broke).
    AtEvent {
        /// Zero-based position of the failing event in the batch.
        index: usize,
        /// The failing event, rendered with its `Display` impl.
        event: String,
        /// The underlying insert/delete error.
        source: Box<EngineError>,
    },
}

impl EngineError {
    /// Wraps `source` as [`EngineError::AtEvent`] so a failing batch
    /// pinpoints the offending event: its zero-based `index` and its
    /// `Display` rendering.
    pub fn at_event(index: usize, event: &NetworkEvent, source: EngineError) -> Self {
        EngineError::AtEvent {
            index,
            event: event.to_string(),
            source: Box::new(source),
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NotAlive(v) => write!(f, "node {v} is not alive"),
            EngineError::EmptyNeighbourhood => {
                write!(f, "an inserted node needs at least one neighbour")
            }
            EngineError::DuplicateNeighbour(v) => {
                write!(f, "neighbour {v} listed more than once")
            }
            EngineError::AtEvent {
                index,
                event,
                source,
            } => {
                write!(f, "batch event #{index} ({event}) failed: {source}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::AtEvent { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert_eq!(
            EngineError::NotAlive(NodeId::new(4)).to_string(),
            "node n4 is not alive"
        );
        assert!(EngineError::EmptyNeighbourhood
            .to_string()
            .contains("neighbour"));
        assert!(EngineError::DuplicateNeighbour(NodeId::new(1))
            .to_string()
            .contains("more than once"));
        let n7 = NodeId::new(7);
        let wrapped =
            EngineError::at_event(3, &NetworkEvent::delete(n7), EngineError::NotAlive(n7));
        assert_eq!(
            wrapped.to_string(),
            "batch event #3 (delete(n7)) failed: node n7 is not alive"
        );
        assert!(Error::source(&wrapped).is_some());
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: Error + Send + Sync + 'static>() {}
        check::<EngineError>();
    }
}

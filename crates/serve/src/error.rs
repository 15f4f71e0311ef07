//! The serving layer's error type: transport failures, protocol
//! violations, and typed error frames relayed from the server.

use crate::protocol::ErrorCode;
use std::fmt;
use std::io;

/// Everything that can go wrong between a client and an `fg-serve`
/// server.
#[derive(Debug)]
pub enum ServeError {
    /// A socket operation failed (connect, read, write, bind).
    Io(io::Error),
    /// The peer's bytes violate the FGQ1 framing or payload rules —
    /// bad magic, bad CRC, oversized length prefix, truncated payload.
    /// Carries a human-readable description of the violation.
    Malformed(String),
    /// The server answered with a typed error frame instead of a result,
    /// or the client refused a request the server would have refused:
    /// [`Client::send`](crate::Client::send) raises
    /// [`ErrorCode::Oversized`] itself, before writing a byte.
    Server {
        /// The machine-readable error class.
        code: ErrorCode,
        /// The server's description of what it rejected.
        message: String,
    },
    /// The connection closed mid-frame — the peer went away.
    Disconnected,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Malformed(detail) => write!(f, "malformed FGQ1 frame: {detail}"),
            ServeError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ServeError::Disconnected => write!(f, "connection closed mid-frame"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

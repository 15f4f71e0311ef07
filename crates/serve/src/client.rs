//! The blocking FGQ1 client.
//!
//! [`Client`] speaks the protocol over one `TcpStream`. Every typed
//! helper ([`distance`](Client::distance), [`path`](Client::path), …)
//! is one synchronous round trip returning a [`Stamped`] value — the
//! answer plus the `(epoch, digest)` certificate of the snapshot that
//! produced it. For pipelining, [`send`](Client::send) and
//! [`recv`](Client::recv) split the round trip: queue any number of
//! requests, then drain responses in order (the server answers each
//! connection's requests strictly in arrival order).

use crate::error::ServeError;
use crate::protocol::{
    parse_frame_header, verify_frame, ErrorCode, Request, Response, ResponseBody, MAX_FRAME_PAYLOAD,
};
use fg_core::NetworkEvent;
use fg_graph::NodeId;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A value plus the certificate of the snapshot that answered it.
#[derive(Debug, Clone, PartialEq)]
pub struct Stamped<T> {
    /// The answering snapshot's structural epoch.
    pub epoch: u64,
    /// The answering snapshot's chained outcome digest.
    pub digest: u64,
    /// The answer itself.
    pub value: T,
}

/// One FGQ1 connection to an `fg-serve` server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// The connect failure as [`ServeError::Io`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream, next_id: 1 })
    }

    /// Writes one request frame without waiting for the response;
    /// returns the request id the response will echo. Pair with
    /// [`recv`](Client::recv) — responses on a connection arrive in
    /// request order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] with [`ErrorCode::Oversized`] when the
    /// request's payload is over [`MAX_FRAME_PAYLOAD`]: the server would
    /// refuse it and close the connection, so it is refused here before
    /// a byte is written and the connection stays usable. Otherwise the
    /// socket write failure.
    pub fn send(&mut self, request: &Request) -> Result<u64, ServeError> {
        let id = self.next_id;
        let frame = request.to_frame(id);
        let len = frame.len() - 8;
        if len > MAX_FRAME_PAYLOAD {
            return Err(ServeError::Server {
                code: ErrorCode::Oversized,
                message: format!(
                    "request payload of {len} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte cap"
                ),
            });
        }
        self.next_id += 1;
        self.stream.write_all(&frame)?;
        Ok(id)
    }

    /// Reads the next response frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Disconnected`] if the connection closed between or
    /// inside frames, [`ServeError::Malformed`] if the server's bytes
    /// violate the protocol, [`ServeError::Io`] on transport failure.
    /// A typed error frame is **not** an `Err` here — it comes back as
    /// the [`Response::body`]'s error arm, because the caller may be
    /// probing for exactly that.
    pub fn recv(&mut self) -> Result<Response, ServeError> {
        let mut header = [0u8; 8];
        read_all(&mut self.stream, &mut header)?;
        let (len, crc) =
            parse_frame_header(header).map_err(|(_, detail)| ServeError::Malformed(detail))?;
        let mut payload = vec![0u8; len];
        read_all(&mut self.stream, &mut payload)?;
        verify_frame(&payload, crc).map_err(|(_, detail)| ServeError::Malformed(detail))?;
        Response::parse(&payload)
    }

    /// One full round trip, surfacing typed error frames as
    /// [`ServeError::Server`].
    ///
    /// # Errors
    ///
    /// Everything [`recv`](Client::recv) can fail with, plus
    /// [`ServeError::Server`] for a typed error frame and
    /// [`ServeError::Malformed`] if the response echoes the wrong
    /// request id or answers the wrong op.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Stamped<ResponseBody>, ServeError> {
        let id = self.send(request)?;
        let response = self.recv()?;
        if response.request_id != id {
            return Err(ServeError::Malformed(format!(
                "response echoes request id {}, expected {id}",
                response.request_id
            )));
        }
        match response.body {
            Ok(body) => {
                if body.op() != request.op() {
                    return Err(ServeError::Malformed(format!(
                        "response answers op {}, expected {}",
                        body.op(),
                        request.op()
                    )));
                }
                Ok(Stamped {
                    epoch: response.epoch,
                    digest: response.digest,
                    value: body,
                })
            }
            Err((code, message)) => Err(ServeError::Server { code, message }),
        }
    }

    /// The server's current `(epoch, digest)` certificate — the stamp
    /// *is* the answer.
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn epoch(&mut self) -> Result<Stamped<()>, ServeError> {
        let stamped = self.roundtrip(&Request::Epoch)?;
        Ok(Stamped {
            epoch: stamped.epoch,
            digest: stamped.digest,
            value: (),
        })
    }

    /// Served [`FrozenView::distance`](fg_core::FrozenView::distance).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn distance(&mut self, u: NodeId, v: NodeId) -> Result<Stamped<Option<u32>>, ServeError> {
        match self.roundtrip(&Request::Distance(u, v))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::Distance(d),
            } => Ok(Stamped {
                epoch,
                digest,
                value: d,
            }),
            _ => Err(wrong_body("distance")),
        }
    }

    /// Served [`FrozenView::path`](fg_core::FrozenView::path).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn path(
        &mut self,
        u: NodeId,
        v: NodeId,
    ) -> Result<Stamped<Option<Vec<NodeId>>>, ServeError> {
        match self.roundtrip(&Request::Path(u, v))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::Path(p),
            } => Ok(Stamped {
                epoch,
                digest,
                value: p,
            }),
            _ => Err(wrong_body("path")),
        }
    }

    /// Served [`FrozenView::stretch`](fg_core::FrozenView::stretch).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn stretch(&mut self, u: NodeId, v: NodeId) -> Result<Stamped<Option<f64>>, ServeError> {
        match self.roundtrip(&Request::Stretch(u, v))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::Stretch(s),
            } => Ok(Stamped {
                epoch,
                digest,
                value: s,
            }),
            _ => Err(wrong_body("stretch")),
        }
    }

    /// Served [`FrozenView::degree`](fg_core::FrozenView::degree).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn degree(&mut self, u: NodeId) -> Result<Stamped<Option<u64>>, ServeError> {
        match self.roundtrip(&Request::Degree(u))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::Degree(d),
            } => Ok(Stamped {
                epoch,
                digest,
                value: d,
            }),
            _ => Err(wrong_body("degree")),
        }
    }

    /// Served [`FrozenView::neighbors`](fg_core::FrozenView::neighbors)
    /// (`None` when the node is dead).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn neighbors(&mut self, u: NodeId) -> Result<Stamped<Option<Vec<NodeId>>>, ServeError> {
        match self.roundtrip(&Request::Neighbors(u))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::Neighbors(ids),
            } => Ok(Stamped {
                epoch,
                digest,
                value: ids,
            }),
            _ => Err(wrong_body("neighbors")),
        }
    }

    /// Served [`FrozenView::same_component`](fg_core::FrozenView::same_component).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn same_component(&mut self, u: NodeId, v: NodeId) -> Result<Stamped<bool>, ServeError> {
        match self.roundtrip(&Request::SameComponent(u, v))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::SameComponent(c),
            } => Ok(Stamped {
                epoch,
                digest,
                value: c,
            }),
            _ => Err(wrong_body("same-component")),
        }
    }

    /// Submits one event to the master's writer. The returned stamp is
    /// the **post-apply** `(epoch, digest)` — the fsynced state the
    /// write landed in. A replica answers with
    /// [`NotMaster`](crate::ErrorCode::NotMaster) (as
    /// [`ServeError::Server`]) and keeps the connection usable.
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn submit_event(&mut self, event: NetworkEvent) -> Result<Stamped<()>, ServeError> {
        match self.roundtrip(&Request::SubmitEvent(event))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::EventSubmitted,
            } => Ok(Stamped {
                epoch,
                digest,
                value: (),
            }),
            _ => Err(wrong_body("submit-event")),
        }
    }

    /// Submits a batch of events (one commit, one fsync) to the
    /// master's writer; the value is the number of events applied.
    /// Stamp and replica semantics as [`submit_event`](Client::submit_event).
    ///
    /// # Errors
    ///
    /// As [`roundtrip`](Client::roundtrip).
    pub fn submit_batch(&mut self, events: Vec<NetworkEvent>) -> Result<Stamped<u32>, ServeError> {
        match self.roundtrip(&Request::SubmitBatch(events))? {
            Stamped {
                epoch,
                digest,
                value: ResponseBody::BatchSubmitted(applied),
            } => Ok(Stamped {
                epoch,
                digest,
                value: applied,
            }),
            _ => Err(wrong_body("submit-batch")),
        }
    }

    /// The underlying stream, for tests that need socket-level control
    /// (half-close, raw writes).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

fn wrong_body(op: &str) -> ServeError {
    // roundtrip() already rejects op-tag mismatches; this arm is
    // unreachable unless the protocol enum grows out of sync.
    ServeError::Malformed(format!("response body does not answer {op}"))
}

/// `read_exact` that reports a closed peer as [`ServeError::Disconnected`].
fn read_all(stream: &mut TcpStream, buf: &mut [u8]) -> Result<(), ServeError> {
    match stream.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(ServeError::Disconnected),
        Err(e) => Err(ServeError::Io(e)),
    }
}

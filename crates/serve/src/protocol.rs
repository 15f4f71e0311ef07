//! FGQ1 — the length-prefixed binary query protocol.
//!
//! ## Frame format
//!
//! Every message in either direction is one frame of the layout the WAL
//! and FGR1 share, written and checked by [`fg_store::codec`]:
//!
//! ```text
//! [len: u32 LE][crc: u32 LE][payload]
//! ```
//!
//! `len` is the payload length (bounded by [`MAX_FRAME_PAYLOAD`]); `crc`
//! is CRC-32 (IEEE) over the payload. [`frame`] is the codec's writer;
//! [`parse_frame_header`] and [`verify_frame`] run the codec's checks and
//! only attach this protocol's [`ErrorCode`]s. A frame whose length
//! prefix is oversized, whose checksum fails, or whose payload violates
//! the rules below is *malformed*: the server answers with a typed error
//! frame and closes the connection — it never panics and never guesses.
//! Payloads are read through the codec's [`Cursor`], which has no panic
//! path. A client refuses to send a request over the cap
//! ([`Client::send`](crate::Client::send)).
//!
//! ## Request payload
//!
//! ```text
//! [magic "FGQ1": 4B][version: u8][request id: u64 LE][op: u8][args]
//! ```
//!
//! Ops and their args (node ids are `u32 LE`):
//!
//! | tag | op              | args                    |
//! |-----|-----------------|-------------------------|
//! | 0   | epoch           | —                       |
//! | 1   | distance        | `u, v`                  |
//! | 2   | path            | `u, v`                  |
//! | 3   | stretch         | `u, v`                  |
//! | 4   | degree          | `u`                     |
//! | 5   | neighbors       | `u`                     |
//! | 6   | same-component  | `u, v`                  |
//! | 7   | submit-event    | event list (count = 1)  |
//! | 8   | submit-batch    | event list              |
//!
//! Ops 7–8 are **writes**: the event list is the WAL's own wire form
//! (`fg_store::encode_events` — a `u32` count then tagged events), so a
//! submitted event and the record it becomes agree byte-for-byte. Only
//! a master (a server wired to a writer) accepts them; replicas and
//! read-only servers answer a typed [`ErrorCode::NotMaster`] frame and
//! keep the connection open — op-level refusals, unlike framing
//! violations, do not close the connection. A successful write's
//! response is stamped with the *post-apply* `(epoch, digest)`
//! certificate, making every acknowledged write verifiable against the
//! WAL chain.
//!
//! ## Response payload
//!
//! ```text
//! [magic][version][request id: u64][status: u8][epoch: u64][digest: u64][body]
//! ```
//!
//! `status` 0 is success; the body then repeats the op tag followed by
//! the op-specific result (optional values are a presence byte, node
//! lists are a `u32` count then ids). Any other `status` is an
//! [`ErrorCode`] and the body is a `u16`-length-prefixed UTF-8 message.
//! **Every** response — success or error — carries the `(epoch, digest)`
//! stamp of the snapshot that answered it (zeros when no snapshot was
//! ever published), the certificate replication will check against the
//! master's committed history.

use crate::error::ServeError;
use fg_core::NetworkEvent;
use fg_graph::NodeId;
use fg_store::codec::{check_frame, frame_header, Cursor};
use fg_store::{decode_events, encode_events};

pub use fg_store::codec::frame;

/// The four magic bytes opening every FGQ1 payload.
pub const MAGIC: [u8; 4] = *b"FGQ1";

/// The protocol version this crate speaks.
pub const VERSION: u8 = 1;

/// Upper bound on a sane frame payload; a length prefix past this is
/// framing garbage and the connection is closed without buffering it.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// Smallest well-formed request payload: magic + version + id + op.
pub const MIN_REQUEST_PAYLOAD: usize = 4 + 1 + 8 + 1;

/// The machine-readable error classes a server can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Framing violation: bad CRC, truncated payload, or garbage where
    /// a frame header should be. The connection closes after this frame.
    Malformed = 1,
    /// The payload does not open with `FGQ1` at a version this server
    /// speaks. The connection closes after this frame.
    BadMagic = 2,
    /// The op tag is not one this server knows.
    UnknownOp = 3,
    /// The op's argument bytes are truncated or carry trailing garbage.
    BadPayload = 4,
    /// The server is shutting down and will not answer.
    ShuttingDown = 5,
    /// The frame's length prefix exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized = 6,
    /// A write op (submit-event / submit-batch) reached a server that
    /// is not a write master — a replica or a read-only server. The
    /// connection stays open; reads still work.
    NotMaster = 7,
    /// The write master accepted the op but the engine refused the
    /// event(s) (e.g. deleting a dead node). Any applied prefix of a
    /// batch **is** durable and published; the message says where it
    /// stopped. The connection stays open.
    WriteFailed = 8,
}

impl ErrorCode {
    /// Decodes a status byte into an error code, if it is one.
    pub fn from_status(status: u8) -> Option<ErrorCode> {
        match status {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::BadMagic),
            3 => Some(ErrorCode::UnknownOp),
            4 => Some(ErrorCode::BadPayload),
            5 => Some(ErrorCode::ShuttingDown),
            6 => Some(ErrorCode::Oversized),
            7 => Some(ErrorCode::NotMaster),
            8 => Some(ErrorCode::WriteFailed),
            _ => None,
        }
    }
}

/// One query request — the client-side view of the ops table above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// The snapshot epoch the server is currently answering at.
    Epoch,
    /// Exact shortest-path hops between two nodes in the healed image.
    Distance(NodeId, NodeId),
    /// A concrete shortest image path between two nodes.
    Path(NodeId, NodeId),
    /// Image distance over ghost (`G'`) distance for a pair.
    Stretch(NodeId, NodeId),
    /// A node's image degree.
    Degree(NodeId),
    /// A node's image neighbors, ascending.
    Neighbors(NodeId),
    /// Whether two nodes are live and mutually reachable.
    SameComponent(NodeId, NodeId),
    /// Apply one adversarial event through the master's writer (WAL
    /// logged and fsynced before the response stamp is taken).
    SubmitEvent(NetworkEvent),
    /// Apply a batch of events atomically through the master's writer.
    SubmitBatch(Vec<NetworkEvent>),
}

impl Request {
    /// This request's op tag.
    pub fn op(&self) -> u8 {
        match self {
            Request::Epoch => 0,
            Request::Distance(..) => 1,
            Request::Path(..) => 2,
            Request::Stretch(..) => 3,
            Request::Degree(..) => 4,
            Request::Neighbors(..) => 5,
            Request::SameComponent(..) => 6,
            Request::SubmitEvent(_) => 7,
            Request::SubmitBatch(_) => 8,
        }
    }

    /// The framed wire bytes of this request under `request_id`.
    pub fn to_frame(&self, request_id: u64) -> Vec<u8> {
        let mut payload = Vec::with_capacity(MIN_REQUEST_PAYLOAD + 8);
        payload.extend_from_slice(&MAGIC);
        payload.push(VERSION);
        payload.extend_from_slice(&request_id.to_le_bytes());
        payload.push(self.op());
        match self {
            Request::Epoch => {}
            Request::Degree(u) | Request::Neighbors(u) => {
                payload.extend_from_slice(&u.raw().to_le_bytes());
            }
            Request::Distance(u, v)
            | Request::Path(u, v)
            | Request::Stretch(u, v)
            | Request::SameComponent(u, v) => {
                payload.extend_from_slice(&u.raw().to_le_bytes());
                payload.extend_from_slice(&v.raw().to_le_bytes());
            }
            Request::SubmitEvent(event) => {
                encode_events(&mut payload, std::slice::from_ref(event));
            }
            Request::SubmitBatch(events) => encode_events(&mut payload, events),
        }
        frame(&payload)
    }

    /// Parses a request payload (the bytes inside a verified frame).
    ///
    /// # Errors
    ///
    /// The [`ErrorCode`] the server must answer with, plus a
    /// human-readable detail: [`ErrorCode::BadMagic`] when the payload
    /// does not open with `FGQ1` at [`VERSION`], [`ErrorCode::UnknownOp`]
    /// for an unassigned op tag, and [`ErrorCode::BadPayload`] for
    /// truncated or over-long argument bytes. When the request id was
    /// readable before the failure it is returned alongside, so the
    /// error frame can echo it.
    pub fn parse(payload: &[u8]) -> Result<(u64, Request), (Option<u64>, ErrorCode, String)> {
        let mut cur = Cursor::new(payload);
        let (Ok(magic), Ok(version), Ok(id), Ok(op)) = (cur.array(), cur.u8(), cur.u64(), cur.u8())
        else {
            return Err((
                None,
                ErrorCode::BadPayload,
                format!(
                    "request payload is {} bytes; the fixed header alone is {MIN_REQUEST_PAYLOAD}",
                    payload.len()
                ),
            ));
        };
        if magic != MAGIC {
            return Err((
                None,
                ErrorCode::BadMagic,
                format!("payload opens with {magic:02x?}, not \"FGQ1\""),
            ));
        }
        if version != VERSION {
            return Err((
                None,
                ErrorCode::BadMagic,
                format!("protocol version {version} (this server speaks {VERSION})"),
            ));
        }
        let request = match op {
            0 => node_ids(cur, op).map(|[]| Request::Epoch),
            1 => node_ids(cur, op).map(|[u, v]| Request::Distance(u, v)),
            2 => node_ids(cur, op).map(|[u, v]| Request::Path(u, v)),
            3 => node_ids(cur, op).map(|[u, v]| Request::Stretch(u, v)),
            4 => node_ids(cur, op).map(|[u]| Request::Degree(u)),
            5 => node_ids(cur, op).map(|[u]| Request::Neighbors(u)),
            6 => node_ids(cur, op).map(|[u, v]| Request::SameComponent(u, v)),
            7 => decode_events(cur.rest())
                .map_err(|detail| format!("submit-event list does not decode: {detail}"))
                .and_then(|mut events| match (events.pop(), events.is_empty()) {
                    (Some(event), true) => Ok(Request::SubmitEvent(event)),
                    (popped, _) => Err(format!(
                        "submit-event takes exactly one event, got {}",
                        events.len() + usize::from(popped.is_some())
                    )),
                }),
            8 => decode_events(cur.rest())
                .map(Request::SubmitBatch)
                .map_err(|detail| format!("submit-batch list does not decode: {detail}")),
            other => {
                return Err((
                    Some(id),
                    ErrorCode::UnknownOp,
                    format!("unknown op tag {other}"),
                ))
            }
        };
        match request {
            Ok(r) => Ok((id, r)),
            Err(detail) => Err((Some(id), ErrorCode::BadPayload, detail)),
        }
    }
}

/// Reads an op's arguments: exactly `N` node ids and nothing after them.
fn node_ids<const N: usize>(mut cur: Cursor<'_>, op: u8) -> Result<[NodeId; N], String> {
    if cur.remaining() != 4 * N {
        return Err(format!(
            "op {op} takes {N} node id(s) ({} bytes), got {}",
            4 * N,
            cur.remaining()
        ));
    }
    let mut ids = [NodeId::new(0); N];
    for id in &mut ids {
        *id = NodeId::new(cur.u32()?);
    }
    Ok(ids)
}

/// A successful response's op-specific result.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Answer to [`Request::Epoch`] — the stamp in the header is the
    /// answer.
    Epoch,
    /// Answer to [`Request::Distance`].
    Distance(Option<u32>),
    /// Answer to [`Request::Path`].
    Path(Option<Vec<NodeId>>),
    /// Answer to [`Request::Stretch`].
    Stretch(Option<f64>),
    /// Answer to [`Request::Degree`].
    Degree(Option<u64>),
    /// Answer to [`Request::Neighbors`] (`None` when the node is dead).
    Neighbors(Option<Vec<NodeId>>),
    /// Answer to [`Request::SameComponent`].
    SameComponent(bool),
    /// Answer to [`Request::SubmitEvent`] — the post-apply stamp in the
    /// header is the acknowledgement.
    EventSubmitted,
    /// Answer to [`Request::SubmitBatch`] — how many events applied
    /// (always the full batch on success).
    BatchSubmitted(u32),
}

impl ResponseBody {
    /// The op tag this body answers.
    pub fn op(&self) -> u8 {
        match self {
            ResponseBody::Epoch => 0,
            ResponseBody::Distance(_) => 1,
            ResponseBody::Path(_) => 2,
            ResponseBody::Stretch(_) => 3,
            ResponseBody::Degree(_) => 4,
            ResponseBody::Neighbors(_) => 5,
            ResponseBody::SameComponent(_) => 6,
            ResponseBody::EventSubmitted => 7,
            ResponseBody::BatchSubmitted(_) => 8,
        }
    }
}

/// One decoded response frame: the request it answers, the snapshot
/// certificate, and either a result body or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Echo of the request id this frame answers (0 when the server
    /// could not read one out of a malformed request).
    pub request_id: u64,
    /// The epoch of the snapshot that answered (0 before any publish).
    pub epoch: u64,
    /// The chained outcome digest of that snapshot (see
    /// [`crate::snapshot::ServeSnapshot`]).
    pub digest: u64,
    /// The result, or the typed error the server answered with.
    pub body: Result<ResponseBody, (ErrorCode, String)>,
}

impl Response {
    /// Encodes a success response into framed wire bytes.
    pub fn ok_frame(request_id: u64, epoch: u64, digest: u64, body: &ResponseBody) -> Vec<u8> {
        let mut payload = response_header(request_id, 0, epoch, digest);
        payload.push(body.op());
        fn push_ids(payload: &mut Vec<u8>, ids: &[NodeId]) {
            payload.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                payload.extend_from_slice(&id.raw().to_le_bytes());
            }
        }
        match body {
            ResponseBody::Epoch => {}
            ResponseBody::Distance(d) => match d {
                Some(d) => {
                    payload.push(1);
                    payload.extend_from_slice(&d.to_le_bytes());
                }
                None => payload.push(0),
            },
            ResponseBody::Path(p) | ResponseBody::Neighbors(p) => match p {
                Some(ids) => {
                    payload.push(1);
                    push_ids(&mut payload, ids);
                }
                None => payload.push(0),
            },
            ResponseBody::Stretch(s) => match s {
                Some(s) => {
                    payload.push(1);
                    payload.extend_from_slice(&s.to_bits().to_le_bytes());
                }
                None => payload.push(0),
            },
            ResponseBody::Degree(d) => match d {
                Some(d) => {
                    payload.push(1);
                    payload.extend_from_slice(&d.to_le_bytes());
                }
                None => payload.push(0),
            },
            ResponseBody::SameComponent(c) => payload.push(u8::from(*c)),
            ResponseBody::EventSubmitted => {}
            ResponseBody::BatchSubmitted(n) => payload.extend_from_slice(&n.to_le_bytes()),
        }
        frame(&payload)
    }

    /// Encodes a typed error response into framed wire bytes.
    pub fn error_frame(
        request_id: u64,
        epoch: u64,
        digest: u64,
        code: ErrorCode,
        message: &str,
    ) -> Vec<u8> {
        let mut payload = response_header(request_id, code as u8, epoch, digest);
        let msg = message.as_bytes();
        let take = msg.len().min(u16::MAX as usize);
        payload.extend_from_slice(&(take as u16).to_le_bytes());
        payload.extend_from_slice(&msg[..take]);
        frame(&payload)
    }

    /// Parses a response payload (the bytes inside a verified frame).
    ///
    /// # Errors
    ///
    /// [`ServeError::Malformed`] when the payload violates the response
    /// rules — the transport gave us a well-framed record that is not a
    /// well-formed FGQ1 response.
    pub fn parse(payload: &[u8]) -> Result<Response, ServeError> {
        parse_response(payload).map_err(ServeError::Malformed)
    }
}

fn parse_response(payload: &[u8]) -> Result<Response, String> {
    let mut c = Cursor::new(payload);
    let magic = c.array()?;
    if magic != MAGIC {
        return Err(format!("response opens with {magic:02x?}, not \"FGQ1\""));
    }
    let version = c.u8()?;
    if version != VERSION {
        return Err(format!(
            "response version {version} (this client speaks {VERSION})"
        ));
    }
    let request_id = c.u64()?;
    let status = c.u8()?;
    let epoch = c.u64()?;
    let digest = c.u64()?;
    let body = if status != 0 {
        let code = ErrorCode::from_status(status)
            .ok_or_else(|| format!("unknown error status {status}"))?;
        let len = usize::from(c.u16()?);
        Err((code, String::from_utf8_lossy(c.take(len)?).into_owned()))
    } else {
        Ok(match c.u8()? {
            0 => ResponseBody::Epoch,
            1 => ResponseBody::Distance(optional(&mut c, Cursor::u32)?),
            2 => ResponseBody::Path(optional(&mut c, node_list)?),
            3 => ResponseBody::Stretch(optional(&mut c, |c| c.u64().map(f64::from_bits))?),
            4 => ResponseBody::Degree(optional(&mut c, Cursor::u64)?),
            5 => ResponseBody::Neighbors(optional(&mut c, node_list)?),
            6 => ResponseBody::SameComponent(present(&mut c)?),
            7 => ResponseBody::EventSubmitted,
            8 => ResponseBody::BatchSubmitted(c.u32()?),
            other => return Err(format!("response carries unknown op tag {other}")),
        })
    };
    c.finish()?;
    Ok(Response {
        request_id,
        epoch,
        digest,
        body,
    })
}

/// Reads a presence byte: 0 or 1.
fn present(c: &mut Cursor<'_>) -> Result<bool, String> {
    match c.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(format!("presence byte must be 0 or 1, got {other}")),
    }
}

/// `[presence][value]` — the optional-value shape.
fn optional<'a, T>(
    c: &mut Cursor<'a>,
    read: impl FnOnce(&mut Cursor<'a>) -> Result<T, String>,
) -> Result<Option<T>, String> {
    if present(c)? {
        read(c).map(Some)
    } else {
        Ok(None)
    }
}

/// `[count][ids...]` — a node list.
fn node_list(c: &mut Cursor<'_>) -> Result<Vec<NodeId>, String> {
    let count = c.u32()? as usize;
    // Each id is 4 bytes; the bound keeps a lying count from allocating
    // past the frame it arrived in.
    if count > c.remaining() / 4 {
        return Err(format!(
            "node list claims {count} ids but only {} payload bytes remain",
            c.remaining()
        ));
    }
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(NodeId::new(c.u32()?));
    }
    Ok(ids)
}

fn response_header(request_id: u64, status: u8, epoch: u64, digest: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4 + 1 + 8 + 1 + 8 + 8 + 16);
    payload.extend_from_slice(&MAGIC);
    payload.push(VERSION);
    payload.extend_from_slice(&request_id.to_le_bytes());
    payload.push(status);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload.extend_from_slice(&digest.to_le_bytes());
    payload
}

/// Validates a frame header, returning the payload length to read.
///
/// # Errors
///
/// [`ErrorCode::Oversized`] (with detail) when the length prefix
/// exceeds [`MAX_FRAME_PAYLOAD`] — the one violation detectable before
/// reading the payload.
pub fn parse_frame_header(header: [u8; 8]) -> Result<(usize, u32), (ErrorCode, String)> {
    frame_header(header, 0..=MAX_FRAME_PAYLOAD).map_err(|detail| (ErrorCode::Oversized, detail))
}

/// Verifies a frame payload against its header checksum.
///
/// # Errors
///
/// [`ErrorCode::Malformed`] (with detail) on a CRC mismatch.
pub fn verify_frame(payload: &[u8], crc: u32) -> Result<(), (ErrorCode, String)> {
    check_frame(payload, crc).map_err(|detail| (ErrorCode::Malformed, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn payload_of(frame: &[u8]) -> &[u8] {
        &frame[8..]
    }

    #[test]
    fn requests_round_trip() {
        let cases = [
            Request::Epoch,
            Request::Distance(n(3), n(9)),
            Request::Path(n(0), n(4)),
            Request::Stretch(n(7), n(7)),
            Request::Degree(n(2)),
            Request::Neighbors(n(11)),
            Request::SameComponent(n(1), n(5)),
            Request::SubmitEvent(NetworkEvent::delete(n(3))),
            Request::SubmitBatch(vec![
                NetworkEvent::insert([n(1), n(2)]),
                NetworkEvent::delete(n(0)),
            ]),
        ];
        for (i, req) in cases.into_iter().enumerate() {
            let framed = req.to_frame(i as u64 + 40);
            let (len, crc) = parse_frame_header(framed[..8].try_into().unwrap()).unwrap();
            assert_eq!(len, framed.len() - 8);
            verify_frame(payload_of(&framed), crc).unwrap();
            let (id, parsed) = Request::parse(payload_of(&framed)).unwrap();
            assert_eq!(id, i as u64 + 40);
            assert_eq!(parsed, req);
        }
    }

    #[test]
    fn request_and_response_bytes_are_pinned() {
        let request = Request::Distance(n(3), n(258)).to_frame(0x0102_0304_0506_0708);
        let expected: Vec<u8> = [
            &[22, 0, 0, 0][..],        // len
            &[0x2d, 0x9e, 0xb9, 0xbf], // crc32(payload)
            b"FGQ1",
            &[1],                      // version
            &[8, 7, 6, 5, 4, 3, 2, 1], // request id
            &[1],                      // op: distance
            &[3, 0, 0, 0, 2, 1, 0, 0], // 3, 258
        ]
        .concat();
        assert_eq!(request, expected);

        let response = Response::ok_frame(
            5,
            9,
            0xdead_beef,
            &ResponseBody::Path(Some(vec![n(1), n(2)])),
        );
        let expected: Vec<u8> = [
            &[44, 0, 0, 0][..],        // len
            &[0x36, 0x3a, 0x38, 0x0e], // crc32(payload)
            b"FGQ1",
            &[1],                                  // version
            &[5, 0, 0, 0, 0, 0, 0, 0],             // request id
            &[0],                                  // status: ok
            &[9, 0, 0, 0, 0, 0, 0, 0],             // epoch
            &[0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0], // digest
            &[2, 1, 2, 0, 0, 0],                   // op: path, present, two ids
            &[1, 0, 0, 0, 2, 0, 0, 0],             // 1, 2
        ]
        .concat();
        assert_eq!(response, expected);
    }

    #[test]
    fn responses_round_trip() {
        let bodies = [
            ResponseBody::Epoch,
            ResponseBody::Distance(Some(17)),
            ResponseBody::Distance(None),
            ResponseBody::Path(Some(vec![n(1), n(2), n(3)])),
            ResponseBody::Path(None),
            ResponseBody::Stretch(Some(1.5)),
            ResponseBody::Stretch(Some(f64::INFINITY)),
            ResponseBody::Stretch(None),
            ResponseBody::Degree(Some(4)),
            ResponseBody::Degree(None),
            ResponseBody::Neighbors(Some(Vec::new())),
            ResponseBody::Neighbors(None),
            ResponseBody::SameComponent(true),
            ResponseBody::SameComponent(false),
            ResponseBody::EventSubmitted,
            ResponseBody::BatchSubmitted(3),
        ];
        for (i, body) in bodies.into_iter().enumerate() {
            let framed = Response::ok_frame(i as u64, 99, 0xdead_beef, &body);
            let (len, crc) = parse_frame_header(framed[..8].try_into().unwrap()).unwrap();
            assert_eq!(len, framed.len() - 8);
            verify_frame(payload_of(&framed), crc).unwrap();
            let parsed = Response::parse(payload_of(&framed)).unwrap();
            assert_eq!(parsed.request_id, i as u64);
            assert_eq!(parsed.epoch, 99);
            assert_eq!(parsed.digest, 0xdead_beef);
            assert_eq!(parsed.body, Ok(body));
        }
    }

    #[test]
    fn error_frames_round_trip() {
        let framed = Response::error_frame(7, 12, 34, ErrorCode::UnknownOp, "op tag 250");
        let parsed = Response::parse(payload_of(&framed)).unwrap();
        assert_eq!(parsed.request_id, 7);
        assert_eq!(parsed.epoch, 12);
        assert_eq!(
            parsed.body,
            Err((ErrorCode::UnknownOp, "op tag 250".to_string()))
        );
    }

    #[test]
    fn malformed_requests_are_classified() {
        // Too short for the fixed header.
        let (_, code, _) = Request::parse(b"FGQ1").unwrap_err();
        assert_eq!(code, ErrorCode::BadPayload);
        // Wrong magic.
        let mut framed = Request::Epoch.to_frame(1);
        framed[8] = b'X';
        let (_, code, _) = Request::parse(payload_of(&framed)).unwrap_err();
        assert_eq!(code, ErrorCode::BadMagic);
        // Wrong version.
        let mut framed = Request::Epoch.to_frame(1);
        framed[12] = 9;
        let (_, code, _) = Request::parse(payload_of(&framed)).unwrap_err();
        assert_eq!(code, ErrorCode::BadMagic);
        // Unknown op echoes the request id.
        let mut framed = Request::Epoch.to_frame(77);
        framed[21] = 200;
        let (id, code, _) = Request::parse(payload_of(&framed)).unwrap_err();
        assert_eq!((id, code), (Some(77), ErrorCode::UnknownOp));
        // Truncated args.
        let framed = Request::Distance(n(1), n(2)).to_frame(5);
        let (id, code, _) =
            Request::parse(&payload_of(&framed)[..payload_of(&framed).len() - 3]).unwrap_err();
        assert_eq!((id, code), (Some(5), ErrorCode::BadPayload));
        // Trailing garbage after complete args.
        let mut bytes = payload_of(&Request::Degree(n(1)).to_frame(6)).to_vec();
        bytes.push(0);
        let (id, code, _) = Request::parse(&bytes).unwrap_err();
        assert_eq!((id, code), (Some(6), ErrorCode::BadPayload));
        // submit-event must carry exactly one event.
        let two_events = vec![NetworkEvent::delete(n(1)), NetworkEvent::delete(n(2))];
        let mut bytes = payload_of(&Request::SubmitBatch(two_events).to_frame(8)).to_vec();
        bytes[13] = 7; // rewrite the op tag to submit-event
        let (id, code, _) = Request::parse(&bytes).unwrap_err();
        assert_eq!((id, code), (Some(8), ErrorCode::BadPayload));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_reading() {
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let (code, _) = parse_frame_header(header).unwrap_err();
        assert_eq!(code, ErrorCode::Oversized);
    }

    #[test]
    fn crc_flips_are_caught() {
        let framed = Request::Distance(n(1), n(2)).to_frame(3);
        let (_, crc) = parse_frame_header(framed[..8].try_into().unwrap()).unwrap();
        let mut payload = payload_of(&framed).to_vec();
        payload[0] ^= 0x40;
        let (code, _) = verify_frame(&payload, crc).unwrap_err();
        assert_eq!(code, ErrorCode::Malformed);
    }
}

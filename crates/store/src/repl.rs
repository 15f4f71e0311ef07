//! WAL-shipping replication: a master serves its store directory's
//! committed history over a socket; replicas ingest it into their own
//! store directories with the same digest-certified refusal semantics
//! recovery uses.
//!
//! ## The FGR1 protocol
//!
//! The frame is the WAL's and the FGQ1 query protocol's, written and
//! checked by [`crate::codec`] ([`write_frame`] and [`read_frame`] wrap
//! it around a socket, with payload bounds of 6 bytes to
//! [`MAX_REPL_PAYLOAD`]); the payload is magic-tagged:
//!
//! ```text
//! frame   = [len: u32 LE][crc32(payload): u32 LE][payload]
//! payload = "FGR1" [version: u8] [tag: u8] [body]
//! ```
//!
//! Requests (replica → master): `Fetch { have_epoch, max_bytes }` asks
//! for committed records past `have_epoch`; `FetchSnapshot` asks for the
//! manifest's checkpoint (bootstrap). Responses (master → replica):
//! `Snapshot` (checkpoint bytes + the manifest's `(seq, hash, chain)`),
//! `Records` (a run of verbatim framed WAL records ending on a commit
//! boundary), `CaughtUp`, or a typed `Error` frame.
//!
//! ## Why replica reads are certifiable
//!
//! Shipped records are the master's WAL records byte-for-byte: each
//! carries the `(seq, digest)` pair the master logged when it first
//! applied the event. [`crate::DurableHealer::apply_replicated`] refuses
//! sequence gaps and digest disagreements exactly like recovery replay,
//! and folds each accepted digest into the same certificate chain
//! ([`crate::chain_fold`] from [`crate::CHAIN_BASE`]) the master's
//! manifest commits to. A replica that reaches epoch `e` therefore holds
//! the *proven-identical* history — its `(epoch, chain)` stamp equals
//! the master's at the same epoch, with no new bookkeeping. Tampered or
//! truncated shipments fail the CRC, the strict record parser
//! ([`crate::decode_records`]), the commit-boundary rule, or the digest
//! check — they are refused with typed errors, never applied.
//!
//! The master reads committed state straight from the store directory
//! (manifest + live segment), so it never races the writer's in-memory
//! state; only records behind a [`crate::FLAG_COMMIT`] mark ever ship.

use crate::codec::{check_frame, fnv64, frame, frame_header, Cursor};
use crate::durable::{DurableHealer, DurableOptions, Persistable, RecoveryReport};
use crate::error::StoreError;
use crate::snapstore::{
    load_snapshot, manifest_path, read_manifest, wal_path, write_manifest, write_snapshot, Manifest,
};
use crate::wal::{decode_records, scan_wal, WalRecord, WalWriter};
use fg_core::SelfHealer;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Protocol magic: every FGR1 payload starts with these bytes.
pub const REPL_MAGIC: [u8; 4] = *b"FGR1";

/// Protocol version.
pub const REPL_VERSION: u8 = 1;

/// Upper bound on a frame payload (snapshots dominate; anything larger
/// is garbage or abuse).
pub const MAX_REPL_PAYLOAD: usize = 64 << 20;

/// Smallest payload: magic, version and tag.
const MIN_REPL_PAYLOAD: usize = 6;

/// The soft byte cap a replica puts in every `Fetch`: the master ships
/// whole commit groups until a shipment reaches it.
const FETCH_BYTES: u32 = 1 << 20;

/// Error-frame code: the request did not parse.
pub const REPL_ERR_BAD_REQUEST: u8 = 1;

/// Error-frame code: the master's own store failed (I/O, corruption).
pub const REPL_ERR_STORE: u8 = 2;

const TAG_FETCH: u8 = 0;
const TAG_FETCH_SNAPSHOT: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_RECORDS: u8 = 3;
const TAG_CAUGHT_UP: u8 = 4;
const TAG_ERROR: u8 = 5;

/// How often blocked master-side connection handlers check the shutdown
/// flag.
const HANDLER_POLL: Duration = Duration::from_millis(100);

/// What can go wrong on the replication path.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplError {
    /// Socket-level failure (includes a peer that vanished mid-frame).
    Io(io::Error),
    /// A frame or shipped record range that violates the protocol —
    /// bad framing, checksum mismatch, a run not ending on a commit
    /// boundary. Refused, never applied.
    Malformed(String),
    /// The local store refused the shipment (sequence gap, digest
    /// mismatch, replay failure) or failed on its own I/O.
    Store(StoreError),
    /// The peer answered with a typed error frame.
    Remote {
        /// One of the `REPL_ERR_*` codes.
        code: u8,
        /// Human-readable detail from the peer.
        detail: String,
    },
    /// The master can only offer a snapshot because the records past
    /// `have_epoch` were checkpointed away. Re-bootstrapping into a
    /// fresh directory catches up; in-place snapshot catch-up is a
    /// planned follow-up.
    Behind {
        /// The replica's epoch.
        have_epoch: u64,
        /// The master's oldest available epoch (its checkpoint).
        snapshot_seq: u64,
    },
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication i/o: {e}"),
            ReplError::Malformed(detail) => write!(f, "malformed replication frame: {detail}"),
            ReplError::Store(e) => write!(f, "replica store refused shipment: {e}"),
            ReplError::Remote { code, detail } => {
                write!(f, "peer error frame (code {code}): {detail}")
            }
            ReplError::Behind {
                have_epoch,
                snapshot_seq,
            } => write!(
                f,
                "replica at epoch {have_epoch} is behind the master's checkpoint \
                 {snapshot_seq}; re-bootstrap from snapshot"
            ),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(e) => Some(e),
            ReplError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReplError {
    fn from(e: io::Error) -> Self {
        ReplError::Io(e)
    }
}

impl From<StoreError> for ReplError {
    fn from(e: StoreError) -> Self {
        ReplError::Store(e)
    }
}

/// Rewrites an unspecified bind address (`0.0.0.0` / `::`) to the
/// matching loopback, port preserved. Connecting a listener's own
/// `local_addr()` back to itself to wake a blocking acceptor is only
/// portable after this rewrite — a wildcard-address connect is
/// unspecified behaviour on some platforms and can hang a shutdown.
pub fn wake_addr(addr: SocketAddr) -> SocketAddr {
    let mut addr = addr;
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    addr
}

/// Best-effort wake of a blocking acceptor at `addr`: a bounded retry
/// of short connect attempts against [`wake_addr`]`(addr)`. Returns
/// whether any connect succeeded (failure usually means the listener
/// already closed, which is also a wake).
pub fn wake_acceptor(addr: SocketAddr) -> bool {
    let target = wake_addr(addr);
    for _ in 0..20 {
        if TcpStream::connect_timeout(&target, Duration::from_millis(50)).is_ok() {
            return true;
        }
        thread::sleep(Duration::from_millis(10));
    }
    false
}

/// A replica-to-master request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRequest {
    /// "Ship me committed records with sequence numbers past
    /// `have_epoch`, roughly `max_bytes` worth."
    Fetch {
        /// The replica's current epoch.
        have_epoch: u64,
        /// Soft cap on the shipped byte range; always rounded up to a
        /// commit boundary so progress is guaranteed.
        max_bytes: u32,
    },
    /// "Ship me your checkpoint" — the bootstrap request.
    FetchSnapshot,
}

impl ReplRequest {
    /// The request's FGR1 payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = payload_header(match self {
            ReplRequest::Fetch { .. } => TAG_FETCH,
            ReplRequest::FetchSnapshot => TAG_FETCH_SNAPSHOT,
        });
        if let ReplRequest::Fetch {
            have_epoch,
            max_bytes,
        } = self
        {
            out.extend_from_slice(&have_epoch.to_le_bytes());
            out.extend_from_slice(&max_bytes.to_le_bytes());
        }
        out
    }

    /// Parses an FGR1 payload as a request.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn parse(payload: &[u8]) -> Result<Self, String> {
        let mut cur = check_payload_header(payload)?;
        let tag = cur.u8()?;
        let req = match tag {
            TAG_FETCH => ReplRequest::Fetch {
                have_epoch: cur.u64()?,
                max_bytes: cur.u32()?,
            },
            TAG_FETCH_SNAPSHOT => ReplRequest::FetchSnapshot,
            other => return Err(format!("unknown request tag {other}")),
        };
        cur.finish()?;
        Ok(req)
    }
}

/// A master-to-replica response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplResponse {
    /// The manifest's checkpoint: everything a replica needs to create
    /// its own store directory resuming the master's certificate chain.
    Snapshot {
        /// Checkpoint epoch.
        seq: u64,
        /// Content hash of `bytes` (verified on receipt).
        hash: u64,
        /// Certificate chain digest at `seq`.
        chain: u64,
        /// The snapshot bytes.
        bytes: Vec<u8>,
    },
    /// A run of committed WAL records, verbatim in their on-disk framed
    /// form, always ending with a commit-flagged record.
    Records {
        /// How many records `raw` holds (cross-checked after parsing).
        count: u32,
        /// The framed record bytes.
        raw: Vec<u8>,
    },
    /// Nothing new past the requested epoch.
    CaughtUp {
        /// The master's committed epoch.
        epoch: u64,
    },
    /// The master could not answer.
    Error {
        /// One of the `REPL_ERR_*` codes.
        code: u8,
        /// Human-readable detail.
        detail: String,
    },
}

impl ReplResponse {
    /// The response's FGR1 payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            ReplResponse::Snapshot {
                seq,
                hash,
                chain,
                bytes,
            } => {
                let mut out = payload_header(TAG_SNAPSHOT);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&hash.to_le_bytes());
                out.extend_from_slice(&chain.to_le_bytes());
                out.extend_from_slice(bytes);
                out
            }
            ReplResponse::Records { count, raw } => {
                let mut out = payload_header(TAG_RECORDS);
                out.extend_from_slice(&count.to_le_bytes());
                out.extend_from_slice(raw);
                out
            }
            ReplResponse::CaughtUp { epoch } => {
                let mut out = payload_header(TAG_CAUGHT_UP);
                out.extend_from_slice(&epoch.to_le_bytes());
                out
            }
            ReplResponse::Error { code, detail } => {
                let mut out = payload_header(TAG_ERROR);
                out.push(*code);
                out.extend_from_slice(detail.as_bytes());
                out
            }
        }
    }

    /// Parses an FGR1 payload as a response.
    ///
    /// # Errors
    ///
    /// A description of the first violation.
    pub fn parse(payload: &[u8]) -> Result<Self, String> {
        let mut cur = check_payload_header(payload)?;
        let tag = cur.u8()?;
        match tag {
            TAG_SNAPSHOT => Ok(ReplResponse::Snapshot {
                seq: cur.u64()?,
                hash: cur.u64()?,
                chain: cur.u64()?,
                bytes: cur.rest().to_vec(),
            }),
            TAG_RECORDS => Ok(ReplResponse::Records {
                count: cur.u32()?,
                raw: cur.rest().to_vec(),
            }),
            TAG_CAUGHT_UP => {
                let epoch = cur.u64()?;
                cur.finish()?;
                Ok(ReplResponse::CaughtUp { epoch })
            }
            TAG_ERROR => {
                let code = cur.u8()?;
                let detail = String::from_utf8_lossy(cur.rest()).into_owned();
                Ok(ReplResponse::Error { code, detail })
            }
            other => Err(format!("unknown response tag {other}")),
        }
    }
}

fn payload_header(tag: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&REPL_MAGIC);
    out.push(REPL_VERSION);
    out.push(tag);
    out
}

fn check_payload_header<'a>(payload: &'a [u8]) -> Result<Cursor<'a>, String> {
    let mut cur = Cursor::new(payload);
    if cur.array()? != REPL_MAGIC {
        return Err("bad magic".to_string());
    }
    let version = cur.u8()?;
    if version != REPL_VERSION {
        return Err(format!("unsupported version {version}"));
    }
    Ok(cur)
}

/// Writes one FGR1 frame.
///
/// # Errors
///
/// Any I/O failure.
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    stream.write_all(&frame(payload))
}

/// Reads one FGR1 frame, verifying length bounds and the checksum.
///
/// # Errors
///
/// [`ReplError::Io`] on socket failure (including a peer gone
/// mid-frame), [`ReplError::Malformed`] on a length or checksum
/// violation.
pub fn read_frame(stream: &mut TcpStream) -> Result<Vec<u8>, ReplError> {
    let mut header = [0u8; 8];
    stream.read_exact(&mut header)?;
    let (len, crc) =
        frame_header(header, MIN_REPL_PAYLOAD..=MAX_REPL_PAYLOAD).map_err(ReplError::Malformed)?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    check_frame(&payload, crc).map_err(ReplError::Malformed)?;
    Ok(payload)
}

/// The master side: serves a store directory's committed history to any
/// number of replicas over FGR1.
///
/// The listener reads the directory (manifest + live segment) per
/// request rather than sharing state with the writer, so it can run in
/// the same process as a [`DurableHealer`] or a different one; only
/// commit-delimited records ever ship.
#[derive(Debug)]
pub struct ReplListener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

/// Upper bound on simultaneously served replica connections. The accept
/// loop closes connections beyond it instead of spawning without bound —
/// a stalled or malicious fleet cannot exhaust the master's threads.
pub const MAX_REPL_HANDLERS: usize = 64;

/// Releases one handler slot when its connection thread exits — by any
/// path, including a panic unwinding the handler.
struct HandlerSlot(Arc<AtomicUsize>);

impl Drop for HandlerSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl ReplListener {
    /// Binds the replication port and starts serving `dir`.
    ///
    /// # Errors
    ///
    /// Any socket failure.
    pub fn bind(addr: impl ToSocketAddrs, dir: &Path) -> Result<ReplListener, ReplError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&shutdown);
        let slots = Arc::clone(&active);
        let dir = dir.to_path_buf();
        let acceptor = thread::Builder::new()
            .name("fgr1-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &dir, &flag, &slots))
            .map_err(ReplError::Io)?;
        Ok(ReplListener {
            addr,
            shutdown,
            active,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many replica connections are being served right now — the
    /// concurrency the accept loop has fanned out, bounded by
    /// [`MAX_REPL_HANDLERS`].
    pub fn active_handlers(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains connection handlers, and joins the
    /// acceptor. Idempotent.
    pub fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.acceptor.take() {
            wake_acceptor(self.addr);
            // fg-lint: allow(swallowed-results): stop() must be infallible and idempotent; a panicked acceptor leaves nothing to clean up
            let _ = handle.join();
        }
    }
}

impl Drop for ReplListener {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    dir: &Path,
    shutdown: &Arc<AtomicBool>,
    active: &Arc<AtomicUsize>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        handlers.retain(|h| !h.is_finished());
        // Bounded fan-out: a connection past the cap is closed, not
        // queued — the replica sees EOF and retries, and a stalled
        // fleet cannot exhaust the master's threads.
        if active.load(Ordering::SeqCst) >= MAX_REPL_HANDLERS {
            drop(stream);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let slot = HandlerSlot(Arc::clone(active));
        let dir = dir.to_path_buf();
        let flag = Arc::clone(shutdown);
        // On spawn failure the closure (and with it the slot guard) is
        // dropped, releasing the reservation.
        if let Ok(handle) = thread::Builder::new()
            .name("fgr1-handler".to_string())
            .spawn(move || {
                let _slot = slot;
                handle_connection(stream, &dir, &flag);
            })
        {
            handlers.push(handle);
        }
    }
    for handle in handlers {
        // fg-lint: allow(swallowed-results): a panicked handler only ends its own connection; draining must reach every join
        let _ = handle.join();
    }
}

/// One replica connection: request/response until the peer hangs up or
/// shutdown is flagged. Handlers poll for the flag with short read
/// timeouts so [`ReplListener::stop`] completes promptly even with
/// idle replicas attached.
fn handle_connection(mut stream: TcpStream, dir: &Path, shutdown: &Arc<AtomicBool>) {
    if stream.set_read_timeout(Some(HANDLER_POLL)).is_err() {
        return;
    }
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Wait (bounded) for the next request's first byte without
        // consuming it — a timeout mid-frame would desynchronize, so the
        // frame itself is read under a generous timeout once data is in
        // flight.
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        if stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .is_err()
        {
            return;
        }
        let reply = match read_frame(&mut stream) {
            Ok(payload) => match ReplRequest::parse(&payload) {
                Ok(request) => answer(dir, &request),
                Err(detail) => ReplResponse::Error {
                    code: REPL_ERR_BAD_REQUEST,
                    detail,
                },
            },
            Err(ReplError::Malformed(detail)) => ReplResponse::Error {
                code: REPL_ERR_BAD_REQUEST,
                detail,
            },
            Err(_) => return,
        };
        if write_frame(&mut stream, &reply.encode()).is_err() {
            return;
        }
        if stream.set_read_timeout(Some(HANDLER_POLL)).is_err() {
            return;
        }
    }
}

/// Computes the master's answer to one request from on-disk committed
/// state. Store-side failures become typed error frames; a checkpoint
/// racing the read (segment rotated between manifest and scan) is
/// retried against the fresh manifest.
fn answer(dir: &Path, request: &ReplRequest) -> ReplResponse {
    match answer_inner(dir, request) {
        Ok(response) => response,
        Err(e) => ReplResponse::Error {
            code: REPL_ERR_STORE,
            detail: e.to_string(),
        },
    }
}

fn answer_inner(dir: &Path, request: &ReplRequest) -> Result<ReplResponse, StoreError> {
    for _ in 0..3 {
        let manifest = read_manifest(dir)?;
        match request {
            ReplRequest::FetchSnapshot => {
                let bytes = load_snapshot(dir, manifest)?;
                return Ok(ReplResponse::Snapshot {
                    seq: manifest.seq,
                    hash: manifest.hash,
                    chain: manifest.chain,
                    bytes,
                });
            }
            ReplRequest::Fetch {
                have_epoch,
                max_bytes,
            } => {
                if *have_epoch < manifest.seq {
                    // The records past have_epoch were checkpointed away
                    // (old segments are swept): only a snapshot can help.
                    let bytes = load_snapshot(dir, manifest)?;
                    return Ok(ReplResponse::Snapshot {
                        seq: manifest.seq,
                        hash: manifest.hash,
                        chain: manifest.chain,
                        bytes,
                    });
                }
                let scan = match scan_wal(&wal_path(dir, manifest.seq)) {
                    Ok(scan) => scan,
                    Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                        // A checkpoint rotated the segment between the
                        // manifest read and the scan; retry.
                        continue;
                    }
                    Err(e) => return Err(e),
                };
                return Ok(ship_records(
                    &scan.records[..scan.committed],
                    manifest,
                    *have_epoch,
                    *max_bytes,
                ));
            }
        }
    }
    Err(io::Error::new(
        io::ErrorKind::Interrupted,
        "segment rotated repeatedly during read; retry",
    )
    .into())
}

/// Builds a `Records` run from the committed prefix: everything past
/// `have_epoch`, capped near `max_bytes` but always ending on a commit
/// boundary (and always shipping through at least the first boundary,
/// so a batch larger than the cap still makes progress).
fn ship_records(
    committed: &[WalRecord],
    manifest: Manifest,
    have_epoch: u64,
    max_bytes: u32,
) -> ReplResponse {
    let epoch = committed.last().map_or(manifest.seq, |r| r.seq);
    let mut raw = Vec::new();
    let mut count = 0u32;
    let mut sealed_len = 0usize;
    let mut sealed_count = 0u32;
    for record in committed.iter().filter(|r| r.seq > have_epoch) {
        raw.extend_from_slice(&record.to_bytes());
        count += 1;
        if record.is_commit() {
            sealed_len = raw.len();
            sealed_count = count;
            if raw.len() >= max_bytes as usize {
                break;
            }
        }
    }
    if sealed_count == 0 {
        return ReplResponse::CaughtUp { epoch };
    }
    raw.truncate(sealed_len);
    ReplResponse::Records {
        count: sealed_count,
        raw,
    }
}

/// What one [`Replica::sync_once`] round accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplProgress {
    /// Records applied (and certified) this round.
    pub applied: usize,
    /// The replica's epoch afterwards.
    pub epoch: u64,
    /// Whether the master reported nothing further (this round shipped
    /// zero records).
    pub caught_up: bool,
}

/// The replica side: a [`DurableHealer`] fed from a master's FGR1
/// stream instead of local writes. Every shipped record passes the same
/// digest certification as recovery replay before it is applied and
/// staged — verbatim — into the replica's own WAL, so the replica's
/// store directory is independently recoverable and its committed
/// prefix is byte-identical to the master's.
#[derive(Debug)]
pub struct Replica<H: Persistable> {
    addr: SocketAddr,
    stream: TcpStream,
    healer: DurableHealer<H>,
}

impl<H: Persistable> Replica<H> {
    /// Connects to a master and opens (or bootstraps) the replica store
    /// at `dir`: if `dir` already holds a store it is recovered with the
    /// usual digest-certified replay (a crashed replica resumes where
    /// its own WAL committed); otherwise the master's checkpoint is
    /// fetched, hash-verified, and written out as a fresh store
    /// directory resuming the master's certificate chain.
    ///
    /// # Errors
    ///
    /// Socket failures, a snapshot whose bytes do not match its hash
    /// ([`ReplError::Malformed`]), or any store/recovery failure.
    pub fn bootstrap(
        master: impl ToSocketAddrs,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(Replica<H>, RecoveryReport), ReplError> {
        let addr = master
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no master address"))?;
        let mut stream = TcpStream::connect(addr)?;
        if !manifest_path(dir).exists() {
            write_frame(&mut stream, &ReplRequest::FetchSnapshot.encode())?;
            let payload = read_frame(&mut stream)?;
            match ReplResponse::parse(&payload).map_err(ReplError::Malformed)? {
                ReplResponse::Snapshot {
                    seq,
                    hash,
                    chain,
                    bytes,
                } => {
                    if fnv64(&bytes) != hash {
                        return Err(ReplError::Malformed(format!(
                            "snapshot bytes hash to {:016x}, header claims {hash:016x}",
                            fnv64(&bytes)
                        )));
                    }
                    std::fs::create_dir_all(dir).map_err(ReplError::Io)?;
                    write_snapshot(dir, &bytes)?;
                    drop(WalWriter::create(&wal_path(dir, seq), 1)?);
                    write_manifest(dir, Manifest { hash, seq, chain })?;
                }
                ReplResponse::Error { code, detail } => {
                    return Err(ReplError::Remote { code, detail });
                }
                other => {
                    return Err(ReplError::Malformed(format!(
                        "expected a snapshot response, got {other:?}"
                    )));
                }
            }
        }
        let (healer, report) = DurableHealer::open(dir, opts)?;
        Ok((
            Replica {
                addr,
                stream,
                healer,
            },
            report,
        ))
    }

    /// The replica's current epoch.
    pub fn epoch(&self) -> u64 {
        self.healer.epoch()
    }

    /// The replica's certificate chain digest — equal to the master's
    /// at the same epoch, by construction.
    pub fn chain_digest(&self) -> u64 {
        self.healer.chain_digest()
    }

    /// The underlying durable healer (for serving reads).
    pub fn healer(&self) -> &DurableHealer<H> {
        &self.healer
    }

    /// Unwraps the healer, dropping the connection.
    pub fn into_healer(self) -> DurableHealer<H> {
        self.healer
    }

    /// Re-dials the master (after it restarted, say). The store is
    /// untouched — the next [`Replica::sync_once`] resumes from the
    /// replica's committed epoch.
    ///
    /// # Errors
    ///
    /// Connection failure.
    pub fn reconnect(&mut self) -> Result<(), ReplError> {
        self.stream = TcpStream::connect(self.addr)?;
        Ok(())
    }

    /// One fetch/apply round: asks the master for records past the
    /// replica's epoch, certifies and applies each one, stages them
    /// verbatim into the replica's own WAL, and fsyncs once.
    ///
    /// # Errors
    ///
    /// * [`ReplError::Io`] — socket trouble (reconnect and retry);
    /// * [`ReplError::Malformed`] — a shipment that fails the strict
    ///   record parser, count cross-check, or commit-boundary rule;
    /// * [`ReplError::Store`] — the digest-certified apply refused a
    ///   record ([`crate::RecoveryError::SequenceGap`] /
    ///   [`crate::RecoveryError::DigestMismatch`] / replay failure);
    /// * [`ReplError::Behind`] — the master checkpointed past us;
    /// * [`ReplError::Remote`] — the master sent an error frame.
    ///
    /// Nothing from a refused shipment is applied past the first
    /// violation, and nothing unapplied is ever staged.
    pub fn sync_once(&mut self) -> Result<ReplProgress, ReplError> {
        let have_epoch = self.healer.epoch();
        let request = ReplRequest::Fetch {
            have_epoch,
            max_bytes: FETCH_BYTES,
        };
        write_frame(&mut self.stream, &request.encode())?;
        let payload = read_frame(&mut self.stream)?;
        match ReplResponse::parse(&payload).map_err(ReplError::Malformed)? {
            ReplResponse::CaughtUp { .. } => Ok(ReplProgress {
                applied: 0,
                epoch: have_epoch,
                caught_up: true,
            }),
            ReplResponse::Records { count, raw } => {
                let records = decode_records(&raw).map_err(ReplError::Malformed)?;
                if records.len() as u32 != count {
                    return Err(ReplError::Malformed(format!(
                        "shipment claims {count} records but parses to {}",
                        records.len()
                    )));
                }
                match records.last() {
                    None => {
                        return Err(ReplError::Malformed("empty record shipment".to_string()));
                    }
                    Some(last) if !last.is_commit() => {
                        return Err(ReplError::Malformed(
                            "shipment does not end on a commit boundary".to_string(),
                        ));
                    }
                    Some(_) => {}
                }
                for record in &records {
                    let _ = self.healer.apply_replicated(record)?;
                }
                self.healer.sync()?;
                Ok(ReplProgress {
                    applied: records.len(),
                    epoch: self.healer.epoch(),
                    caught_up: false,
                })
            }
            ReplResponse::Snapshot { seq, .. } => Err(ReplError::Behind {
                have_epoch,
                snapshot_seq: seq,
            }),
            ReplResponse::Error { code, detail } => Err(ReplError::Remote { code, detail }),
        }
    }

    /// Repeats [`Replica::sync_once`] until the master reports caught
    /// up; returns the total records applied.
    ///
    /// # Errors
    ///
    /// As [`Replica::sync_once`].
    pub fn sync_to_caught_up(&mut self) -> Result<usize, ReplError> {
        let mut applied = 0;
        loop {
            let progress = self.sync_once()?;
            applied += progress.applied;
            if progress.caught_up {
                return Ok(applied);
            }
        }
    }

    /// The replica's own store directory.
    pub fn dir(&self) -> &Path {
        self.healer.dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_frame_bytes_are_pinned() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let fetch = ReplRequest::Fetch {
            have_epoch: 42,
            max_bytes: 1 << 20,
        };
        write_frame(&mut tx, &fetch.encode()).unwrap();
        drop(tx);
        let mut bytes = Vec::new();
        rx.read_to_end(&mut bytes).unwrap();
        let expected: Vec<u8> = [
            &[18, 0, 0, 0][..],        // len
            &[0x97, 0x4d, 0x50, 0xb1], // crc32(payload)
            b"FGR1",
            &[1, 0],                    // version, tag: fetch
            &[42, 0, 0, 0, 0, 0, 0, 0], // have_epoch
            &[0, 0, 16, 0],             // max_bytes: 1 MiB
        ]
        .concat();
        assert_eq!(bytes, expected);
    }
}

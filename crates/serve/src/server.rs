//! The N-reader-thread TCP server.
//!
//! One acceptor thread feeds accepted connections into a **bounded**
//! queue consumed by `readers` worker threads — the queue bound is the
//! connection cap (64 queued connections), and a full queue blocks the
//! acceptor, which in turn leaves further clients waiting in the OS
//! accept backlog (backpressure without a single dropped connection).
//! Each worker serves one connection at a time, frame by frame, pinning
//! the latest published snapshot per request; a client may pipeline
//! requests freely and responses come back in request order.
//!
//! Protocol violations (bad CRC, oversized length prefix, bad magic,
//! unknown op, truncated args) are answered with one typed error frame
//! and the connection is closed — never a panic, never a guess at
//! resynchronization. A connection that disappears mid-frame is simply
//! released. See DESIGN.md §13 for the full semantics.

use crate::protocol::{parse_frame_header, verify_frame, ErrorCode, Request, Response};
use crate::snapshot::SnapshotHub;
use crate::write::{WriteAck, WriteJob};
use fg_core::NetworkEvent;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Connection cap: the bound of the accepted-connection queue. When
/// every reader is serving a connection and this many more are queued,
/// the acceptor blocks and further clients wait in the OS accept
/// backlog.
const MAX_CONNECTIONS: usize = 64;

/// How long a worker blocks in a socket read before re-checking the
/// shutdown flag. Purely a shutdown-latency knob — partial frame bytes
/// are preserved across timeouts.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// Tunables for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Reader (worker) threads serving connections.
    pub readers: usize,
    /// Crash-injection hook for the panic-isolation regression test: a
    /// worker panics when it is about to answer this request id. Leave
    /// `None` (the default) everywhere outside tests.
    #[doc(hidden)]
    pub panic_on_request_id: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            readers: 4,
            panic_on_request_id: None,
        }
    }
}

/// Monotonic counters the server maintains; all reads are `Relaxed` —
/// they are observability, not synchronization.
#[derive(Debug, Default)]
pub struct ServerStats {
    accepted: AtomicU64,
    served: AtomicU64,
    protocol_errors: AtomicU64,
    disconnects: AtomicU64,
    connection_panics: AtomicU64,
}

impl ServerStats {
    /// Connections accepted since bind.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Successful responses written.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Typed error frames written (framing violations also close the
    /// connection; op-level refusals like
    /// [`NotMaster`](ErrorCode::NotMaster) leave it open).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Connections that vanished mid-frame.
    pub fn disconnects(&self) -> u64 {
        self.disconnects.load(Ordering::Relaxed)
    }

    /// Connections whose serving panicked. Each panic is caught at the
    /// worker loop: the connection drops, the worker keeps serving —
    /// one poisoned connection can never take the server down.
    pub fn connection_panics(&self) -> u64 {
        self.connection_panics.load(Ordering::Relaxed)
    }
}

/// A running server: an acceptor plus `readers` workers over a shared
/// [`SnapshotHub`]. Dropping the handle shuts the server down
/// gracefully (prefer calling [`shutdown`](Server::shutdown) to make
/// the join explicit).
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    stats: Arc<ServerStats>,
}

impl Server {
    /// Binds `addr` and starts serving `hub`'s published snapshots,
    /// read-only: write ops are answered with a typed
    /// [`NotMaster`](ErrorCode::NotMaster) frame. This is what a
    /// replica runs.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind(
        addr: impl ToSocketAddrs,
        hub: Arc<SnapshotHub>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_inner(addr, hub, None, config)
    }

    /// Binds `addr` as the **write master**: read ops are served from
    /// `hub` like [`Server::bind`], and write ops (submit-event /
    /// submit-batch) are forwarded to the writer thread behind
    /// `writer` (see [`crate::write::spawn_writer`]), whose post-apply
    /// `(epoch, digest)` stamp acknowledges them.
    ///
    /// # Errors
    ///
    /// The bind failure, verbatim.
    pub fn bind_master(
        addr: impl ToSocketAddrs,
        hub: Arc<SnapshotHub>,
        writer: SyncSender<WriteJob>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_inner(addr, hub, Some(writer), config)
    }

    fn bind_inner(
        addr: impl ToSocketAddrs,
        hub: Arc<SnapshotHub>,
        writer: Option<SyncSender<WriteJob>>,
        config: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let (tx, rx) = sync_channel::<TcpStream>(MAX_CONNECTIONS);
        let rx = Arc::new(Mutex::new(rx));

        let workers = (0..config.readers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let hub = Arc::clone(&hub);
                let shutdown = Arc::clone(&shutdown);
                let stats = Arc::clone(&stats);
                let writer = writer.clone();
                let panic_on = config.panic_on_request_id;
                std::thread::Builder::new()
                    .name(format!("fg-serve-reader-{i}"))
                    .spawn(move || worker_loop(&rx, &hub, &shutdown, &stats, &writer, panic_on))
                    .expect("spawn reader thread")
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("fg-serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &tx, &shutdown, &stats))
                .expect("spawn acceptor thread")
        };

        Ok(Server {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            workers,
            stats,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Signals shutdown and joins every thread. In-flight requests
    /// finish; connections popped from the queue afterwards are answered
    /// with a [`ShuttingDown`](ErrorCode::ShuttingDown) frame and
    /// closed; idle connections close within one read timeout.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the acceptor out of its blocking accept(). The bound
        // address may be unspecified (`0.0.0.0` / `::`), which is not a
        // portable connect target — wake_acceptor rewrites it to
        // loopback and retries briefly, so shutdown() cannot hang in
        // join behind a wildcard bind.
        fg_store::repl::wake_acceptor(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            // fg-lint: allow(swallowed-results): a panicked acceptor already counted; shutdown must still drain the workers
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            // fg-lint: allow(swallowed-results): worker panics are counted per-connection; join here only waits for exit
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn acceptor_loop(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shutdown: &AtomicBool,
    stats: &ServerStats,
) {
    loop {
        let stream = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            // The wake connection (or whoever raced it) is dropped;
            // dropping `tx` below is what releases idle workers.
            break;
        }
        match stream {
            Ok((stream, _peer)) => {
                stats.accepted.fetch_add(1, Ordering::Relaxed);
                // Blocking send onto the bounded queue IS the
                // backpressure: a full queue parks the acceptor here and
                // later clients wait in the OS accept backlog.
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                // Transient accept failure (e.g. the peer reset before
                // we got to it); keep serving.
                continue;
            }
        }
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<TcpStream>>,
    hub: &SnapshotHub,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    writer: &Option<SyncSender<WriteJob>>,
    panic_on: Option<u64>,
) {
    loop {
        // Holding the mutex across recv() is the textbook sharing of an
        // mpsc receiver: exactly one idle worker waits in recv(), the
        // rest queue on the mutex. A sibling worker that panicked while
        // holding the lock poisons it, but the Receiver itself carries
        // no invariant a half-finished recv() could break — recover the
        // guard rather than cascading the panic through every worker.
        let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        let Ok(stream) = next else {
            return; // Acceptor gone: no more connections will ever come.
        };
        if shutdown.load(Ordering::SeqCst) {
            reject_shutting_down(stream, hub);
            continue;
        }
        // One connection's panic (a bug, or the test crash hook) must
        // not kill the worker: catch it, count it, drop the connection,
        // keep serving the queue.
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            serve_connection(stream, hub, shutdown, stats, writer, panic_on);
        }));
        if outcome.is_err() {
            stats.connection_panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Tells a late connection the server is going away, then closes it.
fn reject_shutting_down(mut stream: TcpStream, hub: &SnapshotHub) {
    let snapshot = hub.pin();
    let frame = Response::error_frame(
        0,
        snapshot.epoch,
        snapshot.digest,
        ErrorCode::ShuttingDown,
        "server is shutting down",
    );
    // fg-lint: allow(swallowed-results): best-effort farewell to a peer we are about to close anyway
    let _ = stream.write_all(&frame);
}

/// What an interruptible exact read ended with.
enum ReadOutcome {
    /// The buffer was filled.
    Full,
    /// The peer closed after `got` of the wanted bytes.
    Eof { got: usize },
    /// The shutdown flag went up while waiting for bytes.
    Shutdown,
    /// A hard I/O error.
    Failed,
}

/// `read_exact` that a read timeout can interrupt: on `WouldBlock` /
/// `TimedOut` the shutdown flag is polled and, when clear, the read
/// resumes **with the partial bytes preserved** — a slow client never
/// corrupts framing.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shutdown: &AtomicBool) -> ReadOutcome {
    let mut got = 0;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => return ReadOutcome::Eof { got },
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::Shutdown;
                }
            }
            Err(_) => return ReadOutcome::Failed,
        }
    }
    ReadOutcome::Full
}

/// Serves one connection until it closes, errors, or shutdown.
fn serve_connection(
    mut stream: TcpStream,
    hub: &SnapshotHub,
    shutdown: &AtomicBool,
    stats: &ServerStats,
    writer: &Option<SyncSender<WriteJob>>,
    panic_on: Option<u64>,
) {
    // fg-lint: allow(swallowed-results): nodelay is a latency hint; serving correctly without it beats dropping the connection
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        // Without a read timeout, read_full cannot poll the shutdown
        // flag and this connection could pin its worker forever — drop
        // it rather than serve unboundedly.
        stats.disconnects.fetch_add(1, Ordering::Relaxed);
        return;
    }
    loop {
        // Frame header: [len][crc].
        let mut header = [0u8; 8];
        match read_full(&mut stream, &mut header, shutdown) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof { got: 0 } => return, // Clean close between frames.
            ReadOutcome::Eof { .. } => {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Shutdown | ReadOutcome::Failed => return,
        }
        let (len, crc) = match parse_frame_header(header) {
            Ok(parsed) => parsed,
            Err((code, detail)) => {
                send_protocol_error(&mut stream, hub, stats, 0, code, &detail);
                return;
            }
        };
        let mut payload = vec![0u8; len];
        match read_full(&mut stream, &mut payload, shutdown) {
            ReadOutcome::Full => {}
            ReadOutcome::Eof { .. } => {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Shutdown | ReadOutcome::Failed => return,
        }
        if let Err((code, detail)) = verify_frame(&payload, crc) {
            send_protocol_error(&mut stream, hub, stats, 0, code, &detail);
            return;
        }
        match Request::parse(&payload) {
            Ok((request_id, request)) => {
                if panic_on == Some(request_id) {
                    // fg-lint: allow(panic-freedom): the torture suite's deliberate crash hook — this panic IS the fault being injected
                    panic!("crash hook: panicking on request id {request_id}");
                }
                // Write ops are destructured here so serve_write takes
                // the events themselves — no "is it really a write?"
                // branch can be reached downstream.
                let request = match request {
                    Request::SubmitEvent(event) => {
                        if !serve_write(
                            &mut stream,
                            hub,
                            stats,
                            writer,
                            request_id,
                            vec![event],
                            true,
                        ) {
                            return;
                        }
                        continue;
                    }
                    Request::SubmitBatch(events) => {
                        if !serve_write(&mut stream, hub, stats, writer, request_id, events, false)
                        {
                            return;
                        }
                        continue;
                    }
                    read_op => read_op,
                };
                // Pin once per request: the whole answer — including the
                // stamp — comes from one published snapshot, whatever
                // the writer does meanwhile.
                let snapshot = hub.pin();
                let Some(body) = snapshot.answer(&request) else {
                    // Unreachable by construction (writes peeled off
                    // above), but a refused answer must degrade to an
                    // error frame, never a panic.
                    send_protocol_error(
                        &mut stream,
                        hub,
                        stats,
                        request_id,
                        ErrorCode::Malformed,
                        "request reached the read path without a read answer",
                    );
                    return;
                };
                let frame = Response::ok_frame(request_id, snapshot.epoch, snapshot.digest, &body);
                if stream.write_all(&frame).is_err() {
                    stats.disconnects.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                stats.served.fetch_add(1, Ordering::Relaxed);
            }
            Err((request_id, code, detail)) => {
                send_protocol_error(
                    &mut stream,
                    hub,
                    stats,
                    request_id.unwrap_or(0),
                    code,
                    &detail,
                );
                return;
            }
        }
    }
}

/// Handles one write op (submit-event / submit-batch). Returns `false`
/// only when the connection is gone — op-level refusals ([`NotMaster`]
/// (ErrorCode::NotMaster), [`WriteFailed`](ErrorCode::WriteFailed)) are
/// answered in-band and leave the connection open.
fn serve_write(
    stream: &mut TcpStream,
    hub: &SnapshotHub,
    stats: &ServerStats,
    writer: &Option<SyncSender<WriteJob>>,
    request_id: u64,
    events: Vec<NetworkEvent>,
    single: bool,
) -> bool {
    let Some(writer) = writer else {
        return send_op_error(
            stream,
            hub,
            stats,
            request_id,
            ErrorCode::NotMaster,
            "this node is a read replica; submit writes to the master",
        );
    };
    let (reply_tx, reply_rx) = channel();
    let job = WriteJob {
        events,
        reply: reply_tx,
    };
    let outcome = match writer.send(job) {
        Ok(()) => reply_rx
            .recv()
            .unwrap_or_else(|_| Err("writer thread exited before acknowledging".into())),
        Err(_) => Err("writer thread is gone".into()),
    };
    match outcome {
        Ok(WriteAck {
            applied,
            epoch,
            digest,
        }) => {
            let body = if single {
                crate::protocol::ResponseBody::EventSubmitted
            } else {
                crate::protocol::ResponseBody::BatchSubmitted(applied as u32)
            };
            // The stamp on a write ack is the (epoch, digest) right
            // after the job's own events — the state the write landed
            // in, published before the writer replied — not whatever
            // snapshot this worker could pin.
            let frame = Response::ok_frame(request_id, epoch, digest, &body);
            if stream.write_all(&frame).is_err() {
                stats.disconnects.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            stats.served.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(detail) => send_op_error(
            stream,
            hub,
            stats,
            request_id,
            ErrorCode::WriteFailed,
            &detail,
        ),
    }
}

/// Writes one typed **op-level** error frame and keeps the connection
/// open (unlike [`send_protocol_error`], which precedes a close).
/// Returns `false` if the peer vanished mid-write.
fn send_op_error(
    stream: &mut TcpStream,
    hub: &SnapshotHub,
    stats: &ServerStats,
    request_id: u64,
    code: ErrorCode,
    detail: &str,
) -> bool {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let snapshot = hub.pin();
    let frame = Response::error_frame(request_id, snapshot.epoch, snapshot.digest, code, detail);
    if stream.write_all(&frame).is_err() {
        stats.disconnects.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Writes one typed error frame (stamped like any response) and counts
/// it; the caller closes the connection by returning.
fn send_protocol_error(
    stream: &mut TcpStream,
    hub: &SnapshotHub,
    stats: &ServerStats,
    request_id: u64,
    code: ErrorCode,
    detail: &str,
) {
    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    let snapshot = hub.pin();
    let frame = Response::error_frame(request_id, snapshot.epoch, snapshot.digest, code, detail);
    // fg-lint: allow(swallowed-results): the connection closes right after this frame; a failed farewell changes nothing
    let _ = stream.write_all(&frame);
}

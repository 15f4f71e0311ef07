//! `fg-serve` — the threaded TCP query-serving subsystem.
//!
//! The paper's forgiving graph is a *distributed* data structure: it
//! exists to keep answering low-stretch queries while the network it
//! models is under attack. This crate is the serving half of that
//! story for this repo — it takes the in-process query surface
//! ([`fg_core::QueryOps`] over [`fg_core::FrozenView`]) and puts it
//! behind a socket with real writer/reader decoupling:
//!
//! - [`snapshot`]: a writer applies event batches through any
//!   [`SelfHealer`](fg_core::SelfHealer) and publishes immutable,
//!   epoch-stamped snapshots behind an atomically swapped `Arc`
//!   ([`SnapshotHub`]); readers pin the latest epoch per request and
//!   superseded epochs are freed by the last pin's drop.
//! - [`protocol`]: FGQ1, a length-prefixed CRC-framed binary protocol
//!   (the frame is [`fg_store::codec`]'s, shared with the WAL and FGR1)
//!   with typed error frames; every
//!   response carries the `(epoch, digest)` certificate of the
//!   snapshot that answered it.
//! - [`server`]: an acceptor plus N reader threads over std
//!   `TcpListener` — bounded accept queue for backpressure, graceful
//!   shutdown, per-connection pipelining, and a hard rule that
//!   malformed input answers a typed error frame and closes, never
//!   panics.
//! - [`client`]: a blocking client with typed per-op round trips and a
//!   split [`send`](Client::send)/[`recv`](Client::recv) pair for
//!   pipelining.
//! - [`mod@write`]: the master's writer thread — workers forward FGQ1
//!   write ops (submit-event / submit-batch) as [`WriteJob`]s; the
//!   writer applies and stages every queued job, then runs one WAL
//!   write → fsync → publish (ordering asserted) for the group and acks
//!   each job with the `(epoch, digest)` stamp right after its events.
//! - [`replica`]: a [`ReplicaNode`] ingesting a master's FGR1 WAL
//!   stream ([`fg_store::repl`]) and republishing each synced epoch
//!   into its own hub, so a read-only server answers with certificates
//!   bit-identical to the master's at equal epochs.
//!
//! The design contract — the epoch-consistency argument, backpressure
//! and shutdown semantics, and the replication story — is written up in
//! DESIGN.md §13–§14.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod snapshot;
pub mod write;

pub use client::{Client, Stamped};
pub use error::ServeError;
pub use protocol::{ErrorCode, Request, Response, ResponseBody};
pub use replica::ReplicaNode;
pub use server::{Server, ServerConfig, ServerStats};
pub use snapshot::{chain_digest, Publisher, ServeSnapshot, SnapshotHub, BASE_DIGEST};
pub use write::{spawn_writer, WriteAck, WriteJob};

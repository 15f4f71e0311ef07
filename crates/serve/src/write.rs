//! The master's writer thread: the single owner of the durable
//! publisher, draining submitted write jobs from the server's workers.
//!
//! Every write op a worker parses becomes one [`WriteJob`] on a bounded
//! queue. The writer commits jobs in groups: it stages the job it woke
//! for ([`Publisher::stage`](crate::Publisher::stage) — apply, then
//! stage the WAL records) plus every job that arrived meanwhile, up to
//! the queue's depth, then makes the group durable and visible with one
//! WAL write, one fsync and one publish
//! ([`Publisher::commit_and_publish`](crate::Publisher::commit_and_publish)
//! — the ordering asserted). Only then does it acknowledge each job,
//! with the `(epoch, digest)` stamp right after that job's own last
//! event. The worker frames that stamp back to the client, so a client
//! that receives a write ack holds a certificate for fsynced state: a
//! replica reaching that epoch must answer with the same digest. Each
//! job's last WAL record carries the commit flag, so the log is
//! byte-for-byte the one committing the jobs one at a time would write.
//!
//! The queue is the write-side backpressure: when the writer falls
//! behind, workers block in `send` and their connections stop reading —
//! exactly the accept-queue story (DESIGN.md §13), one layer up.

use crate::snapshot::Publisher;
use fg_core::{NetworkEvent, SelfHealer};
use fg_store::{DurableHealer, Persistable};
use std::sync::mpsc::{sync_channel, Sender, SyncSender};
use std::thread::JoinHandle;

/// One submitted write: the events to apply and the channel the
/// submitting worker is blocked on.
pub struct WriteJob {
    /// The events to apply as one batch (one WAL commit group).
    pub events: Vec<NetworkEvent>,
    /// Where the ack (or the engine error, rendered) goes. A dropped
    /// receiver — client gone mid-write — is fine; the write still
    /// committed.
    pub reply: Sender<Result<WriteAck, String>>,
}

/// The writer's acknowledgement of one applied-and-published job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteAck {
    /// Events applied (the whole batch on success).
    pub applied: usize,
    /// The epoch right after the job's last event; the publish that
    /// preceded the ack reached at least this epoch.
    pub epoch: u64,
    /// The chained certificate digest at that epoch — equal to the
    /// WAL's committed chain there, by the publish assertion.
    pub digest: u64,
}

/// Spawns the writer thread over `publisher` with a `queue_depth`-deep
/// job queue; a commit group holds at most `queue_depth` jobs. Returns
/// the sender to hand to
/// [`Server::bind_master`](crate::Server::bind_master) (clone it per
/// server if needed) and the join handle, which yields the publisher
/// back once every sender is dropped — shut the server down first, then
/// drop your own sender, then join to get the store back for clean
/// checkpointing.
///
/// # Panics
///
/// Propagates (via the join handle) the write failures and the
/// publish-ordering assertion of
/// [`Publisher::commit_and_publish`](crate::Publisher::commit_and_publish).
pub fn spawn_writer<H>(
    publisher: Publisher<DurableHealer<H>>,
    queue_depth: usize,
) -> (
    SyncSender<WriteJob>,
    JoinHandle<Publisher<DurableHealer<H>>>,
)
where
    H: Persistable + Send + 'static,
{
    let depth = queue_depth.max(1);
    let (tx, rx) = sync_channel::<WriteJob>(depth);
    let handle = std::thread::Builder::new()
        .name("fg-serve-writer".into())
        .spawn(move || {
            let mut publisher = publisher;
            while let Ok(job) = rx.recv() {
                let mut group = vec![stage(&mut publisher, job)];
                while group.len() < depth {
                    match rx.try_recv() {
                        Ok(job) => group.push(stage(&mut publisher, job)),
                        Err(_) => break,
                    }
                }
                publisher.commit_and_publish();
                for (reply, ack) in group {
                    // fg-lint: allow(swallowed-results): the client hung up before its ack; the write is already durable either way
                    let _ = reply.send(ack);
                }
            }
            publisher
        })
        .expect("spawn writer thread");
    (tx, handle)
}

/// Stages `job` and returns its reply channel with the ack it earns once
/// the group commits: the stamp right after its last event, or the
/// engine error.
fn stage<H: Persistable>(
    publisher: &mut Publisher<DurableHealer<H>>,
    job: WriteJob,
) -> (Sender<Result<WriteAck, String>>, Result<WriteAck, String>) {
    let ack = match publisher.stage(&job.events) {
        Ok(report) => Ok(WriteAck {
            applied: report.outcomes.len(),
            epoch: publisher.healer().epoch(),
            digest: publisher.digest(),
        }),
        Err(e) => Err(e.to_string()),
    };
    (job.reply, ack)
}

//! The read-replica serving node: a [`fg_store::Replica`] ingesting the
//! master's WAL stream, republishing each productive sync round into its
//! own [`SnapshotHub`] so a read-only [`Server`](crate::Server) can
//! answer FGQ1 queries from it.
//!
//! The stamp on every replica-served response is `(epoch,
//! chain_digest)` straight off the replica's digest-certified store —
//! the same fold over the same committed records the master ran, so a
//! client comparing a replica answer's certificate against the master's
//! at the same epoch sees bit-identical values (the replication
//! differential suite asserts exactly this for all seven read ops).
//! Write ops sent to a replica-backed server come back as typed
//! [`NotMaster`](crate::ErrorCode::NotMaster) frames.

use crate::snapshot::{Publication, SnapshotHub};
use fg_core::SelfHealer;
use fg_store::{DurableOptions, Persistable, RecoveryReport, ReplError, ReplProgress, Replica};
use std::net::ToSocketAddrs;
use std::path::Path;
use std::sync::Arc;

/// A replica plus the hub it publishes into. Drive it with
/// [`sync_once`](ReplicaNode::sync_once) (or
/// [`sync_to_caught_up`](ReplicaNode::sync_to_caught_up)) from whatever
/// cadence loop fits; hand [`hub`](ReplicaNode::hub) to a read-only
/// [`Server::bind`](crate::Server::bind).
pub struct ReplicaNode<H: Persistable> {
    replica: Replica<H>,
    publication: Publication,
}

impl<H: Persistable> ReplicaNode<H> {
    /// Bootstraps (or re-opens) a replica store at `dir` from `master`
    /// and publishes its recovered state. See
    /// [`Replica::bootstrap`] for the store-side semantics.
    ///
    /// # Errors
    ///
    /// As [`Replica::bootstrap`].
    pub fn bootstrap(
        master: impl ToSocketAddrs,
        dir: &Path,
        opts: DurableOptions,
    ) -> Result<(ReplicaNode<H>, RecoveryReport), ReplError> {
        let (replica, report) = Replica::bootstrap(master, dir, opts)?;
        let publication = Publication::start(&replica.healer().view(), replica.chain_digest());
        let node = ReplicaNode {
            replica,
            publication,
        };
        Ok((node, report))
    }

    /// The hub a read-only server should serve from.
    pub fn hub(&self) -> Arc<SnapshotHub> {
        self.publication.hub()
    }

    /// The replica's current epoch.
    pub fn epoch(&self) -> u64 {
        self.replica.epoch()
    }

    /// The replica's certificate chain digest.
    pub fn chain_digest(&self) -> u64 {
        self.replica.chain_digest()
    }

    /// The wrapped store-level replica.
    pub fn replica_mut(&mut self) -> &mut Replica<H> {
        &mut self.replica
    }

    /// One fetch/apply round; publishes a fresh snapshot if anything
    /// was applied, so readers see the new epoch the moment it is
    /// locally durable — never before.
    ///
    /// # Errors
    ///
    /// As [`Replica::sync_once`]; nothing is published from a refused
    /// shipment's round.
    pub fn sync_once(&mut self) -> Result<ReplProgress, ReplError> {
        let progress = self.replica.sync_once()?;
        if progress.applied > 0 {
            self.publish();
        }
        Ok(progress)
    }

    /// Syncs until the master reports caught up, publishing once at the
    /// end if anything was applied; returns the total records applied.
    ///
    /// # Errors
    ///
    /// As [`Replica::sync_to_caught_up`].
    pub fn sync_to_caught_up(&mut self) -> Result<usize, ReplError> {
        let applied = self.replica.sync_to_caught_up()?;
        if applied > 0 {
            self.publish();
        }
        Ok(applied)
    }

    /// Publishes the replica's current state, stamped with its
    /// store-certified `(epoch, chain)` certificate.
    fn publish(&mut self) {
        let digest = self.replica.chain_digest();
        self.publication
            .publish(&self.replica.healer().view(), digest);
    }

    /// Re-dials the master after it restarted; the store and published
    /// snapshot are untouched.
    ///
    /// # Errors
    ///
    /// Connection failure.
    pub fn reconnect(&mut self) -> Result<(), ReplError> {
        self.replica.reconnect()
    }
}

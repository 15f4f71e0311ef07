//! The snapshot publication layer: a writer applies event batches
//! through a healer and publishes immutable, epoch-stamped
//! [`ServeSnapshot`]s behind an atomically swapped [`Arc`]; readers pin
//! the latest snapshot for a request's lifetime and old epochs are freed
//! when the last reader releases.
//!
//! This is the decoupling the in-process query API cannot provide:
//! [`fg_core::View`] *borrows* the healer, so no write can run while a
//! read is alive. Here the writer owns the healer exclusively and the
//! readers pin immutable [`FrozenView`]s — stage-then-commit: the writer
//! stages the next snapshot off to the side by advancing the last one
//! it published ([`FrozenView::advance`] shares a CSR whose graph did
//! not change and re-reads only the changed rows of the other), then
//! commits it with one pointer swap. A reader can never observe a torn
//! snapshot because the swap is the *only* shared mutation and it
//! installs a fully built, never-again-mutated value; a CSR two epochs
//! share is never mutated either (see DESIGN.md §13 for the consistency
//! argument).
//!
//! Every snapshot carries its **certificate**: the `(epoch, digest)`
//! pair, where the digest chains every applied outcome's
//! [`ReportDigest`](fg_core::ReportDigest) in order. Two replicas that
//! applied the same committed history answer with the same certificate,
//! which is what makes a served answer checkable against the master's
//! WAL (ROADMAP replication item).

use crate::protocol::{Request, ResponseBody};
use fg_core::{
    BatchReport, EngineError, FrozenView, GraphView, HealOutcome, NetworkEvent, SelfHealer,
};
use fg_store::{chain_fold, DurableHealer, Persistable, CHAIN_BASE};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One immutable published snapshot: a [`FrozenView`] of the healer's
/// state plus the certificate of the history that produced it.
///
/// All query answering on the serving path goes through the frozen
/// view's inherent methods — dense CSR kernels, bit-identical to the
/// live [`QueryOps`](fg_core::QueryOps) path at the same epoch (the
/// loopback differential suites assert this on both backends).
#[derive(Debug)]
pub struct ServeSnapshot {
    /// The structural epoch the snapshot was taken at.
    pub epoch: u64,
    /// The chained outcome digest over the whole applied history: a
    /// fold of each event's [`HealOutcome::digest`] into one FNV-1a
    /// accumulator, in application order. [`BASE_DIGEST`] before any
    /// event.
    pub digest: u64,
    /// The frozen image+ghost CSR pair answering every query op.
    pub view: FrozenView,
}

impl ServeSnapshot {
    /// Answers one protocol *read* request against this snapshot's
    /// frozen view; `None` for the write ops (submit-event /
    /// submit-batch), which no snapshot can answer — the server routes
    /// those to its writer (or a [`NotMaster`](crate::ErrorCode::NotMaster)
    /// frame) before ever consulting a snapshot.
    ///
    /// Exactly the kernels the in-process [`QueryOps`](fg_core::QueryOps)
    /// tier runs, so a served answer at epoch `e` is bit-identical to a
    /// live query at epoch `e` — the property the loopback differential
    /// suites pin down.
    pub fn answer(&self, request: &Request) -> Option<ResponseBody> {
        Some(match *request {
            Request::Epoch => ResponseBody::Epoch,
            Request::Distance(u, v) => ResponseBody::Distance(self.view.distance(u, v)),
            Request::Path(u, v) => ResponseBody::Path(self.view.path(u, v)),
            Request::Stretch(u, v) => ResponseBody::Stretch(self.view.stretch(u, v)),
            Request::Degree(u) => ResponseBody::Degree(self.view.degree(u).map(|d| d as u64)),
            Request::Neighbors(u) => {
                ResponseBody::Neighbors(self.view.alive(u).then(|| self.view.neighbors(u)))
            }
            Request::SameComponent(u, v) => {
                ResponseBody::SameComponent(self.view.same_component(u, v))
            }
            Request::SubmitEvent(_) | Request::SubmitBatch(_) => return None,
        })
    }
}

/// The digest a fresh history starts from — what a snapshot of an
/// untouched healer is stamped with. It is the store's [`CHAIN_BASE`],
/// so served stamps and the WAL's certificate chain agree.
pub const BASE_DIGEST: u64 = CHAIN_BASE;

/// Folds one applied outcome into a chained history digest: the
/// store's [`chain_fold`] of the outcome's digest.
pub fn chain_digest(digest: u64, outcome: &HealOutcome) -> u64 {
    chain_fold(digest, outcome.digest())
}

/// The atomically swapped publication point between one writer and any
/// number of readers.
///
/// Readers call [`pin`](SnapshotHub::pin) to grab the latest snapshot
/// for a request's lifetime; the writer calls
/// [`publish`](SnapshotHub::publish) to swap in a new one. The swap is
/// a pointer store under a short critical section — readers never block
/// behind snapshot construction, and a superseded epoch is dropped the
/// moment its last pinned `Arc` goes away.
#[derive(Debug)]
pub struct SnapshotHub {
    current: RwLock<Arc<ServeSnapshot>>,
    /// The published epoch, readable without touching the lock (the
    /// bench's saturation probes poll this).
    epoch: AtomicU64,
}

impl SnapshotHub {
    /// A hub initially publishing `snapshot`.
    pub fn new(snapshot: ServeSnapshot) -> SnapshotHub {
        let epoch = snapshot.epoch;
        SnapshotHub {
            current: RwLock::new(Arc::new(snapshot)),
            epoch: AtomicU64::new(epoch),
        }
    }

    /// A hub over a healer's current state with a fresh digest chain —
    /// for serving a pre-built network with no applied history.
    pub fn from_healer(healer: &(impl SelfHealer + ?Sized)) -> SnapshotHub {
        let view = healer.view();
        SnapshotHub::new(ServeSnapshot {
            epoch: view.epoch(),
            digest: BASE_DIGEST,
            view: view.freeze(),
        })
    }

    /// Pins the latest published snapshot: the returned [`Arc`] keeps
    /// exactly that epoch alive for as long as the caller holds it,
    /// regardless of how many newer epochs are published meanwhile.
    pub fn pin(&self) -> Arc<ServeSnapshot> {
        // Poison-safe: the lock only guards an Arc pointer swap, which a
        // panicking publisher cannot leave half-done.
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The currently published epoch, lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Atomically replaces the published snapshot. Readers holding pins
    /// to the superseded epoch keep it alive until they release; new
    /// pins see `snapshot`.
    pub fn publish(&self, snapshot: ServeSnapshot) {
        let epoch = snapshot.epoch;
        // Poison-safe: the lock guards one replaceable Arc pointer, which
        // a panic cannot leave half-swapped.
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// A hub plus the snapshot its owner last published into it, which the
/// next publish advances — the publish step of the master and of every
/// replica. The hub's current snapshot cannot stand in for `last`:
/// [`SnapshotHub::publish`] is public, so the hub may hold a snapshot of
/// another history.
pub(crate) struct Publication {
    hub: Arc<SnapshotHub>,
    last: FrozenView,
}

impl Publication {
    /// A fresh hub whose first snapshot is `view`, frozen from scratch
    /// and stamped with `digest`.
    pub(crate) fn start(view: &impl GraphView, digest: u64) -> Publication {
        let last = view.freeze();
        let hub = Arc::new(SnapshotHub::new(ServeSnapshot {
            epoch: last.epoch(),
            digest,
            view: last.clone(),
        }));
        Publication { hub, last }
    }

    pub(crate) fn hub(&self) -> Arc<SnapshotHub> {
        Arc::clone(&self.hub)
    }

    /// Publishes `view` stamped with `digest`, advancing the last
    /// snapshot to it. Debug builds check the result against a fresh
    /// freeze, so every test that publishes cross-checks
    /// [`FrozenView::advance`].
    pub(crate) fn publish(&mut self, view: &impl GraphView, digest: u64) {
        let next = self.last.advance(view);
        debug_assert!(
            next == view.freeze(),
            "advancing the epoch-{} snapshot to epoch {} diverged from a fresh freeze",
            self.last.epoch(),
            view.epoch()
        );
        self.last = next.clone();
        self.hub.publish(ServeSnapshot {
            epoch: view.epoch(),
            digest,
            view: next,
        });
    }
}

/// The writer half: owns a healer exclusively, applies event batches,
/// chains the outcome digests, and publishes one snapshot per batch to
/// a shared [`SnapshotHub`].
///
/// `Publisher` is deliberately synchronous — it is the body a writer
/// *thread* runs (see the server examples and the torture suite), but
/// it is equally usable inline when the caller wants strict control
/// over publish points.
pub struct Publisher<H> {
    healer: H,
    publication: Publication,
    digest: u64,
}

impl<H: SelfHealer> Publisher<H> {
    /// Wraps `healer`, creating a hub that starts at its current state
    /// with a fresh digest chain.
    pub fn new(healer: H) -> Publisher<H> {
        Publisher::resume(healer, BASE_DIGEST)
    }

    /// Wraps `healer` with its history's chain at `digest`, publishing
    /// its current state into a fresh hub.
    fn resume(healer: H, digest: u64) -> Publisher<H> {
        let publication = Publication::start(&healer.view(), digest);
        Publisher {
            healer,
            publication,
            digest,
        }
    }

    /// The hub readers should pin from.
    pub fn hub(&self) -> Arc<SnapshotHub> {
        self.publication.hub()
    }

    /// The chained digest of everything applied so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Read access to the wrapped healer (the differential suites
    /// compare served answers against its live views between batches).
    pub fn healer(&self) -> &H {
        &self.healer
    }

    /// Applies one batch through the healer, folds every outcome into
    /// the digest chain, and publishes the post-batch snapshot.
    ///
    /// # Errors
    ///
    /// The healer's [`EngineError`]. On failure the batch's applied
    /// prefix is still published so readers see exactly the applied
    /// state, but its per-event outcomes are not retrievable post-hoc —
    /// the chain folds an error sentinel instead, deliberately marking
    /// the certificate as diverged from any clean history.
    pub fn apply_and_publish(
        &mut self,
        events: &[NetworkEvent],
    ) -> Result<BatchReport, EngineError> {
        let result = self.healer.apply_batch(events);
        match &result {
            Ok(report) => {
                for outcome in &report.outcomes {
                    self.digest = chain_digest(self.digest, outcome);
                }
            }
            Err(_) => {
                self.digest = chain_fold(self.digest, u64::MAX);
            }
        }
        self.publish();
        result
    }

    /// Publishes the healer's current state under the current digest
    /// chain. Normally [`apply_and_publish`](Publisher::apply_and_publish)
    /// calls this; it is public for writers that reach a publish point
    /// some other way.
    pub fn publish(&mut self) {
        self.publication.publish(&self.healer.view(), self.digest);
    }

    /// Consumes the publisher, returning the healer.
    pub fn into_healer(self) -> H {
        self.healer
    }
}

impl<H: Persistable> Publisher<DurableHealer<H>> {
    /// Wraps a durable healer as the serving write master: the hub
    /// starts at the store's recovered state and the serving digest
    /// chain *resumes from the WAL's committed chain*
    /// ([`DurableHealer::chain_digest`]) — both fold the same rule from
    /// the same base, so a recovered master stamps responses exactly
    /// where its pre-crash acknowledged history left off.
    pub fn from_durable(durable: DurableHealer<H>) -> Publisher<DurableHealer<H>> {
        let digest = durable.chain_digest();
        Publisher::resume(durable, digest)
    }

    /// Stages one write job on the master's write path: applies `events`
    /// through the durable healer, which stages their WAL records
    /// ([`DurableHealer::stage_batch`]), and folds their outcomes into the
    /// serving digest. Nothing is durable or visible to readers until
    /// [`commit_and_publish`](Publisher::commit_and_publish); the writer
    /// stages every queued job before that one commit. The job's own
    /// stamp is the healer's epoch and [`digest`](Publisher::digest) right
    /// after this call.
    ///
    /// Unlike [`Publisher::apply_and_publish`] (whose in-memory healer
    /// has no authoritative chain to fall back on), an engine error
    /// does not fold a divergence sentinel: the WAL chain over the
    /// applied-and-staged prefix *is* the truth, and the serving digest
    /// resynchronizes to it.
    ///
    /// # Errors
    ///
    /// The healer's [`EngineError`]; the applied prefix is staged, and is
    /// durable and published with the rest at the commit.
    pub fn stage(&mut self, events: &[NetworkEvent]) -> Result<BatchReport, EngineError> {
        let result = self.healer.stage_batch(events);
        match &result {
            Ok(report) => {
                for outcome in &report.outcomes {
                    self.digest = chain_digest(self.digest, outcome);
                }
            }
            Err(_) => {
                // The healer staged exactly the applied prefix; its chain
                // is authoritative for what readers may see after the
                // commit.
                self.digest = self.healer.chain_digest();
            }
        }
        result
    }

    /// Commits everything staged since the last commit — one WAL write and
    /// one fsync — and **then** publishes the healer's state. The ordering
    /// is asserted, not just intended: publishing requires the serving
    /// digest to equal the WAL's committed chain digest, so a snapshot
    /// whose epoch is visible to readers is always backed by fsynced WAL
    /// state.
    ///
    /// # Panics
    ///
    /// If the WAL write or fsync fails (acknowledging the staged jobs
    /// would be a lie), or if the serving digest chain disagrees with the
    /// WAL's committed chain — that would mean an epoch was about to be
    /// served that committed history cannot certify.
    pub fn commit_and_publish(&mut self) {
        if let Err(err) = self.healer.sync() {
            panic!("durability write failed — refusing to acknowledge un-logged events: {err}");
        }
        assert_eq!(
            self.digest,
            self.healer.chain_digest(),
            "apply→log→fsync→publish ordering violated: serving digest diverged from \
             the committed WAL chain"
        );
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_core::ForgivingGraph;
    use fg_graph::{generators, NodeId};

    #[test]
    fn pins_keep_superseded_epochs_alive() {
        let fg = ForgivingGraph::from_graph(&generators::cycle(8)).unwrap();
        let mut publisher = Publisher::new(fg);
        let hub = publisher.hub();
        let first = hub.pin();
        assert_eq!(first.epoch, 8);
        assert_eq!(first.digest, BASE_DIGEST);

        let _ = publisher
            .apply_and_publish(&[NetworkEvent::delete(NodeId::new(3))])
            .unwrap();
        let second = hub.pin();
        assert_eq!(second.epoch, 9);
        assert_ne!(second.digest, BASE_DIGEST);
        // The old pin still answers at its own epoch.
        assert_eq!(first.epoch, 8);
        assert!(first.view.alive(NodeId::new(3)));
        assert!(!second.view.alive(NodeId::new(3)));
    }

    #[test]
    fn superseded_pins_keep_their_own_ghost_and_deletes_share_it() {
        // A path 0–…–9 with 5 deleted: the healed image is shorter than
        // G′ between the ends, so the stretch is not 1.
        let fg = ForgivingGraph::from_graph(&generators::path(10)).unwrap();
        let mut publisher = Publisher::new(fg);
        let hub = publisher.hub();
        let (u, v) = (NodeId::new(0), NodeId::new(9));
        let _ = publisher
            .apply_and_publish(&[NetworkEvent::delete(NodeId::new(5))])
            .unwrap();
        let before = hub.pin();
        assert_eq!(before.view.ghost().bidirectional_distance(u, v), Some(9));
        assert_eq!(before.view.stretch(u, v), Some(8.0 / 9.0));

        // A new node bridges the two ends: the new pin's ghost distance
        // shrinks, the old pin keeps its own.
        let _ = publisher
            .apply_and_publish(&[NetworkEvent::insert([u, v])])
            .unwrap();
        let bridged = hub.pin();
        assert_eq!(bridged.view.ghost().bidirectional_distance(u, v), Some(2));
        assert_eq!(bridged.view.stretch(u, v), Some(1.0));
        assert_eq!(before.view.ghost().bidirectional_distance(u, v), Some(9));
        assert_eq!(before.view.stretch(u, v), Some(8.0 / 9.0));

        // A delete leaves G′ alone, so its snapshot shares the ghost.
        let _ = publisher
            .apply_and_publish(&[NetworkEvent::delete(NodeId::new(2))])
            .unwrap();
        let after = hub.pin();
        assert!(std::ptr::eq(bridged.view.ghost(), after.view.ghost()));
        assert!(!std::ptr::eq(before.view.ghost(), bridged.view.ghost()));
        assert_eq!(after.view, publisher.healer().view().freeze());
    }

    #[test]
    fn publishing_with_nothing_applied_shares_both_csrs() {
        let fg = ForgivingGraph::from_graph(&generators::cycle(8)).unwrap();
        let mut publisher = Publisher::new(fg);
        let hub = publisher.hub();
        let _ = publisher
            .apply_and_publish(&[NetworkEvent::delete(NodeId::new(3))])
            .unwrap();
        let before = hub.pin();
        publisher.publish();
        let after = hub.pin();
        assert!(!Arc::ptr_eq(&before, &after));
        assert!(std::ptr::eq(before.view.image(), after.view.image()));
        assert!(std::ptr::eq(before.view.ghost(), after.view.ghost()));
    }

    #[test]
    fn superseded_snapshots_are_freed_when_released() {
        let fg = ForgivingGraph::from_graph(&generators::star(6)).unwrap();
        let mut publisher = Publisher::new(fg);
        let hub = publisher.hub();
        let pinned = hub.pin();
        let weak = Arc::downgrade(&pinned);
        let _ = publisher
            .apply_and_publish(&[NetworkEvent::insert([NodeId::new(1)])])
            .unwrap();
        // Still alive: the reader holds it (the hub no longer does).
        assert!(weak.upgrade().is_some());
        drop(pinned);
        assert!(
            weak.upgrade().is_none(),
            "superseded epoch must drop with its last pin"
        );
    }

    #[test]
    fn digest_chain_is_deterministic_across_equal_histories() {
        let events = [
            NetworkEvent::insert([NodeId::new(0), NodeId::new(2)]),
            NetworkEvent::delete(NodeId::new(1)),
            NetworkEvent::delete(NodeId::new(0)),
        ];
        let run = |batching: &[usize]| {
            let fg = ForgivingGraph::from_graph(&generators::cycle(6)).unwrap();
            let mut publisher = Publisher::new(fg);
            let mut rest: &[NetworkEvent] = &events;
            for &take in batching {
                let (head, tail) = rest.split_at(take);
                let _ = publisher.apply_and_publish(head).unwrap();
                rest = tail;
            }
            (publisher.hub().pin().epoch, publisher.digest())
        };
        // Same history, different batch boundaries: same certificate.
        assert_eq!(run(&[3]), run(&[1, 2]));
        assert_eq!(run(&[3]), run(&[1, 1, 1]));
    }
}

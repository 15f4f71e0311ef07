//! `write-ack`: closed-loop `Client::submit_event` from two submitters
//! to a durable master (`spawn_writer` + `Server::bind_master` over a
//! `DurableHealer` that fsyncs every event). No reads.
//!
//! The traffic follows the churn scenario's generator: each event
//! deletes with probability 1/2, else inserts a node joined to 1–3
//! distinct random neighbours. Every interleaving of the two submitters
//! is legal: each owns a disjoint pool of the snapshot's live nodes,
//! deletes only nodes of its own pool and picks neighbours only among
//! its pool's nodes still alive at that point. Nodes the submitters
//! insert are never reused, because an ack carries only the certificate,
//! not the new node's id; so every second event, on average, uses up one
//! pre-existing node, and the snapshot is sized for that.

use crate::stats::{dir_bytes, Windows};
use crate::{
    layers, sub_seed, timed_setup, warmup_seconds, Config, Corrupt, Report, Rng, TempDir,
    SETUP_REPS,
};
use fg_core::{ForgivingGraph, NetworkEvent, SelfHealer};
use fg_graph::NodeId;
use fg_serve::{chain_digest, Client, Publisher, Server, ServerConfig};
use fg_store::DurableHealer;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const SUBMITTERS: usize = 2;
/// Nodes of each pool that are never deleted, so an insert always finds
/// neighbours (the churn scenario keeps an alive floor the same way).
const FLOOR: usize = 8;
/// The ack rate the victim supply is sized for: three times the rate
/// measured at the resulting snapshot size (about 330 acks/s on
/// 2 vCPUs), so a master up to three times faster still has input for
/// the whole warm-up and measured interval.
const SUPPLY_ACKS_PER_S: f64 = 3.0 * 330.0;
/// Windows the measured interval is split into for medians; each holds
/// enough acks for a p99.
const WINDOWS: usize = 5;
/// Events traced through the in-process write layers.
const SWEEP_EVENTS: usize = 400;

type Durable = DurableHealer<ForgivingGraph>;

/// The churn snapshot's size: initial nodes and trace events. The
/// standard 50k-event trace, on enough initial nodes that the live ones
/// feed [`SUPPLY_ACKS_PER_S`] for the run: half the events delete a
/// distinct pre-existing node, and the trace leaves the live count
/// within a few percent of `n` (15% margin).
fn churn_size(cfg: &Config) -> (usize, usize) {
    if cfg.tiny {
        return (1024, 400);
    }
    let events = SUPPLY_ACKS_PER_S * (cfg.seconds + warmup_seconds(cfg));
    let victims = events / 2.0 * 1.15 + (SUBMITTERS * FLOOR) as f64;
    ((victims as usize).div_ceil(1024) * 1024, 50_000)
}

/// A running durable master: writer thread plus FGQ1 server. Dropping
/// it shuts the server down and joins the writer.
pub struct Master {
    server: Option<Server>,
    writer: Option<JoinHandle<Publisher<Durable>>>,
    pub dir: TempDir,
}

impl Master {
    /// Adopts `state` into a fresh store under `dir` and serves it.
    pub fn start(state: ForgivingGraph, dir: TempDir, readers: usize) -> Master {
        let durable = DurableHealer::create(state, dir.path(), layers::flush_policy())
            .expect("create the master store");
        let publisher = Publisher::from_durable(durable);
        let hub = publisher.hub();
        let (tx, writer) = fg_serve::spawn_writer(publisher, 64);
        let config = ServerConfig {
            readers,
            ..ServerConfig::default()
        };
        let server =
            Server::bind_master(("127.0.0.1", 0), hub, tx, config).expect("bind the master");
        Master {
            server: Some(server),
            writer: Some(writer),
            dir,
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .map(Server::addr)
            .expect("master is serving")
    }

    /// Stops serving and returns the writer's publisher.
    pub fn stop(mut self) -> Option<Publisher<Durable>> {
        self.halt()
    }

    fn halt(&mut self) -> Option<Publisher<Durable>> {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.writer.take().and_then(|w| w.join().ok())
    }
}

impl Drop for Master {
    fn drop(&mut self) {
        self.halt();
    }
}

/// One acknowledged write: its certificate and the event it applied.
#[derive(Debug, Clone)]
pub struct Ack {
    pub epoch: u64,
    pub digest: u64,
    pub event: NetworkEvent,
}

/// One submitter's tally.
#[derive(Debug, Default)]
pub struct WriteTally {
    /// Ack latencies, binned by completion time.
    pub latency: Windows,
    pub acks: Vec<Ack>,
    pub attempted: u64,
    pub failed: u64,
    /// When a submitter ran out of events, if it did.
    pub exhausted: Option<Instant>,
}

impl WriteTally {
    pub fn merge(&mut self, other: WriteTally) {
        self.latency.merge(other.latency);
        self.acks.extend(other.acks);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.exhausted = match (self.exhausted, other.exhausted) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Submits one event and waits for its ack's `(epoch, digest)`.
pub fn submit(client: &mut Client, event: &NetworkEvent) -> Option<(u64, u64)> {
    client
        .submit_event(event.clone())
        .ok()
        .map(|s| (s.epoch, s.digest))
}

/// Each submitter's event list, drawn like the churn scenario's trace
/// on the submitter's own pool (see the module doc). A pool's nodes are
/// deleted in pool order, so its live nodes are always a suffix; the
/// list ends when [`FLOOR`] of them remain.
fn submitter_events(base: &ForgivingGraph, seed: u64) -> Vec<Vec<NetworkEvent>> {
    let mut rng = Rng::new(sub_seed(seed, 2));
    let mut alive: Vec<NodeId> = base.image().iter().collect();
    rng.shuffle(&mut alive);
    let share = alive.len() / SUBMITTERS;
    (0..SUBMITTERS)
        .map(|s| {
            let pool = &alive[s * share..(s + 1) * share];
            let mut events = Vec::new();
            let mut deleted = 0;
            while pool.len() - deleted > FLOOR {
                if rng.below(2) == 0 {
                    events.push(NetworkEvent::delete(pool[deleted]));
                    deleted += 1;
                    continue;
                }
                let live = &pool[deleted..];
                let k = 1 + rng.below(3);
                let mut picks: Vec<NodeId> = Vec::with_capacity(k);
                while picks.len() < k {
                    let a = live[rng.below(live.len())];
                    if !picks.contains(&a) {
                        picks.push(a);
                    }
                }
                events.push(NetworkEvent::insert(picks));
            }
            events
        })
        .collect()
}

/// Closed-loop submitters, each resuming its own event list at its
/// cursor, until `seconds` pass or the events run out.
fn load(
    addr: SocketAddr,
    lists: &[Vec<NetworkEvent>],
    cursors: &mut [usize],
    seconds: f64,
) -> WriteTally {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let tallies: Vec<WriteTally> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .zip(cursors.iter_mut())
            .map(|(events, cursor)| {
                s.spawn(move || {
                    let mut tally = WriteTally {
                        latency: Windows::new(started, seconds, WINDOWS),
                        ..WriteTally::default()
                    };
                    let Ok(mut client) = Client::connect(addr) else {
                        tally.attempted = 1;
                        tally.failed = 1;
                        return tally;
                    };
                    while *cursor < events.len() && Instant::now() < deadline {
                        let event = &events[*cursor];
                        *cursor += 1;
                        tally.attempted += 1;
                        let sent = Instant::now();
                        let acked = submit(&mut client, event);
                        let now = Instant::now();
                        tally.latency.record(now, now - sent);
                        match acked {
                            Some((epoch, digest)) => tally.acks.push(Ack {
                                epoch,
                                digest,
                                event: event.clone(),
                            }),
                            None => tally.failed += 1,
                        }
                    }
                    if *cursor >= events.len() {
                        tally.exhausted = Some(Instant::now());
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    let mut all = WriteTally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// The write-ack gate: sort acks by epoch (one epoch per event), check
/// the epochs are contiguous from the base, replay the events through
/// an in-memory `Publisher` over `base`, and compare every ack digest
/// with the chained digest after that event. Returns the mismatches and
/// the replayed events in epoch order.
pub fn verify_acks(
    base: &ForgivingGraph,
    acks: &mut [Ack],
    corrupt: Option<Corrupt>,
    report: &mut Report,
) -> (u64, Vec<NetworkEvent>) {
    acks.sort_by_key(|a| a.epoch);
    if let (Some(Corrupt::Stamp | Corrupt::Answer), Some(first)) = (corrupt, acks.first_mut()) {
        first.digest ^= 1;
    }
    let base_epoch = base.epoch();
    let mut bad = 0u64;
    for (i, ack) in acks.iter().enumerate() {
        if ack.epoch != base_epoch + 1 + i as u64 {
            report.problem(format!(
                "ack #{i} has epoch {}, expected {}",
                ack.epoch,
                base_epoch + 1 + i as u64
            ));
            return (acks.len() as u64, Vec::new());
        }
    }
    let events: Vec<NetworkEvent> = acks.iter().map(|a| a.event.clone()).collect();
    let mut twin = Publisher::new(base.clone());
    let Ok(replayed) = twin.apply_and_publish(&events) else {
        report.problem("acknowledged events do not replay in epoch order");
        return (acks.len() as u64, events);
    };
    let mut digest = fg_serve::BASE_DIGEST;
    for (ack, outcome) in acks.iter().zip(&replayed.outcomes) {
        digest = chain_digest(digest, outcome);
        if ack.digest != digest {
            bad += 1;
            report.problem(format!(
                "ack at epoch {} carries digest {:016x}, replay gives {digest:016x}",
                ack.epoch, ack.digest
            ));
        }
    }
    if twin.digest() != digest {
        report.problem("publisher chain disagrees with the folded outcomes");
        bad += 1;
    }
    (bad, events)
}

/// Builds the churn snapshot in memory.
pub fn churn_state(initial: &fg_graph::Graph, events: &[NetworkEvent]) -> ForgivingGraph {
    let mut fg = ForgivingGraph::from_graph(initial).expect("churn G0 is tombstone-free");
    for chunk in events.chunks(256) {
        let _ = fg.apply_batch(chunk).expect("scenario traces are legal");
    }
    fg
}

pub fn note_snapshot(base: &ForgivingGraph, report: &mut Report) {
    report.note("nodes_ever", base.ghost().nodes_ever());
    report.note("alive", base.image().node_count());
    report.note("ghost_edges", base.ghost().edge_count());
    report.note(
        "flush_policy",
        "DurableHealer sync_every=1 (fsync per event), checkpoint_every=none",
    );
}

pub fn run(cfg: &Config, report: &mut Report) {
    let (n, events) = churn_size(cfg);
    let ((master, base), setup_s) = timed_setup(SETUP_REPS, |rep| {
        let sc = fg_bench::scenario("churn", n, events, crate::SNAPSHOT_SEED);
        let base = churn_state(&sc.initial, &sc.events);
        let dir = TempDir::new(&cfg.scratch, &format!("write-ack-master-{rep}"));
        (Master::start(base.clone(), dir, SUBMITTERS), base)
    });
    report.metric("setup_s", setup_s, "s");
    report.note("nodes_initial", n);
    note_snapshot(&base, report);
    let lists = submitter_events(&base, cfg.seed);
    let available = lists.iter().map(Vec::len).sum::<usize>();
    let deletes = lists.iter().flatten().filter(|e| e.is_delete()).count();
    report.note(
        "load",
        format!(
            "{SUBMITTERS} closed-loop submitters, churn mix: {deletes} deletes of {available} events"
        ),
    );

    let addr = master.addr();
    let wal_before = dir_bytes(master.dir.path());
    let mut cursors = vec![0usize; SUBMITTERS];
    let warm = load(addr, &lists, &mut cursors, warmup_seconds(cfg));
    let mut tally = load(addr, &lists, &mut cursors, cfg.seconds);
    if let Some(at) = tally.exhausted {
        // Count only the windows before the input ran out, so a faster
        // master is never scored on idle time.
        tally.latency.keep_until(at);
        report.note(
            "victims_exhausted",
            "yes: windows after that point are not counted",
        );
    }
    report.metric("ops_per_s", tally.latency.rate(), "1/s");
    report.metric("op_p50_us", tally.latency.quantile_us(0.50), "us");
    report.metric("op_p90_us", tally.latency.quantile_us(0.90), "us");
    report.note("p99_us", tally.latency.quantile_us(0.99));
    report.note("ack_samples", tally.latency.len());
    let ack_mean_ns = tally.latency.mean_ns();
    tally.merge(warm);
    report.note("events_available", available);
    report.note("events_used", tally.attempted);
    report.note(
        "supply_headroom",
        format!(
            "{:.2}x the events this run used",
            available as f64 / tally.attempted.max(1) as f64
        ),
    );
    let acked = tally.acks.len() as f64;
    let wal_after = dir_bytes(master.dir.path());
    report.metric(
        "store.wal_bytes_per_event",
        (wal_after.saturating_sub(wal_before)) as f64 / acked.max(1.0),
        "bytes",
    );
    let last = tally
        .acks
        .iter()
        .max_by_key(|a| a.epoch)
        .map(|a| (a.epoch, a.digest));
    let publisher = master.stop();

    let (bad, replayed) = verify_acks(&base, &mut tally.acks, cfg.corrupt, report);
    if let (Some(publisher), Some((epoch, digest))) = (publisher, last) {
        if publisher.hub().epoch() != epoch || publisher.digest() != digest {
            report.problem("the master's final certificate is not its last ack's");
        }
    } else if last.is_some() {
        report.problem("the master's writer thread did not shut down cleanly");
    }
    if cfg.trace {
        // The layers are timed after the load, replaying what it acked,
        // so the load itself carries no tracing.
        sweep(cfg, &base, &replayed, ack_mean_ns, report);
    }
    report.attempted = tally.attempted;
    report.failed = tally.failed + bad;
}

/// The traced run's in-process write-layer sweep, and the residual of
/// the ack that the layers do not explain (the writer-queue wait).
fn sweep(
    cfg: &Config,
    base: &ForgivingGraph,
    replayed: &[NetworkEvent],
    ack_mean_ns: f64,
    report: &mut Report,
) {
    let dir = TempDir::new(&cfg.scratch, "write-ack-sweep");
    let events = &replayed[..replayed.len().min(SWEEP_EVENTS)];
    let service_ns = layers::write_sweep(base, events, dir.path(), report);
    report.metric("write.residual_us", (ack_mean_ns - service_ns) / 1e3, "us");
    report.metric(
        "write.coverage",
        if ack_mean_ns > 0.0 {
            service_ns / ack_mean_ns
        } else {
            0.0
        },
        "ratio",
    );
}

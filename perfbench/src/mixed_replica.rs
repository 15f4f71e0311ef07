//! `mixed-replica`: open-loop writes to a durable master at a fixed
//! rate, a follower that pulls the master's WAL into a `ReplicaNode` as
//! soon as it learns of each ack, and closed-loop pipelined reads
//! against a read-only server on the replica's hub.

use crate::reads::{self, ReadTally};
use crate::stats::{dir_bytes, Samples};
use crate::write_ack::{self, Ack, Master};
use crate::{
    layers, read_serve, timed_setup, warmup_seconds, Config, Corrupt, Report, TempDir, SETUP_REPS,
};
use fg_bench::{answer_api, answers_agree, Query};
use fg_core::{ForgivingGraph, GraphView, NetworkEvent, SelfHealer};
use fg_serve::{Client, ReplicaNode, Server, ServerConfig, SnapshotHub};
use fg_store::ReplListener;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop write rate (events per second), well below write-ack
/// saturation.
pub const WRITE_RATE: f64 = 200.0;
/// Reads in flight on the one reader connection.
pub const DEPTH: usize = 16;

struct Stack {
    // Field order is drop order: stop serving, close the replica's
    // stream, stop shipping, then stop the master.
    server: Server,
    node: ReplicaNode<ForgivingGraph>,
    listener: ReplListener,
    master: Master,
    _replica_dir: TempDir,
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    reads: ReadTally,
    acks: Vec<Ack>,
    due: Samples,
    late: Samples,
    lag: Samples,
    write_attempted: u64,
    write_failed: u64,
    sync: Samples,
    sync_records: u64,
    sync_productive: u64,
    lag_window_ns: f64,
    pin: Samples,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.reads.merge(other.reads);
        self.acks.extend(other.acks);
        self.write_attempted += other.write_attempted;
        self.write_failed += other.write_failed;
    }
}

/// The single writer: submit `tail[from..]` on schedule until the
/// deadline, telling the follower about each ack.
fn generate(
    addr: std::net::SocketAddr,
    tail: &[NetworkEvent],
    from: &mut usize,
    started: Instant,
    deadline: Instant,
    acked: std::sync::mpsc::Sender<(u64, Instant)>,
    phase: &mut Phase,
) {
    let Ok(mut client) = Client::connect(addr) else {
        phase.write_attempted += 1;
        phase.write_failed += 1;
        return;
    };
    for (i, event) in tail[*from..].iter().enumerate() {
        let due = started + Duration::from_secs_f64(i as f64 / WRITE_RATE);
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        phase
            .late
            .push(Instant::now().saturating_duration_since(due));
        *from += 1;
        phase.write_attempted += 1;
        match write_ack::submit(&mut client, event) {
            Some((epoch, digest)) => {
                let at = Instant::now();
                phase.due.push(at - due);
                phase.acks.push(Ack {
                    epoch,
                    digest,
                    event: event.clone(),
                });
                if acked.send((epoch, at)).is_err() {
                    break;
                }
            }
            None => phase.write_failed += 1,
        }
    }
}

/// The follower: on each ack, sync the replica until its hub shows the
/// acked epoch; lag runs from the ack's arrival to that moment.
fn follow(
    node: &mut ReplicaNode<ForgivingGraph>,
    acks: &Receiver<(u64, Instant)>,
    phase: &mut Phase,
) {
    let hub = node.hub();
    while let Ok(first) = acks.recv() {
        let mut pending = vec![first];
        pending.extend(acks.try_iter());
        let target = pending.iter().map(|&(e, _)| e).max().unwrap_or(0);
        while hub.epoch() < target {
            let started = Instant::now();
            match node.sync_once() {
                Ok(progress) => {
                    phase.sync.push(started.elapsed());
                    if progress.applied > 0 {
                        phase.sync_records += progress.applied as u64;
                        phase.sync_productive += 1;
                    }
                }
                Err(_) => {
                    phase.write_failed += 1;
                    return;
                }
            }
        }
        let reached = Instant::now();
        for &(_, at) in &pending {
            phase.lag.push(reached.saturating_duration_since(at));
        }
        let earliest = pending.iter().map(|&(_, at)| at).min().unwrap_or(reached);
        phase.lag_window_ns += reached.saturating_duration_since(earliest).as_nanos() as f64;
    }
}

/// Samples `SnapshotHub::pin` on the replica hub while it republishes.
fn probe_pins(hub: &SnapshotHub, deadline: Instant, pins: &mut Samples) {
    while Instant::now() < deadline {
        let started = Instant::now();
        std::hint::black_box(hub.pin());
        pins.push(started.elapsed());
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// One measured phase: writer, follower and reader (plus, traced, the
/// pin probe) run together for `seconds`.
fn phase(
    stack: &mut Stack,
    tail: &[NetworkEvent],
    from: &mut usize,
    pool: &[Query],
    seconds: f64,
    traced: bool,
) -> Phase {
    let master_addr = stack.master.addr();
    let replica_addr = stack.server.addr();
    let hub: Arc<SnapshotHub> = stack.node.hub();
    let node = &mut stack.node;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (tx, rx) = channel();
    let mut writes = Phase::default();
    let mut follower = Phase::default();
    let mut pins = Samples::new();
    let reads = std::thread::scope(|s| {
        let window = (started, seconds, read_serve::WINDOWS);
        let reader = s.spawn(move || reads::closed_loop(replica_addr, pool, DEPTH, window));
        let prober = traced.then(|| s.spawn(|| probe_pins(&hub, deadline, &mut pins)));
        let tally = &mut follower;
        let follower_thread = s.spawn(move || follow(node, &rx, tally));
        generate(master_addr, tail, from, started, deadline, tx, &mut writes);
        follower_thread.join().expect("follower thread");
        if let Some(p) = prober {
            p.join().expect("pin probe thread");
        }
        reader.join().expect("reader thread")
    });
    Phase {
        reads,
        lag: follower.lag,
        sync: follower.sync,
        sync_records: follower.sync_records,
        sync_productive: follower.sync_productive,
        lag_window_ns: follower.lag_window_ns,
        write_failed: writes.write_failed + follower.write_failed,
        pin: pins,
        ..writes
    }
}

pub fn run(cfg: &Config, report: &mut Report) {
    let (n, events) = read_serve::churn_size(cfg.tiny);
    let extra = (WRITE_RATE * cfg.seconds * 1.2) as usize + 64;
    let ((mut stack, base, sc), setup_s) = timed_setup(SETUP_REPS, |rep| {
        let sc = fg_bench::scenario("churn", n, events + extra, crate::SNAPSHOT_SEED);
        let base = write_ack::churn_state(&sc.initial, &sc.events[..events]);
        let dir = TempDir::new(&cfg.scratch, &format!("mixed-master-{rep}"));
        let master = Master::start(base.clone(), dir, 1);
        let listener =
            ReplListener::bind("127.0.0.1:0", master.dir.path()).expect("bind the FGR1 port");
        let replica_dir = TempDir::new(&cfg.scratch, &format!("mixed-replica-{rep}"));
        let (node, _) = ReplicaNode::bootstrap(
            listener.local_addr(),
            replica_dir.path(),
            layers::flush_policy(),
        )
        .expect("bootstrap the replica");
        let config = ServerConfig {
            readers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind(("127.0.0.1", 0), node.hub(), config).expect("bind the replica");
        let stack = Stack {
            server,
            node,
            listener,
            master,
            _replica_dir: replica_dir,
        };
        (stack, base, sc)
    });
    let tail = &sc.events[events..];
    report.metric("setup_s", setup_s, "s");
    write_ack::note_snapshot(&base, report);
    report.note(
        "load",
        format!("open-loop writes at {WRITE_RATE}/s, 1 reader x depth {DEPTH} on the replica"),
    );

    let pool = read_serve::query_pools(base.image(), cfg.seed, 1, 4096).remove(0);
    let wal_before = dir_bytes(stack.master.dir.path());
    let mut from = 0usize;
    let measure = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let warm = phase(
        &mut stack,
        tail,
        &mut from,
        &pool,
        warmup_seconds(cfg),
        false,
    );
    let mut all = phase(&mut stack, tail, &mut from, &pool, measure, false);
    read_serve::read_metrics(&mut all.reads, report);
    report.metric("write.due_p50_us", all.due.p50_us(), "us");
    report.metric("write.due_p99_us", all.due.p99_us(), "us");
    report.metric("repl.lag_p50_us", all.lag.p50_us(), "us");
    report.metric("repl.lag_p99_us", all.lag.p99_us(), "us");
    report.metric("gen.late_p99_us", all.late.p99_us(), "us");
    report.note("write_samples", all.due.len());
    report.note("lag_samples", all.lag.len());
    all.merge(warm);

    if cfg.trace {
        let mut traced = phase(&mut stack, tail, &mut from, &pool, measure, true);
        let mut traced_report = Report::default();
        read_serve::read_metrics(&mut traced.reads, &mut traced_report);
        overhead(report, &traced_report);
        report.metric("snapshot.pin_ns", traced.pin.mean_ns(), "ns");
        report.metric("repl.sync_us", traced.sync.mean_ns() / 1e3, "us");
        report.metric(
            "repl.records_per_sync",
            traced.sync_records as f64 / traced.sync_productive.max(1) as f64,
            "count",
        );
        report.metric(
            "repl.coverage",
            if traced.lag_window_ns > 0.0 {
                traced.sync.sum_ns() / traced.lag_window_ns
            } else {
                0.0
            },
            "ratio",
        );
        let acked = (all.acks.len() + traced.acks.len()).max(1) as f64;
        let shipped = dir_bytes(stack.master.dir.path()).saturating_sub(wal_before);
        report.metric("repl.bytes_per_record", shipped as f64 / acked, "bytes");
        report.metric(
            "replica.freeze_us",
            layers::freeze_us(stack.node.replica_mut().healer(), 20),
            "us",
        );
        all.merge(traced);
    }

    verify(cfg, &mut stack, &base, &mut all, report);
    let Stack {
        server,
        node,
        listener,
        master,
        _replica_dir,
    } = stack;
    drop(server);
    drop(node);
    drop(listener);
    if let Some(publisher) = master.stop() {
        if cfg.trace {
            report.metric(
                "snapshot.freeze_us",
                layers::freeze_us(publisher.healer(), 20),
                "us",
            );
        }
    }
}

/// The gate: acks chain from the base certificate, the replica ends on
/// the master's last certificate, every read stamp names a certified
/// epoch, and spot-checked answers equal an in-process replay's at the
/// stamped epoch.
fn verify(
    cfg: &Config,
    stack: &mut Stack,
    base: &ForgivingGraph,
    all: &mut Phase,
    report: &mut Report,
) {
    let (bad_acks, replayed) = write_ack::verify_acks(base, &mut all.acks, None, report);
    let mut certs: BTreeMap<u64, u64> = BTreeMap::new();
    certs.insert(base.epoch(), fg_serve::BASE_DIGEST);
    for ack in &all.acks {
        certs.insert(ack.epoch, ack.digest);
    }
    if let Some(last) = all.acks.last() {
        if stack.node.epoch() != last.epoch || stack.node.chain_digest() != last.digest {
            report.problem(format!(
                "replica ends at ({}, {:016x}), master's last ack is ({}, {:016x})",
                stack.node.epoch(),
                stack.node.chain_digest(),
                last.epoch,
                last.digest
            ));
        }
    }
    let bad_stamps = reads::check_stamps(
        &all.reads,
        &certs,
        cfg.corrupt.filter(|c| *c == Corrupt::Stamp),
        report,
    );

    // Replay the acked history and check each kept answer at its epoch.
    let mut spots = all.reads.spots.clone();
    spots.sort_by_key(|s| s.epoch);
    if cfg.corrupt == Some(Corrupt::Answer) {
        if let Some(first) = spots.first_mut() {
            first.answer = read_serve::corrupt_answer(first.answer.clone());
        }
    }
    let mut twin = base.clone();
    let mut next = replayed.iter();
    let mut bad_answers = 0u64;
    for spot in &spots {
        while twin.epoch() < spot.epoch {
            let Some(event) = next.next() else { break };
            if twin.apply_batch(std::slice::from_ref(event)).is_err() {
                break;
            }
        }
        let view = twin.view();
        let local = answer_api(&view, &spot.query);
        if twin.epoch() != spot.epoch
            || !answers_agree(&spot.query, &spot.answer, &local, view.image())
        {
            bad_answers += 1;
            report.problem(format!(
                "replica served {:?} for {:?} at epoch {}, replay gives {local:?}",
                spot.answer, spot.query, spot.epoch
            ));
        }
    }
    report.note("spot_checked", spots.len());
    report.attempted = all.reads.attempted + all.write_attempted;
    report.failed = all.reads.failed + all.write_failed + bad_acks + bad_stamps + bad_answers;
}

/// The pin probe's cost on the load: the traced half against the
/// untraced half.
fn overhead(untraced: &mut Report, traced: &Report) {
    let get = |r: &Report, name| r.value(name).unwrap_or(0.0);
    let (ops, ops_t) = (get(untraced, "ops_per_s"), get(traced, "ops_per_s"));
    let (p50, p50_t) = (get(untraced, "op_p50_us"), get(traced, "op_p50_us"));
    untraced.metric(
        "trace.overhead_ops_frac",
        if ops > 0.0 { 1.0 - ops_t / ops } else { 0.0 },
        "ratio",
    );
    untraced.metric(
        "trace.overhead_p50_frac",
        if p50 > 0.0 { p50_t / p50 - 1.0 } else { 0.0 },
        "ratio",
    );
}

//! In-process layer sweeps for the traced runs: each layer's public
//! entry point is called on its own, from outside, on the same inputs
//! the workload sends, so its share of the end-to-end path can be read
//! off directly.

use crate::reads::request_of;
use crate::stats::Samples;
use crate::Report;
use fg_bench::{Query, QueryKind};
use fg_core::{ForgivingGraph, GraphView, NetworkEvent, SelfHealer};
use fg_graph::FrozenCsr;
use fg_serve::protocol::{parse_frame_header, verify_frame};
use fg_serve::{Client, Request, Response, ServeSnapshot, SnapshotHub};
use fg_store::{DurableHealer, DurableOptions};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

/// The flush policy every durable store in the benchmark runs with:
/// fsync on every event, never checkpoint on its own.
pub fn flush_policy() -> DurableOptions {
    DurableOptions {
        checkpoint_every: None,
        sync_every: 1,
    }
}

/// Mean nanoseconds per item of one timed pass over `items`.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    for item in items {
        f(item);
    }
    started.elapsed().as_nanos() as f64 / items.len() as f64
}

/// Times the read path's layers one at a time over `queries`: request
/// encode, request decode (CRC check + parse), `SnapshotHub::pin`,
/// `ServeSnapshot::answer` per op kind, response encode and response
/// decode. Returns the mean in-process nanoseconds per read (the sum
/// of the layers, weighted by the query mix).
pub fn read_sweep(hub: &SnapshotHub, queries: &[Query], report: &mut Report) -> f64 {
    let requests: Vec<Request> = queries.iter().map(request_of).collect();
    let frames: Vec<Vec<u8>> = requests.iter().map(|r| r.to_frame(7)).collect();
    let req_encode = per_item_ns(&requests, |r| {
        black_box(r.to_frame(7));
    });
    let req_decode = per_item_ns(&frames, |f| {
        let mut header = [0u8; 8];
        header.copy_from_slice(&f[..8]);
        let parsed = parse_frame_header(header)
            .and_then(|(_, crc)| verify_frame(&f[8..], crc))
            .map(|()| Request::parse(&f[8..]));
        black_box(parsed.is_ok());
    });
    let pin = per_item_ns(&requests, |_| {
        black_box(hub.pin());
    });
    let snapshot = hub.pin();
    let mut kernel_total = 0.0;
    for (kind, name) in [
        (QueryKind::Distance, "kernel.dist_ns"),
        (QueryKind::Path, "kernel.path_ns"),
        (QueryKind::Stretch, "kernel.stretch_ns"),
        (QueryKind::Degree, "kernel.degree_ns"),
        (QueryKind::Component, "kernel.comp_ns"),
    ] {
        let of_kind: Vec<&Request> = queries
            .iter()
            .zip(&requests)
            .filter(|(q, _)| q.kind == kind)
            .map(|(_, r)| r)
            .collect();
        let ns = per_item_ns(&of_kind, |r| {
            black_box(snapshot.answer(r));
        });
        kernel_total += ns * of_kind.len() as f64;
        report.metric(name, ns, "ns");
    }
    let bodies: Vec<_> = requests.iter().filter_map(|r| snapshot.answer(r)).collect();
    let resp_encode = per_item_ns(&bodies, |b| {
        black_box(Response::ok_frame(7, snapshot.epoch, snapshot.digest, b));
    });
    let responses: Vec<Vec<u8>> = bodies
        .iter()
        .map(|b| Response::ok_frame(7, snapshot.epoch, snapshot.digest, b))
        .collect();
    let resp_decode = per_item_ns(&responses, |f| {
        let mut header = [0u8; 8];
        header.copy_from_slice(&f[..8]);
        let parsed = parse_frame_header(header)
            .and_then(|(_, crc)| verify_frame(&f[8..], crc))
            .map(|()| Response::parse(&f[8..]));
        black_box(parsed.is_ok());
    });
    let bytes: usize = frames.iter().chain(&responses).map(Vec::len).sum();
    report.metric("protocol.req_encode_ns", req_encode, "ns");
    report.metric("protocol.req_decode_ns", req_decode, "ns");
    report.metric("protocol.resp_encode_ns", resp_encode, "ns");
    report.metric("protocol.resp_decode_ns", resp_decode, "ns");
    report.metric(
        "protocol.bytes_per_read",
        bytes as f64 / queries.len().max(1) as f64,
        "bytes",
    );
    report.metric("snapshot.pin_ns", pin, "ns");
    req_encode
        + req_decode
        + pin
        + kernel_total / queries.len().max(1) as f64
        + resp_encode
        + resp_decode
}

/// Depth-1 round trips on one connection: the unloaded served read.
/// Reports what the in-process layers do not explain.
pub fn read_residual(addr: SocketAddr, queries: &[Query], layer_ns: f64, report: &mut Report) {
    let Ok(mut client) = Client::connect(addr) else {
        report.problem("depth-1 probe could not connect");
        return;
    };
    let mut rtt = Samples::new();
    for q in queries {
        let started = Instant::now();
        if client.roundtrip(&request_of(q)).is_err() {
            report.problem("depth-1 probe round trip failed");
            return;
        }
        rtt.push(started.elapsed());
    }
    let mean = rtt.mean_ns();
    report.metric("server.read_residual_us", (mean - layer_ns) / 1e3, "us");
    report.metric(
        "read.coverage",
        if mean > 0.0 { layer_ns / mean } else { 0.0 },
        "ratio",
    );
}

/// Replays `events` one at a time from `base` through each write-path
/// layer on its own: the engine (on a profiled in-memory twin), the
/// durable healer (apply + WAL append + fsync), the two CSR freezes, the
/// full `View::freeze`, and `SnapshotHub::publish`. Returns the mean
/// in-process service time per event in nanoseconds.
pub fn write_sweep(
    base: &ForgivingGraph,
    events: &[NetworkEvent],
    dir: &Path,
    report: &mut Report,
) -> f64 {
    let mut twin = base.clone();
    twin.enable_profiling();
    let mut durable = match DurableHealer::create(base.clone(), dir, flush_policy()) {
        Ok(durable) => durable,
        Err(e) => {
            report.problem(format!("write sweep could not create its store: {e}"));
            return 0.0;
        }
    };
    let hub = SnapshotHub::from_healer(&twin);
    let (mut engine, mut logged, mut image, mut ghost, mut freeze, mut publish) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    for event in events {
        let one = std::slice::from_ref(event);
        let started = Instant::now();
        let applied = twin.apply_batch(one);
        engine.push(started.elapsed());
        let started = Instant::now();
        let durably = durable.apply_batch(one);
        logged.push(started.elapsed());
        if applied.is_err() || durably.is_err() {
            report.problem("write sweep: an acknowledged event failed to replay");
            return 0.0;
        }
        let view = durable.view();
        let started = Instant::now();
        black_box(FrozenCsr::from_graph(view.image()));
        image.push(started.elapsed());
        let started = Instant::now();
        black_box(FrozenCsr::from_graph(view.ghost()));
        ghost.push(started.elapsed());
        let started = Instant::now();
        let frozen = view.freeze();
        freeze.push(started.elapsed());
        let snapshot = ServeSnapshot {
            epoch: frozen.epoch(),
            digest: durable.chain_digest(),
            view: frozen,
        };
        let started = Instant::now();
        hub.publish(snapshot);
        publish.push(started.elapsed());
    }
    engine_metrics(&twin, engine.sum_ns() / 1e9, events.len(), report);
    report.metric(
        "store.log_fsync_us",
        (logged.mean_ns() - engine.mean_ns()) / 1e3,
        "us",
    );
    report.metric("snapshot.freeze_image_us", image.mean_ns() / 1e3, "us");
    report.metric("snapshot.freeze_ghost_us", ghost.mean_ns() / 1e3, "us");
    report.metric("snapshot.freeze_us", freeze.mean_ns() / 1e3, "us");
    report.metric("snapshot.publish_us", publish.mean_ns() / 1e3, "us");
    logged.mean_ns() + freeze.mean_ns() + publish.mean_ns()
}

/// `engine.apply_us`, the profiler's phase totals and their coverage of
/// the timed applies.
pub fn engine_metrics(profiled: &ForgivingGraph, total_s: f64, events: usize, report: &mut Report) {
    report.metric(
        "engine.apply_us",
        total_s * 1e6 / events.max(1) as f64,
        "us",
    );
    let Some(phases) = profiled.phase_times() else {
        return;
    };
    report.metric("engine.phase.insert_s", phases.insert, "s");
    report.metric("engine.phase.gather_s", phases.gather, "s");
    report.metric("engine.phase.strip_s", phases.strip, "s");
    report.metric("engine.phase.plan_s", phases.plan, "s");
    report.metric("engine.phase.merge_s", phases.merge, "s");
    report.metric(
        "engine.coverage",
        if total_s > 0.0 {
            phases.total() / total_s
        } else {
            0.0
        },
        "ratio",
    );
}

/// Mean microseconds of `View::freeze` on `healer`, over `reps` calls.
pub fn freeze_us(healer: &impl SelfHealer, reps: usize) -> f64 {
    let mut samples = Samples::new();
    for _ in 0..reps {
        let started = Instant::now();
        black_box(healer.view().freeze());
        samples.push(started.elapsed());
    }
    samples.mean_ns() / 1e3
}

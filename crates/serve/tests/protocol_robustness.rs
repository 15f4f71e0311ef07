//! Protocol robustness: the server must survive any byte stream a
//! client can throw at it — truncations at every byte boundary,
//! bit-flipped CRCs, oversized length prefixes, garbage payloads, and
//! abrupt mid-request disconnects — by answering a typed error frame
//! (or closing cleanly), never by panicking or wedging. After every
//! attack the same server must still answer a well-formed request.

use fg_core::{ForgivingGraph, NetworkEvent};
use fg_graph::generators;
use fg_graph::NodeId;
use fg_serve::protocol::{frame, parse_frame_header, verify_frame, MAX_FRAME_PAYLOAD};
use fg_serve::{
    Client, ErrorCode, Publisher, Request, Response, ServeError, Server, ServerConfig, SnapshotHub,
};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// A small served snapshot plus the certificate every response must carry.
fn fixture() -> (Server, SocketAddr, u64, u64) {
    let engine = ForgivingGraph::from_graph(&generators::star(9)).expect("fresh G0");
    let publisher = Publisher::new(engine);
    let hub: Arc<SnapshotHub> = publisher.hub();
    let (epoch, digest) = (hub.epoch(), publisher.digest());
    let server = Server::bind(("127.0.0.1", 0), hub, ServerConfig::default()).expect("bind");
    let addr = server.addr();
    (server, addr, epoch, digest)
}

/// Proof of life: a fresh well-formed round trip against `addr` still
/// answers correctly — the definition of "the attack did not wedge the
/// server".
fn assert_still_serving(addr: SocketAddr, epoch: u64, digest: u64) {
    let mut client = Client::connect(addr).expect("server must keep accepting");
    let stamped = client
        .distance(NodeId::new(1), NodeId::new(2))
        .expect("server must keep answering");
    assert_eq!(stamped.epoch, epoch);
    assert_eq!(stamped.digest, digest);
    assert_eq!(stamped.value, Some(2), "star leaves are 2 apart");
}

/// Writes `bytes` raw, half-closes the write side, and drains whatever
/// the server sends back, parsed frame by frame. Returns the error
/// codes of any error frames received before the server closed the
/// connection. Panics if the server neither answers nor closes within
/// the read timeout — a wedged reader thread.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<ErrorCode> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // The peer may already have responded and closed; a send error then
    // is the broken-pipe echo of that, not a failure of the test.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut codes = Vec::new();
    loop {
        let mut header = [0u8; 8];
        match stream.read_exact(&mut header) {
            Ok(()) => {}
            Err(_) => return codes, // clean close (or half a header)
        }
        let (len, crc) = parse_frame_header(header).expect("server frames its own responses");
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload).expect("whole response");
        verify_frame(&payload, crc).expect("server responses carry valid CRCs");
        let response = Response::parse(&payload).expect("server responses parse");
        match response.body {
            Ok(_) => {}
            Err((code, _)) => codes.push(code),
        }
    }
}

/// One well-formed frame for every op, used as the truncation corpus.
fn corpus() -> Vec<Vec<u8>> {
    let (u, v) = (NodeId::new(1), NodeId::new(2));
    [
        Request::Epoch,
        Request::Distance(u, v),
        Request::Path(u, v),
        Request::Stretch(u, v),
        Request::Degree(u),
        Request::Neighbors(u),
        Request::SameComponent(u, v),
    ]
    .iter()
    .enumerate()
    .map(|(i, r)| r.to_frame(i as u64 + 1))
    .collect()
}

#[test]
fn every_truncation_of_every_op_is_survived() {
    let (server, addr, epoch, digest) = fixture();
    for full in corpus() {
        // Every strict prefix, byte-exhaustively: mid-header, mid-CRC,
        // mid-payload. The server sees EOF mid-frame and must close
        // without panicking; it never answers a half request.
        for cut in 0..full.len() {
            let codes = send_raw(addr, &full[..cut]);
            assert!(
                codes.is_empty(),
                "truncation at {cut}/{} drew error frames {codes:?} for silence",
                full.len()
            );
        }
        // The untruncated frame still answers.
        let codes = send_raw(addr, &full);
        assert!(codes.is_empty(), "full frame must answer ok, got {codes:?}");
    }
    assert_still_serving(addr, epoch, digest);
    server.shutdown();
}

#[test]
fn every_flipped_bit_in_the_crc_is_rejected() {
    let (server, addr, epoch, digest) = fixture();
    let full = Request::Distance(NodeId::new(1), NodeId::new(2)).to_frame(9);
    for bit in 0..32 {
        let mut bad = full.clone();
        bad[4 + bit / 8] ^= 1 << (bit % 8); // bytes 4..8 are the CRC
        let codes = send_raw(addr, &bad);
        assert_eq!(
            codes,
            vec![ErrorCode::Malformed],
            "CRC bit {bit} must draw a malformed error frame"
        );
    }
    assert_still_serving(addr, epoch, digest);
    server.shutdown();
}

#[test]
fn every_flipped_payload_byte_is_rejected_or_reinterpreted_never_fatal() {
    let (server, addr, epoch, digest) = fixture();
    let full = Request::SameComponent(NodeId::new(1), NodeId::new(2)).to_frame(5);
    for i in 8..full.len() {
        let mut bad = full.clone();
        bad[i] ^= 0x40;
        // A payload flip breaks the CRC: always exactly one error frame.
        let codes = send_raw(addr, &bad);
        assert_eq!(
            codes,
            vec![ErrorCode::Malformed],
            "payload byte {i} flip must fail the CRC"
        );
    }
    assert_still_serving(addr, epoch, digest);
    server.shutdown();
}

#[test]
fn oversized_length_prefixes_are_rejected_without_allocation() {
    let (server, addr, epoch, digest) = fixture();
    for len in [
        (MAX_FRAME_PAYLOAD + 1) as u32,
        u32::MAX,
        u32::MAX - 7,
        (1u32 << 30) + 1,
    ] {
        let mut header = Vec::new();
        header.extend_from_slice(&len.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        let codes = send_raw(addr, &header);
        assert_eq!(
            codes,
            vec![ErrorCode::Oversized],
            "length {len} must draw an oversized error frame"
        );
    }
    assert_still_serving(addr, epoch, digest);
    server.shutdown();
}

#[test]
fn oversized_requests_are_refused_before_a_byte_is_sent() {
    let (server, addr, epoch, digest) = fixture();
    let mut client = Client::connect(addr).expect("connect");
    // 300,000 deletes encode to about 1.5 MB, past the 1 MiB cap.
    let events = (0..300_000)
        .map(|i| NetworkEvent::delete(NodeId::new(i)))
        .collect();
    match client.submit_batch(events) {
        Err(ServeError::Server {
            code: ErrorCode::Oversized,
            ..
        }) => {}
        other => panic!("expected a local Oversized refusal, got {other:?}"),
    }
    // Nothing reached the socket, so the same connection still works.
    let stamped = client.epoch().expect("the connection survives");
    assert_eq!((stamped.epoch, stamped.digest), (epoch, digest));
    server.shutdown();
}

#[test]
fn wrong_magic_version_op_and_trailing_bytes_answer_typed_errors() {
    let (server, addr, epoch, digest) = fixture();
    let base = Request::Epoch.to_frame(3);

    let mut bad_magic = base.clone();
    bad_magic[8] = b'X'; // first payload byte is the magic
    rewrite_crc(&mut bad_magic);
    assert_eq!(send_raw(addr, &bad_magic), vec![ErrorCode::BadMagic]);

    let mut bad_version = base.clone();
    bad_version[12] = 99; // payload byte 4 is the version
    rewrite_crc(&mut bad_version);
    assert_eq!(send_raw(addr, &bad_version), vec![ErrorCode::BadMagic]);

    let mut bad_op = base.clone();
    bad_op[21] = 200; // payload byte 13 is the op tag
    rewrite_crc(&mut bad_op);
    assert_eq!(send_raw(addr, &bad_op), vec![ErrorCode::UnknownOp]);

    // A distance op with trailing junk after its arguments.
    let mut trailing = Request::Distance(NodeId::new(0), NodeId::new(1)).to_frame(4)[8..].to_vec();
    trailing.extend_from_slice(&[0xde, 0xad]);
    assert_eq!(
        send_raw(addr, &frame(&trailing)),
        vec![ErrorCode::BadPayload]
    );

    // A payload shorter than any legal request.
    assert_eq!(send_raw(addr, &frame(b"FGQ1")), vec![ErrorCode::BadPayload]);

    assert_still_serving(addr, epoch, digest);
    server.shutdown();
}

/// Recomputes the CRC header field after the payload was tampered with,
/// so the frame fails *semantic* checks rather than the checksum.
fn rewrite_crc(framed: &mut [u8]) {
    let crc = fg_store::crc32(&framed[8..]);
    framed[4..8].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn abrupt_disconnects_mid_pipeline_leave_the_server_healthy() {
    let (server, addr, epoch, digest) = fixture();
    for round in 0..20u64 {
        let mut client = Client::connect(addr).expect("connect");
        // Pipeline a few requests, read back only some of them, then
        // drop the socket with responses still in flight.
        for i in 0..4 {
            client
                .send(&Request::Distance(NodeId::new(0), NodeId::new(i)))
                .expect("send");
        }
        for _ in 0..(round % 4) {
            let response = client.recv().expect("early responses arrive");
            assert!(response.body.is_ok());
        }
        drop(client); // RST or FIN mid-stream, server's problem now
    }
    assert_still_serving(addr, epoch, digest);
    let stats = server.stats();
    assert_eq!(
        stats.protocol_errors(),
        0,
        "disconnects are not protocol errors"
    );
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage never panics the server and never wedges the
    /// connection: the server either closes or answers error frames,
    /// within the timeout, and keeps serving afterwards.
    #[test]
    fn fuzz_garbage_streams_never_wedge(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let (server, addr, epoch, digest) = fixture();
        let _ = send_raw(addr, &bytes);
        assert_still_serving(addr, epoch, digest);
        server.shutdown();
    }

    /// Any mutation of a valid frame draws at most one error frame and
    /// leaves the server serving.
    #[test]
    fn fuzz_mutated_frames_never_wedge(
        idx in 0usize..7,
        pos in 0usize..30,
        mask in 1u8..255,
    ) {
        let (server, addr, epoch, digest) = fixture();
        let mut bad = corpus()[idx].clone();
        let pos = pos % bad.len();
        bad[pos] ^= mask;
        let codes = send_raw(addr, &bad);
        prop_assert!(codes.len() <= 1, "one bad frame, at most one error frame: {codes:?}");
        assert_still_serving(addr, epoch, digest);
        server.shutdown();
    }
}

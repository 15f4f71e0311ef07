//! The closed-loop pipelined FGQ1 read client shared by `read-serve`
//! and `mixed-replica`, and the certificate checks on what it saw.

use crate::stats::Windows;
use crate::{Corrupt, Report};
use fg_bench::{Answer, Query, QueryKind};
use fg_serve::{Client, Request, Response, ResponseBody};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::time::Instant;

/// Every `SPOT_EVERY`-th response is kept for the answer spot-check.
const SPOT_EVERY: u64 = 257;
/// At most this many spot samples per client.
const SPOT_CAP: usize = 4000;

pub fn request_of(q: &Query) -> Request {
    match q.kind {
        QueryKind::Distance => Request::Distance(q.u, q.v),
        QueryKind::Path => Request::Path(q.u, q.v),
        QueryKind::Stretch => Request::Stretch(q.u, q.v),
        QueryKind::Degree => Request::Degree(q.u),
        QueryKind::Component => Request::SameComponent(q.u, q.v),
    }
}

/// A served read body as the bench crate's [`Answer`], so served and
/// in-process answers go through the same comparator.
pub fn answer_of(body: ResponseBody) -> Option<Answer> {
    Some(match body {
        ResponseBody::Distance(d) => Answer::Dist(d),
        ResponseBody::Path(p) => Answer::Path(p),
        ResponseBody::Stretch(s) => Answer::Stretch(s),
        ResponseBody::Degree(d) => Answer::Degree(d.map(|x| x as usize)),
        ResponseBody::SameComponent(c) => Answer::Component(c),
        _ => return None,
    })
}

/// A kept served answer, checked after the run at its stamped epoch.
#[derive(Debug, Clone)]
pub struct Spot {
    pub epoch: u64,
    pub query: Query,
    pub answer: Answer,
}

/// One client's tally.
#[derive(Debug, Default)]
pub struct ReadTally {
    /// Read latencies, binned by completion time.
    pub latency: Windows,
    pub attempted: u64,
    pub failed: u64,
    /// Every distinct `(epoch, digest)` stamp seen.
    pub stamps: BTreeMap<u64, u64>,
    /// Responses whose stamp named an epoch already seen with another
    /// digest.
    pub stamp_conflicts: u64,
    pub spots: Vec<Spot>,
}

impl ReadTally {
    pub fn merge(&mut self, other: ReadTally) {
        self.latency.merge(other.latency);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (epoch, digest) in other.stamps {
            if *self.stamps.entry(epoch).or_insert(digest) != digest {
                self.stamp_conflicts += 1;
            }
        }
        self.stamp_conflicts += other.stamp_conflicts;
        self.spots.extend(other.spots);
    }

    fn record(&mut self, sent_at: Instant, response: Response, query: &Query) {
        let now = Instant::now();
        self.latency.record(now, now - sent_at);
        let Ok(body) = response.body else {
            self.failed += 1;
            return;
        };
        let Some(answer) = answer_of(body) else {
            self.failed += 1;
            return;
        };
        if *self.stamps.entry(response.epoch).or_insert(response.digest) != response.digest {
            self.stamp_conflicts += 1;
        }
        if self.attempted.is_multiple_of(SPOT_EVERY) && self.spots.len() < SPOT_CAP {
            self.spots.push(Spot {
                epoch: response.epoch,
                query: *query,
                answer,
            });
        }
    }
}

/// One closed-loop client: keep `depth` requests in flight on one
/// connection from `started` for `seconds`, then drain. Responses come
/// back in request order, so each is paired with the oldest send
/// instant. Latencies land in `windows` equal windows.
pub fn closed_loop(
    addr: SocketAddr,
    queries: &[Query],
    depth: usize,
    (started, seconds, windows): (Instant, f64, usize),
) -> ReadTally {
    let deadline = started + std::time::Duration::from_secs_f64(seconds);
    let mut tally = ReadTally {
        latency: Windows::new(started, seconds, windows),
        ..ReadTally::default()
    };
    let Ok(mut client) = Client::connect(addr) else {
        tally.attempted = 1;
        tally.failed = 1;
        return tally;
    };
    let mut in_flight: VecDeque<(u64, Instant, usize)> = VecDeque::with_capacity(depth);
    let mut next = 0usize;
    loop {
        while in_flight.len() < depth.max(1) && Instant::now() < deadline {
            let at = next % queries.len();
            next += 1;
            tally.attempted += 1;
            let Ok(id) = client.send(&request_of(&queries[at])) else {
                tally.failed += in_flight.len() as u64 + 1;
                return tally;
            };
            in_flight.push_back((id, Instant::now(), at));
        }
        let Some((want, sent_at, at)) = in_flight.pop_front() else {
            return tally;
        };
        match client.recv() {
            Ok(response) if response.request_id == want => {
                tally.record(sent_at, response, &queries[at]);
            }
            _ => {
                tally.failed += in_flight.len() as u64 + 1;
                return tally;
            }
        }
    }
}

/// Checks every stamp a client saw against the certificate of its
/// epoch (`certs`: epoch → chained digest). Returns the mismatches.
pub fn check_stamps(
    tally: &ReadTally,
    certs: &BTreeMap<u64, u64>,
    corrupt: Option<Corrupt>,
    report: &mut Report,
) -> u64 {
    let mut bad = tally.stamp_conflicts;
    if bad > 0 {
        report.problem(format!(
            "{bad} responses reused an epoch with a different digest"
        ));
    }
    for (i, (&epoch, &digest)) in tally.stamps.iter().enumerate() {
        let digest = if i == 0 && corrupt == Some(Corrupt::Stamp) {
            digest ^ 1
        } else {
            digest
        };
        match certs.get(&epoch) {
            Some(&cert) if cert == digest => {}
            Some(&cert) => {
                bad += 1;
                report.problem(format!(
                    "stamp at epoch {epoch} carries digest {digest:016x}, certificate is {cert:016x}"
                ));
            }
            None => {
                bad += 1;
                report.problem(format!(
                    "stamp names epoch {epoch}, which was never certified"
                ));
            }
        }
    }
    bad
}

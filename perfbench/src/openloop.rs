//! Open-loop load generator over one binary-wire connection.
//!
//! Requests are due on a fixed schedule whether or not earlier ones were
//! answered. One sender thread sleeps until each due time (an hrtimer
//! sleep with the thread's timer slack cut to 1 ns) and writes the
//! frame; one receiver thread blocks in `read_exact`. Latency is timed
//! from each request's *scheduled* send time, so a stall anywhere — in
//! the server or in the generator itself — is charged to every request
//! scheduled behind it (no coordinated omission). The generator never
//! paces itself with socket read timeouts, which are jiffy-granular.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gcwc_serve::wire::{self, FrameHeader};

use crate::stats;
use crate::trace::{Recorder, Span, ROOT};

/// Lane of the request spans' ids (sender and receiver use 1 and 2).
const REQUEST_LANE: u64 = 3;

/// How one response compares with the in-process reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Bit-identical to the reference, not degraded, right generation.
    Correct,
    /// Answered, but with other bits, degraded, or a stale generation.
    Wrong,
    /// Answered with an error frame (e.g. the queue was full).
    Refused,
}

/// What the generator sends and how it checks the answers.
pub trait Target: Sync {
    /// A decoded response.
    type Resp;
    /// Appends the frame of request `seq` (its wire request id) to `buf`.
    fn encode(&self, seq: u64, buf: &mut Vec<u8>);
    /// Decodes one response frame (timed as part of the latency).
    fn decode(&self, header: &FrameHeader, payload: &[u8]) -> Self::Resp;
    /// Compares a decoded response with request `seq`'s reference.
    fn verify(&self, seq: u64, resp: &Self::Resp) -> Verdict;
}

/// One open-loop phase: `count` requests at `rate` per second, with
/// wire ids `first_seq..first_seq + count`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Offered requests per second.
    pub rate: f64,
    /// Requests sent.
    pub count: usize,
    /// Sequence number (wire request id) of the first request.
    pub first_seq: u64,
}

/// Result of one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Offered rate.
    pub rate: f64,
    /// Latency from the scheduled send to the decoded response, ns, one
    /// per request; `u64::MAX` for requests that were refused, wrong or
    /// never answered (they miss every latency limit).
    pub latency_ns: Vec<u64>,
    /// How late the sender started each request, ns.
    pub late_ns: Vec<u64>,
    /// Responses equal to the reference.
    pub correct: usize,
    /// Responses that differ from the reference.
    pub wrong: usize,
    /// Error responses.
    pub refused: usize,
    /// Requests never answered.
    pub lost: usize,
    /// Median of the requests outstanding right after each send of the
    /// phase's first half.
    pub backlog_first: u64,
    /// The same over the second half: a server that keeps up holds it
    /// level, a saturated one lets it grow with every send.
    pub backlog_second: u64,
}

impl PhaseResult {
    /// Nearest-rank latency percentile in microseconds (failed requests
    /// count as infinitely late).
    pub fn latency_us(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .latency_ns
            .iter()
            .map(|&ns| if ns == u64::MAX { f64::INFINITY } else { ns as f64 / 1e3 })
            .collect();
        stats::percentile_of(&v, p)
    }

    /// The median over `windows` equal consecutive slices of the phase
    /// of each slice's latency percentile, in microseconds: a transient
    /// stall of the machine moves one slice, not the result.
    pub fn windowed_latency_us(&self, p: f64, windows: usize) -> f64 {
        stats::median(&self.slice_latency_us(p, windows))
    }

    /// Each of `windows` equal consecutive slices' latency percentile,
    /// in microseconds, in time order.
    pub fn slice_latency_us(&self, p: f64, windows: usize) -> Vec<f64> {
        let per = (self.latency_ns.len() / windows.max(1)).max(1);
        self.latency_ns
            .chunks(per)
            .filter(|c| c.len() == per)
            .map(|c| PhaseResult { latency_ns: c.to_vec(), ..Default::default() }.latency_us(p))
            .collect()
    }

    /// Nearest-rank generator-lateness percentile in microseconds.
    pub fn late_us(&self, p: f64) -> f64 {
        let v: Vec<f64> = self.late_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::percentile_of(&v, p)
    }

    /// Requests attempted.
    pub fn attempted(&self) -> usize {
        self.latency_ns.len()
    }

    /// Requests that did not get a correct answer.
    pub fn failed(&self) -> usize {
        self.attempted() - self.correct
    }
}

/// Spans of a traced phase: the sender's and the receiver's.
pub struct PhaseTrace<'a> {
    /// Records `client.encode_req` spans.
    pub sender: &'a mut Recorder,
    /// Records `request` and `client.decode_resp` spans.
    pub receiver: &'a mut Recorder,
}

/// Span id of request `seq`'s root span.
pub fn request_span_id(seq: u64) -> u64 {
    (REQUEST_LANE << 48) + seq + 1
}

/// Cuts this thread's timer slack to 1 ns so `thread::sleep` wakes
/// within microseconds of its deadline instead of the default 50 µs.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
    // only the calling thread's timer slack; no memory is shared.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// Sends `sched` open-loop on `stream` and collects every response.
/// `stream` must have no requests outstanding. A read timeout set on
/// the stream only bounds how long a lost response is waited for.
pub fn run<T: Target>(
    stream: &TcpStream,
    target: &T,
    sched: Schedule,
    trace: Option<PhaseTrace<'_>>,
) -> PhaseResult {
    let n = sched.count;
    let interval_ns = 1e9 / sched.rate;
    let start = Instant::now() + Duration::from_millis(1);
    let due = move |i: usize| start + Duration::from_nanos((i as f64 * interval_ns) as u64);
    let received = AtomicU64::new(0);
    let (mut sender_rec, mut receiver_rec) = match trace {
        Some(PhaseTrace { sender, receiver }) => (Some(sender), Some(receiver)),
        None => (None, None),
    };

    let (late_ns, outstanding, recv) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            tighten_timer_slack();
            let mut late = Vec::with_capacity(n);
            let mut outstanding = Vec::with_capacity(n);
            let mut buf = Vec::new();
            for i in 0..n {
                let d = due(i);
                let now = Instant::now();
                if d > now {
                    std::thread::sleep(d - now);
                }
                let t = Instant::now();
                late.push((t - d).as_nanos() as u64);
                let seq = sched.first_seq + i as u64;
                buf.clear();
                target.encode(seq, &mut buf);
                if let Some(rec) = sender_rec.as_deref_mut() {
                    let end = rec.now();
                    rec.record("client.encode_req", request_span_id(seq), seq, rec.at(t), end);
                }
                if (&*stream).write_all(&buf).is_err() {
                    break;
                }
                outstanding.push(i as u64 + 1 - received.load(Ordering::SeqCst));
            }
            (late, outstanding)
        });
        let receiver = scope.spawn(|| {
            let mut latency = vec![u64::MAX; n];
            let (mut correct, mut wrong, mut refused) = (0, 0, 0);
            let mut head = [0u8; wire::HEADER_LEN];
            let mut payload = Vec::new();
            for _ in 0..n {
                if (&*stream).read_exact(&mut head).is_err() {
                    break;
                }
                let Ok(Some(header)) = wire::decode_header(&head) else { break };
                payload.resize(header.payload_len, 0);
                if (&*stream).read_exact(&mut payload).is_err() {
                    break;
                }
                let t0 = receiver_rec.as_deref().map(Recorder::now);
                let resp = target.decode(&header, &payload);
                let t = Instant::now();
                let seq = header.request_id;
                let Some(i) =
                    seq.checked_sub(sched.first_seq).map(|i| i as usize).filter(|&i| i < n)
                else {
                    break;
                };
                if let (Some(rec), Some(t0)) = (receiver_rec.as_deref_mut(), t0) {
                    let parent = request_span_id(seq);
                    let end = rec.at(t);
                    rec.record("client.decode_resp", parent, seq, t0, end);
                    let start = rec.at(due(i));
                    rec.push(Span {
                        id: parent,
                        parent: ROOT,
                        req: seq,
                        name: "request",
                        start,
                        end,
                    });
                }
                match target.verify(seq, &resp) {
                    Verdict::Correct => {
                        correct += 1;
                        latency[i] = (t - due(i)).as_nanos() as u64;
                    }
                    Verdict::Wrong => wrong += 1,
                    Verdict::Refused => refused += 1,
                }
                received.fetch_add(1, Ordering::SeqCst);
            }
            (latency, correct, wrong, refused)
        });
        let (late, outstanding) = sender.join().expect("sender thread panicked");
        let recv = receiver.join().expect("receiver thread panicked");
        (late, outstanding, recv)
    });
    let (latency_ns, correct, wrong, refused) = recv;
    let (first, second) = outstanding.split_at(outstanding.len() / 2);
    let median_of = |half: &[u64]| {
        let v: Vec<f64> = half.iter().map(|&b| b as f64).collect();
        if v.is_empty() {
            0
        } else {
            stats::median(&v) as u64
        }
    };
    PhaseResult {
        rate: sched.rate,
        late_ns,
        correct,
        wrong,
        refused,
        lost: n - correct - wrong - refused,
        latency_ns,
        backlog_first: median_of(first),
        backlog_second: median_of(second),
    }
}

/// Requests that may be outstanding without counting as a growing
/// backlog: those Little's law allows in flight when every one meets
/// the latency limit, and at least two.
pub fn backlog_slack(rate: f64, limit_us: f64) -> u64 {
    ((rate * limit_us / 1e6).ceil() as u64).max(2)
}

/// Slices a rung is judged over: a transient stall of the machine
/// fails one slice, a saturated server fails them all.
pub const RUNG_WINDOWS: usize = 5;

/// The ladder rule: a rung passes only when its p90 is under the limit
/// and the backlog of its second half has not grown past the slack over
/// that of its first half (medians over every send, so one late
/// response at the end does not count as growth). The p90 is the median over [`RUNG_WINDOWS`] slices of the
/// slice p90s; refused and lost requests count as infinitely late, so
/// a slice where more than a tenth of the requests fail misses.
pub fn rung_passes(r: &PhaseResult, limit_us: f64) -> bool {
    let slack = backlog_slack(r.rate, limit_us);
    r.windowed_latency_us(90.0, RUNG_WINDOWS) < limit_us
        && r.backlog_second <= r.backlog_first + slack
}

/// One probed rate: its p90 latency in µs and whether it passed.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Offered rate.
    pub rate: f64,
    /// p90 latency, µs.
    pub p90_us: f64,
    /// Whether the rung met the ladder rule.
    pub pass: bool,
}

/// Climbs a rate ladder from `start` in steps of `step` until a rung
/// fails (descending instead when `start` fails), then bisects
/// geometrically `refine` times between the last passing and the first
/// failing rung, probing at most `max_rungs` times. A failing rung is
/// probed once more and counts as failed only if both probes fail: a
/// neighbour on a shared machine only ever slows the server, so a lone
/// failure is more likely the machine than the program. Returns the
/// capacity: the rate where p90 crosses `limit_us`, interpolated
/// log-linearly between the bracketing rungs' p90s (the passing rate
/// itself when the failing rung missed on backlog, not latency, or no
/// rung failed). `None` when no rung passed.
pub fn ladder(
    start: f64,
    step: f64,
    refine: usize,
    max_rungs: usize,
    limit_us: f64,
    mut probe: impl FnMut(f64) -> Rung,
) -> Option<f64> {
    let mut probes = 0;
    // Probes `rate` (twice if the first fails); returns the better rung
    // and whether the probe budget is spent.
    let mut next = |rate: f64| {
        probes += 1;
        let first = probe(rate);
        if first.pass || probes >= max_rungs {
            return (first, probes >= max_rungs);
        }
        probes += 1;
        let second = probe(rate);
        let better = if second.pass || second.p90_us < first.p90_us { second } else { first };
        (better, probes >= max_rungs)
    };
    let (first, mut spent) = next(start);
    let (mut lo, mut hi): (Option<Rung>, Option<Rung>) =
        if first.pass { (Some(first), None) } else { (None, Some(first)) };
    while !spent && (lo.is_none() || hi.is_none()) {
        let rate = match (lo, hi) {
            (Some(l), None) => l.rate * step,
            (None, Some(h)) => h.rate / step,
            _ => unreachable!("one side is open"),
        };
        let (r, s) = next(rate);
        spent = s;
        if r.pass {
            lo = Some(r);
        } else {
            hi = Some(r);
        }
    }
    for _ in 0..refine {
        let (Some(l), Some(h)) = (lo, hi) else { break };
        if spent {
            break;
        }
        let (r, s) = next((l.rate * h.rate).sqrt());
        spent = s;
        if r.pass {
            lo = Some(r);
        } else {
            hi = Some(r);
        }
    }
    let l = lo?;
    Some(match hi {
        Some(h) if h.p90_us >= limit_us && l.p90_us > 0.0 && h.p90_us.is_finite() => {
            let t = ((limit_us / l.p90_us).ln() / (h.p90_us / l.p90_us).ln()).clamp(0.0, 1.0);
            l.rate * (h.rate / l.rate).powf(t)
        }
        _ => l.rate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcwc_serve::wire::Opcode;
    use std::net::TcpListener;

    /// Pings answered by a fake server; the sender stalls before the
    /// request with sequence number `stall_seq`.
    struct Pings {
        stall_seq: u64,
        stall: Duration,
    }

    impl Target for Pings {
        type Resp = Opcode;
        fn encode(&self, seq: u64, buf: &mut Vec<u8>) {
            if seq == self.stall_seq {
                std::thread::sleep(self.stall);
            }
            wire::encode_empty(buf, Opcode::Ping, seq);
        }
        fn decode(&self, header: &FrameHeader, _payload: &[u8]) -> Opcode {
            header.opcode
        }
        fn verify(&self, _seq: u64, resp: &Opcode) -> Verdict {
            if *resp == Opcode::Pong {
                Verdict::Correct
            } else {
                Verdict::Wrong
            }
        }
    }

    /// Answers every ping with a pong, stalling once before answering
    /// request `stall_seq`.
    fn fake_server(
        stall_seq: u64,
        stall: Duration,
    ) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            conn.set_nodelay(true).unwrap();
            let mut head = [0u8; wire::HEADER_LEN];
            let mut out = Vec::new();
            while conn.read_exact(&mut head).is_ok() {
                let header = wire::decode_header(&head).unwrap().unwrap();
                if header.request_id == stall_seq {
                    std::thread::sleep(stall);
                }
                out.clear();
                wire::encode_empty(&mut out, Opcode::Pong, header.request_id);
                conn.write_all(&out).unwrap();
            }
        });
        (addr, handle)
    }

    fn run_pings(server_stall: u64, sender_stall: u64) -> PhaseResult {
        let stall = Duration::from_millis(30);
        let (addr, server) = fake_server(server_stall, stall);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let target = Pings { stall_seq: sender_stall, stall };
        // 1 request per ms; the 30 ms stall covers ~30 later requests.
        let sched = Schedule { rate: 1000.0, count: 60, first_seq: 1 };
        let result = run(&stream, &target, sched, None);
        drop(stream);
        server.join().unwrap();
        result
    }

    /// Every request scheduled during a stall must be charged the part
    /// of the stall still ahead of it when it was due.
    fn assert_stall_charged(r: &PhaseResult, stalled_index: usize) {
        assert_eq!(r.correct, 60, "{r:?}");
        for j in 0..20 {
            let owed_ms = 30.0 - j as f64 - 2.0; // 2 ms tolerance
            let got_ms = r.latency_ns[stalled_index + j] as f64 / 1e6;
            assert!(got_ms >= owed_ms, "request {j} behind the stall: {got_ms} ms < {owed_ms} ms");
        }
        // Well after the stall the schedule has caught up again.
        assert!((r.latency_ns[59] as f64 / 1e6) < 10.0, "{:?}", r.latency_ns[59]);
    }

    #[test]
    fn a_server_stall_is_charged_to_requests_scheduled_behind_it() {
        let r = run_pings(11, 0);
        assert_stall_charged(&r, 10);
    }

    #[test]
    fn a_generator_stall_is_charged_too() {
        // The sender itself is late: requests due during its stall are
        // sent late, and that lateness counts as latency.
        let r = run_pings(0, 11);
        assert_stall_charged(&r, 10);
        assert!(
            r.late_ns[11] as f64 / 1e6 >= 27.0,
            "lateness not recorded: {:?}",
            &r.late_ns[10..14]
        );
    }

    #[test]
    fn windowed_percentiles_ignore_one_bad_window() {
        // Five windows of ten; one window is ten times slower.
        let mut latency_ns: Vec<u64> = (0..50).map(|i| 1_000 + (i % 10) * 100).collect();
        for v in &mut latency_ns[20..30] {
            *v *= 10;
        }
        let r = PhaseResult { latency_ns, ..Default::default() };
        assert_eq!(r.windowed_latency_us(90.0, 5), 1.8);
        assert_eq!(r.windowed_latency_us(50.0, 5), 1.4);
        assert!(r.latency_us(90.0) > 10.0);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let r = PhaseResult { latency_ns: vec![1_000, u64::MAX, 3_000], ..Default::default() };
        assert_eq!(r.latency_us(50.0), 3.0);
        assert!(r.latency_us(90.0).is_infinite());
    }

    fn phase(rate: f64, p90_ms: f64, first: u64, second: u64, refused: usize) -> PhaseResult {
        // 100 requests in 5 windows of 20: the 18th-fastest of each
        // window sets its p90.
        let mut latency_ns = vec![1_000; 100];
        for w in 0..5 {
            latency_ns[w * 20 + 17] = (p90_ms * 1e6) as u64;
            latency_ns[w * 20 + 18] = (p90_ms * 1e6) as u64;
            latency_ns[w * 20 + 19] = (p90_ms * 1e6) as u64;
        }
        for v in latency_ns.iter_mut().take(refused) {
            *v = u64::MAX;
        }
        PhaseResult {
            rate,
            latency_ns,
            backlog_first: first,
            backlog_second: second,
            refused,
            ..Default::default()
        }
    }

    #[test]
    fn ladder_rule_needs_latency_and_no_backlog() {
        assert!(rung_passes(&phase(100.0, 20.0, 3, 4, 0), 25_000.0));
        assert!(!rung_passes(&phase(100.0, 25.0, 3, 4, 0), 25_000.0), "p90 must be strictly under");
        assert!(
            !rung_passes(&phase(100.0, 20.0, 3, 7, 0), 25_000.0),
            "backlog grew past the slack"
        );
        // Refused requests miss the limit: 2 of each slice's 20 are
        // tolerated (its p90 is the 18th), 3 are not.
        assert!(rung_passes(&phase(100.0, 20.0, 3, 3, 2), 25_000.0));
        assert!(!rung_passes(&phase(100.0, 1.0, 3, 3, 100), 25_000.0), "every request refused");
        assert_eq!(backlog_slack(100.0, 25_000.0), 3);
        assert_eq!(backlog_slack(10.0, 1_000.0), 2);
    }

    #[test]
    fn one_stalled_slice_does_not_fail_a_rung() {
        let mut r = phase(100.0, 20.0, 3, 3, 0);
        for v in &mut r.latency_ns[40..60] {
            *v = 500_000_000;
        }
        assert!(rung_passes(&r, 25_000.0));
    }

    /// A synthetic server whose p90 is 5 ms below 150/s and grows tenfold
    /// per ×1.25 above it.
    fn knee(rate: f64) -> Rung {
        let p90_us = if rate < 150.0 {
            5_000.0
        } else {
            5_000.0 * 10f64.powf((rate / 150.0).ln() / 1.25f64.ln())
        };
        Rung { rate, p90_us, pass: p90_us < 25_000.0 }
    }

    #[test]
    fn ladder_climbs_bisects_and_interpolates() {
        let mut probes = Vec::new();
        let cap = ladder(100.0, 1.25, 2, 20, 25_000.0, |r| {
            probes.push(r);
            knee(r)
        })
        .unwrap();
        // 100, 125, 156.25 pass; 195.3 fails twice; 174.7 passes;
        // 184.7 fails twice.
        assert_eq!(probes.len(), 8, "{probes:?}");
        // p90 = 25 ms at 150 · 1.25^(ln 5 / ln 10) ≈ 175.5/s.
        let want = 150.0 * 1.25f64.powf(5f64.ln() / 10f64.ln());
        assert!((cap - want).abs() / want < 0.02, "{cap} vs {want}");
    }

    #[test]
    fn ladder_descends_when_the_start_fails() {
        let step = |r: f64| Rung {
            rate: r,
            p90_us: if r <= 70.0 { 1.0 } else { f64::INFINITY },
            pass: r <= 70.0,
        };
        let cap = ladder(100.0, 1.25, 0, 20, 25_000.0, step).unwrap();
        assert!((cap - 64.0).abs() < 1e-6, "{cap}");
        assert_eq!(
            ladder(100.0, 1.25, 0, 3, 25_000.0, |r| Rung { rate: r, p90_us: 1e9, pass: false }),
            None
        );
    }

    #[test]
    fn a_lone_failure_is_probed_again() {
        let mut seen = Vec::new();
        let cap = ladder(100.0, 1.25, 0, 20, 25_000.0, |r| {
            // 125/s fails once (a slow neighbour), then passes.
            let flaky = r == 125.0 && !seen.contains(&r);
            seen.push(r);
            Rung { rate: r, p90_us: 1_000.0, pass: r < 190.0 && !flaky }
        });
        assert!((cap.unwrap() - 156.25).abs() < 1e-9, "{cap:?} {seen:?}");
        assert_eq!(seen.iter().filter(|&&r| r == 125.0).count(), 2);
    }

    #[test]
    fn ladder_stops_at_the_rung_budget() {
        let mut n = 0;
        let cap = ladder(100.0, 1.25, 3, 4, 25_000.0, |r| {
            n += 1;
            Rung { rate: r, p90_us: 1.0, pass: true }
        });
        assert_eq!(n, 4);
        assert!((cap.unwrap() - 100.0 * 1.25f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn a_backlog_failure_keeps_the_passing_rate() {
        let cap = ladder(100.0, 1.25, 0, 20, 25_000.0, |r| Rung {
            rate: r,
            p90_us: 1_000.0,
            pass: r < 150.0,
        });
        assert!((cap.unwrap() - 125.0).abs() < 1e-9);
    }
}

//! The serve workloads: load from one process against an out-of-process
//! `rvz serve` at default flags.
//!
//! The untraced run measures set-up (spawn to ready, including one
//! warm-up miss per algorithm), latency in an open loop at the
//! workload's fixed offered rate (each request timed from when it was
//! due), then throughput in a closed loop. The traced run repeats the
//! open loop for the client latency and generator lateness, reads the
//! server's counts, and replays the workload's request bytes in-process
//! through each layer.

use crate::client::{Conn, Scrape, Server, SERVE_ARGV};
use crate::layers::{self, Counts};
use crate::report::{median, min, peak_rss_mb, quantile, Report};
use crate::workload::{
    check_serve, first_contact_request, fnv1a, warmup_scenarios, ServeTraffic, Workload,
};
use rvz_server::http::read_request;
use rvz_server::{Service, ServiceOptions};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client threads, each with one keep-alive connection (the box has 2
/// CPUs; the server runs its default 2 workers beside them).
pub const CLIENT_THREADS: u64 = 2;

/// Server set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Share of `--seconds` spent in the open loop; the rest is the closed
/// loop.
const OPEN_SHARE: f64 = 0.7;

/// Offered rates of the open loop, requests per second.
const HOT_RATE: f64 = 3000.0;
const COLD_RATE: f64 = 2000.0;

/// Upper bound on closed-loop cold throughput, used only to size the
/// cold pool so the closed loop never runs out of fresh scenarios.
const COLD_CLOSED_MAX_RATE: f64 = 20_000.0;

/// Fresh cold scenarios set aside for the traced run's in-process replay.
const COLD_REPLAY: usize = 1000;

/// Hot requests in the traced run's replay (the orbit set cycled).
const HOT_REPLAY: usize = 16_384;

/// Length of one load round. At 2000 req/s an open-loop round holds
/// 1000 requests, 10 beyond its p99.
const ROUND_S: f64 = 0.5;

/// Untimed start of the closed loop, seconds.
const CLOSED_WARMUP_S: f64 = 2.0;

/// Requests each closed-loop connection keeps in flight (HTTP/1.1
/// pipelining), so the server saturates with two connections.
const PIPELINE: usize = 32;

/// Median generator lateness (µs) above which the load generator could
/// not keep its schedule and the run is invalid. The median, not a tail:
/// host stalls make a tail late in any run, an overloaded generator is
/// late on most requests.
const MAX_LATE_P50_US: f64 = 1_000.0;

fn offered_rate(workload: Workload) -> f64 {
    match workload {
        Workload::HotOrbits => HOT_RATE,
        _ => COLD_RATE,
    }
}

/// What one load phase observed.
#[derive(Default)]
pub struct Phase {
    /// Open-loop client latency per request, µs, from when it was due.
    pub latency_us: Vec<f64>,
    /// How late each open-loop request was sent, µs.
    pub late_us: Vec<f64>,
    pub sent: u64,
    pub failed: u64,
    /// `(request index, body digest)` of responses checked after the run.
    pub kept: Vec<(usize, u64)>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.sent += other.sent;
        self.failed += other.failed;
        self.kept.extend(other.kept);
    }

    /// Settles one response: a non-200 or transport error fails; a 200
    /// is checked against `expected` now, or kept to check later.
    fn settle(
        &mut self,
        idx: usize,
        result: std::io::Result<(u16, Vec<u8>)>,
        expected: Option<&[String]>,
    ) {
        self.sent += 1;
        match (result, expected) {
            (Ok((200, body)), Some(expected)) if body == expected[idx].as_bytes() => {}
            (Ok((200, body)), None) => self.kept.push((idx, fnv1a(&body))),
            _ => self.failed += 1,
        }
    }
}

/// Open loop over requests `first..first + count`: request `g` is due
/// `(g - first) / rate` seconds after the start; thread `t` sends every
/// `CLIENT_THREADS`-th request from `first + t`.
fn open_loop(
    addr: &str,
    traffic: &ServeTraffic,
    expected: Option<&[String]>,
    rate: f64,
    first: u64,
    count: u64,
) -> Phase {
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let start = Instant::now() + Duration::from_millis(20);
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Phase::default();
                    let mut conn = Conn::connect(addr).ok();
                    let mut g = first + t;
                    while g < first + count {
                        let Some(idx) = traffic.pick(g) else { break };
                        let due = start + Duration::from_secs_f64((g - first) as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let result = pipeline(&mut conn, addr, &traffic.requests[idx], 1)
                            .pop()
                            .expect("one response per request");
                        let done = Instant::now();
                        out.latency_us.push((done - due).as_secs_f64() * 1e6);
                        out.late_us
                            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
                        out.settle(idx, result, expected);
                        g += CLIENT_THREADS;
                    }
                    out
                })
            })
            .collect();
        for t in threads {
            phase.merge(t.join().expect("open-loop client thread panicked"));
        }
    });
    phase
}

/// Closed loop for `secs`: each client thread keeps [`PIPELINE`]
/// requests in flight on its connection, sending the next batch as soon
/// as the previous one is answered, and draws request numbers from
/// `next`. Returns the phase and its throughput.
fn closed_loop(
    addr: &str,
    traffic: &ServeTraffic,
    expected: Option<&[String]>,
    next: &AtomicU64,
    secs: f64,
) -> (Phase, f64) {
    let mut phase = Phase::default();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENT_THREADS)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Phase::default();
                    let mut conn = None;
                    let mut batch = Vec::with_capacity(PIPELINE);
                    let mut wire = Vec::new();
                    while Instant::now() < end {
                        batch.clear();
                        wire.clear();
                        for _ in 0..PIPELINE {
                            if let Some(idx) = traffic.pick(next.fetch_add(1, Ordering::Relaxed)) {
                                batch.push(idx);
                                wire.extend_from_slice(&traffic.requests[idx]);
                            }
                        }
                        if batch.is_empty() {
                            break;
                        }
                        let results = pipeline(&mut conn, addr, &wire, batch.len());
                        for (&idx, result) in batch.iter().zip(results) {
                            out.settle(idx, result, expected);
                        }
                    }
                    out
                })
            })
            .collect();
        for t in threads {
            phase.merge(t.join().expect("closed-loop client thread panicked"));
        }
    });
    let rate = phase.sent as f64 / start.elapsed().as_secs_f64();
    (phase, rate)
}

/// Sends `n` requests (pipelined when `n > 1`) on a lazily (re)connected
/// keep-alive connection and reads their `n` responses; after a
/// transport error the rest of the batch fails and the connection is
/// dropped.
fn pipeline(
    conn: &mut Option<Conn>,
    addr: &str,
    wire: &[u8],
    n: usize,
) -> Vec<std::io::Result<(u16, Vec<u8>)>> {
    let sent = match conn {
        Some(c) => c.send(wire),
        None => Conn::connect(addr).and_then(|mut c| {
            c.send(wire)?;
            *conn = Some(c);
            Ok(())
        }),
    };
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        let result = match (&sent, conn.as_mut()) {
            (Ok(()), Some(c)) => c.receive(),
            _ => Err(std::io::ErrorKind::NotConnected.into()),
        };
        if result.is_err() {
            *conn = None;
        }
        results.push(result);
    }
    results
}

/// A load phase run as rounds of [`ROUND_S`], each with fresh client
/// threads and connections, so the scheduler places client and server
/// threads anew every round; figures are medians over the rounds.
#[derive(Default)]
pub struct Rounds {
    pub phase: Phase,
    pub p50_us: Vec<f64>,
    pub p99_us: Vec<f64>,
    pub ops_per_s: Vec<f64>,
}

impl Rounds {
    fn count(secs: f64) -> u64 {
        (secs / ROUND_S).round().max(1.0) as u64
    }

    /// The open loop at `rate` for `secs`, starting at request `first`.
    pub fn open(
        addr: &str,
        traffic: &ServeTraffic,
        expected: Option<&[String]>,
        rate: f64,
        secs: f64,
        first: u64,
    ) -> Rounds {
        let per_round = (rate * ROUND_S) as u64;
        let mut rounds = Rounds::default();
        for r in 0..Rounds::count(secs) {
            let phase = open_loop(
                addr,
                traffic,
                expected,
                rate,
                first + r * per_round,
                per_round,
            );
            rounds.p50_us.push(quantile(&phase.latency_us, 0.5));
            rounds.p99_us.push(quantile(&phase.latency_us, 0.99));
            rounds.phase.merge(phase);
        }
        rounds
    }

    /// The closed loop for `secs`, drawing requests from `first` on.
    fn closed(
        addr: &str,
        traffic: &ServeTraffic,
        expected: Option<&[String]>,
        secs: f64,
        first: u64,
    ) -> Rounds {
        let next = AtomicU64::new(first);
        let mut rounds = Rounds::default();
        // Saturation after a light phase starts slow on this class of
        // host; the warm-up is served and checked but not timed.
        let (warmup, _) = closed_loop(addr, traffic, expected, &next, CLOSED_WARMUP_S);
        rounds.phase.merge(warmup);
        for _ in 0..Rounds::count(secs - CLOSED_WARMUP_S) {
            let (phase, rate) = closed_loop(addr, traffic, expected, &next, ROUND_S);
            if phase.sent == 0 {
                break;
            }
            rounds.ops_per_s.push(rate);
            rounds.phase.merge(phase);
        }
        rounds
    }
}

/// The in-process oracle's answer: the `Service::handle` body for a
/// request, at default options.
fn oracle_body(oracle: &Service, request: &[u8]) -> String {
    match read_request(&mut &request[..]) {
        Ok(req) => oracle.handle(&req).0.body,
        Err(e) => format!("unreadable request: {e}"),
    }
}

/// Checks kept body digests against the oracle, on the client threads;
/// returns the mismatch count.
fn check_kept(oracle: &Service, traffic: &ServeTraffic, kept: &[(usize, u64)]) -> u64 {
    let chunk = kept.len().div_ceil(CLIENT_THREADS as usize).max(1);
    std::thread::scope(|scope| {
        let parts: Vec<_> = kept
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|(i, digest)| {
                            fnv1a(oracle_body(oracle, &traffic.requests[*i]).as_bytes()) != *digest
                        })
                        .count() as u64
                })
            })
            .collect();
        parts
            .into_iter()
            .map(|p| p.join().expect("oracle thread panicked"))
            .sum()
    })
}

/// Spawns a server and sends one warm-up miss per algorithm; returns
/// the server and the seconds from spawn until both answered.
fn set_up(rvz: &Path, oracle: &Service) -> Result<(Server, f64), String> {
    let started = Instant::now();
    let server = Server::spawn(rvz)?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    let mut bodies = Vec::new();
    for w in warmup_scenarios() {
        match conn.roundtrip(&first_contact_request(&w)) {
            Ok((200, body)) => bodies.push(body),
            Ok((status, _)) => return Err(format!("warm-up miss answered {status}")),
            Err(e) => return Err(format!("warm-up miss: {e}")),
        }
    }
    drop(conn);
    let elapsed = started.elapsed().as_secs_f64();
    for (w, body) in warmup_scenarios().iter().zip(&bodies) {
        let request = first_contact_request(w);
        let req = read_request(&mut &request[..]).map_err(|e| e.to_string())?;
        if oracle.handle(&req).0.body.as_bytes() != body.as_slice() {
            return Err("warm-up response differs from Service::handle".into());
        }
    }
    Ok((server, elapsed))
}

/// Records the serve argv, build version and engine fingerprint, and
/// refuses a server whose engine configuration is not the default one.
fn pin_defaults(server: &Server, oracle: &Service, report: &mut Report) -> Result<(), String> {
    let scrape = Scrape::take(server)?;
    let text = |path: &[&str]| {
        scrape
            .stat(path)
            .and_then(rvz_experiments::Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let version = text(&["build", "version"]);
    let fingerprint = text(&["build", "engine_fingerprint"]);
    let default = format!("{:016x}", oracle.engine_fingerprint());
    if fingerprint != default {
        return Err(format!(
            "server engine fingerprint {fingerprint} is not the default-flag {default}"
        ));
    }
    report.info("rvz argv", format!("rvz {}", SERVE_ARGV.join(" ")));
    report.info(
        "rvz build",
        format!("version {version}, engine fingerprint {fingerprint}"),
    );
    Ok(())
}

/// Checks the counts of the measured window against the workload's
/// traffic class: all hits on hot, all misses on cold, nothing shed.
fn check_counts(workload: Workload, counts: &Counts, served: u64, report: &mut Report) {
    let ok = match workload {
        Workload::HotOrbits => counts.misses == 0.0 && counts.hits == served as f64,
        _ => counts.hits == 0.0 && counts.misses == served as f64,
    };
    if !ok {
        report.problem(format!(
            "cache saw {} hits and {} misses for {served} served requests",
            counts.hits, counts.misses
        ));
    }
    if counts.shed != 0.0 {
        report.problem(format!(
            "server shed {} requests at nominal load",
            counts.shed
        ));
    }
    report.info(
        "window counts",
        format!(
            "{} hits, {} misses, {} shed, hit ratio {}",
            counts.hits,
            counts.misses,
            counts.shed,
            counts.hit_ratio()
        ),
    );
}

pub fn run(
    workload: Workload,
    seed: u64,
    secs: f64,
    trace: bool,
    rvz: &Path,
) -> Result<Report, String> {
    let rate = offered_rate(workload);
    let open_s = secs * OPEN_SHARE;
    let closed_s = secs - open_s;
    let pool = (COLD_RATE * open_s + COLD_CLOSED_MAX_RATE * closed_s).ceil() as usize + COLD_REPLAY;
    let traffic = ServeTraffic::build(workload, seed, pool);
    check_serve(workload, seed, &traffic)?;

    let mut report = Report::new();
    report.info(
        "inputs",
        format!(
            "{} distinct requests, digest {:016x}, offered {rate} req/s over {CLIENT_THREADS} connections",
            traffic.requests.len(),
            traffic.digest()
        ),
    );
    let oracle = Service::new(ServiceOptions::default());
    // Hot bodies are known before timing; cold ones are checked after.
    let expected: Option<Vec<String>> = (workload == Workload::HotOrbits).then(|| {
        traffic
            .requests
            .iter()
            .map(|r| oracle_body(&oracle, r))
            .collect()
    });

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            Server::shutdown(previous)?;
        }
        let (s, t) = set_up(rvz, &oracle)?;
        setups.push(t);
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    pin_defaults(&server, &oracle, &mut report)?;

    if workload == Workload::HotOrbits {
        // Touch every orbit once (its first description) before timing.
        for (i, request) in traffic.requests.iter().enumerate().step_by(2) {
            match server.call(request)? {
                (200, body) if expected.as_ref().is_some_and(|e| e[i].as_bytes() == body) => {}
                _ => return Err("warming a hot orbit failed or answered wrongly".into()),
            }
        }
    }
    let before = Scrape::take(&server)?;
    let expected = expected.as_deref();
    let open_rounds = Rounds::open(&server.addr, &traffic, expected, rate, open_s, 0);
    let open = &open_rounds.phase;
    let closed_rounds = if trace {
        Rounds::default()
    } else {
        Rounds::closed(&server.addr, &traffic, expected, closed_s, open.sent)
    };
    let closed = &closed_rounds.phase;
    let after = Scrape::take(&server)?;
    let rss = peak_rss_mb(&server.pid())?;
    server.shutdown()?;

    let late_p50 = median(&open.late_us);
    let late_p99 = quantile(&open.late_us, 0.99);
    let attempted = open.sent + closed.sent;
    let mut failed = open.failed + closed.failed;
    failed += check_kept(&oracle, &traffic, &open.kept);
    failed += check_kept(&oracle, &traffic, &closed.kept);
    report.ops(attempted, failed);
    let counts = Counts::between(&before.series, &after.series);
    check_counts(
        workload,
        &counts,
        attempted - open.failed - closed.failed,
        &mut report,
    );
    if late_p50 > MAX_LATE_P50_US {
        report.problem(format!(
            "load generator ran late (median {late_p50:.0} us): the run measured the client"
        ));
    }

    if !trace {
        report.info(
            "samples",
            format!(
                "{} open-loop requests in {} rounds, {} closed-loop requests in {} rounds",
                open.latency_us.len(),
                open_rounds.p50_us.len(),
                closed.sent,
                closed_rounds.ops_per_s.len()
            ),
        );
        report.metric("setup_s", median(&setups), "s");
        report.metric("p50_us", median(&open_rounds.p50_us), "us");
        // Host stalls of a few milliseconds land in many rounds and set
        // their tail; the lowest round p99 is the tail of a round they
        // spared, which a slower path in the program still raises.
        report.metric("p99_us", min(&open_rounds.p99_us), "us");
        report.ungated("ops_per_s", median(&closed_rounds.ops_per_s), "1/s");
        report.metric("peak_rss_mb", rss, "MB");
        return Ok(report);
    }

    // Traced run: replay this workload's own request bytes in-process.
    let (replay, warm, engine_sample) = match workload {
        Workload::HotOrbits => {
            let indices: Vec<usize> = (0..HOT_REPLAY as u64)
                .filter_map(|g| traffic.pick(g))
                .collect();
            let orbits: Vec<_> = traffic.scenarios.iter().step_by(2).copied().collect();
            let canonical: Vec<_> = orbits
                .iter()
                .map(|s| s.canonicalize(rvz_experiments::DEFAULT_GRID).scenario)
                .collect();
            // Hot requests never reach the engine; time it on the
            // orbits' canonical scenarios (the warm-up misses).
            let sample = canonical.repeat(8);
            (indices, orbits, sample)
        }
        _ => {
            let fresh = traffic.requests.len() - COLD_REPLAY..traffic.requests.len();
            // The executor pairing runs on a quarter of the replayed misses.
            let sample = traffic.scenarios[fresh.clone()]
                .iter()
                .step_by(4)
                .map(|s| s.canonicalize(rvz_experiments::DEFAULT_GRID).scenario)
                .collect();
            (fresh.collect(), Vec::new(), sample)
        }
    };
    let requests: Vec<&[u8]> = replay.iter().map(|&i| &traffic.requests[i][..]).collect();
    let ledger = layers::replay(&requests, &warm, &engine_sample, true, &mut report)?;
    report.ops(ledger.attempted, ledger.failed);
    if let Some(expected) = expected {
        let wrong = replay
            .iter()
            .zip(&ledger.bodies)
            .filter(|(&i, body)| expected[i] != **body)
            .count() as u64;
        report.ops(0, wrong);
    }
    report.metric(
        "server.transport_us",
        median(&open_rounds.p50_us) - median(&ledger.handle),
        "us",
    );
    report.metric("loadgen.late_p99_us", late_p99, "us");
    counts.report(
        after.stat_f64(&["cache", "joined"]) - before.stat_f64(&["cache", "joined"]),
        after.stat_f64(&["programs", "reference_lowerings"]),
        after.series.get("rvz_lowered_pieces_total"),
        &mut report,
    );
    Ok(report)
}

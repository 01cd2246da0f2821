//! The per-layer ledger: each layer timed from outside by calling its
//! public function on the workload's own requests, and the engine,
//! cache and server counts read after a run.

use crate::client::Series;
use crate::report::{mean, median, min, quantile, ratio, Report};
use rvz_experiments::{run_sweep, scenario_from_json, Algorithm, Scenario, SweepOptions};
use rvz_server::http::read_request;
use rvz_server::{ResultCache, Service, ServiceOptions};
use rvz_sim::batch::simulate_rendezvous_by_ref;
use rvz_sim::SimOutcome;
use rvz_trajectory::{Compile, CompileOptions};
use std::hint::black_box;
use std::time::Instant;

/// The engine call a default-flag `rvz serve` miss makes on its
/// canonical scenario. At the default horizon the shared reference
/// lowering exceeds the piece budget and is refused, so the service
/// hands every miss to the executor's cursor path; this is that call.
pub fn engine(canonical: &Scenario) -> SimOutcome {
    let instance = canonical
        .instance()
        .expect("workload scenarios are valid instances");
    let contact = SweepOptions::default().contact;
    match canonical.algorithm {
        Algorithm::WaitAndSearch => {
            simulate_rendezvous_by_ref(&rvz_core::WaitAndSearch, &instance, &contact)
        }
        Algorithm::UniversalSearch => {
            simulate_rendezvous_by_ref(&rvz_search::UniversalSearch, &instance, &contact)
        }
    }
}

/// The executor call a default-flag `rvz serve` miss makes: one
/// scenario, one thread, the service's own lowering disabled.
fn executor(canonical: &Scenario) -> SimOutcome {
    let single = SweepOptions {
        threads: 1,
        compile_pieces: 0,
        ..SweepOptions::default()
    };
    run_sweep(std::slice::from_ref(canonical), &single)[0].outcome
}

/// Milliseconds to lower both reference programs under the default
/// piece budget and horizon (`Compile::compile`, what the first miss of
/// each algorithm pays), median of three.
fn reference_lower_ms() -> f64 {
    let defaults = SweepOptions::default();
    let copts =
        CompileOptions::to_horizon(defaults.contact.horizon).max_pieces(defaults.compile_pieces);
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let _ = black_box(rvz_core::WaitAndSearch.compile(&copts));
            let _ = black_box(rvz_search::UniversalSearch.compile(&copts));
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Untraced/traced replay pass pairs.
const ROUNDS: usize = 3;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Per-call times (µs) from one traced replay pass.
#[derive(Default)]
struct Laps {
    read: Vec<f64>,
    decode: Vec<f64>,
    canonicalize: Vec<f64>,
    probe: Vec<f64>,
    engine: Vec<f64>,
    insert: Vec<f64>,
    handle: Vec<f64>,
    write: Vec<f64>,
}

/// A stopwatch that only reads the clock when tracing.
struct Lap {
    traced: bool,
    last: Instant,
}

impl Lap {
    fn split(&mut self, into: &mut Vec<f64>) {
        if self.traced {
            let now = Instant::now();
            into.push((now - self.last).as_secs_f64() * 1e6);
            self.last = now;
        }
    }

    fn restart(&mut self) {
        if self.traced {
            self.last = Instant::now();
        }
    }
}

/// The in-process state a replay runs against: a service and a result
/// cache, both at default options and holding the workload's warm orbits.
struct State {
    service: Service,
    cache: ResultCache<SimOutcome>,
}

impl State {
    fn new(warm: &[Scenario]) -> Result<State, String> {
        let defaults = ServiceOptions::default();
        let state = State {
            service: Service::new(defaults),
            cache: ResultCache::new(defaults.cache_capacity, defaults.cache_shards),
        };
        for s in warm {
            let request = crate::workload::first_contact_request(s);
            let req = read_request(&mut &request[..]).map_err(|e| e.to_string())?;
            state.service.handle(&req);
            let canonical = s.canonicalize(defaults.cache_grid);
            state
                .cache
                .insert(canonical.key, engine(&canonical.scenario));
        }
        Ok(state)
    }
}

/// One pass over `requests` through every layer a `/first-contact`
/// request crosses, in order: read, decode, canonicalize, cache probe,
/// engine and insert on a miss, the whole `Service::handle`, write.
/// Returns the wall time, the response bodies, and (when traced) the
/// per-call laps.
fn pass(
    requests: &[&[u8]],
    warm: &[Scenario],
    traced: bool,
) -> Result<(f64, Vec<String>, Laps), String> {
    let state = State::new(warm)?;
    let grid = ServiceOptions::default().cache_grid;
    let mut laps = Laps::default();
    let mut bodies = Vec::with_capacity(requests.len());
    let mut wire = Vec::with_capacity(4096);
    let mut lap = Lap {
        traced,
        last: Instant::now(),
    };
    let started = Instant::now();
    for bytes in requests {
        lap.restart();
        let req = read_request(&mut &bytes[..]).map_err(|e| e.to_string())?;
        lap.split(&mut laps.read);
        let text = std::str::from_utf8(&req.body).map_err(|e| e.to_string())?;
        let json = rvz_experiments::json::parse(text).map_err(|e| e.to_string())?;
        let scenario = scenario_from_json(&json)?;
        lap.split(&mut laps.decode);
        let canonical = scenario.canonicalize(grid);
        lap.split(&mut laps.canonicalize);
        let cached = state.cache.probe(&canonical.key);
        lap.split(&mut laps.probe);
        if cached.is_none() {
            let outcome = engine(&canonical.scenario);
            lap.split(&mut laps.engine);
            state.cache.insert(canonical.key, outcome);
            lap.split(&mut laps.insert);
        }
        let (response, _) = state.service.handle(&req);
        lap.split(&mut laps.handle);
        wire.clear();
        response.write_to(&mut wire).map_err(|e| e.to_string())?;
        lap.split(&mut laps.write);
        bodies.push(response.body);
    }
    Ok((started.elapsed().as_secs_f64(), bodies, laps))
}

/// What the replay measured.
pub struct Ledger {
    /// `Service::handle` per request, µs.
    pub handle: Vec<f64>,
    /// Response bodies of the traced pass.
    pub bodies: Vec<String>,
    /// Replayed requests and those whose bodies disagreed between
    /// passes, plus engine samples whose executor answer differed.
    pub attempted: u64,
    pub failed: u64,
}

/// Replays `requests` in-process, alternately untraced and traced, each
/// pass on fresh state warmed with `warm`, and reports the per-layer times, the
/// unattributed residual of `Service::handle`, and the tracing overhead.
///
/// `engine_sample` are canonical scenarios for the engine timings (the
/// replay's own misses are added to them). With `pair_executor`, each is
/// also run through the executor call a serve miss makes, and
/// `executor.overhead_share` is reported as the share of that call spent
/// outside the engine.
pub fn replay(
    requests: &[&[u8]],
    warm: &[Scenario],
    engine_sample: &[Scenario],
    pair_executor: bool,
    report: &mut Report,
) -> Result<Ledger, String> {
    // Alternate untraced and traced passes so neither side always runs
    // on colder caches; the overhead compares their fastest walls.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut failed = 0u64;
    let mut reference: Option<Vec<String>> = None;
    let mut last = None;
    for _ in 0..ROUNDS {
        for tracing in [false, true] {
            let (wall, bodies, laps) = pass(requests, warm, tracing)?;
            let reference = reference.get_or_insert_with(|| bodies.clone());
            failed += bodies
                .iter()
                .zip(reference.iter())
                .filter(|(a, b)| a != b)
                .count() as u64;
            if tracing {
                traced.push(wall);
                last = Some((bodies, laps));
            } else {
                untraced.push(wall);
            }
        }
    }
    let (bodies, laps) = last.expect("at least one traced pass");

    // The warm-up inserts are the hot workload's only inserts.
    let mut insert = laps.insert.clone();
    if insert.is_empty() {
        let defaults = ServiceOptions::default();
        let cache = ResultCache::new(defaults.cache_capacity, defaults.cache_shards);
        for s in warm {
            let canonical = s.canonicalize(defaults.cache_grid);
            let outcome = engine(&canonical.scenario);
            let started = Instant::now();
            cache.insert(canonical.key, outcome);
            insert.push(micros(started));
        }
    }

    // Engine and executor, paired on the same canonical scenarios.
    let mut query = laps.engine.clone();
    let (mut engine_us, mut executor_us) = (0.0, 0.0);
    let mut mismatches = 0u64;
    for (i, s) in engine_sample.iter().enumerate() {
        // Alternate which call runs first so neither gets the warm cache.
        let timed_engine = || {
            let started = Instant::now();
            let outcome = engine(s);
            (outcome, micros(started))
        };
        let timed_executor = || {
            let started = Instant::now();
            let outcome = executor(s);
            (outcome, micros(started))
        };
        let ((direct, t), wrapped) = if !pair_executor {
            (timed_engine(), None)
        } else if i % 2 == 0 {
            let e = timed_engine();
            (e, Some(timed_executor()))
        } else {
            let x = timed_executor();
            (timed_engine(), Some(x))
        };
        query.push(t);
        engine_us += t;
        if let Some((outcome, t)) = wrapped {
            executor_us += t;
            if outcome != direct {
                mismatches += 1;
            }
        }
    }

    let n = requests.len() as f64;
    let parts = mean(&laps.decode)
        + mean(&laps.canonicalize)
        + mean(&laps.probe)
        + laps.engine.iter().sum::<f64>() / n
        + laps.insert.iter().sum::<f64>() / n;
    report.metric("service.handle_us", median(&laps.handle), "us");
    report.metric("http.read_request_us", median(&laps.read), "us");
    report.metric("http.write_us", median(&laps.write), "us");
    report.metric("json.decode_us", median(&laps.decode), "us");
    report.metric(
        "canonical.canonicalize_us",
        median(&laps.canonicalize),
        "us",
    );
    report.metric("cache.probe_us", median(&laps.probe), "us");
    report.metric("cache.insert_us", median(&insert), "us");
    report.metric("sim.query_p50_us", quantile(&query, 0.5), "us");
    report.metric("sim.query_p99_us", quantile(&query, 0.99), "us");
    report.metric("service.unattributed_us", mean(&laps.handle) - parts, "us");
    if pair_executor {
        report.metric(
            "executor.overhead_share",
            1.0 - ratio(engine_us, executor_us),
            "ratio",
        );
    }
    report.metric(
        "trace.overhead_share",
        min(&traced) / min(&untraced) - 1.0,
        "ratio",
    );
    report.metric("trajectory.reference_lower_ms", reference_lower_ms(), "ms");
    report.info(
        "replay",
        format!(
            "{} requests, {} engine samples ({} executor/engine mismatches)",
            requests.len(),
            query.len(),
            mismatches
        ),
    );
    Ok(Ledger {
        handle: laps.handle,
        bodies,
        attempted: requests.len() as u64 + engine_sample.len() as u64,
        failed: failed + mismatches,
    })
}

/// Engine, cache, program and server counts over one window, from two
/// reads of the same registry (a server's `/metrics`, or this process's).
pub struct Counts {
    pub cursor: f64,
    pub kernel: f64,
    pub queries: f64,
    pub steps: f64,
    pub envelope: f64,
    pub pruned: f64,
    pub hits: f64,
    pub misses: f64,
    pub shed: f64,
}

impl Counts {
    pub fn between(before: &Series, after: &Series) -> Counts {
        let d = |key: &str| after.get(key) - before.get(key);
        let f = |name: &str| after.family(name) - before.family(name);
        Counts {
            cursor: d("rvz_engine_queries_total{path=\"cursor\"}"),
            kernel: d("rvz_engine_queries_total{path=\"compiled-soa\"}"),
            queries: f("rvz_engine_queries_total"),
            steps: f("rvz_engine_steps_total"),
            envelope: d("rvz_engine_envelope_queries_total"),
            pruned: d("rvz_engine_pruned_intervals_total"),
            hits: d("rvz_cache_requests_total{outcome=\"hit\"}"),
            misses: d("rvz_cache_requests_total{outcome=\"miss\"}"),
            shed: f("rvz_shed_total"),
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }

    /// Reports the counts; `joined`, `reference_lowerings` and
    /// `lowered_pieces` come from wherever the caller reads them.
    pub fn report(&self, joined: f64, lowerings: f64, pieces: f64, report: &mut Report) {
        report.metric("engine.cursor_queries", self.cursor, "count");
        report.metric("engine.kernel_queries", self.kernel, "count");
        report.metric(
            "engine.kernel_share",
            ratio(self.kernel, self.cursor + self.kernel),
            "ratio",
        );
        report.metric(
            "engine.steps_per_query",
            ratio(self.steps, self.queries),
            "steps",
        );
        report.metric(
            "engine.prune_ratio",
            ratio(self.pruned, self.envelope),
            "ratio",
        );
        report.metric("cache.hit_ratio", self.hit_ratio(), "ratio");
        report.metric("cache.joined", joined, "count");
        report.metric("programs.reference_lowerings", lowerings, "count");
        report.metric("programs.lowered_pieces", pieces, "count");
        report.metric("server.shed", self.shed, "count");
    }
}

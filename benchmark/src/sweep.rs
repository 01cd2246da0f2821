//! The sweep workload: in-process `run_sweep` with
//! `SweepOptions::default()` over the boundary-twins set.
//!
//! The untraced run measures set-up (building and checking the inputs,
//! then one warm-up sweep with a cheap scenario per algorithm, which
//! pays the executor's thread start and reference lowerings), then runs
//! the whole set repeatedly for `--seconds`. Throughput is the median
//! pass rate; per-scenario latency comes from the executor's own
//! `scenario` spans in the `rvz_obs` flight recorder. The traced run
//! reads the engine counts from the in-process registry around the
//! passes, splits executor from engine time, and replays a slice of the
//! set through the serve layers in-process and over HTTP.

use crate::client::{Series, Server};
use crate::layers::{self, Counts};
use crate::report::{median, peak_rss_mb, quantile, ratio, Report};
use crate::serve::Rounds;
use crate::workload::{boundary_twins, check_sweep, warmup_scenarios, ServeTraffic};
use rvz_experiments::{run_sweep, Scenario, SweepOptions, SweepRecord, DEFAULT_GRID};
use std::path::Path;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Passes in the traced run (counts and executor split only).
const TRACED_PASSES: usize = 2;

/// Scenarios of the set replayed through the serve layers in the traced
/// run: the first ones, which hold every class in equal numbers.
const REPLAY: usize = 48;

/// Offered rate when the replay slice is served over HTTP.
const SERVE_RATE: f64 = 16.0;

/// What the measured passes observed.
struct Passes {
    walls: Vec<f64>,
    scenario_us: Vec<f64>,
    lowerings: u64,
    missing_spans: u64,
    attempted: u64,
    failed: u64,
}

/// Runs the set until the next pass would overrun `secs` (at least
/// `min_passes` passes). Every record must be consistent with
/// Theorem 4 and identical to the first pass's.
fn passes(set: &[Scenario], secs: f64, min_passes: usize, max_passes: usize) -> Passes {
    let opts = SweepOptions::default();
    let mut out = Passes {
        walls: Vec::new(),
        scenario_us: Vec::new(),
        lowerings: 0,
        missing_spans: 0,
        attempted: 0,
        failed: 0,
    };
    let mut first: Option<Vec<SweepRecord>> = None;
    let started = Instant::now();
    while out.walls.len() < max_passes {
        let since_us = rvz_obs::now_us();
        let pass_started = Instant::now();
        let records = run_sweep(set, &opts);
        out.walls.push(pass_started.elapsed().as_secs_f64());
        let mut spans = 0;
        for event in rvz_obs::recent(rvz_obs::RING_CAPACITY) {
            if event.start_us < since_us {
                continue;
            }
            match event.name {
                "scenario" => {
                    out.scenario_us.push(event.dur_us as f64);
                    spans += 1;
                }
                "lower" => out.lowerings += 1,
                _ => {}
            }
        }
        // The flight recorder must still hold every scenario of the pass.
        out.missing_spans += set.len().abs_diff(spans) as u64;
        let reference = first.get_or_insert_with(|| records.clone());
        out.attempted += records.len() as u64;
        out.failed += records
            .iter()
            .zip(reference.iter())
            .filter(|(r, first)| !r.consistent() || r != first)
            .count() as u64;
        let elapsed = started.elapsed().as_secs_f64();
        if out.walls.len() >= min_passes && elapsed + median(&out.walls) > secs {
            break;
        }
    }
    out
}

pub fn run(seed: u64, secs: f64, trace: bool, rvz: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    let opts = SweepOptions::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut set = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        set = boundary_twins(seed);
        check_sweep(seed, &set)?;
        let warm = run_sweep(&warmup_scenarios(), &opts);
        setups.push(started.elapsed().as_secs_f64());
        if !warm.iter().all(SweepRecord::consistent) {
            return Err("warm-up sweep is inconsistent with Theorem 4".into());
        }
    }
    report.info(
        "inputs",
        format!(
            "{} scenarios, half infeasible by Theorem 4 (self-check passed)",
            set.len()
        ),
    );
    report.info(
        "sweep options",
        format!(
            "SweepOptions::default(): {} threads, horizon {}, max_steps {}, compile_pieces {}, \
             engine fingerprint {:016x}",
            opts.effective_threads(),
            opts.contact.horizon,
            opts.contact.max_steps,
            opts.compile_pieces,
            rvz_server::engine_fingerprint(DEFAULT_GRID, &opts.contact, opts.compile_pieces)
        ),
    );

    let before = Series::local();
    let run = if trace {
        passes(&set, 0.0, TRACED_PASSES, TRACED_PASSES)
    } else {
        passes(&set, secs, 5, usize::MAX)
    };
    let after = Series::local();
    report.ops(run.attempted, run.failed);
    if run.missing_spans > 0 {
        report.problem(format!(
            "{} scenario spans missing from the flight recorder",
            run.missing_spans
        ));
    }
    let pass_wall = median(&run.walls);

    if !trace {
        report.info(
            "samples",
            format!(
                "{} passes, {} scenario spans",
                run.walls.len(),
                run.scenario_us.len()
            ),
        );
        report.metric("setup_s", median(&setups), "s");
        report.metric("p50_us", quantile(&run.scenario_us, 0.5), "us");
        report.metric("p99_us", quantile(&run.scenario_us, 0.99), "us");
        report.ungated("ops_per_s", set.len() as f64 / pass_wall, "1/s");
        report.metric("peak_rss_mb", peak_rss_mb("self")?, "MB");
        return Ok(report);
    }

    // Executor split: single-threaded engine time over the whole set
    // against the threads' share of a pass. The engine timings sample
    // every fourth scenario, canonicalized as a serve miss would be.
    let canonical: Vec<Scenario> = set
        .iter()
        .step_by(4)
        .map(|s| s.canonicalize(DEFAULT_GRID).scenario)
        .collect();
    let slice: Vec<Scenario> = set[..REPLAY].to_vec();
    let traffic = ServeTraffic::once(slice);
    let requests: Vec<&[u8]> = traffic.requests.iter().map(Vec::as_slice).collect();
    let started = Instant::now();
    for s in &set {
        std::hint::black_box(layers::engine(s));
    }
    let engine_s = started.elapsed().as_secs_f64();
    report.metric(
        "executor.overhead_share",
        1.0 - ratio(engine_s, pass_wall * opts.effective_threads() as f64),
        "ratio",
    );
    let ledger = layers::replay(&requests, &[], &canonical, false, &mut report)?;
    report.ops(ledger.attempted, ledger.failed);

    // The same slice over HTTP: client latency against the in-process
    // handle time, with the replay's bodies as the oracle.
    let server = Server::spawn(rvz)?;
    let served = Rounds::open(
        &server.addr,
        &traffic,
        Some(&ledger.bodies),
        SERVE_RATE,
        REPLAY as f64 / SERVE_RATE,
        0,
    )
    .phase;
    server.shutdown()?;
    report.ops(served.sent, served.failed);
    report.metric(
        "server.transport_us",
        quantile(&served.latency_us, 0.5) - median(&ledger.handle),
        "us",
    );
    report.metric("loadgen.late_p99_us", quantile(&served.late_us, 0.99), "us");
    Counts::between(&before, &after).report(
        0.0,
        run.lowerings as f64,
        after.get("rvz_lowered_pieces_total") - before.get("rvz_lowered_pieces_total"),
        &mut report,
    );
    Ok(report)
}

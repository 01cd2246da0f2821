//! End-to-end benchmark of `rvz serve` and `rvz sweep` at default flags.
//!
//! ```text
//! bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads (see `README.md` for why each exists):
//!
//! * `serve_hot_orbits` — an out-of-process `rvz serve --port 0` answers
//!   `POST /first-contact` over a small seeded set of orbits, each sent
//!   under both role-swap descriptions and touched once before timing;
//! * `serve_cold_misses` — the same server, every request a fresh,
//!   distinct, feasible Latin-hypercube scenario over both algorithms;
//! * `sweep_boundary_twins` — in-process `run_sweep` with
//!   `SweepOptions::default()` over a seeded set that is half exact or
//!   mirror twins and half feasible pairs within a few percent of `v = 1`
//!   or `τ = 1`.
//!
//! With `--trace 0` the run prints the end-to-end metrics (`setup_s`,
//! `p50_us`, `p99_us`, `ops_per_s`, `peak_rss_mb`; the error rate is the
//! `failed / attempted` pair). With `--trace 1` it prints the per-layer
//! ledger instead: each layer timed from outside by calling its public
//! function on the workload's own requests, plus the engine, cache and
//! server counts read after the run. The last stdout line is one JSON
//! object; every output is checked, and a wrong answer exits non-zero.

mod client;
mod layers;
mod report;
mod serve;
mod sweep;
mod workload;

use report::Report;
use std::path::PathBuf;
use workload::Workload;

const USAGE: &str = "\
USAGE:
  rvz-e2e-bench --workload NAME --seed N --seconds S --trace 0|1

WORKLOADS: serve_hot_orbits, serve_cold_misses, sweep_boundary_twins
The `rvz` binary is taken from $RVZ_BIN (benchmark/run.sh builds it).
Engine and server flags are refused: rvz always runs at default flags.";

/// `rvz serve` / `rvz sweep` flags that change what the engine computes
/// or how the server admits load. Passing one would measure something
/// other than the default-flag path, so the benchmark refuses it.
const ENGINE_FLAGS: &[&str] = &[
    "horizon-rounds",
    "max-steps",
    "no-prune",
    "compile-budget",
    "sweep-threads",
    "threads",
    "cache-grid",
    "cache-capacity",
    "no-cache",
    "deadline-ms",
    "max-inflight",
    "queue-depth",
    "workers",
    "faults",
    "no-metrics",
    "dedup-orbits",
];

/// Checked command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        if ENGINE_FLAGS.contains(&name) {
            return Err(format!(
                "refusing engine flag `{flag}`: the benchmark runs rvz at default flags"
            ));
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` expects a whole number, got `{value}`"))
        };
        match name {
            "workload" => workload = Some(Workload::parse(&value)?),
            "seed" => seed = Some(number()?),
            "seconds" => seconds = Some(number()?),
            "trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.unwrap_or(30);
    if !(4..=600).contains(&seconds) {
        return Err("`--seconds` must be in 4..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: match trace.unwrap_or(0) {
            0 => false,
            1 => true,
            other => return Err(format!("`--trace` expects 0 or 1, got `{other}`")),
        },
    })
}

fn run(args: &Args) -> Result<Report, String> {
    let rvz = std::env::var_os("RVZ_BIN")
        .map(PathBuf::from)
        .ok_or("RVZ_BIN is not set (run through benchmark/run.sh)")?;
    if !rvz.is_file() {
        return Err(format!("RVZ_BIN `{}` is not a file", rvz.display()));
    }
    let secs = args.seconds as f64;
    match args.workload {
        Workload::BoundaryTwins => sweep::run(args.seed, secs, args.trace, &rvz),
        serve_workload => serve::run(serve_workload, args.seed, secs, args.trace, &rvz),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rvz-e2e-bench: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(args.workload.name(), args.seed, args.trace);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("rvz-e2e-bench: {e}");
            std::process::exit(1);
        }
    }
}

//! Seeded workload inputs and the self-checks that pin each workload to
//! its traffic class before anything is timed.

use rvz_experiments::{
    latin_hypercube, Algorithm, CacheKey, SampleSpace, Scenario, SplitMix64, DEFAULT_GRID,
};
use rvz_model::{feasibility, Chirality};
use std::collections::HashSet;
use std::f64::consts::TAU;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotOrbits,
    ColdMisses,
    BoundaryTwins,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "serve_hot_orbits" => Ok(Workload::HotOrbits),
            "serve_cold_misses" => Ok(Workload::ColdMisses),
            "sweep_boundary_twins" => Ok(Workload::BoundaryTwins),
            other => Err(format!(
                "unknown workload `{other}` \
                 (expected serve_hot_orbits|serve_cold_misses|sweep_boundary_twins)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotOrbits => "serve_hot_orbits",
            Workload::ColdMisses => "serve_cold_misses",
            Workload::BoundaryTwins => "sweep_boundary_twins",
        }
    }
}

/// Orbits in the hot set; each is sent under both role-swap
/// descriptions, so the hot traffic has `2 * HOT_ORBITS` distinct bodies.
const HOT_ORBITS: usize = 16;

/// Scenarios in the sweep set: a quarter each of mirror twins, exact
/// twins, speed-broken and clock-broken near-boundary pairs.
const SWEEP_SET: usize = 800;

/// How far from `1` the near-boundary pairs put `v` or `τ`.
const NEAR_BOUNDARY: (f64, f64) = (0.03, 0.08);

/// The `POST /first-contact` body for a scenario. Floats print in their
/// shortest round-trip form, so the server parses back the exact bits.
fn body(s: &Scenario) -> String {
    format!(
        concat!(
            "{{\"algorithm\":\"{}\",\"speed\":{},\"time_unit\":{},\"orientation\":{},",
            "\"chirality\":\"{}\",\"distance\":{},\"bearing\":{},\"visibility\":{}}}"
        ),
        s.algorithm,
        s.speed,
        s.time_unit,
        s.orientation,
        s.chirality,
        s.distance,
        s.bearing,
        s.visibility
    )
}

/// The full wire bytes of a `POST /first-contact` request.
pub fn first_contact_request(s: &Scenario) -> Vec<u8> {
    let body = body(s);
    format!(
        "POST /first-contact HTTP/1.1\r\nHost: rvz\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn canonical_key(s: &Scenario) -> CacheKey {
    s.canonicalize(DEFAULT_GRID).key
}

/// The warm-up miss sent once per algorithm while a server is set up:
/// a cheap feasible pair, so set-up time is dominated by what the first
/// miss of each algorithm pays (the reference lowering), not by a chase.
pub fn warmup_scenarios() -> [Scenario; 2] {
    let alg7 = Scenario {
        id: 0,
        algorithm: Algorithm::WaitAndSearch,
        speed: 0.5,
        time_unit: 1.0,
        orientation: 0.0,
        chirality: Chirality::Consistent,
        distance: 0.9,
        bearing: 0.0,
        visibility: 0.25,
    };
    let alg4 = Scenario {
        algorithm: Algorithm::UniversalSearch,
        ..alg7
    };
    [alg7, alg4]
}

/// Where serve traffic puts its symmetry breaker: `v` or `τ` is drawn
/// from `[0.25, 2)` minus the band `[1 − GAP, 1 + GAP)` around 1. Pairs
/// inside the band chase for orders of magnitude longer; they are the
/// sweep workload's subject, and a handful of them would set the cold
/// workload's tail on their own.
const SERVE_GAP: f64 = 0.2;

/// Maps `x ∈ [0.25, 2 − 2·SERVE_GAP)` onto `[0.25, 2)` with the band
/// around 1 cut out, keeping the Latin-hypercube strata.
fn away_from_one(x: f64) -> f64 {
    if x < 1.0 - SERVE_GAP {
        x
    } else {
        x + 2.0 * SERVE_GAP
    }
}

/// `n` feasible Latin-hypercube scenarios over both algorithms, with
/// the symmetry breaker away from 1. Algorithm 4 is pinned to `τ = 1`,
/// the regime in which it is correct (Theorem 2), and breaks symmetry by
/// speed; Algorithm 7 breaks it by clock. [`check_serve`] checks
/// feasibility.
fn feasible_lhs(n: usize, seed: u64) -> Vec<Scenario> {
    let breaker = (0.25, 2.0 - 2.0 * SERVE_GAP);
    let space = SampleSpace {
        speed: breaker,
        time_unit: breaker,
        algorithms: Algorithm::ALL.to_vec(),
        ..SampleSpace::default()
    };
    latin_hypercube(&space, n, seed)
        .into_iter()
        .map(|s| match s.algorithm {
            Algorithm::UniversalSearch => Scenario {
                speed: away_from_one(s.speed),
                time_unit: 1.0,
                ..s
            },
            Algorithm::WaitAndSearch => Scenario {
                time_unit: away_from_one(s.time_unit),
                ..s
            },
        })
        .collect()
}

/// The request stream of a serve workload.
pub struct ServeTraffic {
    /// Distinct request scenarios.
    pub scenarios: Vec<Scenario>,
    /// Their wire bytes, index-aligned with `scenarios`.
    pub requests: Vec<Vec<u8>>,
    /// Hot traffic cycles through `order`; cold traffic walks the pool
    /// once and never repeats a request.
    order: Option<Vec<usize>>,
}

impl ServeTraffic {
    /// Builds the traffic for `workload` from `seed`. `pool` is the cold
    /// pool size (ignored for the hot workload).
    pub fn build(workload: Workload, seed: u64, pool: usize) -> ServeTraffic {
        let (scenarios, order) = match workload {
            Workload::HotOrbits => {
                let mut scenarios = Vec::with_capacity(2 * HOT_ORBITS);
                for orbit in feasible_lhs(HOT_ORBITS, seed) {
                    let (twin, _) = orbit.role_swap();
                    scenarios.push(orbit);
                    scenarios.push(twin);
                }
                let mut order: Vec<usize> = (0..scenarios.len()).collect();
                SplitMix64::new(seed).split(7).shuffle(&mut order);
                (scenarios, Some(order))
            }
            Workload::ColdMisses => (feasible_lhs(pool, seed), None),
            Workload::BoundaryTwins => unreachable!("the sweep workload runs in-process"),
        };
        ServeTraffic {
            order,
            ..ServeTraffic::once(scenarios)
        }
    }

    /// Each scenario sent once, in order.
    pub fn once(scenarios: Vec<Scenario>) -> ServeTraffic {
        let requests = scenarios.iter().map(first_contact_request).collect();
        ServeTraffic {
            scenarios,
            requests,
            order: None,
        }
    }

    /// The request index of the `g`-th request sent, or `None` once a
    /// non-repeating pool is exhausted.
    pub fn pick(&self, g: u64) -> Option<usize> {
        let g = usize::try_from(g).ok()?;
        match &self.order {
            Some(order) => Some(order[g % order.len()]),
            None => (g < self.requests.len()).then_some(g),
        }
    }

    /// Digest of every request byte (recorded with the run).
    pub fn digest(&self) -> u64 {
        fnv1a(self.requests.iter().flatten())
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The self-check a serve workload must pass before timing: the seed
/// reproduces the bytes, every scenario is feasible, and the traffic
/// maps to exactly the canonical keys its class promises — `K` keys
/// (both descriptions of an orbit sharing one) for hot traffic, one
/// distinct key per request for cold traffic, and none shared with the
/// set-up warm-up misses.
pub fn check_serve(workload: Workload, seed: u64, traffic: &ServeTraffic) -> Result<(), String> {
    let again = ServeTraffic::build(workload, seed, traffic.requests.len());
    if again.requests != traffic.requests {
        return Err("the same seed produced different request bytes".into());
    }
    if let Some(s) = traffic
        .scenarios
        .iter()
        .find(|s| !feasibility(&s.attributes()).is_feasible())
    {
        return Err(format!("infeasible scenario in serve traffic: {}", body(s)));
    }
    let keys: HashSet<CacheKey> = traffic.scenarios.iter().map(canonical_key).collect();
    let expected = match workload {
        Workload::HotOrbits => {
            for pair in traffic.scenarios.chunks(2) {
                if canonical_key(&pair[0]) != canonical_key(&pair[1]) {
                    return Err(format!(
                        "role-swap descriptions map to different keys: {}",
                        body(&pair[0])
                    ));
                }
            }
            HOT_ORBITS
        }
        _ => traffic.scenarios.len(),
    };
    if keys.len() != expected {
        return Err(format!(
            "{} traffic maps to {} canonical keys, expected {expected}",
            workload.name(),
            keys.len()
        ));
    }
    if warmup_scenarios()
        .iter()
        .any(|w| keys.contains(&canonical_key(w)))
    {
        return Err("workload traffic shares a key with the set-up warm-up".into());
    }
    Ok(())
}

/// The sweep set: mirror twins (`χ = −1`, bearing `φ/2`), exact twins
/// (`χ = +1`, `φ = 0`), and feasible pairs with `v` (both algorithms,
/// `τ = 1`) or `τ` (Algorithm 7, `v = 1`) within [`NEAR_BOUNDARY`] of 1,
/// interleaved so every prefix holds all four classes.
pub fn boundary_twins(seed: u64) -> Vec<Scenario> {
    let quarter = SWEEP_SET / 4;
    let space = SampleSpace {
        // `speed` carries the distance from the boundary; `orientation`
        // stays clear of 0 so mirror twins are not also exact twins.
        speed: NEAR_BOUNDARY,
        orientation: (0.3, TAU - 0.3),
        algorithms: Algorithm::ALL.to_vec(),
        ..SampleSpace::default()
    };
    let classes: Vec<Vec<Scenario>> = (0..4u64)
        .map(|class| latin_hypercube(&space, quarter, seed.wrapping_mul(4).wrapping_add(class)))
        .collect();
    let mut set = Vec::with_capacity(SWEEP_SET);
    for i in 0..quarter {
        for (class, draws) in classes.iter().enumerate() {
            let d = draws[i];
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            let s = match class {
                0 => Scenario {
                    speed: 1.0,
                    time_unit: 1.0,
                    chirality: Chirality::Mirrored,
                    bearing: d.orientation / 2.0,
                    ..d
                },
                1 => Scenario {
                    speed: 1.0,
                    time_unit: 1.0,
                    orientation: 0.0,
                    chirality: Chirality::Consistent,
                    ..d
                },
                2 => Scenario {
                    speed: 1.0 + sign * d.speed,
                    time_unit: 1.0,
                    ..d
                },
                _ => Scenario {
                    algorithm: Algorithm::WaitAndSearch,
                    speed: 1.0,
                    time_unit: 1.0 + sign * d.speed,
                    ..d
                },
            };
            set.push(Scenario {
                id: set.len() as u64,
                ..s
            });
        }
    }
    set
}

/// The sweep self-check: the seed reproduces the set bit for bit and
/// exactly half of it is infeasible by Theorem 4.
pub fn check_sweep(seed: u64, set: &[Scenario]) -> Result<(), String> {
    if boundary_twins(seed) != set {
        return Err("the same seed produced a different sweep set".into());
    }
    let infeasible = set
        .iter()
        .filter(|s| !feasibility(&s.attributes()).is_feasible())
        .count();
    if 2 * infeasible != set.len() {
        return Err(format!(
            "sweep set is {infeasible}/{} infeasible, expected exactly half",
            set.len()
        ));
    }
    Ok(())
}

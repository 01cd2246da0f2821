//! Run reports and the small statistics they need.

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output matched its oracle and every workload check held.
    pub correct: bool,
    /// Operations attempted in the measured phases (requests or
    /// scenario runs).
    pub attempted: u64,
    /// Operations that failed: non-200 responses, transport errors,
    /// and answers that disagree with their oracle.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Figures printed in the table but left out of the JSON result:
    /// measured, but too unsteady on this class of host to gate a change.
    pub ungated: Vec<(&'static str, f64, &'static str)>,
    /// Run facts recorded beside the metrics (argv, build, checks).
    pub info: Vec<(&'static str, String)>,
    /// Why `correct` is false, one line each.
    pub problems: Vec<String>,
}

impl Report {
    /// A report with nothing measured yet.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.problem(format!("metric {name} is not a finite number ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    pub fn ungated(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.ungated.push((name, value, unit));
    }

    pub fn info(&mut self, key: &'static str, value: impl Into<String>) {
        self.info.push((key, value.into()));
    }

    /// Records a failed check; the run then exits non-zero.
    pub fn problem(&mut self, message: impl Into<String>) {
        self.correct = false;
        self.problems.push(message.into());
    }

    /// Counts operations and their failures.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problem(format!("{failed} of {attempted} operations failed"));
        }
    }

    /// Prints the human-readable table, then the JSON result as the
    /// last stdout line.
    pub fn print(&self, workload: &str, seed: u64, trace: bool) {
        println!(
            "workload {workload} (seed {seed}, trace {})",
            u8::from(trace)
        );
        for (key, value) in &self.info {
            println!("  {key}: {value}");
        }
        for (name, value, unit) in &self.metrics {
            println!("  {name:<32} {value:>14.3} {unit}");
        }
        for (name, value, unit) in &self.ungated {
            println!("  {name:<32} {value:>14.3} {unit} (not gated)");
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<32} {error_rate:>14.6} ({} failed of {} attempted)",
            "error_rate", self.failed, self.attempted
        );
        for problem in &self.problems {
            println!("  FAILED CHECK: {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, value, _)| value.is_finite())
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values` by linear interpolation
/// between order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or `0` when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set size of a process in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

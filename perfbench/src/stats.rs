//! Sample summaries and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Value at quantile `q` (0..=1) of `samples`, linearly interpolated
/// between the closest ranks. NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Events per second: the median over `slices` equal slices of
/// `[start, start + length)` of the events that fall in each slice. A
/// median of slices shrugs off a burst of CPU stolen from the host.
pub fn slice_rate(at: &[Instant], start: Instant, length: Duration, slices: u32) -> f64 {
    let width = length / slices;
    let mut counts = vec![0f64; slices as usize];
    for t in at {
        if let Some(since) = t.checked_duration_since(start) {
            let slice = (since.as_nanos() / width.as_nanos().max(1)) as usize;
            if let Some(c) = counts.get_mut(slice) {
                *c += 1.0;
            }
        }
    }
    median(&counts) / width.as_secs_f64()
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record (or overwrite) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    /// Human-readable table, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.entries {
            let _ = writeln!(out, "  {name:<28} {value:>14.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": v, "unit": u}}}`. A value that is not
    /// finite is written as `null` so the line always parses.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
            let _ = write!(metrics, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{metrics}}}}}"
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

//! Small numeric helpers: percentiles, medians, timing and memory readings.

use std::time::{Duration, Instant};

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of two positive numbers.
pub fn geomean(a: f64, b: f64) -> f64 {
    (a * b).sqrt()
}

/// Timed set-up repetitions spread over a run. The first is taken at once;
/// the others fall due at even steps of the run's length, and the run
/// takes each between two of its operations. Repetitions in a row can all
/// land in one slow or fast stretch of a shared host; spread over the run,
/// their median covers all of it.
pub struct Spread {
    start: Instant,
    step: Duration,
    times: usize,
    secs: Vec<f64>,
}

impl Spread {
    /// Time `first`, the first of `times` repetitions to spread over `over`,
    /// and return its result.
    pub fn new<T>(
        times: usize,
        over: Duration,
        first: impl FnOnce() -> Result<T, String>,
    ) -> Result<(Self, T), String> {
        let mut spread = Spread {
            start: Instant::now(),
            step: over / times.max(1) as u32,
            times,
            secs: Vec::with_capacity(times),
        };
        let out = spread.time(first)?;
        Ok((spread, out))
    }

    /// When the next repetition falls due, if any is left.
    pub fn next_due(&self) -> Option<Instant> {
        (self.secs.len() < self.times).then(|| self.start + self.step * self.secs.len() as u32)
    }

    /// Time `f` if the next repetition is due.
    pub fn poll<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if self.next_due().is_some_and(|due| Instant::now() >= due) {
            self.time(f)?;
        }
        Ok(())
    }

    fn time<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let begin = Instant::now();
        let out = f()?;
        self.secs.push(begin.elapsed().as_secs_f64());
        Ok(out)
    }

    /// Median of the repetitions taken, in seconds.
    pub fn median(&self) -> f64 {
        median(&self.secs)
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or `NaN` when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }
}

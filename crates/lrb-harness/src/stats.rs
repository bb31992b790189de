//! Summary statistics for experiment measurements.

use lrb_obs::HistogramSnapshot;

/// Online-free summary of a sample of `f64` measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected; 0 for n < 2).
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarize a sample. Empty samples yield all-zero summaries.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
                median: 0.0,
                p95: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in measurements"));
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        }
    }

    /// Half-width of a ~95% normal confidence interval for the mean.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev / (self.n as f64).sqrt()
    }

    /// Summarize an [`lrb_obs`] log2-bucketed histogram (e.g. the engine's
    /// per-item solve latencies).
    ///
    /// `n`, `mean`, `min`, and `max` are exact (the snapshot tracks count,
    /// sum, and extrema); `median`, `p95`, and `stddev` are bucket-resolution
    /// estimates built from each bucket's representative value, so they are
    /// accurate to within a factor of 2.
    pub fn of_histogram(h: &HistogramSnapshot) -> Summary {
        if h.count == 0 {
            return Summary::of(&[]);
        }
        let n = h.count as usize;
        let mean = h.sum as f64 / h.count as f64;
        // Expand buckets into representative values for the estimates.
        let mut reps: Vec<f64> = Vec::with_capacity(n.min(1 << 20));
        for (i, &c) in h.buckets.iter().enumerate() {
            let rep = bucket_representative(i).clamp(h.min as f64, h.max as f64);
            for _ in 0..c {
                reps.push(rep);
            }
        }
        reps.sort_by(|a, b| a.partial_cmp(b).expect("representatives are finite"));
        let var = if n > 1 {
            reps.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            stddev: var.sqrt(),
            min: h.min as f64,
            max: h.max as f64,
            median: percentile_sorted(&reps, 50.0),
            p95: percentile_sorted(&reps, 95.0),
        }
    }
}

/// Midpoint of log2 bucket `i`: bucket 0 holds the value 0, bucket `i >= 1`
/// holds `[2^(i-1), 2^i)`.
fn bucket_representative(i: usize) -> f64 {
    match i {
        0 => 0.0,
        _ => {
            let lo = (1u128 << (i - 1)) as f64;
            let hi = (1u128 << i) as f64;
            (lo + hi) / 2.0
        }
    }
}

/// Percentile of an already-sorted sample (nearest-rank with linear
/// interpolation).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Geometric mean (for ratio aggregation; all values must be positive).
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.n, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert!((s.stddev - (2.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(Summary::of(&[]).n, 0);
        let s = Summary::of(&[7.0]);
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 4.0);
        assert!((percentile_sorted(&v, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn geo_mean_of_ratios() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geo_mean_rejects_nonpositive() {
        geo_mean(&[1.0, 0.0]);
    }

    #[test]
    fn summary_of_recorded_histogram() {
        use lrb_obs::{AtomicRecorder, Tracer};
        let rec = AtomicRecorder::new();
        for v in [1u64, 2, 4, 100, 1000] {
            rec.observe("cell_nanos", v);
        }
        let snap = rec.snapshot();
        let h = snap.histogram("cell_nanos").unwrap();
        let s = Summary::of_histogram(h);
        assert_eq!(s.n, 5);
        assert!((s.mean - 1107.0 / 5.0).abs() < 1e-9, "mean is exact");
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // Bucket-resolution estimates: within a factor of 2 of the truth.
        assert!(s.median >= 2.0 && s.median <= 8.0, "median {}", s.median);
        assert!(s.p95 >= 512.0 && s.p95 <= 1024.0, "p95 {}", s.p95);
    }

    #[test]
    fn summary_of_empty_histogram() {
        let h = lrb_obs::HistogramSnapshot {
            name: "empty".into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            buckets: vec![],
        };
        assert_eq!(Summary::of_histogram(&h).n, 0);
    }
}

//! Latency statistics: mean, percentiles, CDFs.

use rsm_core::time::Micros;

/// A collection of latency samples with the aggregates the paper reports:
/// average, 95th percentile (the lines atop the bars in Figures 1, 2, 5),
/// and full CDFs (Figures 3, 4, 6).
///
/// # Examples
///
/// ```
/// use harness::LatencyStats;
/// let mut s = LatencyStats::new();
/// for v in [10_000, 20_000, 30_000, 40_000] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean_ms(), 25.0);
/// assert_eq!(s.percentile_ms(50.0), 20.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples: Vec<Micros>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample in microseconds.
    pub fn record(&mut self, micros: Micros) {
        self.samples.push(micros);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<Micros>() as f64 / self.samples.len() as f64 / 1_000.0
    }

    /// The `p`-th percentile (0 < p ≤ 100) in milliseconds, using the
    /// nearest-rank method. Returns 0 when empty.
    pub fn percentile_ms(&mut self, p: f64) -> f64 {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let rank = ((p / 100.0) * self.samples.len() as f64).ceil() as usize;
        self.samples[rank.saturating_sub(1)] as f64 / 1_000.0
    }

    /// Median latency in milliseconds (0 when empty).
    pub fn p50_ms(&mut self) -> f64 {
        self.percentile_ms(50.0)
    }

    /// 99th-percentile latency in milliseconds (0 when empty).
    pub fn p99_ms(&mut self) -> f64 {
        self.percentile_ms(99.0)
    }

    /// The empirical CDF evaluated at `points` evenly spaced quantiles:
    /// returns `(latency_ms, cumulative_fraction)` pairs suitable for
    /// plotting Figures 3, 4, and 6.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "a CDF needs at least two points");
        if self.samples.is_empty() {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = self.samples.len();
        (0..points)
            .map(|i| {
                let frac = i as f64 / (points - 1) as f64;
                let idx = ((frac * (n - 1) as f64).round()) as usize;
                (self.samples[idx] as f64 / 1_000.0, frac)
            })
            .collect()
    }

    /// The raw samples (microseconds, insertion order not preserved after
    /// aggregate queries).
    pub fn samples(&self) -> &[Micros] {
        &self.samples
    }

    /// Merges another collection into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(values: &[Micros]) -> LatencyStats {
        let mut s = LatencyStats::new();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn mean_and_percentiles() {
        let mut s = filled(&[1_000, 2_000, 3_000, 4_000, 5_000]);
        assert_eq!(s.mean_ms(), 3.0);
        assert_eq!(s.percentile_ms(50.0), 3.0);
        assert_eq!(s.percentile_ms(95.0), 5.0);
        assert_eq!(s.percentile_ms(100.0), 5.0);
    }

    #[test]
    fn p95_of_hundred_samples() {
        let mut s = filled(&(1..=100).map(|i| i * 1_000).collect::<Vec<_>>());
        assert_eq!(s.percentile_ms(95.0), 95.0);
        assert_eq!(s.percentile_ms(99.0), 99.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let mut s = LatencyStats::new();
        assert_eq!(s.mean_ms(), 0.0);
        assert_eq!(s.percentile_ms(95.0), 0.0);
        assert!(s.is_empty());
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn cdf_is_monotonic() {
        let mut s = filled(&[5_000, 1_000, 3_000, 2_000, 4_000, 9_000]);
        let cdf = s.cdf(11);
        assert_eq!(cdf.len(), 11);
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        assert_eq!(cdf.first().unwrap().0, 1.0);
        assert_eq!(cdf.last().unwrap().0, 9.0);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = filled(&[1_000]);
        let b = filled(&[3_000]);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean_ms(), 2.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_zero_rejected() {
        filled(&[1]).percentile_ms(0.0);
    }
}

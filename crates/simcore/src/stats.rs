//! Statistics over simulation measurements.
//!
//! The evaluation reports means, medians, tail percentiles and full CDFs
//! of durations. This module provides those over plain `f64` samples plus
//! convenience wrappers for [`SimDuration`].

use crate::time::SimDuration;

/// A growable collection of samples supporting summary queries.
///
/// Percentile queries sort a copy lazily and cache it; pushing new samples
/// invalidates the cache.
///
/// # Examples
///
/// ```
/// use lina_simcore::Samples;
///
/// let mut s = Samples::from_values(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(s.median(), 2.5);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: Option<Vec<f64>>,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a collection from existing values.
    pub fn from_values(values: Vec<f64>) -> Self {
        Samples {
            values,
            sorted: None,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        debug_assert!(
            value.is_finite(),
            "Samples::push: non-finite sample {value}"
        );
        self.values.push(value);
        self.sorted = None;
    }

    /// Adds a duration sample in seconds.
    pub fn push_duration(&mut self, d: SimDuration) {
        self.push(d.as_secs_f64());
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw sample values in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Arithmetic mean; 0 for an empty collection.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Minimum sample; 0 for an empty collection.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample; 0 for an empty collection.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Sum of samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&mut self) -> &[f64] {
        if self.sorted.is_none() {
            let mut s = self.values.clone();
            s.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = Some(s);
        }
        self.sorted.as_deref().expect("just populated")
    }

    /// Percentile `p` in [0, 100] with linear interpolation between order
    /// statistics; 0 for an empty collection.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside [0, 100].
    pub fn percentile(&mut self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile: p out of range {p}");
        let s = self.sorted();
        if s.is_empty() {
            return 0.0;
        }
        if s.len() == 1 {
            return s[0];
        }
        let rank = p / 100.0 * (s.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            s[lo]
        } else {
            let frac = rank - lo as f64;
            s[lo] * (1.0 - frac) + s[hi] * frac
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> f64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> f64 {
        self.percentile(99.0)
    }

    /// Builds an empirical CDF with `points` evenly spaced probability
    /// levels (plus the max), as `(value, cumulative_probability)` pairs.
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        let s = self.sorted();
        if s.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = s.len();
        let mut out = Vec::with_capacity(points);
        for i in 1..=points {
            let q = i as f64 / points as f64;
            let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
            out.push((s[idx], q));
        }
        out
    }
}

/// Computes the geometric mean of strictly positive values; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean: non-positive value {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_samples_are_zeroed() {
        let mut s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn basic_summary() {
        let mut s = Samples::from_values(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.median() - 3.0).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn percentile_interpolates() {
        let mut s = Samples::from_values(vec![10.0, 20.0]);
        assert!((s.percentile(50.0) - 15.0).abs() < 1e-12);
        assert!((s.percentile(25.0) - 12.5).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 20.0);
    }

    #[test]
    fn percentiles_monotone() {
        let mut s = Samples::from_values((0..100).map(|i| (i * i) as f64).collect());
        let mut last = f64::NEG_INFINITY;
        for p in 0..=100 {
            let v = s.percentile(p as f64);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn push_invalidates_cache() {
        let mut s = Samples::from_values(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.median(), 2.0);
        s.push(100.0);
        assert!((s.median() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_max() {
        let mut s = Samples::from_values(vec![3.0, 1.0, 2.0, 5.0, 4.0]);
        let cdf = s.cdf(5);
        assert_eq!(cdf.len(), 5);
        for w in cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 > w[0].1);
        }
        assert_eq!(cdf.last().expect("nonempty").0, 5.0);
        assert!((cdf.last().expect("nonempty").1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_samples() {
        let mut s = Samples::new();
        s.push_duration(SimDuration::from_millis(10));
        s.push_duration(SimDuration::from_millis(20));
        assert!((s.mean() - 0.015).abs() < 1e-12);
    }
}

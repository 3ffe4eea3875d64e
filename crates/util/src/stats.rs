//! Summary statistics for experiment reporting.

/// Accumulated summary of a sample of `f64` observations.
///
/// Built either incrementally via [`Summary::push`] or in one shot with
/// [`Summary::from_slice`]. Percentiles use the nearest-rank method on a
/// sorted copy of the data (the sample sizes in this workspace are small
/// enough that keeping the observations is cheap and exact).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a summary from a slice of observations.
    #[must_use]
    pub fn from_slice(values: &[f64]) -> Self {
        let mut s = Self::new();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Adds one observation. Non-finite values are ignored (they would poison
    /// every aggregate); callers that care should validate before pushing.
    pub fn push(&mut self, value: f64) {
        if value.is_finite() {
            self.values.push(value);
        }
    }

    /// Number of (finite) observations recorded.
    #[must_use]
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Arithmetic mean, or `None` for an empty summary.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.sum() / self.values.len() as f64)
        }
    }

    /// Minimum observation.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum observation.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Sample standard deviation (Bessel-corrected). `None` when fewer than
    /// two observations are available.
    #[cfg(test)]
    #[must_use]
    pub fn std_dev(&self) -> Option<f64> {
        let n = self.values.len();
        if n < 2 {
            return None;
        }
        let mean = self.mean()?;
        let var = self.values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        Some(var.sqrt())
    }

    /// Percentile in `[0, 100]` via nearest-rank on sorted data.
    ///
    /// Returns `None` for an empty summary or an out-of-range `p`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() || !(0.0..=100.0).contains(&p) {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare totally"));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// Median (50th percentile).
    #[must_use]
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_yields_none() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
        assert!(s.std_dev().is_none());
        assert!(s.median().is_none());
    }

    #[test]
    fn basic_aggregates() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 10.0);
        assert_eq!(s.mean(), Some(2.5));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(4.0));
        let sd = s.std_dev().unwrap();
        assert!((sd - 1.2909944487).abs() < 1e-9);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = Summary::from_slice(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.percentile(0.0), Some(10.0));
        assert_eq!(s.percentile(20.0), Some(10.0));
        assert_eq!(s.percentile(50.0), Some(30.0));
        assert_eq!(s.percentile(100.0), Some(50.0));
        assert!(s.percentile(101.0).is_none());
        assert!(s.percentile(-1.0).is_none());
    }

    #[test]
    fn non_finite_values_ignored() {
        let mut s = Summary::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(2.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), Some(2.0));
    }

    #[test]
    fn single_value_std_dev_is_none() {
        let s = Summary::from_slice(&[5.0]);
        assert!(s.std_dev().is_none());
        assert_eq!(s.median(), Some(5.0));
    }
}

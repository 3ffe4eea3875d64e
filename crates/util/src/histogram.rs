//! Integer histograms.
//!
//! Used for cluster-size distributions (Figure 10) and per-iteration pair
//! counts (Figures 13/14). Keys are `usize` buckets; values are counts.

use crate::FxHashMap;

/// A sparse histogram over non-negative integer buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: FxHashMap<usize, u64>,
}

impl Histogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments the count for `bucket` by one.
    pub fn record(&mut self, bucket: usize) {
        *self.counts.entry(bucket).or_insert(0) += 1;
    }

    /// Count stored for `bucket` (zero if never recorded).
    #[must_use]
    pub fn count(&self, bucket: usize) -> u64 {
        self.counts.get(&bucket).copied().unwrap_or(0)
    }

    /// Total number of recorded observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct buckets with a non-zero count.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.counts.len()
    }

    /// Largest bucket with a non-zero count.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.keys().copied().max()
    }

    /// `(bucket, count)` pairs sorted by bucket, for stable reporting.
    #[must_use]
    pub fn sorted_entries(&self) -> Vec<(usize, u64)> {
        let mut entries: Vec<(usize, u64)> = self.counts.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(bucket, _)| bucket);
        entries
    }

    /// Weighted sum `Σ bucket · count` — e.g. total objects when buckets are
    /// cluster sizes and counts are numbers of clusters.
    #[must_use]
    pub fn weighted_total(&self) -> u64 {
        self.counts.iter().map(|(&b, &c)| b as u64 * c).sum()
    }
}

impl FromIterator<usize> for Histogram {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut h = Histogram::new();
        for bucket in iter {
            h.record(bucket);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut h = Histogram::new();
        h.record(3);
        h.record(3);
        h.record(7);
        assert_eq!(h.count(3), 2);
        assert_eq!(h.count(7), 1);
        assert_eq!(h.count(5), 0);
        assert_eq!(h.total(), 3);
        assert_eq!(h.num_buckets(), 2);
        assert_eq!(h.max_bucket(), Some(7));
    }

    #[test]
    fn sorted_entries_and_weighted_total() {
        let h: Histogram = vec![2, 2, 2, 102, 1].into_iter().collect();
        assert_eq!(h.sorted_entries(), vec![(1, 1), (2, 3), (102, 1)]);
        // 1*1 + 2*3 + 102*1 = 109 objects in total.
        assert_eq!(h.weighted_total(), 109);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.max_bucket(), None);
        assert!(h.sorted_entries().is_empty());
    }
}

//! Labeling outcomes.

use crate::types::{Label, LabeledPair, Pair, Provenance};
use crowdjoin_util::FxHashMap;

/// The outcome of running a labeler over a candidate set: a label for every
/// pair plus provenance and cost accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LabelingResult {
    labels: FxHashMap<Pair, (Label, Provenance)>,
    in_order: Vec<LabeledPair>,
    crowdsourced: usize,
    deduced: usize,
    conflicts: usize,
}

impl LabelingResult {
    /// Creates an empty result. Public so external drivers (e.g. a custom
    /// crowd-platform integration) can build results through [`Self::record`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one labeled pair.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the pair was already recorded.
    pub fn record(&mut self, pair: Pair, label: Label, provenance: Provenance) {
        let prev = self.labels.insert(pair, (label, provenance));
        debug_assert!(prev.is_none(), "pair {pair} labeled twice");
        self.in_order.push(LabeledPair { pair, label, provenance });
        match provenance {
            Provenance::Crowdsourced => self.crowdsourced += 1,
            Provenance::Deduced => self.deduced += 1,
        }
    }

    /// Counts a crowd answer that contradicted an existing deduction.
    pub fn record_conflict(&mut self) {
        self.conflicts += 1;
    }

    /// The label assigned to `pair`, if it was part of the candidate set.
    #[must_use]
    pub fn label_of(&self, pair: Pair) -> Option<Label> {
        self.labels.get(&pair).map(|&(l, _)| l)
    }

    /// The provenance of `pair`'s label, if labeled.
    #[must_use]
    pub fn provenance_of(&self, pair: Pair) -> Option<Provenance> {
        self.labels.get(&pair).map(|&(_, p)| p)
    }

    /// All labeled pairs in the order they were resolved.
    #[must_use]
    pub fn labeled_pairs(&self) -> &[LabeledPair] {
        &self.in_order
    }

    /// Number of pairs answered by the crowd/oracle — the money cost, and
    /// the quantity every experiment in the paper minimizes.
    #[must_use]
    pub fn num_crowdsourced(&self) -> usize {
        self.crowdsourced
    }

    /// Number of pairs whose label was deduced for free.
    #[must_use]
    pub fn num_deduced(&self) -> usize {
        self.deduced
    }

    /// Total pairs labeled.
    #[must_use]
    pub fn num_labeled(&self) -> usize {
        self.in_order.len()
    }

    /// Number of crowd answers that contradicted an existing deduction (only
    /// possible with noisy answer sources); the deduced label wins in that
    /// case and the crowd answer is discarded.
    #[must_use]
    pub fn num_conflicts(&self) -> usize {
        self.conflicts
    }

    /// Fraction of pairs that did **not** need crowdsourcing — the headline
    /// savings of the paper (e.g. ~95% on the Paper dataset).
    #[must_use]
    pub fn savings_ratio(&self) -> f64 {
        if self.in_order.is_empty() {
            0.0
        } else {
            self.deduced as f64 / self.in_order.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut r = LabelingResult::new();
        r.record(Pair::new(0, 1), Label::Matching, Provenance::Crowdsourced);
        r.record(Pair::new(1, 2), Label::Matching, Provenance::Crowdsourced);
        r.record(Pair::new(0, 2), Label::Matching, Provenance::Deduced);
        r.record(Pair::new(0, 3), Label::NonMatching, Provenance::Crowdsourced);

        assert_eq!(r.num_crowdsourced(), 3);
        assert_eq!(r.num_deduced(), 1);
        assert_eq!(r.num_labeled(), 4);
        assert_eq!(r.label_of(Pair::new(0, 2)), Some(Label::Matching));
        assert_eq!(r.provenance_of(Pair::new(0, 2)), Some(Provenance::Deduced));
        assert_eq!(r.label_of(Pair::new(2, 3)), None);
        assert!((r.savings_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_result() {
        let r = LabelingResult::new();
        assert_eq!(r.num_labeled(), 0);
        assert_eq!(r.savings_ratio(), 0.0);
        assert_eq!(r.num_conflicts(), 0);
    }
}

//! The sorting component (Section 4): labeling orders.
//!
//! The number of pairs that must be crowdsourced depends on the order in
//! which pairs are labeled. The paper proves (Theorem 1) that labeling all
//! matching pairs before all non-matching pairs is optimal, but that order
//! needs the true labels upfront; the practical heuristic labels pairs in
//! decreasing likelihood of matching. (The revised paper notes that finding
//! the *expected*-optimal order is NP-hard — Vesdapunt et al., VLDB 2014 —
//! so likelihood-descending is a heuristic, evaluated in Figure 12.)

use crate::truth::GroundTruth;
use crate::types::{CandidateSet, Label, ScoredPair};

/// A labeling-order strategy.
#[derive(Debug, Clone, Copy)]
pub enum SortStrategy<'a> {
    /// Theorem 1's optimal order: all true matching pairs first, then all
    /// non-matching pairs (requires ground truth — experiment-only).
    Optimal(&'a GroundTruth),
    /// The practical heuristic: decreasing machine likelihood ("Expect
    /// Order" in Figure 12).
    ExpectedLikelihood,
    /// Uniformly random order from the given seed ("Random Order").
    Random {
        /// Shuffle seed.
        seed: u64,
    },
    /// The adversarial baseline: all true non-matching pairs first ("Worst
    /// Order"; requires ground truth — experiment-only).
    Worst(&'a GroundTruth),
}

impl SortStrategy<'_> {
    /// Short human-readable name, used in experiment reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SortStrategy::Optimal(_) => "optimal",
            SortStrategy::ExpectedLikelihood => "expected",
            SortStrategy::Random { .. } => "random",
            SortStrategy::Worst(_) => "worst",
        }
    }
}

/// Produces the labeling order for `candidates` under `strategy`.
///
/// All strategies are deterministic: ties in likelihood break by pair id, and
/// the random order is a seeded shuffle.
#[must_use]
pub fn sort_pairs(candidates: &CandidateSet, strategy: SortStrategy<'_>) -> Vec<ScoredPair> {
    let mut pairs: Vec<ScoredPair> = candidates.pairs().to_vec();
    match strategy {
        SortStrategy::ExpectedLikelihood => {
            sort_by_likelihood_desc(&mut pairs);
        }
        SortStrategy::Random { seed } => {
            crowdjoin_util::seeded_rng(seed).shuffle(&mut pairs);
        }
        SortStrategy::Optimal(truth) => {
            // Matching pairs first; inside each group keep likelihood order
            // (Lemma 3: any order within a group gives the same count).
            sort_by_likelihood_desc(&mut pairs);
            pairs.sort_by_key(|sp| match truth.label_of(sp.pair) {
                Label::Matching => 0u8,
                Label::NonMatching => 1u8,
            });
        }
        SortStrategy::Worst(truth) => {
            sort_by_likelihood_desc(&mut pairs);
            pairs.sort_by_key(|sp| match truth.label_of(sp.pair) {
                Label::NonMatching => 0u8,
                Label::Matching => 1u8,
            });
        }
    }
    pairs
}

/// Sorts by likelihood descending with deterministic tie-breaking on the pair
/// ids (likelihoods are clamped finite by `ScoredPair::new`).
fn sort_by_likelihood_desc(pairs: &mut [ScoredPair]) {
    pairs.sort_by(|x, y| y.likelihood.total_cmp(&x.likelihood).then_with(|| x.pair.cmp(&y.pair)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Pair;

    fn candidates() -> (CandidateSet, GroundTruth) {
        // Running example of Figure 3 (0-based ids): p1..p8 with likelihoods
        // decreasing. True clusters: {o1,o2,o3} and {o4,o5}.
        let truth = GroundTruth::from_clusters(6, &[vec![0, 1, 2], vec![3, 4]]);
        let pairs = vec![
            ScoredPair::new(Pair::new(0, 1), 0.95), // p1 M
            ScoredPair::new(Pair::new(1, 2), 0.90), // p2 M
            ScoredPair::new(Pair::new(0, 5), 0.85), // p3 N
            ScoredPair::new(Pair::new(0, 2), 0.80), // p4 M
            ScoredPair::new(Pair::new(3, 4), 0.75), // p5 M
            ScoredPair::new(Pair::new(3, 5), 0.70), // p6 N
            ScoredPair::new(Pair::new(1, 3), 0.65), // p7 N
            ScoredPair::new(Pair::new(4, 5), 0.60), // p8 N
        ];
        (CandidateSet::new(6, pairs), truth)
    }

    #[test]
    fn expected_order_is_likelihood_desc() {
        let (cs, _) = candidates();
        let sorted = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let likes: Vec<f64> = sorted.iter().map(|sp| sp.likelihood).collect();
        let mut expected = likes.clone();
        expected.sort_by(|a, b| b.total_cmp(a));
        assert_eq!(likes, expected);
    }

    #[test]
    fn optimal_order_puts_matching_first() {
        let (cs, truth) = candidates();
        let sorted = sort_pairs(&cs, SortStrategy::Optimal(&truth));
        let labels: Vec<Label> = sorted.iter().map(|sp| truth.label_of(sp.pair)).collect();
        let first_nonmatching = labels.iter().position(|&l| l == Label::NonMatching).unwrap();
        assert!(
            labels[first_nonmatching..].iter().all(|&l| l == Label::NonMatching),
            "matching pair found after a non-matching pair"
        );
        assert_eq!(labels.iter().filter(|&&l| l == Label::Matching).count(), 4);
    }

    #[test]
    fn worst_order_puts_nonmatching_first() {
        let (cs, truth) = candidates();
        let sorted = sort_pairs(&cs, SortStrategy::Worst(&truth));
        let labels: Vec<Label> = sorted.iter().map(|sp| truth.label_of(sp.pair)).collect();
        let first_matching = labels.iter().position(|&l| l == Label::Matching).unwrap();
        assert!(labels[first_matching..].iter().all(|&l| l == Label::Matching));
    }

    #[test]
    fn random_order_is_seed_deterministic() {
        let (cs, _) = candidates();
        let a = sort_pairs(&cs, SortStrategy::Random { seed: 11 });
        let b = sort_pairs(&cs, SortStrategy::Random { seed: 11 });
        let c = sort_pairs(&cs, SortStrategy::Random { seed: 12 });
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should (generically) differ");
    }

    /// The random order of a committed seed never changes: these are the
    /// orders the seeded shuffle has always produced on the running example.
    #[test]
    fn random_order_streams_are_pinned() {
        let (cs, _) = candidates();
        let order = |seed| -> Vec<(u32, u32)> {
            let sorted = sort_pairs(&cs, SortStrategy::Random { seed });
            sorted.iter().map(|sp| (sp.pair.a(), sp.pair.b())).collect()
        };
        let seed_11 = [(3, 5), (0, 5), (1, 3), (4, 5), (1, 2), (0, 2), (0, 1), (3, 4)];
        let seed_12 = [(0, 1), (3, 5), (1, 3), (0, 2), (3, 4), (1, 2), (4, 5), (0, 5)];
        assert_eq!(order(11), seed_11);
        assert_eq!(order(12), seed_12);
    }

    #[test]
    fn all_orders_are_permutations() {
        let (cs, truth) = candidates();
        for strategy in [
            SortStrategy::Optimal(&truth),
            SortStrategy::ExpectedLikelihood,
            SortStrategy::Random { seed: 3 },
            SortStrategy::Worst(&truth),
        ] {
            let mut sorted: Vec<_> = sort_pairs(&cs, strategy).iter().map(|sp| sp.pair).collect();
            sorted.sort();
            let mut orig: Vec<_> = cs.pairs().iter().map(|sp| sp.pair).collect();
            orig.sort();
            assert_eq!(sorted, orig, "strategy {} lost pairs", strategy.name());
        }
    }
}

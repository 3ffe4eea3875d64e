//! The simple one-pair-at-a-time labeler (Section 3.2).
//!
//! Pairs are processed in the given order; each pair is deduced from the
//! already-labeled pairs when possible and crowdsourced otherwise. This
//! labeler is the cost reference: the parallel labeler must crowdsource
//! exactly the same pairs (for consistent answers), it just publishes them
//! in batches.

use crate::oracle::Oracle;
use crate::result::LabelingResult;
use crate::types::{Provenance, ScoredPair};
use crowdjoin_graph::ClusterGraph;

/// Labels `order` one pair at a time against `oracle`.
///
/// `num_objects` is the size of the object universe the pairs index into.
///
/// With a consistent oracle the number of crowdsourced pairs equals the
/// minimum required by this order; with the optimal order (Theorem 1) it is
/// the global minimum.
///
/// # Panics
///
/// Panics if a pair references an object `>= num_objects`.
pub fn label_sequential(
    num_objects: usize,
    order: &[ScoredPair],
    oracle: &mut dyn Oracle,
) -> LabelingResult {
    let mut graph = ClusterGraph::new(num_objects);
    let mut result = LabelingResult::new();
    for sp in order {
        let (a, b) = (sp.pair.a(), sp.pair.b());
        if let Some(label) = graph.deduce(a, b) {
            result.record(sp.pair, label, Provenance::Deduced);
        } else {
            let label = oracle.answer(sp.pair);
            // `deduce` returned None, so the insert cannot conflict.
            graph.insert(a, b, label).expect("insert after failed deduction cannot conflict");
            result.record(sp.pair, label, Provenance::Crowdsourced);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::sort::{sort_pairs, SortStrategy};
    use crate::truth::GroundTruth;
    use crate::types::Pair;

    #[test]
    fn figure3_optimal_order_crowdsources_six() {
        // The paper's Example 2: the optimum is six crowdsourced pairs
        // (p4 deduced from p1,p2; p6 deduced from p5,p8 — or an equivalent
        // deduction set under a different optimal order).
        let (cs, truth) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::Optimal(&truth));
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = label_sequential(cs.num_objects(), &order, &mut oracle);
        assert_eq!(result.num_crowdsourced(), 6);
        assert_eq!(result.num_deduced(), 2);
    }

    #[test]
    fn figure3_expected_order_also_six() {
        // With likelihoods sorted as given (p1..p8), the expected order also
        // achieves 6 here: p4 deduced from {p1,p2}, p8 deduced from {p5,p6}.
        let (cs, truth) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = label_sequential(cs.num_objects(), &order, &mut oracle);
        assert_eq!(result.num_crowdsourced(), 6);
    }

    #[test]
    fn labels_agree_with_truth_for_perfect_oracle() {
        let (cs, truth) = crate::running_example();
        for strategy in [
            SortStrategy::Optimal(&truth),
            SortStrategy::ExpectedLikelihood,
            SortStrategy::Random { seed: 5 },
            SortStrategy::Worst(&truth),
        ] {
            let order = sort_pairs(&cs, strategy);
            let mut oracle = GroundTruthOracle::new(&truth);
            let result = label_sequential(cs.num_objects(), &order, &mut oracle);
            assert_eq!(result.num_labeled(), cs.len());
            for sp in cs.pairs() {
                assert_eq!(
                    result.label_of(sp.pair),
                    Some(truth.label_of(sp.pair)),
                    "wrong label for {} under {}",
                    sp.pair,
                    strategy.name()
                );
            }
        }
    }

    #[test]
    fn section31_example_order_matters() {
        // Section 3.1: pairs (o1,o2)M, (o2,o3)N, (o1,o3)N.
        // Order ⟨(o1,o2),(o2,o3),(o1,o3)⟩ crowdsources 2;
        // order ⟨(o2,o3),(o1,o3),(o1,o2)⟩ crowdsources 3.
        let truth = GroundTruth::from_clusters(3, &[vec![0, 1]]);
        let p12 = ScoredPair::new(Pair::new(0, 1), 0.9);
        let p23 = ScoredPair::new(Pair::new(1, 2), 0.5);
        let p13 = ScoredPair::new(Pair::new(0, 2), 0.1);

        let mut oracle = GroundTruthOracle::new(&truth);
        let good = label_sequential(3, &[p12, p23, p13], &mut oracle);
        assert_eq!(good.num_crowdsourced(), 2);

        let mut oracle = GroundTruthOracle::new(&truth);
        let bad = label_sequential(3, &[p23, p13, p12], &mut oracle);
        assert_eq!(bad.num_crowdsourced(), 3);
    }

    #[test]
    fn empty_order_crowdsources_nothing() {
        let truth = GroundTruth::all_distinct(3);
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = label_sequential(3, &[], &mut oracle);
        assert_eq!(result.num_labeled(), 0);
        assert_eq!(oracle.questions_asked(), 0);
    }

    #[test]
    fn oracle_asked_exactly_crowdsourced_count() {
        let (cs, truth) = crate::running_example();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = label_sequential(cs.num_objects(), &order, &mut oracle);
        assert_eq!(oracle.questions_asked(), result.num_crowdsourced() as u64);
    }
}

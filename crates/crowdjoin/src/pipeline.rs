//! Glue from datasets and machine candidates to labeling tasks.
//!
//! `crowdjoin-records` and `crowdjoin-matcher` know nothing about the
//! labeling framework, and `crowdjoin-core` knows nothing about records.
//! This module adapts between them: a [`Dataset`] plus a [`MatcherConfig`]
//! becomes a [`LabelingTask`] with its [`GroundTruth`].

use crowdjoin_core::{CandidateSet, GroundTruth, LabelingTask, Pair, ScoredPair};
use crowdjoin_matcher::{generate_candidates, MatcherConfig, ScoredCandidate};
use crowdjoin_records::Dataset;

/// Converts machine candidates into the core candidate-set type.
///
/// # Panics
///
/// Panics if a candidate references a record outside the dataset.
#[must_use]
pub fn to_candidate_set(dataset: &Dataset, candidates: &[ScoredCandidate]) -> CandidateSet {
    let pairs =
        candidates.iter().map(|c| ScoredPair::new(Pair::new(c.a, c.b), c.likelihood)).collect();
    CandidateSet::new(dataset.len(), pairs)
}

/// Extracts the dataset's ground truth in core terms.
#[must_use]
pub fn ground_truth_of(dataset: &Dataset) -> GroundTruth {
    GroundTruth::new(dataset.entity_of.clone())
}

/// Runs the machine stage end to end: candidate generation, likelihood
/// thresholding ("only ask the crowd to label the most likely matching
/// pairs"), and task construction.
///
/// Returns the labeling task and the ground truth (used for oracles,
/// experiment-only orders, and quality scoring).
#[must_use]
pub fn build_task(
    dataset: &Dataset,
    matcher: &MatcherConfig,
    likelihood_threshold: f64,
) -> (LabelingTask, GroundTruth) {
    let candidates = generate_candidates(dataset, matcher);
    let set = to_candidate_set(dataset, &candidates).above_threshold(likelihood_threshold);
    (LabelingTask::new(set), ground_truth_of(dataset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdjoin_core::{GroundTruthOracle, SortStrategy};
    use crowdjoin_records::{generate_paper, ClusterSpec, PaperGenConfig, PerturbConfig};

    fn small_dataset() -> Dataset {
        generate_paper(&PaperGenConfig {
            num_records: 50,
            clusters: ClusterSpec::Explicit(vec![(5, 3), (2, 5)]),
            perturb: PerturbConfig::light(),
            sibling_probability: 0.0,
            seed: 123,
        })
    }

    #[test]
    fn build_task_produces_labelable_candidates() {
        let _registry =
            crate::METRICS_TEST_LOCK.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ds = small_dataset();
        let (task, truth) = build_task(&ds, &MatcherConfig::for_arity(5), 0.3);
        assert!(!task.candidates().is_empty(), "threshold 0.3 should keep some pairs");
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut oracle);
        assert_eq!(result.num_labeled(), task.candidates().len());
        // Everything labeled correctly with the perfect oracle.
        for sp in task.candidates().pairs() {
            assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
    }

    #[test]
    fn higher_threshold_keeps_fewer_pairs() {
        let _registry =
            crate::METRICS_TEST_LOCK.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let ds = small_dataset();
        let (low, _) = build_task(&ds, &MatcherConfig::for_arity(5), 0.1);
        let (high, _) = build_task(&ds, &MatcherConfig::for_arity(5), 0.5);
        assert!(high.candidates().len() <= low.candidates().len());
    }

    #[test]
    fn ground_truth_matches_dataset() {
        let ds = small_dataset();
        let truth = ground_truth_of(&ds);
        assert_eq!(truth.num_objects(), ds.len());
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len().min(i + 5) {
                assert_eq!(
                    truth.is_matching(Pair::new(i as u32, j as u32)),
                    ds.is_true_match(i, j)
                );
            }
        }
    }
}

//! The hybrid transitive-relations + crowdsourcing labeling framework
//! (Section 3, Figure 4): sorting component + labeling component behind one
//! entry point.

use crate::oracle::Oracle;
use crate::result::LabelingResult;
use crate::sequential::label_sequential;
use crate::sort::{sort_pairs, SortStrategy};
use crate::types::CandidateSet;

/// A labeling task: machine-generated candidate pairs awaiting labels.
///
/// ```
/// use crowdjoin_core::{
///     CandidateSet, GroundTruth, GroundTruthOracle, LabelingTask, Pair, ScoredPair,
///     SortStrategy,
/// };
///
/// let truth = GroundTruth::from_clusters(3, &[vec![0, 1, 2]]);
/// let candidates = CandidateSet::new(3, vec![
///     ScoredPair::new(Pair::new(0, 1), 0.9),
///     ScoredPair::new(Pair::new(1, 2), 0.8),
///     ScoredPair::new(Pair::new(0, 2), 0.7),
/// ]);
/// let task = LabelingTask::new(candidates);
/// let mut oracle = GroundTruthOracle::new(&truth);
/// let result = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut oracle);
/// assert_eq!(result.num_crowdsourced(), 2); // third pair deduced
/// assert_eq!(result.num_deduced(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LabelingTask {
    candidates: CandidateSet,
}

impl LabelingTask {
    /// Wraps a candidate set as a labeling task.
    #[must_use]
    pub fn new(candidates: CandidateSet) -> Self {
        Self { candidates }
    }

    /// The underlying candidate set.
    #[must_use]
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// Sorts then labels one pair at a time (Section 3.2's simple labeler).
    pub fn run_sequential(
        &self,
        strategy: SortStrategy<'_>,
        oracle: &mut dyn Oracle,
    ) -> LabelingResult {
        let order = sort_pairs(&self.candidates, strategy);
        label_sequential(self.candidates.num_objects(), &order, oracle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::label_non_transitive;
    use crate::oracle::GroundTruthOracle;
    use crate::parallel::run_parallel_rounds;
    use crate::truth::GroundTruth;
    use crate::types::{Pair, ScoredPair};

    fn task() -> (LabelingTask, GroundTruth) {
        let truth = GroundTruth::from_clusters(4, &[vec![0, 1, 2, 3]]);
        let mut pairs = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                pairs.push(ScoredPair::new(Pair::new(a, b), 0.5 + 0.01 * a as f64));
            }
        }
        (LabelingTask::new(CandidateSet::new(4, pairs)), truth)
    }

    #[test]
    fn sequential_beats_non_transitive() {
        let (task, truth) = task();
        let mut o1 = GroundTruthOracle::new(&truth);
        let seq = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut o1);
        let mut o2 = GroundTruthOracle::new(&truth);
        let baseline = label_non_transitive(task.candidates().pairs(), &mut o2);
        assert_eq!(seq.num_crowdsourced(), 3, "spanning tree of the 4-clique");
        assert_eq!(baseline.num_crowdsourced(), 6);
    }

    #[test]
    fn parallel_equals_sequential_cost() {
        let (task, truth) = task();
        let mut o1 = GroundTruthOracle::new(&truth);
        let seq = task.run_sequential(SortStrategy::ExpectedLikelihood, &mut o1);
        let mut o2 = GroundTruthOracle::new(&truth);
        let order = sort_pairs(task.candidates(), SortStrategy::ExpectedLikelihood);
        let (par, stats) = run_parallel_rounds(4, order, &mut o2);
        assert_eq!(par.num_crowdsourced(), seq.num_crowdsourced());
        assert!(stats.num_iterations() <= seq.num_crowdsourced());
    }
}

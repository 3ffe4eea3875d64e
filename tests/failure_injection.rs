//! Failure injection: worker error sweeps, adversarial orders, degenerate
//! candidate graphs. The framework must degrade gracefully, never panic,
//! and keep its accounting consistent.

use crowdjoin::core::NoisyOracle;
use crowdjoin::{
    label_sequential, run_parallel_rounds, sort_pairs, CandidateSet, GroundTruth,
    GroundTruthOracle, Pair, QualityMetrics, ScoredPair, SortStrategy,
};

/// A clique candidate set over one true cluster.
fn clique(k: u32) -> (GroundTruth, CandidateSet) {
    let truth = GroundTruth::from_clusters(k as usize, &[(0..k).collect()]);
    let mut pairs = Vec::new();
    for a in 0..k {
        for b in (a + 1)..k {
            pairs.push(ScoredPair::new(Pair::new(a, b), 0.9 - (a + b) as f64 * 0.001));
        }
    }
    (truth, CandidateSet::new(k as usize, pairs))
}

/// A star: center matches everyone, leaves all differ pairwise.
fn star(k: u32) -> (GroundTruth, CandidateSet) {
    let truth = GroundTruth::from_clusters((k + 1) as usize, &[vec![0, 1]]);
    let mut pairs = vec![ScoredPair::new(Pair::new(0, 1), 0.95)];
    for leaf in 2..=k {
        pairs.push(ScoredPair::new(Pair::new(0, leaf), 0.5));
        pairs.push(ScoredPair::new(Pair::new(1, leaf), 0.4));
    }
    (truth, CandidateSet::new((k + 1) as usize, pairs))
}

#[test]
fn clique_needs_exactly_spanning_tree() {
    let (truth, cs) = clique(12);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    let mut oracle = GroundTruthOracle::new(&truth);
    let result = label_sequential(cs.num_objects(), &order, &mut oracle);
    assert_eq!(result.num_crowdsourced(), 11);
    assert_eq!(result.num_deduced(), cs.len() - 11);
}

#[test]
fn star_deduces_leaf_edges() {
    let (truth, cs) = star(10);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    let mut oracle = GroundTruthOracle::new(&truth);
    let result = label_sequential(cs.num_objects(), &order, &mut oracle);
    // (0,1) matching + one non-matching edge per leaf; the second edge of
    // each leaf is deduced.
    assert_eq!(result.num_crowdsourced(), 1 + 9);
    assert_eq!(result.num_deduced(), 9);
}

#[test]
fn chain_has_no_deduction() {
    // A path of all-distinct objects: nothing is ever deducible (two
    // non-matching edges never deduce).
    let n = 30u32;
    let truth = GroundTruth::all_distinct(n as usize);
    let pairs: Vec<ScoredPair> =
        (0..n - 1).map(|i| ScoredPair::new(Pair::new(i, i + 1), 0.5)).collect();
    let cs = CandidateSet::new(n as usize, pairs);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    let mut oracle = GroundTruthOracle::new(&truth);
    let result = label_sequential(cs.num_objects(), &order, &mut oracle);
    assert_eq!(result.num_crowdsourced(), (n - 1) as usize);
    assert_eq!(result.num_deduced(), 0);
}

#[test]
fn disconnected_components_are_independent() {
    // Two cliques with no candidate pairs between them.
    let truth = GroundTruth::from_clusters(8, &[vec![0, 1, 2, 3], vec![4, 5, 6, 7]]);
    let mut pairs = Vec::new();
    for group in [[0u32, 1, 2, 3], [4, 5, 6, 7]] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                pairs.push(ScoredPair::new(Pair::new(group[i], group[j]), 0.8));
            }
        }
    }
    let cs = CandidateSet::new(8, pairs);
    let mut oracle = GroundTruthOracle::new(&truth);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    let result = label_sequential(cs.num_objects(), &order, &mut oracle);
    assert_eq!(result.num_crowdsourced(), 3 + 3, "spanning tree per component");
}

#[test]
fn noise_sweep_quality_monotonically_degrades() {
    let (truth, cs) = clique(14);
    let order = sort_pairs(&cs, SortStrategy::ExpectedLikelihood);
    let mut f_scores = Vec::new();
    for &rate in &[0.0, 0.1, 0.3] {
        let mut oracle = NoisyOracle::new(&truth, rate, 99);
        let result = label_sequential(cs.num_objects(), &order, &mut oracle);
        assert_eq!(result.num_labeled(), cs.len(), "rate {rate}");
        f_scores.push(QualityMetrics::of_result(&result, &truth).f_measure());
    }
    assert_eq!(f_scores[0], 1.0);
    assert!(f_scores[2] < f_scores[0], "30% noise must hurt: {f_scores:?}");
}

#[test]
fn noisy_parallel_never_panics_and_accounts_consistently() {
    for seed in 0..8u64 {
        let (truth, cs) = star(12);
        let order = sort_pairs(&cs, SortStrategy::Random { seed });
        let mut oracle = NoisyOracle::new(&truth, 0.25, seed);
        let (result, stats) = run_parallel_rounds(cs.num_objects(), order, &mut oracle);
        assert_eq!(result.num_labeled(), cs.len());
        assert_eq!(stats.total_crowdsourced(), result.num_crowdsourced());
        // Conflicts are possible under noise but bounded by the number of
        // crowdsourced pairs.
        assert!(result.num_conflicts() <= result.num_crowdsourced());
    }
}

#[test]
fn adversarial_worst_order_still_terminates_and_is_correct() {
    let (truth, cs) = clique(16);
    let order = sort_pairs(&cs, SortStrategy::Worst(&truth));
    let mut oracle = GroundTruthOracle::new(&truth);
    let result = label_sequential(cs.num_objects(), &order, &mut oracle);
    assert_eq!(result.num_labeled(), cs.len());
    for sp in cs.pairs() {
        assert_eq!(result.label_of(sp.pair), Some(truth.label_of(sp.pair)));
    }
}

#[test]
fn empty_and_singleton_candidate_sets() {
    let truth = GroundTruth::all_distinct(3);
    let empty = CandidateSet::new(3, vec![]);
    let mut oracle = GroundTruthOracle::new(&truth);
    let r = label_sequential(3, &sort_pairs(&empty, SortStrategy::ExpectedLikelihood), &mut oracle);
    assert_eq!(r.num_labeled(), 0);

    let single = CandidateSet::new(3, vec![ScoredPair::new(Pair::new(0, 2), 0.5)]);
    let (result, stats) =
        run_parallel_rounds(3, sort_pairs(&single, SortStrategy::ExpectedLikelihood), &mut oracle);
    assert_eq!(result.num_crowdsourced(), 1);
    assert_eq!(stats.num_iterations(), 1);
}

#[test]
fn extreme_likelihoods_are_handled() {
    // All-zero and all-one likelihoods must sort deterministically and label
    // fine.
    let truth = GroundTruth::from_clusters(4, &[vec![0, 1, 2, 3]]);
    let pairs = vec![
        ScoredPair::new(Pair::new(0, 1), 0.0),
        ScoredPair::new(Pair::new(1, 2), 1.0),
        ScoredPair::new(Pair::new(2, 3), 0.0),
        ScoredPair::new(Pair::new(0, 3), 1.0),
    ];
    let cs = CandidateSet::new(4, pairs);
    let mut oracle = GroundTruthOracle::new(&truth);
    let result =
        label_sequential(4, &sort_pairs(&cs, SortStrategy::ExpectedLikelihood), &mut oracle);
    assert_eq!(result.num_labeled(), 4);
    assert_eq!(result.num_crowdsourced(), 3);
}
